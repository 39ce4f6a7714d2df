"""Exception types shared across the package."""


class RatimmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RatimmError, ValueError):
    """An argument or input model that a computation does not accept."""


class ContextError(RatimmError):
    """Operands belong to different algebra contexts."""


class ParseError(RatimmError):
    """Malformed expression or document.

    Carries an optional position: a character offset for inline
    expressions, or a (line, column) pair for documents.
    """

    def __init__(self, message: str, position=None, line=None):
        self.position = position
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        elif position is not None:
            message = f"at offset {position}: {message}"
        super().__init__(message)


class DegreeError(RatimmError):
    """An element fails a homogeneity or degree requirement."""


class ChainMapError(RatimmError):
    """A morphism does not commute with the differentials.

    `generator` names the first generator (or basis element) where
    f(d(g)) differs from d(f(g)).
    """

    def __init__(self, message: str, generator=None):
        self.generator = generator
        super().__init__(message)
