"""Text formats for CDGAs and manifold inputs.

Both formats are line-based `key: value` documents; parsing reports the
line number of every complaint, and `parse(serialize(x))` returns a
value equal to `x` (serialization is canonical).

CDGA document:

    kind: free | finite
    label: <string>                  (optional)
    generator: <name> <degree>       (free kind, declaration order)
    basis: <name> <degree>           (finite kind; exactly one degree 0)
    product: <u> * <v> = <linear expression>     (finite kind)
    d: <name> = <expression>         (omitted differentials are zero)
    simply-connected: true           (finite kind, optional)

Manifold document: the same fields plus

    manifold: <name>
    dimension: <m>
    pontryagin: <i> = <expression>   (cocycle for p_i, 4i <= m)
"""

from __future__ import annotations

from .bundles import ManifoldModel
from .cdga import FiniteAlgebra, FiniteCdga, FreeCdga
from .errors import ContextError, DegreeError, InputError, ParseError
from .gca import Element, FreeAlgebra, Generator, parse_element

__all__ = ["parse_cdga", "serialize_cdga", "parse_manifold",
           "serialize_manifold", "load_cdga", "load_manifold"]

_CDGA_KEYS = {"kind", "label", "generator", "basis", "product", "d",
              "simply-connected"}
_MANIFOLD_KEYS = _CDGA_KEYS | {"manifold", "dimension", "pontryagin"}
# what the constructors raise on bad input; anything else is an internal
# fault and propagates
_INPUT_ERRORS = (ValueError, DegreeError, ContextError)


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", line=lineno)
        key, _, value = line.partition(":")
        yield lineno, key.strip(), value.strip()


def _parse_named_degree(value: str, lineno: int):
    parts = value.split()
    if len(parts) != 2:
        raise ParseError(f"expected '<name> <degree>', got {value!r}", line=lineno)
    name, deg = parts
    try:
        deg = int(deg)
    except ValueError:
        raise ParseError(f"degree must be an integer, got {parts[1]!r}",
                         line=lineno) from None
    return name, deg


def _parse_assignment(value: str, lineno: int, what: str):
    if "=" not in value:
        raise ParseError(f"expected '<{what}> = <expression>', got {value!r}",
                         line=lineno)
    lhs, _, rhs = value.partition("=")
    return lhs.strip(), rhs.strip()


def _collect(text: str, allowed: set[str]):
    fields: dict[str, list[tuple[int, str]]] = {}
    for lineno, key, value in _lines(text):
        if key not in allowed:
            raise ParseError(f"unknown field {key!r}", line=lineno)
        fields.setdefault(key, []).append((lineno, value))
    return fields


def _single(fields, key, required: bool = False, default=None):
    entries = fields.get(key, [])
    if not entries:
        if required:
            raise ParseError(f"missing required field {key!r}", line=0)
        return default
    if len(entries) > 1:
        raise ParseError(f"field {key!r} given more than once",
                         line=entries[1][0])
    return entries[0][1]


def _build_cdga(fields) -> FreeCdga | FiniteCdga:
    """The CDGA the fields describe; a constructor's complaint about the
    input becomes a ParseError for the document as a whole (line 0)."""
    try:
        return _cdga_of(fields)
    except _INPUT_ERRORS as exc:
        raise ParseError(str(exc), line=0) from None


def _cdga_of(fields) -> FreeCdga | FiniteCdga:
    kind = _single(fields, "kind", required=True)
    label = _single(fields, "label", default="") or ""
    if kind == "free":
        if "basis" in fields or "product" in fields or "simply-connected" in fields:
            bad = next(k for k in ("basis", "product", "simply-connected")
                       if k in fields)
            raise ParseError(f"field {bad!r} is not valid for kind 'free'",
                             line=fields[bad][0][0])
        gens = []
        for lineno, value in fields.get("generator", []):
            name, deg = _parse_named_degree(value, lineno)
            try:
                gens.append(Generator(name, deg))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
        algebra = FreeAlgebra(gens, label=label)
        names, noun = {g.name for g in gens}, "generator"
    elif kind == "finite":
        if "generator" in fields:
            raise ParseError("field 'generator' is not valid for kind 'finite' "
                             "(use 'basis')", line=fields["generator"][0][0])
        basis = []
        for lineno, value in fields.get("basis", []):
            basis.append(_parse_named_degree(value, lineno))
        names, noun = {name for name, _ in basis}, "basis element"
        products = {}
        for lineno, value in fields.get("product", []):
            lhs, expr = _parse_assignment(value, lineno, "u * v")
            factors = [p.strip() for p in lhs.split("*")]
            if len(factors) != 2:
                raise ParseError(f"product left side must be '<u> * <v>', "
                                 f"got {lhs!r}", line=lineno)
            for f in factors:
                if f not in names:
                    raise ParseError(f"unknown basis element {f!r}", line=lineno)
            pair = (factors[0], factors[1])
            if pair in products:
                raise ParseError(f"product: {pair[0]} * {pair[1]} given more than once",
                                 line=lineno)
            products[pair] = (lineno, expr)
        try:
            algebra = FiniteAlgebra(basis, {k: e for k, (_, e) in products.items()},
                                    label=label)
        except (ParseError, *_INPUT_ERRORS) as exc:
            if not hasattr(exc, "product"):  # not about one product value
                raise
            lineno, expr = products[exc.product]
            raise ParseError(f"{exc} (in expression {expr!r})", line=lineno) from None
    else:
        lineno = fields["kind"][0][0]
        raise ParseError(f"kind must be 'free' or 'finite', got {kind!r}", line=lineno)
    diff = {}
    for lineno, value in fields.get("d", []):
        name, expr = _parse_assignment(value, lineno, "name")
        if name not in names:
            raise ParseError(f"differential set on unknown {noun} {name!r}",
                             line=lineno)
        if name in diff:
            raise ParseError(f"d: {name} given more than once", line=lineno)
        try:
            diff[name] = parse_element(expr, algebra)
        except (ParseError, InputError) as exc:
            raise ParseError(f"{exc} (in expression {expr!r})", line=lineno) from None
    if kind == "free":
        return FreeCdga(algebra, diff, label=label)
    sc = _single(fields, "simply-connected", default="false")
    if sc not in ("true", "false"):
        raise ParseError("simply-connected must be 'true' or 'false'",
                         line=fields["simply-connected"][0][0])
    return FiniteCdga(algebra, differential=diff, label=label,
                      simply_connected=(sc == "true"))


def parse_cdga(text: str) -> FreeCdga | FiniteCdga:
    return _build_cdga(_collect(text, _CDGA_KEYS))


def serialize_cdga(cdga) -> str:
    out = []
    if isinstance(cdga, FreeCdga):
        out.append("kind: free")
        if cdga.label:
            out.append(f"label: {cdga.label}")
        for g in cdga.algebra.generators:
            out.append(f"generator: {g.name} {g.degree}")
        for g in cdga.algebra.generators:
            img = cdga.differential_of_generator(g.name)
            if not img.is_zero():
                out.append(f"d: {g.name} = {img}")
    elif isinstance(cdga, FiniteCdga):
        alg = cdga.algebra
        out.append("kind: finite")
        if cdga.label:
            out.append(f"label: {cdga.label}")
        for name, deg in alg.basis:
            out.append(f"basis: {name} {deg}")
        n = len(alg.basis)
        for u in range(n):
            for v in range(u, n):
                if u == alg.unit or v == alg.unit:
                    continue
                vec = dict(alg.mul_key_pairs(u, v))
                if not vec:
                    continue
                value = Element(alg, vec)
                out.append(f"product: {alg.basis[u][0]} * {alg.basis[v][0]} = {value}")
        for i, (name, _) in enumerate(alg.basis):
            img = cdga.diff_key(i)
            if not img.is_zero():
                out.append(f"d: {name} = {img}")
        if cdga.simply_connected:
            out.append("simply-connected: true")
    else:
        raise TypeError(f"cannot serialize {type(cdga).__name__}")
    return "\n".join(out) + "\n"


def parse_manifold(text: str) -> ManifoldModel:
    fields = _collect(text, _MANIFOLD_KEYS)
    name = _single(fields, "manifold", default="") or ""
    dim_str = _single(fields, "dimension", required=True)
    try:
        dimension = int(dim_str)
    except ValueError:
        lineno = fields["dimension"][0][0]
        raise ParseError(f"dimension must be an integer, got {dim_str!r}",
                         line=lineno) from None
    pont = {}
    for lineno, value in fields.get("pontryagin", []):
        idx, expr = _parse_assignment(value, lineno, "i")
        try:
            idx = int(idx)
        except ValueError:
            raise ParseError(f"Pontryagin index must be an integer, got {idx!r}",
                             line=lineno) from None
        if idx in pont:
            raise ParseError(f"p_{idx} given more than once", line=lineno)
        pont[idx] = (lineno, expr)
    cdga_fields = {k: v for k, v in fields.items() if k in _CDGA_KEYS}
    model = _build_cdga(cdga_fields)
    try:
        return ManifoldModel(dimension, model, {i: e for i, (_, e) in pont.items()},
                             name=name)
    except (ParseError, *_INPUT_ERRORS) as exc:
        if not hasattr(exc, "pontryagin"):  # not about one entry
            raise ParseError(str(exc), line=0) from None
        lineno, expr = pont[exc.pontryagin]
        where = f" (in expression {expr!r})" if isinstance(exc, ParseError) else ""
        raise ParseError(f"{exc}{where}", line=lineno) from None


def serialize_manifold(M: ManifoldModel) -> str:
    out = []
    if M.name:
        out.append(f"manifold: {M.name}")
    out.append(f"dimension: {M.dimension}")
    for i in sorted(M.pontryagin):
        out.append(f"pontryagin: {i} = {M.pontryagin[i]}")
    return "\n".join(out) + "\n" + serialize_cdga(M.model)


def load_cdga(path) -> FreeCdga | FiniteCdga:
    with open(path, encoding="utf-8") as fh:
        return parse_cdga(fh.read())


def load_manifold(path) -> ManifoldModel:
    with open(path, encoding="utf-8") as fh:
        return parse_manifold(fh.read())
