"""The benchmark's workloads: the inputs, the timed operation, and the
digest its output is checked against.

Each workload times one fixed input, whatever the seed.  Inputs that
the seed picked would differ in cost (S2xS4 and CP3 on `imm_null` by a
fifth, random sweeps on `quasi_sweep` by up to two times), so runs with
different seeds would compare different work; and a run that mixes
several inputs repeats each one fewer times, which leaves the fastest
repeats of `run.py` less steady.  The expected digest of every input is
frozen in `expected.json` (see `freeze.py`).

Importing this module puts the checkout's `src/` first on `sys.path`
and imports `ratimm` from there; a directory without the sources makes
the import fail with a message and a nonzero exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

if not (SRC / "ratimm" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no ratimm sources under {SRC}")
sys.path.insert(0, str(SRC))

import ratimm  # noqa: E402
import ratimm.cli  # noqa: E402
from ratimm.sweeps import sweep_instances  # noqa: E402

if not Path(ratimm.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: ratimm imported from {ratimm.__file__}, "
                     f"not from {SRC}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name: str

    def prepare(self):
        """Build fresh inputs (outside the timed region)."""
        raise NotImplementedError

    def solve(self, inputs):
        """The timed operation: calls into ratimm, returns its output."""
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def check(self, output, expected: dict) -> list[str]:
        """Problems with an output; empty when it matches the frozen record."""
        got = self.digest(output)
        if got != expected["digest"]:
            return [f"{self.name}: digest {got[:12]} != "
                    f"frozen {expected['digest'][:12]}"]
        return []


# Fresh ManifoldModel per operation: it memoizes its Betti table.
_S2XS4 = """\
manifold: S^2xS^4
dimension: 6
kind: finite
label: S2xS4
basis: one 0
basis: a2 2
basis: a4 4
basis: a2a4 6
product: a2 * a4 = a2a4
simply-connected: true
"""


class ImmNull(Workload):
    """immersion_components at k=8, N=30: the null mapping model's
    cohomology runs to degree 76, so rank-only sparse elimination on
    large matrices dominates."""

    name = "imm_null"

    def prepare(self):
        return ratimm.parse_manifold(_S2XS4)

    def solve(self, M):
        desc = ratimm.immersion_components(M, 8, 30)
        return ratimm.description_to_json(desc)

    def digest(self, output):
        return sha256(output.encode())


class QuasiSweep(Workload):
    """is_quasi_iso of the reduction map to N=40 over one verification
    sweep: many small relative models, with kernels and representative
    reduction."""

    name = "quasi_sweep"
    cutoff = 40

    def prepare(self):
        return sweep_instances(random.Random(0))  # 50 pairs

    def solve(self, instances):
        reports = []
        for M, k in instances:
            _, phi = ratimm.unreduced_framed_model(M, k)
            report = ratimm.is_quasi_iso(phi, self.cutoff)
            reports.append((report.ok, report.cutoff, tuple(report.per_degree)))
        return reports

    def digest(self, output):
        return sha256(repr(output).encode())


_CLI_GENERATORS = (("e2", 2), ("x3", 3), ("e4", 4), ("y5", 5), ("x7", 7),
                   ("e6", 6), ("x11", 11))
_CLI_DIFFERENTIALS = (("x3", "e2^2"), ("y5", "e2*e4"), ("x7", "e4^2"),
                      ("x11", "e6^2"))


def cli_cdga_text() -> str:
    """The 7-generator free CDGA, with coefficients drawn from Random(0)."""
    rng = random.Random(0)
    lines = ["kind: free", "label: bench7-0"]
    lines += [f"generator: {name} {deg}" for name, deg in _CLI_GENERATORS]
    for name, mono in _CLI_DIFFERENTIALS:
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        lines.append(f"d: {name} = {c}*{mono}")
    return "\n".join(lines) + "\n"


class CliCohomology(Workload):
    """`ratimm cohomology FILE --max-degree 50` in-process: the io and cli
    layers, and the dense oracle the command runs on every call."""

    name = "cli_cohomology"
    max_degree = 50

    def prepare(self):
        WORK.mkdir(exist_ok=True)
        path = WORK / f"{self.name}.cdga"
        path.write_text(cli_cdga_text(), encoding="utf-8")
        return str(path)

    def solve(self, path):
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ratimm.cli.main(["cohomology", path,
                                    "--max-degree", str(self.max_degree)])
        return code, out.getvalue()

    def digest(self, output):
        code, stdout = output
        return sha256(f"exit {code}\n".encode() + stdout.encode())

    @staticmethod
    def betti_row(stdout: str) -> list[int] | None:
        for line in stdout.splitlines():
            if line.startswith("rank:"):
                return [int(b) for b in line.split()[1:]]
        return None

    def check(self, output, expected):
        problems = super().check(output, expected)
        code, stdout = output
        if code != 0:
            problems.append(f"{self.name}: exit code {code}")
        row = self.betti_row(stdout)
        if row != expected["betti"]:
            problems.append(f"{self.name}: Betti row {row} != "
                            f"dense-engine table {expected['betti']}")
        return problems


WORKLOADS = {w.name: w for w in (ImmNull(), QuasiSweep(), CliCohomology())}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))
