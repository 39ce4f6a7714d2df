"""Every narrative demo runs to completion against the package sources,
and the README's library tour gives the values its comments state."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _library_tour() -> str:
    """The python block under the README's "## Library tour"."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour():
    # each bare expression of the tour is evaluated, keyed by its source
    scope, values = {}, {}
    for stmt in ast.parse(_library_tour()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt.value)] = eval(code, scope)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    assert values["cohomology(stiefel_model(2, 2), 10).dims"][:7] == [1, 0, 1, 1, 0, 1, 0]
    assert str(scope["model"].twist_of("x1")) == "e2^2 + 3*aa"
    assert values["is_quasi_iso(phi, 20).ok"] is True
    assert values["is_rationally_trivial(sphere_manifold(2), 3).status"] == "trivial"
    assert values["report.growth"] == "finite"
    assert values["[str(f) for f in factors]"] == ["K(Q,4)", "K(Q,7)"]
    assert values["betti.dims"] == [1, 0, 0, 1]
