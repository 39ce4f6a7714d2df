"""The benchmark tracer finds every function it traces.

`perfbench/tracer.py` lists traced names by module and qualified name;
`Tracer.install()` fails on a name that is gone or bound where it does
not patch, so a deleted or rebound name fails here, not only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import ratimm.cli  # noqa: F401  -- imports every module the tracer patches
from ratimm import linalg

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    original = linalg.sparse_rank_kernel
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert linalg.sparse_rank_kernel is not original
        assert all(tracer.sites.values())
    finally:
        tracer.uninstall()
    assert linalg.sparse_rank_kernel is original
