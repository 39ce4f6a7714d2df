"""Each benchmark workload, run once, gives the digest frozen in
`perfbench/expected.json`, so an output change fails here before it
fails a benchmark run.

`perfbench/workloads.py` is loaded as the benchmark loads it; nothing
is written under `perfbench/`: the CLI workload's input file goes to a
temporary directory instead of `prepare()`'s work directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_output_matches_frozen_digest(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    if name == "cli_cohomology":
        path = tmp_path / f"{name}.cdga"
        path.write_text(workloads.cli_cdga_text(), encoding="utf-8")
        inputs = str(path)
    else:
        inputs = workload.prepare()
    output = workload.solve(inputs)
    assert workload.check(output, workloads.load_expected()[name]) == []
