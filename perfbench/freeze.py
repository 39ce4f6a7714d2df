"""Freeze the expected output of every workload into expected.json.

Usage: python3 perfbench/freeze.py

Run this only at a commit whose outputs are trusted: the benchmark
fails every later operation whose output differs from what is frozen
here.  For `cli_cohomology` the expected Betti table is computed
directly with `cohomology(..., engine="dense")`, independently of the
CLI and of the sparse engine it checks.
"""

import json

import workloads  # puts the checkout's src/ on sys.path
import ratimm  # noqa: E402


def main():
    expected = {}
    for workload in workloads.WORKLOADS.values():
        output = workload.solve(workload.prepare())
        record = {"digest": workload.digest(output)}
        if isinstance(workload, workloads.CliCohomology):
            cdga = ratimm.parse_cdga(workloads.cli_cdga_text())
            record["betti"] = ratimm.cohomology(
                cdga, workload.max_degree, representatives=False,
                engine="dense").dims
        problems = workload.check(output, record)
        if problems:
            raise SystemExit(f"freeze: {problems}")
        expected[workload.name] = record
        print(workload.name, record["digest"][:16], flush=True)
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n",
                                  encoding="utf-8")

if __name__ == "__main__":
    main()
