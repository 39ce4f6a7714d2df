"""Byte-exact JSON output of the model commands on the demo manifolds.

Each case runs `ratimm.cli.main` in-process with `--format json` and
compares stdout, byte for byte, with a file under `tests/golden/`.  The
files hold the output of the code before differential assembly and
basis enumeration were rewritten; a changed byte is a changed answer.

To regenerate after an intended output change (and only then), run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ratimm.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv without --format, expected exit code)
CASES = {
    "stiefel_m3_k4": (["stiefel", "--m", "3", "--k", "4", "--max-degree", "40"], 0),
    "stiefel_m4_k3": (["stiefel", "--m", "4", "--k", "3", "--max-degree", "40"], 0),
    "framed_cp2_k4": (["framed-model", "--manifold", "cp2.manifold", "--k", "4",
                       "--max-degree", "30"], 0),
    "framed_s3_k3": (["framed-model", "--manifold", "s3.manifold", "--k", "3",
                      "--max-degree", "30"], 0),
    "map_s2_k4": (["map-sphere", "--manifold", "s2.manifold", "--k", "4",
                   "--max-degree", "40"], 0),
    "map_cp2_k4": (["map-sphere", "--manifold", "cp2.manifold", "--k", "4",
                    "--max-degree", "30"], 0),
    "map_cp2_k5": (["map-sphere", "--manifold", "cp2.manifold", "--k", "5",
                    "--max-degree", "20"], 0),
    "immersion_s3_k4": (["immersion", "--manifold", "s3.manifold", "--k", "4",
                         "--max-degree", "30"], 0),
    "immersion_cp2_flat_k6": (["immersion", "--manifold", "cp2_flat.manifold",
                               "--k", "6", "--max-degree", "16"], 0),
    "immersion_cp2_k4": (["immersion", "--manifold", "cp2.manifold", "--k", "4",
                          "--max-degree", "16"], 4),
}


def run_case(argv):
    argv = [str(DATA / a) if a.endswith(".manifold") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_byte_identical(name):
    argv, exit_code = CASES[name]
    code, out = run_case(argv)
    assert code == exit_code
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    for name, (argv, _) in CASES.items():
        _, out = run_case(argv)
        (GOLDEN / f"{name}.json").write_bytes(out.encode())
        print(f"wrote {name}.json", file=sys.stderr)
