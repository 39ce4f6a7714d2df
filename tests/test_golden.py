"""Byte-exact output of the CLI commands on fixed inputs.

Each case runs `ratimm.cli.main` in-process with a given `--format` and
compares stdout, byte for byte, with a file under `tests/golden/`
(`<name>.json` or `<name>.txt`).  Manifold inputs come from
`demos/data/`, CDGA inputs from `tests/golden/inputs/`.  The files hold
the output of earlier code; a changed byte is a changed answer.  JSON
cases cover `stiefel`, `framed-model`, `map-sphere` (even and odd k),
`immersion` (exit 0 and the symbolic exit 4) and `cohomology`.  Table
cases cover the generator lines that `stiefel`, `framed-model` and
`map-sphere` print, which the JSON cases list as dicts, and the lines
of `map-sphere` at odd k, of `immersion` (exits 0, 4 and the
hypothesis failure 3) and of `cohomology`.

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
INPUTS = GOLDEN / "inputs"

# name -> (argv without --format, format, expected exit code)
CASES = {
    "stiefel_m3_k4": (["stiefel", "--m", "3", "--k", "4", "--max-degree", "40"],
                      "json", 0),
    "stiefel_m4_k3": (["stiefel", "--m", "4", "--k", "3", "--max-degree", "40"],
                      "json", 0),
    "framed_cp2_k4": (["framed-model", "--manifold", "cp2.manifold", "--k", "4",
                       "--max-degree", "30"], "json", 0),
    "framed_s3_k3": (["framed-model", "--manifold", "s3.manifold", "--k", "3",
                      "--max-degree", "30"], "json", 0),
    "map_s2_k4": (["map-sphere", "--manifold", "s2.manifold", "--k", "4",
                   "--max-degree", "40"], "json", 0),
    "map_cp2_k4": (["map-sphere", "--manifold", "cp2.manifold", "--k", "4",
                    "--max-degree", "30"], "json", 0),
    "map_cp2_k5": (["map-sphere", "--manifold", "cp2.manifold", "--k", "5",
                    "--max-degree", "20"], "json", 0),
    "immersion_s3_k4": (["immersion", "--manifold", "s3.manifold", "--k", "4",
                         "--max-degree", "30"], "json", 0),
    "immersion_cp2_flat_k6": (["immersion", "--manifold", "cp2_flat.manifold",
                               "--k", "6", "--max-degree", "16"], "json", 0),
    "immersion_cp2_k4": (["immersion", "--manifold", "cp2.manifold", "--k", "4",
                          "--max-degree", "16"], "json", 4),
    "stiefel_m3_k4_table": (["stiefel", "--m", "3", "--k", "4",
                             "--max-degree", "40"], "table", 0),
    "framed_cp2_k4_table": (["framed-model", "--manifold", "cp2.manifold",
                             "--k", "4", "--max-degree", "30"], "table", 0),
    "framed_cp2_k2_table": (["framed-model", "--manifold", "cp2.manifold",
                             "--k", "2", "--max-degree", "20"], "table", 0),
    "framed_s3_k3_table": (["framed-model", "--manifold", "s3.manifold",
                            "--k", "3", "--max-degree", "30"], "table", 0),
    "map_cp2_k4_table": (["map-sphere", "--manifold", "cp2.manifold", "--k", "4",
                          "--max-degree", "30"], "table", 0),
    "map_cp2_k5_table": (["map-sphere", "--manifold", "cp2.manifold", "--k", "5",
                          "--max-degree", "20"], "table", 0),
    "immersion_s3_k4_table": (["immersion", "--manifold", "s3.manifold",
                               "--k", "4", "--max-degree", "30"], "table", 0),
    "immersion_cp2_k4_table": (["immersion", "--manifold", "cp2.manifold",
                                "--k", "4", "--max-degree", "16"], "table", 4),
    "immersion_cp2_k2_table": (["immersion", "--manifold", "cp2.manifold",
                                "--k", "2", "--max-degree", "16"], "table", 3),
    "cohomology_free": (["cohomology", "free_s2xs2.cdga", "--max-degree", "30"],
                        "json", 0),
    "cohomology_free_table": (["cohomology", "free_s2xs2.cdga",
                               "--max-degree", "30"], "table", 0),
    "cohomology_finite": (["cohomology", "finite_nonformal.cdga",
                           "--max-degree", "12"], "json", 0),
    "cohomology_finite_table": (["cohomology", "finite_nonformal.cdga",
                                 "--max-degree", "12"], "table", 0),
}


def golden_path(name: str) -> Path:
    fmt = CASES[name][1]
    return GOLDEN / f"{name}.{'json' if fmt == 'json' else 'txt'}"


def run_case(name):
    argv, fmt, _ = CASES[name]
    argv = [str(DATA / a) if a.endswith(".manifold")
            else str(INPUTS / a) if a.endswith(".cdga") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    return code, out.getvalue()


def check_case(name):
    code, out = run_case(name)
    assert code == CASES[name][2]
    assert out.encode() == golden_path(name).read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][1] == "json"))
def test_json_output_is_byte_identical(name):
    check_case(name)


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][1] == "table"))
def test_table_output_is_byte_identical(name):
    check_case(name)


if __name__ == "__main__":
    for name in CASES:
        _, out = run_case(name)
        golden_path(name).write_bytes(out.encode())
        print(f"wrote {golden_path(name).name}", file=sys.stderr)
