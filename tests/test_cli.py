"""Command-line interface: exit codes, determinism, JSON round-trips."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from ratimm.bundles import complex_projective_plane, sphere_manifold
from ratimm.cdga import cohomology
from ratimm.cli import main
from ratimm.io import load_manifold, serialize_manifold
from ratimm.mapping import em_mapping_space, sphere_map_null_model
from ratimm.series import em_product_series

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"


@pytest.fixture
def s2_file(tmp_path):
    path = tmp_path / "s2.manifold"
    path.write_text(serialize_manifold(sphere_manifold(2)))
    return str(path)


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "s3.manifold"
    path.write_text(serialize_manifold(sphere_manifold(3)))
    return str(path)


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.manifold"
    path.write_text(serialize_manifold(complex_projective_plane()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stiefel_table(capsys):
    code, out, _ = run(capsys, "stiefel", "--m", "2", "--k", "3",
                       "--max-degree", "8")
    assert code == 0
    assert "x2" in out and "degree 7" in out
    assert "nonzero degrees: [0, 7]" in out


def test_stiefel_betti_support_2_2(capsys):
    code, out, _ = run(capsys, "stiefel", "--m", "2", "--k", "2",
                       "--max-degree", "6")
    assert code == 0 and "nonzero degrees: [0, 2, 3, 5]" in out


def test_stiefel_invalid_k_exits_2(capsys):
    code, out, err = run(capsys, "stiefel", "--m", "2", "--k", "1")
    assert code == 2
    assert "error:" in err and err.count("\n") == 1


@pytest.fixture
def s3_free_file(tmp_path):
    # S^3 with a free model: accepted as a manifold, but the even-sphere
    # factor of an immersion space needs a finite model
    path = tmp_path / "s3free.manifold"
    path.write_text("manifold: S^3\ndimension: 3\nkind: free\nlabel: S3\n"
                    "generator: a3 3\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["stiefel", "--m", "0", "--k", "3"],
    ["framed-model", "--manifold", "{cp2}", "--k", "1"],
    ["immersion", "--manifold", "{cp2}", "--k", "1"],
    ["map-sphere", "--manifold", "{cp2}", "--k", "0"],
    ["map-sphere", "--manifold", "{cp2}", "--k", "1"],
    ["immersion", "--manifold", "{s3_free}", "--k", "4"],
    ["map-sphere", "--manifold", "{s3_free}", "--k", "4"],
], ids=lambda argv: "-".join(a.strip("{}") for a in argv if not a.startswith("--")))
def test_invalid_input_exits_2(capsys, cp2_file, s3_free_file, argv):
    argv = [a.format(cp2=cp2_file, s3_free=s3_free_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("k,message", [
    ("1", "k must be >= 3 (simply connected target)"),
    ("-1", "k must be >= 3 (simply connected target)"),
    ("0", "k must be >= 2, got 0"),
])
def test_map_sphere_small_k_message(capsys, cp2_file, k, message):
    assert run(capsys, "map-sphere", "--manifold", cp2_file, "--k", k) == \
        (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command,name", [("map-sphere", "x_a-b"), ("immersion", "x2_a-b")])
def test_a_basis_name_that_is_not_an_identifier_exits_2(capsys, tmp_path, command, name):
    # a finite basis may take any name, but the section generator v_u
    # is named after the basis element u
    path = tmp_path / "dash.manifold"
    path.write_text("manifold: D\ndimension: 2\nkind: finite\nlabel: D\n"
                    "basis: one 0\nbasis: a-b 2\nsimply-connected: true\n")
    assert run(capsys, command, "--manifold", str(path), "--k", "4") == \
        (2, "", f"error: the basis element 'a-b' of D gives the generator name "
                f"'{name}', which is not an identifier\n")


def test_unit_law_violation_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.cdga"
    path.write_text("kind: finite\nbasis: one 0\nbasis: a 2\n"
                    "product: one * a = 5*a\n")
    assert run(capsys, "cohomology", str(path)) == \
        (2, "", "error: line 4: product one*a breaks the unit law; "
                "expected a (in expression '5*a')\n")


def test_free_source_gets_its_em_factors(capsys, s3_free_file):
    # a free model has no dual basis, but the EM factors need none
    code, out, _ = run(capsys, "map-sphere", "--manifold", s3_free_file,
                       "--k", "3", "--max-degree", "8")
    assert code == 0 and out == (
        "Map(S^3, S^3) is an Eilenberg-MacLane product:\n"
        "factor: K(Q,3)\n"
        "series: [1, 0, 0, 1, 0, 0, 0, 0, 0] = 1*t^0 + 1*t^3\n")
    code, out, _ = run(capsys, "immersion", "--manifold", s3_free_file,
                       "--k", "3", "--max-degree", "16")
    assert code == 0 and out == (
        "immersions of S^3 in R^6 (k=3, N=16)\n"
        "hypothesis simply-connected: passed  (H^0 = Q and H^1 = 0 verified)\n"
        "hypothesis pontryagin-vanishing: passed  (p_i = 0 for all i >= 2)\n"
        "connectivity: components-indexed\n"
        "factor: K(Q,2)\nfactor: K(Q,4)\nfactor: K(Q,5)\nfactor: K(Q,7)\n"
        "series: [1, 0, 1, 0, 2, 1, 2, 2, 3, 3, 3, 4, 5, 5, 5, 6, 7] = "
        "(1*t^0 + 1*t^5 + 1*t^7 + 1*t^12) / (1-t^2)(1-t^4)\n"
        "growth: polynomial(1)\n")
    assert run(capsys, "immersion", "--manifold", s3_free_file, "--k", "4") == \
        (2, "", "error: the source model must be finite-dimensional\n")


@pytest.mark.parametrize("name,k", [
    (path.stem, k) for path in sorted(DATA.glob("*.manifold")) for k in range(2, 10)])
def test_map_sphere_json_matches_the_library(capsys, name, k):
    # even k: the null model and its Betti numbers; odd k: the EM factors
    # of Map(M, K(Q,k)) and their series
    N = 12
    path = DATA / f"{name}.manifold"
    code, out, _ = run(capsys, "map-sphere", "--manifold", str(path), "--k", str(k),
                       "--max-degree", str(N), "--format", "json")
    assert code == 0
    got = json.loads(out)
    M = load_manifold(path)
    if k % 2 == 0:
        model = sphere_map_null_model(M.model, k)
        assert got["component"] == "null"
        assert got["generators"] == [
            {"name": g.name, "degree": g.degree,
             "differential": str(model.differential_of_generator(g.name))}
            for g in model.algebra.generators]
        assert got["betti"] == cohomology(model, N, representatives=False).dims
    else:
        factors = em_mapping_space(M.betti(k), k)
        assert got["component"] == "any"
        assert got["factors"] == [{"kind": "em", "degree": f.degree,
                                   "multiplicity": f.coefficient_dim}
                                  for f in factors]
        assert got["betti"] == em_product_series(factors, N).extend(N)


# S^4 and S^8 with an acyclic pair (u, v), du = v, beside the top class x
EXACT_PAIR = "manifold: S{m}e\ndimension: {m}\nkind: finite\nlabel: S{m}e\n" \
    "basis: one 0\nbasis: u {u}\nbasis: v {m}\nbasis: x {m}\nd: u = v\n" \
    "simply-connected: true\n"


@pytest.mark.parametrize("m,k", [(4, 2), (8, 3)])
def test_an_exact_pontryagin_cocycle_resolves_as_class_zero(capsys, tmp_path, m, k):
    # p_{m/4} = v = du: immersion and framed-model print what they print
    # for the file without it
    text = EXACT_PAIR.format(m=m, u=m - 1)
    given, flat = tmp_path / "given.manifold", tmp_path / "flat.manifold"
    given.write_text(text + f"pontryagin: {m // 4} = v\n")
    flat.write_text(text)
    outputs = [[run(capsys, cmd, "--manifold", str(path), "--k", str(k), "--format", "json")
                for cmd in ("immersion", "framed-model")] for path in (given, flat)]
    assert outputs[0] == outputs[1]
    (code, out, _), (framed_code, _, _) = outputs[0]
    assert (code, framed_code) == (0, 0)
    assert json.loads(out)["status"] == "resolved"


def test_an_exact_pontryagin_cocycle_leaves_the_euler_twist_alone(capsys, tmp_path):
    path = tmp_path / "s4e.manifold"
    path.write_text(EXACT_PAIR.format(m=4, u=3) + "pontryagin: 1 = v\n")
    code, out, _ = run(capsys, "framed-model", "--manifold", str(path), "--k", "2")
    assert code == 0
    assert "generator: x1  degree 3  D = e2^2\n" in out
    # the answer of S^4 itself
    got, s4 = (json.loads(run(capsys, "immersion", "--manifold", str(source), "--k", "2",
                              "--max-degree", "12", "--format", "json")[1])
               for source in (path, DATA / "s4.manifold"))
    assert got["series"] == [1, 1, 1, 2, 1, 2, 2, 2, 3, 2, 3, 2, 2]
    assert {**got, "manifold": "S^4"} == s4


def test_map_sphere_walks_the_source_once(capsys, monkeypatch):
    # em_split's table serves both parities: the factors at odd k, and
    # H^1 for the null model at even k; loading the file walks it too
    from ratimm import cdga, cli
    walked, loaded = [], []
    walk = cdga._walk

    def recorded(model, *args, **kwargs):
        walked.append(model)
        return walk(model, *args, **kwargs)

    def load(path):
        M = load_manifold(path)
        walked.clear()
        loaded.append(M)
        return M

    monkeypatch.setattr(cdga, "_walk", recorded)
    monkeypatch.setattr(cli, "load_manifold", load)
    for path in sorted(DATA.glob("*.manifold")):
        for k in range(2, 10):
            code, _, _ = run(capsys, "map-sphere", "--manifold", str(path),
                             "--k", str(k), "--max-degree", "6")
            assert code == 0, (path.stem, k)
            assert sum(model is loaded[-1].model for model in walked) == 1, (path.stem, k)


def test_map_sphere_keeps_given_names(capsys, tmp_path):
    # the source's basis name x clashes with the sphere generator x
    path = tmp_path / "sx.manifold"
    path.write_text("manifold: Sx\ndimension: 2\nkind: finite\nlabel: Sx\n"
                    "basis: one 0\nbasis: x 2\nsimply-connected: true\n")
    code, out, _ = run(capsys, "map-sphere", "--manifold", str(path), "--k", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["generators"] == [
        {"name": "x", "degree": 4, "differential": "0"},
        {"name": "x_x", "degree": 2, "differential": "0"},
        {"name": "y", "degree": 7, "differential": "x^2"},
        {"name": "y_x", "degree": 5, "differential": "2*x*x_x"},
    ]


def test_unexpected_value_error_is_not_an_input_error(capsys, tmp_path,
                                                      monkeypatch):
    from ratimm import cli
    path = tmp_path / "s2.cdga"
    path.write_text("kind: free\nlabel: S2\ngenerator: e2 2\n"
                    "generator: x3 3\nd: x3 = e2^2\n")

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "cohomology", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["cohomology", str(path), "--max-degree", "6"])


def test_internal_fault_while_loading_is_not_an_input_error(capsys, tmp_path,
                                                            s2_file, monkeypatch):
    # loading converts only what constructors raise on bad input into a
    # ParseError (exit 2); an internal fault propagates
    from ratimm import cdga, mapping
    path = tmp_path / "s2.cdga"
    path.write_text("kind: free\nlabel: S2\ngenerator: e2 2\n"
                    "generator: x3 3\nd: x3 = e2^2\n")

    def broken(*args, **kwargs):
        raise AssertionError("internal fault")

    with monkeypatch.context() as patch:
        patch.setattr(cdga.FreeCdga, "_validate", broken)
        with pytest.raises(AssertionError, match="internal fault"):
            main(["cohomology", str(path), "--max-degree", "6"])
    with monkeypatch.context() as patch:
        patch.setattr(mapping, "cohomology", broken)  # em_split's Betti walk
        with pytest.raises(AssertionError, match="internal fault"):
            main(["immersion", "--manifold", s2_file, "--k", "3"])


def test_immersion_resolved_exit_0(capsys, s2_file):
    code, out, _ = run(capsys, "immersion", "--manifold", s2_file, "--k", "3",
                       "--max-degree", "15")
    assert code == 0
    assert "growth: finite" in out


def test_immersion_hypothesis_failure_exit_3(capsys, cp2_file):
    code, out, _ = run(capsys, "immersion", "--manifold", cp2_file, "--k", "2")
    assert code == 3
    assert "hypotheses failed" in out  # report still printed


def test_immersion_symbolic_exit_4(capsys, s2_file):
    code, out, _ = run(capsys, "immersion", "--manifold", s2_file, "--k", "2")
    assert code == 4
    assert "series (EM part only)" in out


def test_immersion_json_round_trip(capsys, s3_file):
    code, out, _ = run(capsys, "immersion", "--manifold", s3_file, "--k", "2",
                       "--format", "json", "--max-degree", "12")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["growth"] == "polynomial(0)"
    assert payload["series"][:6] == [1, 0, 1, 0, 1, 0]


def test_framed_model_command(capsys, cp2_file):
    code, out, _ = run(capsys, "framed-model", "--manifold", cp2_file,
                       "--k", "2", "--max-degree", "10")
    assert code == 0
    assert "e2^2 + 3*aa" in out


def test_map_sphere_even(capsys, s2_file):
    code, out, _ = run(capsys, "map-sphere", "--manifold", s2_file, "--k", "2",
                       "--max-degree", "10")
    assert code == 0
    assert "null component" in out


def test_map_sphere_odd_lists_factors(capsys, s2_file):
    code, out, _ = run(capsys, "map-sphere", "--manifold", s2_file, "--k", "7",
                       "--max-degree", "14")
    assert code == 0
    assert "K(Q,5)" in out and "K(Q,7)" in out


def test_cohomology_command(capsys, tmp_path):
    path = tmp_path / "s2.cdga"
    path.write_text("kind: free\nlabel: S2\ngenerator: e2 2\n"
                    "generator: x3 3\nd: x3 = e2^2\n")
    code, out, _ = run(capsys, "cohomology", str(path), "--max-degree", "6")
    assert code == 0
    assert "1   0   1   0   0   0   0" in out


def _s2_cdga(tmp_path):
    path = tmp_path / "s2.cdga"
    path.write_text("kind: free\nlabel: S2\ngenerator: e2 2\n"
                    "generator: x3 3\nd: x3 = e2^2\n")
    return str(path)


def test_engine_disagreement_is_not_an_input_error(tmp_path, monkeypatch):
    from ratimm import linalg
    path = _s2_cdga(tmp_path)
    monkeypatch.setattr(linalg, "certified_rank", lambda cols, witnesses=(): len(cols) + 1)
    # an internal fault propagates instead of returning exit code 2
    with pytest.raises(AssertionError, match="disagree"):
        main(["cohomology", path, "--max-degree", "6"])


def test_dense_fallback_disagreement_is_not_an_input_error(tmp_path, monkeypatch):
    from ratimm import linalg
    path = _s2_cdga(tmp_path)
    # no certificate: every degree falls back to the dense oracle
    monkeypatch.setattr(linalg, "certified_rank", lambda cols, witnesses=(): None)
    monkeypatch.setattr(linalg, "dense_rank", lambda rows: len(rows) + 1)
    with pytest.raises(AssertionError, match="disagree"):
        main(["cohomology", path, "--max-degree", "6"])


def test_cohomology_assembles_each_key_once(capsys, monkeypatch):
    # both engines read one set of columns: d of each key of degree <= N
    # is assembled once (the load's own d^2 check left out)
    from collections import Counter
    from pathlib import Path

    from ratimm import cli
    from ratimm.cdga import FreeCdga
    from ratimm.io import load_cdga

    path = str(Path(__file__).resolve().parent / "golden" / "inputs" / "free_s2xs2.cdga")
    # a walk assembles its columns in `_columns`, and `diff` and `diff_key`
    # one key at a time in `_diff_terms`, both from d(R) by monomial code:
    # the count covers both entries
    counts = Counter()
    loading = [False]
    diff_terms, columns = FreeCdga._diff_terms, FreeCdga._columns

    def counted(self, key, memo):
        if not loading[0]:
            counts[key] += 1
        return diff_terms(self, key, memo)

    def counted_columns(self, keys, index, skip, *args):
        out = columns(self, keys, index, skip, *args)
        asked = [key for j, key in enumerate(keys) if j not in skip]
        assert len(out) == len(asked)
        if not loading[0]:
            counts.update(asked)
        return out

    def quiet_load(*args):
        loading[0] = True
        try:
            return load_cdga(*args)
        finally:
            loading[0] = False

    monkeypatch.setattr(FreeCdga, "_diff_terms", counted)
    monkeypatch.setattr(FreeCdga, "_columns", counted_columns)
    monkeypatch.setattr(cli, "load_cdga", quiet_load)
    code, out, _ = run(capsys, "cohomology", path, "--max-degree", "20")
    assert code == 0 and out.startswith("model: S2xS2")
    alg = quiet_load(path).algebra
    assert counts == Counter(key for n in range(21) for key in alg.keys_of_degree(n))


def test_cohomology_bad_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.cdga"
    path.write_text("kind: free\ngenerator: e2\n")
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 2 and "line 2" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "immersion", "--manifold", "/nonexistent", "--k", "3")
    assert code == 2


def test_byte_determinism(capsys, s3_file):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "immersion", "--manifold", s3_file,
                           "--k", "2", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_flag_writes_file(tmp_path, capsys, s2_file):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "immersion", "--manifold", s2_file, "--k", "3",
                       "--format", "json", "--out", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["growth"] == "finite"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_out_into_missing_directory_exits_2(tmp_path, capsys, fmt):
    out_path = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "stiefel", "--m", "2", "--k", "3",
                         "--format", fmt, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and not out_path.parent.exists()


def test_verify_core_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "core")
    assert code == 0
    assert "non-canonical" in out
    assert "failures: 0" in out


def _capped_cli(*argv):
    """`python -m ratimm.cli *argv` in a subprocess whose address space is
    capped at 1 GB, so a run that would need more fails there alone."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cap = 1 << 30
    return subprocess.run([sys.executable, "-m", "ratimm.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=False,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["map-sphere", "immersion"])
def test_a_large_k_costs_what_its_answer_costs(command, fmt):
    # S^2 at odd k: each degree the answer prints is one of these functions
    # of k, and the closed form has four terms whatever k is
    def degrees(k):
        return [k, k - 2, 2 * k - 2, (k + 1) // 2, k + 2, 2 * k - 1, 2 * k + 1, 4 * k]

    small, large = 1_000_001, 1_000_000_001
    runs = [_capped_cli(command, "--manifold", str(DATA / "s2.manifold"),
                        "--k", str(k), "--format", fmt) for k in (small, large)]
    assert [p.returncode for p in runs] == [0, 0], runs[-1].stderr[-2000:]
    to_large = dict(zip(map(str, degrees(small)), map(str, degrees(large))))
    expect = re.sub(r"\d+", lambda m: to_large.get(m.group(), m.group()), runs[0].stdout)
    assert expect != runs[0].stdout
    assert runs[1].stdout == expect
