"""Command-line front end.

Subcommands: stiefel, framed-model, immersion, map-sphere, cohomology,
verify.  Every command is deterministic: identical inputs produce
byte-identical outputs (verify prints wall-clock timings, which are
explicitly marked non-canonical).

`cohomology` checks every sparse rank against an independent exact one:
the rank mod a large prime, certified by kernel vectors verified over
Q (the walk's image rows for the cleared columns, relations lifted from
the mod-p elimination of the others), or the dense eliminator's where
the certificate cannot be made.  Both read the same columns, assembled
once per degree.

Exit codes: 0 resolved, 2 input error, 3 theorem-hypothesis failure,
4 symbolic mapping-space factor; verify exits nonzero on any failed check.
An input error is a `RatimmError` (bad arguments, malformed or
unsupported models) or an `OSError`; any other exception is a fault in
the program and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bundles import framed_bundle_model, stiefel_model
from .cdga import cohomology
from .errors import RatimmError
from .immersions import description_to_dict, immersion_components
from .io import load_manifold, load_cdga
from .mapping import em_split, section_model, sphere_bundle
from .series import em_product_series
from .sweeps import DEFAULT_SEED, run_suites

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_SYMBOLIC = 4


def _report(args, payload: dict | None, lines):
    """Write `payload` as JSON under --format json, else the table `lines`
    (any iterable of str, read only here), to --out or stdout; `verify`
    has no payload."""
    if payload is not None and args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _betti_lines(dims: list[int]) -> list[str]:
    degree_row = " ".join(f"{n:>3}" for n in range(len(dims)))
    rank_row = " ".join(f"{b:>3}" for b in dims)
    return [f"degree: {degree_row}", f"rank:   {rank_row}"]


def _generator_lines(cdga) -> list[str]:
    return [f"generator: {name}  degree {deg}  {cdga.d_symbol} = {d}"
            for name, deg, _, d in cdga.generator_items()]


def _generator_dicts(cdga) -> list[dict]:
    return [{"name": name, "degree": deg, "differential": str(d)}
            for name, deg, _, d in cdga.generator_items()]


def cmd_stiefel(args) -> int:
    model = stiefel_model(args.m, args.k)
    table = cohomology(model, args.max_degree, representatives=False)
    payload = {
        "command": "stiefel", "m": args.m, "k": args.k,
        "max_degree": args.max_degree, "label": model.label,
        "generators": _generator_dicts(model),
        "betti": list(table.dims),
    }
    lines = [f"model: {model.label}", *_generator_lines(model),
             *_betti_lines(table.dims), f"nonzero degrees: {table.support()}"]
    _report(args, payload, lines)
    return EXIT_OK


def cmd_framed_model(args) -> int:
    M = load_manifold(args.manifold)
    model = framed_bundle_model(M, args.k)
    table = cohomology(model, args.max_degree, representatives=False)
    payload = {
        "command": "framed-model", "manifold": M.name, "m": M.dimension,
        "k": args.k, "max_degree": args.max_degree, "label": model.label,
        "base": M.model.label,
        "fiber": _generator_dicts(model),
        "betti": list(table.dims),
    }
    lines = [f"model: {model.label}", f"base: {M.model.label or M.name}",
             *_generator_lines(model), *_betti_lines(table.dims)]
    _report(args, payload, lines)
    return EXIT_OK


def _immersion_lines(M, args, desc):
    """The `immersion` table, generated: its series line reads the closed
    form, which a pure sphere model fits only when asked (JSON never is)."""
    yield (f"immersions of {M.name} in R^{M.dimension + args.k} "
           f"(k={args.k}, N={args.max_degree})")
    for h in desc.hypotheses:
        yield f"hypothesis {h.name}: {h.status}  ({h.detail})"
    yield f"connectivity: {desc.connectivity}"
    if desc.status == "hypothesis-failed":
        yield "no description: hypotheses failed"
        return
    for f in desc.em_factors:
        yield f"factor: {f}"
    if desc.sphere_factor is not None:
        yield f"factor: Map(M,S^{desc.sphere_factor.k}) [{desc.sphere_factor.status}]"
    if desc.series is not None:
        yield f"series: {desc.series}"
    else:
        yield f"series (EM part only): {desc.em_part_series}"
    yield f"growth: {desc.growth}"


def cmd_immersion(args) -> int:
    M = load_manifold(args.manifold)
    desc = immersion_components(M, args.k, args.max_degree)
    _report(args, description_to_dict(desc), _immersion_lines(M, args, desc))
    if desc.status == "hypothesis-failed":
        return EXIT_HYPOTHESIS
    if desc.status == "symbolic-sphere":
        return EXIT_SYMBOLIC
    return EXIT_OK


def cmd_map_sphere(args) -> int:
    M = load_manifold(args.manifold)
    E = sphere_bundle(M.model, args.k)
    factors, kept, _ = em_split(E)
    payload = {"command": "map-sphere", "manifold": M.name, "k": args.k,
               "max_degree": args.max_degree}
    if kept:
        model = section_model(E, kept, label=f"Map({M.model.label},S{args.k},0)")
        table = cohomology(model, args.max_degree, representatives=False)
        payload.update(component="null", generators=_generator_dicts(model),
                       betti=list(table.dims))
        lines = [f"model: {model.label} (null component)", *_generator_lines(model),
                 *_betti_lines(table.dims)]
    else:
        series = em_product_series(factors, args.max_degree)
        payload.update(component="any",
                       factors=[{"kind": "em", "degree": f.degree,
                                 "multiplicity": f.coefficient_dim} for f in factors],
                       betti=series.extend(args.max_degree))
        lines = [f"Map({M.name}, S^{args.k}) is an Eilenberg-MacLane product:",
                 *(f"factor: {f}" for f in factors), f"series: {series}"]
    _report(args, payload, lines)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    cdga = load_cdga(args.file)
    # a disagreement of the two engines raises AssertionError, an internal
    # fault that must not exit as bad input
    table = cohomology(cdga, args.max_degree, representatives=False,
                       engine="certified")
    payload = {
        "command": "cohomology", "label": cdga.label,
        "max_degree": args.max_degree, "betti": list(table.dims),
    }
    lines = [f"model: {cdga.label or '(unnamed)'}", *_betti_lines(table.dims)]
    _report(args, payload, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(args.suite, seed=args.seed)
    lines = [f"verification suite: {args.suite} "
             "(timings are informational, non-canonical)"]
    lines += [r.line() for r in results]
    failures = sum(1 for r in results if not r.ok)
    lines.append(f"checks: {len(results)}  failures: {failures}")
    _report(args, None, lines)
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratimm",
        description="Exact rational-homotopy computations for Stiefel bundles "
                    "and spaces of immersions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-degree", type=int, default=20,
                       help="truncation degree for Betti tables (default 20)")
        p.add_argument("--format", choices=["table", "json"], default="table")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("stiefel", help="model and Betti table of V_m(R^{m+k})")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_stiefel)

    p = sub.add_parser("framed-model",
                       help="relative model of the framed tangent bundle")
    p.add_argument("--manifold", required=True, help="manifold spec file")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_framed_model)

    p = sub.add_parser("immersion",
                       help="component description of Imm(M, R^{m+k})")
    p.add_argument("--manifold", required=True, help="manifold spec file")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_immersion)

    p = sub.add_parser("map-sphere",
                       help="model of Map(M, S^k) (null component for k even)")
    p.add_argument("--manifold", required=True, help="manifold spec file")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_map_sphere)

    p = sub.add_parser("cohomology", help="Betti table of a CDGA file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("verify", help="run the invariant verification suites")
    p.add_argument("--suite", choices=["core", "models", "immersion", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_degree", 0) < 0:
        print("error: --max-degree must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except (RatimmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
