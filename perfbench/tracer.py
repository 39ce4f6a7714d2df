"""Outside-in tracing of ratimm's layers.

`Tracer.install()` replaces each traced function or method with a
wrapper, at every binding a caller can resolve: the defining class for
methods, and every `ratimm.*` module attribute that holds the function
(`from .cdga import cohomology` in `immersions` is a binding of its
own).  It then checks that no module still binds an original, so a
missed import site fails the run instead of inflating the caller's self
time.  `uninstall()` restores the originals.

Spans (name, start, end, parent) go into flat arrays in memory.  A call
to a name that is already open on the stack, such as a relative
model's `diff_key` reaching its base's, is not a new span.  Work counts
are read from each outermost call's arguments and return value.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter


def _basis_keys(counts, args, result):
    counts["gca.basis_of_degree.keys"] += len(result)


def _diff_terms(counts, args, result):
    counts["cdga.diff_key.terms"] += len(result.terms)


def _kernel_shape(counts, args, result):
    columns = args[0]
    counts["linalg.sparse_rank_kernel.cols"] += len(columns)
    counts["linalg.sparse_rank_kernel.nnz"] += sum(len(c) for c in columns)
    counts["linalg.sparse_rank_kernel.rank"] += result[0]


def _add_pivots(counts, args, result):
    counts["linalg.SparseEchelon.add.pivots"] += result[0] is not None


def _dense_entries(counts, args, result):
    rows = args[0]
    counts["linalg.dense_rank.entries"] += len(rows) * len(rows[0]) if rows else 0


# (span name, defining module, qualified name, work counter)
TRACED = (
    ("gca.basis_of_degree", "ratimm.gca", "FreeAlgebra.basis_of_degree", _basis_keys),
    ("cdga.keys_of_degree", "ratimm.cdga", "FiniteAlgebra.keys_of_degree", None),
    ("cdga.keys_of_degree", "ratimm.cdga", "TensorAlgebra.keys_of_degree", None),
    ("cdga.diff_key", "ratimm.cdga", "FreeCdga.diff_key", _diff_terms),
    ("cdga.diff_key", "ratimm.cdga", "FiniteCdga.diff_key", _diff_terms),
    ("cdga.diff_key", "ratimm.cdga", "RelativeModel.diff_key", _diff_terms),
    ("cdga.cohomology", "ratimm.cdga", "cohomology", None),
    ("cdga.is_quasi_iso", "ratimm.cdga", "is_quasi_iso", None),
    ("cdga.CdgaMorphism.apply", "ratimm.cdga", "CdgaMorphism.apply", None),
    ("linalg.sparse_rank_kernel", "ratimm.linalg", "sparse_rank_kernel", _kernel_shape),
    ("linalg.SparseEchelon.add", "ratimm.linalg", "SparseEchelon.add", _add_pivots),
    ("linalg.SparseEchelon.reduce", "ratimm.linalg", "SparseEchelon.reduce", None),
    ("linalg.dense_rank", "ratimm.linalg", "dense_rank", _dense_entries),
    ("bundles.unreduced_framed_model", "ratimm.bundles", "unreduced_framed_model", None),
    ("mapping.sphere_map_null_model", "ratimm.mapping", "sphere_map_null_model", None),
    ("series.reconstruct_rational_series", "ratimm.series",
     "reconstruct_rational_series", None),
    ("series.series_product", "ratimm.series", "series_product", None),
    ("immersions.immersion_components", "ratimm.immersions",
     "immersion_components", None),
    ("io.load_cdga", "ratimm.io", "load_cdga", None),
    ("cli.main", "ratimm.cli", "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TRACED))
COUNT_NAMES = ("gca.basis_of_degree.keys", "cdga.diff_key.terms",
               "linalg.sparse_rank_kernel.cols", "linalg.sparse_rank_kernel.nnz",
               "linalg.sparse_rank_kernel.rank", "linalg.SparseEchelon.add.pivots",
               "linalg.dense_rank.entries")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update((name, "count") for name in COUNT_NAMES)
    units["linalg.adds_per_column"] = "ratio"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def _ratimm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ratimm" or name.startswith("ratimm."))]


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and counts (between operations)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self._stack: list[int] = []
        self._open = [0] * len(SPAN_NAMES)

    def _wrap(self, name_id: int, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[name_id]:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            stack = tracer._stack
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer._open[name_id] += 1
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(tracer.counts, args, result)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer._open[name_id] -= 1
                stack.pop()
            return result

        return traced

    def install(self):
        modules = _ratimm_modules()
        originals = {}
        for span, module_name, qualname, counter in TRACED:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if path else getattr(owner, attr)
            wrapper = self._wrap(SPAN_NAMES.index(span), fn, counter)
            originals[id(fn)] = fn
            sites = []
            if path:
                self._patch(owner, attr, wrapper)
                sites.append(f"{module_name}.{qualname}")
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, wrapper)
                            sites.append(f"{module.__name__}.{key}")
            self.sites[f"{module_name}.{qualname}"] = sites
        self._check_coverage(modules, originals)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _check_coverage(self, modules, originals):
        """Every binding of a traced function now resolves to its wrapper."""
        missed = []
        for module in modules:
            for key, value in vars(module).items():
                if value is not None and originals.get(id(value)) is value:
                    missed.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if member is not None and originals.get(id(member)) is member:
                            missed.append(f"{module.__name__}.{key}.{attr}")
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings of traced functions: {missed}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, wall: float) -> dict[str, float]:
        """Self time and calls per span name, counts, and the part of the
        operation's wall time that no span covers."""
        n = len(self.span_start)
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent < 0:
                roots += dur
            else:
                child[parent] += dur
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for i in range(n):
            name = SPAN_NAMES[self.span_name[i]]
            out[f"{name}.self_s"] += self.span_end[i] - self.span_start[i] - child[i]
            out[f"{name}.calls"] += 1
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        out["trace.unattributed_s"] = wall - roots
        return out
