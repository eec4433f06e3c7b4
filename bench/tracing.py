"""Span tracing of the htwist layers, done from outside the library.

Each layer is one ``htwist`` module.  `Tracer.install` wraps the public
functions of every module, plus ``ChainComplex.d_of``, ``ChainMap.apply``
and ``SparseMatrix.__matmul__``, so that each call records a span: name,
layer, start, end and parent span.  One process traces one job; its spans
stay in memory until the job ends and are written with the job's id.  A wrapped function is rebound in every namespace that holds
it, because ``complexes`` binds the sparse solvers and ``cli`` binds
``homology`` through ``from ... import``; a call through a stale binding
would escape its span.

Ring methods and simplicial faces and degeneracies are called once per
element (millions of times per job), so they get no span: their time
counts in the layer that calls them.  The rings layer is measured by a
separate profiler pass (`profile_rings`).

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.  Nested calls of the same layer are thus
counted once, and overlapping children are subtracted by their union.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("sparse", "complexes", "hopf", "barcobar", "twisting", "bundles",
          "normality", "simplicial", "chains", "fixtures", "io_json", "cli")

# Public helpers called once per basis element or letter.  A span around
# each would cost more than the work it measures.
PER_ELEMENT = frozenset({
    "complexes.tensor_name",
    "barcobar.bar_letter_degree", "barcobar.cobar_letter_degree",
    "barcobar.bar_word_name", "barcobar.cobar_word_name",
    "barcobar.shuffles_with_signs",
    "simplicial.not_identity_check",
})

METHODS = (("complexes", "ChainComplex", "d_of"),
           ("complexes", "ChainMap", "apply"),
           ("sparse", "SparseMatrix", "__matmul__"))

# Each call of one of these eliminates its first argument once.
ELIMINATIONS = frozenset({"sparse.field_rank", "sparse.field_kernel_basis",
                          "sparse.field_solve", "sparse.smith_normal_form"})

# Spans of the tracer's own bookkeeping (matrix fingerprints) carry this
# layer, so that the work is kept out of the layer being measured.
TRACE_LAYER = "trace"
ROOT_LAYER = "job"


def matrix_nonzeros(M) -> dict:
    """The nonzero entries of a SparseMatrix, keyed by (row, col)."""
    return M.entries


# ---------------------------------------------------------------------
# Span arithmetic.  A span is (layer, start, end, parent index or None).
# ---------------------------------------------------------------------

def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_self_times(spans) -> dict:
    """Self time per layer: span durations minus the union of their children."""
    children = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for idx, (layer, start, end, _) in enumerate(spans):
        out[layer] += (end - start) - _union_length(children.get(idx, ()), start, end)
    return dict(out)


def outermost_total(spans, names, selected) -> float:
    """Summed duration of selected spans not nested in another selected span.

    `names[i]` is the name of span i; `selected` is a set of names.
    """
    total = 0.0
    for idx, (_, start, end, parent) in enumerate(spans):
        if names[idx] not in selected:
            continue
        p = parent
        while p is not None and names[p] not in selected:
            p = spans[p][3]
        if p is None:
            total += end - start
    return total


# ---------------------------------------------------------------------
# Recording.
# ---------------------------------------------------------------------

class Tracer:
    """Records spans for one job and the sizes that explain their times."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [layer, start, end, parent]
        self._stack: list = [None]
        self.elim_shapes: list[tuple] = []  # (rows, cols, nnz, fingerprint)
        self.complexes: dict = {}           # id -> every complex seen
        self.built: dict = defaultdict(dict)  # layer -> id -> complex it returned
        self.simplicial_sets: dict = {}
        self.slots: dict = {}               # id -> theta N-slot of a certificate

    # -- span primitives ---------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.names.append(name)
        self.spans.append([layer, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run(self, fn, *args):
        """Run fn(*args) inside the root span of the job."""
        idx = self._open("job", ROOT_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, layer: str):
        is_elim = name in ELIMINATIONS
        coarse = name.rsplit(".", 1)[-1] not in ("d_of", "apply", "__matmul__")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_elim:
                self._probe_elimination(args[0])
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if coarse:
                self._register(layer, result, args)
            return result

        return traced

    def install(self):
        """Wrap every public htwist function and rebind it in every module."""
        import importlib

        modules = {L: importlib.import_module(f"htwist.{L}") for L in LAYERS}
        self._types = (modules["complexes"].ChainComplex, modules["complexes"].ChainMap,
                       modules["simplicial"].SimplicialSet)
        replacement = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in PER_ELEMENT):
                    replacement[obj] = self.wrap(obj, name, layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(mod, attr, replacement[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"{layer}.{meth}", layer))

    # -- sizes ---------------------------------------------------------
    def _probe_elimination(self, M):
        idx = self._open("trace.fingerprint", TRACE_LAYER)
        try:
            nz = matrix_nonzeros(M)
            key = hash((M.ring.tag(), M.nrows, M.ncols, frozenset(nz.items())))
            self.elim_shapes.append((M.nrows, M.ncols, len(nz), key))
        finally:
            self._close(idx)

    def _register(self, layer, result, args):
        ChainComplex, ChainMap, SimplicialSet = self._types

        def complex_of(obj):
            if isinstance(obj, ChainComplex):
                return obj
            inner = getattr(obj, "complex", None)
            return inner if isinstance(inner, ChainComplex) else None

        for obj in (result if isinstance(result, tuple) else (result,)):
            X = complex_of(obj)
            if X is not None:
                self.built[layer][id(X)] = X
                self.complexes[id(X)] = X
            elif isinstance(obj, SimplicialSet):
                self.simplicial_sets[id(obj)] = obj
            theta = getattr(obj, "theta", None)
            if theta is not None and hasattr(theta, "N"):
                self.slots[id(obj)] = theta.N
        for obj in args:
            if isinstance(obj, ChainMap):
                for X in (obj.source, obj.target):
                    self.complexes[id(X)] = X
            else:
                X = complex_of(obj)
                if X is not None:
                    self.complexes[id(X)] = X

    def largest_complex(self):
        """Dims and nnz per degree of the largest complex the job touched."""
        if not self.complexes:
            return None
        X = max(self.complexes.values(), key=lambda c: c.basis.total_dim())
        degrees = range(X.truncation + 1)
        return {
            "dims": [X.basis.dim(n) for n in degrees],
            "nnz": [len(matrix_nonzeros(X.dmat(n))) for n in degrees],
        }

    # -- metrics -------------------------------------------------------
    def layer_metrics(self) -> tuple[dict, dict]:
        """(per-layer metrics, self time of every layer and span count)."""
        spans = [tuple(s) for s in self.spans]
        names = self.names
        self_s = layer_self_times(spans)
        calls = Counter(names)

        def outer(*selected):
            return outermost_total(spans, names, set(selected))

        def dims(layer):
            return sum(X.basis.total_dim() for X in self.built[layer].values())

        elims = self.elim_shapes
        seen, repeats = set(), 0
        for *_, key in elims:
            repeats += key in seen
            seen.add(key)
        simplices = 0
        for X in self.simplicial_sets.values():
            for n in range(X.N + 1):
                level = X.elements(n)
                simplices += len(level) if level is not None else 0

        m = {f"{L}.self_s": self_s.get(L, 0.0) for L in LAYERS if L != "fixtures"}
        m.update({
            "sparse.elim_calls": len(elims),
            "sparse.snf_calls": calls["sparse.smith_normal_form"],
            "sparse.elim_repeat_ratio": repeats / len(elims) if elims else 0.0,
            "sparse.elim_nnz": sum(e[2] for e in elims),
            "sparse.elim_max_rows": max((e[0] for e in elims), default=0),
            "sparse.elim_max_cols": max((e[1] for e in elims), default=0),
            "sparse.matmul_calls": calls["sparse.__matmul__"],
            "sparse.matmul_s": outer("sparse.__matmul__"),
            "complexes.d_of_calls": calls["complexes.d_of"],
            "complexes.d_of_s": outer("complexes.d_of"),
            "complexes.apply_calls": calls["complexes.apply"],
            "complexes.quasi_iso_calls": calls["complexes.is_quasi_iso_through"],
            "complexes.quasi_iso_s": outer("complexes.is_quasi_iso_through"),
            "complexes.homology_s": outer("complexes.homology", "complexes.homology_in_degree"),
            "hopf.verify_s": outer(*(n for n in calls if n.startswith("hopf.verify_"))),
            "barcobar.basis_dim": dims("barcobar"),
            "twisting.basis_dim": dims("twisting"),
            "normality.build_s": outer("normality.abelian_normality"),
            "normality.verify_s": outer("normality.verify_normal_pair"),
            "normality.slot_dim": sum(X.basis.total_dim() for X in self.slots.values()),
            "simplicial.simplices": simplices,
            "chains.basis_dim": dims("chains"),
        })
        extra = {
            "self_s_all_layers": self_s,
            "span_count": len(spans),
        }
        return m, extra


def profile_rings(profiler) -> dict:
    """rings.* from a cProfile pass: self time and calls in htwist/rings.py,
    and self time inside the stdlib fractions module."""
    import pstats

    stats = pstats.Stats(profiler).stats
    rings_s = fraction_s = 0.0
    rings_calls = 0
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        if filename.endswith("htwist/rings.py"):
            rings_s += tottime
            rings_calls += ncalls
        elif filename.endswith("/fractions.py"):
            fraction_s += tottime
    return {"rings.self_s": rings_s, "rings.fraction_s": fraction_s, "rings.calls": rings_calls}
