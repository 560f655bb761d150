"""Spans around calls into stokesbl, installed from the benchmark's own files.

A traced child process calls ``install(tracer)`` after importing stokesbl.
Every public function and method listed below is replaced, in every module
that binds it (``from .cell import solve_stokes`` included), by a wrapper
that records a span: name, start, end and the index of the enclosing span.
The sparse LU that ``cell`` calls is wrapped the same way, and the factor it
returns is handed out behind a proxy that times each triangular solve.
Spans stay in memory and go into the process report when the process ends.

``layer_metrics`` turns the spans and counters of one workload iteration
(all of its processes) into the per-layer numbers named in ``LAYER_METRICS``.
The program itself carries no tracing code.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time

# (module, function, span name)
FUNCTIONS = [
    ("cell", "assemble", "cell.assemble"),
    ("cell", "solve_stokes", "cell.solve_stokes"),
    ("modes", "dtn_matrix", "modes.dtn_matrix"),
    ("modes", "solve_mode_numeric", "modes.solve_mode_numeric"),
    ("modes", "solve_mode", "modes.solve_mode"),
    ("modes", "residual_check", "modes.residual_check"),
    ("halfspace", "stokes_basis", "halfspace.stokes_basis"),
    ("halfspace", "delta_D_inv", "halfspace.delta_D_inv"),
    ("recursion", "heterogeneous_basis", "recursion.heterogeneous_basis"),
    ("recursion", "stack_to_json", "recursion.stack_to_json"),
    ("recursion", "stack_from_json", "recursion.stack_from_json"),
    ("walllaw", "phi_table", "walllaw.phi_table"),
    ("regularity", "build_outer_solution", "regularity.outer_solution"),
    ("regularity", "pointwise_check", "regularity.pointwise"),
    ("cli", "dump_json", "cli.dump_json"),
    ("cli", "write_manifest", "cli.manifest"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("halfspace", "SpaceBasis", "certify_rank", "halfspace.certify_rank"),
    ("recursion", "CorrectorStack", "_solve_level", "recursion.level"),
    ("recursion", "LevelSampler", "__init__", "recursion.LevelSampler"),
    ("regularity", "RegularityWorkspace", "__init__", "regularity.workspace"),
    ("regularity", "RegularityWorkspace", "excess", "regularity.excess"),
]

MODULES = ("polynomials", "exactlinalg", "halfspace", "modes", "geometry", "cell",
           "recursion", "walllaw", "regularity", "cli")

# Per-layer metric -> (how it is derived, span or counter name, unit).
#   count: number of spans; total: time in outermost spans of that name;
#   self: span time minus the time of its direct child spans;
#   sum / max: counters summed or maximized over the iteration's processes.
LAYER_METRICS = {
    "cell.factor.count": ("count", "cell.factor", "count"),
    "cell.factor.distinct": ("sum", "cell.factor.distinct", "count"),
    "cell.factor.s": ("total", "cell.factor", "s"),
    "cell.factor.fill_max": ("max", "cell.factor.fill", "count"),
    "cell.solve.count": ("count", "cell.solve", "count"),
    "cell.solve.s": ("total", "cell.solve", "s"),
    "cell.refine.passes": ("refine", None, "count"),
    "cell.assemble.count": ("count", "cell.assemble", "count"),
    "cell.assemble.self_s": ("self", "cell.assemble", "s"),
    "cell.solve_stokes.self_s": ("self", "cell.solve_stokes", "s"),
    "cell.system.n_max": ("max", "cell.system.n", "count"),
    "cell.system.nnz_max": ("max", "cell.system.nnz", "count"),
    "cell.linear_residual.max": ("max", "cell.linear_residual", "ratio"),
    "modes.dtn_matrix.count": ("count", "modes.dtn_matrix", "count"),
    "modes.dtn_matrix.s": ("total", "modes.dtn_matrix", "s"),
    "modes.solve_mode_numeric.count": ("count", "modes.solve_mode_numeric", "count"),
    "modes.solve_mode_numeric.s": ("total", "modes.solve_mode_numeric", "s"),
    "modes.solve_mode.count": ("count", "modes.solve_mode", "count"),
    "modes.solve_mode.s": ("total", "modes.solve_mode", "s"),
    "modes.residual_check.s": ("total", "modes.residual_check", "s"),
    "halfspace.stokes_basis.count": ("count", "halfspace.stokes_basis", "count"),
    "halfspace.stokes_basis.s": ("total", "halfspace.stokes_basis", "s"),
    "halfspace.certify_rank.s": ("total", "halfspace.certify_rank", "s"),
    "halfspace.delta_D_inv.s": ("total", "halfspace.delta_D_inv", "s"),
    "recursion.level.solved": ("count", "recursion.level", "count"),
    "recursion.level.self_s": ("self", "recursion.level", "s"),
    "recursion.LevelSampler.count": ("count", "recursion.LevelSampler", "count"),
    "recursion.LevelSampler.s": ("total", "recursion.LevelSampler", "s"),
    "recursion.heterogeneous_basis.s": ("total", "recursion.heterogeneous_basis", "s"),
    "recursion.stack_to_json.s": ("total", "recursion.stack_to_json", "s"),
    "recursion.stack_from_json.s": ("total", "recursion.stack_from_json", "s"),
    "walllaw.phi_table.self_s": ("self", "walllaw.phi_table", "s"),
    "regularity.workspace.count": ("count", "regularity.workspace", "count"),
    "regularity.workspace.self_s": ("self", "regularity.workspace", "s"),
    "regularity.excess.count": ("count", "regularity.excess", "count"),
    "regularity.excess.s": ("total", "regularity.excess", "s"),
    "regularity.outer_solution.self_s": ("self", "regularity.outer_solution", "s"),
    "regularity.pointwise.s": ("total", "regularity.pointwise", "s"),
    "cli.dump_json.s": ("total", "cli.dump_json", "s"),
    "cli.load_json.s": ("total", "cli.load_json", "s"),
    "cli.bytes_written": ("sum", "cli.bytes_written", "B"),
    "cli.bytes_read": ("sum", "cli.bytes_read", "B"),
    "cli.manifest.s": ("total", "cli.manifest", "s"),
    "proc.count": ("count", "proc", "count"),
    "proc.import.s": ("total", "proc.import", "s"),
    "proc.self_s": ("self", "proc", "s"),
}

# Filled in by the harness from the untraced and traced iterations.
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counters: dict[str, float] = {}
        self.matrices: set[bytes] = set()

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        """Close the innermost open span, `index` (callers end in a finally)."""
        self.spans[index][2] = time.monotonic()
        self._open.pop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result)
            return result
        return wrapper

    def report(self) -> dict:
        counters = dict(self.counters)
        counters["cell.factor.distinct"] = len(self.matrices)
        return {"spans": self.spans, "counters": counters}


class _FactorProxy:
    """A sparse LU factor whose solves are recorded as spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap("cell.solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _JsonProxy:
    """The json module as `cli` sees it, with reads timed and sized."""

    def __init__(self, json_module, tracer: Tracer):
        self._json = json_module
        load = tracer.wrap("cli.load_json", json_module.load)

        def sized_load(fh, *args, **kwargs):
            tracer.add("cli.bytes_read", os.fstat(fh.fileno()).st_size)
            return load(fh, *args, **kwargs)

        self.load = sized_load

    def __getattr__(self, attr):
        return getattr(self._json, attr)


def _rebind(modules, old, new) -> int:
    """Replace every module-level binding of `old` by `new`."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the listed stokesbl functions in this process."""
    import scipy.sparse.linalg as spla

    package = importlib.import_module("stokesbl")
    mods = {name: importlib.import_module(f"stokesbl.{name}") for name in MODULES}
    everywhere = [package, *mods.values()]

    def record_solution(sol):
        tracer.peak("cell.linear_residual", sol.diagnostics["linear_residual"])

    for mod_name, fn_name, span in FUNCTIONS:
        fn = getattr(mods[mod_name], fn_name)
        after = record_solution if span == "cell.solve_stokes" else None
        if not _rebind(everywhere, fn, tracer.wrap(span, fn, after)):
            raise RuntimeError(f"nothing bound to stokesbl.{mod_name}.{fn_name}")
    for mod_name, cls_name, meth, span in METHODS:
        cls = getattr(mods[mod_name], cls_name)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth)))

    splu = spla.splu

    def traced_splu(A, *args, **kwargs):
        tracer.peak("cell.system.n", A.shape[0])
        tracer.peak("cell.system.nnz", A.nnz)
        digest = hashlib.blake2b(digest_size=16)
        for part in (repr(A.shape).encode(), A.indptr, A.indices, A.data):
            digest.update(part)
        tracer.matrices.add(digest.digest())
        index = tracer.begin("cell.factor")
        try:
            lu = splu(A, *args, **kwargs)
        finally:
            tracer.end(index)
        # SuperLU's stored entries of L and U (supernodal storage)
        tracer.peak("cell.factor.fill", lu.nnz)
        return _FactorProxy(lu, tracer)

    spla.splu = traced_splu

    cli = mods["cli"]
    write_atomic = tracer.wrap("cli.write", cli.write_atomic)

    def sized_write(path, text):
        out = write_atomic(path, text)
        tracer.add("cli.bytes_written", os.path.getsize(out))
        return out

    cli.write_atomic = sized_write
    cli.json = _JsonProxy(cli.json, tracer)


# ---------------------------------------------------------------------------
# aggregation (parent side; standard library only)
# ---------------------------------------------------------------------------

def span_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """count, outermost total and self time per span name, for one process."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    table: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s[0], {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["self"] += dur[i] - child[i]
        parent = s[3]
        while parent >= 0 and spans[parent][0] != s[0]:
            parent = spans[parent][3]
        if parent < 0:
            row["total"] += dur[i]
    return table


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one iteration from its processes' trace reports."""
    table: dict[str, dict[str, float]] = {}
    sums: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for proc in processes:
        for name, row in span_table(proc["spans"]).items():
            acc = table.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in proc["counters"].items():
            sums[name] = sums.get(name, 0) + value
            peaks[name] = max(peaks.get(name, value), value)

    def row(name):
        return table.get(name, {"count": 0, "total": 0.0, "self": 0.0})

    out = {}
    for metric, (kind, name, _unit) in LAYER_METRICS.items():
        if kind in ("count", "total", "self"):
            out[metric] = row(name)[kind]
        elif kind == "sum":
            out[metric] = sums.get(name, 0)
        elif kind == "max":
            out[metric] = peaks.get(name, 0)
        else:  # every solve beyond the first of each solve_stokes call
            out[metric] = row("cell.solve")["count"] - row("cell.solve_stokes")["count"]
    return out
