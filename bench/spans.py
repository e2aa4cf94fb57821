"""Span recorder for the traced benchmark run.

The recorder swaps public functions of the ``ocm`` modules for timing
wrappers and puts the originals back on ``uninstall``; ``src/ocm`` itself
is never edited.  A name is wrapped in the module where its caller looks
it up, because ``from x import f`` copies the binding into the importing
module.

Each call records one span: name, parent span, start, end, and a work
count taken from its arguments (points evaluated, samples certified, ...).
Spans keep a per-thread stack; a span opened on a pool worker with an
empty stack takes the span open on the main thread as its parent, which
is the span that started the pool.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict


def _len_arg(i):
    return lambda args: len(args[i])


def _image_nodes(args):
    n = 1
    for a in args[2]:
        n *= len(a)
    return n


# span name -> (work-count metric, count taken from the call's positional args)
WORK = {
    "expr.eval": ("expr.eval_points", lambda args: args[2].shape[-1]),
    "approx.certify": ("approx.certify_samples", _len_arg(4)),
    "approx.poly_jets": ("approx.poly_jets_points", _len_arg(1)),
    "domain.skeleton_contains": ("domain.skeleton_contains_points", _len_arg(1)),
    "order.image": ("order.image_nodes", _image_nodes),
    "baire.regularize": ("baire.masked_nodes", lambda args: int(args[0].mask_array().sum())),
    "filters.conv_check": ("filters.conv_tables", lambda args: 1),
}

# (module, attribute, span name); a class attribute is given as "Class.method"
WRAPPED = [
    ("ocm.cli", "load_config", "cli.load_config"),
    ("ocm.cli", "parse_system", "expr.parse"),
    ("ocm.cli", "rhs_from_exprs", "approx.rhs"),
    ("ocm.cli", "global_approx", "approx.global"),
    ("ocm.cli", "refine_solution", "order.refine"),
    ("ocm.expr", "parse_system", "expr.parse"),
    ("ocm.expr", "eval_component_batch", "expr.eval"),
    ("ocm.approx", "rhs_from_exprs", "approx.rhs"),
    ("ocm.approx", "global_approx", "approx.global"),
    ("ocm.approx", "local_approx", "approx.probe"),
    ("ocm.approx", "check_residual", "approx.certify"),
    ("ocm.approx", "subdivide", "domain.subdivide"),
    ("ocm.approx", "skeleton_of", "domain.skeleton"),
    ("ocm.approx", "sample_points", "domain.sample"),
    ("ocm.approx", "PiecewisePoly.jets", "approx.poly_jets"),
    ("ocm.domain", "Skeleton.contains_batch", "domain.skeleton_contains"),
    ("ocm.order", "global_approx", "approx.global"),
    ("ocm.order", "operator_image", "order.image"),
    ("ocm.order", "nlsc_regularize", "baire.regularize"),
    ("ocm.filters", "check_convergence_structure", "filters.conv_check"),
    ("ocm.filters", "check_uniform_convergence", "filters.ucs_check"),
    ("ocm.filters", "close_to_ucs", "filters.ucs_close"),
    ("ocm.filters", "induced_convergence", "filters.induced"),
    ("ocm.filters", "initial_ucs", "filters.initial_ucs"),
    ("ocm.filters", "check_initial_compat", "filters.initial_compat"),
    ("ocm.filters", "is_cauchy", "filters.is_cauchy"),
]

# the benchmark opens this span around each operation it starts
ROOT = "bench.op"

SPANS = [ROOT] + list(dict.fromkeys(span for _, _, span in WRAPPED))


def resolve(module: str, attr: str):
    """(owner object, attribute name) for a WRAPPED entry; the owner is
    None when the class no longer exists."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls, None)
    return owner, attr


class Tracer:
    """Collects spans in memory between ``install`` and ``uninstall``."""

    def __init__(self):
        self._saved = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self.records: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        work = WORK.get(name)
        count = work[1](args) if work else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.records.append((sid, name, parent, t0, t1, count))

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Wrap every WRAPPED name that exists and return the ones that do
        not, so a later refactor of ocm leaves their spans at zero instead
        of breaking the traced run."""
        missing = []
        for module, attr, name in WRAPPED:
            owner, key = resolve(module, attr)
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, key, original))
            setattr(owner, key, self._wrap(name, original))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(records) -> dict[str, float]:
    """Per-layer metrics of one repetition from its span records.

    For every span name: call count, summed duration and self time (the
    duration minus the part of it that child spans cover).  Plus the
    work counts in WORK, points per eval call, and eval calls made under
    a probe per probe.
    """
    by_id = {r[0]: r for r in records}
    children = defaultdict(list)
    for sid, _, parent, t0, t1, _ in records:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}_calls"] = 0
        out[f"{name}_s"] = 0.0
        out[f"{name}_self_s"] = 0.0
    for metric, _ in WORK.values():
        out[metric] = 0
    evals_under_probe = 0
    for sid, name, parent, t0, t1, count in records:
        out[f"{name}_calls"] += 1
        out[f"{name}_s"] += t1 - t0
        out[f"{name}_self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        if name in WORK:
            out[WORK[name][0]] += count
        if name == "expr.eval":
            p = parent
            while p is not None:
                if by_id[p][1] == "approx.probe":
                    evals_under_probe += 1
                    break
                p = by_id[p][2]
    calls = out["expr.eval_calls"]
    out["expr.points_per_call"] = out["expr.eval_points"] / calls if calls else 0.0
    probes = out["approx.probe_calls"]
    out["approx.evals_per_probe"] = evals_under_probe / probes if probes else 0.0
    return out
