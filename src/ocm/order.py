"""Order convergence, and the refinement driver that produces a Cauchy
sequence of certified approximants.

Approximants are compared through their operator images, built by
``ocm.baire.operator_image`` (re-exported here), at lattice nodes off
the skeleton masks.
The refinement driver plans one partition (the one the finest step
needs, from one vertex plan) and makes every step on it the same way,
placing its pieces and certifying them, so the operator images rise
monotonically step over step with no repairs in exact arithmetic; the
running nodewise maximum enforces the invariant and counts any repairs
float wobble would introduce.  One ``check_residual`` call certifies
all steps in one streamed pass over one ``ocm.domain.SampleSet``, each
sample checked once to lie strictly inside the subcell it was drawn in,
which is what proves it misses the skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import approx, expr as ex
# global_approx has no caller here: it is bound because bench/spans.py wraps ocm.order.global_approx
from .approx import (DEFAULT_ETA, DEFAULT_MARGIN, PiecewisePoly, ResidualCertificate, _place,
                     global_approx)
from .baire import (GridFn, EnvelopePair, _lattice_axes, _located_image, lattice_nodes,
                    nlsc_regularize, operator_image)
from .domain import CellPartition, SampleSet

__all__ = [
    "OrderIntervalSeq",
    "StepRecord",
    "SolutionTrace",
    "operator_image",
    "order_converges",
    "refine_solution",
    "cauchy_gap",
    "trace_csv_rows",
]


@dataclass
class OrderIntervalSeq:
    """A sequence of order intervals [lower_n, upper_n] of grid functions,
    the witnesses order_converges checks a sequence against."""

    pairs: list[tuple[GridFn, GridFn]]

    def __len__(self) -> int:
        return len(self.pairs)


def _require_same_lattice(f: GridFn, g: GridFn) -> None:
    if not f.same_lattice(g):
        raise ValueError("grid functions live on different lattices")


def _off_mask(*fns: GridFn) -> np.ndarray:
    out = ~fns[0].mask_array()
    for f in fns[1:]:
        out &= ~f.mask_array()
    return out


def _below(f: GridFn, g: GridFn, sel: np.ndarray) -> bool:
    return bool(np.all(f.values[sel] <= g.values[sel]))


def order_converges(xs, x: GridFn, witnesses: OrderIntervalSeq, tol: float) -> bool:
    """Check the sandwich definition of order convergence on a finite prefix.

    Requires lower_n nondecreasing, upper_n nonincreasing, the sandwich
    lower_n <= x_n <= upper_n and lower_n <= x <= upper_n at every step,
    and a final witness gap below tol off the masks.
    """
    xs = list(xs)
    if len(xs) != len(witnesses.pairs) or not xs:
        raise ValueError("need equally long nonempty sequences")
    prev = None
    for x_n, (lo, up) in zip(xs, witnesses.pairs):
        for g in (x_n, lo, up):
            _require_same_lattice(x, g)
        sel = _off_mask(x_n, lo, up, x)
        if not all(_below(a, b, sel) for a, b in ((lo, x_n), (x_n, up), (lo, x), (x, up))):
            return False
        if prev is not None:
            plo, pup = prev
            sel2 = _off_mask(lo, up, plo, pup)
            if not (_below(plo, lo, sel2) and _below(up, pup, sel2)):
                return False
        prev = (lo, up)
    lo_N, up_N = witnesses.pairs[-1]
    sel = _off_mask(lo_N, up_N)
    return bool(np.all(up_N.values[sel] - lo_N.values[sel] <= tol))


@dataclass
class StepRecord:
    n: int
    eps: float
    approximant: PiecewisePoly
    images: list[GridFn]  # monotone-enforced operator image per component
    certificate: ResidualCertificate
    repairs: int
    sup_gap_to_rhs: float
    cauchy_gap_prev: float


@dataclass
class SolutionTrace:
    """A computable generalized solution: the Cauchy sequence of certified
    approximants together with its envelope.

    The lower envelope is the regularized final image; the upper partner
    stored here is the right-hand side itself, which certifies the band
    from above (no approximant sequence from above is constructed).
    """

    axes: tuple[np.ndarray, ...]
    rhs_grid: list[GridFn]
    steps: list[StepRecord]
    envelope: list[EnvelopePair]

    @property
    def total_repairs(self) -> int:
        return sum(s.repairs for s in self.steps)

    @property
    def all_certified(self) -> bool:
        return all(s.certificate.passed for s in self.steps)


def _sup_gap(a: GridFn, b: GridFn) -> float:
    sel = _off_mask(a, b)
    if not sel.any():
        return 0.0
    return float(np.max(np.abs(a.values[sel] - b.values[sel])))


def refine_solution(system: ex.PdeSystem, rhs, p: CellPartition, n_max: int, axes, *,
                    eta: float = DEFAULT_ETA, seed: int = 0, samples_per_cell: int | None = None,
                    margin: float = DEFAULT_MARGIN, workers: int = 1) -> SolutionTrace:
    """Run the band construction for eps = 1, 1/2, ..., 1/n_max.

    The partition is planned once, by plan_partition at eps = 1/n_max,
    whose pieces are the last step's; every other step places its pieces
    on it.  One check_residual call then
    certifies all steps in one streamed pass over the SampleSet that
    place_and_certify draws for the same partition and seed, so each
    certificate equals a standalone one.  The lattice axes are checked
    before the partition is planned, and every step is placed before the
    first sample is drawn, so a lattice error comes first, then placement errors.  All
    steps share centers and skeleton, so the image sequence increases
    pointwise; the running nodewise maximum makes that an invariant and
    repairs count any node where a raw image dropped below the running
    maximum by more than eta.  ``workers`` threads run the chunks of
    planning, placement and the certificate; no output depends on them.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    axes = _lattice_axes(axes, p.bounds)
    finest = approx.plan_partition(system, rhs, p, 1.0 / n_max, eta=eta, workers=workers)
    base = finest.partition
    epss = [1.0 / n for n in range(1, n_max + 1)]
    placed = [_place(system, rhs, base, eps, workers) for eps in epss[:-1]] + [finest]
    samples = SampleSet(base, samples_per_cell, margin, seed)
    # looked up on the module, where bench/spans.py wraps it: a name
    # imported into this module would certify outside that span
    certs = approx.check_residual(system, placed, rhs, epss, samples, eta=eta, workers=workers)
    shape = tuple(len(a) for a in axes)
    nodes = lattice_nodes(axes)
    fvals = rhs(nodes)
    rhs_grid = [GridFn(axes, fvals[i].reshape(shape)) for i in range(system.K)]
    # every step shares base, so one lookup of the lattice serves all images
    on_base = base.locate(nodes)

    steps: list[StepRecord] = []
    running: list[GridFn] | None = None
    for n, (eps, U_n, cert) in enumerate(zip(epss, placed, certs), start=1):
        raw = _located_image(system, U_n, axes, nodes, *on_base)
        repairs = 0
        if running is None:
            enforced = raw
        else:
            enforced = []
            for prev, cur in zip(running, raw):
                sel = _off_mask(prev, cur)
                repairs += int(np.sum(cur.values[sel] < prev.values[sel] - eta))
                merged = np.maximum(prev.values, cur.values)
                mask = prev.mask_array() & cur.mask_array()
                enforced.append(GridFn(cur.axes, merged, mask))
        gap = max(_sup_gap(img, fg) for img, fg in zip(enforced, rhs_grid))
        cprev = 0.0
        if running is not None:
            cprev = max(_sup_gap(a, b) for a, b in zip(enforced, running))
        steps.append(StepRecord(n=n, eps=eps, approximant=U_n, images=enforced,
                                certificate=cert, repairs=repairs,
                                sup_gap_to_rhs=gap, cauchy_gap_prev=cprev))
        running = enforced
    envelope = [
        EnvelopePair(lower=nlsc_regularize(img), upper=fg)
        for img, fg in zip(running, rhs_grid)
    ]
    return SolutionTrace(axes=axes, rhs_grid=rhs_grid, steps=steps, envelope=envelope)


def cauchy_gap(trace: SolutionTrace, n1: int, n2: int) -> np.ndarray:
    """Per-component sup of |image_{n1} - image_{n2}| off the masks."""
    if not (1 <= n1 <= len(trace.steps) and 1 <= n2 <= len(trace.steps)):
        raise ValueError("step index out of range")
    a = trace.steps[n1 - 1].images
    b = trace.steps[n2 - 1].images
    return np.asarray([_sup_gap(x, y) for x, y in zip(a, b)])


def trace_csv_rows(trace: SolutionTrace) -> list[str]:
    rows = ["n,eps,max_residual,min_residual,gap,repairs"]
    for s in trace.steps:
        rows.append(
            f"{s.n},{repr(s.eps)},{repr(s.certificate.max_residual)},"
            f"{repr(s.certificate.min_residual)},{repr(s.cauchy_gap_prev)},{s.repairs}"
        )
    return rows
