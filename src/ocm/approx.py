"""One-sided piecewise polynomial approximation with residual certificates.

Given a system ``T u = f`` and a band width ``eps``, the construction
places one Taylor piece per subcell, with the jet at the subcell center
solved so that the residual there equals exactly ``-eps/2``.  It runs in
two stages.  ``plan_partition`` probes a 3^n grid of points in every
cell in one batch: it solves all probe jets together, then halves each
probe's radius until the sampled residual on its ball stays inside
``[-eps - eta, eta]``, and subdivides to the smallest radius found.
``place_and_certify`` takes a fixed partition, solves the jet at every
subcell center, and re-checks the band on an independent off-skeleton
sample set.  Each drawn sample is checked to lie strictly inside the
subcell it was drawn in, which both rules out the skeleton and picks its
piece; only samples a caller passes to ``check_residual`` are located in
the partition.
``global_approx`` is the two stages in sequence; ``local_approx`` is the
probe stage for a single point.

The jet solve is deterministic by construction: one designated pivot
slot per equation, a geometric bracket scan out to |t| = 1e6, and plain
bisection.  No randomness, no multi-start iterations.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import expr as ex
from .domain import Box, CellPartition, Skeleton, sample_points, skeleton_of, subdivide

__all__ = [
    "JetPoint",
    "TaylorPiece",
    "PiecewisePoly",
    "ComponentStats",
    "ResidualCertificate",
    "RangeViolation",
    "DeltaCollapse",
    "taylor_poly",
    "solve_jet",
    "default_pivots",
    "local_approx",
    "plan_partition",
    "place_and_certify",
    "global_approx",
    "check_residual",
    "rhs_from_exprs",
    "certificate_csv_rows",
]

SOLVE_TOL = 1e-10
BISECT_TOL = 1e-12
# bisection stops once every bracket is at most this wide (about 1e-15)
BRACKET_WIDTH = BISECT_TOL * 1e-3
SCAN_LIMIT = 1e6
SWEEPS = 8
DELTA_FLOOR_FACTOR = 1e-6
DEFAULT_ETA = 1e-9
DEFAULT_MARGIN = 0.05
TARGET_SAMPLES = 10_000


class RangeViolation(Exception):
    """No jet can reach the requested operator value.

    Raised when the bracket scan finds no sign change within the scan
    window.  This means either the right-hand side leaves the attainable
    range of the operator at this point (no classical solution nearby),
    or the pivot slot was a poor choice for this equation; the two cases
    cannot be told apart from scan failure alone.  It is also raised,
    with ``reason`` saying which, when an equation has no jet slot to
    adjust and misses its target, when the right-hand side is not finite
    at the point, when the operator is undefined at the solved jet, and
    when the pivot sweeps end with a residual still
    above SOLVE_TOL; ``component`` and ``x`` then name the worst
    residual.
    """

    def __init__(self, component: int, x, detail: str = "", *, reason: str | None = None):
        self.component = component
        self.x = tuple(float(v) for v in np.atleast_1d(x))
        if reason is None:
            reason = (
                f"bracket scan found no sign change within |t| <= {SCAN_LIMIT:g} "
                "(range condition violated or pivot ill-chosen)"
            )
        msg = f"component {component} at x={self.x}: {reason}"
        if detail:
            msg += f"; {detail}"
        super().__init__(msg)


class DeltaCollapse(Exception):
    """Validity radius shrank to the floor without the band check passing."""

    def __init__(self, x, delta: float):
        self.x = tuple(float(v) for v in np.atleast_1d(x))
        super().__init__(
            f"validity radius collapsed to {delta:g} at x={self.x} without certifying the band"
        )


@dataclass(frozen=True)
class JetPoint:
    """Prescribed derivative values at a point: (component, alpha) -> value."""

    x0: tuple[float, ...]
    values: dict[tuple[int, tuple[int, ...]], float]

    def as_vector(self, system: ex.PdeSystem) -> np.ndarray:
        out = np.zeros(system.M)
        for (j, alpha), v in self.values.items():
            out[system.slot(j, alpha)] = v
        return out


@lru_cache(maxsize=None)
def _deriv_ratios(alphas: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """ratio[a, b] = alpha! / (alpha - beta)! when alpha >= beta, else 0."""
    A = len(alphas)
    out = np.zeros((A, A))
    for a, alpha in enumerate(alphas):
        for b, beta in enumerate(alphas):
            if all(ai >= bi for ai, bi in zip(alpha, beta)):
                r = 1.0
                for ai, bi in zip(alpha, beta):
                    r *= math.factorial(ai) / math.factorial(ai - bi)
                out[a, b] = r
    return out


def _power_table(dx: np.ndarray, m: int) -> list[np.ndarray]:
    """pow[d][k] = dx[:, d] ** k for k = 0..m."""
    out = []
    for d in range(dx.shape[1]):
        col = [np.ones(len(dx))]
        for _ in range(m):
            col.append(col[-1] * dx[:, d])
        out.append(col)
    return out


def _jets_from_coeffs(coeffs: np.ndarray, centers: np.ndarray, alphas, pts: np.ndarray) -> np.ndarray:
    """Evaluate all derivatives D^beta of all components at pts.

    coeffs: (N, K, A) per-point piece coefficients, centers: (N, n).
    Returns (N, K, A) with entry [:, j, b] = D^{beta_b} P_j(pt).
    """
    alphas = tuple(alphas)
    m = max(sum(a) for a in alphas)
    ratios = _deriv_ratios(alphas)
    dx = pts - centers
    pw = _power_table(dx, m)
    N, K, A = coeffs.shape
    jets = np.zeros((N, K, A))
    for b, beta in enumerate(alphas):
        acc = np.zeros((N, K))
        for a, alpha in enumerate(alphas):
            if ratios[a, b] == 0.0:
                continue
            mono = np.ones(N)
            for d in range(len(beta)):
                k = alpha[d] - beta[d]
                if k:
                    mono = mono * pw[d][k]
            acc += coeffs[:, :, a] * (ratios[a, b] * mono)[:, None]
        jets[:, :, b] = acc
    return jets


@dataclass
class TaylorPiece:
    """One polynomial piece: coefficients c_{j,alpha} = xi_{j,alpha} / alpha!."""

    center: tuple[float, ...]
    alphas: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray  # (K, A)

    @property
    def K(self) -> int:
        return self.coeffs.shape[0]

    def eval_component(self, j: int, pts: np.ndarray) -> np.ndarray:
        return self.deriv_component(j, (0,) * len(self.center), pts)

    def deriv_component(self, j: int, beta, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        b = self.alphas.index(tuple(beta))
        centers = np.broadcast_to(np.asarray(self.center), pts.shape)
        coeffs = np.broadcast_to(self.coeffs, (len(pts),) + self.coeffs.shape)
        return _jets_from_coeffs(coeffs, centers, self.alphas, pts)[:, j - 1, b]


def taylor_poly(x0, xi) -> TaylorPiece:
    """Build the polynomial whose derivatives at x0 realize the jet xi.

    xi may be a JetPoint or a complete mapping (j, alpha) -> value over
    all components and all multi-indices of order <= m.
    """
    values = xi.values if isinstance(xi, JetPoint) else dict(xi)
    x0 = tuple(float(v) for v in x0)
    n = len(x0)
    K = max(j for j, _ in values)
    m = max(sum(alpha) for _, alpha in values)
    alphas = ex.multi_indices(n, m)
    expected = {(j, a) for j in range(1, K + 1) for a in alphas}
    if set(values) != expected:
        raise ValueError("jet is not complete over components x multi-indices")
    coeffs = np.zeros((K, len(alphas)))
    for (j, alpha), v in values.items():
        coeffs[j - 1, alphas.index(alpha)] = float(v) / ex.multi_factorial(alpha)
    return TaylorPiece(center=x0, alphas=alphas, coeffs=coeffs)


@dataclass
class PiecewisePoly:
    """One Taylor piece per subcell, smooth off the face skeleton."""

    partition: CellPartition
    skeleton: Skeleton
    alphas: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray  # (S, K, A)
    centers: np.ndarray  # (S, n)

    @property
    def K(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_pieces(self) -> int:
        return self.coeffs.shape[0]

    def jets(self, pts: np.ndarray) -> np.ndarray:
        """Full jets (N, K, A) at off-skeleton points; on-face points raise."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        loc, on_face = self.partition.locate(pts)
        if on_face.any():
            raise ValueError("point lies on the skeleton; jets undefined there")
        return _jets_from_coeffs(self.coeffs[loc], self.centers[loc], self.alphas, pts)

    def eval_component(self, j: int, pts: np.ndarray) -> np.ndarray:
        zero = self.alphas.index((0,) * self.partition.n)
        return self.jets(pts)[:, j - 1, zero]

    @classmethod
    def from_pieces(cls, partition: CellPartition, pieces: list[TaylorPiece]) -> "PiecewisePoly":
        if len(pieces) != partition.total_subcells:
            raise ValueError("need exactly one piece per subcell")
        alphas = pieces[0].alphas
        coeffs = np.stack([p.coeffs for p in pieces])
        centers = np.asarray([p.center for p in pieces], dtype=float)
        return cls(
            partition=partition,
            skeleton=skeleton_of(partition),
            alphas=alphas,
            coeffs=coeffs,
            centers=centers,
        )


# ---------------------------------------------------------------------------
# right-hand sides

def rhs_from_exprs(texts, n: int):
    """Compile rhs strings in x into a vector evaluator pts (N,n) -> (K,N)."""
    trees = [ex.parse_rhs(t, n) for t in texts]
    dummy = ex.PdeSystem(n=n, K=1, m=0, components=(ex.Const(0.0),))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        X = pts.T
        XI = np.zeros((1, len(pts)))
        with np.errstate(all="ignore"):
            return np.stack([np.asarray(ex._eval_batch(t, X, XI, dummy)) + np.zeros(len(pts)) for t in trees])

    return evaluate


# ---------------------------------------------------------------------------
# jet solving

def default_pivots(system: ex.PdeSystem) -> tuple:
    """One pivot slot per equation: the equation's own zeroth-order slot
    when referenced, else its first referenced derivative slot; pivots
    are kept distinct across equations."""
    used: set = set()
    pivots = []
    zero_alpha = (0,) * system.n
    for i, comp in enumerate(system.components, start=1):
        refs = ex.jet_slots_of(comp)
        if not refs:
            pivots.append(None)
            continue
        ordered = sorted(refs)
        pick = None
        if (i, zero_alpha) in refs and (i, zero_alpha) not in used:
            pick = (i, zero_alpha)
        if pick is None:
            pick = next((s for s in ordered if sum(s[1]) >= 1 and s not in used), None)
        if pick is None:
            pick = next((s for s in ordered if s not in used), None)
        if pick is None:
            raise ValueError(
                f"cannot assign a distinct pivot slot to equation {i}; "
                "pass explicit pivots"
            )
        used.add(pick)
        pivots.append(pick)
    return tuple(pivots)


def _scan_candidates() -> np.ndarray:
    ups = [2.0**k for k in range(20)] + [SCAN_LIMIT]
    return np.asarray(sorted({-t for t in ups} | {0.0} | set(ups)))


# failure codes of a batched jet solve, one per point; 0 means solved
_NO_SIGN_CHANGE, _NO_SLOT, _UNDEFINED, _NOT_CONVERGED, _NO_TARGET = 1, 2, 3, 4, 5
# RangeViolation reasons; a failed bracket scan keeps the class's default
_FAILURE_REASON = {
    _NO_SLOT: "equation has no jet slots to adjust",
    _UNDEFINED: "operator undefined at solved jet",
    _NO_TARGET: "right-hand side not finite",
}


@dataclass
class _JetSolve:
    """Per-point outcome of a batched jet solve."""

    xi: np.ndarray  # (M, S) jet vectors
    fail: np.ndarray  # (S,) failure code, 0 where the point was solved
    component: np.ndarray  # (S,) 1-based component of the failure
    residual: np.ndarray  # (S,) worst |residual| over components after the last sweep

    def error(self, s: int, x) -> RangeViolation:
        component = int(self.component[s])
        if self.fail[s] == _NOT_CONVERGED:
            return RangeViolation(component, x, reason=(
                f"jet solve did not converge: residual {self.residual[s]:g} above "
                f"{SOLVE_TOL:g} after {SWEEPS} pivot sweeps"
            ))
        return RangeViolation(component, x, reason=_FAILURE_REASON.get(int(self.fail[s])))


def _solve_jets(system, centers: np.ndarray, targets: np.ndarray, anchor, pivots) -> _JetSolve:
    """Solve the pivot slots so every component meets its target at its center.

    centers: (S, n); targets: (S, K).  Equations are solved in order; if
    pivot slots couple equations, extra sweeps run until every residual
    is within SOLVE_TOL.  A point keeps the first failure it meets and
    drops out of the convergence test, so one failing point never stops
    the others; a point whose target is not finite fails before any scan.
    """
    S = len(centers)
    K = system.K
    X = centers.T.copy()
    if anchor is None:
        XI = np.zeros((system.M, S))
    else:
        XI = np.tile(np.asarray(anchor, dtype=float).reshape(-1, 1), (1, S))
    pivot_rows = [None if p is None else system.slot(*p) for p in pivots]
    cands = _scan_candidates()
    fail = np.zeros(S, dtype=np.int8)
    comp = np.zeros(S, dtype=np.int32)

    def mark(bad, code, component):
        new = bad & (fail == 0)
        fail[new] = code
        comp[new] = np.broadcast_to(component, (S,))[new]

    def g(i):
        """Residual of component i at the pivot values now in XI; the
        evaluator returns a fresh array, so the subtraction is in place."""
        r = ex.eval_component_batch(system, i, X, XI)
        with np.errstate(invalid="ignore"):  # inf - inf where a target is not finite
            r -= targets[:, i]
        return r

    lo = np.empty(S)
    hi = np.empty(S)
    s_lo = np.empty(S)  # sign of g at lo: fixed, as lo only moves to midpoints of that sign
    go_right = np.empty(S, dtype=bool)
    go_left = np.empty(S, dtype=bool)
    width = np.empty(S)
    for i in range(K):
        mark(~np.isfinite(targets[:, i]), _NO_TARGET, i + 1)
    for _ in range(SWEEPS):
        for i in range(K):
            row = pivot_rows[i]
            if row is None:
                resid = g(i)
                mark(~(np.abs(resid) <= SOLVE_TOL), _NO_SLOT, i + 1)
                continue
            lo.fill(0.0)
            hi.fill(0.0)
            s_lo.fill(0.0)
            found = np.zeros(S, dtype=bool)
            prev_sign = None
            prev_ok = None
            # the first sign change in ascending order is each point's
            # bracket, so the scan ends once every point has one
            for k, t in enumerate(cands):
                XI[row] = t
                gt = g(i)
                ok = np.isfinite(gt)
                sign = np.sign(gt)
                if prev_sign is not None:
                    sel = prev_sign * sign <= 0
                    sel &= prev_ok
                    sel &= ok
                    sel &= ~found
                    if sel.any():
                        lo[sel] = cands[k - 1]
                        s_lo[sel] = prev_sign[sel]
                        hi[sel] = t
                        found |= sel
                        if found.all():
                            break
                prev_sign, prev_ok = sign, ok
            mark(~found, _NO_SIGN_CHANGE, i + 1)
            # bisection in place on the pivot row: a point moves right when
            # g(mid) has the sign of g(lo); where g(lo) is 0 and g(mid) is
            # infinite, inf * 0 is nan, so it moves left, as before
            mid = XI[row]
            with np.errstate(invalid="ignore"):
                for _ in range(80):
                    np.add(lo, hi, out=mid)
                    mid *= 0.5
                    gm = g(i)
                    gm *= s_lo
                    np.greater(gm, 0.0, out=go_right)
                    np.logical_not(go_right, out=go_left)
                    np.copyto(lo, mid, where=go_right)
                    np.copyto(hi, mid, where=go_left)
                    np.subtract(hi, lo, out=width)
                    if width.max() <= BRACKET_WIDTH:
                        break
            np.add(lo, hi, out=mid)
            mid *= 0.5
        resid = np.abs(np.stack([g(i) for i in range(K)]))
        for i in range(K):
            mark(~np.isfinite(resid[i]), _UNDEFINED, i + 1)
        worst = resid.max(axis=0)
        solved = fail == 0
        if not solved.any() or np.max(worst[solved]) <= SOLVE_TOL:
            break
    else:
        mark(worst > SOLVE_TOL, _NOT_CONVERGED, np.argmax(resid, axis=0) + 1)
    return _JetSolve(xi=XI, fail=fail, component=comp, residual=worst)


def _solve_jet_batch(system, centers: np.ndarray, targets: np.ndarray, anchor, pivots) -> np.ndarray:
    """Jet vectors (S, M) from _solve_jets, or the error of its first hard
    failure; when the sweeps only failed to converge, the error names the
    point and component of the worst residual."""
    solve = _solve_jets(system, centers, targets, anchor, pivots)
    if solve.fail.any():
        hard = (solve.fail != 0) & (solve.fail != _NOT_CONVERGED)
        s = int(np.argmax(hard)) if hard.any() else int(np.argmax(solve.residual))
        raise solve.error(s, centers[s])
    return solve.xi.T.copy()


def solve_jet(system: ex.PdeSystem, x0, target, anchor: JetPoint | None = None, pivots=None) -> JetPoint:
    """Find a jet xi with F_i(x0, xi) = target_i for every component.

    All slots keep the anchor value (default 0); only the pivot slots
    move, one per equation, found by bracket scan plus bisection.
    """
    x0 = tuple(float(v) for v in x0)
    target = np.atleast_1d(np.asarray(target, dtype=float))
    if len(target) != system.K:
        raise ValueError(f"target has {len(target)} entries, expected K={system.K}")
    if pivots is None:
        pivots = default_pivots(system)
    anchor_vec = None if anchor is None else anchor.as_vector(system)
    XI = _solve_jet_batch(system, np.asarray([x0]), target.reshape(1, -1), anchor_vec, pivots)[0]
    alphas = system.alphas
    values = {
        (j, alpha): float(XI[system.slot(j, alpha)])
        for j in range(1, system.K + 1)
        for alpha in alphas
    }
    return JetPoint(x0=x0, values=values)


# ---------------------------------------------------------------------------
# local and global construction

def _ball_points(x0s: np.ndarray, deltas: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic verification samples in the closed ball around each
    center, clipped to the box, with the center itself last.

    x0s: (B, n), deltas: (B,).  Returns points (B, P, n) and a mask
    (B, P) of the grid points that lie in their ball.
    """
    B, n = x0s.shape
    lo = x0s - deltas[:, None]
    hi = x0s + deltas[:, None]
    if n == 1:
        pts = np.linspace(lo, hi, 33, axis=1)
        inside = np.ones(pts.shape[:2], dtype=bool)
    else:
        per_axis = 9 if n == 2 else 5
        grids = np.linspace(lo, hi, per_axis, axis=2)  # (B, n, per_axis)
        mesh = np.meshgrid(*[np.arange(per_axis)] * n, indexing="ij")
        idx = np.stack([g.ravel() for g in mesh], axis=1)  # (P, n)
        pts = grids[:, np.arange(n), idx]
        inside = np.linalg.norm(pts - x0s[:, None, :], axis=2) <= deltas[:, None] * (1 + 1e-12)
    pts = np.clip(pts, np.asarray(box.lo), np.asarray(box.hi))
    pts = np.concatenate([pts, x0s[:, None, :]], axis=1)
    inside = np.concatenate([inside, np.ones((B, 1), dtype=bool)], axis=1)
    return pts, inside


def _band_ok(system, rhs, x0s: np.ndarray, coeffs: np.ndarray, deltas: np.ndarray,
             box: Box, eps: float, eta: float) -> np.ndarray:
    """Per center: does the residual of its piece stay in
    [-eps - eta, eta] at every sample of its ball?"""
    pts, inside = _ball_points(x0s, deltas, box)
    B, P, n = pts.shape
    flat = pts.reshape(-1, n)
    jets = _jets_from_coeffs(np.repeat(coeffs, P, axis=0), np.repeat(x0s, P, axis=0),
                             system.alphas, flat)
    XI = jets.reshape(len(flat), -1).T
    fvals = rhs(flat)
    ok = np.ones((B, P), dtype=bool)
    for i in range(system.K):
        r = (ex.eval_component_batch(system, i, flat.T, XI) - fvals[i]).reshape(B, P)
        ok &= np.isfinite(r) & (r <= eta) & (r >= -eps - eta)
    return np.all(ok | ~inside, axis=1)


def _taylor_coeffs(system, jets: np.ndarray) -> np.ndarray:
    """Piece coefficients (S, K, A), c = xi / alpha!, from jet vectors (S, M)."""
    A = len(system.alphas)
    return jets.reshape(len(jets), system.K, A) / np.asarray(
        [ex.multi_factorial(a) for a in system.alphas]
    )


def _probe(system, rhs, x0s: np.ndarray, start: np.ndarray, eps: float, box: Box,
           eta: float, pivots) -> tuple[np.ndarray, np.ndarray]:
    """Validity radius (B,) and piece coefficients (B, K, A) at every probe point.

    The jet at each point is solved for f(x0) - eps/2, centering the
    residual in the band; each point's radius starts at its entry of
    start and halves until the band check on its ball passes.  Raises
    the error of the first point, in array order, whose solve fails or
    whose radius falls below the floor.
    """
    B = len(x0s)
    solve = _solve_jets(system, x0s, rhs(x0s).T - 0.5 * eps, None, pivots)
    coeffs = _taylor_coeffs(system, solve.xi.T)
    delta = np.array(start, dtype=float)
    floor = DELTA_FLOOR_FACTOR * max(box.sides)
    collapsed = np.zeros(B, dtype=bool)
    active = solve.fail == 0
    while active.any():
        idx = np.flatnonzero(active)
        passed = _band_ok(system, rhs, x0s[idx], coeffs[idx], delta[idx], box, eps, eta)
        active[idx[passed]] = False
        halve = idx[~passed]
        delta[halve] *= 0.5
        low = halve[delta[halve] < floor]
        collapsed[low] = True
        active[low] = False
    bad = (solve.fail != 0) | collapsed
    if bad.any():
        s = int(np.argmax(bad))
        if collapsed[s]:
            raise DeltaCollapse(x0s[s], delta[s])
        raise solve.error(s, x0s[s])
    return delta, coeffs


def local_approx(system: ex.PdeSystem, rhs, x0, eps: float, *, box: Box,
                 start_delta: float | None = None, eta: float = DEFAULT_ETA,
                 pivots=None) -> tuple[float, TaylorPiece]:
    """One polynomial valid on a ball around x0.

    The jet at x0 is solved for the target f(x0) - eps/2, centering the
    residual in the band; the radius starts at start_delta and halves
    until the sampled band check passes.  This is one probe of
    plan_partition, run alone.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x0 = np.asarray(x0, dtype=float)
    if pivots is None:
        pivots = default_pivots(system)
    start = float(start_delta) if start_delta is not None else box.diameter
    deltas, coeffs = _probe(system, rhs, x0.reshape(1, -1), np.asarray([start]), eps, box,
                            eta, pivots)
    return float(deltas[0]), TaylorPiece(center=tuple(x0), alphas=system.alphas, coeffs=coeffs[0])


_PROBE_FRACTIONS = (0.25, 0.5, 0.75)


def plan_partition(system: ex.PdeSystem, rhs, p: CellPartition, eps: float, *,
                   eta: float = DEFAULT_ETA) -> CellPartition:
    """Subdivide p to the smallest validity radius over all probe points.

    Every cell is probed at the 3^n points at fractions 1/4, 1/2, 3/4 of
    its sides, each radius starting at the cell's diameter, all in one
    batch.  The returned partition records that radius as ``delta``.
    Raises the error of the first failing probe, cells in C order and
    probes in lexicographic order within a cell.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    fracs = np.asarray(list(itertools.product(_PROBE_FRACTIONS, repeat=p.n)))
    boxes = [p.cell_box(c) for c in range(p.n_cells)]
    lo = np.asarray([b.lo for b in boxes])
    hi = np.asarray([b.hi for b in boxes])
    x0s = (lo[:, None, :] + fracs * (hi - lo)[:, None, :]).reshape(-1, p.n)
    start = np.repeat([b.diameter for b in boxes], len(fracs))
    deltas, _ = _probe(system, rhs, x0s, start, eps, p.bounds, eta, default_pivots(system))
    return subdivide(p, float(deltas.min()))


def _located_samples(fine: CellPartition, samples_per_cell: int | None, margin: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The certificate's sample set on fine and the subcell index of each
    sample: at least TARGET_SAMPLES points unless samples_per_cell is given.

    Sample i is drawn in subcell i // samples_per_cell.  Every sample is
    checked to lie strictly inside that subcell's open box, which proves
    its index and that it is inside the domain and off every face, so
    no sample is searched for in the partition.
    """
    if samples_per_cell is None:
        samples_per_cell = max(1, math.ceil(TARGET_SAMPLES / fine.total_subcells))
    pts = sample_points(fine, samples_per_cell, margin, seed)
    lo, hi = fine.subcell_bounds()
    drawn = pts.reshape(len(lo), samples_per_cell, fine.n)
    if not np.all((lo[:, None, :] < drawn) & (drawn < hi[:, None, :])):
        if np.any(pts < np.asarray(fine.bounds.lo)) or np.any(pts > np.asarray(fine.bounds.hi)):
            raise ValueError("point outside domain")
        raise ValueError("verification sample lies on the skeleton")
    return pts, np.repeat(np.arange(len(lo)), samples_per_cell)


def _place(system, rhs, fine: CellPartition, eps: float) -> PiecewisePoly:
    """One piece per subcell of fine, its jet solved for f - eps/2 at the
    subcell center."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    centers = fine.subcell_centers()
    targets = rhs(centers).T - 0.5 * eps
    if not np.all(np.isfinite(targets)):
        raise ValueError("right-hand side not finite at subcell centers")
    jets = _solve_jet_batch(system, centers, targets, None, default_pivots(system))
    return PiecewisePoly(partition=fine, skeleton=skeleton_of(fine), alphas=system.alphas,
                         coeffs=_taylor_coeffs(system, jets), centers=centers)


def _certify(system, U: PiecewisePoly, rhs, eps: float, located, *, eta: float,
             workers: int) -> "ResidualCertificate":
    """check_residual on a (samples, subcell index) pair from _located_samples."""
    pts, loc = located
    return check_residual(system, U, rhs, eps, pts, eta=eta, workers=workers, _loc=loc)


def place_and_certify(system: ex.PdeSystem, rhs, fine: CellPartition, eps: float, *,
                      eta: float = DEFAULT_ETA, samples_per_cell: int | None = None,
                      margin: float = DEFAULT_MARGIN, seed: int = 0,
                      workers: int = 1) -> tuple[PiecewisePoly, "ResidualCertificate"]:
    """Place one piece per subcell of a fixed partition and certify the band.

    The jet at every subcell center is solved for f - eps/2 there.  The
    certificate checks the band on a fresh off-skeleton sample set, at
    least TARGET_SAMPLES points unless samples_per_cell is given, each
    checked to lie strictly inside the subcell of fine it was drawn in
    (which proves it misses the skeleton and picks its piece), with the
    residual sweep shared by ``workers`` threads.  The set depends only
    on fine, samples_per_cell, margin and seed, so refine_solution draws
    it once for all steps on its common partition.
    """
    U = _place(system, rhs, fine, eps)
    located = _located_samples(fine, samples_per_cell, margin, seed)
    return U, _certify(system, U, rhs, eps, located, eta=eta, workers=workers)


def global_approx(system: ex.PdeSystem, rhs, p: CellPartition, eps: float, *,
                  eta: float = DEFAULT_ETA, samples_per_cell: int | None = None,
                  margin: float = DEFAULT_MARGIN, seed: int = 0,
                  workers: int = 1) -> tuple[PiecewisePoly, "ResidualCertificate"]:
    """Assemble a certified one-sided approximant over the whole partition:
    plan_partition picks the subdivision, then place_and_certify places
    the pieces on it and certifies the band.  ``workers`` applies to the
    certificate's residual sweep only; probing runs as one batch.
    """
    fine = plan_partition(system, rhs, p, eps, eta=eta)
    return place_and_certify(system, rhs, fine, eps, eta=eta, samples_per_cell=samples_per_cell,
                             margin=margin, seed=seed, workers=workers)


# ---------------------------------------------------------------------------
# certification

@dataclass
class ComponentStats:
    component: int
    samples: int
    min_residual: float
    max_residual: float
    passed: bool
    offenders: list[tuple[tuple[float, ...], float]] = field(default_factory=list)


@dataclass
class ResidualCertificate:
    """Recorded evidence that the residual stays in [-eps - eta, eta]."""

    eps: float
    eta: float
    components: list[ComponentStats]
    insufficient: bool = False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components)

    @property
    def min_residual(self) -> float:
        return min((c.min_residual for c in self.components), default=math.nan)

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.components), default=math.nan)


def check_residual(system: ex.PdeSystem, U: PiecewisePoly, rhs, eps: float, samples,
                   *, eta: float = DEFAULT_ETA, workers: int = 1,
                   _loc: np.ndarray | None = None) -> ResidualCertificate:
    """Independent band check at the given off-skeleton samples.

    Caller-supplied samples are located in U's partition once: a sample
    on a subcell face raises ValueError (the face flag of the lookup is
    exactly skeleton membership), one outside the domain too, and the
    subcell index picks the piece whose jets are evaluated there.
    ``_loc`` is for callers in this module that pass the subcell index of
    samples they drew themselves, each already checked to lie strictly
    inside its subcell, as place_and_certify and refine_solution do.
    """
    if tuple(U.alphas) != system.alphas or U.K != system.K:
        raise ValueError("approximant jet layout does not match the system")
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.size == 0:
        stats = [
            ComponentStats(component=i + 1, samples=0, min_residual=math.nan,
                           max_residual=math.nan, passed=True)
            for i in range(system.K)
        ]
        return ResidualCertificate(eps=eps, eta=eta, components=stats, insufficient=True)
    loc = _loc
    if loc is None:
        loc, on_face = U.partition.locate(pts)
        if on_face.any():
            raise ValueError("verification sample lies on the skeleton")

    def residuals(start: int) -> np.ndarray:
        chunk = pts[start: start + chunk_size]
        piece = loc[start: start + chunk_size]
        jets = _jets_from_coeffs(U.coeffs[piece], U.centers[piece], U.alphas, chunk)
        XI = jets.reshape(len(chunk), -1).T
        fv = rhs(chunk)
        out = np.empty((system.K, len(chunk)))
        for i in range(system.K):
            out[i] = ex.eval_component_batch(system, i, chunk.T, XI) - fv[i]
        return out

    chunk_size = 65536
    starts = range(0, len(pts), chunk_size)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(residuals, starts))
    else:
        parts = [residuals(s) for s in starts]
    res = np.concatenate(parts, axis=1)

    stats = []
    for i in range(system.K):
        r = res[i]
        finite = np.isfinite(r)
        rmin = float(np.min(r[finite])) if finite.any() else math.nan
        rmax = float(np.max(r[finite])) if finite.any() else math.nan
        ok = bool(finite.all()) and rmin >= -eps - eta and rmax <= eta
        bad = ~finite | (r > eta) | (r < -eps - eta)
        offenders = []
        if bad.any():
            excess = np.where(np.isfinite(r), np.maximum(r - eta, (-eps - eta) - r), np.inf)
            worst = np.argsort(-excess)[:5]
            offenders = [(tuple(map(float, pts[w])), float(r[w])) for w in worst if bad[w]]
        stats.append(
            ComponentStats(component=i + 1, samples=int(len(r)), min_residual=rmin,
                           max_residual=rmax, passed=ok, offenders=offenders)
        )
    return ResidualCertificate(eps=eps, eta=eta, components=stats)


def certificate_csv_rows(cert: ResidualCertificate) -> list[str]:
    rows = ["component,samples,min_residual,max_residual,eps,eta,pass"]
    for c in cert.components:
        rows.append(
            f"{c.component},{c.samples},{repr(c.min_residual)},{repr(c.max_residual)},"
            f"{repr(cert.eps)},{repr(cert.eta)},{'true' if c.passed else 'false'}"
        )
    return rows
