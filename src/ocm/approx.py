"""One-sided piecewise polynomial approximation with residual certificates.

Given a system ``T u = f`` and a band width ``eps``, the construction
places one Taylor piece per subcell, with the jet at the subcell center
solved so that the residual there equals exactly ``-eps/2``.  It runs in
two stages.  ``plan_partition`` places a piece in every subcell and
evaluates each at the vertices of its own subcell, splitting every cell
with a vertex residual outside ``[-eps - eta, eta]``, along the axes its
residual drifts along, and placing again
until no cell moves; it returns the pieces of its last round.
``place_and_certify`` takes a fixed partition, solves the jet at every
subcell center, and re-checks the band on an independent off-skeleton
sample set.  ``check_residual`` certifies any number of approximants on
one partition, as refine_solution's steps are, in one pass over an
``ocm.domain.SampleSet``, streamed subcell by subcell and checked to
lie strictly inside the subcell it was drawn in, so each piece is
evaluated over its own samples and no sample is looked up.  Placement,
the vertex pass and the certificate run chunks of about CHUNK points on
``workers`` threads (_map_chunks), so memory does not grow with the partition.
``global_approx`` is the plan and its certificate; ``local_approx``
halves a ball's radius around a single point until a sampled band check
on the ball passes.

Every per-subcell array is stored subcell axis last, the way the
kernels read it: subcell bounds and centres (n, S), piece coefficients
(K, A, S), jet-solve targets (K, S) and jets (M, S), and a
certificate's samples as (n, per_cell, count) chunks and a plan round's
vertices as (n, 2^n, count), against which a chunk's pieces are sliced
to (K, A, 1, count).
numpy runs its innermost loop along the last axis, so each piece
broadcast over its own samples is one loop over the chunk's subcells,
not a loop over n = 2 or 3 coordinates repeated per sample.
Only the jet slots the system reads are built.  The layout decides which
loop numpy runs innermost, not the operations on any element, so it
cannot move a certificate.  Only the point-first public boundaries
transpose: ``sample_points`` returns (N, n), ``PiecewisePoly.jets`` maps
(N, n) to (N, K, A), ``local_approx`` takes a centre point, and a
right-hand side maps (N, n) to (K, N): ``_rhs_at``, its one caller,
takes points (n, ...), and ``_residual`` forms every T(P) - f.

The jet solve is deterministic by construction: one designated pivot
slot per equation, the first unused slot of one preference list.  The
slots an equation reads, and its degree in each, come from the system's
compiled form (``PdeSystem.slot_degrees``); this module walks no
expression tree.  A pivot of degree 1, which enters its equation
affinely, is solved in closed form from two evaluations, and the root is
kept where one more evaluation puts the residual within SOLVE_TOL; every
other point, and every other pivot, goes to a geometric bracket scan out
to |t| = 1e6 and plain bisection, which stops each point on its own.  Equations are swept in order until
a point's residuals are within SOLVE_TOL, a sweep moves none of its
pivots, or SWEEPS sweeps have run.  No randomness, no multi-start
iterations.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import expr as ex
# skeleton_of, sample_points and subdivide have no caller here: bench/spans.py
# wraps them in ocm.approx
from .domain import (CHUNK, MAX_SUBCELLS, Box, CellPartition, SampleSet, build_partition,
                     sample_points, skeleton_of, subdivide)

__all__ = [
    "PiecewisePoly",
    "ComponentStats",
    "ResidualCertificate",
    "RangeViolation",
    "DeltaCollapse",
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
# bisection stops once every bracket is at most this wide
BRACKET_WIDTH = 1e-15
SCAN_LIMIT = 1e6
SWEEPS = 8
DELTA_FLOOR_FACTOR = 1e-6
# the most a planning round multiplies a cell's split count by, per axis
SPLIT_GROWTH_CAP = 64
# the range a cell's measured drift order (dev ~ side^alpha) is clipped to
DRIFT_ORDER_MIN, DRIFT_ORDER_MAX = 0.25, 1.0
# the share of a cell's summed drift above which an axis counts as drifting
DRIFT_SHARE_MIN = 1e-3
# the share of a moving cell's excess over eps/2 that its summed drifts
# must reach; below it, the cell's face centres are probed (_face_excess)
DRIFT_EXPLAINS_MIN = 0.5
# how far the plan moves a boundary vertex whose residual is not finite,
# as a share of the way to its subcell's centre
INWARD = 2.0 ** -20
DEFAULT_ETA = 1e-9
DEFAULT_MARGIN = 0.05


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
    when the pivot sweeps end with a residual still above SOLVE_TOL,
    because a sweep moved no pivot or SWEEPS sweeps ran; the message
    then gives the number of sweeps run, and ``component`` and ``x``
    name the worst residual.
    """

    def __init__(self, component: int, x, *, reason: str | None = None):
        self.component = component
        self.x = tuple(float(v) for v in np.atleast_1d(x))
        if reason is None:
            reason = (
                f"bracket scan found no sign change within |t| <= {SCAN_LIMIT:g} "
                "(range condition violated or pivot ill-chosen)"
            )
        super().__init__(f"component {component} at x={self.x}: {reason}")


class DeltaCollapse(Exception):
    """The band needs pieces narrower than the floor, DELTA_FLOOR_FACTOR
    times the largest box side, or more of them than MAX_SUBCELLS.

    plan_partition raises it for the first cell, in C order, whose next
    split counts would give a subcell side below the floor: ``cell`` is
    that cell, ``x`` its worst vertex, ``residual`` the residual there and
    ``width`` the narrowest subcell side the split would give.  When the
    next split counts would give ``planned`` subcells in all, more than
    MAX_SUBCELLS, ``cell`` is the cell that would hold the most.
    local_approx raises it when its ball's radius ``width`` halves below
    the floor around ``x``; ``cell`` and ``residual`` are then None.
    """

    def __init__(self, x, width: float, *, cell: int | None = None,
                 residual: float | None = None, floor: float | None = None,
                 planned: int | None = None):
        self.x = tuple(float(v) for v in np.atleast_1d(x))
        self.width, self.cell, self.residual = width, cell, residual
        if cell is None:
            message = (f"validity radius collapsed to {width:g} at x={self.x} "
                       "without certifying the band")
        elif planned is not None:
            message = (f"the plan would split into {planned:,} subcells, over the budget of "
                       f"{MAX_SUBCELLS:,}; cell {cell} would hold the most, {width:g} wide, "
                       f"for its worst vertex x={self.x} (residual {residual:g})")
        else:
            message = (f"cell {cell} would need subcells {width:g} wide, below the floor "
                       f"{floor:g}, for its worst vertex x={self.x} (residual {residual:g}) "
                       "to reach the band")
        super().__init__(message)


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


def _monomial(pts: np.ndarray, centers: np.ndarray, gamma: tuple[int, ...],
              memo: dict) -> np.ndarray:
    """dx^gamma, dx = pts - centers over their first axis, built once per
    memo: each axis power by repeated multiplication, the axis powers left
    to right.  An axis offset is only taken when some monomial uses it,
    so jets that read no monomial take none."""
    if gamma not in memo:
        d = max(i for i, k in enumerate(gamma) if k)  # gamma's last axis
        rest = gamma[:d] + (0,) * (len(gamma) - d)
        if any(rest):
            memo[gamma] = (_monomial(pts, centers, rest, memo)
                           * _monomial(pts, centers, (0,) * d + gamma[d:], memo))
        elif gamma[d] > 1:
            below = gamma[:d] + (gamma[d] - 1,) + gamma[d + 1:]
            unit = tuple(int(i == d) for i in range(len(gamma)))
            memo[gamma] = _monomial(pts, centers, below, memo) * _monomial(pts, centers, unit, memo)
        else:
            memo[gamma] = pts[d] - centers[d]
    return memo[gamma]


def _jets_from_coeffs(coeffs: np.ndarray, centers: np.ndarray, alphas, pts: np.ndarray,
                      slots, memo: dict | None = None) -> np.ndarray:
    """Evaluate the derivatives D^beta_b P_j at pts for every (j, b) in slots.

    coeffs (K, A, ...), centers (n, ...) and pts (n, ...) broadcast over
    their trailing dimensions, so one piece serves all of its points
    without being copied out for each.  Returns (K, A, *lead) with entry
    [j, b, ...] = D^{beta_b} P_j(pt) for the (j, b) in slots, 0-based;
    the other slots stay 0.  A memo of _monomial, if given, is shared
    with other calls on the same pts and equal centers.
    """
    ratios = _deriv_ratios(tuple(alphas))
    lead = np.broadcast_shapes(coeffs.shape[2:], pts.shape[1:], centers.shape[1:])
    memo = {} if memo is None else memo
    jets = np.zeros(coeffs.shape[:2] + lead)
    for j, b in slots:
        acc = jets[j, b]
        for a, alpha in enumerate(alphas):
            r = ratios[a, b]
            if r == 0.0:
                continue
            gamma = tuple(x - y for x, y in zip(alpha, alphas[b]))
            term = coeffs[j, a]
            if any(gamma):
                mono = _monomial(pts, centers, gamma, memo)
                term = term * (mono if r == 1.0 else r * mono)
            elif r != 1.0:
                term = term * r
            acc += term
    return jets


@lru_cache(maxsize=None)
def _read_slots(system: ex.PdeSystem) -> tuple[tuple[int, int], ...]:
    """The jet slots some component of system reads, as 0-based
    (component, alpha index) pairs in slot order."""
    refs = set().union(*system.slot_degrees)
    return tuple(divmod(s, len(system.alphas)) for s in sorted(system.slot(*r) for r in refs))


def _operator_values(system, coeffs: np.ndarray, centers: np.ndarray, pts: np.ndarray,
                     memo: dict | None = None) -> np.ndarray:
    """T_i(x, D)P(x) for every component i at pts (n, ...), where a point
    reads the piece whose coeffs (K, A, ...) and centers (n, ...)
    broadcast to its trailing index, as in _jets_from_coeffs.

    The one path from pieces to operator values: jets by
    _jets_from_coeffs, only for the slots the system reads, each
    component by ex.eval_component_batch.  Returns a fresh (K, N) array
    over the N points of pts[d] in C order; undefined entries are
    non-finite.
    """
    jets = _jets_from_coeffs(coeffs, centers, system.alphas, pts, _read_slots(system), memo)
    X = pts.reshape(system.n, -1)
    XI = jets.reshape(system.M, -1)
    out = np.empty((system.K, X.shape[1]))
    for i in range(system.K):
        out[i] = ex.eval_component_batch(system, i, X, XI)
    return out


@dataclass
class PiecewisePoly:
    """One Taylor piece per subcell, smooth off the face skeleton; its
    arrays are stored subcell axis last, as the partition's bounds are."""

    partition: CellPartition
    alphas: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray  # (K, A, S)
    centers: np.ndarray  # (n, S)

    def __post_init__(self):
        S, A, shape = self.partition.total_subcells, len(self.alphas), np.shape(self.coeffs)
        if shape[1:] != (A, S) or np.shape(self.centers) != (self.partition.n, S):
            raise ValueError(f"coeffs {shape} and centers {np.shape(self.centers)} do not match "
                             f"the partition: need (K, {A}, {S}) and ({self.partition.n}, {S})")

    @property
    def K(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_pieces(self) -> int:
        return self.coeffs.shape[2]

    def jets(self, pts: np.ndarray) -> np.ndarray:
        """Full jets (N, K, A) at off-skeleton points; on-face points raise."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        loc, on_face = self.partition.locate(pts)
        if on_face.any():
            raise ValueError("point lies on the skeleton; jets undefined there")
        every = list(itertools.product(range(self.K), range(len(self.alphas))))
        jets = _jets_from_coeffs(self.coeffs[:, :, loc], self.centers[:, loc], self.alphas,
                                 pts.T, every)
        return jets.transpose(2, 0, 1)


def _taylor_coeffs(alphas, jets: np.ndarray) -> np.ndarray:
    """Piece coefficients (K, A, S), c = xi / alpha!, from jet vectors
    (K * A, S) in the slot order of PdeSystem.slot."""
    factorials = np.asarray([ex.multi_factorial(a) for a in alphas])
    return jets.reshape(-1, len(alphas), jets.shape[1]) / factorials[:, None]


# ---------------------------------------------------------------------------
# right-hand sides

def rhs_from_exprs(texts, n: int):
    """Compile rhs strings in x into a vector evaluator pts (N,n) -> (K,N);
    a single point may also be given as its n coordinates."""
    trees = tuple(ex.parse_rhs(t, n) for t in texts)
    system = ex.PdeSystem(n=n, K=len(trees), m=0, components=trees)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1:] != (n,):
            raise ValueError(f"points must be an (N, {n}) array, got shape {pts.shape}")
        X = pts.reshape(-1, n).T
        XI = np.empty((system.M, X.shape[1]))  # no jet slot is read
        out = np.empty((system.K, X.shape[1]))
        for k in range(system.K):
            out[k] = ex.eval_component_batch(system, k, X, XI)
        return out

    return evaluate


def _rhs_at(rhs, pts: np.ndarray, K: int) -> np.ndarray:
    """rhs at pts (n, ...), checked to give one row per equation: (K, ...);
    the one call of a right-hand side, and the one transpose to (N, n)."""
    f = rhs(pts.reshape(len(pts), -1).T)
    if len(f) != K:
        raise ValueError(f"right-hand side gives {len(f)} rows, expected K={K}, one per equation")
    return np.reshape(f, (K,) + pts.shape[1:])


def _residual(system, coeffs: np.ndarray, centers: np.ndarray, pts: np.ndarray, f: np.ndarray,
              memo: dict | None = None) -> np.ndarray:
    """T(P) - f at pts (n, ...), f = _rhs_at(rhs, pts, K): a fresh (K, ...)
    array, pieces as in _operator_values, nan where both sides are infinite."""
    r = _operator_values(system, coeffs, centers, pts, memo).reshape(f.shape)
    with np.errstate(invalid="ignore"):  # inf - inf
        r -= f
    return r


# ---------------------------------------------------------------------------
# jet solving

def default_pivots(system: ex.PdeSystem) -> tuple:
    """One pivot slot per equation, distinct across equations: the first
    unused slot of one preference list, which holds the equation's own
    zeroth-order slot when it is referenced, then its referenced
    derivative slots, then every slot it references, in slot order.  An
    equation that references no slot gets None; one whose every slot is
    taken raises ValueError."""
    used: set = set()
    pivots = []
    for i, degrees in enumerate(system.slot_degrees, start=1):
        refs = sorted(degrees)
        own = (i, (0,) * system.n)
        prefs = [s for s in refs if s == own] + [s for s in refs if any(s[1])] + refs
        pick = next((s for s in prefs if s not in used), None)
        if refs and pick is None:
            raise ValueError(f"cannot assign a distinct pivot slot to equation {i}: "
                             "every slot it reads is the pivot of an earlier equation")
        used.add(pick)
        pivots.append(pick)
    return tuple(pivots)


def _scan_candidates() -> np.ndarray:
    ups = [2.0**k for k in range(20)] + [SCAN_LIMIT]
    return np.asarray(sorted({-t for t in ups} | {0.0} | set(ups)))


def _affine_root(g, t: np.ndarray) -> np.ndarray:
    """Closed-form root of a residual g that is affine in t.

    g() evaluates the residual at the pivot values now in t, which this
    overwrites with t = -g(0) / (g(1) - g(0)) (a -0.0 root becomes +0.0).
    Returns the mask of points where that root lies within SCAN_LIMIT and
    one more evaluation confirms |g(t)| <= SOLVE_TOL; a zero or nan slope
    or a root beyond the scan window fails it.
    """
    t[:] = 0.0
    g0 = g()
    t[:] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t[:] = -(g0 / (g() - g0)) + 0.0
    return (np.abs(t) <= SCAN_LIMIT) & (np.abs(g()) <= SOLVE_TOL)


def _bracket_root(g, t: np.ndarray) -> np.ndarray:
    """Root of g in t by bracket scan plus bisection, written into t.

    g() evaluates the residual at the pivot values now in t.  The scan
    keeps each point's first finite sign change over the ascending
    candidates and ends once every point has one.  Bisection then stops
    each point on its own, once its bracket is at most BRACKET_WIDTH wide
    or its midpoint equals an end (further halvings would leave that
    midpoint as it is), so a point's root does not depend on the rest of
    the batch.  Returns the mask of points with a bracket; the others
    end at t = 0.
    """
    # each point's bracket [lo, hi] and the sign s_lo of g at lo, which
    # bisection keeps, as lo only moves to midpoints of that sign
    lo = hi = s_lo = np.zeros(len(t))
    found = np.zeros(len(t), dtype=bool)
    prev = prev_sign = None
    for c in _scan_candidates():
        t[:] = c
        gc = g()
        sign = np.where(np.isfinite(gc), np.sign(gc), np.nan)
        if prev is not None:
            new = (prev_sign * sign <= 0) & ~found
            lo = np.where(new, prev, lo)
            hi = np.where(new, c, hi)
            s_lo = np.where(new, prev_sign, s_lo)
            found |= new
            if found.all():
                break
        prev, prev_sign = c, sign
    # a point moves right when g(mid) has the sign of g(lo); where g(lo) is
    # 0 and g(mid) is infinite, inf * 0 is nan, so it moves left
    t[:] = (lo + hi) * 0.5
    done = (t == lo) | (t == hi)
    with np.errstate(invalid="ignore"):
        for _ in range(80):
            if done.all():
                break
            right = g() * s_lo > 0.0
            lo, hi = np.where(right & ~done, t, lo), np.where(~right & ~done, t, hi)
            done |= hi - lo <= BRACKET_WIDTH
            t[:] = (lo + hi) * 0.5
            done |= (t == lo) | (t == hi)
    return found


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
    sweeps: np.ndarray  # (S,) sweeps run by a point that did not converge

    def error(self, s: int, x) -> RangeViolation:
        component = int(self.component[s])
        if self.fail[s] == _NOT_CONVERGED:
            sweeps = int(self.sweeps[s])
            return RangeViolation(component, x, reason=(
                f"jet solve did not converge: residual {self.residual[s]:g} above "
                f"{SOLVE_TOL:g} after {sweeps} pivot sweep{'s' * (sweeps != 1)}"
            ))
        return RangeViolation(component, x, reason=_FAILURE_REASON.get(int(self.fail[s])))

    def worst(self) -> int | None:
        """The point whose error the batch raises, None if all were solved:
        the first hard failure, else, when the sweeps only failed to
        converge, the worst residual."""
        if not self.fail.any():
            return None
        hard = (self.fail != 0) & (self.fail != _NOT_CONVERGED)
        return int(np.argmax(hard)) if hard.any() else int(np.argmax(self.residual))


def _solve_jets(system, centers: np.ndarray, targets: np.ndarray, anchor, pivots) -> _JetSolve:
    """Solve the pivot slots so every component meets its target at its center.

    centers: (n, S); targets: (K, S).  Every slot starts at the anchor, a
    jet vector (M,), or at 0 when anchor is None, and only the pivot slots
    (pivots, one per equation) move.  Each sweep solves the equations in
    order, each for its own pivot with the others held; a pivot that
    enters its equation affinely is solved in closed form, and only the
    points that closed form misses go on to the bracket solve, which
    every other pivot takes at every point.  A point leaves the sweeps
    once it fails (it keeps its first failure, and a target that is not
    finite fails before any scan), once every residual is within
    SOLVE_TOL, or, as _NOT_CONVERGED, once a sweep leaves all its pivots
    bit for bit as they were or SWEEPS sweeps have run.  Both root finders
    overwrite the pivot before reading it, so a sweep that moves no pivot
    would repeat itself exactly.  Every point gets the jet it would get
    alone.
    """
    X = centers
    S = X.shape[1]
    K = system.K
    if anchor is None:
        XI = np.zeros((system.M, S))
    else:
        XI = np.tile(np.asarray(anchor, dtype=float).reshape(-1, 1), (1, S))
    pivot_rows = [None if p is None else system.slot(*p) for p in pivots]
    rows = [r for r in pivot_rows if r is not None]
    affine = [p is not None and degrees.get((p[0], tuple(p[1])), 0) == 1
              for degrees, p in zip(system.slot_degrees, pivots)]
    fail = np.zeros(S, dtype=np.int8)
    comp = np.zeros(S, dtype=np.int32)
    worst = np.zeros(S)
    sweeps = np.zeros(S, dtype=np.int32)

    def mark(points, bad, code, i):
        """Fail points[bad] in component i unless they failed before."""
        new = points[bad]
        new = new[fail[new] == 0]
        fail[new] = code
        comp[new] = i + 1

    def residual(i, X, XI, target):
        """g() = residual of component i at the pivot values now in XI; the
        evaluator returns a fresh array, so the subtraction is in place."""
        def g():
            r = ex.eval_component_batch(system, i, X, XI)
            with np.errstate(invalid="ignore"):  # inf - inf where a target is not finite
                r -= target
            return r
        return g

    live = np.arange(S)
    for i in range(K):
        mark(live, ~np.isfinite(targets[i]), _NO_TARGET, i)
    for sweep in range(1, SWEEPS + 1):
        whole = len(live) == S
        Xs, XIs, Ts = (X, XI, targets) if whole else (X[:, live], XI[:, live], targets[:, live])
        before = XIs[rows]
        gs = [residual(i, Xs, XIs, Ts[i]) for i in range(K)]
        for i in range(K):
            row = pivot_rows[i]
            if row is None:
                mark(live, ~(np.abs(gs[i]()) <= SOLVE_TOL), _NO_SLOT, i)
                continue
            if not affine[i]:
                mark(live, ~_bracket_root(gs[i], XIs[row]), _NO_SIGN_CHANGE, i)
                continue
            rest = np.flatnonzero(~_affine_root(gs[i], XIs[row]))
            if len(rest):
                X_rest, XI_rest = Xs[:, rest], XIs[:, rest]
                found = _bracket_root(residual(i, X_rest, XI_rest, Ts[i, rest]), XI_rest[row])
                XIs[row, rest] = XI_rest[row]
                mark(live[rest], ~found, _NO_SIGN_CHANGE, i)
        resid = np.abs(np.stack([g() for g in gs]))
        moved = (XIs[rows].view(np.int64) != before.view(np.int64)).any(axis=0)
        if not whole:
            XI[:, live] = XIs
        for i in range(K):
            mark(live, ~np.isfinite(resid[i]), _UNDEFINED, i)
        worst[live] = resid.max(axis=0)
        unsolved = (fail[live] == 0) & (worst[live] > SOLVE_TOL)
        stalled = unsolved & ~(moved & (sweep < SWEEPS))
        fail[live[stalled]] = _NOT_CONVERGED
        comp[live[stalled]] = np.argmax(resid[:, stalled], axis=0) + 1
        sweeps[live[stalled]] = sweep
        live = live[unsolved & ~stalled]
        if not len(live):
            break
    return _JetSolve(xi=XI, fail=fail, component=comp, residual=worst, sweeps=sweeps)


# ---------------------------------------------------------------------------
# local and global construction

def _check_band(eps: float, eta: float = 0.0) -> None:
    """Raise ValueError unless [-eps - eta, eta] is a band that can be
    checked: eps positive and finite, eta finite and >= 0."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")


def _check_dims(system, p) -> None:
    """Raise ValueError unless system and the partition or box p have one dimension."""
    if system.n != p.n:
        raise ValueError(f"the system has n = {system.n} variables but the domain is {p.n}-D")


def _ball_points(x0: np.ndarray, delta: float, box: Box) -> np.ndarray:
    """Deterministic verification samples (n, P) in the closed ball of
    radius delta around the centre x0 (n, 1), clipped to the box, with the
    centre itself last: a grid of 33, 9 or 5 points per axis in 1-D, 2-D
    and 3-D, keeping in 2-D and 3-D only the grid points in the ball."""
    n = len(x0)
    per_axis = 33 if n == 1 else 9 if n == 2 else 5
    grids = np.linspace(x0[:, 0] - delta, x0[:, 0] + delta, per_axis, axis=1)  # (n, per_axis)
    mesh = np.meshgrid(*[np.arange(per_axis)] * n, indexing="ij")
    pts = grids[np.arange(n)[:, None], np.stack([g.ravel() for g in mesh])]
    if n > 1:
        pts = pts[:, np.linalg.norm(pts - x0, axis=0) <= delta * (1 + 1e-12)]
    pts = np.clip(pts, np.reshape(box.lo, (n, 1)), np.reshape(box.hi, (n, 1)))
    return np.concatenate([pts, x0], axis=1)


def _solve_pieces(system, rhs, centers: np.ndarray, eps: float, pivots) -> tuple:
    """Jets solved for f - eps/2 at centers (n, S), and their pieces (K, A, S)."""
    target = _rhs_at(rhs, centers, system.K) - 0.5 * eps
    solve = _solve_jets(system, centers, target, None, pivots)
    return solve, _taylor_coeffs(system.alphas, solve.xi)


def local_approx(system: ex.PdeSystem, rhs, x0, eps: float, *, box: Box,
                 start_delta: float | None = None, eta: float = DEFAULT_ETA,
                 pivots=None) -> tuple[float, PiecewisePoly]:
    """One polynomial valid on a ball around x0, the one piece of a
    PiecewisePoly on build_partition(box, 1) centred at x0.

    The jet at x0 is solved for the target f(x0) - eps/2, centering the
    residual in the band; the radius starts at start_delta and halves
    until the residual lies in [-eps - eta, eta] at every sample of the
    ball (_ball_points), and raises DeltaCollapse once it falls below
    DELTA_FLOOR_FACTOR times the largest box side.  x0 must be a point of
    the closed box.
    """
    _check_band(eps, eta)
    delta = float(start_delta) if start_delta is not None else box.diameter
    if not 0.0 < delta < math.inf:
        raise ValueError(f"start_delta must be positive and finite, got {start_delta!r}")
    _check_dims(system, box)
    x0 = np.asarray(x0, dtype=float).reshape(-1, 1)
    if x0.shape != (box.n, 1) or not np.all((np.reshape(box.lo, (-1, 1)) <= x0)
                                            & (x0 <= np.reshape(box.hi, (-1, 1)))):
        raise ValueError(f"x0 = {tuple(x0.ravel().tolist())} lies outside the box "
                         f"[{box.lo}, {box.hi}]")
    if pivots is None:
        pivots = default_pivots(system)
    solve, coeffs = _solve_pieces(system, rhs, x0, eps, pivots)
    if solve.fail[0]:
        raise solve.error(0, x0[:, 0])
    floor = DELTA_FLOOR_FACTOR * max(box.sides)
    while True:
        pts = _ball_points(x0, delta, box)
        r = _residual(system, coeffs, x0, pts, _rhs_at(rhs, pts, system.K))
        if np.all(np.isfinite(r) & (r <= eta) & (r >= -eps - eta)):
            return delta, PiecewisePoly(build_partition(box, 1), system.alphas, coeffs, x0)
        delta *= 0.5
        if delta < floor:
            raise DeltaCollapse(x0[:, 0], delta)


def _map_chunks(fn, starts, workers: int) -> list:
    """[fn(s) for s in starts] on up to workers threads: results and errors in chunk order."""
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, starts))
    return [fn(s) for s in starts]


def _place(system, rhs, fine: CellPartition, eps: float, workers: int = 1) -> PiecewisePoly:
    """One piece per subcell of fine, its jet solved for f - eps/2 at its centre.

    The jets are solved CHUNK centres at a time, on workers threads, into
    one coefficient array.  Every point's jet is the one it gets alone
    (_solve_jets), and the error raised is the whole batch's: the first
    hard failure, else the worst residual where the sweeps only stalled.
    """
    _check_band(eps)
    _check_dims(system, fine)
    pivots = default_pivots(system)
    centers = fine.subcell_centers()
    S = centers.shape[1]
    coeffs = np.empty((system.K, len(system.alphas), S))

    def place(s: int):
        """Solve chunk s: raise its hard failure, else give its worst stall or None."""
        at = centers[:, s: s + CHUNK]
        solve, coeffs[:, :, s: s + at.shape[1]] = _solve_pieces(system, rhs, at, eps, pivots)
        w = solve.worst()
        if w is not None and solve.fail[w] != _NOT_CONVERGED:
            raise solve.error(w, at[:, w])
        return None if w is None else (solve.residual[w], solve.error(w, at[:, w]))

    stalls = [st for st in _map_chunks(place, range(0, S, CHUNK), workers) if st is not None]
    if stalls:
        raise max(stalls, key=lambda st: st[0])[1]  # the first of equal residuals
    return PiecewisePoly(partition=fine, alphas=system.alphas, coeffs=coeffs, centers=centers)


def _vertex_residuals(system, rhs, U: PiecewisePoly, rows: slice) -> tuple:
    """The pieces of U's subcells rows, read by _residual at the V = 2^n
    vertices of their own closed subcells: points (n, V, count) and
    residuals (K, V, count), vertex v upper on axis d where bit d of v is set.

    The band is required on the open domain, so a vertex on the outer
    boundary whose residual is not finite (x1*log(x1) at x1 = 0) is moved
    INWARD of the way to its subcell's centre and evaluated there instead.
    A right-hand side that is still not finite raises RangeViolation, first
    subcell first: splitting keeps every vertex, so no plan would move it.
    """
    p = U.partition
    n, K, V = p.n, system.K, 2 ** p.n
    coeffs, centers = U.coeffs[:, :, None, rows], U.centers[:, None, rows]
    upper = ((np.arange(V) >> np.arange(n)[:, None]) & 1).astype(bool)[:, :, None]  # (n, V, 1)
    lo, hi = (b[:, None, rows] for b in p.subcell_bounds())
    pts = np.where(upper, hi, lo)
    f = _rhs_at(rhs, pts, K)
    r = _residual(system, coeffs, centers, pts, f)
    undefined = ~np.isfinite(r).all(axis=0)  # (V, count)
    if undefined.any():
        box_lo, box_hi = (np.reshape(c, (n, 1, 1)) for c in (p.bounds.lo, p.bounds.hi))
        moved = undefined & ~np.all((box_lo < pts) & (pts < box_hi), axis=0)
        if moved.any():
            pts = np.where(moved, pts + INWARD * (centers - pts), pts)
            f = _rhs_at(rhs, pts, K)
            r = _residual(system, coeffs, centers, pts, f)
        pole = ~np.isfinite(f)
        if pole.any():
            j, k, v = np.unravel_index(np.argmax(pole.transpose(2, 0, 1)), (pts.shape[2], K, V))
            raise RangeViolation(k + 1, pts[:, v, j], reason=_FAILURE_REASON[_NO_TARGET])
    return pts, r


def _vertex_excess(system, rhs, U: PiecewisePoly, eps: float, eta: float,
                   workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per subcell of U, the largest |r + eps/2| over its vertex residuals
    r (_vertex_residuals) when one lies outside [-eps - eta, eta]: 0 where
    none does, inf where one is not finite.  Beside it, per cell and axis,
    (n_cells, n), the largest drift of any of the cell's subcells: half the
    largest |r(v) - r(v')| over the vertex pairs one step apart along that
    axis and over all components, nan where a residual is not finite.  One
    pass over the partition, CHUNK vertices at a time, on up to workers
    threads; each chunk reduces its drifts to the cells it touches, so no
    per-subcell drift array is built."""
    p = U.partition
    n, S, offsets = p.n, p.total_subcells, p._offsets
    dev = np.empty(S)
    step = max(1, CHUNK // 2 ** n)

    def excess(s: int) -> tuple[int, np.ndarray]:
        _, r = _vertex_residuals(system, rhs, U, slice(s, s + step))
        count = r.shape[2]
        drift, gap = np.zeros((n, count)), np.empty(count)
        with np.errstate(invalid="ignore"):  # inf - inf
            for d, v in itertools.product(range(n), range(2 ** n)):
                if not v >> d & 1:  # v and v + 2^d are one step apart along d
                    for rk in r:
                        np.subtract(rk[v | 1 << d], rk[v], out=gap)
                        np.maximum(drift[d], np.abs(gap, out=gap), out=drift[d])
        first = int(np.searchsorted(offsets, s, side="right")) - 1
        last = int(np.searchsorted(offsets, s + count, side="left"))
        starts = np.maximum(offsets[first:last], s) - s
        r = r.reshape(-1, count)
        rmin, rmax = r.min(axis=0), r.max(axis=0)  # nan where any residual is
        d = dev[s: s + step]
        np.maximum(rmax + 0.5 * eps, -0.5 * eps - rmin, out=d)
        d[~np.isfinite(d)] = np.inf
        d[(rmax <= eta) & (rmin >= -eps - eta)] = 0.0
        return first, 0.5 * np.maximum.reduceat(drift, starts, axis=1).T

    drift = np.zeros((p.n_cells, n))
    for first, cells in _map_chunks(excess, range(0, S, step), workers):
        part = drift[first: first + len(cells)]
        np.maximum(part, cells, out=part)  # nan stays nan
    return dev, drift


def _face_excess(system, rhs, U: PiecewisePoly, subcells: np.ndarray, eps: float) -> np.ndarray:
    """Per axis d of the given subcells of U, (len(subcells), n): the
    larger |r + eps/2| at the centres of the subcell's two faces across d,
    over all components of _residual, nan where one there is not finite.

    A piece solved for f - eps/2 at its centre deviates there by
    |odd_d| + |even_d|, the odd and even parts of its residual along the
    line through the centre.  The vertex drifts see only odd parts: a
    residual even along d gives equal values at the vertices one step
    apart along d.
    """
    p = U.partition
    n, m = p.n, len(subcells)
    lo, hi = (b[:, subcells] for b in p.subcell_bounds())
    centers = U.centers[:, subcells]
    pts = np.repeat(centers[:, None, :], 2 * n, axis=1)  # (n, 2n, m): axis j // 2, upper if j odd
    for d in range(n):
        pts[d, 2 * d], pts[d, 2 * d + 1] = lo[d], hi[d]
    r = _residual(system, U.coeffs[:, :, None, subcells], centers[:, None], pts,
                  _rhs_at(rhs, pts, system.K))
    dev = np.abs(r + 0.5 * eps).max(axis=0)  # (2n, m), nan where any residual is
    return dev.reshape(n, 2, m).max(axis=1).T


def plan_partition(system: ex.PdeSystem, rhs, p: CellPartition, eps: float, *,
                   eta: float = DEFAULT_ETA, workers: int = 1) -> PiecewisePoly:
    """Split p's cells until every piece keeps the band at its subcell's
    vertices; returns the pieces placed on the final partition.

    Each round places a piece in every subcell (_place) and evaluates it
    at the 2^n vertices of its own closed subcell (_vertex_excess).  A
    cell with a vertex residual outside [-eps - eta, eta] moves, with
    rho = dev / (eps/2) > 1, dev the largest |r + eps/2| over those
    vertices (inf where a residual is not finite).  It grows only along
    the axes its residual drifts along.  With drift_d the cell's largest
    drift along axis d (_vertex_excess) and share_d = drift_d / sum(drift),
    each of the n_a axes with share_d > DRIFT_SHARE_MIN whose factor
    g_d = (rho * share_d * n_a)^(1/alpha) is above 1 takes split count
    max(k_d + 1, ceil(k_d * min(g_d, SPLIT_GROWTH_CAP))); every other axis
    keeps its count.  For a linear drift, dev is about sum_d drift_d, and
    an equal share of eps/2 per drifting axis keeps it in the band on the
    fewest subcells (the Lagrange optimum of prod k_d).  The axis of
    largest share grows by at least one split even where its g_d is not
    above 1, so every moving cell gains subcells.  The vertices one step
    apart along d see a residual even along d alike, so a cell whose
    drifts sum to less than DRIFT_EXPLAINS_MIN of its excess dev - eps/2
    first raises each drift_d to the excess at the centres of its worst
    subcell's two faces across d (_face_excess), 2n more residuals for
    that cell alone.  A cell whose drifts are then not all finite, or sum
    to 0, grows every axis by rho^(1/alpha).
    alpha is the cell's drift order, dev ~ side^alpha.
    A degree-m piece solved at its subcell's centre drifts linearly in
    the side wherever the operator and rhs are smooth, so alpha is 1,
    whatever n is.  Near a singular rhs the drift is slower (sqrt(x1)
    drifts like side^(1/2) at x1 = 0), and growth at alpha = 1 would
    creep by one split a round; so a cell that also moved in the round
    before, by less than the cap, measures alpha = ln(rho_prev / rho) /
    ln(k / k_prev), the logarithm averaged over the axes that grew, clipped
    to [DRIFT_ORDER_MIN, DRIFT_ORDER_MAX].  A capped move measures nothing:
    the cap, not the drift, set it.  The rounds end when no cell moves.  A
    degree-m piece drifts most at its subcell's faces, where the vertices
    sit; the sampled certificate stays the band's only proof.  The plan
    draws no sample and reads no seed, and ``workers`` threads run the
    chunks of each placement and vertex pass without changing any piece
    or split.

    Range violations come from placement, round 0 at the cell centres.
    Before a partition is built, its split counts are checked against the
    floor, DELTA_FLOOR_FACTOR times the largest box side: the first cell
    whose subcells would be narrower raises DeltaCollapse.  So does a
    plan of more than MAX_SUBCELLS subcells in all, at the cell that would
    hold the most.
    """
    _check_band(eps, eta)
    _check_dims(system, p)
    floor = DELTA_FLOOR_FACTOR * max(p.bounds.sides)
    sides = np.stack([np.diff(e)[i] for e, i in zip(p.cell_edges, p._cell_indices())],
                     axis=1)  # (n_cells, n)
    prev = None  # the last round's split counts and rho, 0 where a cell did not move
    while True:
        U = _place(system, rhs, p, eps, workers)
        dev, drift = _vertex_excess(system, rhs, U, eps, eta, workers)
        offsets = p._offsets
        cell_dev = np.maximum.reduceat(dev, offsets[:-1])
        moves = cell_dev > 0.0
        if not moves.any():
            return U
        k = p.splits
        # drifts that explain too little of the excess over eps/2 miss an
        # even part: each axis takes at least its face-centre excess
        unexplained = moves & (drift.sum(axis=1) < DRIFT_EXPLAINS_MIN * (cell_dev - 0.5 * eps))
        if unexplained.any():
            cells = np.flatnonzero(unexplained)
            worst = [offsets[c] + int(np.argmax(dev[offsets[c]: offsets[c + 1]])) for c in cells]
            face = _face_excess(system, rhs, U, np.array(worst), eps)
            drift[cells] = np.maximum(drift[cells], face)  # nan stays nan
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rho = cell_dev / (0.5 * eps)
            alpha = np.full(len(rho), DRIFT_ORDER_MAX)
            if prev is not None:
                k_prev, rho_prev = prev
                measured = moves & (rho_prev > 0.0) & np.all(k < SPLIT_GROWTH_CAP * k_prev, axis=1)
                # ln(k / k_prev) averaged over the axes that grew
                grew = (k > k_prev).sum(axis=1)
                order = np.log(rho_prev / rho) * grew / np.log(k / k_prev).sum(axis=1)
                alpha[measured] = np.clip(order[measured], DRIFT_ORDER_MIN, DRIFT_ORDER_MAX)
            total = drift.sum(axis=1, keepdims=True)
            share = drift / total
            every = ~(np.isfinite(total) & (total > 0.0))  # grows on every axis
            drifting = every | (share > DRIFT_SHARE_MIN)
            aim = np.where(every, 1.0, share * drifting.sum(axis=1, keepdims=True))
            grow = np.minimum((rho[:, None] * aim) ** (1.0 / alpha[:, None]), SPLIT_GROWTH_CAP)
            lead = np.arange(p.n) == np.argmax(share, axis=1)[:, None]
            grows = moves[:, None] & (lead | drifting & (grow > 1.0))
        splits = np.where(grows, np.maximum(k + 1, np.ceil(k * grow)), k).astype(np.int64)
        width = (sides / splits).min(axis=1)
        low = moves & (width < floor)
        # in floats: split counts near the floor can overflow an int64 product
        counts = splits.prod(axis=1, dtype=float)
        if low.any() or counts.sum() > MAX_SUBCELLS:
            over = not low.any()
            c = int(np.argmax(counts if over else low))
            s = offsets[c] + int(np.argmax(dev[offsets[c]: offsets[c + 1]]))
            pts, r = _vertex_residuals(system, rhs, U, slice(s, s + 1))
            d = np.abs(r + 0.5 * eps)
            j, v = np.unravel_index(np.argmax(np.where(np.isnan(d), np.inf, d)), r.shape[:2])
            raise DeltaCollapse(pts[:, v, 0], float(width[c]), cell=c, residual=float(r[j, v, 0]),
                                floor=floor, planned=int(counts.sum()) if over else None)
        prev = k, np.where(moves, rho, 0.0)
        p = CellPartition(p.bounds, p.cell_edges, splits)


def place_and_certify(system: ex.PdeSystem, rhs, fine: CellPartition, eps: float, *,
                      eta: float = DEFAULT_ETA, samples_per_cell: int | None = None,
                      margin: float = DEFAULT_MARGIN, seed: int = 0,
                      workers: int = 1) -> tuple[PiecewisePoly, "ResidualCertificate"]:
    """Place one piece per subcell of a fixed partition and certify the band.

    The jet at every subcell center is solved for f - eps/2 there.  The
    certificate checks the band on SampleSet(fine, samples_per_cell,
    margin, seed), at least ocm.domain.TARGET_SAMPLES points unless
    samples_per_cell is given, each checked to lie strictly inside the
    subcell of fine it was drawn in (which proves it misses the skeleton
    and picks its piece).  ``workers`` threads run the placement's chunks,
    then stream the set: each draws, checks, evaluates and folds whole
    chunks, and no array of all samples or residuals is built.  This is
    check_residual on one approximant; refine_solution certifies all
    its steps on the same set in one call.  Placement ends before the set
    is drawn, so a placement error comes before any sample-set error.
    """
    U = _place(system, rhs, fine, eps, workers)
    samples = SampleSet(fine, samples_per_cell, margin, seed)
    return U, check_residual(system, [U], rhs, [eps], samples, eta=eta, workers=workers)[0]


def global_approx(system: ex.PdeSystem, rhs, p: CellPartition, eps: float, *,
                  eta: float = DEFAULT_ETA, samples_per_cell: int | None = None,
                  margin: float = DEFAULT_MARGIN, seed: int = 0,
                  workers: int = 1) -> tuple[PiecewisePoly, "ResidualCertificate"]:
    """Assemble a certified one-sided approximant over the whole partition:
    plan_partition splits the cells and places the pieces, which are then
    certified as place_and_certify certifies them, on SampleSet(partition,
    samples_per_cell, margin, seed).  ``workers`` threads run the chunks
    of planning and of the certificate alike.
    """
    U = plan_partition(system, rhs, p, eps, eta=eta, workers=workers)
    samples = SampleSet(U.partition, samples_per_cell, margin, seed)
    return U, check_residual(system, [U], rhs, [eps], samples, eta=eta, workers=workers)[0]


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components)

    @property
    def min_residual(self) -> float:
        return min((c.min_residual for c in self.components), default=math.nan)

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.components), default=math.nan)


def _fold(r: np.ndarray, pts: np.ndarray, first: int, eps: float, eta: float) -> tuple:
    """One component's residuals r (per_cell, count) at the points pts (n,
    per_cell, count) of a chunk of subcells first, ..., first + count - 1:
    r[k, s] is sample (first + s) * per_cell + k of the set.  Returns min
    and max of the finite residuals (inf and -inf when there are none),
    the count of the others, and up to 5 offenders (excess, sample index,
    point, residual) ordered by excess descending, then index; a
    residual outside the band, or not finite (excess inf), is an
    offender."""
    finite = np.isfinite(r)
    vals = r if finite.all() else r[finite]  # no copy unless a residual is undefined
    rmin, rmax = (float(np.min(vals)), float(np.max(vals))) if vals.size else (math.inf, -math.inf)
    worst = []
    if vals.size < r.size or rmin < -eps - eta or rmax > eta:
        k, s = np.nonzero(~finite | (r > eta) | (r < -eps - eta))
        index = (first + s) * len(r) + k
        rb = r[k, s]
        excess = np.where(finite[k, s], np.maximum(rb - eta, (-eps - eta) - rb), np.inf)
        for w in np.lexsort((index, -excess))[:5]:
            worst.append((float(excess[w]), int(index[w]), tuple(map(float, pts[:, k[w], s[w]])),
                          float(rb[w])))
    return rmin, rmax, r.size - vals.size, worst


def check_residual(system: ex.PdeSystem, Us, rhs, epss, samples, *, eta: float = DEFAULT_ETA,
                   workers: int = 1) -> list[ResidualCertificate]:
    """Band check of approximants Us on one partition, each against its
    own eps in epss, in one pass over samples, the SampleSet on that
    partition (anything else raises TypeError); one certificate each.

    The set is read in chunks of about CHUNK samples, (n, per_cell,
    count) subcell axis last, each drawn once with its right-hand side
    evaluated once, and every piece is broadcast over its own subcell's
    samples; approximants with equal centres share the chunk's monomials
    (x - c)^gamma.  ``workers`` threads fold each approximant's residuals
    into per-component extremes, undefined counts and top offenders,
    merged in chunk order, so the certificates do not depend on workers.
    Every eps must be positive and finite and eta finite and >= 0; a nan
    or infinite band edge would pass any residual.
    """
    if not isinstance(samples, SampleSet):
        raise TypeError("samples must be the drawn sample set (SampleSet), "
                        f"got {type(samples).__name__}")
    Us, epss = list(Us), list(epss)
    if not Us or len(Us) != len(epss):
        raise ValueError(f"need one eps per approximant, got {len(Us)} approximants "
                         f"and {len(epss)} eps values")
    for eps in epss:
        _check_band(eps, eta)
    p, per_cell, total = samples.partition, samples.per_cell, len(samples)
    if any(tuple(U.alphas) != system.alphas or U.K != system.K for U in Us):
        raise ValueError("approximant jet layout does not match the system")
    if any(U.partition is not p for U in Us):
        raise ValueError("approximants and samples must share one partition")
    step = max(1, CHUNK // per_cell)
    # each approximant shares the monomial memo of the first with equal centres
    share = [next((j for j in range(k) if np.array_equal(Us[j].centers, U.centers)), k)
             for k, U in enumerate(Us)]

    def fold(s: int) -> list[list[tuple]]:
        at = samples.chunk(s, step)
        rows = slice(s, s + at.shape[2])
        f = _rhs_at(rhs, at, system.K)
        memos = [{} for _ in Us]
        out = []
        for U, eps, j in zip(Us, epss, share):
            r = _residual(system, U.coeffs[:, :, None, rows], U.centers[:, None, rows], at, f,
                          memos[j])
            out.append([_fold(r[i], at, s, eps, eta) for i in range(system.K)])
        return out

    parts = _map_chunks(fold, range(0, p.total_subcells, step), workers)

    certs = []
    for k, eps in enumerate(epss):
        stats = []
        for i in range(system.K):
            rmin, rmax, undefined, worst = math.inf, -math.inf, 0, []
            for part in parts:
                lo, hi, bad, offenders = part[k][i]
                rmin, rmax = min(rmin, lo), max(rmax, hi)
                undefined += bad
                worst += offenders
            if undefined == total:  # no finite residual
                rmin = rmax = math.nan
            ok = undefined == 0 and not (rmin < -eps - eta or rmax > eta)
            worst.sort(key=lambda o: (-o[0], o[1]))
            stats.append(ComponentStats(i + 1, total, rmin, rmax, ok,
                                        [(pt, r) for _, _, pt, r in worst[:5]]))
        certs.append(ResidualCertificate(eps, eta, stats))
    return certs


def certificate_csv_rows(cert: ResidualCertificate) -> list[str]:
    rows = ["component,samples,min_residual,max_residual,eps,eta,pass"]
    for c in cert.components:
        rows.append(
            f"{c.component},{c.samples},{repr(c.min_residual)},{repr(c.max_residual)},"
            f"{repr(cert.eps)},{repr(cert.eta)},{'true' if c.passed else 'false'}"
        )
    return rows
