"""Jet construction, local/global band assembly, and certification tests."""

import copy
import itertools
import math
import sys

import numpy as np
import pytest

import ocm.approx
from ocm.approx import (
    DeltaCollapse,
    PiecewisePoly,
    RangeViolation,
    check_residual,
    default_pivots,
    global_approx,
    local_approx,
    place_and_certify,
    plan_partition,
    rhs_from_exprs,
)
from ocm.approx import _solve_jets, _taylor_coeffs
from ocm.domain import (MAX_SUBCELLS, Box, CellPartition, SampleSet, build_partition, sample_points,
                        subdivide)
from ocm.expr import eval_component_batch, multi_indices, parse_system

UNIT = Box((0.0,), (1.0,))


def bisect_oracle(g, lo, hi, tol=1e-12):
    """Plain interval bisection, written independently of the solver."""
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if (gm < 0) == (glo < 0) and gm != 0:
            lo, glo = mid, gm
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Taylor pieces: a single-centre polynomial is the one piece of a
# PiecewisePoly on one cell, read through PiecewisePoly.jets on a box that
# strictly contains the test points

WIDE = Box((-1.0,), (2.0,))


def _taylor(x0, xi, box, m=1):
    """The single-centre polynomial on one cell of box whose u1 has the
    derivatives xi at x0, listed in multi_indices(n, m) order."""
    alphas = multi_indices(len(x0), m)
    coeffs = _taylor_coeffs(alphas, np.reshape(xi, (-1, 1)))
    return PiecewisePoly(build_partition(box, 1), alphas, coeffs, np.reshape(x0, (-1, 1)))


def _values(U, pts, beta=None):
    """D^beta u1 (u1 itself by default) of U at pts."""
    b = 0 if beta is None else U.alphas.index(tuple(beta))
    return U.jets(np.asarray(pts, dtype=float))[:, 0, b]


def test_taylor_line_by_hand():
    piece = _taylor((0.5,), [0.0, 0.45], WIDE)
    # P(x) = 0.45 (x - 0.5)
    xs = np.asarray([[0.0], [0.5], [1.0]])
    np.testing.assert_allclose(_values(piece, xs), [-0.225, 0.0, 0.225], atol=1e-15)


def test_taylor_zero_jet_is_zero_polynomial():
    piece = _taylor((0.3,), [0.0, 0.0], WIDE)
    xs = np.linspace(0, 1, 7).reshape(-1, 1)
    np.testing.assert_array_equal(_values(piece, xs), np.zeros(7))


def test_taylor_2d_pure_second_order():
    # xi_{(2,0)} = 2, everything else 0, x0 = origin: P(x) = x1^2
    xi = [0.0, 0.0, 0.0, 0.0, 0.0, 2.0]  # (0,0), (0,1), (0,2), (1,0), (1,1), (2,0)
    piece = _taylor((0.0, 0.0), xi, Box((-4.0, -4.0), (4.0, 4.0)), m=2)
    pts = np.asarray([[0.5, 0.7], [1.0, -1.0], [0.0, 3.0]])
    np.testing.assert_allclose(_values(piece, pts), pts[:, 0] ** 2, atol=1e-14)
    # finite-difference check of the (2,0) coefficient: f(h,0)-2f(0,0)+f(-h,0) over h^2
    h = 1e-3
    fd = (_values(piece, [[h, 0.0]])[0] - 2 * _values(piece, [[0.0, 0.0]])[0]
          + _values(piece, [[-h, 0.0]])[0]) / h**2
    assert abs(fd - 2.0) <= 1e-6


def test_taylor_poly_one_piece_per_subcell():
    # two cells, each with its own line through its own centre
    p = build_partition(UNIT, 2)
    U = PiecewisePoly(p, ((0,), (1,)), np.asarray([[[1.0, -1.0], [2.0, 0.5]]]),
                      np.asarray([[0.25, 0.75]]))
    np.testing.assert_allclose(_values(U, [[0.1], [0.9]]), [1.0 - 0.3, -1.0 + 0.075], atol=1e-15)
    np.testing.assert_allclose(_values(U, [[0.1], [0.9]], beta=(1,)), [2.0, 0.5], atol=1e-15)


def test_a_piecewise_poly_must_match_its_partition():
    # one slope-1 piece on a 2-subcell partition used to certify D(u1,(1)) = 1
    # (check_residual broadcast it over both subcells' samples) while jets
    # raised a bare IndexError at x = 0.9
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    p = build_partition(UNIT, 2)
    piece, centre = np.asarray([[[0.0], [1.0]]]), np.asarray([[0.5]])
    need = r"need \(K, 2, 2\) and \(1, 2\)"
    with pytest.raises(ValueError, match=r"coeffs \(1, 2, 1\) and centers \(1, 1\) do not "
                                         r"match the partition: " + need):
        PiecewisePoly(p, sys_.alphas, piece, centre)
    for coeffs, centers in [(np.tile(piece, 2), centre),  # centres alone
                            (piece, np.asarray([[0.25, 0.75]])),  # pieces alone
                            (np.tile(piece, 2)[:, :1], np.asarray([[0.25, 0.75]])),  # one alpha
                            (np.tile(piece, 2)[0], np.asarray([[0.25, 0.75]])),  # no K axis
                            (np.tile(piece, 2), np.asarray([0.25, 0.75]))]:  # no n axis
        with pytest.raises(ValueError, match=need):
            PiecewisePoly(p, sys_.alphas, coeffs, centers)
    U = PiecewisePoly(p, sys_.alphas, np.tile(piece, 2), np.asarray([[0.25, 0.75]]))
    (cert,) = check_residual(sys_, [U], rhs_from_exprs(["1"], 1), [0.1], SampleSet(p, 3, 0.05, 0))
    assert cert.passed
    np.testing.assert_array_equal(U.jets([[0.9]]), [[[0.9 - 0.75, 1.0]]])


def _fd_derivative(fn, x0, order, h):
    if order == 0:
        return fn(x0)
    if order == 1:
        return (fn(x0 + h) - fn(x0 - h)) / (2 * h)
    if order == 2:
        return (fn(x0 + h) - 2 * fn(x0) + fn(x0 - h)) / h**2
    if order == 3:
        return (fn(x0 + 2 * h) - 2 * fn(x0 + h) + 2 * fn(x0 - h) - fn(x0 - 2 * h)) / (2 * h**3)
    raise ValueError(order)


def test_jet_identity_finite_differences_1d():
    rng = np.random.default_rng(5)
    hs = {0: 1e-3, 1: 1e-4, 2: 1e-3, 3: 1e-2}
    for _ in range(25):
        xi = [float(rng.uniform(-3, 3)) for _ in range(4)]
        x0 = float(rng.uniform(-1, 1))
        piece = _taylor((x0,), xi, Box((-2.0,), (2.0,)), m=3)

        def fn(t):
            return _values(piece, [[t]])[0]

        for k in range(4):
            fd = _fd_derivative(fn, x0, k, hs[k])
            assert abs(fd - xi[k]) <= 1e-6 * (1 + abs(xi[k]))


def test_jet_identity_exact_at_center():
    rng = np.random.default_rng(6)
    alphas = multi_indices(2, 2)
    xi = [float(rng.uniform(-2, 2)) for _ in alphas]
    piece = _taylor((0.3, -0.2), xi, Box((-1.0, -1.0), (1.0, 1.0)), m=2)
    for a, want in zip(alphas, xi):
        got = _values(piece, [[0.3, -0.2]], beta=a)[0]
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# jet solving

def _solve_one(system, x0, target, anchor=None, pivots=None):
    """The jet vector (M,) that _solve_jets solves at the one point x0, or
    the RangeViolation it gives that point, raised."""
    pivots = default_pivots(system) if pivots is None else pivots
    solve = _solve_jets(system, np.reshape(x0, (-1, 1)), np.reshape(target, (-1, 1)), anchor,
                        pivots)
    if solve.fail[0]:
        raise solve.error(0, x0)
    return solve.xi[:, 0]


def test_solve_jet_linear_slot():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    xi = _solve_one(sys_, (0.0,), (0.45,))
    assert xi[sys_.slot(1, (1,))] == pytest.approx(0.45, abs=1e-10)
    assert xi[sys_.slot(1, (0,))] == 0.0


def test_solve_jet_against_bisection_oracle():
    # F = xi1^2 + xi0, target 3, pivot is the zeroth slot, anchor 0
    sys_ = parse_system("D(u1,(1))^2 + u1", 1, 1, 1)
    assert default_pivots(sys_) == ((1, (0,)),)
    xi = _solve_one(sys_, (0.0,), (3.0,))
    expected = bisect_oracle(lambda t: t - 3.0, -8.0, 8.0)
    assert xi[sys_.slot(1, (0,))] == pytest.approx(expected, abs=1e-10)
    assert xi[sys_.slot(1, (1,))] == 0.0


def test_solve_jet_nonlinear_pivot():
    # F = exp(xi0), target 2: root log(2) via the oracle
    sys_ = parse_system("exp(u1)", 1, 1, 0)
    (u,) = _solve_one(sys_, (0.0,), (2.0,))
    expected = bisect_oracle(lambda t: math.exp(t) - 2.0, 0.0, 2.0)
    assert u == pytest.approx(expected, abs=1e-9)
    assert u == pytest.approx(math.log(2.0), abs=1e-9)


def test_solve_jet_range_violation_sine():
    sys_ = parse_system("sin(u1)", 1, 1, 0)
    with pytest.raises(RangeViolation) as exc:
        _solve_one(sys_, (0.0,), (2.0,))
    assert exc.value.component == 1


def test_default_pivot_prefers_zeroth_then_first_derivative():
    assert default_pivots(parse_system("D(u1,(1))^2 + u1", 1, 1, 1)) == ((1, (0,)),)
    assert default_pivots(parse_system("D(u1,(1))", 1, 1, 1)) == ((1, (1,)),)
    two = parse_system("D(u1,(1))\nu2 + D(u1,(1))", 1, 2, 1)
    assert default_pivots(two) == ((1, (1,)), (2, (0,)))


def test_default_pivot_takes_any_referenced_slot_and_keeps_pivots_distinct():
    # equation 1 references neither its own slot nor a derivative slot
    assert default_pivots(parse_system("u2\nu1", 1, 2, 0)) == ((2, (0,)), (1, (0,)))
    with pytest.raises(ValueError, match="cannot assign a distinct pivot slot to equation 2"):
        default_pivots(parse_system("u2\nu2", 1, 2, 0))


def test_solve_jet_coupled_system_meets_both_targets():
    sys_ = parse_system("D(u1,(1))\nu2 + D(u1,(1))", 1, 2, 1)
    xi = _solve_one(sys_, (0.25,), (0.2, 1.2)).reshape(-1, 1)
    got = [eval_component_batch(sys_, i, np.asarray([[0.25]]), xi)[0] for i in range(2)]
    assert got[0] == pytest.approx(0.2, abs=1e-10)
    assert got[1] == pytest.approx(1.2, abs=1e-10)


@pytest.mark.parametrize("eqs,K,target,component", [
    ("exp(u1)", 1, (2.0,), 1),
    # the first equation has no jet slot and holds exactly, so only the
    # second can carry the leftover residual
    ("x1\nexp(u2)", 2, (0.25, 2.0), 2),
])
def test_solve_jet_non_convergence_names_the_worst_component(monkeypatch, eqs, K, target, component):
    monkeypatch.setattr("ocm.approx.SOLVE_TOL", 0.0)
    sys_ = parse_system(eqs, 1, K, 0)
    with pytest.raises(RangeViolation) as exc:
        _solve_one(sys_, (0.25,), target)
    assert exc.value.component == component
    assert exc.value.x == (0.25,)
    assert "did not converge" in str(exc.value)
    assert "sign change" not in str(exc.value)


@pytest.mark.parametrize("eqs,K,target,component,reason", [
    # x1 = 2 holds nowhere and no jet slot can change that
    ("x1", 1, (2.0,), 1, "equation has no jet slots to adjust"),
    # solving u2 = -1 after u1 leaves sqrt(u2) in equation 1 undefined
    ("u1 + sqrt(u2)\nu2", 2, (1.0, -1.0), 1, "operator undefined at solved jet"),
    # a non-finite target fails before its bracket scan
    ("u1\nu2", 2, (1.0, np.inf), 2, "right-hand side not finite"),
])
def test_solve_jet_failure_reasons(eqs, K, target, component, reason):
    sys_ = parse_system(eqs, 1, K, 0)
    with pytest.raises(RangeViolation) as exc:
        _solve_one(sys_, (0.25,), target)
    assert exc.value.component == component
    assert str(exc.value) == f"component {component} at x=(0.25,): {reason}"


def test_rhs_rejects_points_of_the_wrong_dimension():
    one, two = rhs_from_exprs(["x1"], 1), rhs_from_exprs(["x1 + x2"], 2)
    # a single point may be given as its n coordinates
    np.testing.assert_array_equal(one([0.1]), [[0.1]])
    np.testing.assert_array_equal(two([0.1, 0.2]), [[0.1 + 0.2]])
    np.testing.assert_array_equal(one([[0.1], [0.2], [0.3]]), [[0.1, 0.2, 0.3]])
    for f, n, pts in [(one, 1, [0.1, 0.2, 0.3]), (two, 2, [[0.1, 0.2, 0.3]]), (two, 2, [[0.1]]),
                      (two, 2, [0.1]), (two, 2, np.zeros((1, 1, 2)))]:
        with pytest.raises(ValueError, match=rf"points must be an \(N, {n}\) array"):
            f(pts)


def _solve_batch_and_alone(sys_, x, targets):
    """_solve_jets on the whole batch, centres x (n, S) and targets (K, S),
    and on each point alone."""
    pivots = default_pivots(sys_)
    batch = _solve_jets(sys_, x, targets, None, pivots)
    alone = [_solve_jets(sys_, x[:, k:k + 1], targets[:, k:k + 1], None, pivots)
             for k in range(x.shape[1])]
    return batch, alone


def test_batch_solve_matches_each_point_alone():
    # The scan keeps each point's first sign change in ascending order, and
    # bisection stops each point on its own, so how long either runs for
    # the rest of the batch must not matter.  The two roots below 2 stop
    # on BRACKET_WIDTH long before the roots at |t| >= 4, which stop only
    # once their brackets are one ulp wide.  The pivot sits under sqrt, so
    # every point takes the bracket solve.
    hole = parse_system("u1 + sqrt((u1 - x1)*(u1 - x1 - 0.5))", 1, 1, 0)

    def F(a, t):  # F is undefined for a < t < a + 0.5
        return float(eval_component_batch(hole, 0, np.asarray([[a]]), np.asarray([[t]]))[0])

    cases = [  # (x1, target)
        (0.25, 3000.0),  # bracket [1024, 2048]
        (-5000.0, -4000.0),  # bracket [-8192, -4096]
        (10.0, 0.25e6),  # bracket [2^16, 2^17]
        (0.25, 1.5e6),  # bracket [2^19, 1e6]; float spacing leaves |g| > SOLVE_TOL
        (3.9, F(3.9, 8.0)),  # root on candidate 8 after an undefined 4: g(lo) == 0
        (0.25, F(0.25, 16.0)),  # root on candidate 16, reached from below: g(hi) == 0
        (4.1, 5.0),  # bracket [4, 8]; bisection runs into the undefined (4.1, 4.6)
        (0.25, -7e5),  # no sign change
        (0.25, np.inf),
        (0.25, np.nan),
        (-2.0, 1.0),  # bracket [-1, 0], root near -0.3
        (0.25, F(0.25, 1.5)),  # bracket [1, 2]
    ]
    x = np.asarray([[a for a, _ in cases]])
    targets = np.asarray([[c for _, c in cases]])
    batch, alone = _solve_batch_and_alone(hole, x, targets)
    for k, one in enumerate(alone):
        assert one.xi.tobytes() == batch.xi[:, k:k + 1].tobytes(), cases[k]
        assert (one.fail[0], one.component[0]) == (batch.fail[k], batch.component[k]), cases[k]
    assert batch.xi[0, 4] == 8.0 and batch.xi[0, 5] == 16.0
    # solved, did not converge, no sign change, target not finite
    assert list(batch.fail) == [0, 0, 0, 4, 0, 0, 4, 1, 5, 5, 0, 0]
    assert -1.0 < batch.xi[0, 10] < 0.0 and batch.xi[0, 11] == pytest.approx(1.5, abs=1e-12)

    # coupled K=2: equation 1 needs u2 from equation 2, so every point takes
    # two sweeps; exp(u2) = -1 has no sign change
    coupled = parse_system("u1 + sqrt(u2)\nexp(u2)", 1, 2, 0)
    x = np.asarray([[0.0, 0.5, 1.0, 0.75]])
    targets = np.asarray([[10.0, -300.0, 7.0, 6.0],
                          [math.exp(5.0), math.exp(100.0), -1.0, np.inf]])
    batch, alone = _solve_batch_and_alone(coupled, x, targets)
    for k, one in enumerate(alone):
        assert one.xi.tobytes() == batch.xi[:, k:k + 1].tobytes(), k
        assert (one.fail[0], one.component[0]) == (batch.fail[k], batch.component[k]), k
    assert list(batch.fail) == [0, 0, 1, 5]
    assert list(batch.component) == [0, 0, 2, 2]


def test_bisection_stops_each_point_on_its_own():
    # alone, the root near 0.278 stops once its bracket is BRACKET_WIDTH
    # wide; next to a root at 100, whose bracket never gets that narrow,
    # it used to keep halving and end one ulp lower
    cube = parse_system("u1^3 + u1", 1, 1, 0)
    x = np.asarray([[0.25, 0.25]])
    targets = np.asarray([[0.3, 100.0**3 + 100.0]])
    batch, alone = _solve_batch_and_alone(cube, x, targets)
    assert batch.xi[0, 0] == alone[0].xi[0, 0] == 0.27841799032181
    assert batch.xi[0, 1] == alone[1].xi[0, 0] == 100.0
    assert list(batch.fail) == [0, 0]


def test_converged_points_leave_the_sweeps():
    # the first point converges in one sweep (1e-12 * u2 stays below
    # SOLVE_TOL); the second needs another, which must not re-solve the first
    coupled = parse_system("u1 + 1e-12*u2\nu2^3 + u2", 1, 2, 0)
    x = np.asarray([[0.25, 0.25]])
    targets = np.asarray([[1.0, 1.0], [0.3, 1000.0**3 + 1000.0]])
    batch, alone = _solve_batch_and_alone(coupled, x, targets)
    for k, one in enumerate(alone):
        assert one.xi.tobytes() == batch.xi[:, k:k + 1].tobytes(), k
    assert batch.xi[0, 0] == 1.0 and batch.xi[0, 1] == 1.0 - 1e-9
    assert list(batch.fail) == [0, 0]

    # in the second sweep u2 = 1 leaves equation 1 no slope in u1, so the
    # closed form fails there and the bracket scan finds no sign change;
    # the failure belongs to the second point, the only one still sweeping
    coupled = parse_system("u1*(1 - u2)\nu2^3 + u2", 1, 2, 0)
    targets = np.asarray([[1.0, 1.0], [0.0, 2.0]])
    batch, alone = _solve_batch_and_alone(coupled, x, targets)
    for k, one in enumerate(alone):
        assert one.xi.tobytes() == batch.xi[:, k:k + 1].tobytes(), k
        assert (one.fail[0], one.component[0]) == (batch.fail[k], batch.component[k]), k
    assert list(batch.fail) == [0, 1]
    assert list(batch.component) == [0, 1]


def _spy(monkeypatch, name):
    """The batch sizes of every call to the root finder ocm.approx.<name>."""
    calls = []
    real = getattr(ocm.approx, name)
    monkeypatch.setattr(ocm.approx, name, lambda g, t: calls.append(len(t)) or real(g, t))
    return calls


def test_a_sweep_that_moves_no_pivot_ends_the_sweeps(monkeypatch):
    # exp(u1) = 2 misses SOLVE_TOL = 0 by float spacing; the second sweep
    # solves the pivot to the bits the first gave it, so it is the last
    monkeypatch.setattr("ocm.approx.SOLVE_TOL", 0.0)
    calls = _spy(monkeypatch, "_bracket_root")
    sys_ = parse_system("exp(u1)", 1, 1, 0)
    solve = _solve_jets(sys_, np.asarray([[0.25]]), np.asarray([[2.0]]), None,
                        default_pivots(sys_))
    assert calls == [1, 1]
    assert list(solve.fail) == [4] and list(solve.component) == [1]
    assert solve.residual[0] == 6.661338147750939e-16
    with pytest.raises(RangeViolation, match="6.66134e-16 above 0 after 2 pivot sweeps$"):
        _solve_one(sys_, (0.25,), (2.0,))


def test_coupled_pivots_sweep_while_they_move(monkeypatch):
    # every sweep moves both pivots until the sixth meets SOLVE_TOL
    calls = _spy(monkeypatch, "_affine_root")
    sys_ = parse_system("u1 + 0.1*u2\nu2 + 0.1*u1", 1, 2, 0)
    solve = _solve_jets(sys_, np.asarray([[0.25]]), np.asarray([[0.3], [0.7]]), None,
                        default_pivots(sys_))
    assert len(calls) == 2 * 6
    assert list(solve.fail) == [0]
    assert solve.xi[:, 0].tolist() == [0.23232323233, 0.676767676767]


@pytest.mark.parametrize("eqs,n,m,pivot,degree", [
    ("u1", 1, 0, (1, (0,)), 1),
    ("-u1", 1, 0, (1, (0,)), 1),
    ("D(u1,(1,0)) + u1", 2, 1, (1, (0, 0)), 1),
    ("D(u1,(1))^2 + u1", 1, 1, (1, (0,)), 1),
    ("D(u1,(1))^2 + u1", 1, 1, (1, (1,)), 2),
    ("exp(x1)*u1", 1, 0, (1, (0,)), 1),
    ("u1/x1", 1, 0, (1, (0,)), 1),
    ("u1^1", 1, 0, (1, (0,)), 1),
    ("u1^0", 1, 0, (1, (0,)), 0),
    ("u1^3", 1, 0, (1, (0,)), 3),
    ("u1*u1", 1, 0, (1, (0,)), 2),
    ("x1/u1", 1, 0, (1, (0,)), None),
    ("sin(u1)", 1, 0, (1, (0,)), None),
    ("sin(x1)*u1 - u2", 1, 0, (1, (0,)), 1),
])
def test_pivot_degree(eqs, n, m, pivot, degree):
    # the compiled degrees of the first of two equations; a slot it does not read has degree 0
    assert parse_system(eqs + "; 0", n, 2, m).slot_degrees[0].get(pivot, 0) == degree


def test_affine_root_beyond_the_scan_window_is_a_range_violation():
    # the closed form finds t = 1e7, outside SCAN_LIMIT, so the bracket scan
    # runs and reports its own failure
    sys_ = parse_system("1e-7*u1", 1, 1, 0)
    with pytest.raises(RangeViolation) as exc:
        _solve_one(sys_, (0.25,), (1.0,))
    assert str(exc.value) == (
        "component 1 at x=(0.25,): bracket scan found no sign change within "
        "|t| <= 1e+06 (range condition violated or pivot ill-chosen)"
    )


def test_affine_zero_root_is_positive_zero():
    (u,) = _solve_one(parse_system("u1", 1, 1, 0), (0.25,), (0.0,))
    assert math.copysign(1.0, u) == 1.0


def _solve_without_closed_form(sys_, x, targets):
    """_solve_jets with every pivot sent through the bracket solve, on a copy
    of sys_ whose compiled degrees make every slot it reads nonlinear."""
    bracket_only = copy.copy(sys_)
    object.__setattr__(bracket_only, "slot_degrees",
                       tuple(dict.fromkeys(d) for d in sys_.slot_degrees))
    return _solve_jets(bracket_only, x, targets, None, default_pivots(sys_))


@pytest.mark.parametrize("eqs,m,cases,closed,fails", [
    # zero slope at x1 = 0: g is constant there, so the bracket solve decides
    ("x1*D(u1,(1))", 1, [(0.0, 0.0), (0.0, 1.0), (0.5, 0.3), (-2.0, 7.0)], [2, 3], [0, 1, 0, 0]),
    ("exp(x1)*u1", 0, [
        (0.25, 0.3),
        (-1.5, -40.0),
        # the closed form misses SOLVE_TOL by float spacing, and so does bisection
        (-0.05864654290516613, 530891.2660834714),
        (0.0, 2e6),  # root beyond SCAN_LIMIT
        (0.0, -912698.66771138),  # bisection ends one ulp off; the closed form is exact
        (0.25, np.inf),
        (0.25, np.nan),
    ], [0, 1, 4], [0, 0, 4, 1, 0, 5, 5]),
])
def test_affine_batch_matches_each_point_alone(eqs, m, cases, closed, fails):
    sys_ = parse_system(eqs, 1, 1, m)
    x = np.asarray([[a for a, _ in cases]])
    targets = np.asarray([[c for _, c in cases]])
    batch, alone = _solve_batch_and_alone(sys_, x, targets)
    for k, one in enumerate(alone):
        assert one.xi.tobytes() == batch.xi[:, k:k + 1].tobytes(), cases[k]
        assert (one.fail[0], one.component[0]) == (batch.fail[k], batch.component[k]), cases[k]
    # points the closed form solves meet their target within SOLVE_TOL; every
    # other point gets exactly what the bracket solve alone gives it
    bracket = _solve_without_closed_form(sys_, x, targets)
    for k in range(len(cases)):
        if k in closed:
            assert batch.fail[k] == 0 and batch.residual[k] <= ocm.approx.SOLVE_TOL, cases[k]
        else:
            assert batch.xi[:, k].tobytes() == bracket.xi[:, k].tobytes(), cases[k]
            assert batch.fail[k] == bracket.fail[k], cases[k]
    assert list(batch.fail) == fails


def test_placement_non_convergence_reports_the_worst_center(monkeypatch):
    sys_ = parse_system("exp(u1)", 1, 1, 0)
    rhs = rhs_from_exprs(["2 + x1"], 1)
    p = build_partition(UNIT, 8)
    U, _ = place_and_certify(sys_, rhs, p, 0.1)
    # m = 0: the coefficients are the solved jets themselves
    resid = np.abs(eval_component_batch(sys_, 0, U.centers, U.coeffs[:, 0])
                   - (rhs(U.centers.T)[0] - 0.05))
    worst = int(np.argmax(resid))
    assert worst != 0 and resid[worst] > 0.0
    monkeypatch.setattr("ocm.approx.SOLVE_TOL", 0.0)
    with pytest.raises(RangeViolation) as exc:
        place_and_certify(sys_, rhs, p, 0.1)
    assert exc.value.x == tuple(U.centers[:, worst])
    assert "did not converge" in str(exc.value)


def test_placement_rhs_not_finite_at_a_center_is_a_range_violation():
    # the pole sits on the second subcell center; the CLI maps RangeViolation to exit 3
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["1/(x1 - 0.375)"], 1)
    with pytest.raises(RangeViolation) as exc:
        place_and_certify(sys_, rhs, build_partition(UNIT, 4), 0.1)
    assert exc.value.x == (0.375,)
    assert "right-hand side not finite" in str(exc.value)


# ---------------------------------------------------------------------------
# local construction

def test_local_transport_example():
    # T u = u', f(x) = x, x0 = 0.5, eps = 0.1: slope 0.45, delta halves to 0.05
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["x1"], 1)
    delta, U = local_approx(sys_, rhs, (0.5,), 0.1, box=UNIT, start_delta=0.1)
    assert delta == pytest.approx(0.05)
    # one piece, centred at x0, on the one cell of the box
    assert U.partition.bounds == UNIT and U.partition.total_subcells == 1
    np.testing.assert_array_equal(U.centers, [[0.5]])
    assert U.coeffs[0, 1, 0] == pytest.approx(0.45, abs=1e-10)
    # residual 0.45 - x stays in [-0.1, 0] on [0.45, 0.55]
    xs = np.linspace(0.45, 0.55, 101).reshape(-1, 1)
    r = U.coeffs[0, 1, 0] - xs[:, 0]
    assert r.max() <= 1e-9 and r.min() >= -0.1 - 1e-9


def test_local_constant_operator_takes_whole_start_radius():
    sys_ = parse_system("u1", 1, 1, 1)
    rhs = rhs_from_exprs(["0"], 1)
    delta, U = local_approx(sys_, rhs, (0.5,), 0.2, box=UNIT, start_delta=UNIT.diameter)
    assert delta == pytest.approx(UNIT.diameter)
    # the piece on a box strictly containing the closed unit interval
    piece = PiecewisePoly(build_partition(WIDE, 1), U.alphas, U.coeffs, U.centers)
    xs = np.linspace(0, 1, 9).reshape(-1, 1)
    np.testing.assert_allclose(_values(piece, xs), -0.1, atol=1e-10)


def test_local_range_violation_squared_gradient():
    sys_ = parse_system("D(u1,(1))^2", 1, 1, 1)
    rhs = rhs_from_exprs(["0 - 1"], 1)
    with pytest.raises(RangeViolation):
        local_approx(sys_, rhs, (0.5,), 0.1, box=UNIT, start_delta=1.0)


def test_local_delta_collapse_on_steep_rhs():
    sys_ = parse_system("u1", 1, 1, 1)
    rhs = rhs_from_exprs(["10000 * x1"], 1)
    with pytest.raises(DeltaCollapse):
        local_approx(sys_, rhs, (0.5,), 0.01, box=UNIT, start_delta=1.0)


# u1 + exp(800*x1) = exp(800*x1): past x1 = 0.887 both sides overflow, so the
# residual there is inf - inf, undefined, and must be reported without a warning
INF_BOTH = parse_system("u1 + exp(800*x1)", 1, 1, 0), rhs_from_exprs(["exp(800*x1)"], 1)


def test_a_certificate_where_operator_and_rhs_are_both_infinite_names_nan_offenders():
    _, cert = place_and_certify(*INF_BOTH, build_partition(UNIT, 1), 0.1, samples_per_cell=100)
    (stats,) = cert.components
    assert not cert.passed and stats.offenders
    assert all(math.isnan(r) for _, r in stats.offenders)


def test_local_approx_halves_past_an_operator_and_rhs_both_infinite():
    delta, _ = local_approx(*INF_BOTH, (0.5,), 0.1, box=UNIT)
    assert delta == 0.25


# ---------------------------------------------------------------------------
# partition planning

SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def vertex_residuals(sys_, rhs, U):
    """Residuals (S, 2^n, K) of every piece of U at the vertices of its own
    closed subcell, read one piece at a time through PiecewisePoly.jets on
    a box strictly containing the domain."""
    lo, hi = U.partition.subcell_bounds()
    b = U.partition.bounds
    wide = build_partition(Box(tuple(v - 1 for v in b.lo), tuple(v + 1 for v in b.hi)), 1)
    out = []
    for s in range(U.n_pieces):
        piece = PiecewisePoly(wide, U.alphas, U.coeffs[:, :, s:s + 1], U.centers[:, s:s + 1])
        verts = np.asarray(list(itertools.product(*zip(lo[:, s], hi[:, s]))))
        xi = piece.jets(verts).reshape(len(verts), -1).T
        values = np.stack([eval_component_batch(sys_, i, verts.T, xi) for i in range(sys_.K)])
        out.append((values - rhs(verts)).T)
    return np.stack(out)


def face_excess(sys_, rhs, U, s, eps):
    """Per axis d, (n,), the larger |r + eps/2| of U's piece s at the
    centres of its subcell's two faces across d, over all components, read
    through PiecewisePoly.jets on a box strictly containing the domain."""
    lo, hi = U.partition.subcell_bounds()
    b = U.partition.bounds
    wide = build_partition(Box(tuple(v - 1 for v in b.lo), tuple(v + 1 for v in b.hi)), 1)
    piece = PiecewisePoly(wide, U.alphas, U.coeffs[:, :, s:s + 1], U.centers[:, s:s + 1])
    out = []
    for d in range(U.partition.n):
        pts = np.repeat(U.centers[:, s][None], 2, axis=0)
        pts[:, d] = lo[d, s], hi[d, s]
        xi = piece.jets(pts).reshape(2, -1).T
        values = np.stack([eval_component_batch(sys_, i, pts.T, xi) for i in range(sys_.K)])
        out.append(np.abs(values - rhs(pts) + 0.5 * eps).max())
    return np.array(out)


def planned_rounds(monkeypatch, sys_, rhs, p, eps):
    """plan_partition's result and the approximant it placed in each round."""
    rounds = []
    place = ocm.approx._place
    monkeypatch.setattr(ocm.approx, "_place",
                        lambda *args: rounds.append(place(*args)) or rounds[-1])
    U = plan_partition(sys_, rhs, p, eps)
    monkeypatch.undo()
    assert U is rounds[-1]
    return U, rounds


def vertex_drifts(r, n):
    """Per subcell and axis, (S, n), half the largest |r(v) - r(v')| over
    the vertex pairs of vertex_residuals' r one step apart along the axis,
    over all components; vertices in itertools.product order."""
    corners = list(itertools.product((0, 1), repeat=n))
    out = np.zeros((r.shape[0], n))
    for i, a in enumerate(corners):
        for j, b in enumerate(corners):
            steps = [d for d in range(n) if a[d] != b[d]]
            if len(steps) == 1:
                d = steps[0]
                out[:, d] = np.maximum(out[:, d], 0.5 * np.abs(r[:, i] - r[:, j]).max(axis=1))
    return out


@pytest.mark.parametrize("eqs,rhs_texts,n,K,box,cells,eps,rounds", [
    # each cell's vertex residuals are 0 and -0.1 up to rounding: no split
    ("D(u1,(1))", ["x1"], 1, 1, UNIT, 10, 0.1, 1),
    ("D(u1,(1))", ["x1"], 1, 1, UNIT, 10, 0.01, 2),
    ("D(u1,(1,0)) + u1", ["x1*x2"], 2, 1, SQUARE, 4, 0.1, 2),
    ("D(u1,(1))\nu2 + D(u1,(1))", ["x1", "1 + x1"], 1, 2, UNIT, 10, 0.05, 2),
    ("D(u1,(1))", ["sqrt(x1)"], 1, 1, UNIT, 4, 0.1, 3),
    # even along x2 in the lower cells: their x2 drift is 0, and the face
    # centres place the excess
    ("D(u1,(1,0))", ["x1 + 20*(x2-0.25)^2"], 2, 1, SQUARE, 2, 0.1, 3),
])
def test_vertex_plan_keeps_every_vertex_in_the_band(monkeypatch, eqs, rhs_texts, n, K, box,
                                                     cells, eps, rounds):
    # the plan ends once every piece keeps the band at its subcell's
    # vertices, and in every round a cell moved exactly when one of its
    # vertex residuals had left the band; each axis whose share of the
    # cell's drift is above DRIFT_SHARE_MIN grew by that residual's
    # growth times its share times the number of such axes, at the drift
    # order its last two rounds measured (1 unless the cell also moved,
    # uncapped, in the round before), and the axis of largest share grew
    # at least by one split.  Where the drifts sum to less than
    # DRIFT_EXPLAINS_MIN of the excess over eps/2, an axis's drift is at
    # least its face-centre excess at the cell's worst subcell
    sys_ = parse_system(eqs, n, K, 1)
    rhs = rhs_from_exprs(rhs_texts, n)
    eta = ocm.approx.DEFAULT_ETA
    cap = ocm.approx.SPLIT_GROWTH_CAP
    p = build_partition(box, cells)
    U, placed = planned_rounds(monkeypatch, sys_, rhs, p, eps)
    assert len(placed) == rounds and placed[0].partition is p
    r = vertex_residuals(sys_, rhs, U)
    assert np.all((r <= eta) & (r >= -eps - eta))
    last = {}  # cell -> (split counts, rho) of the round before, where it moved
    for before, after in zip(placed, placed[1:]):
        q = before.partition
        r = vertex_residuals(sys_, rhs, before)
        drifts = vertex_drifts(r, n)
        r = r.reshape(q.total_subcells, -1)
        dev = np.abs(r + 0.5 * eps).max(axis=1)
        left = ~np.all((r <= eta) & (r >= -eps - eta), axis=1)
        moved = {}
        for c in range(q.n_cells):
            cell = slice(q._offsets[c], q._offsets[c + 1])
            k = q.splits[c].tolist()
            want = k
            if left[cell].any():
                rho = dev[cell][left[cell]].max() / (0.5 * eps)
                alpha = ocm.approx.DRIFT_ORDER_MAX
                if c in last and all(a < cap * b for a, b in zip(k, last[c][0])):
                    grew = [math.log(a / b) for a, b in zip(k, last[c][0]) if a > b]
                    alpha = math.log(last[c][1] / rho) / (sum(grew) / len(grew))
                    alpha = min(max(alpha, ocm.approx.DRIFT_ORDER_MIN), ocm.approx.DRIFT_ORDER_MAX)
                drift = drifts[cell].max(axis=0)
                if drift.sum() < ocm.approx.DRIFT_EXPLAINS_MIN * (dev[cell].max() - 0.5 * eps):
                    worst = q._offsets[c] + int(np.argmax(dev[cell] * left[cell]))
                    drift = np.maximum(drift, face_excess(sys_, rhs, before, worst, eps))
                assert np.isfinite(drift).all() and drift.sum() > 0.0
                share = drift / drift.sum()
                drifting = share > ocm.approx.DRIFT_SHARE_MIN
                want = list(k)
                for d in range(n):
                    grow = (rho * share[d] * drifting.sum()) ** (1 / alpha)
                    if drifting[d] and grow > 1 or d == np.argmax(share):
                        want[d] = max(k[d] + 1, math.ceil(k[d] * min(grow, cap)))
                moved[c] = k, rho
            np.testing.assert_array_equal(after.partition.splits[c], want)
        last = moved


def test_vertex_pass_drift_is_each_cells_largest_subcell_drift(monkeypatch):
    # chunks of 3 subcells straddle the cells' ends, and each chunk's
    # drifts are reduced to the cells it touches: the merged maxima are the
    # reference's per cell, in chunk order or not.  The second component
    # drifts most along x2, so a drift read off one component falls short
    monkeypatch.setattr(ocm.approx, "CHUNK", 12)
    sys_ = parse_system("D(u1,(1,0))\nu2 + D(u1,(1,0))", 2, 2, 1)
    rhs = rhs_from_exprs(["x1^2 + 0.3*x2", "x1 + 5*x2^2"], 2)
    q = CellPartition(SQUARE, build_partition(SQUARE, 2).cell_edges,
                      np.array([[2, 3], [1, 1], [4, 1], [1, 5]]))
    U = place_and_certify(sys_, rhs, q, 0.05)[0]
    ref = vertex_drifts(vertex_residuals(sys_, rhs, U), 2)
    want = np.maximum.reduceat(ref, q._offsets[:-1], axis=0)
    for workers in (1, 2):
        dev, drift = ocm.approx._vertex_excess(sys_, rhs, U, 0.05, 0.0, workers)
        assert dev.shape == (q.total_subcells,) and drift.shape == (4, 2)
        np.testing.assert_allclose(drift, want, rtol=1e-12, atol=1e-15)
    assert np.all(want > 0.0)


@pytest.mark.parametrize("drift,rho,face,want", [
    ([1.0, 1.0], 3.0, None, [3, 3]),  # equal shares: rho on each axis
    ([3.0, 1.0], 4.0, None, [6, 2]),  # rho * share * 2 per axis
    ([1.0, 0.0005], 4.0, None, [4, 1]),  # x2's share is under DRIFT_SHARE_MIN
    ([0.9995, 0.0005], 1.0001, None, [2, 1]),  # x1's factor is not above 1: one split
    ([math.nan, 1.0], 3.0, None, [3, 3]),  # not finite: every axis by rho
    # the drifts explain half the excess 1 - 0.25: no probe
    ([0.375, 0.0], 4.0, None, [4, 1]),
    # they explain less: each axis takes at least its face-centre excess
    ([0.01, 0.0], 4.0, [0.25, 0.75], [2, 6]),
    ([0.0, 0.0], 3.0, [0.0, 0.0], [3, 3]),  # sums to 0: every axis by rho
    ([0.01, 0.0], 4.0, [math.nan, 0.5], [4, 4]),  # not finite: every axis by rho
])
def test_a_moving_cell_grows_the_axes_its_drift_shares_ask(monkeypatch, drift, rho, face, want):
    # one cell, one round at drift order 1, from the vertex pass's dev and
    # drifts and, where they explain too little, the cell's face centres;
    # eps/2 = 0.25 keeps rho exact
    sys_ = parse_system("D(u1,(1,0))", 2, 1, 1)
    rhs = rhs_from_exprs(["x1*x2"], 2)
    rounds, probed = [], []

    def vertex_excess(system, rhs, U, eps, eta, workers=1):
        rounds.append(U.partition.splits.tolist())
        if len(rounds) == 1:
            return np.array([rho * 0.25]), np.array([drift])
        return np.zeros(U.n_pieces), np.zeros((1, 2))

    def face_excess(system, rhs, U, subcells, eps):
        probed.append(subcells.tolist())
        return np.array([face])

    monkeypatch.setattr(ocm.approx, "_vertex_excess", vertex_excess)
    monkeypatch.setattr(ocm.approx, "_face_excess", face_excess)
    plan_partition(sys_, rhs, build_partition(SQUARE, 1), 0.5)
    assert rounds == [[[1, 1]], [want]]
    assert probed == ([] if face is None else [[0]])


def test_face_excess_is_each_subcells_face_centre_excess():
    # subcells of cells split unevenly, on two components: the second
    # bends along x2, where the first's x2 slope is small, and falls along
    # x2, so its lower faces deviate more, while x1^2 deviates more at the
    # upper faces
    sys_ = parse_system("D(u1,(1,0))\nu2 + D(u1,(1,0))", 2, 2, 1)
    rhs = rhs_from_exprs(["x1^2 + 0.3*x2", "x1 + 5*(x2-1)^2"], 2)
    q = CellPartition(SQUARE, build_partition(SQUARE, 2).cell_edges,
                      np.array([[2, 3], [1, 1], [4, 1], [1, 5]]))
    U = place_and_certify(sys_, rhs, q, 0.05)[0]
    subcells = np.array([13, 0, 6, 7, 15])
    got = ocm.approx._face_excess(sys_, rhs, U, subcells, 0.05)
    want = [face_excess(sys_, rhs, U, s, 0.05) for s in subcells]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert np.all(got > 0.0)


@pytest.mark.parametrize("rhs_text,cells,subcells", [
    # the lower cells' x2 vertices sit alike about x2 = 1/4: growing x1
    # alone on them exited 4 on the width floor; every axis grown alike
    # planned 55,738
    ("x1 + 20*(x2-0.25)^2", 2, 10_044),
    # no vertex drift at all: every axis grown alike planned 40,000
    ("20*(x2-0.5)^2", 1, 200),
])
def test_residual_even_along_an_axis_is_split_along_it(rhs_text, cells, subcells):
    sys_ = parse_system("D(u1,(1,0))", 2, 1, 1)
    rhs = rhs_from_exprs([rhs_text], 2)
    U = plan_partition(sys_, rhs, build_partition(SQUARE, cells), 0.1)
    assert U.partition.total_subcells == subcells
    cert = check_residual(sys_, [U], rhs, [0.1], SampleSet(U.partition, 4, 0.05, 1))[0]
    assert cert.passed
    assert U.partition.splits[:, 1].min() > 1
    if cells == 1:  # the residual does not vary along x1
        assert np.all(U.partition.splits[:, 0] == 1)


def test_transport_plan_grows_at_drift_order_one(monkeypatch):
    # a degree-1 piece drifts linearly in its subcell's side, so each cell
    # grows by dev / (eps/2) in all: x1*x2 drifts along both axes, alike in
    # cell 0, and the plan goes 4 -> 16,384 -> 140,625 subcells, cell 0
    # split 1 -> 64 (the cap) -> 125 on each axis.  Growing
    # every axis by the whole dev / (eps/2) planned 148,813 on the same
    # round counts; growing by (dev / (eps/2))^(1/2), as if the drift
    # scaled with the subcell's area, took 5 rounds on 4 -> 663 -> 12,633
    # -> 50,532 -> 202,128, cell 0 split up to 160
    sys_ = parse_system("D(u1,(1,0))", 2, 1, 1)
    rhs = rhs_from_exprs(["x1*x2"], 2)
    _, placed = planned_rounds(monkeypatch, sys_, rhs, build_partition(SQUARE, 2), 0.004)
    assert [V.partition.total_subcells for V in placed] == [4, 16_384, 140_625]
    assert [V.partition.splits[0].tolist() for V in placed] == [[1, 1], [64, 64], [125, 125]]


@pytest.mark.parametrize("eqs,rhs_text,n,cells,subcells", [
    # every axis grown alike: exit 4 over MAX_SUBCELLS (67,447,524,
    # 144,167,652 and 100,044,700 proposed), 4,000,000 and 1,000,000
    ("D(u1,(1,0))", "1/(x1+0.05)", 2, 4, 41_596),
    ("D(u1,(1,0))", "exp(5*x1)", 2, 4, 103_304),
    ("D(u1,(1,0))", "sqrt(x1)", 2, 4, 20_236),
    ("D(u1,(1,0))", "sin(20*x1)", 2, 4, 8_000),
    ("D(u1,(1,0,0))", "x1", 3, 2, 400),
])
def test_residual_drifting_along_one_axis_certifies_on_few_subcells(eqs, rhs_text, n, cells,
                                                                     subcells):
    # the residual varies along x1 only, so only x1 is split, and the plan
    # fits far inside MAX_SUBCELLS and certifies
    sys_ = parse_system(eqs, n, 1, 1)
    rhs = rhs_from_exprs([rhs_text], n)
    box = Box((0.0,) * n, (1.0,) * n)
    U = plan_partition(sys_, rhs, build_partition(box, cells), 0.01)
    assert U.partition.total_subcells == subcells < MAX_SUBCELLS
    cert = check_residual(sys_, [U], rhs, [0.01], SampleSet(U.partition, 4, 0.05, 1))[0]
    assert cert.passed
    assert np.all(U.partition.splits[:, 1:] == 1)


def test_only_the_drifting_axis_is_split(monkeypatch):
    # sin(20*x1) varies along x1 only: in every round every cell keeps one
    # split along x2, while x1 goes 1 -> 64 (the cap) -> 125 per cell
    sys_ = parse_system("D(u1,(1,0))", 2, 1, 1)
    rhs = rhs_from_exprs(["sin(20*x1)"], 2)
    _, placed = planned_rounds(monkeypatch, sys_, rhs, build_partition(SQUARE, 4), 0.01)
    assert [V.partition.total_subcells for V in placed] == [16, 1_024, 8_000]
    for V in placed:
        assert np.all(V.partition.splits[:, 1] == 1)
    assert V.partition.splits[:, 0].max() > 64


@pytest.mark.parametrize("eqs,rhs_text,rounds", [
    # rounds at drift order 1 throughout: 9 and 5; with the cell's own
    # measured order: 3 and 3.  Growth by (dev / (eps/2))^(1/n) took 5 and 3
    ("D(u1,(1))", "sqrt(x1)", 5),
    ("u1", "x1*log(x1)", 3),
])
def test_singular_rhs_plans_without_creeping(monkeypatch, eqs, rhs_text, rounds):
    # near a singular rhs the drift is sublinear in the side (sqrt(x1)
    # drifts like side^(1/2) at x1 = 0), so a growth that assumes order 1
    # under-splits and creeps by one split a round; measuring the order
    # from the cell's last two rounds keeps the round count down
    sys_ = parse_system(eqs, 1, 1, 1)
    rhs = rhs_from_exprs([rhs_text], 1)
    _, placed = planned_rounds(monkeypatch, sys_, rhs, build_partition(UNIT, 4), 0.1)
    assert len(placed) <= rounds


@pytest.mark.parametrize("eqs,rhs_text,eps,error,x", [
    # steeper as x1 grows: cell 2 is the first whose next split would fall
    # below the floor, and its worst vertex is its upper end
    ("u1", "10000 * x1^2", 0.01, DeltaCollapse, (0.75,)),
    # unattainable for x1 > 0.45 only: round 0 places at the cell centres
    ("D(u1,(1))^2", "0.5 - x1", 0.1, RangeViolation, (0.625,)),
    # unattainable past x1 = 0.7: the last centre fails before any split
    ("exp(u1)", "20000 * (0.7 - x1)", 0.01, RangeViolation, (0.875,)),
    # undefined at the interior vertex 0.5, whatever the split
    ("u1 / (x1 - 0.5)", "1", 0.1, DeltaCollapse, (0.5,)),
])
def test_planner_raises_at_the_first_failing_probe(eqs, rhs_text, eps, error, x):
    sys_ = parse_system(eqs, 1, 1, 1)
    rhs = rhs_from_exprs([rhs_text], 1)
    p = build_partition(UNIT, 4)
    with pytest.raises(error) as got:
        plan_partition(sys_, rhs, p, eps)
    assert type(got.value) is error and got.value.x == x
    if error is RangeViolation:  # placement's own error at the cell centres
        with pytest.raises(error) as ref:
            ocm.approx._place(sys_, rhs, p, eps)
        assert str(got.value) == str(ref.value)
    else:
        e, cell = got.value, int(x[0] * 4) - 1  # the cell whose upper end is x
        assert e.cell == cell and e.width < ocm.approx.DELTA_FLOOR_FACTOR
        assert not -eps - 1e-9 <= e.residual <= 1e-9
        assert str(e).startswith(
            f"cell {cell} would need subcells {e.width:g} wide, below the floor 1e-06")


def test_rhs_undefined_at_an_interior_vertex_is_a_range_violation():
    # no split removes the vertex 0.5, so the plan stops there at once
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["1/(x1 - 0.5)"], 1)
    with pytest.raises(RangeViolation, match="right-hand side not finite") as exc:
        plan_partition(sys_, rhs, build_partition(UNIT, 2), 0.1)
    assert exc.value.x == (0.5,)


def test_undefined_residual_on_the_boundary_is_read_just_inside():
    # x1*log(x1) is nan at x1 = 0, where the band is not required; read
    # just inside, its limit 0 still splits the first cell, which the
    # certificate needs: ignoring the vertex left min residual -0.105
    sys_ = parse_system("u1", 1, 1, 1)
    rhs = rhs_from_exprs(["x1*log(x1)"], 1)
    U, cert = global_approx(sys_, rhs, build_partition(UNIT, 4), 0.1, seed=1)
    assert cert.passed
    assert U.partition.splits[0, 0] > 8
    assert U.n_pieces < 64


# ---------------------------------------------------------------------------
# global construction

def test_global_transport_matches_worked_example():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["x1"], 1)
    p = build_partition(UNIT, 10)
    U, cert = global_approx(sys_, rhs, p, 0.1, seed=3)
    # each cell's vertex residuals are 0 and -0.1, up to rounding: inside
    # the band [-0.1 - eta, eta], so no cell splits
    assert U.n_pieces == 10
    assert U.partition is p
    lo, hi = U.partition.subcell_bounds()
    np.testing.assert_allclose(hi - lo, 0.1)
    assert cert.passed
    assert cert.max_residual <= 1e-9
    assert cert.min_residual >= -0.1 - 1e-9
    # center residual identity: exactly -eps/2 up to solver tolerance; jets
    # take points (N, n), and the centres are stored (n, S)
    centers = U.centers.T
    tv = U.jets(centers)[:, 0, 1]
    np.testing.assert_allclose(tv - centers[:, 0], -0.05, atol=1e-9)
    # a subcell face is skeleton, where no piece's jets are defined
    with pytest.raises(ValueError, match="on the skeleton"):
        U.jets(np.concatenate([centers[:1], hi.T[:1]]))


def test_global_identity_operator_constant_residual():
    sys_ = parse_system("u1", 1, 1, 1)
    rhs = rhs_from_exprs(["0"], 1)
    p = build_partition(UNIT, 4)
    U, cert = global_approx(sys_, rhs, p, 0.5, seed=0)
    assert U.n_pieces == 4  # one piece per cell, no split needed
    assert cert.passed
    np.testing.assert_allclose(cert.min_residual, -0.25, atol=1e-9)
    np.testing.assert_allclose(cert.max_residual, -0.25, atol=1e-9)


def test_global_second_order_problem():
    sys_ = parse_system("D(u1,(2)) + u1", 1, 1, 2)
    rhs = rhs_from_exprs(["1"], 1)
    p = build_partition(UNIT, 10)
    U, cert = global_approx(sys_, rhs, p, 0.05, seed=1)
    assert cert.passed
    assert cert.max_residual <= 1e-9
    assert cert.min_residual >= -0.05 - 1e-9


def test_monotone_tightening():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["x1"], 1)
    p = build_partition(UNIT, 10)
    U1, cert1 = global_approx(sys_, rhs, p, 0.1, seed=2)
    U2, cert2 = global_approx(sys_, rhs, p, 0.01, seed=2)
    assert U2.n_pieces >= U1.n_pieces
    assert cert2.passed and cert1.passed
    assert cert2.min_residual >= -0.01 - 1e-9 > -0.1 - 1e-9 <= cert1.min_residual


# ---------------------------------------------------------------------------
# certification

def _transport_setup(eps=0.1):
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["x1"], 1)
    p = build_partition(UNIT, 10)
    U, cert = global_approx(sys_, rhs, p, eps, seed=4)
    return sys_, rhs, U, cert


def test_check_residual_fresh_samples_pass():
    sys_, rhs, U, _ = _transport_setup()
    samples = SampleSet(U.partition, 1000, 0.05, 99)
    assert len(samples) >= 10_000
    (cert,) = check_residual(sys_, [U], rhs, [0.1], samples)
    assert cert.passed
    assert cert.components[0].samples == len(samples)


def test_check_residual_detects_injected_fault():
    sys_, rhs, U, _ = _transport_setup()
    bad = PiecewisePoly(
        partition=U.partition,
        alphas=U.alphas,
        coeffs=U.coeffs.copy(),
        centers=U.centers,
    )
    bad.coeffs[0, 1, 7] += 0.1  # push one piece's slope above the band
    samples = SampleSet(U.partition, 200, 0.05, 5)
    (cert,) = check_residual(sys_, rhs=rhs, Us=[bad], epss=[0.1], samples=samples)
    assert not cert.passed
    lo, hi = bad.partition.subcell_bounds()
    offender = cert.components[0].offenders[0][0]
    assert lo[0, 7] <= offender[0] <= hi[0, 7]


def test_check_residual_rejects_skeleton_samples(monkeypatch):
    # the certificate reads only its drawn set, each sample checked against
    # the subcell it was drawn in: an (N, n) array, here with a sample on
    # the skeleton, is not a sample set, and no sample is ever located
    sys_, rhs, U, _ = _transport_setup()
    located = []
    locate = CellPartition.locate
    monkeypatch.setattr(CellPartition, "locate",
                        lambda self, pts: located.append(len(pts)) or locate(self, pts))
    for pts in (np.asarray([[0.3], [0.5]]), sample_points(U.partition, 3, 0.05, 4)):
        with pytest.raises(TypeError, match="drawn sample set"):
            check_residual(sys_, [U], rhs, [0.1], pts)
    place_and_certify(sys_, rhs, U.partition, 0.1, seed=4)
    assert located == []


@pytest.mark.parametrize("move,message", [
    ("face", "verification sample lies on the skeleton"),
    ("outside", "point outside domain"),
    # off the skeleton, but in a subcell other than the one it was drawn in
    ("neighbour", None),
    ("nan", None),
])
def test_drawn_sample_outside_its_subcell_is_rejected(monkeypatch, move, message):
    # set here, not in the table, so the cases keep their test ids; sample
    # 5 of 3 per subcell is drawn in subcell 1 and moved into subcell 2
    if move == "neighbour":
        message = "verification sample drawn in subcell 1 lies in subcell 2"
    elif move == "nan":
        message = "verification sample is not finite"
    sys_ = parse_system("D(u1,(1,0))", 2, 1, 1)
    rhs = rhs_from_exprs(["x1*x2"], 2)
    fine = subdivide(build_partition(SQUARE, 2), 0.3)
    draw = SampleSet._draw

    def moved(self, first, lo_, hi_):
        # the set's unchecked (n, per_cell, count) block; sample 5 of the
        # set is column 5 // per_cell - first, row 5 % per_cell
        pts = draw(self, first, lo_, hi_)
        per_cell = self.per_cell
        lo, hi = self.partition.subcell_bounds()
        s = 5 // per_cell
        if first <= s < first + pts.shape[2]:
            at = pts[:, 5 % per_cell, s - first]
            if move == "face":
                at[0] = hi[0, s]
            elif move == "outside":
                at[0] = 1.5
            elif move == "nan":
                at[1] = np.nan
            else:
                at[:] = 0.5 * (lo[:, s + 1] + hi[:, s + 1])
        return pts

    place_and_certify(sys_, rhs, fine, 0.1, samples_per_cell=3)  # the set as drawn is accepted
    sample_points(fine, 3, 0.05)
    monkeypatch.setattr(SampleSet, "_draw", moved)
    with pytest.raises(ValueError) as exc:
        place_and_certify(sys_, rhs, fine, 0.1, samples_per_cell=3)
    assert str(exc.value) == message
    # the whole-set form is filled from the same checked chunks
    with pytest.raises(ValueError) as exc:
        sample_points(fine, 3, 0.05)
    assert str(exc.value) == message


@pytest.mark.parametrize("equation,degree", [("D(u1,(1,0)) + u1", 1), ("u1^3 + D(u1,(1,0))", 3)])
def test_chunked_placement_equals_one_batch(monkeypatch, equation, degree):
    # every point's jet is the one it gets alone, so the chunks give the
    # one batch's jets bit for bit, on a closed-form pivot and a bisected
    # one, whether the chunks run on one thread or two
    sys_ = parse_system(equation, 2, 1, 1)
    assert sys_.slot_degrees[0][default_pivots(sys_)[0]] == degree
    rhs = rhs_from_exprs(["x1*x2"], 2)
    fine = subdivide(build_partition(SQUARE, 2), 0.15)
    S = fine.total_subcells
    assert S < ocm.approx.CHUNK
    whole = ocm.approx._place(sys_, rhs, fine, 0.1)
    monkeypatch.setattr(ocm.approx, "CHUNK", 7)
    assert S % 7
    for workers in (1, 2):
        chunked = ocm.approx._place(sys_, rhs, fine, 0.1, workers)
        assert chunked.coeffs.tobytes() == whole.coeffs.tobytes(), workers


def test_per_subcell_arrays_are_stored_subcell_axis_last():
    # bounds, centres and pieces are stored the way the kernels read them:
    # C-contiguous, subcell axis last, with no transposed view in between
    sys_ = parse_system("D(u1,(1,0)) + u1; u2", 2, 2, 1)
    rhs = rhs_from_exprs(["x1*x2", "x1"], 2)
    base = build_partition(SQUARE, 2)
    fine = CellPartition(base.bounds, base.cell_edges, [[2, 3], [1, 1], [3, 2], [2, 2]])
    S, A = fine.total_subcells, len(sys_.alphas)
    U, _ = place_and_certify(sys_, rhs, fine, 0.1, samples_per_cell=3)
    _, one = local_approx(sys_, rhs, (0.5, 0.5), 0.1, box=SQUARE)
    lo, hi = fine.subcell_bounds()
    for a, shape in [(lo, (2, S)), (hi, (2, S)), (fine.subcell_centers(), (2, S)),
                     (U.centers, (2, S)), (U.coeffs, (2, A, S)), (one.centers, (2, 1)),
                     (one.coeffs, (2, A, 1))]:
        assert a.shape == shape and a.flags.c_contiguous, shape


def test_chunked_placement_raises_the_batch_error(monkeypatch):
    # 8 centres in chunks of 3: the worst non-converged residual over all
    # chunks, and a hard failure in the last chunk over any non-convergence,
    # on one thread or two
    monkeypatch.setattr(ocm.approx, "CHUNK", 3)
    sys_ = parse_system("exp(u1)", 1, 1, 0)
    p = build_partition(UNIT, 8)
    rhs = rhs_from_exprs(["2 + x1"], 1)
    U, _ = place_and_certify(sys_, rhs, p, 0.1)
    resid = np.abs(eval_component_batch(sys_, 0, U.centers, U.coeffs[:, 0])
                   - (rhs(U.centers.T)[0] - 0.05))
    worst = int(np.argmax(resid))
    assert worst >= 3 and resid[worst] > 0.0
    monkeypatch.setattr(ocm.approx, "SOLVE_TOL", 0.0)
    pole = rhs_from_exprs(["2 + x1 + 1/(x1 - 0.9375)^2"], 1)
    for workers in (1, 2):
        with pytest.raises(RangeViolation, match="did not converge") as exc:
            place_and_certify(sys_, rhs, p, 0.1, workers=workers)
        assert exc.value.x == tuple(U.centers[:, worst])
        with pytest.raises(RangeViolation, match="right-hand side not finite") as exc:
            place_and_certify(sys_, pole, p, 0.1, workers=workers)
        assert exc.value.x == (0.9375,)


@pytest.mark.parametrize("n,m,eqs,rhs_text", [
    (2, 1, "D(u1,(1,0))", "x1*x2"),
    (2, 2, "D(u1,(2,0)) + D(u1,(0,2)) + u1^3", "x1*x2"),
    (1, 1, "D(u1,(1))^2 + u1", "1 + x1"),
    # 736 subcells, split more along x1 than along x2 in 12 of 16 cells
    (2, 1, "D(u1,(1,0))", "x1^2 + 0.3*x2"),
])
def test_plan_does_not_depend_on_workers(monkeypatch, n, m, eqs, rhs_text):
    # chunks of 7 split every round's placement and vertex pass into many
    # chunks, which the threads write as disjoint slices; 4 threads on a
    # short switch interval interleave them more than the cores would
    monkeypatch.setattr(ocm.approx, "CHUNK", 7)
    sys_ = parse_system(eqs, n, 1, m)
    rhs = rhs_from_exprs([rhs_text], n)
    box = Box((0.0,) * n, (1.0,) * n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        one, *threaded = [plan_partition(sys_, rhs, build_partition(box, 4), 0.05,
                                         workers=workers) for workers in (1, 2, 4)]
    finally:
        sys.setswitchinterval(interval)
    assert one.n_pieces > 7 * 2 ** n
    for U in threaded:
        assert U.coeffs.tobytes() == one.coeffs.tobytes()
        assert U.centers.tobytes() == one.centers.tobytes()
        assert U.partition.splits.tobytes() == one.partition.splits.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_vertex_pass_raises_at_the_first_chunk_with_a_pole(monkeypatch, workers):
    # poles at the interior vertices 0.25 and 0.75 of 16 cells, in the
    # second and a later chunk of 3 subcells: the second chunk's is raised
    monkeypatch.setattr(ocm.approx, "CHUNK", 7)
    sys_ = parse_system("u1", 1, 1, 0)
    rhs = rhs_from_exprs(["1/(x1-0.75)^2 + 1/(x1-0.25)^2"], 1)
    with pytest.raises(RangeViolation, match="right-hand side not finite") as exc:
        plan_partition(sys_, rhs, build_partition(UNIT, 16), 0.1, workers=workers)
    assert exc.value.x == (0.25,)


def test_placement_errors_precede_sample_errors(monkeypatch):
    # placement finishes before the certificate draws its first chunk
    def never(*args):
        raise AssertionError("a chunk was drawn before placement finished")

    monkeypatch.setattr(SampleSet, "_draw", never)
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    pole = rhs_from_exprs(["1/(x1 - 0.375)"], 1)
    for margin in (0.05, 0.6):  # a sound set, and one the sampler rejects
        with pytest.raises(RangeViolation, match="right-hand side not finite"):
            place_and_certify(sys_, pole, build_partition(UNIT, 4), 0.1, margin=margin)


def _stepped_setup():
    """u1 against f = 0 on 40 subcells: each piece is a constant, which is
    its residual, so every sample of a subcell ties with the others."""
    sys_ = parse_system("u1", 1, 1, 0)
    p = subdivide(build_partition(UNIT, 4), 0.025)
    values = np.zeros(p.total_subcells)
    values[[7, 30]] = 0.5
    values[33] = 0.3
    values[[20, 21]] = np.nan
    U = PiecewisePoly(partition=p, alphas=sys_.alphas, coeffs=values.reshape(1, 1, -1),
                      centers=p.subcell_centers())
    return sys_, rhs_from_exprs(["0"], 1), U


@pytest.mark.parametrize("undefined", [True, False])
def test_offenders_with_tied_excess_follow_a_stable_sort(monkeypatch, undefined):
    # chunks of 3 subcells of 3 samples each; the offenders of the merged
    # chunks are those of a stable sort of the whole residual array by
    # excess, descending, whichever worker count
    monkeypatch.setattr(ocm.approx, "CHUNK", 10)
    sys_, rhs, U = _stepped_setup()
    if not undefined:
        U.coeffs[:, :, [20, 21]] = 0.5
    eps, eta = 0.1, 1e-9
    drawn = SampleSet(U.partition, 3, 0.05, 1)
    pts = sample_points(U.partition, 3, 0.05, 1)
    r = np.repeat(U.coeffs[0, 0], 3)
    finite = np.isfinite(r)
    excess = np.where(finite, np.maximum(r - eta, (-eps - eta) - r), np.inf)
    order = np.argsort(-excess, kind="stable")[:5]
    expect = [(tuple(map(float, pts[w])), float(r[w])) for w in order]
    assert math.isnan(expect[0][1]) == undefined
    certs = [check_residual(sys_, [U], rhs, [eps], drawn, workers=workers)[0]
             for workers in (1, 2)]
    for cert in certs:
        (c,) = cert.components
        assert not c.passed and c.samples == len(pts)
        assert [pt for pt, _ in c.offenders] == [pt for pt, _ in expect]
        np.testing.assert_array_equal([v for _, v in c.offenders], [v for _, v in expect])
        assert (c.min_residual, c.max_residual) == (0.0, 0.5)
    assert all(repr(cert) == repr(certs[0]) for cert in certs)


@pytest.mark.parametrize("per_cell", [3, 7])
def test_failing_streamed_certificate_names_the_caller_sample_offenders(monkeypatch, per_cell):
    # a chunk's samples sit subcell axis last, so its flat position j holds
    # sample (first + j % count) * per_cell + j // count; the offenders, ties
    # in excess broken by sample index, must be those of a stable sort of
    # the same samples in sample order, as sample_points lists them; chunks
    # hold 6 or 2 subcells, so the tied subcells 4 and 5 share one
    monkeypatch.setattr(ocm.approx, "CHUNK", 20)
    sys_ = parse_system("u1", 2, 1, 0)
    base = build_partition(Box((0.0, 0.0), (1.0, 1.0)), (2, 2))
    p = CellPartition(base.bounds, base.cell_edges, [[2, 3], [1, 1], [3, 2], [2, 2]])
    values = np.zeros(p.total_subcells)
    values[[4, 5]] = 0.5
    values[[2, 13]] = 0.3
    U = PiecewisePoly(partition=p, alphas=sys_.alphas, coeffs=values.reshape(1, 1, -1),
                      centers=p.subcell_centers())
    rhs = rhs_from_exprs(["0"], 2)
    drawn = SampleSet(p, per_cell, 0.05, 6)
    pts = sample_points(p, per_cell, 0.05, 6)
    index = {tuple(map(float, q)): i for i, q in enumerate(pts)}
    r = np.repeat(values, per_cell)
    expect = np.argsort(-np.abs(r), kind="stable")[:5].tolist()
    for workers in (1, 2):
        (c,) = check_residual(sys_, [U], rhs, [0.1], drawn, workers=workers)[0].components
        assert not c.passed and c.samples == len(pts)
        assert [index[pt] for pt, _ in c.offenders] == expect
        assert [v for _, v in c.offenders] == r[expect].tolist()


def test_streamed_certificate_peaks_below_one_sample_array():
    # 2^21 drawn samples in 2D: the whole (N, n) array would be 32 MiB
    import tracemalloc

    sys_ = parse_system("D(u1,(1,0))", 2, 1, 1)
    rhs = rhs_from_exprs(["x1*x2"], 2)
    fine = build_partition(SQUARE, (256, 256))
    U = ocm.approx._place(sys_, rhs, fine, 0.1)
    drawn = SampleSet(fine, 32, 0.05, 3)
    assert len(drawn) == 2**21
    tracemalloc.start()
    try:
        (cert,) = check_residual(sys_, [U], rhs, [0.1], drawn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.passed and cert.components[0].samples == 2**21
    assert peak < 2**21 * 2 * 8


def _three_approximants():
    """Two placed approximants on one 2D partition, which share centres,
    and a third on it with random pieces whose centres are shifted off them."""
    sys_ = parse_system("D(u1,(2,0)) + u1 + D(u1,(0,1))^2", 2, 1, 2)
    rhs = rhs_from_exprs(["x1*x2"], 2)
    fine = plan_partition(sys_, rhs, build_partition(SQUARE, 2), 0.05).partition
    U1 = ocm.approx._place(sys_, rhs, fine, 0.1)
    U2 = ocm.approx._place(sys_, rhs, fine, 0.05)
    rng = np.random.default_rng(21)
    centers = fine.subcell_centers().T + rng.uniform(-0.01, 0.01, (fine.total_subcells, 2))
    coeffs = rng.normal(size=(1, len(sys_.alphas), fine.total_subcells))
    U3 = PiecewisePoly(fine, sys_.alphas, coeffs, centers.T.copy())
    return sys_, rhs, fine, [U1, U2, U3], [0.1, 0.05, 0.2]


def test_one_call_certifies_each_approximant_as_alone(monkeypatch):
    # one pass over the samples gives each approximant the certificate a
    # call on it alone gives; rhs runs once per chunk, and the approximants
    # with equal centres share one monomial memo per chunk
    sys_, rhs, fine, Us, epss = _three_approximants()
    monkeypatch.setattr(ocm.approx, "CHUNK", 1500)  # 500 subcells of 3 samples per chunk
    drawn = SampleSet(fine, 3, 0.05, 8)
    memos = []
    values = ocm.approx._operator_values
    monkeypatch.setattr(ocm.approx, "_operator_values",
                        lambda *args: memos.append(id(args[4])) or values(*args))
    rhs_calls = []
    counting_rhs = lambda X: rhs_calls.append(len(X)) or rhs(X)  # noqa: E731
    for workers in (1, 2):
        memos.clear()
        rhs_calls.clear()
        together = check_residual(sys_, Us, counting_rhs, epss, drawn, workers=workers)
        assert len(rhs_calls) == -(-fine.total_subcells // 500) > 1
        assert sum(rhs_calls) == len(drawn)
        if workers == 1:  # a chunk's three calls run in order
            for a, b, c in zip(memos[::3], memos[1::3], memos[2::3]):
                assert a == b != c
        alone = [check_residual(sys_, [U], rhs, [eps], drawn, workers=workers)[0]
                 for U, eps in zip(Us, epss)]
        assert len(together) == 3 and repr(together) == repr(alone)
    assert [c.passed for c in alone] == [True, True, False]


def _overshooting_band():
    """D(u1,(1)) = x1 on 4 cells, planned at eps 0.1 and placed for eps
    0.01: its residuals lie in about [-0.042, 0.032], outside an eps
    0.001 band on both sides."""
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["x1"], 1)
    fine = plan_partition(sys_, rhs, build_partition(UNIT, 4), 0.1).partition
    return sys_, rhs, ocm.approx._place(sys_, rhs, fine, 0.01)


@pytest.mark.parametrize("eps,eta,message", [
    (math.nan, 1e-9, "eps must be positive and finite"),
    (math.inf, 1e-9, "eps must be positive and finite"),
    (0.0, 1e-9, "eps must be positive and finite"),
    (0.001, math.nan, "eta must be finite and >= 0"),
    (0.001, math.inf, "eta must be finite and >= 0"),
    (0.001, -1e-9, "eta must be finite and >= 0"),
])
def test_check_residual_rejects_a_band_that_checks_nothing(eps, eta, message):
    sys_, rhs, U = _overshooting_band()
    drawn = SampleSet(U.partition, 3, 0.05, 0)
    (cert,) = check_residual(sys_, [U], rhs, [0.001], drawn)
    assert not cert.passed
    # a nan or infinite eta or eps used to pass this certificate
    with pytest.raises(ValueError, match=message):
        check_residual(sys_, [U, U], rhs, [0.001, eps], drawn, eta=eta)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
def test_construction_rejects_eps_that_is_not_positive_and_finite(eps):
    # eps = nan used to fail as "right-hand side not finite"
    sys_, rhs = parse_system("D(u1,(1))", 1, 1, 1), rhs_from_exprs(["x1"], 1)
    p = build_partition(UNIT, 4)
    for build in (global_approx, plan_partition, place_and_certify, ocm.approx._place):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            build(sys_, rhs, p, eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        local_approx(sys_, rhs, (0.5,), eps, box=UNIT)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -1e-9])
def test_construction_rejects_eta_that_is_not_finite_and_nonnegative(eta):
    sys_, rhs = parse_system("D(u1,(1))", 1, 1, 1), rhs_from_exprs(["x1"], 1)
    p = build_partition(UNIT, 4)
    with pytest.raises(ValueError, match="eta must be finite and >= 0"):
        plan_partition(sys_, rhs, p, 0.1, eta=eta)
    with pytest.raises(ValueError, match="eta must be finite and >= 0"):
        local_approx(sys_, rhs, (0.5,), 0.1, box=UNIT, eta=eta)


@pytest.mark.parametrize("start", [-0.5, 0.0, math.nan, math.inf])
def test_local_approx_rejects_a_start_radius_that_is_not_positive_and_finite(start):
    # -0.5 used to end as "validity radius collapsed to -0.25"
    sys_, rhs = parse_system("D(u1,(1))", 1, 1, 1), rhs_from_exprs(["x1"], 1)
    with pytest.raises(ValueError, match="start_delta must be positive and finite"):
        local_approx(sys_, rhs, (0.5,), 0.1, box=UNIT, start_delta=start)


@pytest.mark.parametrize("x0", [(5.0,), (-1e-9,), (math.nan,)])
def test_local_approx_rejects_x0_outside_its_box(x0):
    # (5.0,) used to halve its radius about 20 times and raise DeltaCollapse
    sys_, rhs = parse_system("D(u1,(1))", 1, 1, 1), rhs_from_exprs(["x1"], 1)
    with pytest.raises(ValueError, match=r"lies outside the box \[\(0.0,\), \(1.0,\)\]"):
        local_approx(sys_, rhs, x0, 0.1, box=UNIT)
    for edge in ((0.0,), (1.0,)):  # the closed box
        local_approx(sys_, rhs, edge, 0.1, box=UNIT)
    # on a box that is not a cube, each coordinate meets its own axis's bounds
    # (every coordinate used to be compared with every bound)
    sys2, rhs2 = parse_system("D(u1,(1,0))", 2, 1, 1), rhs_from_exprs(["x1"], 2)
    tall = Box((0.0, 0.0), (1.0, 2.0))
    local_approx(sys2, rhs2, (0.5, 1.5), 0.1, box=tall)
    with pytest.raises(ValueError, match="lies outside the box"):
        local_approx(sys2, rhs2, (1.5, 0.5), 0.1, box=tall)


def test_a_system_and_partition_of_different_dimension_are_rejected():
    # used to die in numpy: "could not broadcast input array from shape (2952,) into shape (5904,)"
    from ocm.order import refine_solution

    sys_, rhs = parse_system("D(u1,(1))", 1, 1, 1), rhs_from_exprs(["x1"], 2)
    p = build_partition(SQUARE, 2)
    message = "the system has n = 1 variables but the domain is 2-D"
    with pytest.raises(ValueError, match=message):
        global_approx(sys_, rhs, p, 0.1)
    with pytest.raises(ValueError, match=message):
        place_and_certify(sys_, rhs, p, 0.1)
    with pytest.raises(ValueError, match=message):
        refine_solution(sys_, rhs, p, 2, (np.linspace(0.0, 1.0, 5),) * 2)


@pytest.mark.parametrize("case,message", [
    ("empty", "got 0 approximants and 0 eps values"),
    ("unequal", "got 3 approximants and 2 eps values"),
    ("other partition", "approximants and samples must share one partition"),
])
def test_check_residual_rejects_an_ill_formed_sequence(case, message):
    sys_, rhs, fine, Us, epss = _three_approximants()
    drawn = SampleSet(fine, 3, 0.05, 8)
    if case == "empty":
        Us, epss = [], []
    elif case == "unequal":
        epss = epss[:2]
    else:
        Us[1] = ocm.approx._place(sys_, rhs, build_partition(SQUARE, 2), 0.05)
    with pytest.raises(ValueError, match=message):
        check_residual(sys_, Us, rhs, epss, drawn)


@pytest.mark.parametrize("texts", [["x1"], ["x1", "0.5", "x1*x1"]], ids=["one row", "three rows"])
def test_rhs_with_the_wrong_row_count_is_rejected(texts):
    # two equations need two rows; a one-row rhs used to raise a bare
    # IndexError and a three-row one a numpy broadcast error
    from ocm.order import refine_solution

    sys_ = parse_system("u1\nu2", 1, 2, 0)
    p = build_partition(UNIT, 4)
    bad = rhs_from_exprs(texts, 1)
    message = f"right-hand side gives {len(texts)} rows, expected K=2"
    with pytest.raises(ValueError, match=message):
        global_approx(sys_, bad, p, 0.1)
    with pytest.raises(ValueError, match=message):
        refine_solution(sys_, bad, p, 3, (np.linspace(0.0, 1.0, 9),))
    U, _ = place_and_certify(sys_, rhs_from_exprs(["x1", "0.5"], 1), p, 0.1)
    with pytest.raises(ValueError, match=message):
        check_residual(sys_, [U], bad, [0.1], SampleSet(p, 3, 0.05, 0))
    with pytest.raises(ValueError, match=message):
        ocm.approx._place(sys_, bad, p, 0.1)


def test_solve_jet_respects_anchor_and_explicit_pivot():
    sys_ = parse_system("D(u1,(1))^2 + u1", 1, 1, 1)
    anchor = np.zeros(sys_.M)
    anchor[sys_.slot(1, (1,))] = 2.0
    xi = _solve_one(sys_, (0.0,), (5.0,), anchor=anchor, pivots=((1, (0,)),))
    # the derivative slot keeps its anchor value; the pivot absorbs the rest
    assert xi[sys_.slot(1, (1,))] == 2.0
    assert xi[sys_.slot(1, (0,))] == pytest.approx(1.0, abs=1e-10)


def _all_slots_system(n, K, m):
    """A system whose every component reads every jet slot, with one
    product and one coordinate, so every monomial of the jets shows."""
    alphas = ocm.expr.multi_indices(n, m)
    comps = []
    for i in range(1, K + 1):
        terms = [f"{0.5 + 0.25 * a}*D(u{j},({','.join(map(str, alpha))}))"
                 for j in range(1, K + 1) for a, alpha in enumerate(alphas)]
        comps.append(" + ".join(terms) + f" + u{i}*u{K} - x1")
    return parse_system("; ".join(comps), n, K, m)


@pytest.mark.parametrize("n,K,m", list(itertools.product((1, 2, 3), (1, 2), (1, 2))))
def test_located_certificate_equals_lookup_bit_for_bit(n, K, m):
    # drawn samples broadcast each piece over its own samples; the same
    # samples located and gathered must give the same numbers, and the
    # certificate the extremes, verdict and count of those residuals
    rng = np.random.default_rng(100 * n + 10 * K + m)
    system = _all_slots_system(n, K, m)
    # rows that differ, so a (K, ...) layout with its rows swapped shows
    rhs = rhs_from_exprs([f"x1*x{n}", f"x{n} - x1"][:K], n)
    lo = rng.uniform(-1.0, 0.0, n)
    box = Box(tuple(lo), tuple(lo + rng.uniform(0.5, 1.5, n)))
    p = build_partition(box, tuple(rng.integers(1, 3, n)))
    p = CellPartition(p.bounds, p.cell_edges, rng.integers(1, 4, (p.n_cells, n)))
    S, A = p.total_subcells, len(system.alphas)
    U = PiecewisePoly(partition=p, alphas=system.alphas, coeffs=rng.normal(size=(K, A, S)),
                      centers=p.subcell_centers())
    # per_cell values that do not divide the 65,536-sample chunk, and the
    # chunk itself, the most a SampleSet takes, where a chunk is a single subcell
    for per_cell in [1, 3, 7, 65536 // S + 5] + ([65536] if (n, K, m) == (1, 1, 1) else []):
        drawn = SampleSet(p, per_cell, 0.05, per_cell)
        # the whole set in the subcell-last order of a chunk, (n, per_cell,
        # S), and its flat (n, per_cell * S) rows, located point by point
        grouped = drawn.chunk(0, S)
        flat = grouped.reshape(n, -1)
        loc, _ = p.locate(flat.T)
        located = ocm.approx._operator_values(system, U.coeffs[:, :, loc], U.centers[:, loc], flat)
        np.testing.assert_array_equal(
            ocm.approx._operator_values(system, U.coeffs[:, :, None], U.centers[:, None], grouped),
            located)
        r = located - rhs(flat.T)
        assert np.isfinite(r).all()
        # the one residual path, on the grouped samples, gives the same numbers
        f = ocm.approx._rhs_at(rhs, grouped, K)
        assert f.shape == (K, per_cell, S)
        residual = ocm.approx._residual(system, U.coeffs[:, :, None], U.centers[:, None],
                                        grouped, f)
        np.testing.assert_array_equal(residual.reshape(K, -1), r)
        # a band the residuals overshoot, and one that holds them all
        for eps, eta in ((0.1, ocm.approx.DEFAULT_ETA), (1e3, 1e3)):
            want = [(S * per_cell, float(ri.min()), float(ri.max()),
                     bool(ri.min() >= -eps - eta and ri.max() <= eta)) for ri in r]
            assert all(ok == (eta == 1e3) for *_, ok in want)
            for workers in (1, 2):
                (cert,) = check_residual(system, [U], rhs, [eps], drawn, eta=eta, workers=workers)
                assert [(c.samples, c.min_residual, c.max_residual, c.passed)
                        for c in cert.components] == want


def _subset_system(n, K, m, rng):
    """A system that reads a random strict subset of its jet slots, each
    component a sum of some of them and, when it reads two, their product."""
    alphas = ocm.expr.multi_indices(n, m)
    slots = [(j, alpha) for j in range(1, K + 1) for alpha in alphas]
    read = [slots[s] for s in sorted(rng.choice(len(slots), rng.integers(1, len(slots)),
                                                replace=False))]
    comps = []
    for i in range(K):
        mine = [f"D(u{j},({','.join(map(str, alpha))}))" for j, alpha in read[i::K]]
        terms = [f"{0.5 + 0.25 * k}*{t}" for k, t in enumerate(mine)] + [f"x1*x{n}"]
        comps.append(" + ".join(terms + (["*".join(mine[:2])] if len(mine) > 1 else [])))
    return parse_system("; ".join(comps), n, K, m), read


@pytest.mark.parametrize("n,K,m", list(itertools.product((1, 2, 3), (1, 2), (1, 2))))
def test_read_slot_operator_values_equal_full_jets(n, K, m):
    # _operator_values builds only the jet slots its system reads; every
    # component must equal its evaluation on the full jets, bit for bit
    rng = np.random.default_rng(1000 + 100 * n + 10 * K + m)
    for _ in range(3):
        system, read = _subset_system(n, K, m, rng)
        A = len(system.alphas)
        slots = ocm.approx._read_slots(system)
        assert len(slots) < K * A
        assert slots == tuple((j - 1, system.alphas.index(alpha)) for j, alpha in read)
        count, per_cell = 11, 3
        coeffs = rng.normal(size=(K, A, 1, count))
        centers = rng.uniform(-1.0, 1.0, (n, 1, count))
        pts = centers + rng.uniform(-0.5, 0.5, (n, per_cell, count))
        every = list(itertools.product(range(K), range(A)))
        XI = ocm.approx._jets_from_coeffs(coeffs, centers, system.alphas, pts, every)
        X, XI = pts.reshape(n, -1), XI.reshape(K * A, -1)
        ref = np.stack([eval_component_batch(system, i, X, XI) for i in range(K)])
        np.testing.assert_array_equal(ocm.approx._operator_values(system, coeffs, centers, pts),
                                      ref)


@pytest.mark.parametrize("n,per_axis,in_ball", [(1, 33, 33), (2, 9, 49), (3, 5, 33)])
def test_ball_points_are_the_grid_points_in_the_ball_clipped_with_the_centre_last(
        n, per_axis, in_ball):
    box = Box((0.0,) * n, (1.0,) * n)
    x0 = np.full((n, 1), 0.5)
    # an interior ball keeps every grid point in it: 33, 9 and 5 per axis,
    # in ij order, with the corners of the square and cube dropped
    pts = ocm.approx._ball_points(x0, 0.25, box)
    assert pts.shape == (n, in_ball + 1)
    np.testing.assert_array_equal(pts[:, -1:], x0)
    steps = np.linspace(-1.0, 1.0, per_axis)
    grid = [s for s in itertools.product(steps, repeat=n) if n == 1 or np.dot(s, s) <= 1.0 + 1e-12]
    np.testing.assert_allclose(pts[:, :-1], 0.5 + 0.25 * np.transpose(grid), rtol=0, atol=1e-15)
    # a ball over the box's corner is clipped to it, and keeps its centre last
    corner = np.full((n, 1), 0.1)
    pts = ocm.approx._ball_points(corner, 0.3, box)
    assert pts.shape == (n, in_ball + 1) and np.all((pts >= 0.0) & (pts <= 1.0))
    assert np.any(pts == 0.0) and np.array_equal(pts[:, -1:], corner)


def test_local_approx_takes_the_first_halved_radius_whose_ball_is_in_the_band():
    system = _all_slots_system(2, 1, 2)
    rhs = rhs_from_exprs(["sin(3*x1) + x2*x2 + 1"], 2)
    box = Box((0.0, 0.0), (1.0, 1.0))
    rng = np.random.default_rng(3)
    start, eps, eta = 0.8, 0.05, 1e-9
    random_piece = rng.normal(size=(1, len(system.alphas), 1))
    halvings = []
    for x0 in rng.uniform(0.0, 1.0, (12, 2)):
        delta, U = local_approx(system, rhs, tuple(x0), eps, box=box, start_delta=start, eta=eta)
        np.testing.assert_array_equal(U.centers, x0[:, None])
        for k in itertools.count():
            pts = ocm.approx._ball_points(U.centers, start * 2.0 ** -k, box)
            P = pts.shape[1]
            # a piece broadcast over its ball equals the piece repeated once
            # per point; the reference left in ref is local_approx's piece
            for coeffs in (random_piece, U.coeffs):
                ref = ocm.approx._operator_values(system, np.tile(coeffs, P),
                                                  np.tile(U.centers, P), pts)
                np.testing.assert_array_equal(
                    ocm.approx._operator_values(system, coeffs, U.centers, pts), ref)
            ref -= rhs(pts.T)
            if np.all(np.isfinite(ref) & (ref <= eta) & (ref >= -eps - eta)):
                break
        assert delta == start * 2.0 ** -k
        halvings.append(k)
    assert min(halvings) < max(halvings)


def test_piece_jets_match_broadcast_copies():
    rng = np.random.default_rng(8)
    alphas = ocm.expr.multi_indices(3, 3)
    center = tuple(rng.uniform(-1.0, 1.0, 3))
    coeffs = rng.normal(size=(2, len(alphas)))
    U = PiecewisePoly(build_partition(Box((-3.0,) * 3, (3.0,) * 3), 1), alphas, coeffs[..., None],
                      np.asarray(center)[:, None])
    pts = rng.uniform(-2.0, 2.0, (50, 3))
    # the per-point copies the piece used to be broadcast into, point axis last
    every = list(itertools.product(range(2), range(len(alphas))))
    copies = ocm.approx._jets_from_coeffs(np.broadcast_to(coeffs[..., None], coeffs.shape + (50,)),
                                          np.broadcast_to(np.asarray(center)[:, None], (3, 50)),
                                          alphas, pts.T, every)
    jets = U.jets(pts)
    assert jets.shape == (50, 2, len(alphas))
    dx = pts - np.asarray(center)
    for j, (b, beta) in itertools.product((1, 2), enumerate(alphas)):
        got = jets[:, j - 1, b]
        np.testing.assert_array_equal(got, copies[j - 1, b])
        closed = np.zeros(len(pts))
        for a, alpha in enumerate(alphas):
            if all(x >= y for x, y in zip(alpha, beta)):
                scale = math.prod(math.factorial(x) / math.factorial(x - y) for x, y in zip(alpha, beta))
                gamma = np.subtract(alpha, beta)
                closed += coeffs[j - 1, a] * scale * np.prod(dx ** gamma, axis=1)
        np.testing.assert_allclose(got, closed, rtol=1e-12, atol=1e-12)
