"""Jet construction, local/global band assembly, and certification tests."""

import itertools
import math

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
    solve_jet,
    taylor_poly,
)
from ocm.approx import _solve_jets
from ocm.domain import Box, CellPartition, build_partition, sample_points, subdivide
from ocm.expr import eval_component_batch, parse_system

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
# Taylor pieces

def test_taylor_line_by_hand():
    piece = taylor_poly((0.5,), {(1, (0,)): 0.0, (1, (1,)): 0.45})
    # P(x) = 0.45 (x - 0.5)
    xs = np.asarray([[0.0], [0.5], [1.0]])
    np.testing.assert_allclose(piece.eval_component(1, xs), [-0.225, 0.0, 0.225], atol=1e-15)


def test_taylor_zero_jet_is_zero_polynomial():
    piece = taylor_poly((0.3,), {(1, (0,)): 0.0, (1, (1,)): 0.0})
    xs = np.linspace(0, 1, 7).reshape(-1, 1)
    np.testing.assert_array_equal(piece.eval_component(1, xs), np.zeros(7))


def test_taylor_2d_pure_second_order():
    # xi_{(2,0)} = 2, everything else 0, x0 = origin: P(x) = x1^2
    xi = {(1, a): 0.0 for a in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]}
    xi[(1, (2, 0))] = 2.0
    piece = taylor_poly((0.0, 0.0), xi)
    pts = np.asarray([[0.5, 0.7], [1.0, -1.0], [0.0, 3.0]])
    np.testing.assert_allclose(piece.eval_component(1, pts), pts[:, 0] ** 2, atol=1e-14)
    # finite-difference check of the (2,0) coefficient: f(h,0)-2f(0,0)+f(-h,0) over h^2
    h = 1e-3
    fd = (piece.eval_component(1, [[h, 0.0]])[0] - 2 * piece.eval_component(1, [[0.0, 0.0]])[0]
          + piece.eval_component(1, [[-h, 0.0]])[0]) / h**2
    assert abs(fd - 2.0) <= 1e-6


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
        xi = {(1, (k,)): float(rng.uniform(-3, 3)) for k in range(4)}
        x0 = float(rng.uniform(-1, 1))
        piece = taylor_poly((x0,), xi)

        def fn(t):
            return piece.eval_component(1, [[t]])[0]

        for k in range(4):
            fd = _fd_derivative(fn, x0, k, hs[k])
            assert abs(fd - xi[(1, (k,))]) <= 1e-6 * (1 + abs(xi[(1, (k,))]))


def test_jet_identity_exact_at_center():
    rng = np.random.default_rng(6)
    alphas = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    xi = {(1, a): float(rng.uniform(-2, 2)) for a in alphas}
    piece = taylor_poly((0.3, -0.2), xi)
    for a in alphas:
        got = piece.deriv_component(1, a, [[0.3, -0.2]])[0]
        assert got == pytest.approx(xi[(1, a)], abs=1e-12)


# ---------------------------------------------------------------------------
# jet solving

def test_solve_jet_linear_slot():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    jet = solve_jet(sys_, (0.0,), (0.45,))
    assert jet.values[(1, (1,))] == pytest.approx(0.45, abs=1e-10)
    assert jet.values[(1, (0,))] == 0.0


def test_solve_jet_against_bisection_oracle():
    # F = xi1^2 + xi0, target 3, pivot is the zeroth slot, anchor 0
    sys_ = parse_system("D(u1,(1))^2 + u1", 1, 1, 1)
    assert default_pivots(sys_) == ((1, (0,)),)
    jet = solve_jet(sys_, (0.0,), (3.0,))
    expected = bisect_oracle(lambda t: t - 3.0, -8.0, 8.0)
    assert jet.values[(1, (0,))] == pytest.approx(expected, abs=1e-10)
    assert jet.values[(1, (1,))] == 0.0


def test_solve_jet_nonlinear_pivot():
    # F = exp(xi0), target 2: root log(2) via the oracle
    sys_ = parse_system("exp(u1)", 1, 1, 0)
    jet = solve_jet(sys_, (0.0,), (2.0,))
    expected = bisect_oracle(lambda t: math.exp(t) - 2.0, 0.0, 2.0)
    assert jet.values[(1, (0,))] == pytest.approx(expected, abs=1e-9)
    assert jet.values[(1, (0,))] == pytest.approx(math.log(2.0), abs=1e-9)


def test_solve_jet_range_violation_sine():
    sys_ = parse_system("sin(u1)", 1, 1, 0)
    with pytest.raises(RangeViolation) as exc:
        solve_jet(sys_, (0.0,), (2.0,))
    assert exc.value.component == 1


def test_default_pivot_prefers_zeroth_then_first_derivative():
    assert default_pivots(parse_system("D(u1,(1))^2 + u1", 1, 1, 1)) == ((1, (0,)),)
    assert default_pivots(parse_system("D(u1,(1))", 1, 1, 1)) == ((1, (1,)),)
    two = parse_system("D(u1,(1))\nu2 + D(u1,(1))", 1, 2, 1)
    assert default_pivots(two) == ((1, (1,)), (2, (0,)))


def test_solve_jet_coupled_system_meets_both_targets():
    sys_ = parse_system("D(u1,(1))\nu2 + D(u1,(1))", 1, 2, 1)
    jet = solve_jet(sys_, (0.25,), (0.2, 1.2))
    from ocm.expr import eval_operator

    xi = jet.as_vector(sys_)
    got = eval_operator(sys_, (0.25,), xi)
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
        solve_jet(sys_, (0.25,), target)
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
        solve_jet(sys_, (0.25,), target)
    assert exc.value.component == component
    assert str(exc.value) == f"component {component} at x=(0.25,): {reason}"


def _solve_batch_and_alone(sys_, x, targets):
    """_solve_jets on the whole batch and on each point alone."""
    pivots = default_pivots(sys_)
    batch = _solve_jets(sys_, x, targets, None, pivots)
    alone = [_solve_jets(sys_, x[k:k + 1], targets[k:k + 1], None, pivots) for k in range(len(x))]
    return batch, alone


def test_batch_solve_matches_each_point_alone():
    # The scan keeps each point's first sign change in ascending order, so
    # how long it runs for the rest of the batch must not matter.  Every
    # root lies at |t| >= 4: there a bracket ends one ulp wide, where more
    # halvings change nothing, so points that a batch keeps bisecting
    # after they would have stopped alone still agree bit for bit.
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
    ]
    x = np.asarray([[a] for a, _ in cases])
    targets = np.asarray([[c] for _, c in cases])
    batch, alone = _solve_batch_and_alone(hole, x, targets)
    for k, one in enumerate(alone):
        assert one.xi.tobytes() == batch.xi[:, k:k + 1].tobytes(), cases[k]
        assert (one.fail[0], one.component[0]) == (batch.fail[k], batch.component[k]), cases[k]
    assert batch.xi[0, 4] == 8.0 and batch.xi[0, 5] == 16.0
    # solved, did not converge, no sign change, target not finite
    assert list(batch.fail) == [0, 0, 0, 4, 0, 0, 4, 1, 5, 5]

    # coupled K=2: equation 1 needs u2 from equation 2, so every point takes
    # two sweeps; exp(u2) = -1 has no sign change
    coupled = parse_system("u1 + sqrt(u2)\nexp(u2)", 1, 2, 0)
    x = np.asarray([[0.0], [0.5], [1.0], [0.75]])
    targets = np.asarray([[10.0, math.exp(5.0)], [-300.0, math.exp(100.0)], [7.0, -1.0],
                          [6.0, np.inf]])
    batch, alone = _solve_batch_and_alone(coupled, x, targets)
    for k, one in enumerate(alone):
        assert one.xi.tobytes() == batch.xi[:, k:k + 1].tobytes(), k
        assert (one.fail[0], one.component[0]) == (batch.fail[k], batch.component[k]), k
    assert list(batch.fail) == [0, 0, 1, 5]
    assert list(batch.component) == [0, 0, 2, 2]


def test_placement_non_convergence_reports_the_worst_center(monkeypatch):
    sys_ = parse_system("exp(u1)", 1, 1, 0)
    rhs = rhs_from_exprs(["2 + x1"], 1)
    p = build_partition(UNIT, 8)
    U, _ = place_and_certify(sys_, rhs, p, 0.1)
    # m = 0: the coefficients are the solved jets themselves
    resid = np.abs(eval_component_batch(sys_, 0, U.centers.T, U.coeffs[:, :, 0].T)
                   - (rhs(U.centers)[0] - 0.05))
    worst = int(np.argmax(resid))
    assert worst != 0 and resid[worst] > 0.0
    monkeypatch.setattr("ocm.approx.SOLVE_TOL", 0.0)
    with pytest.raises(RangeViolation) as exc:
        place_and_certify(sys_, rhs, p, 0.1)
    assert exc.value.x == tuple(U.centers[worst])
    assert "did not converge" in str(exc.value)


# ---------------------------------------------------------------------------
# local construction

def test_local_transport_example():
    # T u = u', f(x) = x, x0 = 0.5, eps = 0.1: slope 0.45, delta halves to 0.05
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["x1"], 1)
    delta, piece = local_approx(sys_, rhs, (0.5,), 0.1, box=UNIT, start_delta=0.1)
    assert delta == pytest.approx(0.05)
    assert piece.coeffs[0, 1] == pytest.approx(0.45, abs=1e-10)
    # residual 0.45 - x stays in [-0.1, 0] on [0.45, 0.55]
    xs = np.linspace(0.45, 0.55, 101).reshape(-1, 1)
    r = piece.coeffs[0, 1] - xs[:, 0]
    assert r.max() <= 1e-9 and r.min() >= -0.1 - 1e-9


def test_local_constant_operator_takes_whole_start_radius():
    sys_ = parse_system("u1", 1, 1, 1)
    rhs = rhs_from_exprs(["0"], 1)
    delta, piece = local_approx(sys_, rhs, (0.5,), 0.2, box=UNIT, start_delta=UNIT.diameter)
    assert delta == pytest.approx(UNIT.diameter)
    xs = np.linspace(0, 1, 9).reshape(-1, 1)
    np.testing.assert_allclose(piece.eval_component(1, xs), -0.1, atol=1e-10)


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


# ---------------------------------------------------------------------------
# partition planning

def per_point_plan(sys_, rhs, p, eps):
    """The probe loop one point at a time, as a reference: local_approx at
    every 3^n probe point of every cell, cells in C order; the first
    failing probe raises."""
    best = math.inf
    for c in range(p.n_cells):
        cbox = p.cell_box(c)
        for frac in itertools.product((0.25, 0.5, 0.75), repeat=p.n):
            x0 = tuple(a + f * (b - a) for a, b, f in zip(cbox.lo, cbox.hi, frac))
            delta, _ = local_approx(sys_, rhs, x0, eps, box=p.bounds, start_delta=cbox.diameter)
            best = min(best, delta)
    return best


SQUARE = Box((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("eqs,rhs_texts,n,K,box,cells,eps", [
    ("D(u1,(1))", ["x1"], 1, 1, UNIT, 10, 0.1),
    ("D(u1,(1))", ["x1"], 1, 1, UNIT, 10, 0.01),
    ("D(u1,(1,0)) + u1", ["x1*x2"], 2, 1, SQUARE, 4, 0.1),
    ("D(u1,(1))\nu2 + D(u1,(1))", ["x1", "1 + x1"], 1, 2, UNIT, 10, 0.05),
])
def test_planned_diameter_matches_per_point_probes(eqs, rhs_texts, n, K, box, cells, eps):
    sys_ = parse_system(eqs, n, K, 1)
    rhs = rhs_from_exprs(rhs_texts, n)
    p = build_partition(box, cells)
    fine = plan_partition(sys_, rhs, p, eps)
    assert fine.delta == per_point_plan(sys_, rhs, p, eps)
    assert fine.total_subcells > p.n_cells


@pytest.mark.parametrize("eqs,rhs_text,eps,error", [
    # steeper as x1 grows: the third probe of the first cell collapses
    ("u1", "10000 * x1^2", 0.01, DeltaCollapse),
    # unattainable for x1 > 0.45 only: the first probe of the third cell fails
    ("D(u1,(1))^2", "0.5 - x1", 0.1, RangeViolation),
    # radius collapse at the first probe, unattainable targets past x1 = 0.7
    ("exp(u1)", "20000 * (0.7 - x1)", 0.01, DeltaCollapse),
])
def test_planner_raises_at_the_first_failing_probe(eqs, rhs_text, eps, error):
    sys_ = parse_system(eqs, 1, 1, 1)
    rhs = rhs_from_exprs([rhs_text], 1)
    p = build_partition(UNIT, 4)
    with pytest.raises(error) as ref:
        per_point_plan(sys_, rhs, p, eps)
    with pytest.raises(error) as got:
        plan_partition(sys_, rhs, p, eps)
    assert type(got.value) is type(ref.value)
    assert got.value.x == ref.value.x
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# global construction

def test_global_transport_matches_worked_example():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    rhs = rhs_from_exprs(["x1"], 1)
    p = build_partition(UNIT, 10)
    U, cert = global_approx(sys_, rhs, p, 0.1, seed=3)
    assert U.n_pieces == 20
    widths = np.diff(U.partition.sub_edges[0][0])
    np.testing.assert_allclose(widths, 0.05)
    assert cert.passed
    assert cert.max_residual <= 1e-9
    assert cert.min_residual >= -0.1 - 1e-9
    # center residual identity: exactly -eps/2 up to solver tolerance
    centers = U.centers
    tv = U.jets(centers)[:, 0, 1]
    np.testing.assert_allclose(tv - centers[:, 0], -0.05, atol=1e-9)


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
    samples = sample_points(U.partition, per_cell=500, margin=0.05, seed=99)
    assert len(samples) >= 10_000
    cert = check_residual(sys_, U, rhs, 0.1, samples)
    assert cert.passed
    assert cert.components[0].samples == len(samples)


def test_check_residual_detects_injected_fault():
    sys_, rhs, U, _ = _transport_setup()
    bad = PiecewisePoly(
        partition=U.partition,
        skeleton=U.skeleton,
        alphas=U.alphas,
        coeffs=U.coeffs.copy(),
        centers=U.centers,
    )
    bad.coeffs[7, 0, 1] += 0.1  # push one piece's slope above the band
    samples = sample_points(U.partition, per_cell=200, margin=0.05, seed=5)
    cert = check_residual(sys_, rhs=rhs, U=bad, eps=0.1, samples=samples)
    assert not cert.passed
    lo, hi = bad.partition.subcell_bounds()
    offender = cert.components[0].offenders[0][0]
    assert lo[7, 0] <= offender[0] <= hi[7, 0]


def test_check_residual_empty_is_vacuous_but_flagged():
    sys_, rhs, U, _ = _transport_setup()
    cert = check_residual(sys_, U, rhs, 0.1, np.empty((0, 1)))
    assert cert.passed and cert.insufficient
    assert cert.components[0].samples == 0


def test_check_residual_rejects_skeleton_samples(monkeypatch):
    sys_, rhs, U, _ = _transport_setup()
    located = []
    locate = CellPartition.locate
    monkeypatch.setattr(CellPartition, "locate",
                        lambda self, pts: located.append(len(pts)) or locate(self, pts))
    with pytest.raises(ValueError, match="on the skeleton"):
        check_residual(sys_, U, rhs, 0.1, np.asarray([[0.3], [0.5]]))
    with pytest.raises(ValueError, match="outside domain"):
        check_residual(sys_, U, rhs, 0.1, np.asarray([[0.3], [1.5]]))
    # caller samples are located; drawn ones are checked against their subcell
    assert located == [2, 2]
    place_and_certify(sys_, rhs, U.partition, 0.1, seed=4)
    assert located == [2, 2]


@pytest.mark.parametrize("move,message", [
    ("face", "verification sample lies on the skeleton"),
    ("outside", "point outside domain"),
    # off the skeleton, but in a subcell other than the one it was drawn in
    ("neighbour", None),
])
def test_drawn_sample_outside_its_subcell_is_rejected(monkeypatch, move, message):
    sys_ = parse_system("D(u1,(1,0))", 2, 1, 1)
    rhs = rhs_from_exprs(["x1*x2"], 2)
    fine = subdivide(build_partition(SQUARE, 2), 0.3)
    draw = ocm.approx.sample_points

    def moved(p, per_cell, margin, seed):
        pts = draw(p, per_cell, margin, seed)
        lo, hi = p.subcell_bounds()
        s = 5 // per_cell
        if move == "face":
            pts[5, 0] = hi[s, 0]
        elif move == "outside":
            pts[5, 0] = 1.5
        else:
            pts[5] = 0.5 * (lo[s + 1] + hi[s + 1])
        return pts

    place_and_certify(sys_, rhs, fine, 0.1, samples_per_cell=3)  # the set as drawn is accepted
    monkeypatch.setattr(ocm.approx, "sample_points", moved)
    with pytest.raises(ValueError) as exc:
        place_and_certify(sys_, rhs, fine, 0.1, samples_per_cell=3)
    if message is not None:
        assert str(exc.value) == message


def test_solve_jet_respects_anchor_and_explicit_pivot():
    from ocm.approx import JetPoint

    sys_ = parse_system("D(u1,(1))^2 + u1", 1, 1, 1)
    anchor = JetPoint((0.0,), {(1, (0,)): 0.0, (1, (1,)): 2.0})
    jet = solve_jet(sys_, (0.0,), (5.0,), anchor=anchor, pivots=((1, (0,)),))
    # the derivative slot keeps its anchor value; the pivot absorbs the rest
    assert jet.values[(1, (1,))] == 2.0
    assert jet.values[(1, (0,))] == pytest.approx(1.0, abs=1e-10)
