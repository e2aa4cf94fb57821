"""Order comparison, order convergence, and refinement trace laws."""

import numpy as np
import pytest

from ocm.approx import RangeViolation, place_and_certify, rhs_from_exprs, taylor_poly
from ocm.baire import GridFn, make_lattice
from ocm.domain import TARGET_SAMPLES, Box, SampleSet, build_partition, skeleton_of
from ocm.expr import parse_system
from ocm.order import (
    OrderIntervalSeq,
    cauchy_gap,
    le_off_skeleton,
    nested_interval_valid,
    operator_image,
    order_converges,
    pullback_le,
    refine_solution,
    trace_csv_rows,
)

UNIT = Box((0.0,), (1.0,))
AXES = (np.linspace(0.05, 0.95, 10),)


def const_grid(c, mask=None):
    return GridFn(AXES, np.full(10, float(c)), mask)


def test_le_equal_off_gamma_both_ways():
    p = build_partition(UNIT, 4)
    gamma = skeleton_of(p)
    axes = (np.asarray([0.1, 0.25, 0.6]),)  # 0.25 lies on the skeleton
    f = GridFn(axes, np.asarray([1.0, 5.0, 2.0]))
    g = GridFn(axes, np.asarray([1.0, -5.0, 2.0]))
    assert le_off_skeleton(f, g, gamma)
    assert le_off_skeleton(g, f, gamma)
    # mutual comparison means equality off gamma
    off = ~gamma.contains_batch(np.stack([axes[0]], axis=1))
    np.testing.assert_array_equal(f.values[off], g.values[off])


def test_le_strict_order():
    f = GridFn(AXES, AXES[0])
    g = GridFn(AXES, AXES[0] + 1.0)
    assert le_off_skeleton(f, g)
    assert not le_off_skeleton(g, f)


def test_le_lattice_mismatch():
    f = GridFn(AXES, np.zeros(10))
    g = GridFn((np.linspace(0, 1, 5),), np.zeros(5))
    with pytest.raises(ValueError):
        le_off_skeleton(f, g)


def _slope_poly(slope):
    return taylor_poly(build_partition(UNIT, 1), [(0.5,)], [{(1, (0,)): 0.0, (1, (1,)): slope}])


def test_pullback_reflexive_and_ordered():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    u = _slope_poly(0.4)
    v = _slope_poly(0.5)
    assert pullback_le(sys_, u, u, AXES)
    assert pullback_le(sys_, u, v, AXES)  # images are constants 0.4 <= 0.5
    assert not pullback_le(sys_, v, u, AXES)


def test_pullback_mutual_implies_image_equality():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    # different representatives, same image: intercepts differ, slopes equal
    partition = build_partition(UNIT, 1)
    u = taylor_poly(partition, [(0.5,)], [{(1, (0,)): 0.0, (1, (1,)): 0.7}])
    v = taylor_poly(partition, [(0.5,)], [{(1, (0,)): 9.0, (1, (1,)): 0.7}])
    assert pullback_le(sys_, u, v, AXES) and pullback_le(sys_, v, u, AXES)
    (img_u,) = operator_image(sys_, u, AXES)
    (img_v,) = operator_image(sys_, v, AXES)
    off = ~(img_u.mask_array() | img_v.mask_array())
    np.testing.assert_array_equal(img_u.values[off], img_v.values[off])


def test_order_converges_sandwich():
    c = 2.0
    xs = [const_grid(c + ((-1) ** n) / n) for n in range(1, 51)]
    wit = OrderIntervalSeq([(const_grid(c - 1.0 / n), const_grid(c + 1.0 / n)) for n in range(1, 51)])
    assert order_converges(xs, const_grid(c), wit, tol=0.05)


def test_order_converges_constant_sequence():
    xs = [const_grid(1.0) for _ in range(5)]
    wit = OrderIntervalSeq([(const_grid(1.0), const_grid(1.0)) for _ in range(5)])
    assert order_converges(xs, const_grid(1.0), wit, tol=0.0)


def test_order_converges_rejects_nonvanishing_gap():
    xs = [const_grid((-1.0) ** n) for n in range(1, 21)]
    wit = OrderIntervalSeq([(const_grid(-1.0), const_grid(1.0)) for _ in range(20)])
    assert not order_converges(xs, const_grid(0.0), wit, tol=0.5)


def test_nested_intervals_shrinking_singleton():
    c = 0.7
    seq = OrderIntervalSeq([(const_grid(c - 1.0 / n), const_grid(c + 1.0 / n)) for n in range(1, 30)])
    assert nested_interval_valid(seq, [UNIT], tol=0.1)


def test_nested_intervals_persistent_gap_rejected():
    seq = OrderIntervalSeq([(const_grid(0.0), const_grid(1.0)) for _ in range(10)])
    assert not nested_interval_valid(seq, [UNIT], tol=0.1)
    # a subbox that holds no lattice node passes vacuously
    assert nested_interval_valid(seq, [Box((0.0,), (0.04,))], tol=0.1)


def test_nested_intervals_non_nested_rejected():
    pairs = [(const_grid(0.5), const_grid(1.0)), (const_grid(0.2), const_grid(1.0))]
    assert not nested_interval_valid(OrderIntervalSeq(pairs), [UNIT], tol=2.0)


def test_nested_intervals_emptied_passes():
    pairs = [(const_grid(0.0), const_grid(1.0)), (const_grid(2.0), const_grid(0.9))]
    assert nested_interval_valid(OrderIntervalSeq(pairs), [UNIT], tol=0.01)
    # emptied at one node: the gap elsewhere stays above tol, and still passes
    lower = np.zeros(10)
    lower[4] = 2.0
    pairs = [(const_grid(0.0), const_grid(1.0)), (GridFn(AXES, lower), const_grid(0.9))]
    assert nested_interval_valid(OrderIntervalSeq(pairs), [UNIT], tol=0.01)
    assert not nested_interval_valid(OrderIntervalSeq(pairs), [Box((0.0,), (0.4,))], tol=0.01)


# ---------------------------------------------------------------------------
# refinement traces

def _refine(eqs, rhs_texts, n_max, cells=10, K=1, m=1):
    sys_ = parse_system("\n".join(eqs), 1, K, m)
    rhs = rhs_from_exprs(rhs_texts, 1)
    p = build_partition(UNIT, cells)
    axes = make_lattice(UNIT, 64)
    return sys_, refine_solution(sys_, rhs, p, n_max, axes, seed=7)


def test_refine_identity_operator_closed_form():
    # T u = u, f = 0: every image is the constant -1/(2n)
    _, trace = _refine(["u1"], ["0"], 4)
    for step in trace.steps:
        off = ~step.images[0].mask_array()
        np.testing.assert_allclose(step.images[0].values[off], -0.5 / step.n, atol=1e-9)
        assert step.sup_gap_to_rhs == pytest.approx(0.5 / step.n, abs=1e-9)
        assert step.repairs == 0
        assert step.certificate.passed
    # envelope lower approaches 0 from below
    env = trace.envelope[0]
    off = ~env.lower.mask_array()
    np.testing.assert_allclose(env.lower.values[off], -0.125, atol=1e-9)
    np.testing.assert_allclose(env.upper.values, 0.0)


def test_cauchy_gap_closed_form():
    _, trace = _refine(["u1"], ["0"], 4)
    assert cauchy_gap(trace, 1, 1)[0] == 0.0
    assert cauchy_gap(trace, 1, 2)[0] == pytest.approx(0.25, abs=1e-9)
    assert cauchy_gap(trace, 2, 4)[0] == pytest.approx(0.125, abs=1e-9)


def test_refine_transport_monotone_certified():
    _, trace = _refine(["D(u1,(1))"], ["x1"], 10)
    assert trace.total_repairs == 0
    assert trace.all_certified
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        sel = ~(prev.images[0].mask_array() | cur.images[0].mask_array())
        assert np.all(cur.images[0].values[sel] >= prev.images[0].values[sel])
    for step in trace.steps:
        assert step.sup_gap_to_rhs <= 1.0 / step.n + 2e-9
        assert step.certificate.min_residual >= -step.eps - 1e-9
        assert step.certificate.max_residual <= 1e-9
    for n in range(1, 11):
        assert cauchy_gap(trace, n, 10)[0] <= 1.0 / n + 2e-9


def test_refine_single_step_trace():
    _, trace = _refine(["u1"], ["0"], 1)
    assert len(trace.steps) == 1
    assert trace.steps[0].repairs == 0
    assert trace.steps[0].cauchy_gap_prev == 0.0


@pytest.mark.parametrize("n_max", [1, 4])
def test_refine_plans_once_and_certifies_every_step_on_one_drawn_set(monkeypatch, n_max):
    # one plan, one certificate call for all steps, and the set streamed in
    # that one pass, never drawn whole; a one-step refine takes the same path
    import ocm.approx

    plans, planned, certified, streamed = [], [], [], []
    plan, check = ocm.approx.plan_partition, ocm.approx.check_residual
    chunk = SampleSet.chunk

    def counting_plan(*args, **kwargs):
        plans.append(args[3])  # eps
        planned.append(plan(*args, **kwargs))
        return planned[-1]

    def counting_checks(*args, **kwargs):
        certified.append(list(args[3]))  # epss
        return check(*args, **kwargs)

    def counting_chunks(self, first, count):
        streamed.append(self.partition)
        return chunk(self, first, count)

    def never(*args, **kwargs):
        raise AssertionError("refine drew its whole set")

    monkeypatch.setattr(ocm.approx, "plan_partition", counting_plan)
    monkeypatch.setattr(ocm.approx, "check_residual", counting_checks)
    monkeypatch.setattr(SampleSet, "chunk", counting_chunks)
    monkeypatch.setattr(ocm.approx, "sample_points", never)
    sys_, trace = _refine(["D(u1,(1))"], ["x1"], n_max)
    monkeypatch.undo()
    assert plans == [1 / n_max]
    (finest,) = planned
    fine = finest.partition
    # the plan's own pieces are the last step's
    assert trace.steps[-1].approximant is finest
    assert all(s.approximant.partition is fine for s in trace.steps)
    assert trace.all_certified
    # every step, the finest included, is certified in one call on one set
    assert certified == [[s.eps for s in trace.steps]]
    # each chunk drawn once, not once per step
    per_cell = -(-TARGET_SAMPLES // fine.total_subcells)
    step = max(1, ocm.approx.CHUNK // per_cell)
    assert len(streamed) == -(-fine.total_subcells // step)
    assert all(d is fine for d in streamed)
    rhs = rhs_from_exprs(["x1"], 1)
    for s in trace.steps:
        U, alone = place_and_certify(sys_, rhs, fine, s.eps, seed=7)
        assert s.approximant.coeffs.tobytes() == U.coeffs.tobytes()
        assert repr(s.certificate) == repr(alone)


def test_refine_placement_errors_precede_sample_errors(monkeypatch):
    # every step is placed before the shared set is drawn: exp(u1) = 0.3 + x1
    # plans and places at eps 1/3, but step 1's target 0.3 + x1 - 1/2 is
    # negative for x1 < 0.2, where exp reaches it nowhere
    import ocm.approx

    def never(*args, **kwargs):
        raise AssertionError("a sample was drawn before every step was placed")

    monkeypatch.setattr(SampleSet, "_draw", never)
    monkeypatch.setattr(ocm.approx, "sample_points", never)
    sys_ = parse_system("exp(u1)", 1, 1, 0)
    rhs = rhs_from_exprs(["0.3 + x1"], 1)
    p = build_partition(UNIT, 10)
    axes = make_lattice(UNIT, 64)
    ocm.approx.plan_partition(sys_, rhs, p, 1 / 3)
    for margin in (0.05, 0.6):  # a sound set, and one the sampler rejects
        with pytest.raises(RangeViolation, match="no sign change"):
            refine_solution(sys_, rhs, p, 3, axes, margin=margin)


@pytest.mark.parametrize("axes,message", [
    ((np.linspace(0.1, 0.9, 5),), "lattice has 1 axes, expected 2"),
    ((np.linspace(0.1, 0.9, 5), np.asarray([0.2, 0.6, 0.4])),
     "lattice coordinates must be strictly increasing"),
    ((np.linspace(0.1, 0.9, 5), np.asarray([])), "lattice coordinates must be strictly increasing"),
    ((np.linspace(0.1, 0.9, 5), np.asarray([0.5, 1.5])), "lattice node outside domain"),
    ((np.asarray([np.nan]), np.asarray([0.5])), "lattice node outside domain"),
])
def test_refine_checks_its_lattice_before_it_plans(monkeypatch, axes, message):
    # a lattice that does not fit the problem used to fail only after every
    # step had been planned, placed and certified
    import ocm.approx

    def never(*args, **kwargs):
        raise AssertionError("refine planned before checking its lattice")

    monkeypatch.setattr(ocm.approx, "plan_partition", never)
    sys_ = parse_system("D(u1,(1,0)) + D(u1,(0,1)) + u1", 2, 1, 1)
    rhs = rhs_from_exprs(["x1 + x2"], 2)
    p = build_partition(Box((0.0, 0.0), (1.0, 1.0)), (4, 4))
    with pytest.raises(ValueError, match=message):
        refine_solution(sys_, rhs, p, 10, axes)


def test_refine_locates_the_lattice_once(monkeypatch):
    # every step images its approximant on the one planned partition, so
    # one lookup of the lattice serves all of them
    from ocm.domain import CellPartition

    calls = []
    locate = CellPartition.locate

    def spy(self, pts):
        calls.append(len(pts))
        return locate(self, pts)

    monkeypatch.setattr(CellPartition, "locate", spy)
    sys_, trace = _refine(["D(u1,(1)) + u1"], ["x1"], 4)
    assert calls == [len(trace.axes[0])]
    monkeypatch.undo()
    first = trace.steps[0]  # no running maximum yet: the raw image
    for got, ref in zip(first.images, operator_image(sys_, first.approximant, trace.axes)):
        np.testing.assert_array_equal(got.values, ref.values)
        np.testing.assert_array_equal(got.mask_array(), ref.mask_array())


def test_refine_image_hook_counts_repairs(monkeypatch):
    import ocm.order

    sys_ = parse_system("u1", 1, 1, 1)
    rhs = rhs_from_exprs(["0"], 1)
    p = build_partition(UNIT, 4)
    axes = make_lattice(UNIT, 32)
    steps = []
    image = ocm.order._located_image

    def sabotage(*args):
        # refine images step n on its n-th call; step 2's image drops
        steps.append(len(steps) + 1)
        images = image(*args)
        if steps[-1] == 2:
            return [GridFn(g.axes, g.values - 1.0, g.mask) for g in images]
        return images

    monkeypatch.setattr(ocm.order, "_located_image", sabotage)
    trace = refine_solution(sys_, rhs, p, 3, axes)
    assert steps == [1, 2, 3]
    assert trace.total_repairs > 0
    # running max keeps the trace monotone anyway
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        sel = ~(prev.images[0].mask_array() | cur.images[0].mask_array())
        assert np.all(cur.images[0].values[sel] >= prev.images[0].values[sel])


def test_trace_feeds_nested_intervals():
    # lambda_n = image_n, mu_n = f: the squeeze from the refinement trace
    _, trace = _refine(["D(u1,(1))"], ["x1"], 8)
    pairs = [(s.images[0], trace.rhs_grid[0]) for s in trace.steps]
    assert nested_interval_valid(OrderIntervalSeq(pairs), [UNIT, Box((0.2,), (0.4,))], tol=0.2)


def test_trace_csv_rows_shape():
    _, trace = _refine(["u1"], ["0"], 3)
    rows = trace_csv_rows(trace)
    assert rows[0] == "n,eps,max_residual,min_residual,gap,repairs"
    assert len(rows) == 4
    assert rows[1].startswith("1,1.0,")


def test_envelope_pair_consistency():
    from ocm.baire import EnvelopePair

    _, trace = _refine(["u1"], ["0"], 3)
    assert all(env.is_consistent() for env in trace.envelope)
    flipped = EnvelopePair(lower=trace.rhs_grid[0], upper=trace.steps[0].images[0])
    assert not flipped.is_consistent()
