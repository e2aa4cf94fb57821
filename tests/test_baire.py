"""Envelope operator laws checked against a brute-force neighborhood oracle.

The oracle evaluates the defining formula directly: at an off-mask node
shrinking neighborhoods pin the value; at a masked node it sweeps every
Chebyshev index ball, takes the infimum (supremum) of the node's own
value together with all off-mask samples in the ball, and then the
supremum (infimum) over the sweep.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocm.baire import (
    GridFn,
    lower_baire,
    make_lattice,
    nlsc_regularize,
    operator_image,
    upper_baire,
)
from ocm.approx import PiecewisePoly, taylor_poly
from ocm.domain import Box, CellPartition, build_partition
from ocm.expr import multi_indices, parse_system


def oracle_lower(f: GridFn) -> np.ndarray:
    mask = f.mask_array()
    out = f.values.copy()
    shape = f.shape
    for idx in itertools.product(*(range(s) for s in shape)):
        if not mask[idx]:
            continue
        best = -np.inf
        for k in range(1, max(shape) + 1):
            vals = [f.values[idx]]
            for nb in itertools.product(
                *(range(max(0, idx[d] - k), min(shape[d], idx[d] + k + 1)) for d in range(f.n))
            ):
                if not mask[nb]:
                    vals.append(f.values[nb])
            best = max(best, min(vals))
        out[idx] = best
    return out


def oracle_upper(f: GridFn) -> np.ndarray:
    neg = GridFn(f.axes, -f.values, None if f.mask is None else f.mask)
    return -oracle_lower(neg)


def random_piecewise_gridfn(rng, allow_inf=True, shape=None) -> GridFn:
    """A random lattice in 1D or 2D, unless shape is given."""
    if shape is None:
        if int(rng.integers(1, 3)) == 1:
            shape = (int(rng.integers(4, 32)),)
        else:
            shape = (int(rng.integers(3, 12)), int(rng.integers(3, 12)))
    axes = tuple(np.sort(rng.uniform(0, 1, s)) + np.arange(s) * 1e-3 for s in shape)
    # piecewise-constant plateaus with jumps, plus noise
    vals = np.zeros(shape)
    flat = vals.reshape(-1)
    n_pieces = int(rng.integers(1, 5))
    cuts = np.sort(rng.choice(np.arange(1, flat.size), size=min(n_pieces, flat.size - 1), replace=False))
    start = 0
    for end in list(cuts) + [flat.size]:
        flat[start:end] = rng.uniform(-5, 5)
        start = end
    vals += rng.normal(0, 0.1, shape)
    if allow_inf and rng.random() < 0.3:
        where = rng.random(shape) < 0.05
        vals[where] = np.where(rng.random(shape)[where] < 0.5, np.inf, -np.inf)
    mask = rng.random(shape) < rng.uniform(0.0, 0.4)
    return GridFn(axes, vals, mask)


def test_continuous_sample_is_fixed_point():
    axes = (np.linspace(0, 1, 21),)
    f = GridFn(axes, axes[0] ** 2)
    np.testing.assert_array_equal(lower_baire(f).values, f.values)
    np.testing.assert_array_equal(upper_baire(f).values, f.values)


def test_step_jump_node_lowered():
    # f = 0 left of 0, 1 at and right of 0; the jump node sits on the mask
    axes = (np.linspace(-1, 1, 21),)
    vals = np.where(axes[0] < 0, 0.0, 1.0)
    mask = np.zeros(21, dtype=bool)
    mask[10] = True  # the node at 0
    f = GridFn(axes, vals, mask)
    low = lower_baire(f)
    assert low.values[10] == 0.0
    np.testing.assert_array_equal(low.values, oracle_lower(f))
    up = upper_baire(f)
    assert up.values[10] == 1.0


def test_constant_infinity_fixed():
    axes = (np.linspace(0, 1, 5),)
    f = GridFn(axes, np.full(5, np.inf), np.asarray([False, True, False, False, False]))
    np.testing.assert_array_equal(lower_baire(f).values, f.values)
    g = GridFn(axes, np.full(5, -np.inf))
    np.testing.assert_array_equal(upper_baire(g).values, g.values)


def test_regularize_removes_single_node_dip():
    # continuous profile with one masked node dipped to -5
    axes = (np.asarray([0.0, 1.0, 2.0, 3.0, 4.0]),)
    vals = np.asarray([0.0, 1.0, -5.0, 3.0, 4.0])
    mask = np.asarray([False, False, True, False, False])
    f = GridFn(axes, vals, mask)
    fixed = nlsc_regularize(f)
    # value restored from the off-mask neighbors: min(1, 3) per the oracle
    g = GridFn(axes, oracle_upper(f), mask)
    expected = oracle_lower(g)
    np.testing.assert_array_equal(fixed.values, expected)
    assert fixed.values[2] == 1.0


def test_regularize_filler_independent():
    axes = (np.asarray([0.0, 1.0, 2.0]),)
    mask = np.asarray([False, True, False])
    a = nlsc_regularize(GridFn(axes, np.asarray([2.0, 99.0, 5.0]), mask))
    b = nlsc_regularize(GridFn(axes, np.asarray([2.0, -99.0, 5.0]), mask))
    np.testing.assert_array_equal(a.values, b.values)


def test_laws_on_random_gridfns_against_oracle():
    rng = np.random.default_rng(11)
    more = np.random.default_rng(12)
    # 3D lattices, then fully masked lattices in 1D, 2D and 3D
    extra = [random_piecewise_gridfn(more, shape=tuple(more.integers(3, 6, 3))) for _ in range(8)]
    extra += [random_piecewise_gridfn(more, shape=s) for s in ((9,), (5, 7), (4, 3, 5))]
    extra[8:] = [GridFn(f.axes, f.values, np.ones(f.shape, dtype=bool)) for f in extra[8:]]
    for f in itertools.chain((random_piecewise_gridfn(rng) for _ in range(40)), extra):
        low = lower_baire(f)
        up = upper_baire(f)
        # oracle equivalence
        np.testing.assert_array_equal(low.values, oracle_lower(f))
        np.testing.assert_array_equal(up.values, oracle_upper(f))
        # envelope ordering
        assert np.all(low.values <= f.values)
        assert np.all(f.values <= up.values)
        # idempotence, exact
        np.testing.assert_array_equal(lower_baire(low).values, low.values)
        np.testing.assert_array_equal(upper_baire(up).values, up.values)
        reg = nlsc_regularize(f)
        np.testing.assert_array_equal(nlsc_regularize(reg).values, reg.values)
        # duality
        neg = GridFn(f.axes, -f.values, f.mask)
        np.testing.assert_array_equal(upper_baire(neg).values, -low.values)
        # monotonicity
        bump = np.abs(rng.normal(0, 1, f.shape))
        g = GridFn(f.axes, f.values + bump, f.mask)
        assert np.all(lower_baire(f).values <= lower_baire(g).values)
        assert np.all(upper_baire(f).values <= upper_baire(g).values)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=12),
       st.lists(st.booleans(), min_size=3, max_size=12))
def test_property_idempotence_and_duality(values, maskbits):
    k = min(len(values), len(maskbits))
    axes = (np.arange(k, dtype=float),)
    f = GridFn(axes, np.asarray(values[:k]), np.asarray(maskbits[:k]))
    low = lower_baire(f)
    np.testing.assert_array_equal(lower_baire(low).values, low.values)
    neg = GridFn(axes, -f.values, f.mask)
    np.testing.assert_array_equal(lower_baire(neg).values, -upper_baire(f).values)


# the identity operator's image is u itself, sampled off the skeleton and regularized
IDENTITY = parse_system("u1", 1, 1, 1)


def _line_poly(partition, slope, intercept=0.0):
    centers = partition.subcell_centers().T  # taylor_poly takes centre points
    return taylor_poly(partition, centers, [{(1, (0,)): intercept + slope * c[0], (1, (1,)): slope}
                                            for c in centers])


@pytest.mark.parametrize("counts", [(4,), (4, 4, 4), (4, 0), 0, (4, 2.5)])
def test_make_lattice_needs_one_count_per_axis(counts):
    # (4,) used to raise a bare IndexError, (4, 4, 4) to build a 4x4
    # lattice, and a 0 count an empty axis
    with pytest.raises(ValueError, match="one lattice count >= 1 per axis of a 2-D box"):
        make_lattice(Box((0.0, 0.0), (1.0, 1.0)), counts)
    axes = make_lattice(Box((0.0, 0.0), (1.0, 2.0)), (2, 1))
    assert [a.tolist() for a in axes] == [[0.25, 0.75], [1.0]]


def test_embed_single_piece_identity_off_skeleton():
    partition = build_partition(Box((0.0,), (1.0,)), 1)
    u = _line_poly(partition, 1.0)  # u(x) = x globally
    axes = make_lattice(Box((0.0,), (1.0,)), 16)
    (g,) = operator_image(IDENTITY, u, axes)
    assert g.mask is None or not g.mask.any()
    np.testing.assert_allclose(g.values, axes[0], atol=1e-12)


def test_embed_two_pieces_same_polynomial():
    partition = build_partition(Box((0.0,), (1.0,)), 2)
    u = _line_poly(partition, 2.0, intercept=-0.5)
    axes = (np.asarray([0.1, 0.3, 0.5, 0.7, 0.9]),)  # 0.5 on the interior face
    (g,) = operator_image(IDENTITY, u, axes)
    off = ~g.mask_array()
    np.testing.assert_allclose(g.values[off], 2.0 * axes[0][off] - 0.5, atol=1e-12)
    # interior face node is regularized from neighbors (within lattice pitch)
    assert g.mask_array()[2]
    assert abs(g.values[2] - 0.5) <= 0.4 + 1e-12


def test_embed_jump_takes_lower_value():
    # pieces 0 on [0, .5], 1 on [.5, 1]: the face node gets 0
    partition = build_partition(Box((0.0,), (1.0,)), 2)
    centers = partition.subcell_centers().T
    u = taylor_poly(partition, centers, [{(1, (0,)): 0.0 if c[0] < 0.5 else 1.0, (1, (1,)): 0.0}
                                         for c in centers])
    axes = (np.asarray([0.1, 0.3, 0.5, 0.7, 0.9]),)
    (g,) = operator_image(IDENTITY, u, axes)
    assert g.values[2] == 0.0


def _uneven_2d_poly():
    """Random linear pieces on 2x2 cells with unequal split counts; the
    lattice below puts nodes on cell edges and on interior splits."""
    halves = np.asarray([0.0, 0.5, 1.0])
    p = CellPartition(Box((0.0, 0.0), (1.0, 1.0)), (halves, halves),
                      np.asarray([[1, 2], [2, 1], [2, 2], [1, 4]]))
    rng = np.random.default_rng(4)
    alphas = multi_indices(2, 1)
    return PiecewisePoly(partition=p, alphas=alphas,
                         coeffs=rng.normal(size=(1, len(alphas), p.total_subcells)),
                         centers=p.subcell_centers())


UNEVEN_AXES = (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 17))


def test_image_locates_the_lattice_once(monkeypatch):
    # one lookup gives both the skeleton mask and every free node's piece
    calls = []
    locate = CellPartition.locate

    def spy(self, pts):
        calls.append(len(pts))
        return locate(self, pts)

    monkeypatch.setattr(CellPartition, "locate", spy)
    u = _uneven_2d_poly()
    nodes = len(UNEVEN_AXES[0]) * len(UNEVEN_AXES[1])
    operator_image(parse_system("D(u1,(1,0)) * u1", 2, 1, 1), u, UNEVEN_AXES)
    assert calls == [nodes]


def test_gridfn_rejects_nan_and_bad_shapes():
    with pytest.raises(ValueError):
        GridFn((np.asarray([0.0, 1.0]),), np.asarray([np.nan, 1.0]))
    with pytest.raises(ValueError):
        GridFn((np.asarray([0.0, 1.0]),), np.asarray([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        GridFn((np.asarray([1.0, 0.0]),), np.asarray([1.0, 2.0]))
    # `diff(a) <= 0` is False at a nan, and an infinite node is increasing:
    # the axis check used to pass all four
    for axis in ([0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [np.nan]):
        with pytest.raises(ValueError):
            GridFn((np.asarray(axis),), np.zeros(len(axis)))
