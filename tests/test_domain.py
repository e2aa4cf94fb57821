"""Partition, subdivision, skeleton and sampling tests."""

import math

import numpy as np
import pytest

from ocm.domain import Box, CellPartition, build_partition, sample_points, skeleton_of, subdivide


def test_build_uniform_1d():
    p = build_partition(Box((0.0,), (1.0,)), 4)
    assert p.cells_per_axis == (4,)
    np.testing.assert_allclose(p.cell_edges[0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert p.total_subcells == 4


def test_build_tensor_2d():
    p = build_partition(Box((0.0, 0.0), (1.0, 2.0)), (2, 2))
    assert p.n_cells == 4
    boxes = [p.cell_box(i) for i in range(4)]
    assert {b.lo for b in boxes} == {(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0)}


def test_build_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Box((1.0,), (0.0,))


def test_subdivide_ceiling_rule():
    # ceil(1 / 0.3) = 4 equal parts of width 0.25
    p = build_partition(Box((0.0,), (1.0,)), 1)
    q = subdivide(p, 0.3)
    np.testing.assert_allclose(q.sub_edges[0][0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert q.total_subcells == 4


def test_subdivide_noop_when_conforming():
    p = build_partition(Box((0.0,), (0.25,)), 1)
    q = subdivide(p, 0.3)
    assert q.total_subcells == 1
    np.testing.assert_array_equal(q.sub_edges[0][0], p.sub_edges[0][0])


def test_subdivide_2d_diagonal_forces_split():
    # unit square has diameter sqrt(2) > 1, so delta=1 forces a 2x2 grid
    p = build_partition(Box((0.0, 0.0), (1.0, 1.0)), 1)
    q = subdivide(p, 1.0)
    assert q.total_subcells == 4
    assert q.max_subcell_diameter() <= 1.0 + 1e-12


def test_subdivide_idempotent():
    p = subdivide(build_partition(Box((0.0,), (1.0,)), 10), 0.025)
    q = subdivide(p, 0.025)
    for a, b in zip(p.sub_edges, q.sub_edges):
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea, eb)


def test_subdivided_volumes_sum_to_box_volume():
    for cells, delta in [((10,), 0.013), ((3, 2), 0.21)]:
        box = Box((0.0,) * len(cells), tuple(float(c) / 2 for c in cells))
        p = subdivide(build_partition(box, cells), delta)
        lo, hi = p.subcell_bounds()
        vol = float(np.sum(np.prod(hi - lo, axis=1)))
        assert abs(vol - box.volume) <= 1e-12 * box.volume


def test_skeleton_1d_endpoints():
    p = build_partition(Box((0.0,), (1.0,)), 4)
    s = skeleton_of(p)
    np.testing.assert_allclose(s.axis_values(0), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert s.contains((0.25,))
    assert not s.contains((0.3,))


def test_skeleton_2d_cross():
    p = build_partition(Box((0.0, 0.0), (1.0, 1.0)), (2, 2))
    s = skeleton_of(p)
    # the interior cross plus the outer boundary
    assert s.contains((0.5, 0.123))
    assert s.contains((0.321, 0.5))
    assert s.contains((0.0, 0.7))
    assert s.contains((0.7, 1.0))
    assert not s.contains((0.3, 0.7))


def _per_cell_partitions():
    """2D and 3D partitions whose two cells carry different subcell grids,
    so locate takes its per-cell path."""
    halves, unit = np.asarray([0.0, 0.5, 1.0]), np.asarray([0.0, 1.0])
    two = CellPartition(Box((0.0, 0.0), (1.0, 1.0)), (halves, unit),
                        [(halves[:2], np.asarray([0.0, 0.3, 1.0])),
                         (np.asarray([0.5, 0.75, 1.0]), unit)])
    three = CellPartition(Box((0.0,) * 3, (1.0,) * 3), (halves, unit, unit),
                          [(halves[:2], unit, np.asarray([0.0, 0.6, 1.0])),
                           (np.asarray([0.5, 0.625, 1.0]), np.asarray([0.0, 0.2, 1.0]), unit)])
    return [two, three]


def _random_tensor_partitions(rng, count):
    for k in range(count):
        n = 1 + k % 3
        lo = rng.uniform(-1.0, 1.0, n)
        box = Box(tuple(lo), tuple(lo + rng.uniform(0.5, 2.0, n)))
        p = build_partition(box, tuple(rng.integers(1, 4, n)))
        yield subdivide(p, rng.uniform(0.2, 1.5)) if k % 2 else p


def test_skeleton_batch_matches_scalar():
    # locate's face flag, contains_batch and the scalar contains agree on
    # points with about a third of their coordinates forced onto an edge,
    # the upper corner included; on tensor grids they also equal the
    # plain np.isin test against each axis's edge set
    rng = np.random.default_rng(3)
    parts = [(p, False) for p in _per_cell_partitions()]
    parts += [(p, True) for p in _random_tensor_partitions(rng, 30)]
    for p, tensor in parts:
        s = skeleton_of(p)
        lo, hi = np.asarray(p.bounds.lo), np.asarray(p.bounds.hi)
        pts = lo + rng.random((200, p.n)) * (hi - lo)
        for d in range(p.n):
            edges = s.axis_values(d)
            force = rng.random(len(pts)) < 0.3
            pts[force, d] = rng.choice(edges, int(force.sum()))
        pts[0] = hi
        pts[1, 0] = hi[0]
        _, on_face = p.locate(pts)
        batch = s.contains_batch(pts)
        scalar = np.asarray([s.contains(tuple(q)) for q in pts])
        np.testing.assert_array_equal(on_face, batch)
        np.testing.assert_array_equal(batch, scalar)
        assert on_face[:2].all() and on_face.any() and not on_face.all()
        if tensor:
            ref = np.any([np.isin(pts[:, d], s.axis_values(d)) for d in range(p.n)], axis=0)
            np.testing.assert_array_equal(on_face, ref)


def test_sample_points_containment_and_margin():
    p = build_partition(Box((0.0,), (1.0,)), 1)
    pts = sample_points(p, per_cell=1, margin=0.25, seed=0)
    assert pts.shape == (1, 1)
    assert 0.25 <= pts[0, 0] <= 0.75


def test_sample_points_off_skeleton():
    p = subdivide(build_partition(Box((0.0, 0.0), (1.0, 1.0)), (2, 2)), 0.3)
    s = skeleton_of(p)
    pts = sample_points(p, per_cell=3, margin=0.05, seed=1)
    assert not s.contains_batch(pts).any()


def test_sample_points_deterministic():
    p = build_partition(Box((0.0,), (1.0,)), 5)
    a = sample_points(p, per_cell=4, margin=0.1, seed=42)
    b = sample_points(p, per_cell=4, margin=0.1, seed=42)
    np.testing.assert_array_equal(a, b)


def test_sample_points_validates_args():
    p = build_partition(Box((0.0,), (1.0,)), 1)
    with pytest.raises(ValueError):
        sample_points(p, per_cell=0, margin=0.1)
    with pytest.raises(ValueError):
        sample_points(p, per_cell=1, margin=0.6)


def test_locate_tensor_grid():
    p = subdivide(build_partition(Box((0.0,), (1.0,)), 10), 0.05)
    assert p.total_subcells == 20
    flat, on = p.locate(np.asarray([[0.026], [0.074], [0.05], [1.0]]))
    assert flat[0] == 0 and flat[1] == 1
    assert not on[0] and not on[1]
    assert on[2] and on[3]


def test_locate_rejects_outside():
    p = build_partition(Box((0.0,), (1.0,)), 2)
    with pytest.raises(ValueError):
        p.locate(np.asarray([[1.5]]))


def test_subcell_centers_order_matches_locate():
    p = subdivide(build_partition(Box((0.0, 0.0), (1.0, 1.0)), (2, 2)), 0.4)
    centers = p.subcell_centers()
    flat, on = p.locate(centers)
    assert not on.any()
    np.testing.assert_array_equal(flat, np.arange(p.total_subcells))


def test_max_subcell_diameter():
    p = subdivide(build_partition(Box((0.0, 0.0), (1.0, 1.0)), (1, 1)), 0.5)
    d = p.max_subcell_diameter()
    lo, hi = p.subcell_bounds()
    expect = max(math.sqrt(((h - l) ** 2).sum()) for l, h in zip(lo, hi))
    assert d == pytest.approx(expect)
    assert d <= 0.5 + 1e-12
