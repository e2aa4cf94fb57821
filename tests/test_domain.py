"""Partition, subdivision, skeleton and sampling tests."""

import math

import numpy as np
import pytest

from ocm.approx import place_and_certify, rhs_from_exprs
from ocm.domain import (CHUNK, MAX_SUBCELLS, Box, CellPartition, SampleSet, build_partition,
                        sample_points, skeleton_of, subdivide)
from ocm.expr import parse_system


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
    np.testing.assert_array_equal(p.splits, np.ones((4, 2)))
    # split counts arrive from outside the library: one integer row of
    # counts >= 1 per cell, one count per axis
    q = CellPartition(p.bounds, p.cell_edges, [[1, 2], [2, 1], [3, 3], [1, 1]])
    assert q.total_subcells == 2 + 2 + 9 + 1
    for bad in (np.ones((3, 2), dtype=int), np.ones((4, 1), dtype=int), np.ones(8, dtype=int),
                np.ones((4, 2)), np.ones((4, 2), dtype=bool), [[1, 2], [0, 1], [1, 1], [1, 1]],
                [[1, 1], [1, 1], [-2, 1], [1, 1]], [[1, 1], [1, 1], [1, 1], [1]]):
        with pytest.raises(ValueError):
            CellPartition(p.bounds, p.cell_edges, bad)


@pytest.mark.parametrize("counts", [(2.5,), 2.5, (2.0,), 0, (0,), (2, 2), ()])
def test_build_partition_needs_one_integer_count_per_axis(counts):
    # (2.5,) used to build 2 cells, and 2.5 alone raised a bare TypeError
    with pytest.raises(ValueError, match="one cell count >= 1 per axis of a 1-D box"):
        build_partition(Box((0.0,), (1.0,)), counts)
    for one in (3, np.int64(3), (3,), [np.int32(3)]):
        assert build_partition(Box((0.0,), (1.0,)), one).cells_per_axis == (3,)
    assert build_partition(Box((0.0, 0.0), (1.0, 1.0)), 2).cells_per_axis == (2, 2)


@pytest.mark.parametrize("counts", [(10**12,), (2**11, 2**11 + 1)])
def test_build_partition_refuses_a_grid_over_the_subcell_budget(counts):
    # 10**12 cells reached numpy's 7.28 TiB allocation error; neither grid
    # is allocated now
    box = Box((0.0,) * len(counts), (1.0,) * len(counts))
    with pytest.raises(ValueError, match=f"cells is over the budget of {MAX_SUBCELLS:,} subcells"):
        build_partition(box, counts)


@pytest.mark.parametrize("counts", [True, (True,), (np.int64(2), True)])
def test_a_bool_is_no_count(counts):
    # bool is an int: True used to build one cell and one lattice node
    from ocm.baire import make_lattice

    box = Box((0.0,) * np.size(counts), (1.0,) * np.size(counts))
    with pytest.raises(ValueError, match="one cell count >= 1 per axis"):
        build_partition(box, counts)
    with pytest.raises(ValueError, match="one lattice count >= 1 per axis"):
        make_lattice(box, counts)


@pytest.mark.parametrize("edges", [
    ([0.0, 2.0],),  # past the upper corner
    ([0.0, 0.7, 0.5, 1.0],),  # not increasing
    ([0.0, 0.5, 0.5, 1.0],),  # a cell of zero width
    ([0.25, 1.0],),  # short of the lower corner
    ([0.0],),  # no cell
    ([0.0, np.nan, 1.0],),
    ([[0.0, 1.0]],),  # not one array per axis
    ([0.0, 1.0], [0.0, 1.0]),  # two axes for a 1-D box
])
def test_cell_partition_checks_its_cell_edges(edges):
    # [0, 2] used to give subcells up to 2.0, and [0, 0.7, 0.5, 1] to
    # locate 0.6 in subcell 2 without an error
    box = Box((0.0,), (1.0,))
    with pytest.raises(ValueError, match="cell edges must be one strictly increasing array"):
        CellPartition(box, tuple(np.asarray(e) for e in edges), np.ones((1, 1), dtype=int))
    p = CellPartition(box, ([0.0, 0.25, 1.0],), [[2], [1]])
    assert p.cell_edges[0].dtype == float
    np.testing.assert_array_equal(p.subcell_bounds()[1], [[0.125, 0.25, 1.0]])


def test_build_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Box((1.0,), (0.0,))
    with pytest.raises(ValueError):
        Box((0.0, 0.5), (1.0, 0.5))


@pytest.mark.parametrize("lo,hi", [((0.0,), (math.inf,)), ((-math.inf, 0.0), (1.0, 1.0)),
                                   ((0.0,), (math.nan,))])
def test_box_corners_must_be_finite(lo, hi):
    # (0, inf) used to be accepted, then fail in build_partition as a
    # "degenerate box" at the nan lower corner of its subcells
    with pytest.raises(ValueError, match="box corners must be finite"):
        Box(lo, hi)


def test_subdivide_ceiling_rule():
    # ceil(1 / 0.3) = 4 equal parts of width 0.25
    p = build_partition(Box((0.0,), (1.0,)), 1)
    q = subdivide(p, 0.3)
    np.testing.assert_array_equal(q.splits, [[4]])
    lo, hi = q.subcell_bounds()
    np.testing.assert_allclose(lo[0], [0.0, 0.25, 0.5, 0.75])
    np.testing.assert_allclose(hi[0], [0.25, 0.5, 0.75, 1.0])
    assert q.total_subcells == 4


def test_subdivide_noop_when_conforming():
    p = build_partition(Box((0.0,), (0.25,)), 1)
    q = subdivide(p, 0.3)
    assert q.total_subcells == 1
    np.testing.assert_array_equal(q.splits, p.splits)
    np.testing.assert_array_equal(q.subcell_bounds(), p.subcell_bounds())


def test_subdivide_2d_diagonal_forces_split():
    # unit square has diameter sqrt(2) > 1, so delta=1 forces a 2x2 grid
    p = build_partition(Box((0.0, 0.0), (1.0, 1.0)), 1)
    q = subdivide(p, 1.0)
    assert q.total_subcells == 4
    assert q.max_subcell_diameter() <= 1.0 + 1e-12
    # re-subdividing multiplies each count: ceil(0.5 * sqrt(2) / 0.3) = 3
    r = subdivide(q, 0.3)
    np.testing.assert_array_equal(r.splits, q.splits * 3)
    assert r.max_subcell_diameter() <= 0.3


def test_subdivide_idempotent():
    p = subdivide(build_partition(Box((0.0,), (1.0,)), 10), 0.025)
    q = subdivide(p, 0.025)
    np.testing.assert_array_equal(q.splits, p.splits)
    np.testing.assert_array_equal(q.subcell_bounds(), p.subcell_bounds())
    # a smaller delta multiplies every non-conforming cell's counts
    for p in _per_cell_partitions() + list(_random_partitions(np.random.default_rng(13), 30)):
        delta = 0.7 * p.max_subcell_diameter()
        q = subdivide(p, delta)
        assert np.all(q.splits % p.splits == 0) and np.any(q.splits > p.splits)
        assert q.max_subcell_diameter() <= delta
        np.testing.assert_array_equal(subdivide(q, delta).splits, q.splits)


def test_subdivided_volumes_sum_to_box_volume():
    parts = []
    for cells, delta in [((10,), 0.013), ((3, 2), 0.21)]:
        box = Box((0.0,) * len(cells), tuple(float(c) / 2 for c in cells))
        parts.append(subdivide(build_partition(box, cells), delta))
    parts += _per_cell_partitions() + list(_random_partitions(np.random.default_rng(5), 30))
    for p in parts:
        lo, hi = p.subcell_bounds()
        box = p.bounds
        vol = float(np.sum(np.prod(hi - lo, axis=0)))
        assert abs(vol - box.volume) <= 1e-12 * box.volume
        # cell-major order, each cell's subcells in C order over edges
        # that are np.linspace of the cell's own bounds, bit for bit
        start = 0
        for c in range(p.n_cells):
            counts = tuple(p.splits[c])
            stop = start + math.prod(counts)
            cell = p.cell_box(c)
            axes = [np.linspace(cell.lo[d], cell.hi[d], counts[d] + 1) for d in range(p.n)]
            grid_lo = np.meshgrid(*[e[:-1] for e in axes], indexing="ij")
            grid_hi = np.meshgrid(*[e[1:] for e in axes], indexing="ij")
            np.testing.assert_array_equal(lo[:, start:stop], np.stack([g.ravel() for g in grid_lo]))
            np.testing.assert_array_equal(hi[:, start:stop], np.stack([g.ravel() for g in grid_hi]))
            start = stop
        assert start == p.total_subcells == lo.shape[1]


def test_skeleton_1d_endpoints():
    p = build_partition(Box((0.0,), (1.0,)), 4)
    s = skeleton_of(p)
    faces = np.asarray([[0.0], [0.25], [0.5], [0.75], [1.0]])
    assert s.contains_batch(faces).all()
    assert not s.contains_batch(faces[:-1] + 0.125).any()
    np.testing.assert_array_equal(s.contains_batch(np.asarray([[0.25], [0.3]])), [True, False])


def test_skeleton_2d_cross():
    p = build_partition(Box((0.0, 0.0), (1.0, 1.0)), (2, 2))
    s = skeleton_of(p)
    # the interior cross plus the outer boundary
    on = np.asarray([[0.5, 0.123], [0.321, 0.5], [0.0, 0.7], [0.7, 1.0]])
    assert s.contains_batch(on).all()
    assert not s.contains_batch(np.asarray([[0.3, 0.7]])).any()
    # outside the closed box nothing is on the skeleton, face values included
    assert not s.contains_batch(np.asarray([[0.5, 1.5], [-0.5, 0.5]])).any()


def _per_cell_partitions():
    """2D and 3D partitions whose cells carry different split counts, so
    neighbouring cells' interior splits do not line up."""
    halves, unit = np.asarray([0.0, 0.5, 1.0]), np.asarray([0.0, 1.0])
    two = CellPartition(Box((0.0, 0.0), (1.0, 1.0)), (halves, unit), np.asarray([[1, 2], [2, 1]]))
    three = CellPartition(Box((0.0,) * 3, (1.0,) * 3), (halves, unit, unit),
                          np.asarray([[1, 1, 2], [3, 2, 1]]))
    square = CellPartition(Box((0.0, 0.0), (1.0, 1.0)), (halves, np.asarray([0.0, 0.25, 1.0])),
                           np.asarray([[3, 1], [1, 2], [2, 2], [1, 3]]))
    return [two, three, square]


def _random_partitions(rng, count):
    """Uniform cell grids in 1-3D: unsplit, subdivided, or with random
    per-cell split counts."""
    for k in range(count):
        n = 1 + k % 3
        lo = rng.uniform(-1.0, 1.0, n)
        box = Box(tuple(lo), tuple(lo + rng.uniform(0.5, 2.0, n)))
        p = build_partition(box, tuple(rng.integers(1, 4, n)))
        if k % 3 == 1:
            p = subdivide(p, rng.uniform(0.2, 1.5))
        elif k % 3 == 2:
            p = CellPartition(p.bounds, p.cell_edges, rng.integers(1, 5, (p.n_cells, n)))
        yield p


def _on_skeleton_brute_force(p, pts):
    """A point is on the skeleton iff it lies in some subcell's closed box
    and on one of that subcell's faces."""
    lo, hi = p.subcell_bounds()
    x = pts[:, :, None]
    inside = np.all((lo <= x) & (x <= hi), axis=1)
    on_face = np.any((lo == x) | (x == hi), axis=1)
    return np.any(inside & on_face, axis=1)


def test_skeleton_batch_matches_scalar():
    # contains_batch and locate's face flag equal a
    # brute-force test over all subcell boxes, on points with about a
    # third of their coordinates forced onto an edge, the upper corner
    # included, and on points outside the box or not finite
    rng = np.random.default_rng(3)
    for p in _per_cell_partitions() + list(_random_partitions(rng, 30)):
        s = skeleton_of(p)
        lo, hi = np.asarray(p.bounds.lo), np.asarray(p.bounds.hi)
        sub_lo, sub_hi = p.subcell_bounds()
        pts = lo + rng.random((200, p.n)) * (hi - lo)
        for d in range(p.n):
            edges = np.union1d(sub_lo[d], sub_hi[d])
            force = rng.random(len(pts)) < 0.3
            pts[force, d] = rng.choice(edges, int(force.sum()))
        pts[0] = hi
        pts[1, 0] = hi[0]
        pts[2, 0] = hi[0] + 1.0
        pts[3, -1] = lo[-1] - 1.0
        pts[4, 0] = np.nan
        pts[5, -1] = -np.inf
        ref = _on_skeleton_brute_force(p, pts)
        np.testing.assert_array_equal(s.contains_batch(pts), ref)
        _, on_face = p.locate(pts[6:])
        np.testing.assert_array_equal(on_face, ref[6:])
        assert ref[:2].all() and not ref[2:6].any() and ref.any() and not ref.all()


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


def test_sample_i_lies_strictly_inside_subcell_i_div_per_cell():
    # the certificate takes each drawn sample's subcell from this order
    # instead of locating it, so the order and the lookup must agree
    rng = np.random.default_rng(11)
    parts = _per_cell_partitions() + list(_random_partitions(rng, 30))
    for k, p in enumerate(parts):
        per_cell = 1 + k % 4
        margin = rng.uniform(0.01, 0.45)
        pts = sample_points(p, per_cell, margin, seed=k)
        lo, hi = p.subcell_bounds()
        owner = np.arange(len(pts)) // per_cell
        assert np.all((lo[:, owner] < pts.T) & (pts.T < hi[:, owner]))
        # the drawn set hands out the same draw as (n, per_cell, count)
        # chunks, here 5 subcells wide, each checked against its subcells
        drawn = SampleSet(p, per_cell, margin, k)
        chunks = [drawn.chunk(s, 5) for s in range(0, p.total_subcells, 5)]
        np.testing.assert_array_equal(np.concatenate(chunks, axis=2),
                                      pts.reshape(-1, per_cell, p.n).T)
        assert all(c.shape[:2] == (p.n, per_cell) for c in chunks)
        assert sum(c.shape[2] for c in chunks) == p.total_subcells
        ref, on_face = p.locate(pts)
        assert not on_face.any()
        np.testing.assert_array_equal(ref, owner)


@pytest.mark.parametrize("per_cell", [1, 3, 7, 100, 65536])
def test_chunked_draws_equal_one_draw(per_cell):
    # each chunk's generator is advanced past the draws of the subcells
    # before it, so any split of the subcells into consecutive chunks, the
    # certificate's own included, gives one default_rng(seed).random draw;
    # 100 does not divide the 65,536-sample chunk, 65,536 fills it with
    # one subcell; a SampleSet refuses more samples per subcell than that
    p = _per_cell_partitions()[0]
    S, n, margin, seed = p.total_subcells, p.n, 0.05, 9
    lo, hi = p.subcell_bounds()
    u = np.random.default_rng(seed).random((S, per_cell, n)).T
    one = (u * (1.0 - 2.0 * margin) + margin) * (hi - lo)[:, None, :] + lo[:, None, :]
    np.testing.assert_array_equal(sample_points(p, per_cell, margin, seed), one.T.reshape(-1, n))
    rng = np.random.default_rng(per_cell)
    step = max(1, 65536 // per_cell)
    samples = SampleSet(p, per_cell, margin, seed)
    for cuts in ([0, S], list(range(0, S, step)) + [S], [0, 1, 2, S], [0] + sorted(rng.choice(
            np.arange(1, S), 2, replace=False).tolist()) + [S]):
        # each chunk is (n, per_cell, count), subcell axis last
        chunks = [samples.chunk(a, b - a) for a, b in zip(cuts, cuts[1:])]
        assert all(c.shape == (n, per_cell, b - a) for c, a, b in zip(chunks, cuts, cuts[1:]))
        np.testing.assert_array_equal(np.concatenate(chunks, axis=2), one)


def test_sample_points_peaks_below_one_and_a_half_outputs():
    # the (N, n) output is filled chunk by chunk from the subcell-last
    # draws; a whole-set transpose would hold a second array of all samples
    import tracemalloc

    p = build_partition(Box((0.0, 0.0), (1.0, 1.0)), (256, 256))
    p.subcell_bounds()  # the partition's own cache, not the sampler's
    tracemalloc.start()
    try:
        pts = sample_points(p, per_cell=16, margin=0.05, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pts.shape == (2**20, 2)
    assert peak < 1.6 * pts.nbytes


def test_sample_points_deterministic():
    p = build_partition(Box((0.0,), (1.0,)), 5)
    a = sample_points(p, per_cell=4, margin=0.1, seed=42)
    b = sample_points(p, per_cell=4, margin=0.1, seed=42)
    np.testing.assert_array_equal(a, b)


def test_sample_points_validates_args():
    p = build_partition(Box((0.0,), (1.0,)), 1)
    # 2.5 and True used to build a set that failed only when drawn or counted
    for per_cell in (0, 2.5, True):
        with pytest.raises(ValueError, match="per_cell must be an integer >= 1"):
            sample_points(p, per_cell=per_cell, margin=0.1)
    with pytest.raises(ValueError):
        sample_points(p, per_cell=1, margin=0.6)
    # 10**12 used to fail in numpy: "Unable to allocate 7.28 TiB"
    transport = parse_system("D(u1,(1))", 1, 1, 1), rhs_from_exprs(["x1"], 1)
    for per_cell in (CHUNK + 1, 10**12):
        with pytest.raises(ValueError, match=f"per_cell must be at most CHUNK = {CHUNK:,}"):
            sample_points(p, per_cell=per_cell, margin=0.1)
        with pytest.raises(ValueError, match=f"per_cell must be at most CHUNK = {CHUNK:,}"):
            place_and_certify(*transport, build_partition(Box((0.0,), (1.0,)), 10), 0.1,
                              samples_per_cell=per_cell)
    assert sample_points(p, per_cell=CHUNK, margin=0.1).shape == (CHUNK, 1)


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
    # points are (N, n): an (n, N) array of subcell centres is not N points
    for bad in (np.asarray([[0.3, 0.7]]), np.asarray([0.3, 0.7]), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match=r"points must be an \(N, 1\) array"):
            p.locate(bad)
    # a non-finite coordinate passes neither bound check
    q = subdivide(build_partition(Box((0.0, 0.0), (1.0, 1.0)), (2, 2)), 0.2)
    for bad in ([np.nan, 0.3], [0.3, np.inf], [-np.inf, 0.3]):
        with pytest.raises(ValueError, match="point outside domain"):
            q.locate(np.asarray([[0.3, 0.3], bad]))
    assert not skeleton_of(q).contains_batch(np.asarray([[np.nan, 0.5], [0.5, np.nan]])).any()


def test_subcell_centers_order_matches_locate():
    parts = [subdivide(build_partition(Box((0.0, 0.0), (1.0, 1.0)), (2, 2)), 0.4)]
    parts += _per_cell_partitions() + list(_random_partitions(np.random.default_rng(7), 30))
    for p in parts:
        centers = p.subcell_centers()
        flat, on = p.locate(centers.T)
        assert not on.any()
        np.testing.assert_array_equal(flat, np.arange(p.total_subcells))


def test_max_subcell_diameter():
    p = subdivide(build_partition(Box((0.0, 0.0), (1.0, 1.0)), (1, 1)), 0.5)
    assert p.max_subcell_diameter() <= 0.5 + 1e-12
    for q in [p] + _per_cell_partitions() + list(_random_partitions(np.random.default_rng(9), 30)):
        lo, hi = q.subcell_bounds()
        expect = max(math.sqrt(((h - l) ** 2).sum()) for l, h in zip(lo.T, hi.T))
        assert q.max_subcell_diameter() == expect


def test_axis_edges_equal_per_interval_linspace_byte_for_byte():
    # _axis_edges lays every cell interval of an axis in one vectorised
    # np.linspace per split count; its values must be the per-interval
    # np.linspace ones bit for bit, or subcell bounds, centres and every
    # output digest would move with the numpy release
    rng = np.random.default_rng(29)
    for _ in range(300):
        m = int(rng.integers(1, 12))
        lo = rng.uniform(-5.0, 5.0)
        e = np.concatenate([[lo], lo + np.cumsum(rng.uniform(1e-3, 3.0, m))])
        splits = rng.choice([1, 2, 3, 7, 10, 64, 125, 160], size=(m, 1))
        p = CellPartition(Box((e[0],), (e[-1],)), (e,), splits)
        edges = p._axis_edges(0)
        assert sorted(edges) == sorted(set(splits[:, 0].tolist()))
        for k, got in edges.items():
            want = np.concatenate([np.linspace(a, b, k + 1)[:-1] for a, b in zip(e[:-1], e[1:])]
                                  + [e[-1:]])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
