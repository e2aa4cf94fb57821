"""Rectangular domains, cell partitions, face skeletons and the
certificate's sample set.

The domain is one bounding box tiled by a grid of cells.  Each cell is
split into an equal-spaced grid of subcells, with its own integer number
of parts per axis, and subcells are numbered cell-major: cells in C
order, then each cell's subcells in C order.  The skeleton collects every
cell and subcell face.  It is a finite union of axis-aligned hyperplane
patches, so it is closed, has empty interior and Lebesgue measure zero.
Membership is a face test on the partition: a point is on the skeleton
iff it equals a cell edge or an interior split of its own cell, decided
by exact coordinate comparison (a cell's edges on an axis are always the
same ``np.linspace`` of its side).  A ``SampleSet`` draws its samples
off the skeleton and checks each inside the subcell it was drawn in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box",
    "CellPartition",
    "Skeleton",
    "build_partition",
    "subdivide",
    "skeleton_of",
    "SampleSet",
    "sample_points",
]

# the most subcells a partition may hold: four times the 1,048,576 the
# probe plan once certified, and far above any problem the benchmark runs
MAX_SUBCELLS = 2**22
# subcell centres solved, or certificate samples drawn and checked, per
# batch; also the most samples a SampleSet may draw per subcell
CHUNK = 65_536


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("corner dimensions differ")
        if not all(map(math.isfinite, (*self.lo, *self.hi))):
            raise ValueError(f"box corners must be finite, got {self.lo} and {self.hi}")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"degenerate box: lower corner {self.lo} not below upper {self.hi}")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def diameter(self) -> float:
        return math.sqrt(sum(s * s for s in self.sides))

    @property
    def volume(self) -> float:
        v = 1.0
        for s in self.sides:
            v *= s
        return v


def _edge_index(edges: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval index of each x in the sorted edge array, and whether x
    equals an edge.

    The index j satisfies edges[j] <= x < edges[j + 1], clipped to the
    first and last interval, so x == edges[-1] lands in the last one.
    Since searchsorted already brackets x, the edge test only compares
    x with its two neighbouring edges instead of searching all of them.
    """
    j = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)
    return j, (edges[j] == x) | (edges[j + 1] == x)


@dataclass
class CellPartition:
    """A box tiled by a grid of cells, each cell split into equal subcells.

    ``cell_edges`` are the per-axis cell boundary coordinates, from the
    box's lower corner to its upper, strictly increasing.  Cells are
    numbered in C order over the cell grid, and ``splits[c, d]`` is the
    number of equal parts of cell ``c`` along axis ``d``: its subcell
    edges there are ``np.linspace(lo, hi, splits[c, d] + 1)`` over the
    cell's own side.  Subcells are numbered cell-major: cell 0's subcells
    in C order over its own grid, then cell 1's, and so on.  Per-subcell
    arrays (``subcell_bounds``, ``subcell_centers``) are (n, S), subcell
    axis last; points, as ``locate`` takes them, are (N, n).  A partition
    is not changed after construction; ``subdivide`` and each planning
    round build a new one.
    """

    bounds: Box
    cell_edges: tuple[np.ndarray, ...]
    splits: np.ndarray
    _bounds: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.cell_edges = tuple(np.asarray(e, dtype=float) for e in self.cell_edges)
        if len(self.cell_edges) != self.n or not all(
                e.ndim == 1 and len(e) > 1 and e[0] == lo and e[-1] == hi
                and np.all(np.diff(e) > 0)
                for e, lo, hi in zip(self.cell_edges, self.bounds.lo, self.bounds.hi)):
            raise ValueError("cell edges must be one strictly increasing array per axis, "
                             "from the lower to the upper corner of the box")
        splits = np.asarray(self.splits)
        shape = (self.n_cells, self.n)
        if splits.shape != shape or splits.dtype.kind not in "iu" or np.any(splits < 1):
            raise ValueError(f"splits must be integers >= 1 of shape {shape}")
        self.splits = splits.astype(np.int64)

    @property
    def n(self) -> int:
        return self.bounds.n

    @property
    def cells_per_axis(self) -> tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.cell_edges)

    @property
    def n_cells(self) -> int:
        count = 1
        for c in self.cells_per_axis:
            count *= c
        return count

    def cell_box(self, flat: int) -> Box:
        idx = np.unravel_index(flat, self.cells_per_axis)
        lo = tuple(float(self.cell_edges[d][idx[d]]) for d in range(self.n))
        hi = tuple(float(self.cell_edges[d][idx[d] + 1]) for d in range(self.n))
        return Box(lo, hi)

    def _cell_indices(self) -> tuple[np.ndarray, ...]:
        """Per-axis interval index of every cell, each (n_cells,)."""
        return np.unravel_index(np.arange(self.n_cells), self.cells_per_axis)

    def _axis_edges(self, d: int) -> dict[int, np.ndarray]:
        """Subcell edges on axis d for each split count k used there.

        Entry k lays every cell interval split k times end to end, so
        interval i owns entries i*k to (i+1)*k: the np.linspace of that
        interval, which are the own edges of every cell over it that is
        split k times on axis d.  One vectorised np.linspace per k lays
        all intervals at once, bit for bit the per-interval values.
        """
        e = self.cell_edges[d]
        return {k: np.concatenate([np.linspace(e[:-1], e[1:], k + 1, axis=1)[:, :-1].ravel(),
                                   e[-1:]])
                for k in np.unique(self.splits[:, d]).tolist()}

    def _subcell_widths(self) -> np.ndarray:
        """Widest subcell side of every cell along every axis, (n_cells, n) like splits."""
        lo, hi = self.subcell_bounds()
        return np.maximum.reduceat(hi - lo, self._offsets[:-1], axis=1).T

    # -- flat subcell enumeration ------------------------------------------

    @property
    def _offsets(self) -> np.ndarray:
        """Flat index of each cell's first subcell, then the total, (n_cells + 1,)."""
        return np.concatenate([[0], np.cumsum(self.splits.prod(axis=1))])

    @property
    def total_subcells(self) -> int:
        return int(self.splits.prod(axis=1).sum())

    def subcell_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of all subcells, (n, S), cell-major flat
        order; built on the first call and shared, read-only, after it."""
        if self._bounds is not None:
            return self._bounds
        offsets = self._offsets
        lo = np.empty((self.n, offsets[-1]))
        hi = np.empty_like(lo)
        axes = [self._axis_edges(d) for d in range(self.n)]
        where = self._cell_indices()
        for c in range(self.n_cells):
            counts = self.splits[c].tolist()
            for d, k in enumerate(counts):
                i = where[d][c]
                e = axes[d][k][i * k: (i + 1) * k + 1]
                along = [-1 if a == d else 1 for a in range(self.n)]
                lo[d, offsets[c]: offsets[c + 1]].reshape(counts)[...] = e[:-1].reshape(along)
                hi[d, offsets[c]: offsets[c + 1]].reshape(counts)[...] = e[1:].reshape(along)
        lo.flags.writeable = hi.flags.writeable = False
        self._bounds = lo, hi
        return self._bounds

    def subcell_centers(self) -> np.ndarray:
        """Centre of every subcell, (n, S)."""
        lo, hi = self.subcell_bounds()
        return 0.5 * (lo + hi)

    def max_subcell_diameter(self) -> float:
        return float(np.sqrt(np.square(self._subcell_widths()).sum(axis=1)).max())

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map points (N, n) to flat subcell indices; also flag points
        lying exactly on any cell or subcell face.  Points outside the
        box, non-finite points and other shapes raise ValueError.

        The cell comes from the cell edges, then the subcell from that
        cell's own edges, which include its boundary: a point is on a
        face iff it equals a cell edge or an interior split of its own
        cell.  All cells split equally often on an axis are searched at
        once.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must be an (N, {self.n}) array, got shape {pts.shape}")
        if not np.all((pts >= self.bounds.lo) & (pts <= self.bounds.hi)):
            raise ValueError("point outside domain")
        where = [_edge_index(edges, pts[:, d])[0] for d, edges in enumerate(self.cell_edges)]
        cell = np.ravel_multi_index(where, self.cells_per_axis)
        sub = np.zeros(len(pts), dtype=np.int64)
        on_face = np.zeros(len(pts), dtype=bool)
        for d in range(self.n):
            counts = self.splits[cell, d]
            local = np.empty(len(pts), dtype=np.int64)
            for k, edges in self._axis_edges(d).items():
                mine = counts == k
                j, on = _edge_index(edges, pts[mine, d])
                local[mine] = j - where[d][mine] * k
                on_face[mine] |= on
            sub = sub * counts + local
        return self._offsets[cell] + sub, on_face


def _axis_counts(bounds: Box, counts, what: str) -> tuple[int, ...]:
    """counts as one integer >= 1 per axis of bounds; one count applies to
    all, and a bool is no count."""
    counts = counts if np.iterable(counts) else (counts,) * bounds.n
    if len(counts) != bounds.n or not all(isinstance(c, (int, np.integer))
                                          and not isinstance(c, bool) and c >= 1
                                          for c in counts):
        raise ValueError(f"need one {what} count >= 1 per axis of a {bounds.n}-D box, "
                         f"got {counts!r}")
    return tuple(int(c) for c in counts)


def build_partition(bounds: Box, cells_per_axis) -> CellPartition:
    """Tile a box with a uniform grid of cells (no subdivision yet); one
    integer cell count per axis, or a single one for every axis.  A grid
    of more than MAX_SUBCELLS cells is refused before anything is built,
    since no plan on it could keep to that budget."""
    cells_per_axis = _axis_counts(bounds, cells_per_axis, "cell")
    total = math.prod(cells_per_axis)
    if total > MAX_SUBCELLS:
        raise ValueError(f"a grid of {total:,} cells is over the budget of {MAX_SUBCELLS:,} subcells")
    cell_edges = tuple(
        np.linspace(bounds.lo[d], bounds.hi[d], cells_per_axis[d] + 1) for d in range(bounds.n)
    )
    splits = np.ones((total, bounds.n), dtype=np.int64)
    return CellPartition(bounds=bounds, cell_edges=cell_edges, splits=splits)


def subdivide(p: CellPartition, delta: float) -> CellPartition:
    """Refine subcells until every diameter is at most delta.

    A cell whose subcells already conform keeps its split counts, which
    makes the operation idempotent.  Otherwise each axis count c with
    subcell width w becomes c * ceil(w * sqrt(n) / delta), bounding the
    subcell diameter by delta.
    """
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    widths = p._subcell_widths()
    conforming = np.sqrt(np.square(widths).sum(axis=1)) <= delta
    # tiny slack keeps exact ratios from rounding up to an extra part
    parts = np.maximum(1, np.ceil(widths * math.sqrt(p.n) / delta - 1e-9)).astype(np.int64)
    splits = np.where(conforming[:, None], p.splits, p.splits * parts)
    return CellPartition(bounds=p.bounds, cell_edges=p.cell_edges, splits=splits)


@dataclass(frozen=True)
class Skeleton:
    """Union of all cell and subcell faces of a partition, the outer
    boundary included, decided by the partition's own point location."""

    partition: CellPartition

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        """Whether each point (N, n) lies on a face; points outside the
        closed box, and non-finite points, do not."""
        pts = np.asarray(pts, dtype=float)
        b = self.partition.bounds
        inside = np.all((pts >= b.lo) & (pts <= b.hi), axis=1)
        out = np.zeros(len(pts), dtype=bool)
        out[inside] = self.partition.locate(pts[inside])[1]
        return out


def skeleton_of(p: CellPartition) -> Skeleton:
    """All subcell boundary faces, including the outer boundary."""
    return Skeleton(partition=p)


# the fewest samples a SampleSet holds when per_cell is not given
TARGET_SAMPLES = 10_000


@dataclass(frozen=True)
class SampleSet:
    """The certificate's sample set: ``per_cell`` points, at most CHUNK,
    in every subcell of ``partition``, each at least ``margin`` times the
    subcell width off every face; ``per_cell=None`` takes the fewest that
    give TARGET_SAMPLES.  Sample i lies in subcell i // per_cell, and the set
    is one ``default_rng(seed).random`` draw mapped into the subcells.
    Its length is the sample count.  It is streamed, never held whole:
    ``chunk`` draws any run of subcells and checks each sample strictly
    inside the subcell it was drawn in, which proves its subcell and that
    it is in the domain and off the skeleton, so no sample is located.
    """

    partition: CellPartition
    per_cell: int | None
    margin: float
    seed: int = 0

    def __post_init__(self):
        if self.per_cell is None:
            object.__setattr__(self, "per_cell",
                               max(1, math.ceil(TARGET_SAMPLES / self.partition.total_subcells)))
        per_cell = self.per_cell
        if isinstance(per_cell, bool) or not isinstance(per_cell, (int, np.integer)) or per_cell < 1:
            raise ValueError(f"per_cell must be an integer >= 1, got {per_cell!r}")
        if per_cell > CHUNK:  # checked before a draw could ask for terabytes
            raise ValueError(f"per_cell must be at most CHUNK = {CHUNK:,}, got {per_cell:,}")
        if not (0.0 < self.margin < 0.5):
            raise ValueError("margin must be in (0, 0.5)")

    def __len__(self) -> int:
        return self.partition.total_subcells * self.per_cell

    def _draw(self, first: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Unchecked samples of the subcells with corners lo, hi (n, 1, count)
        from subcell first on, the generator advanced past earlier subcells.
        The (count, per_cell, n) draw is mapped into the subcell-last array,
        so numpy's innermost loop runs over subcells, not coordinates."""
        n, per_cell, margin = self.partition.n, self.per_cell, self.margin
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.advance(first * per_cell * n)  # one 64-bit step per double
        u = rng.random((lo.shape[2], per_cell, n)).T
        # lo + (margin + u * (1 - 2 margin)) * width, computed in place
        pts = np.multiply(u, 1.0 - 2.0 * margin, out=np.empty(u.shape))
        pts += margin
        pts *= hi - lo
        pts += lo
        return pts

    def chunk(self, first: int, count: int) -> np.ndarray:
        """The samples of subcells first, ..., first + count - 1, (n,
        per_cell, count): column [:, k, s] is sample k of subcell first + s.
        A sample not strictly inside its subcell raises ValueError; only
        then are the failing samples located, to name the fault."""
        lo, hi = (b[:, None, first: first + count] for b in self.partition.subcell_bounds())
        pts = self._draw(first, lo, hi)
        inside = (lo < pts) & (pts < hi)
        if not inside.all():
            bad = ~inside.all(axis=0)
            if not np.all(np.isfinite(pts[:, bad])):
                raise ValueError("verification sample is not finite")
            found, on_face = self.partition.locate(pts[:, bad].T)  # or "point outside domain"
            if on_face.any():
                raise ValueError("verification sample lies on the skeleton")
            raise ValueError(f"verification sample drawn in subcell {first + bad.nonzero()[1][0]} "
                             f"lies in subcell {found[0]}")
        return pts


def sample_points(p: CellPartition, per_cell: int, margin: float, seed: int = 0) -> np.ndarray:
    """All of SampleSet(p, per_cell, margin, seed) as one (N, n) array,
    sample i in subcell i // per_cell.  It is filled from the set's
    checked chunks, so no second array of all samples is made."""
    samples = SampleSet(p, per_cell, margin, seed)
    out = np.empty((p.total_subcells, samples.per_cell, p.n))
    step = CHUNK // samples.per_cell  # subcells per chunk, about CHUNK samples
    for first in range(0, p.total_subcells, step):
        out[first: first + step] = samples.chunk(first, step).T
    return out.reshape(-1, p.n)
