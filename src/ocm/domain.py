"""Rectangular domains, cell partitions and face skeletons.

The domain is one bounding box tiled by finitely many cells; each cell
carries an axis-aligned grid of subcells.  The skeleton collects every
cell and subcell face.  It is a finite union of axis-aligned hyperplane
patches, so it is closed, has empty interior and Lebesgue measure zero,
and membership can be decided by exact coordinate comparison (faces are
produced by the same float arithmetic everywhere).
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
    "sample_points",
]


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("corner dimensions differ")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"degenerate box: lower corner {self.lo} exceeds upper {self.hi}")

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

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def contains(self, pt) -> bool:
        return all(a <= x <= b for x, a, b in zip(pt, self.lo, self.hi))


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
    """A box tiled by cells, each cell tiled by an axis grid of subcells.

    ``cell_edges`` are the per-axis cell boundary coordinates.  Each cell
    (in C order over the cell grid) owns per-axis subcell edge arrays that
    include the cell's own boundary values.  ``delta`` records the target
    diameter of the last subdivision.
    """

    bounds: Box
    cell_edges: tuple[np.ndarray, ...]
    sub_edges: list[tuple[np.ndarray, ...]]
    delta: float | None = None
    _tensor: bool = field(init=False, repr=False, default=False)
    _grid_edges: tuple[np.ndarray, ...] | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if len(self.sub_edges) != self.n_cells:
            raise ValueError("one subcell grid required per cell")
        self._detect_tensor()

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

    def _detect_tensor(self) -> None:
        """The partition is a global tensor grid iff every cell's subcell
        edges equal the slice of the merged per-axis edge array over that
        cell.  The fast point-location path requires this."""
        merged = []
        for d in range(self.n):
            vals = np.unique(np.concatenate([se[d] for se in self.sub_edges]))
            merged.append(vals)
        for flat in range(self.n_cells):
            idx = np.unravel_index(flat, self.cells_per_axis)
            for d in range(self.n):
                a = self.cell_edges[d][idx[d]]
                b = self.cell_edges[d][idx[d] + 1]
                inside = merged[d][(merged[d] >= a) & (merged[d] <= b)]
                if not np.array_equal(inside, self.sub_edges[flat][d]):
                    self._tensor = False
                    self._grid_edges = None
                    return
        self._tensor = True
        self._grid_edges = tuple(merged)

    # -- flat subcell enumeration ------------------------------------------

    @property
    def total_subcells(self) -> int:
        if self._tensor:
            count = 1
            for e in self._grid_edges:
                count *= len(e) - 1
            return count
        return sum(self._cell_subcount(i) for i in range(self.n_cells))

    def _cell_subcount(self, flat: int) -> int:
        count = 1
        for e in self.sub_edges[flat]:
            count *= len(e) - 1
        return count

    def subcell_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of all subcells, flat C order, (S, n)."""
        if self._tensor:
            los = [e[:-1] for e in self._grid_edges]
            his = [e[1:] for e in self._grid_edges]
            lo_mesh = np.meshgrid(*los, indexing="ij")
            hi_mesh = np.meshgrid(*his, indexing="ij")
            lo = np.stack([g.ravel() for g in lo_mesh], axis=1)
            hi = np.stack([g.ravel() for g in hi_mesh], axis=1)
            return lo, hi
        lo_list, hi_list = [], []
        for flat in range(self.n_cells):
            edges = self.sub_edges[flat]
            lo_mesh = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
            hi_mesh = np.meshgrid(*[e[1:] for e in edges], indexing="ij")
            lo_list.append(np.stack([g.ravel() for g in lo_mesh], axis=1))
            hi_list.append(np.stack([g.ravel() for g in hi_mesh], axis=1))
        return np.concatenate(lo_list), np.concatenate(hi_list)

    def subcell_centers(self) -> np.ndarray:
        lo, hi = self.subcell_bounds()
        return 0.5 * (lo + hi)

    def max_subcell_diameter(self) -> float:
        worst = 0.0
        for flat in range(self.n_cells):
            sq = 0.0
            for e in self.sub_edges[flat]:
                sq += float(np.max(np.diff(e))) ** 2
            worst = max(worst, math.sqrt(sq))
        return worst

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map points (N, n) to flat subcell indices; also flag points
        lying exactly on any subcell face.  Points outside the bounding
        box raise ValueError."""
        pts = np.asarray(pts, dtype=float)
        lo = np.asarray(self.bounds.lo)
        hi = np.asarray(self.bounds.hi)
        if np.any(pts < lo) or np.any(pts > hi):
            raise ValueError("point outside domain")
        if self._tensor:
            flat = np.zeros(len(pts), dtype=np.int64)
            on_face = np.zeros(len(pts), dtype=bool)
            for d in range(self.n):
                edges = self._grid_edges[d]
                j, on = _edge_index(edges, pts[:, d])
                on_face |= on
                flat = flat * (len(edges) - 1) + j
            return flat, on_face
        flat_out = np.empty(len(pts), dtype=np.int64)
        on_out = np.zeros(len(pts), dtype=bool)
        base = 0
        handled = np.zeros(len(pts), dtype=bool)
        for cflat in range(self.n_cells):
            edges = self.sub_edges[cflat]
            cbox = self.cell_box(cflat)
            inside = np.all((pts >= np.asarray(cbox.lo)) & (pts <= np.asarray(cbox.hi)), axis=1)
            inside &= ~handled
            if inside.any():
                sub = np.zeros(int(inside.sum()), dtype=np.int64)
                on = np.zeros(int(inside.sum()), dtype=bool)
                p = pts[inside]
                for d in range(self.n):
                    j, on_d = _edge_index(edges[d], p[:, d])
                    on |= on_d
                    sub = sub * (len(edges[d]) - 1) + j
                flat_out[inside] = base + sub
                on_out[inside] = on
                handled |= inside
            base += self._cell_subcount(cflat)
        return flat_out, on_out


def build_partition(bounds: Box, cells_per_axis) -> CellPartition:
    """Tile a box with a uniform grid of cells (no subdivision yet)."""
    if isinstance(cells_per_axis, int):
        cells_per_axis = (cells_per_axis,) * bounds.n
    cells_per_axis = tuple(int(c) for c in cells_per_axis)
    if len(cells_per_axis) != bounds.n:
        raise ValueError("need one cell count per axis")
    if any(c < 1 for c in cells_per_axis):
        raise ValueError("cell counts must be >= 1")
    cell_edges = tuple(
        np.linspace(bounds.lo[d], bounds.hi[d], cells_per_axis[d] + 1) for d in range(bounds.n)
    )
    sub_edges = []
    for flat in range(int(np.prod(cells_per_axis))):
        idx = np.unravel_index(flat, cells_per_axis)
        sub_edges.append(
            tuple(cell_edges[d][idx[d]: idx[d] + 2].copy() for d in range(bounds.n))
        )
    return CellPartition(bounds=bounds, cell_edges=cell_edges, sub_edges=sub_edges, delta=None)


def subdivide(p: CellPartition, delta: float) -> CellPartition:
    """Refine subcells until every diameter is at most delta.

    A cell whose subcells already conform is left untouched, which makes
    the operation idempotent.  Otherwise each axis interval of width w is
    split into ceil(w * sqrt(n) / delta) equal parts, bounding the subcell
    diameter by delta.
    """
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    n = p.n
    root_n = math.sqrt(n)
    new_sub = []
    for flat in range(p.n_cells):
        edges = p.sub_edges[flat]
        sq = sum(float(np.max(np.diff(e))) ** 2 for e in edges)
        if math.sqrt(sq) <= delta:
            new_sub.append(tuple(e.copy() for e in edges))
            continue
        refined = []
        for e in edges:
            parts = [np.asarray([e[0]])]
            for a, b in zip(e[:-1], e[1:]):
                # tiny slack keeps exact ratios from rounding up to an extra part
                k = max(1, math.ceil((b - a) * root_n / delta - 1e-9))
                parts.append(np.linspace(a, b, k + 1)[1:])
            refined.append(np.concatenate(parts))
        new_sub.append(tuple(refined))
    return CellPartition(bounds=p.bounds, cell_edges=p.cell_edges, sub_edges=new_sub, delta=delta)


@dataclass
class Skeleton:
    """Union of all cell and subcell faces, stored per axis as exact
    face coordinates with their extents."""

    ndim: int
    faces: dict[int, dict[float, list[tuple[tuple[float, ...], tuple[float, ...]]]]]

    def axis_values(self, axis: int) -> np.ndarray:
        return np.asarray(sorted(self.faces.get(axis, {})), dtype=float)

    @property
    def face_count(self) -> int:
        return sum(len(v) for v in self.faces.values())

    def contains(self, pt) -> bool:
        pt = tuple(float(v) for v in pt)
        for axis, by_value in self.faces.items():
            extents = by_value.get(pt[axis])
            if not extents:
                continue
            for lo, hi in extents:
                if all(lo[d] <= pt[d] <= hi[d] for d in range(self.ndim) if d != axis):
                    return True
        return False

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(len(pts), dtype=bool)
        for axis, by_value in self.faces.items():
            vals = self.axis_values(axis)
            if len(vals) == 0:
                continue
            hits = np.nonzero(_edge_index(vals, pts[:, axis])[1])[0]
            for i in hits:
                if out[i]:
                    continue
                for lo, hi in by_value[float(pts[i, axis])]:
                    if all(lo[d] <= pts[i, d] <= hi[d] for d in range(self.ndim) if d != axis):
                        out[i] = True
                        break
        return out


def skeleton_of(p: CellPartition) -> Skeleton:
    """All subcell boundary faces, including the outer boundary."""
    faces: dict[int, dict[float, list]] = {d: {} for d in range(p.n)}
    for flat in range(p.n_cells):
        cbox = p.cell_box(flat)
        for d in range(p.n):
            for v in p.sub_edges[flat][d]:
                faces[d].setdefault(float(v), []).append((cbox.lo, cbox.hi))
    return Skeleton(ndim=p.n, faces=faces)


def sample_points(p: CellPartition, per_cell: int, margin: float, seed: int = 0) -> np.ndarray:
    """Deterministic off-skeleton verification samples.

    Draws ``per_cell`` points in every subcell, each at distance at least
    ``margin`` times the subcell width from every face, so no sample can
    lie on the skeleton.  The whole array is drawn in one pass from a
    generator seeded with ``seed``; results do not depend on any
    downstream processing order.
    """
    if per_cell < 1:
        raise ValueError("per_cell must be >= 1")
    if not (0.0 < margin < 0.5):
        raise ValueError("margin must be in (0, 0.5)")
    lo, hi = p.subcell_bounds()
    width = hi - lo
    rng = np.random.default_rng(seed)
    u = rng.random((len(lo), per_cell, p.n))
    pts = lo[:, None, :] + (margin + u * (1.0 - 2.0 * margin)) * width[:, None, :]
    return pts.reshape(-1, p.n)
