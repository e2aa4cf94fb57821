"""Lower/upper envelope operators on grid functions over the extended reals.

A ``GridFn`` samples an extended-real-valued function on a rectangular
lattice.  Nodes flagged in the mask lie on a skeleton: the underlying
function is allowed to jump there, and the stored value is only a
representative filler.  Off the mask the function is taken to be
continuous, so shrinking neighbourhoods pin the envelope to the node's
own value.  At a masked node the neighbourhood infimum/supremum ranges
over the node's own value together with the off-mask samples in the
immediate lattice stencil; sweeping larger neighbourhoods cannot raise
the supremum of a falling sequence of infima.

This discretisation keeps the classical laws exactly at lattice scale:
the lower envelope is at most the function, both envelopes are monotone,
idempotent and dual to each other, and the lower-of-upper composite is
idempotent and independent of the filler values stored on the mask.

Values live in the extended reals (finite doubles plus +/-inf); the
operators only ever take minima and maxima, so no IEEE NaN arithmetic
can arise.

``operator_image`` is the one path from a piecewise polynomial to grid
functions: T(x, D)u at the lattice nodes off the skeleton, regularized.
``embed_piecewise`` is that image with T the identity system u1..uK.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .approx import PiecewisePoly, _operator_values
from .domain import Box

__all__ = [
    "GridFn",
    "EnvelopePair",
    "SemicontinuityFlags",
    "make_lattice",
    "lattice_nodes",
    "lower_baire",
    "upper_baire",
    "nlsc_regularize",
    "classify_semicontinuity",
    "operator_image",
    "embed_piecewise",
    "write_gridfn_csv",
    "read_gridfn_csv",
]


@dataclass
class GridFn:
    """Extended-real samples on a rectangular lattice with a skeleton mask."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        values = np.asarray(self.values, dtype=float)
        shape = tuple(len(a) for a in axes)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match lattice {shape}")
        for a in axes:
            if len(a) == 0 or np.any(np.diff(a) <= 0):
                raise ValueError("lattice coordinates must be strictly increasing")
        if np.any(np.isnan(values)):
            raise ValueError("values must be extended reals, not NaN")
        object.__setattr__(self, "values", values)
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != shape:
                raise ValueError("mask shape does not match lattice")
            object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def mask_array(self) -> np.ndarray:
        if self.mask is None:
            return np.zeros(self.shape, dtype=bool)
        return self.mask

    def with_values(self, values: np.ndarray) -> "GridFn":
        return GridFn(self.axes, values, None if self.mask is None else self.mask.copy())

    def same_lattice(self, other: "GridFn") -> bool:
        return len(self.axes) == len(other.axes) and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )


@dataclass
class EnvelopePair:
    """Lower/upper regular representatives of an interval-valued function."""

    lower: GridFn
    upper: GridFn

    def is_consistent(self) -> bool:
        off = ~(self.lower.mask_array() | self.upper.mask_array())
        ordered = bool(np.all(self.lower.values <= self.upper.values))
        finite = bool(np.all(np.isfinite(self.lower.values[off]))) and bool(
            np.all(np.isfinite(self.upper.values[off]))
        )
        return ordered and finite


@dataclass(frozen=True)
class SemicontinuityFlags:
    lsc: bool
    usc: bool
    nlsc: bool
    nusc: bool


def make_lattice(bounds: Box, counts) -> tuple[np.ndarray, ...]:
    """Midpoint lattice: per axis, N nodes at lo + (i + 1/2) * (hi - lo) / N."""
    if isinstance(counts, int):
        counts = (counts,) * bounds.n
    return tuple(
        bounds.lo[d] + (np.arange(counts[d]) + 0.5) * (bounds.hi[d] - bounds.lo[d]) / counts[d]
        for d in range(bounds.n)
    )


def lattice_nodes(axes) -> np.ndarray:
    """All node coordinates in C order, shape (N, n)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _envelope(f: GridFn, fold, fill: float) -> GridFn:
    """f off the mask; at a masked node, fold (np.minimum or np.maximum,
    fill its identity) of the node's own value and the off-mask samples in
    its immediate index stencil, in one pass over the 3^n shifted views.

    Sweeping larger index balls cannot change the envelope: the inner
    infimum only falls as the ball grows, so its supremum is attained at
    the smallest ball.  A node with a fully masked stencil keeps its own
    value.
    """
    mask = f.mask_array()
    padded = np.pad(np.where(mask, fill, f.values), 1, constant_values=fill)
    near = np.full(f.shape, fill)
    for shift in itertools.product((0, 1, 2), repeat=f.n):
        fold(near, padded[tuple(slice(s, s + k) for s, k in zip(shift, f.shape))], out=near)
    return f.with_values(np.where(mask, fold(f.values, near), f.values))


def lower_baire(f: GridFn) -> GridFn:
    """Discrete lower envelope: the identity off the mask; at a masked
    node, the minimum of the node's value and the nearest off-mask
    samples.  Result <= f nodewise."""
    return _envelope(f, np.minimum, np.inf)


def upper_baire(f: GridFn) -> GridFn:
    """Dual of lower_baire; result >= f nodewise."""
    return _envelope(f, np.maximum, -np.inf)


def nlsc_regularize(f: GridFn) -> GridFn:
    """Lower-of-upper composite; its fixed points are the normal lower
    semicontinuous grid functions.  Masked values come out independent of
    the fillers stored there."""
    return lower_baire(upper_baire(f))


def classify_semicontinuity(f: GridFn) -> SemicontinuityFlags:
    lower = lower_baire(f)
    upper = upper_baire(f)
    return SemicontinuityFlags(
        lsc=np.array_equal(lower.values, f.values),
        usc=np.array_equal(upper.values, f.values),
        nlsc=np.array_equal(lower_baire(upper).values, f.values),
        nusc=np.array_equal(upper_baire(lower).values, f.values),
    )


def operator_image(system: ex.PdeSystem, u: PiecewisePoly, axes) -> list[GridFn]:
    """The operator applied to a piecewise polynomial u, embedded as
    regularized grid functions, one per component.

    One lookup of the lattice nodes in u's partition gives both the
    mask (nodes on a subcell face) and the piece of every other node.
    Off-skeleton nodes carry T_i(x, D)u(x); skeleton nodes are filled
    with 0 and regularized away by the lower-of-upper composite, so the
    result does not depend on the filler.
    """
    if tuple(u.alphas) != system.alphas or u.K != system.K:
        raise ValueError("approximant jet layout does not match the system")
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) != system.n:
        raise ValueError(f"lattice has {len(axes)} axes, expected {system.n}")
    nodes = lattice_nodes(axes)
    return _located_image(system, u, axes, nodes, *u.partition.locate(nodes))


def _located_image(system: ex.PdeSystem, u: PiecewisePoly, axes: tuple, nodes: np.ndarray,
                   loc: np.ndarray, on_face: np.ndarray) -> list[GridFn]:
    """operator_image on float axes whose lattice nodes (from lattice_nodes)
    u.partition.locate has already mapped to (loc, on_face), so callers
    imaging many approximants on one partition look the nodes up once."""
    free = ~on_face
    vals = np.zeros((system.K, len(nodes)))
    if free.any():
        piece = loc[free]
        vals[:, free] = _operator_values(system, u.coeffs[piece], u.centers[piece], nodes[free])
    mask = on_face.reshape(tuple(len(a) for a in axes))
    return [nlsc_regularize(GridFn(axes, v.reshape(mask.shape), mask)) for v in vals]


def embed_piecewise(u: PiecewisePoly, axes) -> list[GridFn]:
    """Sample a piecewise polynomial on a lattice and regularize: the
    operator_image of the identity system u1..uK."""
    n = u.partition.n
    identity = ex.PdeSystem(n=n, K=u.K, m=max(map(sum, u.alphas)),
                            components=tuple(ex.Jet(j, (0,) * n) for j in range(1, u.K + 1)))
    return operator_image(identity, u, axes)


# ---------------------------------------------------------------------------
# CSV round-trip: one row per node with coordinates, value, mask flag

def _fmt(v: float) -> str:
    if v == np.inf:
        return "inf"
    if v == -np.inf:
        return "-inf"
    return repr(float(v))


def write_gridfn_csv(f: GridFn, path) -> None:
    mask = f.mask_array()
    with open(path, "w", newline="\n") as fh:
        header = [f"x{d + 1}" for d in range(f.n)] + ["value", "mask"]
        fh.write(",".join(header) + "\n")
        for idx in itertools.product(*(range(s) for s in f.shape)):
            coords = [repr(float(f.axes[d][idx[d]])) for d in range(f.n)]
            fh.write(",".join(coords + [_fmt(f.values[idx]), "1" if mask[idx] else "0"]) + "\n")


def read_gridfn_csv(path) -> GridFn:
    """Read rows in any order, each placed at the node its coordinates
    name; a node listed twice or not at all raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n = len(header) - 2
        rows = [line.strip().split(",") for line in fh if line.strip()]
    coords = np.asarray([[float(r[d]) for d in range(n)] for r in rows]).reshape(len(rows), n)
    vals = np.asarray([float(r[n]) for r in rows])
    mask = np.asarray([r[n + 1] == "1" for r in rows])
    axes = tuple(np.unique(coords[:, d]) for d in range(n))
    shape = tuple(len(a) for a in axes)
    node = np.ravel_multi_index([np.searchsorted(a, coords[:, d]) for d, a in enumerate(axes)], shape)
    if len(rows) != np.prod(shape) or len(np.unique(node)) != len(rows):
        raise ValueError("grid CSV must list every lattice node exactly once")
    order = np.argsort(node)
    return GridFn(axes, vals[order].reshape(shape), mask[order].reshape(shape))
