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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .approx import PiecewisePoly, _operator_values
from .domain import Box, _axis_counts

__all__ = [
    "GridFn",
    "EnvelopePair",
    "make_lattice",
    "lattice_nodes",
    "lower_baire",
    "upper_baire",
    "nlsc_regularize",
    "operator_image",
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


def make_lattice(bounds: Box, counts) -> tuple[np.ndarray, ...]:
    """Midpoint lattice: per axis, N nodes at lo + (i + 1/2) * (hi - lo) / N.

    counts holds one N >= 1 per axis; a single int applies to every axis.
    """
    counts = _axis_counts(bounds, counts, "lattice")
    return tuple(
        bounds.lo[d] + (np.arange(counts[d]) + 0.5) * (bounds.hi[d] - bounds.lo[d]) / counts[d]
        for d in range(bounds.n)
    )


def _lattice_axes(axes, bounds: Box) -> tuple[np.ndarray, ...]:
    """axes as float arrays, one nonempty, strictly increasing axis per
    dimension of bounds with every node inside it."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) != bounds.n:
        raise ValueError(f"lattice has {len(axes)} axes, expected {bounds.n}")
    for a, lo, hi in zip(axes, bounds.lo, bounds.hi):
        if a.ndim != 1 or len(a) == 0 or not np.all(np.diff(a) > 0):
            raise ValueError("lattice coordinates must be strictly increasing")
        if not lo <= a[0] <= a[-1] <= hi:
            raise ValueError("lattice node outside domain")
    return axes


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
    axes = _lattice_axes(axes, u.partition.bounds)
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
        vals[:, free] = _operator_values(system, u.coeffs[:, :, piece], u.centers[:, piece],
                                         nodes[free].T)
    mask = on_face.reshape(tuple(len(a) for a in axes))
    return [nlsc_regularize(GridFn(axes, v.reshape(mask.shape), mask)) for v in vals]

