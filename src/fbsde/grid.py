"""Rectilinear grids and multilinear interpolation."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["Grid", "grid_axes", "grid_nodes", "grid_faces", "multilinear_interpolate"]


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid on a closed box with >= 3 nodes per axis.

    Node coordinates along axis i are ``linspace(lower[i], upper[i], shape[i])``
    so they are reproducible exactly from bounds and counts.  Flat node
    ordering is C order (last axis fastest).
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "shape", tuple(_node_count(v) for v in self.shape))
        if not (len(self.lower) == len(self.upper) == len(self.shape)):
            raise ValueError("lower, upper and shape must have the same length")
        if not np.all(np.isfinite(self.lower + self.upper)):
            raise ValueError(
                f"grid bounds must be finite, got lower={self.lower}, upper={self.upper}"
            )
        for lo, hi, n in zip(self.lower, self.upper, self.shape):
            if n < 3:
                raise ValueError("need at least 3 nodes per axis")
            if not hi > lo:
                raise ValueError("upper bound must exceed lower bound")
            if not math.isfinite(hi - lo):
                raise ValueError(
                    f"grid width must be finite, got lower={self.lower}, upper={self.upper}"
                )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    # computed once per grid: the march and the point queries read them often
    @cached_property
    def n_nodes(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lower, self.upper, self.shape)
        )

    @cached_property
    def strides(self) -> tuple[int, ...]:
        # flat C-order strides: stride of the last axis is 1
        out = [1] * self.ndim
        for ax in range(self.ndim - 2, -1, -1):
            out[ax] = out[ax + 1] * self.shape[ax + 1]
        return tuple(out)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, ndim), flat C order."""
        return grid_nodes(self)

    def boundary_mask(self) -> np.ndarray:
        """Boolean flat mask of nodes lying on any face of the box (read-only)."""
        return grid_faces(self)[0]


def _node_count(v) -> int:
    # operator.index takes ints and numpy integers, and rejects 3.7 instead of truncating it
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"shape entries must be integer node counts, got {v!r}")


@lru_cache(maxsize=64)
def grid_axes(grid: Grid) -> tuple[np.ndarray, ...]:
    axes = []
    for lo, hi, n in zip(grid.lower, grid.upper, grid.shape):
        ax = np.linspace(lo, hi, n)
        ax.flags.writeable = False
        axes.append(ax)
    return tuple(axes)


@lru_cache(maxsize=64)
def grid_nodes(grid: Grid) -> np.ndarray:
    mesh = np.meshgrid(*grid_axes(grid), indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    nodes.flags.writeable = False
    return nodes


@lru_cache(maxsize=64)
def grid_faces(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat mask of the nodes on any face, and their coordinates."""
    mask = np.zeros(grid.shape, dtype=bool)
    for ax in range(grid.ndim):
        mask[(slice(None),) * ax + (0,)] = True
        mask[(slice(None),) * ax + (-1,)] = True
    mask = mask.ravel()
    nodes = grid_nodes(grid)[mask]
    mask.flags.writeable = nodes.flags.writeable = False
    return mask, nodes


def cell_corners(grid: Grid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat node indices and weights, each (2^d, B), of the cell corners of ``points``.

    ``points`` has shape (B, ndim); points outside the box, infinite
    coordinates included, are clamped to the nearest face.  The weights of
    a point are nonnegative and sum to one.  A NaN coordinate raises
    ``ValueError`` naming the first point row with one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.ndim:
        raise ValueError("points must have shape (B, ndim)")
    if np.isnan(pts).any():
        row = int(np.argmax(np.isnan(pts).any(axis=1)))
        raise ValueError(f"query point row {row} is NaN: {pts[row].tolist()}")
    spacings, strides = grid.spacings, grid.strides
    for ax in range(grid.ndim):
        lo, hi = grid.lower[ax], grid.upper[ax]
        s = (np.clip(pts[:, ax], lo, hi) - lo) / spacings[ax]
        cell = np.minimum(np.floor(s).astype(np.int64), grid.shape[ax] - 2)
        frac = s - cell
        # this axis's low and high node; its bit is the highest of the corner index so far
        w_ax = np.array([1.0 - frac, frac])
        f_ax = np.array([cell, cell + 1]) * strides[ax]
        if ax == 0:
            weights, flats = w_ax, f_ax
        else:
            weights = (weights * w_ax[:, None]).reshape(2 << ax, -1)
            flats = (flats + f_ax[:, None]).reshape(2 << ax, -1)
    return flats, weights


def corner_sum(corners: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Corner data (J, 2^d, B, ...) summed over the corners by :func:`cell_corners`
    weights (2^d, B), in corner order from +0.0; the result is (J, B, ...)."""
    out = np.zeros(corners.shape[:1] + corners.shape[2:])
    term = np.empty_like(out)
    for c, weight in enumerate(weights.reshape(weights.shape + (1,) * (corners.ndim - 3))):
        out += np.multiply(weight, corners[:, c], out=term)
    return out


def multilinear_interpolate(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear (order-1) interpolation with clamping to the box.

    ``values`` has shape (n_nodes, ...) in flat C order; ``points`` has
    shape (B, ndim).  Query points outside the box are clamped to the
    nearest face, so the output never leaves the range of the data.
    """
    flats, weights = cell_corners(grid, points)
    # np.take copies the gathered rows in one pass; values[flats] copies each on its own
    return corner_sum(np.take(values, flats, axis=0)[None], weights)[0]
