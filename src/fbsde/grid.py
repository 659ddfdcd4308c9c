"""Rectilinear grids and multilinear interpolation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Grid", "grid_axes", "grid_nodes", "multilinear_interpolate"]


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
        object.__setattr__(self, "shape", tuple(int(v) for v in self.shape))
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

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lower, self.upper, self.shape)
        )

    @property
    def strides(self) -> tuple[int, ...]:
        # flat C-order strides: stride of the last axis is 1
        out = [1] * self.ndim
        for ax in range(self.ndim - 2, -1, -1):
            out[ax] = out[ax + 1] * self.shape[ax + 1]
        return tuple(out)

    def axes(self) -> tuple[np.ndarray, ...]:
        return grid_axes(self)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, ndim), flat C order."""
        return grid_nodes(self)

    def boundary_mask(self) -> np.ndarray:
        """Boolean flat mask of nodes lying on any face of the box."""
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(self.ndim):
            sl_lo = [slice(None)] * self.ndim
            sl_lo[ax] = 0
            sl_hi = [slice(None)] * self.ndim
            sl_hi[ax] = self.shape[ax] - 1
            mask[tuple(sl_lo)] = True
            mask[tuple(sl_hi)] = True
        return mask.ravel()


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


def multilinear_interpolate(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear (order-1) interpolation with clamping to the box.

    ``values`` has shape (n_nodes, ...) in flat C order; ``points`` has
    shape (B, ndim).  Query points outside the box are clamped to the
    nearest face, so the output never leaves the range of the data.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != grid.ndim:
        raise ValueError("points must have shape (B, ndim)")
    nbatch = pts.shape[0]

    cells = []
    fracs = []
    for ax in range(grid.ndim):
        lo = grid.lower[ax]
        hi = grid.upper[ax]
        h = grid.spacings[ax]
        q = np.clip(pts[:, ax], lo, hi)
        cell = np.minimum(np.floor((q - lo) / h).astype(np.int64), grid.shape[ax] - 2)
        cells.append(cell)
        fracs.append((q - lo) / h - cell)

    strides = grid.strides
    trail = values.shape[1:]
    out = np.zeros((nbatch,) + trail)
    expand = (slice(None),) + (None,) * len(trail)
    for corner in range(1 << grid.ndim):
        weight = np.ones(nbatch)
        flat = np.zeros(nbatch, dtype=np.int64)
        for ax in range(grid.ndim):
            bit = (corner >> ax) & 1
            weight = weight * (fracs[ax] if bit else 1.0 - fracs[ax])
            flat = flat + (cells[ax] + bit) * strides[ax]
        out += weight[expand] * values[flat]
    return out
