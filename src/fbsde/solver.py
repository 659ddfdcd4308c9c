"""IMEX finite-difference solver for the decoupling field.

The decoupling field is obtained by time-reversing the final-value
problem into a forward march: u(t, x) = field(T - t, x) starts from the
(cutoff-multiplied) terminal data and advances with an IMEX step.  The
second-order term, with coefficients frozen at the previous level, is
treated implicitly; transport, reaction and the nonlocal contributions
are explicit.  Each level is a plain (n_nodes, m) array of node values
in the flat C order of the grid; the march assembles the coefficients
once per level.  Snapshots are re-indexed back to original time, and a
point query blends only the cell corners of its bracketing levels.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, DegenerateDiffusionError, LinearSolveError
from .grid import Grid, cell_corners, corner_sum, grid_faces, grid_nodes
from .operators import all_finite, assemble_coefficients, eval_nonlocal, shifted_differences
from .problem import ProblemSpec, _shaped

__all__ = [
    "SolverConfig",
    "MaxPrincipleConstants",
    "SolutionField",
    "Diagnostics",
    "MaxPrincipleResult",
    "cutoff_values",
    "spatial_gradient",
    "second_difference",
    "solve_tridiagonal",
    "step_imex",
    "solve_final_value",
    "check_max_principle",
]


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and boundary choices for one solve.

    With ``dirichlet_data`` unset the field is solved with the cutoff
    boundary construction: terminal data multiplied by a C^2 cutoff that
    is 1 on the inner box and 0 on the faces, zero face values
    throughout.  Supplying ``dirichlet_data(t, x) -> (B, m)`` (t in
    original time) switches to prescribed face values, which
    manufactured-solution verification needs.

    The implicit part is always solved by line sweeps, one tridiagonal
    solve per grid line and axis.  ``linear_solver`` names that scheme and
    takes only ``"auto"``; it stays because the benchmark harness passes
    it, and it goes with the benchmark change of ROADMAP.md, item 1.
    """

    grid: Grid
    n_steps: int
    cutoff_width: float = 1.0
    linear_solver: str = "auto"
    dirichlet_data: Optional[Callable] = None

    def __post_init__(self):
        # a float or bool count would be truncated or taken for 1 somewhere in the march
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 < self.cutoff_width < math.inf:  # NaN fails here too
            raise ValueError(f"cutoff width must be finite and positive, got {self.cutoff_width}")
        if self.linear_solver != "auto":
            raise ValueError(f"linear_solver must be 'auto', got {self.linear_solver!r}")
        for lo, hi in zip(self.grid.lower, self.grid.upper):
            if not self.cutoff_width < 0.5 * (hi - lo):
                raise ValueError(
                    f"cutoff width {self.cutoff_width} must be below half the box width"
                )


@dataclass(frozen=True)
class MaxPrincipleConstants:
    """Nonnegative constants of the generator sign condition.

    They are assumption data supplied by the user (or a catalog entry),
    not derived from the callables.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def cutoff_values(grid: Grid, width: float) -> np.ndarray:
    """C^2 cutoff: 1 on the inner box, quintic decay to 0 at the faces.

    The transition profile is applied to the distance from the nearest
    face, so the cutoff vanishes exactly on the boundary and equals 1
    wherever that distance exceeds ``width``.
    """
    nodes = grid_nodes(grid)
    dist = np.full(nodes.shape[0], np.inf)
    for ax in range(grid.ndim):
        lo, hi = grid.lower[ax], grid.upper[ax]
        dist = np.minimum(dist, np.minimum(nodes[:, ax] - lo, hi - nodes[:, ax]))
    s = np.clip(dist / width, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def _axis_slice(total_ndim: int, axis: int, sl: slice | int) -> tuple:
    idx: list = [slice(None)] * total_ndim
    idx[axis] = sl
    return tuple(idx)


def spatial_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-node gradient of (n_nodes, m) node values, shape (n_nodes, m, n).

    Central differences at interior nodes, one-sided second-order
    stencils on the faces; exact for node values of affine functions.
    """
    shape = grid.shape
    m = values.shape[1]
    nd = values.reshape(*shape, m)
    total = grid.ndim + 1
    out = np.empty((grid.n_nodes, m, grid.ndim))
    by_axis = out.reshape(shape + (m, grid.ndim))  # a view: out is contiguous
    for ax in range(grid.ndim):
        h = grid.spacings[ax]
        g = by_axis[..., ax]
        _central_difference(
            nd[_axis_slice(total, ax, slice(2, None))],
            nd[_axis_slice(total, ax, slice(None, -2))],
            h,
            out=g[_axis_slice(total, ax, slice(1, -1))],
        )
        node = [nd[_axis_slice(total, ax, k)] for k in (0, 1, 2, -1, -2, -3)]
        g[_axis_slice(total, ax, 0)] = _forward_difference(*node[:3], h)
        g[_axis_slice(total, ax, -1)] = _backward_difference(*node[3:], h)
    return out


# the first-difference stencils of spatial_gradient, also formed at queried cell corners


def _central_difference(up, down, h: float, out=None) -> np.ndarray:
    """(u(x + h) - u(x - h)) / 2h, into ``out`` if given."""
    out = np.subtract(up, down, out=out)
    out /= 2.0 * h
    return out


def _forward_difference(at, next1, next2, h: float) -> np.ndarray:
    """Second-order one-sided difference at a low face, from u(x), u(x + h), u(x + 2h)."""
    return (-3.0 * at + 4.0 * next1 - next2) / (2.0 * h)


def _backward_difference(at, prev1, prev2, h: float) -> np.ndarray:
    """Second-order one-sided difference at a high face, from u(x), u(x - h), u(x - 2h)."""
    return (3.0 * at - 4.0 * prev1 + prev2) / (2.0 * h)


def second_difference(nd: np.ndarray, grid: Grid, i: int, j: int) -> np.ndarray:
    """Central second difference d2u/dx_i dx_j of node values ``nd``.

    ``nd`` has the grid's shape followed by any component axes.  The
    three-point stencil (i == j) and the four-point cross stencil
    (i != j) are exact for quadratics; at nodes on a face of axis i or j,
    where the stencil does not fit, the result is 0.
    """
    total = nd.ndim
    out = np.zeros(nd.shape)
    inner = _axis_slice(total, i, slice(1, -1))
    if i == j:
        out[inner] = _centred_second_difference(
            nd[_axis_slice(total, i, slice(2, None))],
            nd[inner],
            nd[_axis_slice(total, i, slice(None, -2))],
            grid.spacings[i] ** 2,
        )
        return out
    out[_cross_inner(total, i, j)] = _cross_difference(nd, grid, i, j)
    return out


# the second-difference stencils of second_difference, also formed at queried cell corners


def _centred_second_difference(up, at, down, h2) -> np.ndarray:
    """(u(x + h) - 2 u(x) + u(x - h)) / h^2, given ``h2`` = h ** 2."""
    return (up - 2.0 * at + down) / h2


def _cross_second_difference(pp, pm, mp, mm, hij) -> np.ndarray:
    """(u(x + h_i + h_j) - u(x + h_i - h_j) - u(x - h_i + h_j) + u(x - h_i - h_j)) / hij,
    given ``hij`` = 4 h_i h_j."""
    return (pp - pm - mp + mm) / hij


def _cross_inner(total_ndim: int, i: int, j: int) -> tuple:
    """Index of the nodes off the faces of both axis i and axis j."""
    idx: list = [slice(None)] * total_ndim
    idx[i] = idx[j] = slice(1, -1)
    return tuple(idx)


def _cross_difference(nd: np.ndarray, grid: Grid, i: int, j: int) -> np.ndarray:
    """The four-point cross stencil (i != j) at the nodes of :func:`_cross_inner`."""
    total = nd.ndim
    up, down = slice(2, None), slice(None, -2)
    pp, pm, mp, mm = (
        nd[_axis_slice(total, i, a)][_axis_slice(total, j, b)]
        for a in (up, down)
        for b in (up, down)
    )
    return _cross_second_difference(pp, pm, mp, mm, 4.0 * grid.spacings[i] * grid.spacings[j])


def _mixed_second_sum(values: np.ndarray, a2: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum of cross-derivative terms 2 a_ij d2u/dx_i dx_j over pairs i < j.

    Contributions at face nodes in either axis are dropped (those rows
    are overwritten by the boundary condition anyway): each pair adds
    only where its stencil fits, to a sum that starts from +0.0.
    """
    shape = grid.shape
    m = values.shape[1]
    nd = values.reshape(*shape, m)
    out = np.zeros(shape + (m,))
    for i in range(grid.ndim):
        for j in range(i + 1, grid.ndim):
            inner = _cross_inner(grid.ndim, i, j)
            coeff = 2.0 * a2[:, i, j].reshape(shape)[inner]
            out[inner + (slice(None),)] += coeff[..., None] * _cross_difference(nd, grid, i, j)
    return out.reshape(grid.n_nodes, m)


def solve_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Batched Thomas solve of independent tridiagonal systems, line axis first.

    ``lower``, ``diag`` and ``upper`` share one shape (N, ...) with N >= 1:
    row i of every system is ``a[i]``, and ``lower[0]`` and ``upper[-1]``
    are ignored.  ``rhs`` has shape (N, ...) or (N, ..., k), and the
    solution has its shape.  Any other shapes raise ``ValueError`` naming
    them.  The loop runs along the line only; each of its steps is
    vectorized across every system and right-hand-side column, and is
    fastest when each row ``a[i]`` is one contiguous block.

    There is no pivoting, so every row must be strictly diagonally
    dominant, ``|diag| > |lower| + |upper|``.  ``step_imex`` guarantees
    this: interior rows are ``1 + 2 r a_ii`` on the diagonal and
    ``-r a_ii`` off it with ``a_ii > 0``, and face rows are identity
    rows, so every pivot is at least 1.  A zero or non-finite pivot
    raises :class:`LinearSolveError`.  The elimination is the one LAPACK's
    ``gtsv`` makes when it needs no row interchange, but a compiled
    ``gtsv`` may fuse its multiply-adds, so the two agree to rounding
    error, not bit for bit.
    """
    shape = diag.shape
    if not (
        lower.shape == shape == upper.shape
        and diag.ndim >= 1
        and shape[0] >= 1
        and rhs.shape[: diag.ndim] == shape
        and rhs.ndim <= diag.ndim + 1
    ):
        raise ValueError(
            "solve_tridiagonal needs bands of one shape (N, ...) with N >= 1 and an rhs of"
            f" that shape, or with one more axis; got bands {lower.shape}, {shape} and"
            f" {upper.shape}, and rhs {rhs.shape}"
        )
    arrays = [lower, diag, upper, rhs]
    if rhs.ndim > diag.ndim:
        if rhs.shape[-1] == 1:
            arrays[3] = rhs[..., 0]
        else:
            # the columns of a row share its coefficients
            arrays[:3] = [a[..., None] for a in arrays[:3]]
    if arrays[3].ndim == 1:
        # one system, one column: each row entry is a scalar, and Python
        # floats run the loop several times faster than numpy scalars, with
        # the same IEEE arithmetic
        low, piv, up, x = (a.tolist() for a in arrays)
    else:
        # one entry per row, each entry spanning every system at once
        low, piv, up, x = (list(a) for a in arrays)
    n = len(piv)
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            for i in range(1, n):
                fact = low[i] / piv[i - 1]
                piv[i] = piv[i] - fact * up[i - 1]
                x[i] = x[i] - fact * x[i - 1]
        except ZeroDivisionError:
            pass  # a float pivot was zero; the check below names it
        pivots = np.array(piv)
        if not (all_finite(pivots) and pivots.all()):
            raise LinearSolveError("tridiagonal solve hit a zero or non-finite pivot")
        x[-1] = x[-1] / piv[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (x[i] - up[i] * x[i + 1]) / piv[i]
    return np.array(x).reshape(rhs.shape)


def _face_values(
    config: SolverConfig, grid: Grid, t_next: float, horizon: float, m: int
) -> np.ndarray:
    """The (n_faces, m) values of the face nodes, in the order of ``grid_faces``:
    zeros under the cutoff, else ``dirichlet_data`` at original time
    ``horizon - t_next`` (``t_next`` is Cauchy time, like the step's).

    Data that is not finite raises ``ValueError`` naming its original time.
    """
    pts = grid_faces(grid)[1]
    if config.dirichlet_data is None:
        return np.zeros((pts.shape[0], m))
    t = horizon - t_next
    vals = _shaped("dirichlet_data", config.dirichlet_data(t, pts), (pts.shape[0], m))
    if not all_finite(vals):
        raise ValueError(f"Dirichlet data must be finite at every face node; it is not at t={t}")
    return vals


def _solve_axis_sweep(
    grid: Grid, work: np.ndarray, axis: int, coeff: np.ndarray, dt: float
) -> np.ndarray:
    """One implicit sweep (I - dt * a_axax d2/dx_ax^2) along a single axis.

    Every grid line along ``axis`` is an independent tridiagonal system
    whose two face rows are identity rows, so they keep the values that
    ``work`` holds there.  All lines and all m field components go to one
    :func:`solve_tridiagonal`, on copies laid out line axis first so that
    each row of the loop is one contiguous block.  Returns a new
    (n_nodes, m) array.
    """
    shape = grid.shape
    m = work.shape[1]
    h = grid.spacings[axis]
    r = dt / (h * h)

    # axis and 0 swapped: the line axis first, the others in any fixed order
    cf = np.ascontiguousarray(coeff.reshape(shape).swapaxes(0, axis))
    off = -r * cf  # the operator is symmetric: lower and upper bands agree
    diag = 1.0 + 2.0 * r * cf
    rhs = work.reshape(*shape, m).swapaxes(0, axis).copy()
    for face in (0, -1):
        off[face] = 0.0
        diag[face] = 1.0

    sol = solve_tridiagonal(off, diag, off, rhs)
    return sol.swapaxes(0, axis).reshape(grid.n_nodes, m)


def step_imex(
    u_now: np.ndarray,
    t: float,
    spec: ProblemSpec,
    config: SolverConfig,
    p: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Advance the reversed equation one time step from Cauchy time ``t``.

    ``u_now`` holds the (n_nodes, m) node values on ``config.grid`` and
    ``p`` their :func:`spatial_gradient`.  Diffusion (coefficients frozen
    at ``u_now``) is implicit, one tridiagonal sweep per axis; transport,
    reaction, the nonlocal table and, on 2-D and 3-D grids, the mixed
    derivatives are explicit.  The configured face values are written into
    the step's own array before each sweep, whose identity face rows keep
    them, and again after the last sweep, which restores the face rows the
    later sweeps solved as interior rows of their lines.  Returns the next
    level and max |a1|, the largest transport speed of this step.
    """
    grid = config.grid
    ndim = grid.ndim
    dt = spec.horizon / config.n_steps

    w = eval_nonlocal(grid, u_now, spec, t)
    a2, a1, a0 = assemble_coefficients(spec, t, grid_nodes(grid), u_now, p, w)
    del w

    if not all_finite(a2):
        raise DegenerateDiffusionError(
            "non-finite diffusion coefficient a2 on the grid; check sigma"
        )
    if not all(a2[:, i, i].min() > 0.0 for i in range(ndim)):
        raise DegenerateDiffusionError(
            "non-positive diffusion pivot a_ii; ellipticity fails on the grid"
        )

    max_transport = float(max(a1.max(), -a1.min()))

    # terms that overflow are caught by the finiteness check below; a1 and
    # a0 go after their last read, so of the coefficients the sweeps hold a2
    with np.errstate(over="ignore", invalid="ignore"):
        u_next = -np.einsum("bi,bmi->bm", a1, p)
        u_next -= a0
        del a1, a0, p
        if ndim > 1:
            u_next += _mixed_second_sum(u_now, a2, grid)
        u_next *= dt
        u_next += u_now  # the right-hand side u_now + dt * (explicit terms)

    faces = _face_values(config, grid, t + dt, spec.horizon, u_now.shape[1])

    if not all_finite(u_next):
        raise BlowUpError("explicit terms produced non-finite values", level=-1)

    # a line along one axis that lies in another axis's face plane holds face
    # nodes only: no interior row reads it, and the last write restores it
    mask = grid.boundary_mask()
    for ax in range(ndim):
        u_next[mask] = faces
        u_next = _solve_axis_sweep(grid, u_next, ax, a2[:, ax, ax], dt)
    u_next[mask] = faces

    if not all_finite(u_next):
        raise BlowUpError("implicit solve produced non-finite values", level=-1)
    return u_next, max_transport


_OVERFLOW = "gradients must be finite; the differences of values overflow"


def _level_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """:func:`spatial_gradient` of one level of a solved field; a gradient
    that overflows raises ``ValueError``, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = spatial_gradient(grid, values)
    if not all_finite(out):
        raise ValueError(_OVERFLOW)
    return out


@lru_cache(maxsize=128)
def _stencil(grid: Grid, second: bool) -> tuple[np.ndarray, ...]:
    """Flat offsets of a node's stencil: the node, its neighbours a step down
    along each axis, a step up along each axis and, with ``second``, per axis
    pair a < b its diagonal neighbours up-up, up-down, down-up and down-down
    (axis a first).  Then the factors, each (count, 1, 1, 1): h per axis,
    h ** 2 per axis and 4 h_a h_b per pair."""
    strides, h = grid.strides, grid.spacings
    pairs = list(itertools.combinations(range(grid.ndim), 2))
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1)) if second else ()
    diagonal = tuple(u * strides[a] + v * strides[b] for a, b in pairs for u, v in signs)
    steps = np.array((0,) + tuple(-s for s in strides) + strides + diagonal, dtype=np.int64)
    factors = (h, [x**2 for x in h], [4.0 * h[a] * h[b] for a, b in pairs])
    out = (steps,) + tuple(np.reshape(np.array(f, dtype=float), (-1, 1, 1, 1)) for f in factors)
    for arr in out:
        arr.flags.writeable = False
    return out


def _blend(corners: np.ndarray, weights: np.ndarray, alpha) -> np.ndarray:
    """Corner data (2, J, 2^d, B, ...) at two levels, blended in time by
    ``alpha`` (scalar or (B,)) and then over the corners by ``weights``
    (2^d, B); the result is (J, B, ...)."""
    a = alpha.reshape(alpha.shape + (1,) * (corners.ndim - 4))
    at_t = (1.0 - a) * corners[0]
    at_t += a * corners[1]
    return corner_sum(at_t, weights)


def _check_component(component, m: int) -> int:
    """``component`` as an index in [0, m); anything else raises ``ValueError``."""
    if isinstance(component, numbers.Integral) and not isinstance(component, bool):
        if 0 <= component < m:
            return int(component)
    raise ValueError(f"component must be an integer in [0, {m}), got {component!r}")


@dataclass(frozen=True)
class SolutionField:
    """Decoupling field snapshots on the grid, indexed by original time.

    The field is its ``values``, (L, n_nodes, m) with L = config.n_steps + 1,
    on the nodes of ``config.grid`` (:attr:`grid`); ``values[i]``
    approximates the field at ``times[i]``, the read-only
    ``np.linspace(0.0, spec.horizon, L)`` formed at construction.  Only the
    values are stored: a gradient query forms the node gradients of the cell
    corners it reads from their stencil neighbours, so no stage holds a
    gradient table.  The snapshot at the final time reproduces the
    boundary-prepared terminal data exactly.  Evaluation between snapshots
    is linear in time and multilinear in space, with queries clamped to the
    box.  :meth:`value` and :meth:`gradient` take ``t`` as a scalar or one
    time per point; :meth:`derivatives` locates the rows once for one
    component's gradient, Hessian and time difference; :meth:`backward_rows`
    reads (Y, Z, Ztilde) off the field.  A fresh array given to the field is
    taken over and made read-only; views and read-only arrays are copied.
    """

    values: np.ndarray  # (L, n_nodes, m)
    spec: ProblemSpec
    config: SolverConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not all_finite(values):
            raise ValueError("values must be finite")
        if values.base is not None or not values.flags.writeable:
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        expected = (self.config.n_steps + 1, self.grid.n_nodes, self.spec.m)
        if values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {values.shape}")
        # uniform levels from 0, as time_bracket assumes
        times = np.linspace(0.0, self.spec.horizon, values.shape[0])
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def grid(self) -> Grid:
        return self.config.grid

    @property
    def gradients(self) -> np.ndarray:
        """Per-level :func:`spatial_gradient` of ``values``, (L, n_nodes, m, n).

        Computed afresh on every access and not kept: no query reads it.
        """
        out = np.empty(self.values.shape + (self.grid.ndim,))
        for level, values in enumerate(self.values):
            out[level] = _level_gradient(self.grid, values)
        return out

    @property
    def m(self) -> int:
        return self.values.shape[2]

    def time_bracket(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Level i and weight alpha, in the shape of ``t``, with t at
        (1 - alpha) times[i] + alpha times[i + 1], clamped to [0, T].

        Infinite times clamp to the first or last level; a NaN time raises
        ``ValueError`` naming its row."""
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            where = f" row {int(np.argmax(np.isnan(t)))}" if t.ndim else ""
            raise ValueError(f"query time{where} is NaN")
        s = t / (self.times[1] - self.times[0])
        i = np.minimum(np.maximum(np.floor(s), 0), self.times.shape[0] - 2).astype(np.int64)
        return i, np.minimum(np.maximum(s - i, 0.0), 1.0)

    def interpolate(self, t, points: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Per-level node data (L, n_nodes, ...) at time ``t`` (scalar or (B,)).

        Only the 2^d cell corners of each point are blended in time,
        elementwise the arithmetic of blending whole levels.
        """
        return self._interpolate(self.time_bracket(t), points, data)

    def _interpolate(self, bracket, points, data) -> np.ndarray:
        """:meth:`interpolate` at the rows of a :meth:`time_bracket` already taken."""
        i, alpha = bracket
        flats, weights = cell_corners(self.grid, points)
        row = i * data.shape[1] + flats  # level i, node k: row i * n_nodes + k
        rows = data.reshape((-1,) + data.shape[2:])
        # np.take copies the gathered rows in one pass; rows[row] copies each on its own
        corners = np.take(rows, np.stack((row, row + data.shape[1])), axis=0)
        return _blend(corners[:, None], weights, alpha)[0]

    def value(self, t, points: np.ndarray) -> np.ndarray:
        return self.interpolate(t, points, self.values)

    def gradient(self, t, points: np.ndarray) -> np.ndarray:
        """Spatial gradient (B, m, n) at the rows (``t``, ``points``).

        The :func:`spatial_gradient` of each cell corner at both bracketing
        levels is formed from the corner's stencil neighbours and blended
        like the values, to the bits of interpolating :attr:`gradients`; a
        corner gradient that overflows raises ``ValueError``.
        """
        blended = self._blended_jets(self.time_bracket(t), points)[0]
        return blended[1:].transpose(1, 2, 0)

    def _blended_jets(self, bracket, points: np.ndarray, second: bool = False):
        """The rows' :meth:`_corner_jets`, blended, (J, B, m); and with
        ``second`` the corners' (v[i + 1] - v[i]) / dt, interpolated in space
        only, (B, m).  A non-finite blended gradient raises ``ValueError``."""
        i, alpha = bracket
        flats, weights = cell_corners(self.grid, points)
        # an overflow is inf, not a warning; a non-finite corner gradient
        # leaves the blend non-finite, and the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            jets = self._corner_jets(i, flats, second)
            # all jets side by side: one blend for all
            blended = _blend(jets, weights, alpha)
        if not all_finite(blended[: 1 + self.grid.ndim]):
            raise ValueError(_OVERFLOW)
        if not second:
            return blended, None
        step = (jets[1, :1] - jets[0, :1]) / float(self.times[1] - self.times[0])
        return blended, corner_sum(step, weights)[0]

    def _corner_jets(self, i, flats: np.ndarray, second: bool = False) -> np.ndarray:
        """The value and the :func:`spatial_gradient` along each axis,
        (2, 1 + n, 2^d, B, m), of the corner nodes ``flats`` at levels ``i``
        and ``i + 1``, each formed from the node's own stencil: the
        temporaries grow with B only.  With ``second``, the jets go on with
        the :func:`second_difference` along each axis, then of each axis
        pair a < b, from the diagonal neighbours too."""
        grid = self.grid
        d = grid.ndim
        steps, spacings, squares, cross = _stencil(grid, second)
        # level i, node k: row i * n_nodes + k
        rows = np.add.outer(steps, flats + i * grid.n_nodes)
        # the corners on a face, located once by position among the 2^d B corners
        by_corner = rows.reshape(len(steps), -1)
        touching = np.flatnonzero(grid.boundary_mask()[flats])
        faces = []
        if touching.size:
            at = flats.reshape(-1)[touching]
            for ax, (stride, count) in enumerate(zip(grid.strides, grid.shape)):
                index = at // stride % count
                low, high = touching[index == 0], touching[index == count - 1]
                by_corner[1 + ax, low] += 3 * stride
                by_corner[1 + d + ax, high] -= 3 * stride
                # the second differences along ax: its own, then those of its pairs
                pairs = enumerate(itertools.combinations(range(d), 2))
                zeroed = [1 + d + ax] + [1 + 2 * d + p for p, ab in pairs if ax in ab]
                faces.append((low, high, zeroed if second else []))
        values = self.values.reshape(-1, self.m)
        nodes = np.empty(rows.shape + (self.m,))
        n_jets = 1 + 2 * d + len(cross) if second else 1 + d
        jets = np.empty((2, n_jets) + nodes.shape[1:])
        by_node = nodes.reshape(len(steps), -1, self.m)
        # one level at a time into one buffer: fresh memory costs more than a call
        for level, jet in enumerate(jets):
            if level:
                rows += grid.n_nodes
            # every row a gradient reads is in range; mode="clip" writes to ``out``
            # without a buffer, and keeps a face corner's diagonals in range
            np.take(values, rows, axis=0, out=nodes, mode="clip")
            jet[0] = nodes[0]
            down, up = nodes[1 : 1 + d], nodes[1 + d : 1 + 2 * d]
            # each stencil along every axis, or axis pair, at once
            _central_difference(up, down, spacings, out=jet[1 : 1 + d])
            if second:
                jet[1 + d : 1 + 2 * d] = _centred_second_difference(up, nodes[0], down, squares)
                pp, pm, mp, mm = (nodes[1 + 2 * d + q :: 4] for q in range(4))
                jet[1 + 2 * d :] = _cross_second_difference(pp, pm, mp, mm, cross)
            for ax, (low, high, zeroed) in enumerate(faces):
                by_jet, node = jet.reshape(n_jets, -1, self.m), by_node[0]
                h, g = grid.spacings[ax], by_jet[1 + ax]
                down, up = by_node[1 + ax], by_node[1 + d + ax]
                g[low] = _forward_difference(node[low], up[low], down[low], h)
                g[high] = _backward_difference(node[high], down[high], up[high], h)
                # no second-difference stencil along ax fits on its faces
                for row in zeroed:
                    by_jet[row, low] = by_jet[row, high] = 0.0
        return jets

    def derivatives(self, t, points: np.ndarray, component: int = 0):
        """Gradient (B, n), Hessian (B, n, n) and forward time difference (B,)
        of field component ``component`` at the rows (``t``, ``points``), from
        one location of the rows and one gather of each cell corner with its
        axis and diagonal neighbours.  The gradient is :meth:`gradient`'s;
        the Hessian blends each corner's :func:`second_difference` (zero on
        faces) like it; (v[i + 1] - v[i]) / dt at the corners is interpolated
        in space only.
        """
        component = _check_component(component, self.m)
        d = self.grid.ndim
        blended, dudt = self._blended_jets(self.time_bracket(t), points, second=True)
        gradient = blended[1 : 1 + d].transpose(1, 2, 0)[:, component]
        # a contiguous (B, n, n) Hessian: einsum's rounding depends on the layout
        hessian = np.empty(gradient.shape + (d,))
        for ax in range(d):
            hessian[:, ax, ax] = blended[1 + d + ax, :, component]
        for p, (a, b) in enumerate(itertools.combinations(range(d), 2)):
            hessian[:, a, b] = hessian[:, b, a] = blended[1 + 2 * d + p, :, component]
        return gradient, hessian, dudt[:, component]

    def nonlocal_table(
        self, t, points: np.ndarray, u_here: np.ndarray | None = None
    ) -> np.ndarray:
        """Shifted-difference table at off-grid base points, original time.

        ``t`` is a scalar or one time per point; ``u_here`` defaults to
        the field's value at ``points``.
        """
        return self._nonlocal_table(self.time_bracket(t), t, points, u_here)

    def _nonlocal_table(self, bracket, t, points, u_here) -> np.ndarray:
        """:meth:`nonlocal_table` at the rows of a :meth:`time_bracket` already taken."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if u_here is None:
            u_here = self._interpolate(bracket, pts, self.values)

        def at_shifted(q):
            # the shifted points of the moved atoms come stacked, atom by atom
            reps = q.shape[0] // len(pts)
            stacked = [np.concatenate([a] * reps) for a in bracket] if bracket[0].ndim else bracket
            return self._interpolate(stacked, q, self.values)

        return shifted_differences(at_shifted, self.spec, t, pts, u_here)

    def backward_rows(self, t, x: np.ndarray):
        """(Y, Z, Ztilde, sigma) at the rows (``t``, ``x``).

        Y = u, Z = grad u sigma(t, x, Y) and Ztilde = u(t, x + phi) - u(t, x)
        per atom, shapes (B, m), (B, m, n) and (B, K, m); sigma is (B, n, n).
        Y and grad u come from the same gathered cell corners.
        """
        bracket = self.time_bracket(t)
        blended = self._blended_jets(bracket, x)[0]
        y, grad = blended[0], blended[1:].transpose(1, 2, 0)
        sig = self.spec.sigma(t, x, y)
        z = np.einsum("bmi,bij->bmj", grad, sig)
        return y, z, self._nonlocal_table(bracket, t, x, y), sig

    def sup_norms(self) -> np.ndarray:
        """Per-level sup over nodes of the euclidean field norm."""
        # level by level: a whole-array square would copy the field
        return np.array([np.sqrt(np.sum(v**2, axis=-1)).max() for v in self.values])


@dataclass(frozen=True)
class Diagnostics:
    """Monitors recorded during a solve, indexed like the field snapshots.

    The sup bound itself is evaluated by :func:`check_max_principle`.
    """

    sup_u: np.ndarray
    sup_gradient: np.ndarray
    initial_data_sup: float
    boundary_data_sup: float
    coarse_time_grid: bool
    constants: MaxPrincipleConstants


@dataclass(frozen=True)
class MaxPrincipleResult:
    passed: bool
    margin: float
    bound: float
    observed: float
    lambda_rate: float
    first_violation_level: Optional[int]


def check_max_principle(
    field: SolutionField, diag: Diagnostics, tol: float = 1e-10
) -> MaxPrincipleResult:
    """A-priori sup bound exp(lambda T) * max(sup of data, sqrt(c1)).

    The rate is lambda = c2 + c3 L^2 + 1 with L = 2 nu(Z).  Sup norms are
    recomputed from the stored snapshots; the bound uses the data sups and
    constants recorded at solve time, so a rescaled field is caught.  Only
    a bad ``tol`` raises; a failure carries the first violating level.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    constants = diag.constants
    lam = constants.c2 + constants.c3 * (2.0 * field.spec.measure.total_mass) ** 2 + 1.0
    base = max(diag.initial_data_sup, diag.boundary_data_sup, math.sqrt(constants.c1))
    try:
        bound = math.exp(lam * field.spec.horizon) * base
    except OverflowError:  # a horizon this long gives no finite bound
        bound = math.inf if base else 0.0
    sups = field.sup_norms()
    observed = float(sups.max())
    violating = np.nonzero(sups > bound * (1.0 + tol))[0]
    first = int(violating[0]) if violating.size else None
    return MaxPrincipleResult(
        passed=first is None,
        margin=bound - observed,
        bound=bound,
        observed=observed,
        lambda_rate=lam,
        first_violation_level=first,
    )


def solve_final_value(
    spec: ProblemSpec, config: SolverConfig, constants: MaxPrincipleConstants
) -> tuple[SolutionField, Diagnostics]:
    """March the reversed problem and return the re-indexed field.

    Starts from the cutoff-multiplied terminal data (or raw terminal
    data under prescribed face values), advances ``n_steps`` IMEX steps
    and re-indexes the levels back to original time; the field stores only
    values.  Any non-finite level aborts with :class:`BlowUpError`.
    """
    grid = config.grid
    T = spec.horizon
    n_steps = config.n_steps
    dt = T / n_steps
    mask = grid.boundary_mask()

    h_vals = spec.h(grid_nodes(grid))
    if not all_finite(h_vals):
        raise ValueError("terminal data h must be finite at every grid node")

    # march level j is stored at original-time level n_steps - j; its
    # gradient serves its step and its sup, and is then dropped.  Each
    # level, the first included, is written into the field and read back
    # from it, so the march holds no full-grid array of its own
    values = np.empty((n_steps + 1, grid.n_nodes, spec.m))
    sup_grad = np.empty(n_steps + 1)
    if config.dirichlet_data is None:
        np.multiply(
            h_vals, cutoff_values(grid, config.cutoff_width)[:, None], out=values[-1]
        )
    else:
        values[-1] = h_vals
        values[-1][mask] = _face_values(config, grid, 0.0, T, spec.m)
    del h_vals
    u = values[-1]
    coarse = False
    for j in range(n_steps + 1):
        p = spatial_gradient(grid, u)
        # a square that overflows is inf, not a warning: the step's checks raise
        with np.errstate(over="ignore", invalid="ignore"):
            sup_grad[-1 - j] = np.sqrt(np.sum(p**2, axis=(-1, -2))).max()
        if j == n_steps:
            break
        try:
            u, max_transport = step_imex(u, j * dt, spec, config, p)
        except BlowUpError as exc:
            raise BlowUpError(
                f"solution blew up at time level {j + 1}: {exc}", level=j + 1
            ) from None
        if j == 0:
            # transport-resolution heuristic: coarse N_t is allowed, only flagged
            coarse = dt * max_transport > min(grid.spacings)
        values[-2 - j] = u
        u = values[-2 - j]

    field_obj = SolutionField(values=values, spec=spec, config=config)
    sup_u = field_obj.sup_norms()
    # every level's face rows hold the face data exactly: the prescribed values,
    # or zeros under the cutoff; level by level, as a whole-array square copies them all
    boundary_sup = float(max(np.sqrt(np.sum(v[mask] ** 2, axis=-1)).max() for v in values))

    diag = Diagnostics(
        sup_u=sup_u,
        sup_gradient=sup_grad,
        initial_data_sup=float(sup_u[-1]),
        boundary_data_sup=boundary_sup,
        coarse_time_grid=bool(coarse),
        constants=constants,
    )
    return field_obj, diag
