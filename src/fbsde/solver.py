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

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, DegenerateDiffusionError, LinearSolveError
from .grid import Grid, cell_corners, grid_faces, grid_nodes
from .operators import all_finite, assemble_coefficients, eval_nonlocal, shifted_differences
from .problem import ProblemSpec

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

def _check_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


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
    max_principle_tol: float = 1e-10
    linear_solver: str = "auto"
    dirichlet_data: Optional[Callable] = None

    def __post_init__(self):
        # a float or bool count would be truncated or taken for 1 somewhere in the march
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.cutoff_width <= 0.0:
            raise ValueError("cutoff width must be positive")
        _check_tolerance("max_principle_tol", self.max_principle_tol)
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


def spatial_gradient(
    grid: Grid, values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-node gradient of (n_nodes, m) node values, shape (n_nodes, m, n).

    Central differences at interior nodes, one-sided second-order
    stencils on the faces; exact for node values of affine functions.
    ``out``, if given, is a C-contiguous float64 (n_nodes, m, n) array
    that receives the result and is returned.
    """
    shape = grid.shape
    m = values.shape[1]
    nd = values.reshape(*shape, m)
    total = grid.ndim + 1
    if out is None:
        out = np.empty((grid.n_nodes, m, grid.ndim))
    elif not (
        out.shape == (grid.n_nodes, m, grid.ndim)
        and out.dtype == np.float64
        and out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous float64 array of shape {(grid.n_nodes, m, grid.ndim)},"
            f" got {out.dtype} {out.shape}"
        )
    by_axis = out.reshape(shape + (m, grid.ndim))  # a view: out is contiguous
    for ax in range(grid.ndim):
        h = grid.spacings[ax]
        g = by_axis[..., ax]
        inner = g[_axis_slice(total, ax, slice(1, -1))]
        np.subtract(
            nd[_axis_slice(total, ax, slice(2, None))],
            nd[_axis_slice(total, ax, slice(None, -2))],
            out=inner,
        )
        inner /= 2.0 * h
        g[_axis_slice(total, ax, 0)] = (
            -3.0 * nd[_axis_slice(total, ax, 0)]
            + 4.0 * nd[_axis_slice(total, ax, 1)]
            - nd[_axis_slice(total, ax, 2)]
        ) / (2.0 * h)
        g[_axis_slice(total, ax, -1)] = (
            3.0 * nd[_axis_slice(total, ax, -1)]
            - 4.0 * nd[_axis_slice(total, ax, -2)]
            + nd[_axis_slice(total, ax, -3)]
        ) / (2.0 * h)
    return out


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
        out[inner] = (
            nd[_axis_slice(total, i, slice(2, None))]
            - 2.0 * nd[inner]
            + nd[_axis_slice(total, i, slice(None, -2))]
        ) / grid.spacings[i] ** 2
        return out
    out[_cross_inner(total, i, j)] = _cross_difference(nd, grid, i, j)
    return out


def _cross_inner(total_ndim: int, i: int, j: int) -> tuple:
    """Index of the nodes off the faces of both axis i and axis j."""
    idx: list = [slice(None)] * total_ndim
    idx[i] = idx[j] = slice(1, -1)
    return tuple(idx)


def _cross_difference(nd: np.ndarray, grid: Grid, i: int, j: int) -> np.ndarray:
    """The four-point cross stencil (i != j) at the nodes of :func:`_cross_inner`."""
    total = nd.ndim
    hij = 4.0 * grid.spacings[i] * grid.spacings[j]
    pp = nd[_axis_slice(total, i, slice(2, None))][_axis_slice(total, j, slice(2, None))]
    pm = nd[_axis_slice(total, i, slice(2, None))][_axis_slice(total, j, slice(None, -2))]
    mp = nd[_axis_slice(total, i, slice(None, -2))][_axis_slice(total, j, slice(2, None))]
    mm = nd[_axis_slice(total, i, slice(None, -2))][_axis_slice(total, j, slice(None, -2))]
    return (pp - pm - mp + mm) / hij


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
    """Batched Thomas solve of independent tridiagonal systems.

    ``lower``, ``diag`` and ``upper`` have shape (..., N), one system per
    leading index; ``lower[..., 0]`` and ``upper[..., -1]`` are ignored.
    ``rhs`` has shape (..., N) or (..., N, k) with the same leading
    shape, and the solution has the shape of ``rhs``.  The loop runs
    along the line only; each of its steps is vectorized across every
    system and right-hand-side column.

    There is no pivoting, so every row must be strictly diagonally
    dominant, ``|diag| > |lower| + |upper|``.  ``step_imex`` guarantees
    this: interior rows are ``1 + 2 r a_ii`` on the diagonal and
    ``-r a_ii`` off it with ``a_ii > 0``, and face rows are identity
    rows, so every pivot is at least 1.  A zero or non-finite pivot
    raises :class:`LinearSolveError`.  The arithmetic is that of LAPACK's
    ``gtsv`` when it makes no row interchange, so such systems solve to
    the same bits.
    """
    line = diag.ndim - 1
    bands = (np.moveaxis(a, line, 0) for a in (lower, diag, upper))
    return np.moveaxis(_thomas(*bands, np.moveaxis(rhs, line, 0)), 0, line)


def _thomas(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """The Thomas loop of :func:`solve_tridiagonal` on line-first arrays.

    The bands have shape (N, ...) and ``rhs`` (N, ...) or (N, ..., k);
    the solution has the shape of ``rhs``.  The loop is fastest when each
    row ``a[i]`` is one contiguous block.
    """
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
    """Full-grid array holding prescribed values at face nodes (0 elsewhere)."""
    out = np.zeros((grid.n_nodes, m))
    if config.dirichlet_data is not None:
        mask, pts = grid_faces(grid)
        vals = np.asarray(config.dirichlet_data(horizon - t_next, pts), dtype=float)
        out[mask] = vals.reshape(pts.shape[0], m)
    return out


def _solve_axis_sweep(
    grid: Grid,
    work: np.ndarray,
    axis: int,
    coeff: np.ndarray,
    dt: float,
    bfull: np.ndarray,
) -> np.ndarray:
    """One implicit sweep (I - dt * a_axax d2/dx_ax^2) along a single axis.

    Every grid line along ``axis`` is an independent tridiagonal system
    whose two face rows are identity rows carrying the values of
    ``bfull``.  All lines and all m field components go to one batched
    Thomas loop, on copies laid out line axis first so that each row of
    the loop is one contiguous block.  Returns a new (n_nodes, m) array.
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
    faces = bfull.reshape(*shape, m).swapaxes(0, axis)
    for face in (0, -1):
        off[face] = 0.0
        diag[face] = 1.0
        rhs[face] = faces[face]

    sol = _thomas(off, diag, off, rhs)
    return sol.swapaxes(0, axis).reshape(grid.n_nodes, m)


def step_imex(
    u_now: np.ndarray,
    t: float,
    spec: ProblemSpec,
    config: SolverConfig,
    p: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Advance the reversed equation one time step from Cauchy time ``t``.

    ``u_now`` holds the (n_nodes, m) node values on ``config.grid`` and
    ``p`` their :func:`spatial_gradient`, computed here if not given.
    Diffusion (coefficients frozen at ``u_now``) is implicit, one
    tridiagonal sweep per axis; transport, reaction, the nonlocal table
    and, on 2-D and 3-D grids, the mixed derivatives are explicit.  Face
    rows carry the configured boundary values.  Returns the next level
    and max |a1|, the largest transport speed of this step.
    """
    grid = config.grid
    ndim = grid.ndim
    dt = spec.horizon / config.n_steps

    if p is None:
        p = spatial_gradient(grid, u_now)
    w = eval_nonlocal(grid, u_now, spec, t)
    a2, a1, a0 = assemble_coefficients(spec, t, grid_nodes(grid), u_now, p, w)

    if not all_finite(a2):
        raise DegenerateDiffusionError(
            "non-finite diffusion coefficient a2 on the grid; check sigma"
        )
    if not all(a2[:, i, i].min() > 0.0 for i in range(ndim)):
        raise DegenerateDiffusionError(
            "non-positive diffusion pivot a_ii; ellipticity fails on the grid"
        )

    expl = -np.einsum("bi,bmi->bm", a1, p)
    expl -= a0
    if ndim > 1:
        expl += _mixed_second_sum(u_now, a2, grid)
    expl *= dt
    rhs = u_now + expl

    bfull = _face_values(config, grid, t + dt, spec.horizon, u_now.shape[1])

    if not all_finite(rhs):
        raise BlowUpError("explicit terms produced non-finite values", level=-1)

    u_next = rhs
    for ax in range(ndim):
        u_next = _solve_axis_sweep(grid, u_next, ax, a2[:, ax, ax], dt, bfull)
    np.copyto(u_next, bfull, where=grid.boundary_mask()[:, None])

    if not all_finite(u_next):
        raise BlowUpError("implicit solve produced non-finite values", level=-1)
    return u_next, float(max(a1.max(), -a1.min()))


@dataclass(frozen=True)
class SolutionField:
    """Decoupling field snapshots on the grid, indexed by original time.

    ``values[i]`` approximates the field at times[i] and ``gradients[i]``
    its spatial gradient; the snapshot at the final time reproduces the
    boundary-prepared terminal data exactly.  Evaluation between
    snapshots is linear in time and multilinear in space, with queries
    clamped to the box.  :meth:`value` and :meth:`gradient` take ``t`` as
    a scalar or one time per point; ``gradient(t, x, with_value=True)``
    gives both on the same rows and locates the rows once.  A fresh array given to the field is
    taken over and made read-only; views and read-only arrays are copied.
    """

    grid: Grid
    times: np.ndarray  # (L,)
    values: np.ndarray  # (L, n_nodes, m)
    gradients: np.ndarray  # (L, n_nodes, m, n)
    spec: ProblemSpec
    config: SolverConfig

    def __post_init__(self):
        for name in ("times", "values", "gradients"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not all_finite(arr):
                raise ValueError(f"{name} must be finite")
            if arr.base is not None or not arr.flags.writeable:
                arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # time_bracket assumes uniform levels from 0
        t = self.times
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValueError(f"times must be 1-D with at least 2 levels, got shape {t.shape}")
        if t[0] != 0.0:
            raise ValueError(f"times must start at 0, got {t[0]}")
        step = t[-1] / (t.shape[0] - 1)
        if not (step > 0.0 and np.all(np.abs(np.diff(t) - step) <= 1e-9 * step)):
            raise ValueError("times must be uniform and increasing")

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
        i = np.clip(np.floor(s), 0, self.times.shape[0] - 2).astype(np.int64)
        return i, np.clip(s - i, 0.0, 1.0)

    def interpolate(
        self, t, points: np.ndarray, data: np.ndarray, first_level: int = 0
    ) -> np.ndarray:
        """Per-level node data (L, n_nodes, ...) at time ``t`` (scalar or (B,)).

        ``data[l]`` is level ``first_level + l``: it need only hold the levels
        that bracket ``t``.  Only the 2^d cell corners of each point are
        blended in time, elementwise the arithmetic of blending whole levels.
        """
        return self._interpolate_each(t, points, (data,), first_level)[0]

    def _interpolate_each(self, t, points, datas, first_level: int = 0) -> list:
        """:meth:`interpolate` of each of ``datas``, the rows located once."""
        flats, weights = cell_corners(self.grid, points)
        i, alpha = self.time_bracket(t)
        out = []
        for data in datas:
            a = np.reshape(alpha, alpha.shape + (1,) * (data.ndim - 2))
            expand = (slice(None),) + (None,) * (data.ndim - 2)
            rows = data.reshape((-1,) + data.shape[2:])  # level i, node k: row i * n_nodes + k
            row = (i - first_level) * data.shape[1] + flats
            # np.take copies the gathered rows in one pass; rows[row] copies each on its own
            corner_values = (1.0 - a) * np.take(rows, row, axis=0) + a * np.take(
                rows, row + data.shape[1], axis=0
            )
            blended = np.zeros(corner_values.shape[1:])
            for weight, corner in zip(weights, corner_values):
                blended += weight[expand] * corner
            out.append(blended)
        return out

    def value(self, t, points: np.ndarray) -> np.ndarray:
        return self.interpolate(t, points, self.values)

    def gradient(self, t, points: np.ndarray, with_value: bool = False):
        """Spatial gradient at the rows (``t``, ``points``).

        With ``with_value``, returns (value, gradient) and locates the rows
        once for both; each is the array of its own query, bit for bit.
        """
        if with_value:
            return tuple(self._interpolate_each(t, points, (self.values, self.gradients)))
        return self.interpolate(t, points, self.gradients)

    def nonlocal_table(
        self, t, points: np.ndarray, u_here: np.ndarray | None = None
    ) -> np.ndarray:
        """Shifted-difference table at off-grid base points, original time.

        ``t`` is a scalar or one time per point; ``u_here`` defaults to
        the field's value at ``points``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if u_here is None:
            u_here = self.value(t, pts)
        return shifted_differences(lambda q: self.value(t, q), self.spec, t, pts, u_here)

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


def growth_rate(constants: MaxPrincipleConstants, spec: ProblemSpec) -> float:
    """Exponential rate c2 + c3 * L^2 + 1 with L = 2 nu(Z)."""
    l_nonlocal = 2.0 * spec.measure.total_mass
    return constants.c2 + constants.c3 * l_nonlocal**2 + 1.0


def check_max_principle(
    field: SolutionField,
    diag: Diagnostics,
    constants: MaxPrincipleConstants | None = None,
    tol: float | None = None,
) -> MaxPrincipleResult:
    """A-priori sup bound exp(lambda T) * max(sup of data, sqrt(c1)).

    Sup norms are recomputed from the stored snapshots; the bound uses
    the data sups recorded at solve time, so a rescaled field is caught.
    The check never raises; a failure carries the first violating level.
    """
    if constants is None:
        constants = diag.constants
    if tol is None:
        tol = field.config.max_principle_tol
    _check_tolerance("tol", tol)
    lam = growth_rate(constants, field.spec)
    base = max(diag.initial_data_sup, diag.boundary_data_sup, math.sqrt(constants.c1))
    bound = math.exp(lam * field.spec.horizon) * base
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
    and re-indexes the levels back to original time.  Any
    non-finite level aborts with :class:`BlowUpError`.
    """
    grid = config.grid
    T = spec.horizon
    n_steps = config.n_steps
    dt = T / n_steps
    nodes = grid_nodes(grid)
    mask, face_nodes = grid_faces(grid)

    h_vals = np.asarray(spec.terminal(nodes), dtype=float).reshape(grid.n_nodes, spec.m)
    if not all_finite(h_vals):
        raise ValueError("terminal data h must be finite at every grid node")
    if config.dirichlet_data is None:
        xi = cutoff_values(grid, config.cutoff_width)
        u0 = h_vals * xi[:, None]
        boundary_sup = 0.0
    else:
        u0 = h_vals.copy()
        psi0 = np.asarray(config.dirichlet_data(T, face_nodes), dtype=float)
        if not all_finite(psi0):
            raise ValueError("Dirichlet data must be finite at every face node")
        u0[mask] = psi0.reshape(-1, spec.m)
        boundary_sup = float(np.sqrt(np.sum(u0[mask] ** 2, axis=-1)).max())

    # march level j is stored at original-time level n_steps - j, and its
    # gradient is computed once, for the step and for the field
    values = np.empty((n_steps + 1, grid.n_nodes, spec.m))
    gradients = np.empty(values.shape + (grid.ndim,))
    values[-1] = u = u0
    coarse = False
    for j in range(n_steps):
        p = spatial_gradient(grid, u, out=gradients[-1 - j])
        try:
            u, max_transport = step_imex(u, j * dt, spec, config, p)
        except BlowUpError as exc:
            raise BlowUpError(
                f"solution blew up at time level {j + 1}: {exc}", level=j + 1
            ) from None
        if j == 0:
            # transport-resolution heuristic: coarse N_t is allowed, only flagged
            coarse = dt * max_transport > min(grid.spacings)
        if config.dirichlet_data is not None:
            face_now = np.asarray(
                config.dirichlet_data(T - (j + 1) * dt, face_nodes), dtype=float
            ).reshape(-1, spec.m)
            boundary_sup = max(
                boundary_sup, float(np.sqrt(np.sum(face_now**2, axis=-1)).max())
            )
        values[-2 - j] = u
    spatial_gradient(grid, u, out=gradients[0])
    times = np.linspace(0.0, T, n_steps + 1)

    field_obj = SolutionField(
        grid=grid,
        times=times,
        values=values,
        gradients=gradients,
        spec=spec,
        config=config,
    )
    sup_u = field_obj.sup_norms()
    # level by level: a whole-array square would copy the gradients
    sup_grad = np.array([np.sqrt(np.sum(g**2, axis=(-1, -2))).max() for g in gradients])

    diag = Diagnostics(
        sup_u=sup_u,
        sup_gradient=sup_grad,
        initial_data_sup=float(sup_u[-1]),
        boundary_data_sup=boundary_sup,
        coarse_time_grid=bool(coarse),
        constants=constants,
    )
    return field_obj, diag
