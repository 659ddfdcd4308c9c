"""IMEX finite-difference solver for the decoupling field.

The decoupling field is obtained by time-reversing the final-value
problem into a forward march: u(t, x) = field(T - t, x) starts from the
(cutoff-multiplied) terminal data and advances with an IMEX step.  The
second-order term, with coefficients frozen at the previous level, is
treated implicitly; transport, reaction and the nonlocal contributions
are explicit.  Snapshots are re-indexed back to original time before
they are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, DegenerateDiffusionError, LinearSolveError
from .grid import Grid, GridFunction, grid_nodes, multilinear_interpolate
from .operators import assemble_coefficients, eval_nonlocal
from .problem import ProblemSpec

__all__ = [
    "SolverConfig",
    "MaxPrincipleConstants",
    "SolutionField",
    "Diagnostics",
    "MaxPrincipleResult",
    "cutoff_values",
    "spatial_gradient",
    "solve_tridiagonal",
    "step_imex",
    "solve_final_value",
    "check_max_principle",
]

_SOLVER_MODES = ("auto", "tridiag", "adi", "sparse")


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and boundary choices for one solve.

    With ``dirichlet_data`` unset the field is solved with the cutoff
    boundary construction: terminal data multiplied by a C^2 cutoff that
    is 1 on the inner box and 0 on the faces, zero face values
    throughout.  Supplying ``dirichlet_data(t, x) -> (B, m)`` (t in
    original time) switches to prescribed face values, which
    manufactured-solution verification needs.
    """

    grid: Grid
    n_steps: int
    cutoff_width: float = 1.0
    lin_tol: float = 1e-10
    max_principle_tol: float = 1e-10
    linear_solver: str = "auto"
    dirichlet_data: Optional[Callable] = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.cutoff_width <= 0.0:
            raise ValueError("cutoff width must be positive")
        if self.lin_tol <= 0.0 or self.max_principle_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.linear_solver not in _SOLVER_MODES:
            raise ValueError(f"linear_solver must be one of {_SOLVER_MODES}")
        for lo, hi in zip(self.grid.lower, self.grid.upper):
            if not self.cutoff_width < 0.5 * (hi - lo):
                raise ValueError("cutoff width must be below half the box width")

    def resolved_solver(self, ndim: int) -> str:
        if self.linear_solver != "auto":
            if self.linear_solver == "tridiag" and ndim != 1:
                raise ValueError("tridiag solver requires a 1-D grid")
            return self.linear_solver
        return "tridiag" if ndim == 1 else "adi"


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
        if min(self.c1, self.c2, self.c3) < 0.0:
            raise ValueError("constants must be nonnegative")


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


def spatial_gradient(u: GridFunction) -> np.ndarray:
    """Per-node gradient, shape (n_nodes, m, n).

    Central differences at interior nodes, one-sided second-order
    stencils on the faces; exact for node values of affine functions.
    """
    grid = u.grid
    shape = grid.shape
    m = u.m
    nd = u.values.reshape(*shape, m)
    total = grid.ndim + 1
    out = np.empty(shape + (m, grid.ndim))
    for ax in range(grid.ndim):
        h = grid.spacings[ax]
        g = np.empty_like(nd)
        g[_axis_slice(total, ax, slice(1, -1))] = (
            nd[_axis_slice(total, ax, slice(2, None))]
            - nd[_axis_slice(total, ax, slice(None, -2))]
        ) / (2.0 * h)
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
        out[..., ax] = g
    return out.reshape(grid.n_nodes, m, grid.ndim)


def _mixed_second_sum(values: np.ndarray, a2: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum of cross-derivative terms 2 a_ij d2u/dx_i dx_j over pairs i < j.

    Cross stencils need interior neighbours in both axes; contributions
    at face-adjacent nodes in either axis are dropped (those rows are
    overwritten by the boundary condition anyway).
    """
    shape = grid.shape
    m = values.shape[1]
    nd = values.reshape(*shape, m)
    total = grid.ndim + 1
    out = np.zeros(shape + (m,))
    for i in range(grid.ndim):
        for j in range(i + 1, grid.ndim):
            coeff = (2.0 * a2[:, i, j]).reshape(shape)
            hij = 4.0 * grid.spacings[i] * grid.spacings[j]
            cross = np.zeros(shape + (m,))
            pp = nd[_axis_slice(total, i, slice(2, None))][
                _axis_slice(total, j, slice(2, None))
            ]
            pm = nd[_axis_slice(total, i, slice(2, None))][
                _axis_slice(total, j, slice(None, -2))
            ]
            mp = nd[_axis_slice(total, i, slice(None, -2))][
                _axis_slice(total, j, slice(2, None))
            ]
            mm = nd[_axis_slice(total, i, slice(None, -2))][
                _axis_slice(total, j, slice(None, -2))
            ]
            inner = _axis_slice(total, i, slice(1, -1))
            cross[inner][_axis_slice(total, j, slice(1, -1))] = (pp - pm - mp + mm) / hij
            out += coeff[..., None] * cross
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
    arrays = [lower, diag, upper, rhs]
    if rhs.ndim > diag.ndim:
        if rhs.shape[-1] == 1:
            # one column: a single system's row entries then become numpy
            # scalars, whose arithmetic costs far less than that of (1,) arrays
            arrays[3] = rhs[..., 0]
        else:
            # the columns of a row share its coefficients
            arrays[:3] = [a[..., None] for a in arrays[:3]]
    # one entry per row, each entry spanning every system at once
    low, piv, up, x = (list(np.moveaxis(a, line, 0)) for a in arrays)
    n = len(piv)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, n):
            fact = low[i] / piv[i - 1]
            piv[i] = piv[i] - fact * up[i - 1]
            x[i] = x[i] - fact * x[i - 1]
        pivots = np.array(piv)
        if not np.all(np.isfinite(pivots) & (pivots != 0.0)):
            raise LinearSolveError("tridiagonal solve hit a zero or non-finite pivot")
        x[-1] = x[-1] / piv[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (x[i] - up[i] * x[i + 1]) / piv[i]
    return np.moveaxis(np.array(x), 0, line).reshape(rhs.shape)


def _face_values(
    config: SolverConfig, grid: Grid, t_next: float, horizon: float, m: int
) -> np.ndarray:
    """Full-grid array holding prescribed values at face nodes (0 elsewhere)."""
    out = np.zeros((grid.n_nodes, m))
    mask = grid.boundary_mask()
    if config.dirichlet_data is not None:
        pts = grid_nodes(grid)[mask]
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
    :func:`solve_tridiagonal` call on the (..., N, m) stack, with the
    other axes as batch axes.  Returns a new (n_nodes, m) array.
    """
    shape = grid.shape
    m = work.shape[1]
    h = grid.spacings[axis]
    r = dt / (h * h)

    faces = [0, -1]
    cf = np.moveaxis(coeff.reshape(shape), axis, -1)
    off = -r * cf  # the operator is symmetric: lower and upper bands agree
    diag = 1.0 + 2.0 * r * cf
    off[..., faces] = 0.0
    diag[..., faces] = 1.0
    rhs = np.moveaxis(work.reshape(*shape, m), axis, -2).copy()
    rhs[..., faces, :] = np.moveaxis(bfull.reshape(*shape, m), axis, -2)[..., faces, :]

    sol = solve_tridiagonal(off, diag, off, rhs)
    return np.moveaxis(sol, -2, axis).reshape(grid.n_nodes, m)


def _build_sparse_matrix(grid: Grid, a2: np.ndarray, dt: float) -> "object":
    """CSR matrix of I - dt * sum_ij a_ij D_ij with identity boundary rows."""
    from scipy import sparse

    shape = grid.shape
    ndim = grid.ndim
    n_nodes = grid.n_nodes
    strides = grid.strides
    interior = ~grid.boundary_mask()
    idx = np.arange(n_nodes)

    rows = [idx]
    cols = [idx]
    vals = [np.ones(n_nodes)]

    multi = np.stack(np.unravel_index(idx, shape), axis=-1)
    for ax in range(ndim):
        h2 = grid.spacings[ax] ** 2
        sel = interior & (multi[:, ax] > 0) & (multi[:, ax] < shape[ax] - 1)
        rows_ax = idx[sel]
        coef = dt * a2[rows_ax, ax, ax] / h2
        rows += [rows_ax, rows_ax, rows_ax]
        cols += [rows_ax, rows_ax - strides[ax], rows_ax + strides[ax]]
        vals += [2.0 * coef, -coef, -coef]
    for i in range(ndim):
        for j in range(i + 1, ndim):
            hij = 4.0 * grid.spacings[i] * grid.spacings[j]
            sel = (
                interior
                & (multi[:, i] > 0)
                & (multi[:, i] < shape[i] - 1)
                & (multi[:, j] > 0)
                & (multi[:, j] < shape[j] - 1)
            )
            rows_ij = idx[sel]
            coef = dt * 2.0 * a2[rows_ij, i, j] / hij
            si, sj = strides[i], strides[j]
            rows += [rows_ij] * 4
            cols += [rows_ij + si + sj, rows_ij + si - sj, rows_ij - si + sj, rows_ij - si - sj]
            vals += [-coef, coef, coef, -coef]

    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    )
    return mat.tocsr()


def step_imex(
    u_now: GridFunction, t: float, spec: ProblemSpec, config: SolverConfig
) -> GridFunction:
    """Advance the reversed equation one time step from Cauchy time ``t``.

    Diffusion (coefficients frozen at ``u_now``) is implicit; transport,
    reaction and the nonlocal table are explicit.  Face rows carry the
    configured boundary values.
    """
    grid = u_now.grid
    ndim = grid.ndim
    dt = spec.horizon / config.n_steps
    nodes = grid_nodes(grid)
    mode = config.resolved_solver(ndim)

    p = spatial_gradient(u_now)
    w = eval_nonlocal(u_now, spec, t)
    a2, a1, a0 = assemble_coefficients(spec, t, nodes, u_now.values, p, w.table)

    if not np.all(np.isfinite(a2)):
        raise DegenerateDiffusionError(
            "non-finite diffusion coefficient a2 on the grid; check sigma"
        )
    if not np.all(np.diagonal(a2, axis1=1, axis2=2) > 0.0):
        raise DegenerateDiffusionError(
            "non-positive diffusion pivot a_ii; ellipticity fails on the grid"
        )

    expl = -np.einsum("bi,bmi->bm", a1, p) - a0
    if ndim > 1 and mode != "sparse":
        expl = expl + _mixed_second_sum(u_now.values, a2, grid)
    rhs = u_now.values + dt * expl

    bfull = _face_values(config, grid, t + dt, spec.horizon, u_now.m)
    mask = grid.boundary_mask()

    if not np.all(np.isfinite(rhs)):
        raise BlowUpError("explicit terms produced non-finite values", level=-1)

    if mode != "sparse":
        # tridiag is the 1-D case of the axis loop
        u_next = rhs
        for ax in range(ndim):
            u_next = _solve_axis_sweep(grid, u_next, ax, a2[:, ax, ax], dt, bfull)
        u_next[mask] = bfull[mask]
    else:
        from scipy.sparse.linalg import gmres

        mat = _build_sparse_matrix(grid, a2, dt)
        rhs_b = rhs.copy()
        rhs_b[mask] = bfull[mask]
        u_next = np.empty_like(rhs_b)
        for comp in range(u_now.m):
            sol, info = gmres(
                mat,
                rhs_b[:, comp],
                x0=u_now.values[:, comp],
                rtol=config.lin_tol,
                atol=0.0,
            )
            if info != 0:
                raise LinearSolveError(f"gmres failed to converge (info={info})")
            u_next[:, comp] = sol

    if not np.all(np.isfinite(u_next)):
        raise BlowUpError("implicit solve produced non-finite values", level=-1)
    return GridFunction(grid=grid, values=u_next, t=t + dt)


@dataclass(frozen=True)
class SolutionField:
    """Decoupling field snapshots on the grid, indexed by original time.

    ``values[i]`` approximates the field at times[i] and ``gradients[i]``
    its spatial gradient; the snapshot at the final time reproduces the
    boundary-prepared terminal data exactly.  Evaluation between
    snapshots is linear in time and multilinear in space, with queries
    clamped to the box.
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
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.values.shape[2]

    def _blend(self, t: float, data: np.ndarray) -> np.ndarray:
        n_levels = data.shape[0]
        dt = self.times[1] - self.times[0]
        s = t / dt
        i = int(np.clip(np.floor(s), 0, n_levels - 2))
        alpha = float(np.clip(s - i, 0.0, 1.0))
        return (1.0 - alpha) * data[i] + alpha * data[i + 1]

    def value(self, t: float, points: np.ndarray) -> np.ndarray:
        return multilinear_interpolate(self.grid, self._blend(t, self.values), points)

    def gradient(self, t: float, points: np.ndarray) -> np.ndarray:
        return multilinear_interpolate(self.grid, self._blend(t, self.gradients), points)

    def nonlocal_table(
        self, t: float, points: np.ndarray, u_here: np.ndarray | None = None
    ) -> np.ndarray:
        """Shifted-difference table at off-grid base points, original time."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if u_here is None:
            u_here = self.value(t, pts)
        meas = self.spec.measure
        blended = self._blend(t, self.values)
        table = np.empty((pts.shape[0], len(meas), self.m))
        for k in range(len(meas)):
            shift = np.asarray(
                self.spec.jump_coeff(t, pts, u_here, meas.marks[k]), dtype=float
            ).reshape(pts.shape[0], self.grid.ndim)
            table[:, k, :] = (
                multilinear_interpolate(self.grid, blended, pts + shift) - u_here
            )
        return table

    def time_reversed(self) -> "SolutionField":
        return SolutionField(
            grid=self.grid,
            times=self.times,
            values=self.values[::-1],
            gradients=self.gradients[::-1],
            spec=self.spec,
            config=self.config,
        )

    def sup_norms(self) -> np.ndarray:
        """Per-level sup over nodes of the euclidean field norm."""
        return np.sqrt(np.sum(self.values**2, axis=-1)).max(axis=1)


@dataclass(frozen=True)
class Diagnostics:
    """Monitors recorded during a solve, indexed like the field snapshots."""

    sup_u: np.ndarray
    sup_gradient: np.ndarray
    initial_data_sup: float
    boundary_data_sup: float
    lambda_rate: float
    bound: float
    observed_sup: float
    max_principle_ok: bool
    first_violation_level: Optional[int]
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


def _bound_value(
    constants: MaxPrincipleConstants,
    spec: ProblemSpec,
    initial_sup: float,
    boundary_sup: float,
) -> tuple[float, float]:
    lam = growth_rate(constants, spec)
    base = max(initial_sup, boundary_sup, math.sqrt(constants.c1))
    return lam, math.exp(lam * spec.horizon) * base


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
    lam, bound = _bound_value(
        constants, field.spec, diag.initial_data_sup, diag.boundary_data_sup
    )
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
    mask = grid.boundary_mask()

    h_vals = np.asarray(spec.terminal(nodes), dtype=float).reshape(grid.n_nodes, spec.m)
    if config.dirichlet_data is None:
        xi = cutoff_values(grid, config.cutoff_width)
        u0 = h_vals * xi[:, None]
        boundary_sup = 0.0
    else:
        u0 = h_vals.copy()
        psi0 = np.asarray(config.dirichlet_data(T, nodes[mask]), dtype=float)
        u0[mask] = psi0.reshape(-1, spec.m)
        boundary_sup = float(np.sqrt(np.sum(u0[mask] ** 2, axis=-1)).max())

    levels = [u0]
    u = GridFunction(grid=grid, values=u0, t=0.0)
    coarse = False
    for j in range(n_steps):
        t = j * dt
        if j == 0:
            # transport-resolution heuristic: coarse N_t is allowed, only flagged
            p0 = spatial_gradient(u)
            w0 = eval_nonlocal(u, spec, t)
            _, a1_0, _ = assemble_coefficients(spec, t, nodes, u.values, p0, w0.table)
            max_transport = float(np.abs(a1_0).max())
            coarse = dt * max_transport > min(grid.spacings)
        try:
            u = step_imex(u, t, spec, config)
        except BlowUpError as exc:
            raise BlowUpError(
                f"solution blew up at time level {j + 1}: {exc}", level=j + 1
            ) from None
        if config.dirichlet_data is not None:
            face_now = np.asarray(
                config.dirichlet_data(T - (j + 1) * dt, nodes[mask]), dtype=float
            ).reshape(-1, spec.m)
            boundary_sup = max(
                boundary_sup, float(np.sqrt(np.sum(face_now**2, axis=-1)).max())
            )
        levels.append(u.values)

    values = np.stack(levels[::-1])
    times = np.linspace(0.0, T, n_steps + 1)
    gradients = np.stack(
        [
            spatial_gradient(GridFunction(grid=grid, values=v, t=float(ti)))
            for v, ti in zip(values, times)
        ]
    )

    field_obj = SolutionField(
        grid=grid,
        times=times,
        values=values,
        gradients=gradients,
        spec=spec,
        config=config,
    )
    sup_u = field_obj.sup_norms()
    sup_grad = np.sqrt(np.sum(gradients**2, axis=(-1, -2))).max(axis=1)
    initial_sup = float(sup_u[-1])

    lam, bound = _bound_value(constants, spec, initial_sup, boundary_sup)
    observed = float(sup_u.max())
    violating = np.nonzero(sup_u > bound * (1.0 + config.max_principle_tol))[0]
    first = int(violating[0]) if violating.size else None

    diag = Diagnostics(
        sup_u=sup_u,
        sup_gradient=sup_grad,
        initial_data_sup=initial_sup,
        boundary_data_sup=boundary_sup,
        lambda_rate=lam,
        bound=bound,
        observed_sup=observed,
        max_principle_ok=first is None,
        first_violation_level=first,
        coarse_time_grid=bool(coarse),
        constants=constants,
    )
    return field_obj, diag
