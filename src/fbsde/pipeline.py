"""Residual diagnostics of a simulated ensemble and its (Y, Z, Ztilde).

The backward triple is read off the decoupling field while the paths are
simulated (see :mod:`fbsde.paths`): Y is the field at the current state,
Z the field gradient composed with the diffusion, and Ztilde the
per-atom shifted-difference table at the pre-jump state, all from
``SolutionField.backward_rows``.  Every coefficient is called through
the methods of :class:`ProblemSpec`.  The backward-equation residual is
a terminal telescoping check over the whole interval, with the
compensated jump sum standing in for the integral against the
compensated measure.

The Ito check and the class-S norm walk the time grid in level blocks:
runs of whole levels of at most ``_BLOCK_ROWS`` (path, level) rows,
queried in one batch with one time per row.  Every row gets the bits of
a one-level query, the Ito check's per-path sums are still added level
by level, and the norm's squares are reduced per level, so block size
changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import multilinear_interpolate
from .paths import Ensemble
from .problem import ProblemSpec
from .solver import SolutionField, second_difference

__all__ = [
    "ResidualReport",
    "TestFunction",
    "link_ensemble",
    "bsde_residual",
    "ito_residuals",
    "estimate_class_s_norm",
    "field_test_function",
]


@dataclass(frozen=True)
class ResidualReport:
    """Terminal backward-equation residuals over an ensemble."""

    residuals: np.ndarray  # (P_included, m)
    rms: float
    mean: np.ndarray  # (m,)
    stderr: np.ndarray  # (m,)
    class_s_norm: float
    excluded_paths: int
    total_paths: int


# (path, level) rows queried together: bounds one level block's temporaries
_BLOCK_ROWS = 1 << 11


def _level_blocks(n_paths: int, n_levels: int) -> list[slice]:
    """Runs of whole levels of at most ``_BLOCK_ROWS`` rows, at least one level each."""
    step = max(1, _BLOCK_ROWS // max(n_paths, 1))
    return [slice(lo, min(lo + step, n_levels)) for lo in range(0, n_levels, step)]


def _rows(a: np.ndarray, block: slice) -> np.ndarray:
    """The (path, level) rows of ``a[:, block]``, path-major, as one batch axis."""
    return a[:, block].reshape((-1,) + a.shape[2:])


def _level_rows(per_level: np.ndarray, block: slice, n_paths: int) -> np.ndarray:
    """The level's entry of ``per_level`` (times, steps) for each row of :func:`_rows`."""
    return np.broadcast_to(
        per_level[block], (n_paths, block.stop - block.start)
    ).reshape(-1)


def link_ensemble(
    ensemble: Ensemble, field: SolutionField, spec: ProblemSpec
) -> Ensemble:
    """``ensemble`` itself, which holds its (Y, Z, Ztilde) since it was simulated.

    ``field`` must be the field it was simulated with and ``spec`` that
    field's spec.
    """
    if field.spec is not spec:
        raise ValueError("path ensemble and field must share the same ProblemSpec")
    if field is not ensemble.field:
        raise ValueError("the ensemble was simulated with another field")
    return ensemble


def _fsum_rows(values: np.ndarray) -> float:
    # order-insensitive reduction over the path axis
    return math.fsum(values.tolist())


def estimate_class_s_norm(ensemble: Ensemble) -> float:
    """Monte Carlo estimate of the solution-class norm.

    sup over time of (E|X|^2 + E|Y|^2) plus the dt-weighted sum of
    E|Z|^2 and the nu-weighted squared table norm.  Reductions over
    paths use exact summation, so the estimate is invariant under path
    reordering and ensemble splitting.  The squares are formed one
    level block at a time, so no (P, L) array of them is ever held.
    """
    if not len(ensemble):
        raise ValueError("ensemble must be non-empty")
    times, states = ensemble.times, ensemble.states
    n_paths, n_levels = states.shape[:2]
    weights = ensemble.field.spec.measure.weights
    dts = np.diff(times)

    sup_terms, int_terms = [], []
    for block in _level_blocks(n_paths, n_levels):
        x_sq = np.sum(states[:, block] ** 2, axis=-1)  # (P, block levels)
        y_sq = np.sum(ensemble.y[:, block] ** 2, axis=-1)
        z_sq = np.sum(ensemble.z[:, block] ** 2, axis=(-1, -2))
        w_sq = np.einsum("pjkm,k->pj", ensemble.ztilde[:, block] ** 2, weights)
        for jj, j in enumerate(range(block.start, block.stop)):
            sup_terms.append(
                _fsum_rows(x_sq[:, jj]) / n_paths + _fsum_rows(y_sq[:, jj]) / n_paths
            )
            if j < dts.shape[0]:
                int_terms.append(
                    float(dts[j])
                    * (_fsum_rows(z_sq[:, jj]) / n_paths + _fsum_rows(w_sq[:, jj]) / n_paths)
                )
    return max(sup_terms) + math.fsum(int_terms)


def bsde_residual(ensemble: Ensemble, spec: ProblemSpec | None = None) -> ResidualReport:
    """Terminal telescoping residual of the backward equation per path.

    R = Y_0 - [h(X_T) + sum g dt - sum Z dB - (jump sum - compensator)].
    Paths that left the grid are excluded from the statistics and
    counted in ``excluded_paths``.  ``spec``, if given, must be the
    field's own.  The generator values, (P, L - 1, m), are the one array
    over paths and levels it builds; the class-S norm goes level block
    by level block.
    """
    if not len(ensemble):
        raise ValueError("ensemble must be non-empty")
    if spec is not None and spec is not ensemble.field.spec:
        raise ValueError("field and spec must share the same ProblemSpec")
    spec = ensemble.field.spec
    exited = ensemble.exited
    included = ensemble.take(np.flatnonzero(~exited)) if exited.any() else ensemble
    excluded = len(ensemble) - len(included)
    if not len(included):
        empty = np.zeros((0, spec.m))
        return ResidualReport(
            residuals=empty,
            rms=float("nan"),
            mean=np.full(spec.m, np.nan),
            stderr=np.full(spec.m, np.nan),
            class_s_norm=float("nan"),
            excluded_paths=excluded,
            total_paths=len(ensemble),
        )

    times, states = included.times, included.states
    n_paths = len(included)
    n_steps = times.shape[0] - 1
    dts = np.diff(times)
    y, z, ztab = included.y, included.z, included.ztilde
    db = included.brownian_increments

    gen = np.empty((n_paths, n_steps, spec.m))
    for j in range(n_steps):
        gen[:, j] = spec.g(float(times[j]), states[:, j], y[:, j], z[:, j], ztab[:, j])

    h_val = spec.h(states[:, -1])
    gen_term = np.einsum("pjm,j->pm", gen, dts)
    brown_term = np.einsum("pjmi,pji->pm", z[:, :n_steps], db)
    comp_term = np.einsum("pjkm,k,j->pm", ztab[:, :n_steps], spec.measure.weights, dts)
    # one block sum per path: np.add.at or np.add.reduceat round differently
    off = included.event_offsets
    jump_term = np.zeros((n_paths, spec.m))
    for p in np.flatnonzero(np.diff(off)):
        jump_term[p] = included.jump_values[off[p] : off[p + 1]].sum(axis=0)
    residuals = y[:, 0] - (
        h_val + gen_term - brown_term - (jump_term - comp_term)
    )

    sq = np.sum(residuals**2, axis=-1)
    rms = math.sqrt(_fsum_rows(sq) / n_paths)
    mean = np.array(
        [_fsum_rows(residuals[:, c]) / n_paths for c in range(spec.m)]
    )
    if n_paths > 1:
        var = np.array(
            [
                _fsum_rows((residuals[:, c] - mean[c]) ** 2) / (n_paths - 1)
                for c in range(spec.m)
            ]
        )
        stderr = np.sqrt(var / n_paths)
    else:
        stderr = np.full(spec.m, np.nan)

    return ResidualReport(
        residuals=residuals,
        rms=rms,
        mean=mean,
        stderr=stderr,
        class_s_norm=estimate_class_s_norm(included),
        excluded_paths=excluded,
        total_paths=len(ensemble),
    )


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function with the derivatives the jump Ito check needs."""

    __test__ = False  # not a pytest collection target

    value: Callable  # (t scalar or (B,), x (B, n)) -> (B,)
    grad: Callable  # (t scalar or (B,), x) -> (B, n)
    hess: Callable  # (t scalar or (B,), x) -> (B, n, n)
    dt: Callable  # (t scalar, x) -> (B,)


def field_test_function(field: SolutionField, component: int = 0) -> TestFunction:
    """Test function built from one field component.

    Time derivatives use forward differences of consecutive snapshots,
    second space derivatives second-difference stencils (zero on faces);
    everything is interpolated like the field itself.  Both are computed
    on demand from the levels that bracket the query time.
    """
    grid = field.grid
    dt_field = float(field.times[1] - field.times[0])
    comp_vals = field.values[:, :, component]  # (L, n_nodes)

    def value(t, x):
        return field.value(t, x)[:, component]

    def grad(t, x):
        return field.gradient(t, x)[:, component, :]

    def level_hessians(lo, hi):
        nd = comp_vals[lo:hi].T.reshape(grid.shape + (hi - lo,))
        levels = np.empty((hi - lo, grid.n_nodes, grid.ndim, grid.ndim))
        for a in range(grid.ndim):
            for b in range(a, grid.ndim):
                d2 = second_difference(nd, grid, a, b).reshape(grid.n_nodes, hi - lo).T
                levels[:, :, a, b] = levels[:, :, b, a] = d2
        return levels

    def hess(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])
        i, _ = field.time_bracket(t)
        out = np.empty((x.shape[0], grid.ndim, grid.ndim))
        # rows grouped by bracket level: a group's table of level Hessians holds
        # two levels, or no more node rows than its query gathers (2^d corners
        # at two levels per row), however far apart the rows' times are
        span = max(1, (x.shape[0] << (grid.ndim + 1)) // grid.n_nodes - 1)
        group = i // span
        for g in np.unique(group).tolist():
            rows = group == g
            lo, hi = int(i[rows].min()), int(i[rows].max()) + 2  # the levels blended
            out[rows] = field.interpolate(
                t[rows], x[rows], level_hessians(lo, hi), first_level=lo
            )
        return out

    def time_deriv(t, x):
        i, _ = field.time_bracket(t)
        return multilinear_interpolate(grid, (comp_vals[i + 1] - comp_vals[i]) / dt_field, x)

    return TestFunction(value=value, grad=grad, hess=hess, dt=time_deriv)


def ito_residuals(ensemble: Ensemble, test_fn: Optional[TestFunction] = None) -> np.ndarray:
    """Discretized jump Ito identity residual per path.

    The increment of the test function along the path is compared with
    the time-derivative, gradient-drift, Brownian, Hessian terms, the
    compensated jump sum, and the jump compensator integrand
    (difference minus gradient pairing).  Returns one real per path.
    """
    if not len(ensemble):
        return np.zeros(0)
    field = ensemble.field
    spec = field.spec
    meas = spec.measure
    tf = test_fn if test_fn is not None else field_test_function(field)
    times, states = ensemble.times, ensemble.states
    n_paths = len(ensemble)
    n_steps = times.shape[0] - 1
    dts = np.diff(times)
    y, z, ztab = ensemble.y, ensemble.z, ensemble.ztilde
    db = ensemble.brownian_increments

    # per-path running sums (time, drift, brownian, hessian, comp, integrand),
    # added level by level with atoms inner: the rounding of a per-level loop
    sums = np.zeros((6, n_paths))
    n_atoms = len(meas)
    for block in _level_blocks(n_paths, n_steps):
        t = _level_rows(times, block, n_paths)
        h = _level_rows(dts, block, n_paths)
        xb = _rows(states, block)
        yb = _rows(y, block)
        # one row per term: time, drift, brownian, hessian, then comp and
        # integrand of each atom k at 4 + 2k and 5 + 2k
        terms = np.empty((4 + 2 * n_atoms, t.shape[0]))
        gx = np.asarray(tf.grad(t, xb), dtype=float).reshape(-1, spec.n)
        f_raw = spec.f(t, xb, yb, _rows(z, block), _rows(ztab, block))
        terms[1] = np.einsum("bi,bi->b", gx, f_raw) * h
        sig = spec.sigma(t, xb, yb)
        terms[2] = np.einsum("bi,bij,bj->b", gx, sig, _rows(db, block))
        hx = np.asarray(tf.hess(t, xb), dtype=float).reshape(-1, spec.n, spec.n)
        gram = np.einsum("bik,bjk->bij", sig, sig)
        terms[3] = 0.5 * np.einsum("bij,bij->b", hx, gram) * h
        base = np.asarray(tf.value(t, xb), dtype=float).reshape(-1)
        for k in range(n_atoms):
            shift = spec.phi(t, xb, yb, k)
            dphi = np.asarray(tf.value(t, xb + shift), dtype=float).reshape(-1) - base
            pairing = np.einsum("bi,bi->b", gx, shift)
            terms[4 + 2 * k] = meas.weights[k] * dphi * h
            terms[5 + 2 * k] = meas.weights[k] * (dphi - pairing) * h
        terms = terms.reshape(-1, n_paths, block.stop - block.start)
        for jj, j in enumerate(range(block.start, block.stop)):
            # the test function's time derivative takes one scalar time
            terms[0, :, jj] = np.asarray(
                tf.dt(float(times[j]), states[:, j]), dtype=float
            ).reshape(n_paths) * float(dts[j])
            sums[:4] += terms[:4, :, jj]
            for k in range(n_atoms):
                sums[4] += terms[4 + 2 * k, :, jj]
                sums[5] += terms[5 + 2 * k, :, jj]
    time_term, drift_term, brown_term, hess_term, comp_jump, integrand_term = sums

    events = ensemble.events
    after = np.asarray(tf.value(events.time, events.x_after), dtype=float)
    before = np.asarray(tf.value(events.time, events.x_before), dtype=float)
    jump_sum = np.zeros(n_paths)
    # unbuffered, in event order: the rounding of a per-event running sum
    np.add.at(jump_sum, events.path, (after - before).reshape(len(events)))

    lhs = np.asarray(
        tf.value(float(times[-1]), states[:, -1]), dtype=float
    ).reshape(n_paths) - np.asarray(
        tf.value(float(times[0]), states[:, 0]), dtype=float
    ).reshape(n_paths)
    return lhs - (
        time_term
        + drift_term
        + brown_term
        + hess_term
        + (jump_sum - comp_jump)
        + integrand_term
    )
