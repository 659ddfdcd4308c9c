"""Reconstruction of (Y, Z, Ztilde) along paths and residual diagnostics.

The backward pair is read off the decoupling field: Y is the field at
the current state, Z the field gradient composed with the diffusion,
and Ztilde the per-atom shifted-difference table at the pre-jump state.
The backward-equation residual is a terminal telescoping check over the
whole interval, with the compensated jump sum standing in for the
integral against the compensated measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .paths import Ensemble
from .problem import ProblemSpec
from .solver import SolutionField, second_difference

__all__ = [
    "Linked",
    "ResidualReport",
    "TestFunction",
    "link_ensemble",
    "bsde_residual",
    "ito_residuals",
    "estimate_class_s_norm",
    "field_test_function",
]


@dataclass(frozen=True)
class Linked:
    """(Y, Z, Ztilde) sampled along every path of an ensemble.

    ``y[p, j]`` is exactly the field interpolated at (t_j, X^p_j);
    ``ztilde[p, j]`` is the per-atom table at the current state (between
    jumps states and pre-jump states coincide at grid times);
    ``jump_values[e]`` is the table entry at the pre-jump state and atom
    of row ``e`` of the ensemble's event table.
    """

    ensemble: Ensemble
    field: SolutionField
    y: np.ndarray  # (P, L, m)
    z: np.ndarray  # (P, L, m, n)
    ztilde: np.ndarray  # (P, L, K, m)
    jump_values: np.ndarray  # (E, m)

    def __len__(self) -> int:
        return len(self.ensemble)

    def take(self, index) -> Linked:
        """The paths ``index``, in that order, as a new linked ensemble."""
        index = np.asarray(index, dtype=np.int64)
        return Linked(
            ensemble=self.ensemble.take(index),
            field=self.field,
            y=self.y[index],
            z=self.z[index],
            ztilde=self.ztilde[index],
            jump_values=self.jump_values[self.ensemble.event_rows(index)],
        )


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


def link_ensemble(
    ensemble: Ensemble, field: SolutionField, spec: ProblemSpec
) -> Linked:
    """Link a whole ensemble, vectorized across paths level by level."""
    if field.spec is not spec:
        raise ValueError("path ensemble and field must share the same ProblemSpec")
    times, states = ensemble.times, ensemble.states
    n_paths, n_levels = states.shape[:2]

    y = np.empty((n_paths, n_levels, spec.m))
    z = np.empty((n_paths, n_levels, spec.m, spec.n))
    ztab = np.empty((n_paths, n_levels, len(spec.measure), spec.m))
    for j in range(n_levels):
        t = float(times[j])
        xb = states[:, j]
        yb = field.value(t, xb)
        sig = np.asarray(spec.diffusion(t, xb, yb), dtype=float).reshape(
            n_paths, spec.n, spec.n
        )
        grad = field.gradient(t, xb)
        y[:, j] = yb
        z[:, j] = np.einsum("bmi,bij->bmj", grad, sig)
        ztab[:, j] = field.nonlocal_table(t, xb, u_here=yb)

    events = ensemble.events
    jump_values = np.empty((len(events), spec.m))
    for e, (t, k, xb) in enumerate(
        zip(events.time.tolist(), events.atom.tolist(), events.x_before)
    ):
        jump_values[e] = field.nonlocal_table(t, xb[None, :])[0, k]
    return Linked(
        ensemble=ensemble, field=field, y=y, z=z, ztilde=ztab, jump_values=jump_values
    )


def _fsum_rows(values: np.ndarray) -> float:
    # order-insensitive reduction over the path axis
    return math.fsum(values.tolist())


def estimate_class_s_norm(linked: Linked) -> float:
    """Monte Carlo estimate of the solution-class norm.

    sup over time of (E|X|^2 + E|Y|^2) plus the dt-weighted sum of
    E|Z|^2 and the nu-weighted squared table norm.  Reductions over
    paths use exact summation, so the estimate is invariant under path
    reordering and ensemble splitting.
    """
    if not len(linked):
        raise ValueError("ensemble must be non-empty")
    times = linked.ensemble.times
    n_paths = len(linked)
    weights = linked.field.spec.measure.weights

    x_sq = np.sum(linked.ensemble.states**2, axis=-1)  # (P, L)
    y_sq = np.sum(linked.y**2, axis=-1)
    z_sq = np.sum(linked.z**2, axis=(-1, -2))
    w_sq = np.einsum("pjkm,k->pj", linked.ztilde**2, weights)

    sup_term = max(
        _fsum_rows(x_sq[:, j]) / n_paths + _fsum_rows(y_sq[:, j]) / n_paths
        for j in range(times.shape[0])
    )
    dts = np.diff(times)
    int_term = math.fsum(
        float(dts[j])
        * (_fsum_rows(z_sq[:, j]) / n_paths + _fsum_rows(w_sq[:, j]) / n_paths)
        for j in range(dts.shape[0])
    )
    return sup_term + int_term


def bsde_residual(linked: Linked, spec: ProblemSpec | None = None) -> ResidualReport:
    """Terminal telescoping residual of the backward equation per path.

    R = Y_0 - [h(X_T) + sum g dt - sum Z dB - (jump sum - compensator)].
    Paths that left the grid are excluded from the statistics and
    counted in ``excluded_paths``.
    """
    if not len(linked):
        raise ValueError("linked ensemble must be non-empty")
    spec = spec or linked.field.spec
    exited = linked.ensemble.exited
    included = linked.take(np.flatnonzero(~exited)) if exited.any() else linked
    excluded = len(linked) - len(included)
    if not len(included):
        empty = np.zeros((0, spec.m))
        return ResidualReport(
            residuals=empty,
            rms=float("nan"),
            mean=np.full(spec.m, np.nan),
            stderr=np.full(spec.m, np.nan),
            class_s_norm=float("nan"),
            excluded_paths=excluded,
            total_paths=len(linked),
        )

    times, states = included.ensemble.times, included.ensemble.states
    n_paths = len(included)
    n_steps = times.shape[0] - 1
    dts = np.diff(times)
    y, z, ztab = included.y, included.z, included.ztilde
    db = included.ensemble.brownian_increments

    gen = np.empty((n_paths, n_steps, spec.m))
    for j in range(n_steps):
        t = float(times[j])
        gen[:, j] = np.asarray(
            spec.generator(t, states[:, j], y[:, j], z[:, j], ztab[:, j]), dtype=float
        ).reshape(n_paths, spec.m)

    h_val = np.asarray(spec.terminal(states[:, -1]), dtype=float).reshape(
        n_paths, spec.m
    )
    gen_term = np.einsum("pjm,j->pm", gen, dts)
    brown_term = np.einsum("pjmi,pji->pm", z[:, :n_steps], db)
    comp_term = np.einsum("pjkm,k,j->pm", ztab[:, :n_steps], spec.measure.weights, dts)
    # one block sum per path: np.add.at or np.add.reduceat round differently
    off = included.ensemble.event_offsets
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
        total_paths=len(linked),
    )


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function with the derivatives the jump Ito check needs."""

    __test__ = False  # not a pytest collection target

    value: Callable  # (t, x (B, n)) -> (B,)
    grad: Callable  # -> (B, n)
    hess: Callable  # -> (B, n, n)
    dt: Callable  # -> (B,)


def field_test_function(field: SolutionField, component: int = 0) -> TestFunction:
    """Test function built from one field component.

    Time derivatives use forward differences of consecutive snapshots,
    second space derivatives second-difference stencils (zero on faces);
    everything is interpolated like the field itself.
    """
    grid = field.grid
    ndim = grid.ndim
    shape = grid.shape
    n_levels = field.times.shape[0]
    dt_field = float(field.times[1] - field.times[0])

    comp_vals = field.values[:, :, component]  # (L, n_nodes)
    dt_snaps = (comp_vals[1:] - comp_vals[:-1]) / dt_field

    hess_snaps = np.zeros((n_levels, grid.n_nodes, ndim, ndim))
    for lev in range(n_levels):
        nd = comp_vals[lev].reshape(shape)
        for i in range(ndim):
            for j in range(i, ndim):
                d2 = second_difference(nd, grid, i, j).ravel()
                hess_snaps[lev, :, i, j] = d2
                hess_snaps[lev, :, j, i] = d2

    from .grid import multilinear_interpolate

    def value(t, x):
        return field.value(t, x)[:, component]

    def grad(t, x):
        return field.gradient(t, x)[:, component, :]

    def hess(t, x):
        i, alpha = field.time_bracket(t)
        blended = (1.0 - alpha) * hess_snaps[i] + alpha * hess_snaps[i + 1]
        return multilinear_interpolate(grid, blended, x)

    def time_deriv(t, x):
        i, _ = field.time_bracket(t)
        return multilinear_interpolate(grid, dt_snaps[i], x)

    return TestFunction(value=value, grad=grad, hess=hess, dt=time_deriv)


def ito_residuals(linked: Linked, test_fn: Optional[TestFunction] = None) -> np.ndarray:
    """Discretized jump Ito identity residual per path.

    The increment of the test function along the path is compared with
    the time-derivative, gradient-drift, Brownian, Hessian terms, the
    compensated jump sum, and the jump compensator integrand
    (difference minus gradient pairing).  Returns one real per path.
    """
    if not len(linked):
        return np.zeros(0)
    field = linked.field
    spec = field.spec
    meas = spec.measure
    tf = test_fn if test_fn is not None else field_test_function(field)
    times, states = linked.ensemble.times, linked.ensemble.states
    n_paths = len(linked)
    n_steps = times.shape[0] - 1
    dts = np.diff(times)
    y, z, ztab = linked.y, linked.z, linked.ztilde
    db = linked.ensemble.brownian_increments

    time_term = np.zeros(n_paths)
    drift_term = np.zeros(n_paths)
    brown_term = np.zeros(n_paths)
    hess_term = np.zeros(n_paths)
    comp_jump = np.zeros(n_paths)
    integrand_term = np.zeros(n_paths)
    for j in range(n_steps):
        t = float(times[j])
        h_step = float(dts[j])
        xb = states[:, j]
        gx = np.asarray(tf.grad(t, xb), dtype=float).reshape(n_paths, spec.n)
        time_term += np.asarray(tf.dt(t, xb), dtype=float).reshape(n_paths) * h_step
        f_raw = np.asarray(
            spec.drift(t, xb, y[:, j], z[:, j], ztab[:, j]), dtype=float
        ).reshape(n_paths, spec.n)
        drift_term += np.einsum("bi,bi->b", gx, f_raw) * h_step
        sig = np.asarray(spec.diffusion(t, xb, y[:, j]), dtype=float).reshape(
            n_paths, spec.n, spec.n
        )
        brown_term += np.einsum("bi,bij,bj->b", gx, sig, db[:, j])
        hx = np.asarray(tf.hess(t, xb), dtype=float).reshape(n_paths, spec.n, spec.n)
        gram = np.einsum("bik,bjk->bij", sig, sig)
        hess_term += 0.5 * np.einsum("bij,bij->b", hx, gram) * h_step
        base = np.asarray(tf.value(t, xb), dtype=float).reshape(n_paths)
        for k in range(len(meas)):
            shift = np.asarray(
                spec.jump_coeff(t, xb, y[:, j], meas.marks[k]), dtype=float
            ).reshape(n_paths, spec.n)
            dphi = (
                np.asarray(tf.value(t, xb + shift), dtype=float).reshape(n_paths)
                - base
            )
            pairing = np.einsum("bi,bi->b", gx, shift)
            comp_jump += meas.weights[k] * dphi * h_step
            integrand_term += meas.weights[k] * (dphi - pairing) * h_step

    events = linked.ensemble.events
    jump_sum = np.zeros(n_paths)
    for p, t, x_before, x_after in zip(
        events.path.tolist(), events.time.tolist(), events.x_before, events.x_after
    ):
        before = float(tf.value(t, x_before[None, :])[0])
        after = float(tf.value(t, x_after[None, :])[0])
        jump_sum[p] += after - before

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
