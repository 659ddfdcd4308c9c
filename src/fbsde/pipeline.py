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
runs of whole levels of at most ``_BLOCK_ROWS`` (path, level) rows, with
one time per row.  With the field's own test function the Ito check
reads u, its shifted differences and its event jumps off the ensemble,
and takes each block's gradient, Hessian and time difference from one
located stencil pass, :meth:`SolutionField.derivatives`.  Every row gets
the bits of a one-level query, the Ito check's per-path sums are still
added level by level, and the norm's squares are reduced per level, so
block size changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .paths import Ensemble
from .problem import ProblemSpec
from .solver import SolutionField, _check_component

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


# (path, level) rows queried together: bounds one level block's temporaries,
# about 1.5 kB a row in the Ito check's corner pass on a 2-D grid
_BLOCK_ROWS = 400


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


def estimate_class_s_norm(ensemble: Ensemble, keep=slice(None)) -> float:
    """Monte Carlo estimate of the solution-class norm.

    sup over time of (E|X|^2 + E|Y|^2) plus the dt-weighted sum of
    E|Z|^2 and the nu-weighted squared table norm, over the paths
    ``keep`` (an increasing index array, or all paths).  Reductions over
    paths use exact summation, so the estimate is invariant under path
    reordering and ensemble splitting.  The squares are formed one
    level block at a time, so no (P, L) array of them is ever held.
    """
    n_paths = np.arange(len(ensemble))[keep].shape[0]
    if not n_paths:
        raise ValueError("ensemble must be non-empty")
    times, states = ensemble.times, ensemble.states
    n_levels = states.shape[1]
    weights = ensemble.field.spec.measure.weights
    dts = np.diff(times)

    sup_terms, int_terms = [], []
    for block in _level_blocks(n_paths, n_levels):
        x_sq = np.sum(states[keep, block] ** 2, axis=-1)  # (P, block levels)
        y_sq = np.sum(ensemble.y[keep, block] ** 2, axis=-1)
        z_sq = np.sum(ensemble.z[keep, block] ** 2, axis=(-1, -2))
        w_sq = np.einsum("pjkm,k->pj", ensemble.ztilde[keep, block] ** 2, weights)
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
    over paths and levels it builds: the kept paths are gathered level by
    level, never copied whole, and the class-S norm goes level block by
    level block.
    """
    if not len(ensemble):
        raise ValueError("ensemble must be non-empty")
    if spec is not None and spec is not ensemble.field.spec:
        raise ValueError("field and spec must share the same ProblemSpec")
    spec = ensemble.field.spec
    exited = ensemble.exited
    keep = np.flatnonzero(~exited) if exited.any() else slice(None)
    kept = np.arange(len(ensemble))[keep]
    n_paths = kept.shape[0]
    excluded = len(ensemble) - n_paths
    if not n_paths:
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

    times, states = ensemble.times, ensemble.states
    n_steps = times.shape[0] - 1
    dts = np.diff(times)
    y, z, ztab = ensemble.y, ensemble.z, ensemble.ztilde

    gen = np.empty((n_paths, n_steps, spec.m))
    for j in range(n_steps):
        gen[:, j] = spec.g(float(times[j]), states[keep, j], y[keep, j], z[keep, j], ztab[keep, j])

    h_val = spec.h(states[keep, -1])
    gen_term = np.einsum("pjm,j->pm", gen, dts)
    # every path's sums are its own: summed over all paths, then the kept rows
    brown_term = np.einsum("pjmi,pji->pm", z[:, :n_steps], ensemble.brownian_increments)[keep]
    comp_term = np.einsum("pjkm,k,j->pm", ztab[:, :n_steps], spec.measure.weights, dts)[keep]
    # one block sum per path: np.add.at or np.add.reduceat round differently
    off = ensemble.event_offsets
    jump_term = np.zeros((n_paths, spec.m))
    for r in np.flatnonzero(np.diff(off)[keep]):
        p = kept[r]
        jump_term[r] = ensemble.jump_values[off[p] : off[p + 1]].sum(axis=0)
    residuals = y[keep, 0] - (
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
        class_s_norm=estimate_class_s_norm(ensemble, keep),
        excluded_paths=excluded,
        total_paths=len(ensemble),
    )


@dataclass(frozen=True)
class TestFunction:
    """Scalar test function with the derivatives the jump Ito check needs.

    :func:`field_test_function` also records the ``field`` and
    ``component`` it reads; with the ensemble's own field, the Ito check
    then reads the values off the ensemble and takes the derivatives from
    :meth:`SolutionField.derivatives`, and calls none of the four.
    """

    __test__ = False  # not a pytest collection target

    value: Callable  # (t scalar or (B,), x (B, n)) -> (B,)
    grad: Callable  # (t scalar or (B,), x) -> (B, n)
    hess: Callable  # (t scalar or (B,), x) -> (B, n, n)
    dt: Callable  # (t scalar, x) -> (B,)
    field: Optional[SolutionField] = None
    component: int = 0


def field_test_function(field: SolutionField, component: int = 0) -> TestFunction:
    """Test function built from one field component, in [0, m).

    Time derivatives use forward differences of consecutive snapshots,
    second space derivatives second-difference stencils (zero on faces);
    everything is interpolated like the field itself.  Both come from the
    cell corners of the query rows at the levels that bracket them.
    """
    component = _check_component(component, field.m)

    def value(t, x):
        return field.value(t, x)[:, component]

    def grad(t, x):
        return field.gradient(t, x)[:, component, :]

    def hess(t, x):
        return field.derivatives(t, x, component)[1]

    def time_deriv(t, x):
        return field.derivatives(t, x, component)[2]

    return TestFunction(
        value=value, grad=grad, hess=hess, dt=time_deriv, field=field, component=component
    )


def ito_residuals(ensemble: Ensemble, test_fn: Optional[TestFunction] = None) -> np.ndarray:
    """Discretized jump Ito identity residual per path.

    The increment of the test function along the path is compared with
    the time-derivative, gradient-drift, Brownian, Hessian terms, the
    compensated jump sum, and the jump compensator integrand
    (difference minus gradient pairing).  Returns one real per path.

    With the field's own test function (the default), the values come off
    the ensemble, bit for bit what ``value`` gives: the value at
    (t_j, X_j) is Y, the shifted difference is Ztilde and the event
    differences are the jump values; each level block's derivatives are
    one :meth:`SolutionField.derivatives` pass.
    """
    if not len(ensemble):
        return np.zeros(0)
    field = ensemble.field
    spec = field.spec
    meas = spec.measure
    tf = test_fn if test_fn is not None else field_test_function(field)
    own, c = tf.field is field, tf.component
    times, states = ensemble.times, ensemble.states
    n_paths = len(ensemble)
    n_steps = times.shape[0] - 1
    dts = np.diff(times)
    y, z, ztab = ensemble.y, ensemble.z, ensemble.ztilde
    db = ensemble.brownian_increments

    def call(fn, t, x, *shape):
        # a test function's result as a float array of rows
        return np.asarray(fn(t, x), dtype=float).reshape((-1,) + shape)

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
        if own:
            gx, hx, dudt = field.derivatives(t, xb, c)
            terms[0] = dudt * h
        else:
            gx, hx = call(tf.grad, t, xb, spec.n), call(tf.hess, t, xb, spec.n, spec.n)
            base = call(tf.value, t, xb)
        f_raw = spec.f(t, xb, yb, _rows(z, block), _rows(ztab, block))
        terms[1] = np.einsum("bi,bi->b", gx, f_raw) * h
        sig = spec.sigma(t, xb, yb)
        terms[2] = np.einsum("bi,bij,bj->b", gx, sig, _rows(db, block))
        gram = np.einsum("bik,bjk->bij", sig, sig)
        terms[3] = 0.5 * np.einsum("bij,bij->b", hx, gram) * h
        for k in range(n_atoms):
            shift = spec.phi(t, xb, yb, k)
            dphi = _rows(ztab[:, :, k, c], block) if own else call(tf.value, t, xb + shift) - base
            pairing = np.einsum("bi,bi->b", gx, shift)
            terms[4 + 2 * k] = meas.weights[k] * dphi * h
            terms[5 + 2 * k] = meas.weights[k] * (dphi - pairing) * h
        terms = terms.reshape(-1, n_paths, block.stop - block.start)
        for jj, j in enumerate(range(block.start, block.stop)):
            if not own:
                # a test function's time derivative takes one scalar time
                terms[0, :, jj] = call(tf.dt, float(times[j]), states[:, j]) * float(dts[j])
            sums[:4] += terms[:4, :, jj]
            for k in range(n_atoms):
                sums[4] += terms[4 + 2 * k, :, jj]
                sums[5] += terms[5 + 2 * k, :, jj]
    time_term, drift_term, brown_term, hess_term, comp_jump, integrand_term = sums

    events = ensemble.events
    if own:
        jumps, lhs = ensemble.jump_values[:, c], y[:, -1, c] - y[:, 0, c]
    else:
        jumps = call(tf.value, events.time, events.x_after) - call(
            tf.value, events.time, events.x_before
        )
        lhs = call(tf.value, float(times[-1]), states[:, -1]) - call(
            tf.value, float(times[0]), states[:, 0]
        )
    jump_sum = np.zeros(n_paths)
    # unbuffered, in event order: the rounding of a per-event running sum
    np.add.at(jump_sum, events.path, jumps)
    return lhs - (
        time_term
        + drift_term
        + brown_term
        + hess_term
        + (jump_sum - comp_jump)
        + integrand_term
    )
