"""Residual diagnostics of a simulated ensemble and its (Y, Z, Ztilde).

The backward triple is read off the decoupling field while the paths are
simulated (see :mod:`fbsde.paths`), through ``SolutionField.backward_rows``;
coefficients are called through :class:`ProblemSpec`.  The backward
residual telescopes over the whole interval, with the compensated jump
sum standing in for the integral against the compensated measure.

Both checks add each path's sums level by level, atoms inner, and its
jumps in event order, so a path's result depends on its own rows only.
The Ito check and the class-S norm walk the grid in level blocks of at
most ``_BLOCK_ROWS`` (path, level) rows; with the field's own test
function the Ito check reads u and its jumps off the ensemble and takes
each block's derivatives from one stencil pass.  Block size changes no
result.  Every reduction over paths has the bits of ``math.fsum``,
vectorized by error-free extraction (:func:`_pass_sums`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

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


def _level_blocks(n_paths: int, n_levels: int) -> Iterator[slice]:
    """Runs of whole levels of at most ``_BLOCK_ROWS`` rows, at least one level each.

    Made one at a time, so that no object per level is held.
    """
    step = max(1, _BLOCK_ROWS // max(n_paths, 1))
    return (slice(lo, min(lo + step, n_levels)) for lo in range(0, n_levels, step))


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


# extraction passes before a row goes to math.fsum: each pass takes about
# 53 - log2(P) bits off every entry, so a few cover rows whose entries span
# a few hundred binary orders of magnitude
_EXACT_PASSES = 10


def _pass_sums(rows: np.ndarray) -> list[list[float]]:
    """For each row of ``rows`` (C, P), a few doubles whose exact sum is the row's.

    Error-free extraction, ExtractVector of Rump, Ogita and Oishi
    ("Accurate floating-point summation part I", SIAM J. Sci. Comput. 31,
    2008): with sigma = 2^(e + ceil(log2(P + 2))) and 2^e > max|p|, the
    parts q = (sigma + p) - sigma are exact, so is their sum in any order,
    and so is the remainder p - q; the passes repeat until it is zero.
    A row that is not finite, that is near overflow or that is not done
    after ``_EXACT_PASSES`` passes is its own list of values.  The lists
    of two chunks of a finite row, joined, are a list of the whole row.
    """
    extra = (rows.shape[1] + 1).bit_length()  # ceil(log2(P + 2))
    p, big = rows, np.abs(rows).max(axis=1, initial=0.0)
    # 2 sigma must stay finite; inf and nan go to fsum, which passes them through
    direct = ~(big < 2.0 ** (1022 - extra))
    if direct.any():
        p = np.where(direct[:, None], 0.0, rows)
        big[direct] = 0.0
    parts = []
    while big.any():
        if len(parts) == _EXACT_PASSES:
            direct |= big > 0.0
            break
        sigma = np.ldexp(1.0, np.frexp(big)[1] + extra)[:, None]
        q = (sigma + p) - sigma
        p = p - q
        parts.append(q.sum(axis=1))
        big = np.abs(p).max(axis=1)
    out = np.stack(parts, axis=1).tolist() if parts else [[] for _ in range(p.shape[0])]
    for r in np.flatnonzero(direct):
        out[r] = rows[r].tolist()
    return out


def _exact_sums(rows: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of ``rows`` (C, P), bit for bit: the
    correctly rounded sum, whatever the order of the entries."""
    return [math.fsum(parts) for parts in _pass_sums(rows)]


def _path_jump_sums(ensemble: Ensemble, jumps: np.ndarray) -> np.ndarray:
    """Each path's sum of ``jumps``, one entry (or row) per event row.

    Unbuffered, in event order: the rounding of a per-event running sum.
    """
    out = np.zeros((len(ensemble),) + jumps.shape[1:])
    np.add.at(out, ensemble.events.path, jumps)
    return out


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

    # the sup kept running, as max() takes it in level order, and one
    # double per level for the integral, so that nothing else grows with L
    sup, int_terms = None, np.empty(n_levels - 1)
    for block in _level_blocks(n_paths, n_levels):
        n_block = block.stop - block.start
        # one row of paths per (square, level): the (P, block levels) squares transposed
        squares = np.empty((4, n_block, n_paths))
        squares[0] = np.sum(states[keep, block] ** 2, axis=-1).T
        squares[1] = np.sum(ensemble.y[keep, block] ** 2, axis=-1).T
        squares[2] = np.sum(ensemble.z[keep, block] ** 2, axis=(-1, -2)).T
        squares[3] = np.einsum("pjkm,k->pj", ensemble.ztilde[keep, block] ** 2, weights).T
        sums = _exact_sums(squares.reshape(4 * n_block, n_paths))
        for jj, j in enumerate(range(block.start, block.stop)):
            x_sum, y_sum, z_sum, w_sum = sums[jj::n_block]
            term = x_sum / n_paths + y_sum / n_paths
            sup = term if sup is None or term > sup else sup
            if j < n_levels - 1:
                dt = float(times[j + 1] - times[j])
                int_terms[j] = dt * (z_sum / n_paths + w_sum / n_paths)
    return sup + _exact_sums(int_terms[None])[0]


def bsde_residual(ensemble: Ensemble, spec: ProblemSpec | None = None) -> ResidualReport:
    """Terminal telescoping residual of the backward equation per path.

    R = Y_0 - [h(X_T) + sum g dt - sum Z dB - (jump sum - compensator)].
    Paths that left the grid are excluded from the statistics and
    counted in ``excluded_paths``.  ``spec``, if given, must be the
    field's own.  Each path's sums are added level by level, atoms
    inner, as the Ito check adds its terms, and its jump sum in event
    order, so its residual depends on its own rows only, not on the
    layout or chunking of the ensemble.  The kept paths are gathered one
    level at a time, never copied whole, and no array over paths and
    levels is built.  Every reduction over paths is an exact sum.
    """
    if not len(ensemble):
        raise ValueError("ensemble must be non-empty")
    if spec is not None and spec is not ensemble.field.spec:
        raise ValueError("field and spec must share the same ProblemSpec")
    spec = ensemble.field.spec
    exited = ensemble.exited
    keep = np.flatnonzero(~exited) if exited.any() else slice(None)
    excluded = int(exited.sum())
    n_paths = len(ensemble) - excluded
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
    y, z, ztab = ensemble.y, ensemble.z, ensemble.ztilde
    increments = ensemble.brownian_increments
    weights = spec.measure.weights

    gen_term, brown_term, comp_term = np.zeros((3, n_paths, spec.m))
    for j in range(times.shape[0] - 1):
        h, z_j, ztab_j = times[j + 1] - times[j], z[keep, j], ztab[keep, j]
        gen_term += spec.g(float(times[j]), states[keep, j], y[keep, j], z_j, ztab_j) * h
        brown_term += np.einsum("pmi,pi->pm", z_j, increments[keep, j])
        for k in range(len(weights)):
            comp_term += weights[k] * ztab_j[:, k] * h
    jump_term = _path_jump_sums(ensemble, ensemble.jump_values)[keep]
    residuals = y[keep, 0] - (
        spec.h(states[keep, -1]) + gen_term - brown_term - (jump_term - comp_term)
    )

    sums = _exact_sums(np.vstack([np.sum(residuals**2, axis=-1), residuals.T]))
    rms = math.sqrt(sums[0] / n_paths)
    mean = np.array(sums[1:]) / n_paths
    if n_paths > 1:
        var = np.array(_exact_sums((residuals.T - mean[:, None]) ** 2)) / (n_paths - 1)
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

    n_atoms = len(meas)

    def block_terms(block):
        # one row per term: time, drift, brownian, hessian, then comp and
        # integrand of each atom k at 4 + 2k and 5 + 2k, over (path, level);
        # the block's other temporaries go on return, before the next block
        t = _level_rows(times, block, n_paths)
        h = _level_rows(dts, block, n_paths)
        xb = _rows(states, block)
        yb = _rows(y, block)
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
        return terms.reshape(-1, n_paths, block.stop - block.start)

    # per-path running sums (time, drift, brownian, hessian, comp, integrand),
    # added level by level with atoms inner: the rounding of a per-level loop
    sums = np.zeros((6, n_paths))
    for block in _level_blocks(n_paths, n_steps):
        terms = block_terms(block)
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
    jump_sum = _path_jump_sums(ensemble, jumps)
    return lhs - (
        time_term
        + drift_term
        + brown_term
        + hess_term
        + (jump_sum - comp_jump)
        + integrand_term
    )
