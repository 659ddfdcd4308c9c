"""Residual diagnostics of a simulated ensemble and its (Y, Z, Ztilde).

The backward triple is read off the decoupling field while the paths are
simulated (see :mod:`fbsde.paths`), through ``SolutionField.backward_rows``;
coefficients are called through :class:`ProblemSpec`.  The backward
residual telescopes over the whole interval, with the compensated jump
sum standing in for the integral against the compensated measure.

Both checks add each path's sums level by level, atoms inner, and its
jumps in event order, so a path's result depends on its own rows only.
The backward residual's sums live in :class:`_ResidualSums`, fed one
level of a chunk of paths at a time, from a held ensemble or from the
command line's walk, which holds no Z or Ztilde over levels.  The Ito
check walks the grid in level blocks of at most ``_BLOCK_ROWS`` (path,
level) rows; with the field's own test function it reads u and its jumps
off the ensemble and takes each block's derivatives from one stencil
pass.  Block size changes no result.  Every reduction over paths has the
bits of ``math.fsum``, vectorized by error-free extraction (:func:`_pass_sums`).
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


def _path_jump_sums(path: np.ndarray, jumps: np.ndarray, n_paths: int) -> np.ndarray:
    """Each of ``n_paths`` paths' sum of ``jumps``, one entry (or row) per event row of ``path``.

    Unbuffered, in event order: the rounding of a per-event running sum.
    """
    out = np.zeros((n_paths,) + jumps.shape[1:])
    np.add.at(out, path, jumps)
    return out


def _squares(x, y, z, ztab, weights) -> np.ndarray:
    """The class-S squares of one level's rows, (4, P): |X|^2, |Y|^2, |Z|^2, nu |Ztilde|^2."""
    z2, w2 = np.sum(z**2, axis=(-1, -2)), np.einsum("pkm,k->p", ztab**2, weights)
    return np.stack([np.sum(x**2, axis=-1), np.sum(y**2, axis=-1), z2, w2])


def _class_s_norm(times: np.ndarray, level_sums, n_paths: int) -> float:
    """The class-S norm from each level's four exact path sums of :func:`_squares`, in level
    order: the sup kept running, as max() takes it, and one double per level for the integral."""
    sup, int_terms = None, np.empty(times.shape[0] - 1)
    for j, (x_sum, y_sum, z_sum, w_sum) in enumerate(level_sums):
        term = x_sum / n_paths + y_sum / n_paths
        sup = term if sup is None or term > sup else sup
        if j < times.shape[0] - 1:
            dt = float(times[j + 1] - times[j])
            int_terms[j] = dt * (z_sum / n_paths + w_sum / n_paths)
    return sup + _exact_sums(int_terms[None])[0]


def estimate_class_s_norm(ensemble: Ensemble, keep=slice(None)) -> float:
    """Monte Carlo estimate of the solution-class norm.

    sup over time of (E|X|^2 + E|Y|^2) plus the dt-weighted sum of
    E|Z|^2 and the nu-weighted squared table norm, over the paths
    ``keep`` (an increasing index array, or all paths).  Reductions over
    paths use exact summation, so the estimate is invariant under path
    reordering and ensemble splitting.  The squares are formed one
    level at a time, so no (P, L) array of them is ever held.
    """
    if not len(ensemble):
        raise ValueError("ensemble must be non-empty")
    n_paths = np.arange(len(ensemble))[keep].shape[0]
    if not n_paths:
        raise ValueError(f"keep selects none of the ensemble's {len(ensemble)} paths")
    rows = (ensemble.states, ensemble.y, ensemble.z, ensemble.ztilde)
    weights = ensemble.field.spec.measure.weights
    level_sums = (
        _exact_sums(_squares(*(a[keep, j] for a in rows), weights))
        for j in range(ensemble.times.shape[0])
    )
    return _class_s_norm(ensemble.times, level_sums, n_paths)


class _ResidualSums:
    """The backward residual's sums, fed one level of a chunk of paths at a time.

    Per path: Y_0 and the generator, Brownian and compensator sums.  Per level: the
    exact parts (:func:`_pass_sums`) of the class-S squares of all paths so
    far, from which a closing chunk takes its exited paths' squares off
    again, with Z and Ztilde read off the field anew: every result has the
    bits of taking the kept paths alone, whatever the chunking.
    """

    def __init__(self, field: SolutionField, times: np.ndarray, n_paths: int):
        self.field, self.times, self.kept, self.total = field, times, 0, 0
        # up front: a path count too large to hold fails before any stepping
        self.residuals = np.empty((n_paths, field.spec.m))
        # per level once fed: the parts (4, k), and the nan and inf counts (4, 2)
        self.parts, self.nonfinite = {}, {}

    def level(self, j, x, y, z, ztab, db, sign: int = 1) -> None:
        """Level j of a chunk's rows (``db`` None at the last); ``sign`` -1 takes squares off."""
        squares = _squares(x, y, z, ztab, self.field.spec.measure.weights)
        bad = ~np.isfinite(squares)
        if bad.any():  # fsum's verdict on them, nan or inf, goes by their counts
            counts = sign * np.stack([np.isnan(squares), np.isinf(squares)], -1).sum(axis=1)
            self.nonfinite[j] = self.nonfinite.get(j, 0) + counts
            squares[bad] = 0.0
        # the parts so far go through the passes with the new rows: a few doubles a level
        parts = _pass_sums(np.hstack([self.parts.get(j, np.zeros((4, 0))), sign * squares]))
        self.parts[j] = np.zeros((4, max(map(len, parts))))
        for row, values in zip(self.parts[j], parts):
            row[: len(values)] = values
        if db is not None:
            self.add_terms(j, x, y, z, ztab, db)

    def add_terms(self, j, x, y, z, ztab, db) -> None:
        spec, times = self.field.spec, self.times
        if j == 0:  # a new chunk
            self.terms, self.y0 = np.zeros((3, x.shape[0], spec.m)), y
        h = times[j + 1] - times[j]
        gen, brown, comp = self.terms
        gen += spec.g(float(times[j]), x, y, z, ztab) * h
        brown += np.einsum("pmi,pi->pm", z, db)
        for k, weight in enumerate(spec.measure.weights):
            comp += weight * ztab[:, k] * h

    def close(self, x_last, events, jump_values, exited, states=None) -> None:
        """End a chunk; with its ``states``, its exited paths' squares go off."""
        spec, keep, y0 = self.field.spec, ~exited, self.y0
        gen, brown, comp = self.terms[:, keep]
        jumps = _path_jump_sums(events.path, jump_values, exited.shape[0])[keep]
        res = y0[keep] - (spec.h(x_last[keep]) + gen - brown - (jumps - comp))
        self.residuals[self.kept : self.kept + res.shape[0]] = res
        self.kept, self.total = self.kept + res.shape[0], self.total + exited.shape[0]
        if states is None or keep.all():
            return
        gone = np.flatnonzero(exited)
        n_gone = gone.shape[0]
        for block in _level_blocks(n_gone, self.times.shape[0]):
            # the rows level by level, as the walk queried them
            x = states[gone, block].swapaxes(0, 1).reshape(-1, spec.n)
            rows = self.field.backward_rows(np.repeat(self.times[block], n_gone), x)[:3]
            for jj, j in enumerate(range(block.start, block.stop)):
                at = slice(jj * n_gone, (jj + 1) * n_gone)
                self.level(j, x[at], *(r[at] for r in rows), None, sign=-1)

    def report(self, class_s_norm: Optional[float] = None) -> ResidualReport:
        """The kept paths' report, with the walk's own class-S norm unless given."""
        n_paths, nan = self.kept, np.full(self.field.spec.m, np.nan)
        residuals, excluded, total = self.residuals[:n_paths], self.total - n_paths, self.total
        if not n_paths:
            return ResidualReport(residuals, math.nan, nan, nan.copy(), math.nan, excluded, total)
        sums = _exact_sums(np.vstack([np.sum(residuals**2, axis=-1), residuals.T]))
        mean = np.array(sums[1:]) / n_paths
        stderr = nan
        if n_paths > 1:
            var = np.array(_exact_sums((residuals.T - mean[:, None]) ** 2)) / (n_paths - 1)
            stderr = np.sqrt(var / n_paths)
        if class_s_norm is None:
            class_s_norm = self.class_s_norm(n_paths)
        rms = math.sqrt(sums[0] / n_paths)
        return ResidualReport(residuals, rms, mean, stderr, class_s_norm, excluded, total)

    def class_s_norm(self, n_paths: int) -> float:
        """The class-S norm of the ``n_paths`` paths fed and not taken off; a
        nan or inf square makes its level's sum nan or inf, as in fsum."""
        def level_sums(j):
            counts = self.nonfinite.get(j, np.zeros((4, 2)))
            return [math.nan if n_nan else math.inf if n_inf else math.fsum(parts.tolist())
                    for parts, (n_nan, n_inf) in zip(self.parts[j], counts)]

        return _class_s_norm(self.times, map(level_sums, range(self.times.shape[0])), n_paths)


def bsde_residual(ensemble: Ensemble, spec: ProblemSpec | None = None) -> ResidualReport:
    """Terminal telescoping residual of the backward equation per path.

    R = Y_0 - [h(X_T) + sum g dt - sum Z dB - (jump sum - compensator)].
    Paths that left the grid are excluded from the statistics and
    counted in ``excluded_paths``.  ``spec``, if given, must be the
    field's own.  The levels go through the sums of the command line's
    streamed walk, as one chunk, so a path's residual depends on its own
    rows only, not on the layout or chunking of the ensemble, and no array
    over paths and levels is built.  Every reduction over paths is exact.
    """
    if not len(ensemble):
        raise ValueError("ensemble must be non-empty")
    if spec is not None and spec is not ensemble.field.spec:
        raise ValueError("field and spec must share the same ProblemSpec")
    times, states, y, exited = ensemble.times, ensemble.states, ensemble.y, ensemble.exited
    sums = _ResidualSums(ensemble.field, times, len(ensemble))
    rows = (states, y, ensemble.z, ensemble.ztilde, ensemble.brownian_increments)
    for j in range(times.shape[0] - 1):
        sums.add_terms(j, *(a[:, j] for a in rows))
    sums.close(states[:, -1], ensemble.events, ensemble.jump_values, exited)
    if not sums.kept:
        return sums.report()
    keep = np.flatnonzero(~exited) if exited.any() else slice(None)
    return sums.report(estimate_class_s_norm(ensemble, keep))


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
    jump_sum = _path_jump_sums(events.path, jumps, n_paths)
    return lhs - (
        time_term
        + drift_term
        + brown_term
        + hess_term
        + (jump_sum - comp_jump)
        + integrand_term
    )
