"""The nonlocal shifted difference and PDE coefficient assembly.

:func:`shifted_differences` is the one place that forms the table
u(x + phi(t, x, u, y_k)) - u(x) over the jump atoms y_k, at any base
points, in original time and for any point evaluation of u: the march
interpolates one level at the grid nodes (:func:`eval_nonlocal`), the
solved field uses its own point query (``SolutionField.nonlocal_table``).

The backward-in-time decoupling field is computed by marching its
time reversal u(t, x) = field(T - t, x) forward from t = 0.
:func:`eval_nonlocal` and :func:`assemble_coefficients` are stated for
the reversed (Cauchy) time t, which means every underlying problem
coefficient is evaluated at T - t.  Of the problem's coefficients only
those two functions reflect: the solver passes them Cauchy time.  The
solver reflects its face data alone, calling ``dirichlet_data`` at T - t.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .errors import NonFiniteShiftError
from .grid import Grid, grid_nodes, multilinear_interpolate
from .problem import LevyMeasure, ProblemSpec

__all__ = [
    "shifted_differences",
    "eval_nonlocal",
    "integrate_over_nu",
    "assemble_coefficients",
]


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite."""
    # min and max propagate NaN without a temporary of the array's size
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def shifted_differences(
    evaluate: Callable[[np.ndarray], np.ndarray],
    spec: ProblemSpec,
    s,
    points: np.ndarray,
    u_here: np.ndarray,
) -> np.ndarray:
    """Table u(x + phi(s, x, u(x), y_k)) - u(x), shape (B, K, m).

    ``evaluate`` maps (R, ndim) points to the (R, m) values of u,
    ``points`` are the base points x, ``u_here`` the (B, m) values u(x)
    and ``s`` original time, scalar or per point.  ``evaluate`` is called
    once, on the shifted points of every atom whose shift does not vanish,
    stacked atom by atom (R = K' B, each block in the row order of
    ``points``).  Shifted points outside the box are clamped to the
    nearest face, so each entry is bounded by twice the sup norm of u.  A
    vanishing shift gives an exact zero row.  A non-finite shift raises
    :class:`NonFiniteShiftError` naming the atom and the time of the first
    point with one.
    """
    meas = spec.measure
    n_pts, ndim = points.shape
    table = np.zeros((n_pts, len(meas), u_here.shape[1]))
    moved = []  # (atom, its zero-shift rows, its shifted points) of each atom that moves
    for k in range(len(meas)):
        shift = spec.phi(s, points, u_here, k)
        if not all_finite(shift):
            finite = np.all(np.isfinite(shift), axis=1)
            first = np.broadcast_to(s, (n_pts,))[np.argmin(finite)]
            raise NonFiniteShiftError(
                f"jump coefficient returned non-finite shift for atom {k} at t={first}"
            )
        # column by column: a reduction along the short row axis costs more
        zero_rows = shift[:, 0] == 0.0
        for c in range(1, ndim):
            zero_rows &= shift[:, c] == 0.0
        if not np.all(zero_rows):
            moved.append((k, zero_rows, points + shift))
    if moved:
        shifted = evaluate(np.concatenate([q for _, _, q in moved]))
        for j, (k, zero_rows, _) in enumerate(moved):
            np.subtract(shifted[j * n_pts : (j + 1) * n_pts], u_here, out=table[:, k, :])
            # a vanishing shift means u(x + 0) - u(x) = 0 identically
            table[zero_rows, k, :] = 0.0
    return table


def eval_nonlocal(grid: Grid, values: np.ndarray, spec: ProblemSpec, t: float) -> np.ndarray:
    """Shifted-difference table of node values at every node, (n_nodes, K, m).

    ``t`` is Cauchy time; the shifts are taken at original time horizon - t.
    """
    at_nodes = partial(multilinear_interpolate, grid, values)
    return shifted_differences(at_nodes, spec, spec.horizon - t, grid_nodes(grid), values)


def integrate_over_nu(w: np.ndarray, measure: LevyMeasure) -> np.ndarray:
    """Weighted atom sum standing in for the integral against nu.

    ``w`` has shape (K, m) for a single node or (..., K, m) batched; the
    result drops the atom axis.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-2] != len(measure):
        raise ValueError(
            f"table has {w.shape[-2]} atom rows, measure has {len(measure)}"
        )
    return np.einsum("k,...km->...m", measure.weights, w)


def _half_gram(sig: np.ndarray) -> np.ndarray:
    """Half the Gram matrix, 0.5 * sigma sigma^T, of each (n, n) block of ``sig``.

    Returns a (B, n, n) view of an entry-major (n, n, B) array, so each
    entry ``a2[:, i, j]`` is contiguous over the batch.  Each entry i <= j
    is one sum over k in increasing order, mirrored to (j, i), so the
    result is exactly symmetric.  For n <= 2 it equals
    ``0.5 * np.einsum("bik,bjk->bij", sig, sig)`` bit for bit; for larger
    n einsum may add the terms in another order.
    """
    b, n, _ = sig.shape
    out = np.empty((n, n, b))
    term = np.empty(b)
    for i in range(n):
        for j in range(i, n):
            acc = out[i, j]
            # strided reads of sig cost less than a transposed copy of it
            np.multiply(sig[:, i, 0], sig[:, j, 0], out=acc)
            for k in range(1, n):
                acc += np.multiply(sig[:, i, k], sig[:, j, k], out=term)
            acc += 0.0  # a sum that starts from +0.0, as einsum's does: no -0.0
            acc *= 0.5
            if j > i:
                out[j, i] = acc
    return out.transpose(2, 0, 1)


def assemble_coefficients(
    spec: ProblemSpec,
    t: float,
    x: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    w: np.ndarray,
):
    """Coefficient blocks of the reversed equation at Cauchy time ``t``.

    Returns ``(a2, a1, a0)`` with shapes (B, n, n), (B, n), (B, m) so the
    marching equation reads

        du/dt = sum_ij a2_ij d2u/dx_i dx_j - sum_i a1_i du/dx_i - a0.

    ``a2`` is :func:`_half_gram` of sigma (exactly symmetric, each entry
    ``a2[:, i, j]`` contiguous over the batch), ``a1``
    couples the nu-integral of phi with the drift, and ``a0`` collects
    the generator and the nu-integral of the nonlocal table.  The
    composite gradient argument p * sigma is formed here; ``p`` is
    always the raw spatial gradient of the field.

    Each full-grid array is dropped after its last read: sigma once
    ``a2`` and p * sigma are formed, and the nu-integral of phi is taken
    before the drift, so the drift is never alive next to sigma or next
    to that integral's temporaries.
    """
    s = spec.horizon - t
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)

    sig = spec.sigma(s, x, u)
    a2 = _half_gram(sig)
    p_sigma = np.einsum("bmi,bij->bmj", p, sig)
    del sig

    a1 = spec.phi_integral(s, x, u)
    a1 -= spec.f(s, x, u, p_sigma, w)
    a0 = -spec.g(s, x, u, p_sigma, w)
    a0 -= integrate_over_nu(w, spec.measure)
    return a2, a1, a0
