"""The nonlocal shifted difference and PDE coefficient assembly.

:func:`shifted_differences` is the one place that forms the table
u(x + phi(t, x, u, y_k)) - u(x) over the jump atoms y_k, at any base
points and in original time.  The march uses it at the grid nodes
(:func:`eval_nonlocal`), the solved field at off-grid points
(``SolutionField.nonlocal_table``).

The backward-in-time decoupling field is computed by marching its
time reversal u(t, x) = field(T - t, x) forward from t = 0.
:func:`eval_nonlocal` and :func:`assemble_coefficients` are stated for
the reversed (Cauchy) time t, which means every underlying problem
coefficient is evaluated at T - t.  The reflection lives in those two
functions only: the solver passes Cauchy time and never reflects
itself.
"""

from __future__ import annotations

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


def shifted_differences(
    grid: Grid,
    values: np.ndarray,
    spec: ProblemSpec,
    s: float,
    points: np.ndarray,
    u_here: np.ndarray,
) -> np.ndarray:
    """Table u(x + phi(s, x, u(x), y_k)) - u(x), shape (B, K, m).

    ``values`` are the (n_nodes, m) node values of u, ``points`` the
    (B, ndim) base points x, ``u_here`` the (B, m) values u(x) and ``s``
    original time.  Shifted points outside the box are clamped to the
    nearest face, so each entry is bounded by twice the sup norm of u.
    A vanishing shift gives an exact zero row.  A non-finite shift
    raises :class:`NonFiniteShiftError` naming the atom.
    """
    meas = spec.measure
    n_pts = points.shape[0]
    table = np.empty((n_pts, len(meas), values.shape[1]))
    for k in range(len(meas)):
        shift = np.asarray(spec.jump_coeff(s, points, u_here, meas.marks[k]), dtype=float)
        if not np.all(np.isfinite(shift)):
            raise NonFiniteShiftError(
                f"jump coefficient returned non-finite shift for atom {k} at t={s}"
            )
        shift = shift.reshape(n_pts, grid.ndim)
        zero_rows = ~np.any(shift != 0.0, axis=1)
        if np.all(zero_rows):
            table[:, k, :] = 0.0
            continue
        table[:, k, :] = multilinear_interpolate(grid, values, points + shift) - u_here
        # a vanishing shift means u(x + 0) - u(x) = 0 identically
        table[zero_rows, k, :] = 0.0
    return table


def eval_nonlocal(grid: Grid, values: np.ndarray, spec: ProblemSpec, t: float) -> np.ndarray:
    """Shifted-difference table of node values at every node, (n_nodes, K, m).

    ``t`` is Cauchy time; the shifts are taken at original time horizon - t.
    """
    return shifted_differences(grid, values, spec, spec.horizon - t, grid_nodes(grid), values)


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

    ``a2`` is half the Gram matrix of sigma (exactly symmetric), ``a1``
    couples the nu-integral of phi with the drift, and ``a0`` collects
    the generator and the nu-integral of the nonlocal table.  The
    composite gradient argument p * sigma is formed here; ``p`` is
    always the raw spatial gradient of the field.
    """
    s = spec.horizon - t
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)

    sig = np.asarray(spec.diffusion(s, x, u), dtype=float)
    a2 = 0.5 * np.einsum("bik,bjk->bij", sig, sig)
    p_sigma = np.einsum("bmi,bij->bmj", p, sig)

    f_val = np.asarray(spec.drift(s, x, u, p_sigma, w), dtype=float)
    a1 = spec.phi_integral(s, x, u) - f_val.reshape(x.shape[0], spec.n)
    a0 = -np.asarray(spec.generator(s, x, u, p_sigma, w), dtype=float).reshape(
        x.shape[0], spec.m
    ) - integrate_over_nu(w, spec.measure)
    return a2, a1, a0
