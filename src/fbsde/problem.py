"""Problem data for a coupled forward-backward system with jumps.

A :class:`ProblemSpec` bundles the coefficient callables of the system

    dX = f dt + sigma dB + integral of phi against the compensated jump measure,
    dY = -g dt + Z dB + integral of Ztilde against the compensated jump measure,
    Y_T = h(X_T),

together with dimensions, the horizon and the (finite-activity) jump
measure.  All coefficient callables follow a numpy broadcasting
convention: state-like arguments carry a leading batch axis, e.g.

    f(t, x, u, p, w) with  t scalar or (B,), x (B, n), u (B, m),
                           p (B, m, n), w (B, K, m)  ->  (B, n).

A ``(B,)`` time array must give what B calls with scalar times give.
The numerics call them only through :meth:`ProblemSpec.f`, ``g``, ``sigma``,
``phi`` and ``h``, which return float arrays of these shapes (B = ``x.shape[0]``)
and name the field whose result has another size.

``w`` is the per-atom value table standing in for an L2(nu) element:
row k holds the value attached to jump mark ``y_k``, and every
nu-integral is the weighted sum over atoms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDiffusionError, ShapeError

__all__ = [
    "LevyMeasure",
    "ProblemSpec",
    "AssumptionCheck",
    "AssumptionReport",
    "GrowthEnvelopes",
    "check_ellipticity",
    "check_growth",
]


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-activity jump measure given as weighted atoms.

    ``marks`` has shape (K, l) and must not contain the zero vector (the
    measure lives away from the origin); ``weights`` has shape (K,) and
    is strictly positive.  ``total_mass`` is nu(Z), the Poisson arrival
    rate per unit time; it is computed with exact summation so it is
    invariant under atom permutations.
    """

    marks: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        marks = np.atleast_2d(np.asarray(self.marks, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if marks.shape[0] == 0:
            raise ValueError("atom list must be non-empty")
        if marks.shape[0] != weights.shape[0]:
            raise ValueError("one weight per mark required")
        if not np.all(weights > 0.0):
            raise ValueError("atom weights must be strictly positive")
        if np.any(np.all(marks == 0.0, axis=1)):
            raise ValueError("marks must be nonzero vectors")
        if not (np.all(np.isfinite(marks)) and np.all(np.isfinite(weights))):
            raise ValueError("marks and weights must be finite")
        try:
            total_mass = math.fsum(weights)
        except OverflowError:
            raise ValueError("the total mass of the weights must be finite") from None
        marks.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total_mass", total_mass)

    def __len__(self) -> int:
        return self.marks.shape[0]

    @property
    def mark_dim(self) -> int:
        return self.marks.shape[1]


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient bundle (f, g, sigma, phi, h) plus dimensions and measure.

    The Brownian motion is n-dimensional (same as the forward state).
    ``ellipticity_lower``/``ellipticity_upper`` are the user-declared
    bounds for the eigenvalues of sigma sigma^T on the working range.
    """

    n: int
    m: int
    l: int
    horizon: float
    drift: Callable  # f(t, x, u, p, w) -> (B, n)
    generator: Callable  # g(t, x, u, p, w) -> (B, m)
    diffusion: Callable  # sigma(t, x, u) -> (B, n, n)
    jump_coeff: Callable  # phi(t, x, u, y) -> (B, n), y one mark of shape (l,)
    terminal: Callable  # h(x) -> (B, m)
    measure: LevyMeasure
    ellipticity_lower: float = 0.0
    ellipticity_upper: float = float("inf")

    def __post_init__(self):
        for name in ("n", "m", "l"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"dimension {name} must be an integer, got {value!r}")
        if isinstance(self.horizon, bool):
            raise ValueError(f"horizon must be a number, not a bool, got {self.horizon!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if min(self.n, self.m, self.l) < 1:
            raise ValueError("dimensions n, m, l must be >= 1")
        if self.measure.mark_dim != self.l:
            raise ValueError("measure mark dimension must equal l")

    def f(self, t, x: np.ndarray, u, p, w) -> np.ndarray:
        """The drift at the rows of ``x``, shape (B, n)."""
        return _shaped("drift", self.drift(t, x, u, p, w), (x.shape[0], self.n))

    def g(self, t, x: np.ndarray, u, p, w) -> np.ndarray:
        """The generator at the rows of ``x``, shape (B, m)."""
        return _shaped("generator", self.generator(t, x, u, p, w), (x.shape[0], self.m))

    def sigma(self, t, x: np.ndarray, u) -> np.ndarray:
        """The diffusion matrix at the rows of ``x``, shape (B, n, n)."""
        return _shaped("diffusion", self.diffusion(t, x, u), (x.shape[0], self.n, self.n))

    def phi(self, t, x: np.ndarray, u, k) -> np.ndarray:
        """The jump coefficient for atom ``k`` (mark y_k) at the rows of ``x``, (B, n)."""
        shift = self.jump_coeff(t, x, u, self.measure.marks[k])
        return _shaped("jump_coeff", shift, (x.shape[0], self.n))

    def h(self, x: np.ndarray) -> np.ndarray:
        """The terminal data at the rows of ``x``, shape (B, m)."""
        return _shaped("terminal", self.terminal(x), (x.shape[0], self.m))

    def phi_integral(self, t, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The nu-integral of phi: sum_k weight_k phi(t, x, u, y_k), shape (B, n).

        ``t`` is original time, a scalar or one time per row.  The atoms
        are added one at a time in their stored order, so every caller
        gets the same bits.
        """
        weights = self.measure.weights
        out = np.zeros((x.shape[0], self.n))
        for k in range(len(weights)):
            out += weights[k] * self.phi(t, x, u, k)
        return out


def _shaped(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array of ``shape``; a result of another size names ``name``."""
    out = np.asarray(value, dtype=float)
    if out.size != math.prod(shape):
        raise ShapeError(f"{name} returned shape {out.shape}, expected {shape}")
    return out.reshape(shape)


@dataclass(frozen=True)
class AssumptionCheck:
    """One sampled assumption check; passes iff the worst margin is <= 0."""

    name: str
    samples: int
    worst_margin: float
    passed: bool

    def __post_init__(self):
        if self.passed != (self.worst_margin <= 0.0):
            raise ValueError("pass flag must equal (worst_margin <= 0)")


@dataclass(frozen=True)
class AssumptionReport:
    entries: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


@dataclass(frozen=True)
class GrowthEnvelopes:
    """User-supplied growth envelopes for the sampled coefficient bounds.

    drift_env(s, r)     bounds |f|/(1+|p|),
    gen_env(s, r) and gen_decay(s, q, r) bound |g|/(1+|p|)^2,
    jump_env(s)         bounds |integral of phi d(nu)|,

    where s = |u|, q = |p| and r is the L2(nu) norm of the table w.
    """

    drift_env: Callable[[float, float], float]
    gen_env: Callable[[float, float], float]
    gen_decay: Callable[[float, float, float], float]
    jump_env: Callable[[float], float]


def _table_norm(measure: LevyMeasure, w: np.ndarray) -> float:
    # ||w||_nu^2 = sum_k weight_k |w(y_k)|^2, exact for atomic measures
    return float(np.sqrt(np.sum(measure.weights * np.sum(w * w, axis=-1))))


def check_ellipticity(
    spec: ProblemSpec, sample_points: Sequence[tuple[float, np.ndarray, np.ndarray]]
) -> AssumptionCheck:
    """Eigenvalue bounds of sigma sigma^T over a sample set.

    Each sample is a (t, x, u) triple.  The margin at a sample is the
    worse of ``ellipticity_lower - lambda_min`` and
    ``lambda_max - ellipticity_upper``; the check passes when no sample
    violates either bound.  A sample whose sigma sigma^T is not finite has
    an infinite margin.  Raises :class:`DegenerateDiffusionError` if
    sigma sigma^T is singular or indefinite anywhere in the sample.
    """
    if not sample_points:
        raise ValueError("sample_points must be non-empty")
    worst = -math.inf
    for t, x, u in sample_points:
        xb = np.asarray(x, dtype=float).reshape(1, spec.n)
        ub = np.asarray(u, dtype=float).reshape(1, spec.m)
        sig = spec.sigma(t, xb, ub)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            gram = sig @ sig.T
        if not np.all(np.isfinite(gram)):
            # no eigenvalue of it is bounded: B1 fails by value, as B5 does
            worst = math.inf
            continue
        eigs = np.linalg.eigvalsh(gram)
        lo, hi = float(eigs[0]), float(eigs[-1])
        if lo <= 0.0:
            raise DegenerateDiffusionError(
                f"sigma sigma^T degenerate at t={t}, x={x}: min eigenvalue {lo}"
            )
        worst = max(worst, spec.ellipticity_lower - lo, hi - spec.ellipticity_upper)
    return AssumptionCheck(
        name="B1",
        samples=len(sample_points),
        worst_margin=worst,
        passed=worst <= 0.0,
    )


def check_growth(
    spec: ProblemSpec,
    sample_points: Sequence[tuple],
    envelopes: GrowthEnvelopes,
) -> AssumptionCheck:
    """Sampled growth bounds on f, g and the nu-integral of phi.

    Each sample is a (t, x, u, p, w) tuple with w a (K, m) atom table.
    Violations are reported through the margin, never raised.
    """
    if not sample_points:
        raise ValueError("sample_points must be non-empty")
    meas = spec.measure
    worst = -math.inf
    for t, x, u, p, w in sample_points:
        xb = np.asarray(x, dtype=float).reshape(1, spec.n)
        ub = np.asarray(u, dtype=float).reshape(1, spec.m)
        pb = np.asarray(p, dtype=float).reshape(1, spec.m, spec.n)
        wb = np.asarray(w, dtype=float).reshape(1, len(meas), spec.m)
        s = float(np.linalg.norm(ub))
        q = float(np.linalg.norm(pb))
        r = _table_norm(meas, wb[0])

        f_val = spec.f(t, xb, ub, pb, wb)
        g_val = spec.g(t, xb, ub, pb, wb)
        phi_int = spec.phi_integral(t, xb, ub)

        # a norm that overflows is an infinite margin, and one left undefined
        # (inf - inf) counts as infinite: B5 then fails by value, not by a warning
        with np.errstate(over="ignore", invalid="ignore"):
            m_f = np.linalg.norm(f_val) - envelopes.drift_env(s, r) * (1.0 + q)
            m_g = np.linalg.norm(g_val) - (
                envelopes.gen_env(s, r) + envelopes.gen_decay(s, q, r)
            ) * (1.0 + q) ** 2
            m_phi = np.linalg.norm(phi_int) - envelopes.jump_env(s)
        margins = (float(m_f), float(m_g), float(m_phi))
        worst = max(worst, *(math.inf if math.isnan(v) else v for v in margins))
    return AssumptionCheck(
        name="B5",
        samples=len(sample_points),
        worst_margin=worst,
        passed=worst <= 0.0,
    )
