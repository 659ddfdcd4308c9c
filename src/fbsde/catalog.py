"""Named benchmark problems with documented oracles and default constants.

Coefficients are plain numpy callables following the batch convention of
:mod:`fbsde.problem`.  Each entry builds a complete problem bundle:
spec, solver configuration, sup-bound constants, start point, growth
envelopes and default assumption sample sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .problem import GrowthEnvelopes, LevyMeasure, ProblemSpec
from .solver import MaxPrincipleConstants, SolverConfig

__all__ = ["BuiltProblem", "CatalogEntry", "CATALOG", "catalog_names", "build_problem"]


@dataclass(frozen=True)
class BuiltProblem:
    name: str
    spec: ProblemSpec
    constants: MaxPrincipleConstants
    solver_config: SolverConfig
    oracle: Optional[Callable]  # field(t, x (B, n)) -> (B, m), original time
    x0: np.ndarray
    default_path_dt: float
    envelopes: GrowthEnvelopes
    ellipticity_samples: list
    growth_samples: list


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    builder: Callable[..., BuiltProblem]
    defaults: dict


def _zeros_like_m(m: int):
    def fn(t, x, u, p, w):
        return np.zeros((x.shape[0], m))

    return fn


def _const_diffusion(value: float):
    def sigma(t, x, u):
        return np.full((x.shape[0], 1, 1), value)

    return sigma


def _sample_sets(spec: ProblemSpec, grid: Grid):
    t_vals = (0.0, 0.5 * spec.horizon, spec.horizon)
    lo, hi = grid.lower[0], grid.upper[0]
    x_vals = np.linspace(lo, hi, 5)
    u_vals = (-1.0, 0.5, 2.0)
    ell = [
        (t, np.full(spec.n, xv), np.full(spec.m, uv))
        for t in t_vals
        for xv in x_vals
        for uv in u_vals
    ]
    growth = []
    k = len(spec.measure)
    for t in t_vals:
        for xv in (x_vals[0], x_vals[2], x_vals[-1]):
            for uv in (-1.0, 1.0):
                for pv in (0.0, 1.5):
                    for wv in (0.0, 0.5):
                        growth.append(
                            (
                                t,
                                np.full(spec.n, xv),
                                np.full(spec.m, uv),
                                np.full((spec.m, spec.n), pv),
                                np.full((k, spec.m), wv),
                            )
                        )
    return ell, growth


def _build_heat(nodes: int = 201, steps: int = 400, horizon: float = 1.0) -> BuiltProblem:
    """Pure diffusion: unit sigma, no drift, generator or jumps.

    With terminal data sin(x) on [0, pi] and zero faces the field is
    exp(-(T - t)/2) sin(x); the one-half diffusion constant comes from
    the half Gram matrix of sigma.
    """
    T = float(horizon)
    grid = Grid((0.0,), (math.pi,), (int(nodes),))
    measure = LevyMeasure(marks=[[1.0]], weights=[1.0])

    def phi(t, x, u, y):
        return np.zeros((x.shape[0], 1))

    def h(x):
        return np.sin(x)

    spec = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=T,
        drift=_zeros_like_m(1),
        generator=_zeros_like_m(1),
        diffusion=_const_diffusion(1.0),
        jump_coeff=phi,
        terminal=h,
        measure=measure,
        ellipticity_lower=1.0,
        ellipticity_upper=1.0,
    )

    def zero_faces(t, x):
        return np.zeros((x.shape[0], 1))

    config = SolverConfig(grid=grid, n_steps=int(steps), dirichlet_data=zero_faces)

    def oracle(t, x):
        return np.exp(-(T - t) / 2.0) * np.sin(x)

    envelopes = GrowthEnvelopes(
        drift_env=lambda s, r: 1.0,
        gen_env=lambda s, r: 1.0,
        gen_decay=lambda s, q, r: 0.0,
        jump_env=lambda s: 1.0,
    )
    ell, growth = _sample_sets(spec, grid)
    return BuiltProblem(
        name="heat",
        spec=spec,
        constants=MaxPrincipleConstants(0.0, 0.0, 0.0),
        solver_config=config,
        oracle=oracle,
        x0=np.array([math.pi / 2.0]),
        default_path_dt=T / 1000.0,
        envelopes=envelopes,
        ellipticity_samples=ell,
        growth_samples=growth,
    )


def _build_manufactured(
    nodes: int = 201, steps: int = 400, horizon: float = 1.0, half_width: float = 3.0
) -> BuiltProblem:
    """Forced problem whose exact field is exp(-t) cos(x).

    The jump shift y (1 - (x/L)^2) vanishes at the box faces, so all
    shifted points stay inside the box and the nonlocal term carries no
    clamping error.  The generator is the closed-form residual of the
    target field, which makes the target an exact solution.
    """
    T = float(horizon)
    L = float(half_width)
    grid = Grid((-L,), (L,), (int(nodes),))
    marks = np.array([[1.0], [-0.5]])
    weights = np.array([0.7, 0.6])
    measure = LevyMeasure(marks=marks, weights=weights)
    m1 = math.fsum(w * y[0] for w, y in zip(weights, marks))  # integral of phi, x-part

    def shrink(x):
        return 1.0 - (x / L) ** 2

    def phi(t, x, u, y):
        return y[0] * shrink(x)

    def forcing(t, x, u, p, w):
        s = shrink(x)
        acc = 1.5 * np.cos(x) - m1 * s * np.sin(x)
        for w_k, y_k in zip(weights, marks):
            acc = acc - w_k * (np.cos(x + y_k[0] * s) - np.cos(x))
        return np.exp(-np.reshape(t, (-1, 1))) * acc

    def h(x):
        # terminal data is the target field at the final time
        return math.exp(-T) * np.cos(x)

    spec = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=T,
        drift=_zeros_like_m(1),
        generator=forcing,
        diffusion=_const_diffusion(1.0),
        jump_coeff=phi,
        terminal=h,
        measure=measure,
        ellipticity_lower=1.0,
        ellipticity_upper=1.0,
    )

    def oracle(t, x):
        return np.exp(-t) * np.cos(x)

    def faces(t, x):
        return oracle(t, x)

    config = SolverConfig(grid=grid, n_steps=int(steps), dirichlet_data=faces)
    sup_g = 1.5 + abs(m1) + 2.0 * measure.total_mass
    constants = MaxPrincipleConstants(
        c1=0.5 * sup_g**2,
        c2=0.5 + 0.5 * measure.total_mass,
        c3=0.5,
    )
    envelopes = GrowthEnvelopes(
        drift_env=lambda s, r: 1.0,
        gen_env=lambda s, r: sup_g + 0.5,
        gen_decay=lambda s, q, r: 0.0,
        jump_env=lambda s: abs(m1) + 0.5,
    )
    ell, growth = _sample_sets(spec, grid)
    return BuiltProblem(
        name="manufactured-nonlocal",
        spec=spec,
        constants=constants,
        solver_config=config,
        oracle=oracle,
        x0=np.array([0.0]),
        default_path_dt=T / 1000.0,
        envelopes=envelopes,
        ellipticity_samples=ell,
        growth_samples=growth,
    )


def _build_pure_jump(
    nodes: int = 301,
    steps: int = 300,
    horizon: float = 1.0,
    rate: float = 1.0,
    sigma_small: float = 0.05,
    mark: float = 1.0,
) -> BuiltProblem:
    """Single-atom compensated jump process with a small diffusion floor.

    The forward state is x + (jump count) * mark - rate * mark * t plus
    a small Brownian part, a martingale started at x; with terminal
    h(x) = x the identity field solves the problem
    exactly in the inner region.
    """
    T = float(horizon)
    grid = Grid((-8.0,), (10.0,), (int(nodes),))
    measure = LevyMeasure(marks=[[float(mark)]], weights=[float(rate)])

    def phi(t, x, u, y):
        return np.full((x.shape[0], 1), y[0])

    def h(x):
        return np.asarray(x, dtype=float).copy()

    spec = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=T,
        drift=_zeros_like_m(1),
        generator=_zeros_like_m(1),
        diffusion=_const_diffusion(float(sigma_small)),
        jump_coeff=phi,
        terminal=h,
        measure=measure,
        ellipticity_lower=float(sigma_small) * float(sigma_small),
        ellipticity_upper=float(sigma_small) * float(sigma_small),
    )
    config = SolverConfig(grid=grid, n_steps=int(steps))
    constants = MaxPrincipleConstants(
        c1=0.0, c2=0.5 * measure.total_mass, c3=0.5
    )
    envelopes = GrowthEnvelopes(
        drift_env=lambda s, r: 1.0,
        gen_env=lambda s, r: 1.0,
        gen_decay=lambda s, q, r: 0.0,
        jump_env=lambda s: float(rate) * abs(float(mark)) + 0.5,
    )
    ell, growth = _sample_sets(spec, grid)
    return BuiltProblem(
        name="pure-jump",
        spec=spec,
        constants=constants,
        solver_config=config,
        oracle=None,
        x0=np.array([0.0]),
        default_path_dt=T / 1000.0,
        envelopes=envelopes,
        ellipticity_samples=ell,
        growth_samples=growth,
    )


def _build_coupled_linear(
    nodes: int = 401, steps: int = 800, horizon: float = 1.0, half_width: float = 6.0
) -> BuiltProblem:
    """Fully coupled case: drift and generator linear in (u, p, w).

    No closed-form field; the refinement ladder of the backward residual
    is the oracle.
    """
    T = float(horizon)
    L = float(half_width)
    grid = Grid((-L,), (L,), (int(nodes),))
    measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
    weights = measure.weights

    def interp_w(w):
        return np.einsum("k,bkm->bm", weights, w)

    def f(t, x, u, p, w):
        return 0.25 * u + 0.15 * p[:, :, 0] + 0.1 * interp_w(w)

    def g(t, x, u, p, w):
        return -0.5 * u + 0.2 * p[:, :, 0] + 0.1 * interp_w(w)

    def phi(t, x, u, y):
        return np.full((x.shape[0], 1), 0.3 * y[0])

    def h(x):
        return np.sin(x)

    spec = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=T,
        drift=f,
        generator=g,
        diffusion=_const_diffusion(1.0),
        jump_coeff=phi,
        terminal=h,
        measure=measure,
        ellipticity_lower=1.0,
        ellipticity_upper=1.0,
    )
    config = SolverConfig(grid=grid, n_steps=int(steps))
    constants = MaxPrincipleConstants(
        c1=0.0,
        c2=0.05 + 0.5 * measure.total_mass,
        c3=0.05 + 0.5,
    )
    envelopes = GrowthEnvelopes(
        drift_env=lambda s, r: 0.25 * s + 0.15 + 0.1 * r + 0.1,
        gen_env=lambda s, r: 0.5 * s + 0.2 + 0.1 * r + 0.1,
        gen_decay=lambda s, q, r: 0.0,
        jump_env=lambda s: 0.5,
    )
    ell, growth = _sample_sets(spec, grid)
    return BuiltProblem(
        name="coupled-linear",
        spec=spec,
        constants=constants,
        solver_config=config,
        oracle=None,
        x0=np.array([0.0]),
        default_path_dt=T / 1000.0,
        envelopes=envelopes,
        ellipticity_samples=ell,
        growth_samples=growth,
    )


CATALOG: dict[str, CatalogEntry] = {
    "heat": CatalogEntry(
        name="heat",
        summary="pure diffusion with closed-form field",
        builder=_build_heat,
        defaults={"nodes": 201, "steps": 400, "horizon": 1.0},
    ),
    "manufactured-nonlocal": CatalogEntry(
        name="manufactured-nonlocal",
        summary="forced problem with exact field exp(-t) cos(x) and jumps",
        builder=_build_manufactured,
        defaults={"nodes": 201, "steps": 400, "horizon": 1.0, "half_width": 3.0},
    ),
    "pure-jump": CatalogEntry(
        name="pure-jump",
        summary="single-atom compensated jumps, small diffusion floor",
        builder=_build_pure_jump,
        defaults={
            "nodes": 301,
            "steps": 300,
            "horizon": 1.0,
            "rate": 1.0,
            "sigma_small": 0.05,
            "mark": 1.0,
        },
    ),
    "coupled-linear": CatalogEntry(
        name="coupled-linear",
        summary="drift and generator linear in (u, p, w), constant jump shift",
        builder=_build_coupled_linear,
        defaults={"nodes": 401, "steps": 800, "horizon": 1.0, "half_width": 6.0},
    ),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def build_problem(
    name: str,
    params: Mapping | None = None,
    *,
    cutoff_width: float | None = None,
    linear_solver: str | None = None,
) -> BuiltProblem:
    """Resolve a catalog entry and build it with parameter overrides."""
    if name not in CATALOG:
        raise ConfigError(
            f"unknown problem {name!r}; available: {', '.join(catalog_names())}"
        )
    entry = CATALOG[name]
    merged = dict(entry.defaults)
    for key, value in dict(params or {}).items():
        if key not in entry.defaults:
            raise ConfigError(
                f"unknown parameter {key!r} for problem {name!r}; "
                f"known: {', '.join(sorted(entry.defaults))}"
            )
        kind = type(entry.defaults[key])
        try:
            merged[key] = kind(value)
        except ValueError:
            raise ValueError(
                f"parameter {key!r} of problem {name!r} must be {kind.__name__}, "
                f"got {value!r}"
            ) from None
    built = entry.builder(**merged)
    if cutoff_width is not None or linear_solver is not None:
        cfg = built.solver_config
        if cutoff_width is not None:
            cfg = replace(cfg, cutoff_width=float(cutoff_width))
        if linear_solver is not None:
            cfg = replace(cfg, linear_solver=linear_solver)
        built = replace(built, solver_config=cfg)
    return built
