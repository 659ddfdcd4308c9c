"""Acceptance suite: every criterion at its stated tolerance.

Each test computes its quantities, prints one PASS/FAIL line, then
asserts.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import json
import math
import time

import numpy as np
from scipy import stats

from fbsde import (
    Grid,
    LevyMeasure,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    TestFunction,
    build_problem,
    bsde_residual,
    check_max_principle,
    eval_nonlocal,
    integrate_over_nu,
    ito_residuals,
    link_ensemble,
    simulate_ensemble,
    solve_final_value,
)
from fbsde.cli import main


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def _field_error(field, oracle):
    pts = field.grid.nodes()
    return max(
        float(np.abs(field.values[i] - oracle(float(t), pts)).max())
        for i, t in enumerate(field.times)
    )


def _zeros(m):
    def fn(t, x, u, p, w):
        return np.zeros((x.shape[0], m))

    return fn


def _linear_setup():
    """Pure-Brownian linear case: h(x) = x, sigma = 1, f = g = phi = 0."""
    measure = LevyMeasure(marks=[[1.0]], weights=[1e-12])
    spec = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=1.0,
        drift=_zeros(1),
        generator=_zeros(1),
        diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
        jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 1)),
        terminal=lambda x: np.asarray(x, dtype=float).copy(),
        measure=measure,
        ellipticity_lower=1.0,
        ellipticity_upper=1.0,
    )
    grid = Grid((-8.0,), (8.0,), (161,))
    config = SolverConfig(
        grid=grid,
        n_steps=16,
        dirichlet_data=lambda t, x: np.asarray(x, dtype=float).copy(),
    )
    times = np.linspace(0.0, 1.0, 17)
    nodes = grid.nodes()
    values = np.broadcast_to(nodes[None], (17, grid.n_nodes, 1)).copy()
    field = SolutionField(grid=grid, times=times, values=values, spec=spec, config=config)
    return spec, field


def test_criterion_1_heat_equation_oracle():
    start = time.perf_counter()
    built = build_problem("heat", {"nodes": 201, "steps": 400})
    field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
    elapsed = time.perf_counter() - start
    err = _field_error(field, built.oracle)
    ok = err <= 5e-3 and elapsed < 10.0
    _line(1, ok, f"heat Linf error {err:.3e} (<= 5e-3), runtime {elapsed:.2f}s (< 10s)")
    assert err <= 5e-3
    assert elapsed < 10.0


def test_criterion_2_max_principle_bound_all_catalog_problems():
    details = []
    ok = True
    heat_run = None
    for name in ("heat", "manufactured-nonlocal", "pure-jump", "coupled-linear"):
        built = build_problem(name)
        field, diag = solve_final_value(built.spec, built.solver_config, built.constants)
        result = check_max_principle(field, diag, tol=1e-10)
        ok = ok and result.passed
        details.append(f"{name}: observed {result.observed:.3g} <= bound {result.bound:.3g}")
        if name == "heat":
            heat_run = (field, diag)
    field, diag = heat_run
    scaled = SolutionField(
        grid=field.grid,
        times=field.times,
        values=10.0 * field.values,
        spec=field.spec,
        config=field.config,
    )
    flagged = not check_max_principle(scaled, diag, tol=1e-10).passed
    ok = ok and flagged
    _line(2, ok, "; ".join(details) + f"; 10x-scaled field flagged: {flagged}")
    assert ok


def test_criterion_3_manufactured_nonlocal_convergence():
    start = time.perf_counter()
    errors = []
    grad_sups = []
    for rung in range(3):
        built = build_problem(
            "manufactured-nonlocal",
            {"nodes": 200 * 2**rung + 1, "steps": 400 * 4**rung},
        )
        field, diag = solve_final_value(built.spec, built.solver_config, built.constants)
        errors.append(_field_error(field, built.oracle))
        grad_sups.append(float(diag.sup_gradient.max()))
    elapsed = time.perf_counter() - start
    decreasing = errors[0] > errors[1] > errors[2]
    ratio = errors[2] / errors[0]
    grad_bounded = grad_sups[2] <= 2.0 * grad_sups[0]
    ok = decreasing and ratio <= 0.15 and elapsed < 120.0 and grad_bounded
    _line(
        3,
        ok,
        f"errors {errors[0]:.2e} > {errors[1]:.2e} > {errors[2]:.2e}, "
        f"final/first {ratio:.3f} (<= 0.15), gradient monitor "
        f"{grad_sups[2]:.3f} <= 2 x {grad_sups[0]:.3f}, runtime {elapsed:.1f}s (< 120s)",
    )
    assert decreasing
    assert ratio <= 0.15
    assert grad_bounded
    assert elapsed < 120.0


def test_criterion_4_nonlocal_operator_exactness_and_sup_bound():
    rng = np.random.default_rng(2718)
    grid = Grid((-5.0,), (5.0,), (81,))
    measure = LevyMeasure(marks=[[0.75], [-1.25]], weights=[0.8, 0.6])

    def jump(t, x, u, y):
        return np.full((x.shape[0], 1), y[0])

    spec = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=1.0,
        drift=_zeros(1),
        generator=_zeros(1),
        diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
        jump_coeff=jump,
        terminal=lambda x: np.asarray(x, dtype=float).copy(),
        measure=measure,
    )
    xs = grid.nodes()
    worst_affine = 0.0
    for _ in range(50):
        a, b = rng.uniform(-2, 2), rng.uniform(-1, 1)
        table = eval_nonlocal(grid, a + b * xs, spec, 0.0)
        for k, mark in enumerate(measure.marks[:, 0]):
            inside = (xs[:, 0] + mark <= 5.0) & (xs[:, 0] + mark >= -5.0)
            err = np.abs(table[inside, k, 0] - b * mark).max()
            worst_affine = max(worst_affine, float(err))
    affine_ok = worst_affine <= 1e-13

    # randomized fields, shifts may leave the box so clamping engages
    def wild_jump(t, x, u, y):
        return y[0] * (1.0 + np.sin(2.0 * x) + 0.5 * u)

    spec_wild = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=1.0,
        drift=_zeros(1),
        generator=_zeros(1),
        diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
        jump_coeff=wild_jump,
        terminal=lambda x: np.asarray(x, dtype=float).copy(),
        measure=measure,
    )
    bound_ok = True
    for _ in range(1000):
        u = rng.normal(size=(grid.n_nodes, 1))
        table = eval_nonlocal(grid, u, spec_wild, rng.uniform(0.0, 1.0))
        integral = integrate_over_nu(table, measure)
        bound = 2.0 * measure.total_mass * np.abs(u).max()
        if not np.all(np.abs(integral) <= bound * (1.0 + 1e-12)):
            bound_ok = False
            break
    ok = affine_ok and bound_ok
    _line(
        4,
        ok,
        f"affine worst error {worst_affine:.2e} (<= 1e-13), "
        f"sup bound held on 1000 random fields: {bound_ok}",
    )
    assert affine_ok
    assert bound_ok


def test_criterion_5_pure_jump_martingale_and_chi_square():
    built = build_problem("pure-jump")
    field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
    ens = simulate_ensemble(field, built.spec, built.x0, 1e-3, 10_000, base_seed=42)
    x_T = np.array([p.states[-1, 0] for p in ens])
    stderr = x_T.std(ddof=1) / math.sqrt(len(x_T))
    mean_ok = abs(x_T.mean() - built.x0[0]) <= 4.0 * stderr

    lam = built.spec.measure.total_mass * built.spec.horizon
    counts = np.array([len(p.events) for p in ens])
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = np.array(
        [stats.poisson.pmf(k, lam) for k in range(kmax + 1)]
    ) * len(ens)
    # lump the tail so every expected bin count is at least 5
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    expected[-1] += len(ens) - expected.sum()  # fold the remaining tail mass
    chi = stats.chisquare(observed, expected)
    chi_ok = chi.pvalue >= 0.01
    ok = mean_ok and chi_ok
    _line(
        5,
        ok,
        f"|mean - x0| = {abs(x_T.mean()):.4f} <= 4 stderr = {4 * stderr:.4f}; "
        f"jump-count chi-square p = {chi.pvalue:.3f} (>= 0.01)",
    )
    assert mean_ok
    assert chi_ok


def test_criterion_6_link_and_residual_exactness():
    spec, field = _linear_setup()
    ens = simulate_ensemble(field, spec, np.array([0.0]), 1e-3, 1000, base_seed=101)
    linked = link_ensemble(ens, field, spec)
    rep = bsde_residual(linked, spec)
    worst = float(np.abs(rep.residuals).max())
    ok = worst <= 1e-12 and rep.excluded_paths == 0
    _line(6, ok, f"worst per-path |R| = {worst:.2e} over 1000 paths (<= 1e-12)")
    assert worst <= 1e-12
    assert rep.excluded_paths == 0


def test_criterion_7_residual_decay_ladder():
    start = time.perf_counter()
    built = build_problem("coupled-linear")
    field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
    rms = []
    for divisor in (250, 500, 1000):
        ens = simulate_ensemble(
            field, built.spec, built.x0, built.spec.horizon / divisor, 10_000, base_seed=7
        )
        linked = link_ensemble(ens, field, built.spec)
        rms.append(bsde_residual(linked, built.spec).rms)
    elapsed = time.perf_counter() - start
    ratios = [rms[i] / rms[i + 1] for i in range(2)]
    ok = all(r >= 1.3 for r in ratios) and elapsed < 180.0
    _line(
        7,
        ok,
        f"rms {rms[0]:.3e} -> {rms[1]:.3e} -> {rms[2]:.3e}, ratios "
        f"{ratios[0]:.2f}, {ratios[1]:.2f} (>= 1.3), runtime {elapsed:.1f}s (< 180s)",
    )
    assert all(r >= 1.3 for r in ratios)
    assert elapsed < 180.0


def test_criterion_8_ito_identity():
    linear_fn = TestFunction(
        value=lambda t, x: x[:, 0],
        grad=lambda t, x: np.ones_like(x),
        hess=lambda t, x: np.zeros((x.shape[0], 1, 1)),
        dt=lambda t, x: np.zeros(x.shape[0]),
    )
    measure = LevyMeasure(marks=[[1.0]], weights=[2.0])
    spec_j = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=1.0,
        drift=_zeros(1),
        generator=_zeros(1),
        diffusion=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
        jump_coeff=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
        terminal=lambda x: np.asarray(x, dtype=float).copy(),
        measure=measure,
    )
    grid = Grid((-10.0,), (14.0,), (97,))
    config = SolverConfig(
        grid=grid, n_steps=8, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1))
    )
    times = np.linspace(0.0, 1.0, 9)
    field_j = SolutionField(
        grid=grid,
        times=times,
        values=np.zeros((9, grid.n_nodes, 1)),
        spec=spec_j,
        config=config,
    )
    ens = simulate_ensemble(field_j, spec_j, np.array([0.0]), 1e-3, 1000, base_seed=21)
    res_linear = ito_residuals(link_ensemble(ens, field_j, spec_j), test_fn=linear_fn)
    linear_ok = float(np.abs(res_linear).max()) <= 1e-12

    spec_b, field_b = _linear_setup()
    quad_fn = TestFunction(
        value=lambda t, x: x[:, 0] ** 2,
        grad=lambda t, x: 2.0 * x,
        hess=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
        dt=lambda t, x: np.zeros(x.shape[0]),
    )
    ens_b = simulate_ensemble(field_b, spec_b, np.array([0.0]), 1e-3, 10_000, base_seed=22)
    res_quad = ito_residuals(link_ensemble(ens_b, field_b, spec_b), test_fn=quad_fn)
    stderr = res_quad.std(ddof=1) / math.sqrt(len(res_quad))
    quad_ok = abs(res_quad.mean()) <= 4.0 * stderr
    ok = linear_ok and quad_ok
    _line(
        8,
        ok,
        f"linear-with-jumps worst |res| = {np.abs(res_linear).max():.2e} (<= 1e-12); "
        f"quadratic mean {res_quad.mean():.2e} within 4 stderr = {4 * stderr:.2e}",
    )
    assert linear_ok
    assert quad_ok


def test_criterion_9_reproducibility(tmp_path):
    args = [
        "simulate",
        "--problem",
        "pure-jump",
        "--nodes",
        "61",
        "--steps",
        "40",
        "--paths",
        "25",
        "--dt",
        "0.01",
        "--seed",
        "2024",
    ]
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        blobs.append((out / "paths.csv").read_bytes())
    byte_identical = blobs[0] == blobs[1]

    report_path = tmp_path / "first" / "report.json"
    text = report_path.read_text()
    once = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    twice = json.dumps(json.loads(once), indent=2, sort_keys=True) + "\n"
    idempotent = once == twice == text
    ok = byte_identical and idempotent
    _line(
        9,
        ok,
        f"paths.csv byte-identical across runs: {byte_identical}; "
        f"report.json round-trip idempotent: {idempotent}",
    )
    assert byte_identical
    assert idempotent
