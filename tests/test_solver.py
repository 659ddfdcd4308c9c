import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbsde
from fbsde import (
    BlowUpError,
    DegenerateDiffusionError,
    Grid,
    GridFunction,
    LevyMeasure,
    LinearSolveError,
    MaxPrincipleConstants,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    check_max_principle,
    cutoff_values,
    solve_final_value,
    spatial_gradient,
    step_imex,
)
from fbsde.solver import _solve_axis_sweep, solve_tridiagonal


def _zeros(m):
    def fn(t, x, u, p, w):
        return np.zeros((x.shape[0], m))

    return fn


DUMMY_MEASURE = LevyMeasure(marks=[[1.0]], weights=[1.0])


def diffusion_spec(sigma_val=1.0, horizon=1.0, generator=None, drift=None, terminal=None):
    return ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=horizon,
        drift=drift or _zeros(1),
        generator=generator or _zeros(1),
        diffusion=lambda t, x, u: np.full((x.shape[0], 1, 1), sigma_val),
        jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 1)),
        terminal=terminal or (lambda x: np.sin(x)),
        measure=DUMMY_MEASURE,
        ellipticity_lower=sigma_val**2,
        ellipticity_upper=sigma_val**2,
    )


class TestTridiagonal:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        n = 12
        lower = rng.normal(size=n) * 0.3
        upper = rng.normal(size=n) * 0.3
        diag = 2.0 + rng.random(n)
        rhs = rng.normal(size=(n, 2))
        mat = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
        expect = np.linalg.solve(mat, rhs)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        assert np.allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_batch_matches_dense_solve(self, k):
        rng = np.random.default_rng(1)
        lower, diag, upper, rhs = _dominant_systems(rng, (4, 3), 9, k)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        assert got.shape == rhs.shape
        np.testing.assert_allclose(got, _dense_solve(lower, diag, upper, rhs), rtol=0, atol=1e-12)

    @given(
        st.integers(min_value=3, max_value=12),
        st.lists(st.integers(min_value=1, max_value=4), max_size=3),
        st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_property(self, n, batch, k, seed):
        rng = np.random.default_rng(seed)
        lower, diag, upper, rhs = _dominant_systems(rng, tuple(batch), n, k)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        np.testing.assert_allclose(got, _dense_solve(lower, diag, upper, rhs), rtol=0, atol=1e-12)

    def test_inputs_untouched(self):
        rng = np.random.default_rng(2)
        systems = _dominant_systems(rng, (5,), 7, 2)
        before = [a.copy() for a in systems]
        solve_tridiagonal(*systems)
        for a, b in zip(systems, before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch, k", [((), None), ((), 1), ((2,), 3)])
    def test_zero_pivot_raises(self, batch, k):
        lower, diag, upper, rhs = _dominant_systems(np.random.default_rng(4), batch, 4, k)
        singular = (-1,) if batch else ()  # with a batch, only the last system
        for a in (lower, diag, upper):
            a[singular] = 0.0
        with pytest.raises(LinearSolveError, match="pivot"):
            solve_tridiagonal(lower, diag, upper, rhs)


def _dominant_systems(rng, batch, n, k):
    """Random strictly diagonally dominant systems of shape batch + (n,)."""
    lower = rng.normal(size=batch + (n,))
    upper = rng.normal(size=batch + (n,))
    diag = (np.abs(lower) + np.abs(upper) + 0.5 + rng.random(batch + (n,))) * rng.choice(
        [-1.0, 1.0], size=batch + (n,)
    )
    rhs = rng.normal(size=batch + (n,) + (() if k is None else (k,)))
    return lower, diag, upper, rhs


def _dense_solve(lower, diag, upper, rhs):
    n = diag.shape[-1]
    mat = np.zeros(diag.shape + (n,))
    idx = np.arange(n)
    mat[..., idx, idx] = diag
    mat[..., idx[1:], idx[:-1]] = lower[..., 1:]
    mat[..., idx[:-1], idx[1:]] = upper[..., :-1]
    if rhs.ndim == diag.ndim:
        return np.linalg.solve(mat, rhs[..., None])[..., 0]
    return np.linalg.solve(mat, rhs)


class TestAxisSweep:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_dense_operator(self, axis):
        # one sweep solves (I - dt a D2_axis) u = work with identity face rows
        rng = np.random.default_rng(3 + axis)
        grid = Grid((0.0, -1.0, 0.5), (1.0, 2.0, 1.5), (5, 6, 7))
        m, dt = 2, 0.01
        coeff = 0.2 + rng.random(grid.n_nodes)
        work = rng.normal(size=(grid.n_nodes, m))
        bfull = rng.normal(size=(grid.n_nodes, m))
        got = _solve_axis_sweep(grid, work, axis, coeff, dt, bfull)

        r = dt / grid.spacings[axis] ** 2
        stride = grid.strides[axis]
        pos = np.unravel_index(np.arange(grid.n_nodes), grid.shape)[axis]
        mat = np.eye(grid.n_nodes)
        rhs = work.copy()
        for node in range(grid.n_nodes):
            if pos[node] in (0, grid.shape[axis] - 1):
                rhs[node] = bfull[node]
                continue
            mat[node, node] += 2.0 * r * coeff[node]
            mat[node, node - stride] = -r * coeff[node]
            mat[node, node + stride] = -r * coeff[node]
        np.testing.assert_allclose(got, np.linalg.solve(mat, rhs), rtol=0, atol=1e-12)


def test_line_solvers_do_not_import_scipy():
    # the banded/ADI path is pure numpy; only the sparse mode needs scipy
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from fbsde import (Grid, LevyMeasure, MaxPrincipleConstants, ProblemSpec,
                           SolverConfig, solve_final_value)

        def spec(n):
            return ProblemSpec(
                n=n, m=1, l=1, horizon=0.5,
                drift=lambda t, x, u, p, w: np.zeros((x.shape[0], n)),
                generator=lambda t, x, u, p, w: np.zeros((x.shape[0], 1)),
                diffusion=lambda t, x, u: np.broadcast_to(np.eye(n), (x.shape[0], n, n)).copy(),
                jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], n)),
                terminal=lambda x: np.sin(x).prod(axis=1, keepdims=True),
                measure=LevyMeasure(marks=[[1.0]], weights=[1.0]),
            )

        for n, mode in ((2, "adi"), (1, "tridiag")):
            grid = Grid((0.0,) * n, (3.0,) * n, (9,) * n)
            config = SolverConfig(grid=grid, n_steps=4, cutoff_width=0.5, linear_solver=mode)
            solve_final_value(spec(n), config, MaxPrincipleConstants(0, 0, 0))
        print("scipy" in sys.modules)
        """
    )
    src = str(Path(fbsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False", done.stdout + done.stderr


class TestSpatialGradient:
    def test_affine_exact(self):
        grid = Grid((-2.0,), (3.0,), (11,))
        u = GridFunction(grid=grid, values=1.0 + 2.5 * grid.nodes(), t=0.0)
        g = spatial_gradient(u)
        assert np.allclose(g[:, 0, 0], 2.5, atol=1e-13)

    def test_quadratic_central_exact_interior(self):
        grid = Grid((0.0,), (1.0,), (11,))
        xs = grid.nodes()
        u = GridFunction(grid=grid, values=xs**2, t=0.0)
        g = spatial_gradient(u)
        assert np.allclose(g[1:-1, 0, 0], 2.0 * xs[1:-1, 0], atol=1e-13)

    def test_sine_error_bound(self):
        # oracle cos(x); central error <= h^2/6 * max|u'''|
        grid = Grid((0.0,), (2.0,), (201,))
        xs = grid.nodes()
        u = GridFunction(grid=grid, values=np.sin(xs), t=0.0)
        g = spatial_gradient(u)
        err = np.abs(g[1:-1, 0, 0] - np.cos(xs[1:-1, 0])).max()
        h = grid.spacings[0]
        assert err <= h * h / 6.0 * 1.0 + 1e-12

    def test_2d_affine_exact(self):
        grid = Grid((0.0, 0.0), (1.0, 2.0), (5, 9))
        pts = grid.nodes()
        vals = (0.3 + 1.5 * pts[:, 0] - 0.25 * pts[:, 1])[:, None]
        u = GridFunction(grid=grid, values=vals, t=0.0)
        g = spatial_gradient(u)
        assert np.allclose(g[:, 0, 0], 1.5, atol=1e-12)
        assert np.allclose(g[:, 0, 1], -0.25, atol=1e-12)


class TestCutoff:
    def test_one_on_inner_box_zero_on_faces(self):
        grid = Grid((0.0,), (10.0,), (101,))
        xi = cutoff_values(grid, width=2.0)
        xs = grid.nodes()[:, 0]
        assert np.all(xi[(xs >= 2.0) & (xs <= 8.0)] == 1.0)
        assert xi[0] == 0.0 and xi[-1] == 0.0
        mid = np.argmin(np.abs(xs - 1.0))  # halfway through the annulus
        assert xi[mid] == pytest.approx(0.5, abs=1e-12)

    def test_width_validation(self):
        grid = Grid((0.0,), (1.0,), (11,))
        with pytest.raises(ValueError, match="half the box width"):
            SolverConfig(grid=grid, n_steps=10, cutoff_width=0.5)


class TestStepImex:
    def test_hand_solved_single_interior_node(self):
        # 3-node grid on [0, 2], dt = 0.1, u = (0, 1, 0):
        # implicit diffusion gives center value 1 / (1 + 2 * 0.5 * 0.1) = 1/1.1
        grid = Grid((0.0,), (2.0,), (3,))
        spec = diffusion_spec(sigma_val=1.0, horizon=1.0)
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.4)
        u = GridFunction(grid=grid, values=np.array([[0.0], [1.0], [0.0]]), t=0.0)
        out = step_imex(u, 0.0, spec, config)
        assert out.values[1, 0] == pytest.approx(1.0 / 1.1, abs=1e-14)
        assert out.values[0, 0] == 0.0 and out.values[2, 0] == 0.0

    def test_zero_fixed_point(self):
        grid = Grid((0.0,), (2.0,), (21,))
        spec = diffusion_spec()
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.4)
        u = GridFunction(grid=grid, values=np.zeros((21, 1)), t=0.0)
        out = step_imex(u, 0.0, spec, config)
        assert np.all(out.values == 0.0)

    def test_monotone_range_containment(self):
        # scalar heat case: the implicit step is an M-matrix solve, so the
        # output stays within the range of the input (faces pinned at 0)
        rng = np.random.default_rng(42)
        grid = Grid((0.0,), (1.0,), (31,))
        spec = diffusion_spec()
        config = SolverConfig(grid=grid, n_steps=20, cutoff_width=0.2)
        vals = rng.uniform(-1.0, 2.0, size=(31, 1))
        vals[0] = vals[-1] = 0.0
        u = GridFunction(grid=grid, values=vals, t=0.0)
        for step in range(5):
            out = step_imex(u, step * 0.05, spec, config)
            assert out.values.min() >= u.values.min() - 1e-12
            assert out.values.max() <= u.values.max() + 1e-12
            u = out

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diffusion_rejected(self, bad):
        grid = Grid((0.0,), (1.0,), (11,))
        # sigma is bad on part of the grid only; NaN slips past a "<= 0" test
        spec = dataclasses.replace(
            diffusion_spec(), diffusion=lambda t, x, u: np.where(x[:, :, None] > 0.5, bad, 1.0)
        )
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.2)
        u = GridFunction(grid=grid, values=np.ones((11, 1)), t=0.0)
        with pytest.raises(DegenerateDiffusionError, match="non-finite"):
            step_imex(u, 0.0, spec, config)

    def test_degenerate_diffusion_rejected(self):
        grid = Grid((0.0,), (1.0,), (11,))
        spec = diffusion_spec(sigma_val=0.0)
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.2)
        u = GridFunction(grid=grid, values=np.ones((11, 1)), t=0.0)
        with pytest.raises(DegenerateDiffusionError):
            step_imex(u, 0.0, spec, config)


class TestSolveFinalValue:
    def test_heat_equation_oracle(self):
        spec = diffusion_spec()
        grid = Grid((0.0,), (math.pi,), (201,))
        config = SolverConfig(
            grid=grid,
            n_steps=400,
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
        )
        field, diag = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        pts = grid.nodes()
        err = max(
            float(np.abs(field.values[i] - np.exp(-(1.0 - t) / 2.0) * np.sin(pts)).max())
            for i, t in enumerate(field.times)
        )
        assert err <= 5e-3
        assert diag.max_principle_ok

    def test_zero_data_gives_zero_field(self):
        # h = 0, g = 0 with nonzero drift and jumps: zero is exact and preserved
        measure = LevyMeasure(marks=[[0.5]], weights=[2.0])
        spec = ProblemSpec(
            n=1,
            m=1,
            l=1,
            horizon=1.0,
            drift=lambda t, x, u, p, w: np.full((x.shape[0], 1), 0.7),
            generator=_zeros(1),
            diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
            jump_coeff=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            terminal=lambda x: np.zeros((x.shape[0], 1)),
            measure=measure,
        )
        grid = Grid((-4.0,), (4.0,), (41,))
        config = SolverConfig(grid=grid, n_steps=50)
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0, 1, 1))
        assert np.all(field.values == 0.0)

    def test_terminal_snapshot_reproduces_cutoff_data(self):
        spec = diffusion_spec(terminal=lambda x: np.cos(x))
        grid = Grid((-4.0,), (4.0,), (33,))
        config = SolverConfig(grid=grid, n_steps=8, cutoff_width=1.0)
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        expected = np.cos(grid.nodes()) * cutoff_values(grid, 1.0)[:, None]
        assert np.array_equal(field.values[-1], expected)

    def test_time_reversal_involution(self):
        spec = diffusion_spec()
        grid = Grid((0.0,), (math.pi,), (21,))
        config = SolverConfig(
            grid=grid, n_steps=6, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1))
        )
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        twice = field.time_reversed().time_reversed()
        assert np.array_equal(twice.values, field.values)
        assert np.array_equal(twice.times, field.times)
        assert np.array_equal(twice.gradients, field.gradients)

    def test_blow_up_reports_level(self):
        # explicit positive feedback with a huge rate overflows quickly
        spec = diffusion_spec(generator=lambda t, x, u, p, w: 1e8 * u)
        grid = Grid((0.0,), (math.pi,), (21,))
        config = SolverConfig(grid=grid, n_steps=60, cutoff_width=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                solve_final_value(spec, config, MaxPrincipleConstants(0, 1, 0))
        assert err.value.level >= 1

    def test_diagnostics_sups_match_snapshots(self):
        spec = diffusion_spec()
        grid = Grid((0.0,), (math.pi,), (41,))
        config = SolverConfig(
            grid=grid, n_steps=10, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1))
        )
        field, diag = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        recomputed = np.sqrt(np.sum(field.values**2, axis=-1)).max(axis=1)
        assert np.array_equal(diag.sup_u, recomputed)


class TestMaxPrinciple:
    def _heat_run(self):
        spec = diffusion_spec()
        grid = Grid((0.0,), (math.pi,), (101,))
        config = SolverConfig(
            grid=grid, n_steps=100, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1))
        )
        return solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))

    def test_heat_margin(self):
        field, diag = self._heat_run()
        result = check_max_principle(field, diag)
        assert result.passed
        assert result.lambda_rate == pytest.approx(1.0)  # c2 + c3 L^2 + 1 with zeros
        # observed sup decays from sup|h| = 1, so margin >= (e - 1) sup|h|
        assert result.margin >= (math.e - 1.0) - 1e-9

    def test_zero_field_passes(self):
        field, diag = self._heat_run()
        zero = SolutionField(
            grid=field.grid,
            times=field.times,
            values=np.zeros_like(field.values),
            gradients=np.zeros_like(field.gradients),
            spec=field.spec,
            config=field.config,
        )
        result = check_max_principle(zero, diag)
        assert result.passed and result.margin == pytest.approx(result.bound)

    def test_scaled_field_is_flagged(self):
        field, diag = self._heat_run()
        scaled = SolutionField(
            grid=field.grid,
            times=field.times,
            values=10.0 * field.values,
            gradients=10.0 * field.gradients,
            spec=field.spec,
            config=field.config,
        )
        result = check_max_principle(scaled, diag)
        assert not result.passed
        assert result.first_violation_level is not None


def _oracle_2d(t, pts, horizon):
    return (np.exp(-(horizon - t)) * np.sin(pts[:, 0]) * np.sin(pts[:, 1]))[:, None]


def _spec_2d(horizon=0.5, generator=None, sigma_mat=None, terminal=None):
    mat = np.eye(2) if sigma_mat is None else np.asarray(sigma_mat, dtype=float)

    def sigma(t, x, u):
        return np.broadcast_to(mat, (x.shape[0], 2, 2)).copy()

    return ProblemSpec(
        n=2,
        m=1,
        l=1,
        horizon=horizon,
        drift=_zeros(2),
        generator=generator or _zeros(1),
        diffusion=sigma,
        jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2)),
        terminal=terminal or (lambda x: (np.sin(x[:, 0]) * np.sin(x[:, 1]))[:, None]),
        measure=DUMMY_MEASURE,
    )


class TestTwoDimensional:
    @pytest.mark.parametrize("mode", ["adi", "sparse"])
    def test_2d_heat_oracle(self, mode):
        horizon = 0.5
        spec = _spec_2d(horizon=horizon)
        grid = Grid((0.0, 0.0), (math.pi, math.pi), (41, 41))
        config = SolverConfig(
            grid=grid,
            n_steps=100,
            linear_solver=mode,
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
        )
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        pts = grid.nodes()
        err = max(
            float(np.abs(field.values[i] - _oracle_2d(float(t), pts, horizon)).max())
            for i, t in enumerate(field.times)
        )
        assert err <= 5e-3, f"{mode} error {err}"

    @pytest.mark.parametrize("mode", ["adi", "sparse"])
    def test_2d_mixed_derivative_manufactured(self, mode):
        # sigma with a cross term; forcing makes exp(-t) cos x cos y exact
        horizon = 0.5
        mat = np.array([[1.0, 0.5], [0.0, 1.0]])
        gram = mat @ mat.T
        a11, a12, a22 = 0.5 * gram[0, 0], 0.5 * gram[0, 1], 0.5 * gram[1, 1]

        def exact_field(t, pts):
            return (np.exp(-t) * np.cos(pts[:, 0]) * np.cos(pts[:, 1]))[:, None]

        def forcing(t, x, u, p, w):
            cc = np.cos(x[:, 0]) * np.cos(x[:, 1])
            ss = np.sin(x[:, 0]) * np.sin(x[:, 1])
            return (np.exp(-t) * ((1.0 + a11 + a22) * cc - 2.0 * a12 * ss))[:, None]

        spec = _spec_2d(
            horizon=horizon,
            generator=forcing,
            sigma_mat=mat,
            terminal=lambda x: exact_field(horizon, x),
        )
        errors = []
        for nodes, steps in ((21, 16), (41, 64)):
            grid = Grid((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
            config = SolverConfig(
                grid=grid,
                n_steps=steps,
                cutoff_width=0.4,
                linear_solver=mode,
                dirichlet_data=lambda t, x: exact_field(t, x),
            )
            field, _ = solve_final_value(spec, config, MaxPrincipleConstants(2.0, 1.0, 0.0))
            pts = grid.nodes()
            err = max(
                float(np.abs(field.values[i] - exact_field(float(t), pts)).max())
                for i, t in enumerate(field.times)
            )
            errors.append(err)
        assert errors[1] < errors[0]
        assert errors[1] <= 5e-3, f"{mode} errors {errors}"


class TestThreeDimensional:
    def test_3d_heat_oracle_adi(self):
        # product sine data decays at rate 3/2; resolution-derived budget:
        # spatial eigenvalue defect ~ h^2/12 per axis plus O(dt) time error
        horizon = 0.3
        measure = DUMMY_MEASURE

        def sigma(t, x, u):
            return np.broadcast_to(np.eye(3), (x.shape[0], 3, 3)).copy()

        def h(x):
            return (np.sin(x[:, 0]) * np.sin(x[:, 1]) * np.sin(x[:, 2]))[:, None]

        spec = ProblemSpec(
            n=3,
            m=1,
            l=1,
            horizon=horizon,
            drift=lambda t, x, u, p, w: np.zeros((x.shape[0], 3)),
            generator=_zeros(1),
            diffusion=sigma,
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 3)),
            terminal=h,
            measure=measure,
        )
        grid = Grid((0.0,) * 3, (math.pi,) * 3, (11, 11, 11))
        config = SolverConfig(
            grid=grid,
            n_steps=30,
            cutoff_width=1.0,
            linear_solver="adi",
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
        )
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        pts = grid.nodes()
        err = max(
            float(
                np.abs(
                    field.values[i]
                    - math.exp(-1.5 * (horizon - t)) * h(pts)
                ).max()
            )
            for i, t in enumerate(field.times)
        )
        assert err <= 0.02, err


class TestVectorValuedField:
    def test_two_component_heat_oracles(self):
        # components decay at rates 1/2 and 2 under the same scalar operator
        horizon = 1.0

        def h(x):
            return np.concatenate([np.sin(x), np.sin(2.0 * x)], axis=1)

        measure = DUMMY_MEASURE
        spec = ProblemSpec(
            n=1,
            m=2,
            l=1,
            horizon=horizon,
            drift=_zeros(1),
            generator=_zeros(2),
            diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 1)),
            terminal=h,
            measure=measure,
        )
        grid = Grid((0.0,), (math.pi,), (201,))
        config = SolverConfig(
            grid=grid,
            n_steps=400,
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 2)),
        )
        field, diag = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        pts = grid.nodes()
        err1 = max(
            float(np.abs(field.values[i][:, 0] - math.exp(-(horizon - t) / 2.0) * np.sin(pts[:, 0])).max())
            for i, t in enumerate(field.times)
        )
        err2 = max(
            float(np.abs(field.values[i][:, 1] - math.exp(-2.0 * (horizon - t)) * np.sin(2.0 * pts[:, 0])).max())
            for i, t in enumerate(field.times)
        )
        assert err1 <= 5e-3, err1
        assert err2 <= 1e-2, err2
        assert diag.max_principle_ok
