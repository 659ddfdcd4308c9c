import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbsde
from fbsde import (
    BlowUpError,
    DegenerateDiffusionError,
    Grid,
    LevyMeasure,
    LinearSolveError,
    MaxPrincipleConstants,
    NonFiniteShiftError,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    check_max_principle,
    cutoff_values,
    solve_final_value,
    spatial_gradient,
    step_imex,
)
from fbsde import solver as solver_module
from fbsde.grid import multilinear_interpolate
from fbsde.solver import _mixed_second_sum, _solve_axis_sweep, _thomas, solve_tridiagonal


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
    # importing the package loads every module, and 1-D and 2-D solves run
    # the numpy axis loop; scipy is only a test dependency
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

        for n in (1, 2):
            grid = Grid((0.0,) * n, (3.0,) * n, (9,) * n)
            config = SolverConfig(grid=grid, n_steps=4, cutoff_width=0.5)
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


class TestSolverConfigModes:
    def test_sparse_rejected(self):
        grid = Grid((0.0,), (3.0,), (9,))
        with pytest.raises(ValueError, match="'sparse'"):
            SolverConfig(grid=grid, n_steps=4, cutoff_width=0.5, linear_solver="sparse")


class TestMixedSecondSum:
    # u is a sum of products x_i x_j, so d2u/dx_i dx_j = 1 for each listed pair
    @pytest.mark.parametrize(
        "lower, upper, shape, pairs",
        [
            ((-1.0, 0.5), (2.0, 1.5), (7, 9), [(0, 1)]),  # u = x y
            ((-1.0, 0.0, 0.5), (1.0, 2.0, 1.0), (5, 6, 7), [(0, 2), (1, 2)]),  # u = x z + y z
        ],
    )
    def test_exact_on_bilinear_products(self, lower, upper, shape, pairs):
        grid = Grid(lower, upper, shape)
        pts = grid.nodes()
        values = sum(pts[:, i] * pts[:, j] for i, j in pairs)[:, None]
        a2 = np.random.default_rng(5).normal(size=(grid.n_nodes, grid.ndim, grid.ndim))
        got = _mixed_second_sum(values, a2, grid)[:, 0]

        pos = np.stack(np.unravel_index(np.arange(grid.n_nodes), grid.shape), axis=1)
        off_face = (pos > 0) & (pos < np.array(grid.shape) - 1)  # (nodes, ndim)
        expect = np.zeros(grid.n_nodes)
        for i, j in pairs:
            fits = off_face[:, i] & off_face[:, j]
            expect[fits] += 2.0 * a2[fits, i, j]
        # exact wherever a pair's stencil fits, 0 from that pair on its faces
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


class TestSpatialGradient:
    def test_affine_exact(self):
        grid = Grid((-2.0,), (3.0,), (11,))
        g = spatial_gradient(grid, 1.0 + 2.5 * grid.nodes())
        assert np.allclose(g[:, 0, 0], 2.5, atol=1e-13)

    def test_quadratic_central_exact_interior(self):
        grid = Grid((0.0,), (1.0,), (11,))
        xs = grid.nodes()
        g = spatial_gradient(grid, xs**2)
        assert np.allclose(g[1:-1, 0, 0], 2.0 * xs[1:-1, 0], atol=1e-13)

    def test_sine_error_bound(self):
        # oracle cos(x); central error <= h^2/6 * max|u'''|
        grid = Grid((0.0,), (2.0,), (201,))
        xs = grid.nodes()
        g = spatial_gradient(grid, np.sin(xs))
        err = np.abs(g[1:-1, 0, 0] - np.cos(xs[1:-1, 0])).max()
        h = grid.spacings[0]
        assert err <= h * h / 6.0 * 1.0 + 1e-12

    def test_2d_affine_exact(self):
        grid = Grid((0.0, 0.0), (1.0, 2.0), (5, 9))
        pts = grid.nodes()
        vals = (0.3 + 1.5 * pts[:, 0] - 0.25 * pts[:, 1])[:, None]
        g = spatial_gradient(grid, vals)
        assert np.allclose(g[:, 0, 0], 1.5, atol=1e-12)
        assert np.allclose(g[:, 0, 1], -0.25, atol=1e-12)

    def test_out_receives_the_gradient(self):
        grid = Grid((0.0, 0.0), (1.0, 2.0), (5, 9))
        vals = np.sin(grid.nodes()).reshape(grid.n_nodes, 2)
        out = np.empty((grid.n_nodes, 2, 2))
        assert spatial_gradient(grid, vals, out=out) is out
        assert out.tobytes() == spatial_gradient(grid, vals).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            np.empty(45 * 2 * 2),  # the right size, flat
            np.empty((2, 45, 2)),  # the right size, components first
            np.empty((45, 2, 2), dtype=np.float32),
            np.empty((45, 2, 4))[..., ::2],  # not contiguous
        ],
        ids=["flat", "transposed", "float32", "strided"],
    )
    def test_out_of_another_layout_rejected(self, bad):
        grid = Grid((0.0, 0.0), (1.0, 2.0), (5, 9))
        with pytest.raises(ValueError, match="out must be"):
            spatial_gradient(grid, np.zeros((grid.n_nodes, 2)), out=bad)


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
        u = np.array([[0.0], [1.0], [0.0]])
        out, _ = step_imex(u, 0.0, spec, config)
        assert out[1, 0] == pytest.approx(1.0 / 1.1, abs=1e-14)
        assert out[0, 0] == 0.0 and out[2, 0] == 0.0

    def test_zero_fixed_point(self):
        grid = Grid((0.0,), (2.0,), (21,))
        spec = diffusion_spec()
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.4)
        out, _ = step_imex(np.zeros((21, 1)), 0.0, spec, config)
        assert np.all(out == 0.0)

    def test_monotone_range_containment(self):
        # scalar heat case: the implicit step is an M-matrix solve, so the
        # output stays within the range of the input (faces pinned at 0)
        rng = np.random.default_rng(42)
        grid = Grid((0.0,), (1.0,), (31,))
        spec = diffusion_spec()
        config = SolverConfig(grid=grid, n_steps=20, cutoff_width=0.2)
        vals = rng.uniform(-1.0, 2.0, size=(31, 1))
        vals[0] = vals[-1] = 0.0
        u = vals
        for step in range(5):
            out, _ = step_imex(u, step * 0.05, spec, config)
            assert out.min() >= u.min() - 1e-12
            assert out.max() <= u.max() + 1e-12
            u = out

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diffusion_rejected(self, bad):
        grid = Grid((0.0,), (1.0,), (11,))
        # sigma is bad on part of the grid only; NaN slips past a "<= 0" test
        spec = dataclasses.replace(
            diffusion_spec(), diffusion=lambda t, x, u: np.where(x[:, :, None] > 0.5, bad, 1.0)
        )
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.2)
        with pytest.raises(DegenerateDiffusionError, match="non-finite"):
            step_imex(np.ones((11, 1)), 0.0, spec, config)

    def test_returns_largest_transport_speed(self):
        # a zero shift leaves a1 = -f, so max |a1| is the drift's size
        grid = Grid((0.0,), (2.0,), (21,))
        spec = diffusion_spec(drift=lambda t, x, u, p, w: np.full((x.shape[0], 1), -1.75))
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.4)
        _, speed = step_imex(np.zeros((21, 1)), 0.0, spec, config)
        assert speed == 1.75

    def test_degenerate_diffusion_rejected(self):
        grid = Grid((0.0,), (1.0,), (11,))
        spec = diffusion_spec(sigma_val=0.0)
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.2)
        with pytest.raises(DegenerateDiffusionError):
            step_imex(np.ones((11, 1)), 0.0, spec, config)


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
        assert check_max_principle(field, diag).passed

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

    def test_blow_up_reports_level(self):
        # explicit positive feedback with a huge rate overflows quickly
        spec = diffusion_spec(generator=lambda t, x, u, p, w: 1e8 * u)
        grid = Grid((0.0,), (math.pi,), (21,))
        config = SolverConfig(grid=grid, n_steps=60, cutoff_width=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                solve_final_value(spec, config, MaxPrincipleConstants(0, 1, 0))
        assert err.value.level >= 1

    @pytest.mark.parametrize("speed, coarse", [(1.0, False), (3.0, True)])
    def test_coarse_time_grid_flag(self, speed, coarse):
        # h = 0.2 and dt = 0.1: flagged iff dt * max |a1| at the first level exceeds h
        spec = diffusion_spec(drift=lambda t, x, u, p, w: np.full((x.shape[0], 1), speed))
        config = SolverConfig(grid=Grid((-4.0,), (4.0,), (41,)), n_steps=10)
        _, diag = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        assert diag.coarse_time_grid is coarse

    def test_non_finite_terminal_data_named(self):
        spec = diffusion_spec(terminal=lambda x: np.where(x > 1.0, np.nan, 0.0))
        config = SolverConfig(grid=Grid((0.0,), (math.pi,), (21,)), n_steps=4)
        with pytest.raises(ValueError, match="terminal data"):
            solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))

    def test_non_finite_dirichlet_data_named(self):
        config = SolverConfig(
            grid=Grid((0.0,), (math.pi,), (21,)),
            n_steps=4,
            dirichlet_data=lambda t, x: np.full((x.shape[0], 1), np.inf),
        )
        with pytest.raises(ValueError, match="Dirichlet data"):
            solve_final_value(diffusion_spec(), config, MaxPrincipleConstants(0, 0, 0))

    def test_diagnostics_sups_match_snapshots(self):
        spec = diffusion_spec()
        grid = Grid((0.0,), (math.pi,), (41,))
        config = SolverConfig(
            grid=grid, n_steps=10, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1))
        )
        field, diag = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        recomputed = np.sqrt(np.sum(field.values**2, axis=-1)).max(axis=1)
        assert np.array_equal(diag.sup_u, recomputed)


class TestSolutionFieldTimes:
    @staticmethod
    def _field(times):
        times = np.asarray(times, dtype=float)
        grid = Grid((0.0,), (4.0,), (5,))
        config = SolverConfig(
            grid=grid,
            n_steps=max(times.shape[0] - 1, 1),
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
        )
        return SolutionField(
            grid=grid,
            times=times,
            values=np.zeros((times.shape[0], grid.n_nodes, 1)),
            gradients=np.zeros((times.shape[0], grid.n_nodes, 1, 1)),
            spec=diffusion_spec(),
            config=config,
        )

    @pytest.mark.parametrize("levels, horizon", [(2, 1.0), (1001, 0.3), (4097, 7.1)])
    def test_linspace_accepted(self, levels, horizon):
        field = self._field(np.linspace(0.0, horizon, levels))
        assert field.time_bracket(horizon) == (levels - 2, 1.0)

    @pytest.mark.parametrize(
        "times", [[0.1, 0.6, 1.1], [1e-12, 0.5, 1.0]], ids=["shifted", "nearly-zero"]
    )
    def test_must_start_at_zero(self, times):
        with pytest.raises(ValueError, match="times must start at 0"):
            self._field(times)

    @pytest.mark.parametrize(
        "times",
        [[0.0, 0.4, 1.0], [0.0, 0.5, 1.0 + 1e-6], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]],
        ids=["uneven", "last-step-long", "not-increasing", "constant"],
    )
    def test_must_be_uniform(self, times):
        with pytest.raises(ValueError, match="times must be uniform"):
            self._field(times)

    def test_must_have_two_levels(self):
        with pytest.raises(ValueError, match="at least 2 levels"):
            self._field([0.0])


class TestNonlocalTable:
    def test_non_finite_shift_names_the_atom(self):
        grid = Grid((0.0,), (4.0,), (5,))
        spec = dataclasses.replace(
            diffusion_spec(), jump_coeff=lambda t, x, u, y: np.full((x.shape[0], 1), np.nan)
        )
        field = SolutionField(
            grid=grid,
            times=np.linspace(0.0, 1.0, 3),
            values=np.ones((3, grid.n_nodes, 1)),
            gradients=np.zeros((3, grid.n_nodes, 1, 1)),
            spec=spec,
            config=SolverConfig(grid=grid, n_steps=2),
        )
        with pytest.raises(NonFiniteShiftError, match="atom 0"):
            field.nonlocal_table(0.5, np.array([[1.3]]))
        # with one time per point, the message names the first non-finite row's time
        spec = dataclasses.replace(
            spec, jump_coeff=lambda t, x, u, y: np.where(x > 2.0, np.nan, 0.5)
        )
        field = dataclasses.replace(field, spec=spec)
        points = np.array([[1.0], [2.5], [3.0]])
        with pytest.raises(NonFiniteShiftError, match=r"atom 0 at t=0\.5$"):
            field.nonlocal_table(np.array([0.25, 0.5, 0.75]), points)


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


    @pytest.mark.parametrize(
        "constants, named",
        [
            ((math.nan, 0.0, 0.0), "c1"),
            ((0.0, math.nan, 0.0), "c2"),
            ((0.0, 0.0, math.nan), "c3"),
            ((math.inf, 0.0, 0.0), "c1"),
            ((0.0, -1.0, 0.0), "c2"),
        ],
    )
    def test_constants_must_be_finite_and_nonnegative(self, constants, named):
        with pytest.raises(ValueError, match=f"{named} must be finite and nonnegative"):
            MaxPrincipleConstants(*constants)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        field, diag = self._heat_run()
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            check_max_principle(field, diag, tol=tol)
        with pytest.raises(ValueError, match="max_principle_tol must be finite and positive"):
            SolverConfig(grid=field.grid, n_steps=10, max_principle_tol=tol)

    def test_rescaled_field_cannot_pass_through_nan(self):
        field, diag = self._heat_run()
        scaled = SolutionField(
            grid=field.grid,
            times=field.times,
            values=1e6 * field.values,
            gradients=1e6 * field.gradients,
            spec=field.spec,
            config=field.config,
        )
        assert not check_max_principle(scaled, diag).passed
        for constants in [(math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan)]:
            with pytest.raises(ValueError):
                check_max_principle(scaled, diag, MaxPrincipleConstants(*constants))
        with pytest.raises(ValueError):
            check_max_principle(scaled, diag, tol=math.nan)


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


def _random_field_2d(levels=7, horizon=0.75, seed=11):
    """2-D, two-component field with random node data and gradients."""
    grid = Grid((-1.0, 0.5), (2.0, 2.5), (7, 5))
    rng = np.random.default_rng(seed)
    spec = dataclasses.replace(_spec_2d(horizon=horizon), m=2, generator=_zeros(2))
    return SolutionField(
        grid=grid,
        times=np.linspace(0.0, horizon, levels),
        values=rng.standard_normal((levels, grid.n_nodes, 2)),
        gradients=rng.standard_normal((levels, grid.n_nodes, 2, 2)),
        spec=spec,
        config=SolverConfig(grid=grid, n_steps=levels - 1, cutoff_width=0.5),
    )


def _blend_then_interpolate(field, data, t, x):
    """Reference query: blend the whole level pair in time, then interpolate."""
    s = t / (field.times[1] - field.times[0])
    i = int(np.clip(np.floor(s), 0, field.times.shape[0] - 2))
    alpha = float(np.clip(s - i, 0.0, 1.0))
    blended = (1.0 - alpha) * data[i] + alpha * data[i + 1]
    return multilinear_interpolate(field.grid, blended, x)


FIELD_2D = _random_field_2d()
# level times, times off every level, and times before 0 and after T
QUERY_TIME = st.one_of(
    st.sampled_from(FIELD_2D.times.tolist()),
    st.floats(min_value=-0.5, max_value=1.25, allow_nan=False),
)
# points inside the box and beyond each face
QUERY_POINT = st.tuples(
    st.floats(min_value=-3.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
)


class TestPerRowTimes:
    @given(st.lists(st.tuples(QUERY_TIME, QUERY_POINT), min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_row_times_equal_scalar_queries_and_blended_levels(self, rows):
        field = FIELD_2D
        times = np.array([t for t, _ in rows], dtype=float)
        x = np.array([p for _, p in rows], dtype=float).reshape(len(rows), 2)
        for query, data in ((field.value, field.values), (field.gradient, field.gradients)):
            got = query(times, x)
            assert got.shape == (len(rows),) + data.shape[2:]
            for b, t in enumerate(times.tolist()):
                row = x[b : b + 1]
                assert np.array_equal(got[b : b + 1], query(t, row))
                assert np.array_equal(got[b : b + 1], _blend_then_interpolate(field, data, t, row))

    def test_time_bracket_keeps_the_shape_of_t(self):
        i, alpha = FIELD_2D.time_bracket(np.array([[-1.0, 0.3], [0.75, 9.0]]))
        assert i.tolist() == [[0, 2], [5, 5]]
        assert alpha.tolist() == [[0.0, 0.3 / 0.125 - 2], [1.0, 1.0]]
        assert FIELD_2D.time_bracket(0.25) == (2, 0.0)


class TestFieldOwnership:
    def test_fresh_arrays_are_taken_over_without_a_copy(self):
        import tracemalloc

        levels, grid = 21, Grid((0.0, 0.0), (1.0, 1.0), (41, 41))
        values = np.ones((levels, grid.n_nodes, 2))
        gradients = np.ones((levels, grid.n_nodes, 2, 2))
        times = np.linspace(0.0, 1.0, levels)
        spec = dataclasses.replace(_spec_2d(horizon=1.0), m=2, generator=_zeros(2))
        config = SolverConfig(grid=grid, n_steps=levels - 1, cutoff_width=0.25)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            field = SolutionField(
                grid=grid, times=times, values=values, gradients=gradients, spec=spec, config=config
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.01 * (values.nbytes + gradients.nbytes)
        assert field.values is values and field.gradients is gradients
        assert not values.flags.writeable and not gradients.flags.writeable

    def test_a_view_of_a_writeable_base_is_copied(self):
        field = _random_field_2d()
        base = np.array(field.values)
        view = base[:, :, :]
        owned = dataclasses.replace(field, values=view)
        assert view.flags.writeable
        base[...] = 0.0
        assert np.array_equal(owned.values, field.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_named(self, bad):
        field = _random_field_2d()
        gradients = np.array(field.gradients)
        gradients[3, 4, 1, 0] = bad
        with pytest.raises(ValueError, match="gradients must be finite"):
            dataclasses.replace(field, gradients=gradients)


class TestTwoDimensional:
    def test_2d_heat_oracle(self):
        horizon = 0.5
        spec = _spec_2d(horizon=horizon)
        grid = Grid((0.0, 0.0), (math.pi, math.pi), (41, 41))
        config = SolverConfig(
            grid=grid,
            n_steps=100,
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
        )
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0, 0, 0))
        pts = grid.nodes()
        err = max(
            float(np.abs(field.values[i] - _oracle_2d(float(t), pts, horizon)).max())
            for i, t in enumerate(field.times)
        )
        assert err <= 5e-3, f"error {err}"

    def test_2d_mixed_derivative_manufactured(self):
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
        assert errors[1] <= 5e-3, f"errors {errors}"


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
        assert check_max_principle(field, diag).passed


def _jump_field_2d(nodes):
    """A 2-D field on [-6, 6]^2 with ``nodes`` per axis and a nonzero jump shift."""
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (nodes, nodes))
    spec = dataclasses.replace(
        _spec_2d(horizon=1.0),
        jump_coeff=lambda t, x, u, y: np.broadcast_to([0.3, -0.2], (x.shape[0], 2)).copy(),
    )
    levels = 5
    pts = grid.nodes()
    values = np.stack([_oracle_2d(t, pts, 1.0) for t in np.linspace(0.0, 1.0, levels)])
    return SolutionField(
        grid=grid,
        times=np.linspace(0.0, 1.0, levels),
        values=values,
        gradients=np.stack([spatial_gradient(grid, v) for v in values]),
        spec=spec,
        config=SolverConfig(grid=grid, n_steps=levels - 1),
    )


class TestNanQueries:
    """A NaN time or coordinate fails with a ValueError naming its row, on any grid."""

    QUERIES = ("value", "gradient", "nonlocal_table")

    @pytest.mark.parametrize("nodes", [41, 40], ids=["odd-grid", "even-grid"])
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_nan_coordinate_names_the_first_nan_row(self, nodes, query, axis):
        field = _jump_field_2d(nodes)
        points = np.zeros((4, 2))
        points[2, axis] = points[3, 1 - axis] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"query point row 2 is NaN"):
                getattr(field, query)(0.5, points)
            with pytest.raises(ValueError, match=r"query point row 0 is NaN"):
                getattr(field, query)(0.5, points[2:])

    @pytest.mark.parametrize("nodes", [41, 40], ids=["odd-grid", "even-grid"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_nan_time_names_the_first_nan_row(self, nodes, query):
        field = _jump_field_2d(nodes)
        points = np.zeros((3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^query time is NaN$"):
                getattr(field, query)(np.nan, points)
            with pytest.raises(ValueError, match=r"^query time row 1 is NaN$"):
                getattr(field, query)(np.array([0.5, np.nan, np.nan]), points)

    def test_multilinear_interpolate_rejects_a_nan_point(self):
        grid = Grid((0.0,), (4.0,), (5,))
        with pytest.raises(ValueError, match=r"query point row 1 is NaN: \[nan\]"):
            multilinear_interpolate(grid, np.zeros(5), np.array([[1.0], [np.nan]]))

    @pytest.mark.parametrize("nodes", [41, 40], ids=["odd-grid", "even-grid"])
    def test_infinite_queries_clamp_without_warnings(self, nodes):
        field = _jump_field_2d(nodes)
        inf = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, points = np.array([inf, -inf]), np.array([[inf, -inf], [-inf, 2.0]])
            for query in (field.value, field.gradient):
                face = query(np.array([1.0, 0.0]), np.array([[6.0, -6.0], [-6.0, 2.0]]))
                assert np.array_equal(query(times, points), face)
            # shifted infinite points clamp to the face as well
            assert np.all(np.isfinite(field.nonlocal_table(times, points)))


def _heat_spec(n, m=1, sigma=None):
    """Heat-type problem in n dimensions; ``sigma`` is a constant (n, n) matrix."""
    mat = np.eye(n) if sigma is None else np.asarray(sigma, dtype=float)
    return ProblemSpec(
        n=n,
        m=m,
        l=1,
        horizon=0.5,
        drift=lambda t, x, u, p, w: 0.1 * np.repeat(u[:, :1], n, axis=1),
        generator=lambda t, x, u, p, w: -0.2 * u,
        diffusion=lambda t, x, u: np.broadcast_to(mat, (x.shape[0], n, n)).copy(),
        jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], n)),
        terminal=lambda x: np.repeat(np.sin(x).prod(axis=1, keepdims=True), m, axis=1),
        measure=DUMMY_MEASURE,
    )


def _march_case(name):
    """(spec, config) of a small march: 1-D, 2-D, 3-D, or 2-D with face data."""
    if name == "1d":
        grid = Grid((-3.0,), (3.0,), (41,))
        return _heat_spec(1, m=2), SolverConfig(grid=grid, n_steps=30, cutoff_width=1.0)
    if name == "2d":
        grid = Grid((-3.0, -2.0), (3.0, 2.0), (21, 17))
        spec = _heat_spec(2, sigma=[[1.0, 0.4], [-0.3, 0.8]])
        return spec, SolverConfig(grid=grid, n_steps=20, cutoff_width=0.5)
    if name == "3d":
        grid = Grid((0.0,) * 3, (3.0,) * 3, (9, 8, 7))
        spec = _heat_spec(3, sigma=[[1.0, 0.2, 0.0], [0.1, 0.9, 0.3], [0.0, -0.2, 1.1]])
        return spec, SolverConfig(grid=grid, n_steps=12, cutoff_width=0.5)
    grid = Grid((0.0, 0.0), (math.pi, math.pi), (17, 17))
    return _heat_spec(2), SolverConfig(
        grid=grid,
        n_steps=16,
        dirichlet_data=lambda t, x: (np.cos(t) * (x[:, :1] - x[:, 1:])),
    )


MARCH_CASES = ["1d", "2d", "3d", "dirichlet"]


class TestOneGradientPerLevel:
    """The march differentiates each level once and stores that gradient."""

    @pytest.mark.parametrize("name", MARCH_CASES)
    def test_stored_gradient_is_the_level_gradient(self, name):
        spec, config = _march_case(name)
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0.0, 1.0, 1.0))
        assert field.gradients.shape == field.values.shape + (config.grid.ndim,)
        for values, gradient in zip(field.values, field.gradients):
            # bytes: signs of zero included
            assert spatial_gradient(config.grid, values).tobytes() == gradient.tobytes()

    @pytest.mark.parametrize("name", MARCH_CASES)
    def test_given_gradient_equals_the_default(self, name):
        spec, config = _march_case(name)
        field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0.0, 1.0, 1.0))
        u = np.array(field.values[-3])
        default = step_imex(u, 0.1, spec, config)
        given_p = step_imex(u, 0.1, spec, config, spatial_gradient(config.grid, u))
        assert default[0].tobytes() == given_p[0].tobytes() and default[1] == given_p[1]

    @pytest.mark.parametrize(
        "grid, steps",
        [(Grid((0.0,) * 3, (math.pi,) * 3, (17,) * 3), 40), (Grid((-6.0,), (6.0,), (201,)), 400)],
        ids=["17^3x40", "201x400"],
    )
    def test_one_spatial_gradient_call_per_level(self, grid, steps):
        spec = _heat_spec(grid.ndim)
        config = SolverConfig(grid=grid, n_steps=steps, cutoff_width=0.5)
        with mock.patch.object(
            solver_module, "spatial_gradient", wraps=solver_module.spatial_gradient
        ) as spy:
            solve_final_value(spec, config, MaxPrincipleConstants(0.0, 1.0, 1.0))
        assert spy.call_count == steps + 1

    @pytest.mark.parametrize(
        "grid, steps",
        [
            (Grid((0.0,), (3.0,), (201,)), 200),
            (Grid((0.0,) * 2, (3.0,) * 2, (33, 33)), 200),
            (Grid((0.0,) * 3, (3.0,) * 3, (13,) * 3), 100),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_peak_is_the_field_plus_a_few_levels(self, grid, steps):
        spec = _heat_spec(grid.ndim)
        config = SolverConfig(grid=grid, n_steps=steps, cutoff_width=0.5)
        constants = MaxPrincipleConstants(0.0, 1.0, 1.0)
        solve_final_value(spec, config, constants)  # fills the per-grid caches
        tracemalloc.start()
        try:
            field, _ = solve_final_value(spec, config, constants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = field.values.nbytes + field.gradients.nbytes
        level = stored // len(field.times)  # one level of values and gradients
        # a list of levels stacked at the end would add every level's values again
        assert peak <= stored + 24 * level, (peak - stored) / level


class TestIntegerCounts:
    GRID = Grid((0.0,), (1.0,), (11,))

    @pytest.mark.parametrize("bad", [2.5, 4.0, np.nan, True, "4", None])
    def test_non_integer_step_count_rejected(self, bad):
        with pytest.raises(ValueError, match="n_steps"):
            SolverConfig(grid=self.GRID, n_steps=bad, cutoff_width=0.2)

    def test_numpy_integer_step_count_accepted(self):
        config = SolverConfig(grid=self.GRID, n_steps=np.int64(4), cutoff_width=0.2)
        field, _ = solve_final_value(
            diffusion_spec(), config, MaxPrincipleConstants(0.0, 0.0, 0.0)
        )
        assert len(field.times) == 5

    @pytest.mark.parametrize("bad", [3.7, 4.0, np.nan, True, "5"])
    def test_non_integer_node_count_rejected(self, bad):
        with pytest.raises(ValueError, match="shape"):
            Grid((0.0, 0.0), (1.0, 1.0), (5, bad))

    def test_numpy_integer_node_count_accepted(self):
        grid = Grid((0.0,), (1.0,), (np.int64(7),))
        assert grid.shape == (7,) and type(grid.shape[0]) is int


class TestScalarThomas:
    """One system with one column runs on Python floats, to the same bits."""

    @given(
        st.integers(min_value=2, max_value=40),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_a_batch_of_one(self, n, column, seed):
        lower, diag, upper, rhs = _dominant_systems(np.random.default_rng(seed), (), n, None)
        if column:
            rhs = rhs[:, None]
        got = solve_tridiagonal(lower, diag, upper, rhs)
        batch = solve_tridiagonal(lower[None], diag[None], upper[None], rhs[None])
        assert got.shape == rhs.shape and got.tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("row", [0, 2, 5])
    def test_zero_pivot_in_a_float_division_raises(self, row):
        lower, diag, upper, rhs = _dominant_systems(np.random.default_rng(7), (), 6, 1)
        diag[row], upper[row] = 0.0, 0.0
        if row > 0:
            lower[row] = 0.0  # the pivot of this row is then exactly 0
        with pytest.raises(LinearSolveError, match="pivot"):
            solve_tridiagonal(lower, diag, upper, rhs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pivot_raises(self, bad):
        lower, diag, upper, rhs = _dominant_systems(np.random.default_rng(8), (), 6, None)
        diag[3] = bad
        with pytest.raises(LinearSolveError, match="pivot"):
            solve_tridiagonal(lower, diag, upper, rhs)

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_line_first_loop_equals_solve_tridiagonal(self, k):
        # the implicit sweeps run the loop on contiguous line-first copies
        lower, diag, upper, rhs = _dominant_systems(np.random.default_rng(9), (4, 3), 8, k)
        last = solve_tridiagonal(lower, diag, upper, rhs)
        to_front = (2, 0, 1) + ((3,) if k is not None else ())
        first = _thomas(
            *(np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (lower, diag, upper)),
            np.ascontiguousarray(rhs.transpose(to_front)),
        )
        assert first.transpose(np.argsort(to_front)).tobytes() == last.tobytes()


class TestSharedLocation:
    """Value and gradient on the same rows locate the rows once, to the same bits."""

    @given(st.lists(st.tuples(QUERY_TIME, QUERY_POINT), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_with_value_equals_separate_queries(self, rows):
        field = FIELD_2D
        t = np.array([r[0] for r in rows])
        x = np.array([r[1] for r in rows])
        y, grad = field.gradient(t, x, with_value=True)
        assert y.tobytes() == field.value(t, x).tobytes()
        assert grad.tobytes() == field.gradient(t, x).tobytes()

    def test_euler_increment_locates_its_rows_once(self):
        from fbsde import paths

        field = _jump_field_2d(17)
        spec = dataclasses.replace(
            field.spec, jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2))
        )
        field = dataclasses.replace(field, spec=spec)
        x = np.random.default_rng(3).uniform(-5.0, 5.0, (30, 2))
        with mock.patch.object(
            solver_module, "cell_corners", wraps=solver_module.cell_corners
        ) as corners, mock.patch.object(
            SolutionField, "time_bracket", autospec=True, side_effect=SolutionField.time_bracket
        ) as bracket:
            paths.euler_increment(field, spec, 0.3, x, np.zeros((30, 2)), 0.01)
        # the nonlocal table of a vanishing shift makes no query
        assert corners.call_count == 1 and bracket.call_count == 1
