import dataclasses
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fbsde.catalog import build_problem
from fbsde.grid import grid_faces, multilinear_interpolate
from fbsde.pipeline import TestFunction
from fbsde.operators import assemble_coefficients, eval_nonlocal
from fbsde.solver import (
    _mixed_second_sum,
    _solve_axis_sweep,
    second_difference,
    solve_tridiagonal,
)


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
        assert diag.shape == (9, 4, 3)
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
        singular = (slice(None), -1) if batch else ()  # with a batch, only the last system
        for a in (lower, diag, upper):
            a[singular] = 0.0
        with pytest.raises(LinearSolveError, match="pivot"):
            solve_tridiagonal(lower, diag, upper, rhs)

    @given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_lapack_gtsv_to_rounding(self, n, seed):
        lapack = pytest.importorskip("scipy.linalg.lapack")
        lower, diag, upper, rhs = _dominant_systems(np.random.default_rng(seed), (), n, None)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        *_, want, info = lapack.dgtsv(lower[1:], diag, upper[:-1], rhs)
        assert info == 0
        # a compiled gtsv may fuse multiply-adds: equal to rounding, not to the bit
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize(
        "bands, rhs",
        [
            ([(3,), (3,), (3,)], (4,)),  # a longer rhs would leave its last rows unsolved
            ([(4,), (4,), (5,)], (4,)),
            ([(4, 2), (4, 2), (4, 2)], (4, 3)),
            ([(4, 2), (4, 2), (4, 2)], (2, 4)),  # the line axis last
            ([(4,), (4,), (4,)], (4, 2, 2)),
            ([(0,), (0,), (0,)], (0,)),
            ([(0, 3), (0, 3), (0, 3)], (0, 3, 1)),
        ],
    )
    def test_shapes_that_do_not_fit_are_named(self, bands, rhs):
        with pytest.raises(ValueError, match="solve_tridiagonal") as raised:
            solve_tridiagonal(*(np.ones(b) for b in bands), np.ones(rhs))
        assert str(bands[-1]) in str(raised.value) and str(rhs) in str(raised.value)


def _dominant_systems(rng, batch, n, k):
    """Random strictly diagonally dominant systems, line first: bands of shape
    (n,) + batch, and an rhs of that shape, with k columns after it if k is set."""
    lower = rng.normal(size=(n,) + batch)
    upper = rng.normal(size=(n,) + batch)
    diag = (np.abs(lower) + np.abs(upper) + 0.5 + rng.random((n,) + batch)) * rng.choice(
        [-1.0, 1.0], size=(n,) + batch
    )
    rhs = rng.normal(size=(n,) + batch + (() if k is None else (k,)))
    return lower, diag, upper, rhs


def _dense_solve(lower, diag, upper, rhs):
    """``np.linalg.solve`` of the line-first systems, in the layout of ``rhs``."""
    lower, diag, upper = (np.moveaxis(a, 0, -1) for a in (lower, diag, upper))
    n = diag.shape[-1]
    mat = np.zeros(diag.shape + (n,))
    idx = np.arange(n)
    mat[..., idx, idx] = diag
    mat[..., idx[1:], idx[:-1]] = lower[..., 1:]
    mat[..., idx[:-1], idx[1:]] = upper[..., :-1]
    if rhs.ndim == diag.ndim:
        return np.moveaxis(np.linalg.solve(mat, np.moveaxis(rhs, 0, -1)[..., None])[..., 0], -1, 0)
    return np.moveaxis(np.linalg.solve(mat, np.moveaxis(rhs, 0, -2)), -2, 0)


class TestAxisSweep:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_dense_operator(self, axis):
        # one sweep solves (I - dt a D2_axis) u = work with identity face rows,
        # which carry the face data the step wrote into work
        rng = np.random.default_rng(3 + axis)
        grid = Grid((0.0, -1.0, 0.5), (1.0, 2.0, 1.5), (5, 6, 7))
        m, dt = 2, 0.01
        coeff = 0.2 + rng.random(grid.n_nodes)
        work = rng.normal(size=(grid.n_nodes, m))
        pos = np.unravel_index(np.arange(grid.n_nodes), grid.shape)[axis]
        on_face = np.isin(pos, (0, grid.shape[axis] - 1))
        work[on_face] = rng.normal(size=(on_face.sum(), m))
        before = work.copy()
        got = _solve_axis_sweep(grid, work, axis, coeff, dt)
        assert np.array_equal(work, before)
        assert got[on_face].tobytes() == work[on_face].tobytes()

        r = dt / grid.spacings[axis] ** 2
        stride = grid.strides[axis]
        mat = np.eye(grid.n_nodes)
        rhs = work.copy()
        for node in range(grid.n_nodes):
            if on_face[node]:
                continue
            mat[node, node] += 2.0 * r * coeff[node]
            mat[node, node - stride] = -r * coeff[node]
            mat[node, node + stride] = -r * coeff[node]
        np.testing.assert_allclose(got, np.linalg.solve(mat, rhs), rtol=0, atol=1e-12)


def test_line_solvers_do_not_import_scipy(fresh_python):
    # 1-D and 2-D solves run the numpy axis loop; scipy is only a test
    # dependency (test_package.py checks that importing every layer skips it)
    done = fresh_python(
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
    assert done.stdout.strip() == "False", done.stdout + done.stderr


class TestSolverConfigModes:
    def test_sparse_rejected(self):
        grid = Grid((0.0,), (3.0,), (9,))
        with pytest.raises(ValueError, match="'sparse'"):
            SolverConfig(grid=grid, n_steps=4, cutoff_width=0.5, linear_solver="sparse")

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_cutoff_width_must_be_finite_and_positive(self, bad):
        grid = Grid((0.0,), (3.0,), (9,))
        message = f"cutoff width must be finite and positive, got {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverConfig(grid=grid, n_steps=4, cutoff_width=bad)


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
        out, _ = step_imex(u, 0.0, spec, config, spatial_gradient(config.grid, u))
        assert out[1, 0] == pytest.approx(1.0 / 1.1, abs=1e-14)
        assert out[0, 0] == 0.0 and out[2, 0] == 0.0

    def test_zero_fixed_point(self):
        grid = Grid((0.0,), (2.0,), (21,))
        spec = diffusion_spec()
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.4)
        u = np.zeros((21, 1))
        out, _ = step_imex(u, 0.0, spec, config, spatial_gradient(config.grid, u))
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
            out, _ = step_imex(u, step * 0.05, spec, config, spatial_gradient(config.grid, u))
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
        u = np.ones((11, 1))
        with pytest.raises(DegenerateDiffusionError, match="non-finite"):
            step_imex(u, 0.0, spec, config, spatial_gradient(config.grid, u))

    def test_returns_largest_transport_speed(self):
        # a zero shift leaves a1 = -f, so max |a1| is the drift's size
        grid = Grid((0.0,), (2.0,), (21,))
        spec = diffusion_spec(drift=lambda t, x, u, p, w: np.full((x.shape[0], 1), -1.75))
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.4)
        u = np.zeros((21, 1))
        _, speed = step_imex(u, 0.0, spec, config, spatial_gradient(config.grid, u))
        assert speed == 1.75

    def test_degenerate_diffusion_rejected(self):
        grid = Grid((0.0,), (1.0,), (11,))
        spec = diffusion_spec(sigma_val=0.0)
        config = SolverConfig(grid=grid, n_steps=10, cutoff_width=0.2)
        u = np.ones((11, 1))
        with pytest.raises(DegenerateDiffusionError):
            step_imex(u, 0.0, spec, config, spatial_gradient(config.grid, u))


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
        cases = [
            (lambda t, x: np.full((x.shape[0], 1), np.inf), 1.0),
            # finite at the terminal level: caught at the first level that is not
            (lambda t, x: np.full((x.shape[0], 1), np.nan if t < 0.5 else 0.0), 0.25),
        ]
        for data, first_bad in cases:
            grid = Grid((0.0,), (math.pi,), (21,))
            config = SolverConfig(grid=grid, n_steps=4, dirichlet_data=data)
            with pytest.raises(ValueError, match=rf"Dirichlet data .* t={first_bad}$"):
                solve_final_value(diffusion_spec(), config, MaxPrincipleConstants(0, 0, 0))

    def test_dirichlet_data_of_another_size_named(self):
        config = SolverConfig(
            grid=Grid((0.0,), (math.pi,), (21,)),
            n_steps=4,
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 2)),
        )
        expected = r"dirichlet_data returned shape \(2, 2\), expected \(2, 1\)"
        with pytest.raises(ValueError, match=expected):
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
    def _field(levels, horizon=1.0):
        grid = Grid((0.0,), (4.0,), (5,))
        config = SolverConfig(
            grid=grid,
            n_steps=max(levels - 1, 1),
            dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
        )
        return SolutionField(
            values=np.zeros((levels, grid.n_nodes, 1)),
            spec=diffusion_spec(horizon=horizon),
            config=config,
        )

    @pytest.mark.parametrize("levels, horizon", [(2, 1.0), (1001, 0.3), (4097, 7.1)])
    def test_linspace_accepted(self, levels, horizon):
        field = self._field(levels, horizon)
        assert field.times.tobytes() == np.linspace(0.0, horizon, levels).tobytes()
        assert not field.times.flags.writeable
        assert field.grid is field.config.grid
        assert field.time_bracket(horizon) == (levels - 2, 1.0)

    def test_must_have_two_levels(self):
        message = r"values must have shape \(2, 5, 1\), got \(1, 5, 1\)"
        with pytest.raises(ValueError, match=message):
            self._field(1)

    def test_inputs_are_values_spec_and_config(self):
        names = [f.name for f in dataclasses.fields(SolutionField) if f.init]
        assert names == ["values", "spec", "config"]


class TestNonlocalTable:
    def test_non_finite_shift_names_the_atom(self):
        grid = Grid((0.0,), (4.0,), (5,))
        spec = dataclasses.replace(
            diffusion_spec(), jump_coeff=lambda t, x, u, y: np.full((x.shape[0], 1), np.nan)
        )
        field = SolutionField(
            values=np.ones((3, grid.n_nodes, 1)),
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
            values=np.zeros_like(field.values), spec=field.spec, config=field.config
        )
        result = check_max_principle(zero, diag)
        assert result.passed and result.margin == pytest.approx(result.bound)

    def test_scaled_field_is_flagged(self):
        field, diag = self._heat_run()
        scaled = SolutionField(values=10.0 * field.values, spec=field.spec, config=field.config)
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

    def test_rescaled_field_cannot_pass_through_nan(self):
        field, diag = self._heat_run()
        scaled = SolutionField(values=1e6 * field.values, spec=field.spec, config=field.config)
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
    """2-D, two-component field with random node data."""
    grid = Grid((-1.0, 0.5), (2.0, 2.5), (7, 5))
    rng = np.random.default_rng(seed)
    spec = dataclasses.replace(_spec_2d(horizon=horizon), m=2, generator=_zeros(2))
    return SolutionField(
        values=rng.standard_normal((levels, grid.n_nodes, 2)),
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


def _random_field(lower, upper, shape, m, levels=6, horizon=0.75, seed=3):
    """A field of random node data, signed zeros among them, on any grid."""
    grid = Grid(lower, upper, shape)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((levels, grid.n_nodes, m))
    values[rng.random(values.shape) < 0.1] = -0.0
    n = grid.ndim
    spec = ProblemSpec(
        n=n,
        m=m,
        l=1,
        horizon=horizon,
        drift=_zeros(n),
        generator=_zeros(m),
        diffusion=lambda t, x, u: np.broadcast_to(np.eye(n), (x.shape[0], n, n)).copy(),
        jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], n)),
        terminal=lambda x: np.zeros((x.shape[0], m)),
        measure=DUMMY_MEASURE,
    )
    return SolutionField(
        values=values,
        spec=spec,
        config=SolverConfig(grid=grid, n_steps=levels - 1, cutoff_width=0.2),
    )


CORNER_FIELDS = {
    "1d": _random_field((-1.0,), (2.0,), (5,), 2),
    "2d": _random_field((-1.0, 0.5), (2.0, 2.5), (7, 4), 2),
    "3d": _random_field((0.0, -1.0, 0.5), (1.0, 1.0, 2.0), (3, 5, 4), 1),
}


@st.composite
def _corner_queries(draw):
    """A field, per-row or scalar times and points: nodes, faces, cells and beyond the box."""
    field = CORNER_FIELDS[draw(st.sampled_from(sorted(CORNER_FIELDS)))]
    grid, horizon = field.grid, field.spec.horizon
    time = st.one_of(
        st.sampled_from(field.times.tolist()),
        st.floats(min_value=-0.5 * horizon, max_value=1.5 * horizon, allow_nan=False),
    )
    coords = [
        st.one_of(
            st.sampled_from([lo, hi] + np.linspace(lo, hi, n).tolist()),
            st.floats(min_value=lo - 1.0, max_value=hi + 1.0, allow_nan=False),
        )
        for lo, hi, n in zip(grid.lower, grid.upper, grid.shape)
    ]
    n_rows = draw(st.integers(min_value=1, max_value=6))
    x = np.array([[draw(c) for c in coords] for _ in range(n_rows)])
    t = draw(time) if draw(st.booleans()) else np.array([draw(time) for _ in range(n_rows)])
    return field, t, x


class TestCornerGradients:
    """A gradient query forms its corner gradients from the values, to the
    bits of interpolating the per-level spatial_gradient."""

    @given(_corner_queries())
    @settings(max_examples=150, deadline=None)
    def test_equals_interpolating_the_level_gradients(self, query):
        field, t, x = query
        levels = np.stack([spatial_gradient(field.grid, v) for v in field.values])
        want = field.interpolate(t, x, levels)
        gradient = field.gradient(t, x)
        assert gradient.tobytes() == want.tobytes()
        assert gradient.shape == (x.shape[0], field.m, field.grid.ndim)
        # backward_rows' Y comes from the same gathered corners as its gradient
        assert field.backward_rows(t, x)[0].tobytes() == field.value(t, x).tobytes()


def old_field_test_function(field: SolutionField, component: int = 0) -> TestFunction:
    """Reference: ``field_test_function`` with its per-query Hessian tables and
    its scalar-time time derivative, kept verbatim."""
    grid = field.grid
    dt_field = float(field.times[1] - field.times[0])
    comp_vals = field.values[:, :, component]  # (L, n_nodes)

    def value(t, x):
        return field.value(t, x)[:, component]

    def grad(t, x):
        return field.gradient(t, x)[:, component, :]

    def level_hessians(lo, hi):
        nd = comp_vals[lo:hi].T.reshape(grid.shape + (hi - lo,))
        levels = np.empty((hi - lo, grid.n_nodes, grid.ndim, grid.ndim))
        for a in range(grid.ndim):
            for b in range(a, grid.ndim):
                d2 = second_difference(nd, grid, a, b).reshape(grid.n_nodes, hi - lo).T
                levels[:, :, a, b] = levels[:, :, b, a] = d2
        return levels

    def hess(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])
        i, _ = field.time_bracket(t)
        out = np.empty((x.shape[0], grid.ndim, grid.ndim))
        # rows grouped by bracket level: a group's table of level Hessians holds
        # two levels, or no more node rows than its query gathers (2^d corners
        # at two levels per row), however far apart the rows' times are
        span = max(1, (x.shape[0] << (grid.ndim + 1)) // grid.n_nodes - 1)
        group = i // span
        for g in np.unique(group).tolist():
            rows = group == g
            lo, hi = int(i[rows].min()), int(i[rows].max()) + 2  # the levels blended
            levels = level_hessians(lo, hi)
            # levels below lo are never read: unused zero rows put level i at row i
            unread = np.zeros((lo,) + levels.shape[1:])
            out[rows] = field.interpolate(t[rows], x[rows], np.concatenate((unread, levels)))
        return out

    def time_deriv(t, x):
        i, _ = field.time_bracket(t)
        return multilinear_interpolate(grid, (comp_vals[i + 1] - comp_vals[i]) / dt_field, x)

    return TestFunction(value=value, grad=grad, hess=hess, dt=time_deriv)


class TestCornerPassDerivatives:
    """One located stencil pass gives the old test function's gradient,
    Hessian and time difference, bit for bit."""

    @given(_corner_queries(), st.integers(min_value=0, max_value=1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_old_field_test_function(self, query, component):
        field, t, x = query
        component = min(component, field.m - 1)
        old = old_field_test_function(field, component)
        gradient, hessian, dudt = field.derivatives(t, x, component)
        assert gradient.tobytes() == old.grad(t, x).tobytes()
        # the layout the Ito check's einsums see: a strided gradient view, as
        # the old grad gave, and a contiguous Hessian
        assert gradient.strides == old.grad(t, x).strides
        assert hessian.flags.c_contiguous
        assert hessian.tobytes() == old.hess(t, x).tobytes()
        # the old time derivative takes one scalar time
        times = np.broadcast_to(t, x.shape[:1])
        want = [old.dt(float(tb), x[b : b + 1]) for b, tb in enumerate(times.tolist())]
        assert dudt.tobytes() == np.concatenate(want).tobytes()
        assert (gradient.shape, hessian.shape, dudt.shape) == (
            x.shape,
            x.shape + x.shape[1:],
            x.shape[:1],
        )

    @pytest.mark.parametrize("component", [2, -1, 1.0, True])
    def test_component_outside_the_field_named(self, component):
        field = CORNER_FIELDS["2d"]
        with pytest.raises(ValueError, match=r"component must be an integer in \[0, 2\)"):
            field.derivatives(0.5, np.zeros((1, 2)), component)


class TestFieldOwnership:
    def test_fresh_arrays_are_taken_over_without_a_copy(self):
        import tracemalloc

        levels, grid = 21, Grid((0.0, 0.0), (1.0, 1.0), (41, 41))
        values = np.ones((levels, grid.n_nodes, 2))
        spec = dataclasses.replace(_spec_2d(horizon=1.0), m=2, generator=_zeros(2))
        config = SolverConfig(grid=grid, n_steps=levels - 1, cutoff_width=0.25)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            field = SolutionField(values=values, spec=spec, config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.01 * values.nbytes
        assert field.values is values
        assert not values.flags.writeable

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
        values = np.array(field.values)
        values[3, 4, 1] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            dataclasses.replace(field, values=values)

    def test_overflowing_gradients_named(self):
        field = _random_field_2d()
        values = np.array(field.values)
        values[3, 4, 1] = 1e308  # a face node: its one-sided stencil's 3 u overflows
        huge = dataclasses.replace(field, values=values)
        with pytest.raises(ValueError, match="gradients must be finite"):
            huge.gradients
        node = huge.grid.nodes()[4:5]
        # the rows whose cell corners reach the node at level 3 or 4 raise, with no warning
        for t in (huge.times[3], 0.5 * (huge.times[2] + huge.times[3])):
            rows = (np.array([0.1, t]), np.vstack([[1.9, 0.6], node]))
            for query in (huge.gradient, huge.backward_rows):
                with pytest.raises(ValueError, match="gradients must be finite"):
                    query(*rows)
        # a query that does not reach it is finite
        assert np.isfinite(huge.gradient(huge.times[3], np.array([[1.9, 0.6]]))).all()

    @pytest.mark.parametrize(
        "shape", [(5, 12, 1), (6, 11, 1), (5, 11)], ids=["nodes", "levels", "no-component-axis"]
    )
    def test_values_of_another_shape_named(self, shape):
        built = build_problem("heat", {"nodes": 11, "steps": 4})
        with pytest.raises(ValueError, match=r"values must have shape \(5, 11, 1\), got "):
            SolutionField(values=np.zeros(shape), spec=built.spec, config=built.solver_config)

    def test_gradients_are_derived_on_each_access(self):
        field = _random_field_2d()
        gradients = field.gradients
        assert "gradients" not in vars(field)
        again = field.gradients
        assert again is not gradients and again.tobytes() == gradients.tobytes()
        for values, gradient in zip(field.values, gradients):
            assert gradient.tobytes() == spatial_gradient(field.grid, values).tobytes()


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
        values=values,
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
    """The march differentiates each level once; the field derives the same gradients."""

    @pytest.mark.parametrize("name", MARCH_CASES)
    def test_stored_gradient_is_the_level_gradient(self, name):
        spec, config = _march_case(name)
        field, diag = solve_final_value(spec, config, MaxPrincipleConstants(0.0, 1.0, 1.0))
        assert field.gradients.shape == field.values.shape + (config.grid.ndim,)
        for values, gradient in zip(field.values, field.gradients):
            # bytes: signs of zero included
            assert spatial_gradient(config.grid, values).tobytes() == gradient.tobytes()
        # the march's per-level sups are those of the derived gradients
        sups = [np.sqrt(np.sum(g**2, axis=(-1, -2))).max() for g in field.gradients]
        assert diag.sup_gradient.tobytes() == np.array(sups).tobytes()

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
            # long marches: temporaries over every level's faces would pass 24 levels
            (Grid((0.0,) * 3, (3.0,) * 3, (13,) * 3), 400),
            (Grid((0.0,) * 2, (3.0,) * 2, (33, 33)), 800),
        ],
        ids=["1d", "2d", "3d", "3d-long", "2d-long"],
    )
    def test_peak_is_the_field_plus_a_few_levels(self, grid, steps):
        spec = _heat_spec(grid.ndim)
        config = SolverConfig(grid=grid, n_steps=steps, cutoff_width=0.5)
        constants = MaxPrincipleConstants(0.0, 1.0, 1.0)
        solve_final_value(spec, config, constants)  # fills the per-grid caches
        # neither the march nor the check derives the field's gradients
        unread = mock.PropertyMock(side_effect=AssertionError("gradients derived"))
        tracemalloc.start()
        try:
            with mock.patch.object(SolutionField, "gradients", unread):
                field, diag = solve_final_value(spec, config, constants)
                check_max_principle(field, diag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = field.values.nbytes
        # one level of values and of the gradient the march takes from it
        level = stored // len(field.times) * (1 + grid.ndim)
        # stored gradients, or levels stacked at the end, would add every level again
        assert peak <= stored + 24 * level, (peak - stored) / level

    @pytest.mark.parametrize(
        "grid, steps",
        [
            (Grid((0.0,) * 3, (3.0,) * 3, (13,) * 3), 100),
            (Grid((0.0,) * 3, (3.0,) * 3, (17,) * 3), 40),
        ],
        ids=["13^3x100", "17^3x40"],
    )
    def test_3d_step_holds_at_most_30_value_levels(self, grid, steps, traced_peak):
        # sigma is a fresh (B, 3, 3) array per step, nine value-levels: alive
        # next to a2, p * sigma, the drift and the nu-integral, it puts the
        # step near 40
        spec = _heat_spec(3)
        config = SolverConfig(grid=grid, n_steps=steps, cutoff_width=0.5)
        constants = MaxPrincipleConstants(0.0, 1.0, 1.0)
        solve_final_value(spec, config, constants)  # fills the per-grid caches
        (field, _), peak = traced_peak(solve_final_value, spec, config, constants)
        stored = field.values.nbytes
        value_level = stored // len(field.times)
        assert peak <= stored + 30 * value_level, (peak - stored) / value_level


def _full_grid_face_step(u_now, t, spec, config, p):
    """Reference ``step_imex`` with the face handling of a full-grid face array:
    each sweep copies the rows of its own axis's faces out of that array, and a
    masked copy restores every face after the last sweep.  The other arithmetic
    is the step's."""
    grid = config.grid
    dt = spec.horizon / config.n_steps
    w = eval_nonlocal(grid, u_now, spec, t)
    a2, a1, a0 = assemble_coefficients(spec, t, grid.nodes(), u_now, p, w)
    u_next = -np.einsum("bi,bmi->bm", a1, p)
    u_next -= a0
    if grid.ndim > 1:
        u_next += _mixed_second_sum(u_now, a2, grid)
    u_next *= dt
    u_next += u_now
    mask, pts = grid_faces(grid)
    bfull = np.zeros(u_now.shape)
    if config.dirichlet_data is not None:
        bfull[mask] = config.dirichlet_data(spec.horizon - (t + dt), pts)
    for ax in range(grid.ndim):
        r = dt / grid.spacings[ax] ** 2
        cf = np.ascontiguousarray(a2[:, ax, ax].reshape(grid.shape).swapaxes(0, ax))
        off, diag = -r * cf, 1.0 + 2.0 * r * cf
        rhs = u_next.reshape(*grid.shape, -1).swapaxes(0, ax).copy()
        faces = bfull.reshape(*grid.shape, -1).swapaxes(0, ax)
        for face in (0, -1):
            off[face], diag[face], rhs[face] = 0.0, 1.0, faces[face]
        u_next = solve_tridiagonal(off, diag, off, rhs).swapaxes(0, ax).reshape(u_now.shape)
    np.copyto(u_next, bfull, where=mask[:, None])
    return u_next, float(max(a1.max(), -a1.min()))


def _face_case(n, nodes, m, faces):
    """A march with a u-dependent sigma that has an off-diagonal entry, under the
    cutoff or under time-dependent face data."""
    shear = np.eye(n)
    shear[0, 1] = 0.3

    def sigma(t, x, u):
        return shear * (1.0 + 0.2 * np.tanh(u[:, :1]))[:, :, None]

    spec = dataclasses.replace(_heat_spec(n, m), diffusion=sigma)
    data = None
    if faces == "dirichlet":

        def data(t, x):
            return np.repeat(np.cos(t) * (x[:, :1] - x[:, 1:2]), m, axis=1) + 0.1 * t

    grid = Grid((0.0,) * n, (3.0,) * n, (nodes,) * n)
    return spec, SolverConfig(grid=grid, n_steps=15, cutoff_width=0.5, dirichlet_data=data)


class TestFaceRows:
    """The face rows are written into the step's own array, around one
    ``solve_tridiagonal`` call per axis and step."""

    @pytest.mark.parametrize("name", MARCH_CASES)
    def test_one_solve_tridiagonal_call_per_axis_and_step(self, name):
        spec, config = _march_case(name)
        with mock.patch.object(
            solver_module, "solve_tridiagonal", wraps=solver_module.solve_tridiagonal
        ) as spy:
            solve_final_value(spec, config, MaxPrincipleConstants(0.0, 1.0, 1.0))
        assert spy.call_count == config.grid.ndim * config.n_steps

    @pytest.mark.parametrize("faces", ["cutoff", "dirichlet"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n, nodes", [(2, 9), (2, 11), (3, 7), (3, 9)])
    def test_field_bytes_equal_a_full_grid_face_array(self, n, nodes, m, faces):
        # a line in another axis's face plane holds face nodes only, so what the
        # sweeps find there never reaches an interior row
        spec, config = _face_case(n, nodes, m, faces)
        constants = MaxPrincipleConstants(0.0, 1.0, 1.0)
        field, diag = solve_final_value(spec, config, constants)
        with mock.patch.object(solver_module, "step_imex", _full_grid_face_step):
            want, want_diag = solve_final_value(spec, config, constants)
        assert field.values.tobytes() == want.values.tobytes()
        assert diag.sup_gradient.tobytes() == want_diag.sup_gradient.tobytes()


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
        batch = solve_tridiagonal(*(a[:, None] for a in (lower, diag, upper, rhs)))
        assert got.shape == rhs.shape and got.tobytes() == batch[:, 0].tobytes()

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


class TestSharedLocation:
    """Value and gradient on the same rows locate the rows once, to the same bits."""

    @given(st.lists(st.tuples(QUERY_TIME, QUERY_POINT), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_with_value_equals_separate_queries(self, rows):
        field = FIELD_2D
        t = np.array([r[0] for r in rows])
        x = np.array([r[1] for r in rows])
        y = field.backward_rows(t, x)[0]
        assert y.tobytes() == field.value(t, x).tobytes()
        levels = np.stack([spatial_gradient(field.grid, v) for v in field.values])
        assert field.gradient(t, x).tobytes() == field.interpolate(t, x, levels).tobytes()

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
            backward = field.backward_rows(0.3, x)
            paths.euler_increment(backward, spec, 0.3, x, np.zeros((30, 2)), 0.01)
        # the nonlocal table of a vanishing shift makes no query; the Euler
        # update makes none of its own
        assert corners.call_count == 1 and bracket.call_count == 1

    def test_backward_rows_locates_twice_for_two_moving_atoms(self):
        field = _jump_field_2d(17)
        measure = LevyMeasure(marks=[[0.3, 0.0], [0.0, -0.3]], weights=[0.7, 0.7])
        spec = dataclasses.replace(
            field.spec,
            l=2,
            measure=measure,
            jump_coeff=lambda t, x, u, y: np.broadcast_to(y, (x.shape[0], 2)).copy(),
        )
        field = dataclasses.replace(field, spec=spec)
        x = np.random.default_rng(3).uniform(-5.0, 5.0, (30, 2))
        t = np.linspace(0.0, 1.0, 30)
        with mock.patch.object(
            solver_module, "cell_corners", wraps=solver_module.cell_corners
        ) as corners, mock.patch.object(
            SolutionField, "time_bracket", autospec=True, side_effect=SolutionField.time_bracket
        ) as bracket:
            y, _, ztilde, _ = field.backward_rows(t, x)
        # one location for (Y, Z), one for the shifted points of both atoms,
        # and one time bracket for all of them
        assert corners.call_count == 2 and bracket.call_count == 1
        for k, mark in enumerate(measure.marks):
            moved = field.value(t, x + mark) - y
            assert ztilde[:, k].tobytes() == moved.tobytes()


class TestBackwardRows:
    """(Y, Z, Ztilde, sigma) in one call, to the bits of separate queries."""

    def test_equals_separate_queries(self):
        field = _jump_field_2d(17)
        mat = np.array([[1.0, 0.4], [-0.3, 0.8]])

        def sigma(t, x, u):
            return np.broadcast_to(mat, (x.shape[0], 2, 2)) * (1.0 + u[:, :, None] ** 2)

        field = dataclasses.replace(field, spec=dataclasses.replace(field.spec, diffusion=sigma))
        rng = np.random.default_rng(5)
        x = rng.uniform(-6.0, 6.0, (25, 2))
        for t in (0.3, rng.uniform(0.0, 1.0, 25)):
            y, z, ztilde, sig = field.backward_rows(t, x)
            sig_ref = np.asarray(sigma(t, x, field.value(t, x)), dtype=float)
            z_ref = np.einsum("bmi,bij->bmj", field.gradient(t, x), sig_ref)
            assert y.tobytes() == field.value(t, x).tobytes()
            assert sig.tobytes() == sig_ref.tobytes()
            assert z.tobytes() == z_ref.tobytes()
            assert ztilde.tobytes() == field.nonlocal_table(t, x).tobytes()
            assert np.any(ztilde != 0.0)


class TestDirichletFaceData:
    @pytest.mark.parametrize("name", ["heat", "manufactured-nonlocal"])
    def test_one_call_per_level_and_the_same_face_sup(self, name):
        built = build_problem(name, {"nodes": 41, "steps": 40})
        config = built.solver_config
        faces_fn = mock.Mock(wraps=config.dirichlet_data)
        counted = dataclasses.replace(config, dirichlet_data=faces_fn)
        _, diag = solve_final_value(built.spec, counted, built.constants)
        assert faces_fn.call_count == config.n_steps + 1
        # the sup over levels of the face data, one call per level at T - k dt
        horizon = built.spec.horizon
        dt = horizon / config.n_steps
        _, face_nodes = grid_faces(config.grid)
        level_sups = [
            np.sqrt(np.sum(config.dirichlet_data(horizon - k * dt, face_nodes) ** 2, axis=-1))
            for k in range(config.n_steps + 1)
        ]
        assert diag.boundary_data_sup == max(float(v.max()) for v in level_sups)
        assert (diag.boundary_data_sup > 0.0) == (name == "manufactured-nonlocal")


class TestOverflowIsBlowUp:
    def test_overflowing_march_raises_blow_up_without_a_warning(self):
        built = build_problem("pure-jump", {"nodes": 21, "steps": 8, "rate": 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as info:
                solve_final_value(built.spec, built.solver_config, built.constants)
        assert info.value.level == 2


class TestHugeHorizon:
    """A sup bound whose exponential overflows is infinite, not an error."""

    def test_overflowing_bound_is_infinite(self):
        built = build_problem("heat", {"horizon": 1e300, "nodes": 11, "steps": 2})
        field, diag = solve_final_value(built.spec, built.solver_config, built.constants)
        result = check_max_principle(field, diag)
        assert result.bound == math.inf and result.margin == math.inf
        assert result.passed and result.first_violation_level is None

    def test_zero_data_keeps_a_zero_bound(self):
        built = build_problem("heat", {"horizon": 1e300, "nodes": 11, "steps": 2})
        spec = dataclasses.replace(built.spec, terminal=lambda x: np.zeros((x.shape[0], 1)))
        field, diag = solve_final_value(spec, built.solver_config, built.constants)
        result = check_max_principle(field, diag)
        assert result.bound == 0.0 and result.passed


def clip_time_bracket(field, t):
    """Reference: ``SolutionField.time_bracket`` as it was, clamping with ``np.clip``."""
    s = np.asarray(t, dtype=float) / (field.times[1] - field.times[0])
    i = np.clip(np.floor(s), 0, field.times.shape[0] - 2).astype(np.int64)
    return i, np.clip(s - i, 0.0, 1.0)


def _signed_zero_field_3d():
    """Random values with many signed zeros on the box [0, pi]^3."""
    grid = Grid((0.0,) * 3, (math.pi,) * 3, (5, 6, 4))
    rng = np.random.default_rng(17)
    values = rng.standard_normal((4, grid.n_nodes, 1))
    values[rng.random(values.shape) < 0.3] = -0.0
    values[rng.random(values.shape) < 0.1] = 0.0
    return SolutionField(
        values=values,
        spec=_heat_spec(3),
        config=SolverConfig(grid=grid, n_steps=3, cutoff_width=0.4),
    )


def _heat_field():
    built = build_problem("heat", {"nodes": 21, "steps": 10})
    return solve_final_value(built.spec, built.solver_config, built.constants)[0]


class TestClampingKeepsTheBits:
    """``time_bracket`` clamps with np.minimum and np.maximum instead of
    np.clip: a time of -0.0 gets alpha +0.0 instead of -0.0, and no query
    result changes a bit.  (``cell_corners`` keeps np.clip: its weights
    keep their signed zeros, see ``TestCellCorners``.)"""

    @pytest.mark.parametrize(
        "make_field", [_heat_field, _signed_zero_field_3d], ids=["heat", "box-3d"]
    )
    def test_queries_equal_the_clip_reference(self, make_field):
        field = make_field()
        grid, horizon = field.grid, field.spec.horizon
        rng = np.random.default_rng(4)
        special = np.array(
            [-0.0, 0.0, 5e-324, -5e-324, -1.0, math.pi, 4.0, np.inf, -np.inf, 1e-17]
        )
        coords = np.where(
            rng.random((400, grid.ndim)) < 0.6,
            rng.choice(special, (400, grid.ndim)),
            rng.uniform(0.0, math.pi, (400, grid.ndim)),
        )
        times = rng.choice(
            np.array([-0.0, 0.0, 5e-324, horizon, 2.0 * horizon, np.inf, -np.inf, 0.3 * horizon]),
            400,
        )
        queries = {
            "value": lambda: field.value(times, coords),
            "value-at-0": lambda: field.value(-0.0, coords),
            "gradient": lambda: field.gradient(times, coords),
            "table": lambda: field.nonlocal_table(times, coords),
            "rows": lambda: field.backward_rows(times, coords),
        }
        got = {name: query() for name, query in queries.items()}
        with mock.patch.object(SolutionField, "time_bracket", clip_time_bracket):
            want = {name: query() for name, query in queries.items()}
        for name in queries:
            # backward_rows gives (Y, Z, Ztilde, sigma)
            pairs = zip(got[name], want[name]) if name == "rows" else [(got[name], want[name])]
            for a, b in pairs:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        # the inputs reach the zeros whose sign differs
        alpha = field.time_bracket(times)[1]
        assert alpha.tobytes() != clip_time_bracket(field, times)[1].tobytes()
