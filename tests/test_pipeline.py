import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde import (
    Ensemble,
    Grid,
    LevyMeasure,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    TestFunction,
    bsde_residual,
    estimate_class_s_norm,
    field_test_function,
    ito_residuals,
    link_ensemble,
    simulate_ensemble,
)


def _zeros(m):
    def fn(t, x, u, p, w):
        return np.zeros((x.shape[0], m))

    return fn


TINY_MEASURE = LevyMeasure(marks=[[1.0]], weights=[1e-12])


def make_spec(drift=None, generator=None, sigma_val=1.0, jump=None, measure=None, terminal=None):
    return ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=1.0,
        drift=drift or _zeros(1),
        generator=generator or _zeros(1),
        diffusion=lambda t, x, u: np.full((x.shape[0], 1, 1), sigma_val),
        jump_coeff=jump or (lambda t, x, u, y: np.zeros((x.shape[0], 1))),
        terminal=terminal or (lambda x: np.asarray(x, dtype=float).copy()),
        measure=measure or TINY_MEASURE,
    )


def make_field(spec, values_fn, gradients_fn, lo=-12.0, hi=12.0, nodes=97, levels=9):
    grid = Grid((lo,), (hi,), (nodes,))
    config = SolverConfig(
        grid=grid,
        n_steps=levels - 1,
        dirichlet_data=lambda t, x: values_fn(t, x),
    )
    times = np.linspace(0.0, spec.horizon, levels)
    pts = grid.nodes()
    values = np.stack([values_fn(float(t), pts) for t in times])
    grads = np.stack([gradients_fn(float(t), pts) for t in times])
    return SolutionField(
        grid=grid, times=times, values=values, gradients=grads, spec=spec, config=config
    )


def zero_field(spec, **kw):
    return make_field(
        spec,
        lambda t, x: np.zeros((x.shape[0], 1)),
        lambda t, x: np.zeros((x.shape[0], 1, 1)),
        **kw,
    )


def linear_field(spec, **kw):
    return make_field(
        spec,
        lambda t, x: np.asarray(x, dtype=float).copy(),
        lambda t, x: np.ones((x.shape[0], 1, 1)),
        **kw,
    )


def stream_path(field, spec, x0, dt, seed, stream_id):
    """Ensemble of the one path driven by ``RngStream(seed, stream_id)``."""
    ens = simulate_ensemble(field, spec, x0, dt, stream_id + 1, base_seed=seed)
    return ens.take([stream_id])


class TestLinkProcesses:
    def test_zero_field_links_to_zero(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        spec = make_spec(
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]), measure=measure
        )
        field = zero_field(spec)
        ens = stream_path(field, spec, np.array([0.0]), 0.05, 3, 1)
        linked = link_ensemble(ens, field, spec)
        assert np.all(linked.jump_values == 0.0)
        assert np.all(linked.y == 0.0)
        assert np.all(linked.z == 0.0)
        assert np.all(linked.ztilde == 0.0)

    def test_identity_field_unit_diffusion(self):
        spec = make_spec(sigma_val=1.0)
        field = linear_field(spec)
        ens = stream_path(field, spec, np.array([0.0]), 0.05, 4, 2)
        linked = link_ensemble(ens, field, spec)
        assert np.allclose(linked.y[0, :, 0], ens.states[0, :, 0], atol=1e-13)
        assert np.allclose(linked.z[0, :, 0, 0], 1.0, atol=1e-13)

    def test_identity_field_jump_table_is_the_mark(self):
        measure = LevyMeasure(marks=[[1.0], [-0.5]], weights=[1.0, 0.5])
        spec = make_spec(
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]), measure=measure
        )
        field = linear_field(spec)
        ens = stream_path(field, spec, np.array([0.0]), 0.05, 5, 0)
        linked = link_ensemble(ens, field, spec)
        for k, mark in enumerate(measure.marks[:, 0]):
            assert np.allclose(linked.ztilde[0, :, k, 0], mark, atol=1e-12)
        # each logged jump links to its own atom's mark
        assert len(ens.events) > 0
        marks = measure.marks[ens.events.atom, 0]
        assert np.allclose(linked.jump_values[:, 0], marks, atol=1e-12)

    def test_link_values_bit_reproducible(self):
        spec = make_spec(sigma_val=0.7)
        field = linear_field(spec)
        ens = stream_path(field, spec, np.array([0.2]), 0.1, 6, 6)
        linked = link_ensemble(ens, field, spec)
        for j, t in enumerate(ens.times):
            expect = field.value(float(t), ens.states[0, j][None, :])[0]
            assert np.array_equal(linked.y[0, j], expect)

    def test_ensemble_matches_single(self):
        spec = make_spec(sigma_val=0.5)
        field = linear_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.1, 4, base_seed=10)
        both = link_ensemble(ens, field, spec)
        single = link_ensemble(ens.take([2]), field, spec)
        assert np.array_equal(both.y[2], single.y[0])
        assert np.array_equal(both.z[2], single.z[0])

    def test_spec_mismatch_rejected(self):
        spec = make_spec()
        other = make_spec()
        field = linear_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.25, 1, base_seed=0)
        with pytest.raises(ValueError, match="same ProblemSpec"):
            link_ensemble(ens, field, other)


class TestBsdeResidual:
    def test_all_zero_case_is_exactly_zero(self):
        spec = make_spec(terminal=lambda x: np.zeros((x.shape[0], 1)))
        field = zero_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 16, base_seed=1)
        rep = bsde_residual(link_ensemble(ens, field, spec), spec)
        assert np.all(rep.residuals == 0.0)
        assert rep.rms == 0.0

    def test_compensation_unbiased_for_exact_zero_field(self):
        # g = 0, h = 0 with the exact (zero) field: the mean residual obeys
        # the 4-stderr band at dt = T/1000 over 10^4 paths (here exactly 0)
        spec = make_spec(terminal=lambda x: np.zeros((x.shape[0], 1)))
        field = zero_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1e-3, 10_000, base_seed=6)
        rep = bsde_residual(link_ensemble(ens, field, spec), spec)
        assert np.all(np.abs(rep.mean) <= 4.0 * rep.stderr)
        assert np.all(rep.residuals == 0.0)

    def test_pure_brownian_linear_telescoping(self):
        # hand-checked: R = Y_0 - X_T + sum dB = 0 up to accumulation roundoff
        spec = make_spec(sigma_val=1.0)
        field = linear_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1e-3, 64, base_seed=2)
        rep = bsde_residual(link_ensemble(ens, field, spec), spec)
        assert np.abs(rep.residuals).max() <= 1e-12
        assert rep.excluded_paths == 0

    def test_rms_is_root_mean_square(self):
        spec = make_spec(sigma_val=1.0, terminal=lambda x: np.sin(x))
        field = make_field(
            spec,
            lambda t, x: np.sin(x) * math.exp(-t),
            lambda t, x: (np.cos(x) * math.exp(-t))[:, :, None],
        )
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 40, base_seed=3)
        rep = bsde_residual(link_ensemble(ens, field, spec), spec)
        expect = math.sqrt(math.fsum((rep.residuals**2).sum(axis=-1).tolist()) / len(rep.residuals))
        assert rep.rms == expect

    def test_exited_paths_are_excluded(self):
        spec = make_spec(drift=lambda t, x, u, p, w: np.full((x.shape[0], 1), 40.0), sigma_val=0.1)
        field = linear_field(spec, lo=-2.0, hi=2.0, nodes=17)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 5, base_seed=4)
        rep = bsde_residual(link_ensemble(ens, field, spec), spec)
        assert rep.excluded_paths == 5
        assert rep.total_paths == 5


class TestClassSNorm:
    def test_zero_processes(self):
        spec = make_spec(sigma_val=0.0, terminal=lambda x: np.zeros((x.shape[0], 1)))
        field = zero_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.25, 4, base_seed=0)
        # X stays at 0, Y = Z = table = 0
        assert estimate_class_s_norm(link_ensemble(ens, field, spec)) == 0.0

    def test_deterministic_drift_sup(self):
        spec = make_spec(drift=lambda t, x, u, p, w: np.ones((x.shape[0], 1)), sigma_val=0.0)
        field = zero_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1.0 / 128.0, 3, base_seed=0)
        norm = estimate_class_s_norm(link_ensemble(ens, field, spec))
        assert norm == pytest.approx(1.0, abs=1e-12)  # sup of |X_t|^2 = T^2 at t = T

    def test_brownian_second_moment(self):
        spec = make_spec(sigma_val=1.0)
        field = zero_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1.0 / 64.0, 4000, base_seed=8)
        norm = estimate_class_s_norm(link_ensemble(ens, field, spec))
        x_T = ens.states[:, -1, 0]
        stderr = np.std(x_T**2, ddof=1) / math.sqrt(len(x_T))
        assert abs(norm - 1.0) <= 3.0 * stderr

    def test_invariant_under_reordering_and_splitting(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        spec = make_spec(
            sigma_val=0.5,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        field = linear_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 30, base_seed=12)
        linked = link_ensemble(ens, field, spec)
        base = estimate_class_s_norm(linked)
        order = list(range(30))
        random.Random(4).shuffle(order)
        assert estimate_class_s_norm(linked.take(order)) == base
        # splitting across two separately simulated ensembles changes nothing
        front = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 15, base_seed=12)
        joined = Ensemble.concat([front, ens.take(range(15, 30))])
        assert estimate_class_s_norm(link_ensemble(joined, field, spec)) == base


def order_setup():
    """A jumpy sine-field ensemble on a box tight enough that some paths exit."""
    measure = LevyMeasure(marks=[[1.0], [-0.5]], weights=[1.0, 0.5])
    spec = make_spec(
        sigma_val=0.5,
        jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
        measure=measure,
        terminal=lambda x: np.sin(x),
    )
    field = make_field(
        spec,
        lambda t, x: np.sin(x) * math.exp(-t),
        lambda t, x: (np.cos(x) * math.exp(-t))[:, :, None],
        lo=-1.5,
        hi=1.5,
        nodes=49,
    )
    ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 12, base_seed=21)
    return link_ensemble(ens, field, spec)


ORDER_LINKED = order_setup()


class TestPathOrder:
    def test_setup_has_jumps_and_exits(self):
        exited = ORDER_LINKED.ensemble.exited
        assert 0 < exited.sum() < len(exited)
        assert len(ORDER_LINKED.ensemble.events) > len(exited)

    @given(st.permutations(range(12)))
    @settings(max_examples=25, deadline=None)
    def test_reductions_do_not_depend_on_path_order(self, order):
        shuffled = ORDER_LINKED.take(order)
        base = bsde_residual(ORDER_LINKED)
        rep = bsde_residual(shuffled)
        assert rep.rms == base.rms
        assert rep.class_s_norm == base.class_s_norm
        assert np.array_equal(rep.mean, base.mean)
        assert np.array_equal(rep.stderr, base.stderr)
        assert rep.excluded_paths == base.excluded_paths
        # the included paths' residuals are the same rows, permuted
        kept = np.flatnonzero(~ORDER_LINKED.ensemble.exited)
        rows = {p: r for p, r in zip(kept.tolist(), base.residuals.tolist())}
        expect = [rows[p] for p in order if p in rows]
        assert rep.residuals.tolist() == expect
        assert estimate_class_s_norm(shuffled) == estimate_class_s_norm(ORDER_LINKED)


LINEAR_FN = TestFunction(
    value=lambda t, x: x[:, 0],
    grad=lambda t, x: np.ones_like(x),
    hess=lambda t, x: np.zeros((x.shape[0], 1, 1)),
    dt=lambda t, x: np.zeros(x.shape[0]),
)


class TestItoResidual:
    def test_linear_no_jumps_brownian(self):
        spec = make_spec(sigma_val=1.0)
        field = linear_field(spec)
        ens = stream_path(field, spec, np.array([0.0]), 1e-2, 13, 0)
        res = ito_residuals(link_ensemble(ens, field, spec), test_fn=LINEAR_FN)
        assert res.shape == (1,)
        assert abs(res[0]) <= 1e-12

    def test_linear_with_jumps_pure_jump(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[2.0])
        spec = make_spec(
            sigma_val=0.0,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        field = linear_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1e-2, 50, base_seed=14)
        res = ito_residuals(link_ensemble(ens, field, spec), test_fn=LINEAR_FN)
        assert np.abs(res).max() <= 1e-12

    def test_quadratic_matches_quadratic_variation_noise(self):
        spec = make_spec(sigma_val=1.0)
        field = zero_field(spec)
        quad = TestFunction(
            value=lambda t, x: x[:, 0] ** 2,
            grad=lambda t, x: 2.0 * x,
            hess=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
            dt=lambda t, x: np.zeros(x.shape[0]),
        )
        dt = 1e-3
        ens = simulate_ensemble(field, spec, np.array([0.0]), dt, 2000, base_seed=15)
        res = ito_residuals(link_ensemble(ens, field, spec), test_fn=quad)
        stderr = res.std(ddof=1) / math.sqrt(len(res))
        assert abs(res.mean()) <= 4.0 * stderr
        # dispersion oracle: sum of (dB^2 - dt) has std sqrt(2 dt T)
        assert res.std(ddof=1) == pytest.approx(math.sqrt(2.0 * dt), rel=0.2)

    def test_field_test_function_smoke(self):
        # field-derived test function on the decaying sine field
        spec = make_spec(sigma_val=1.0, terminal=lambda x: np.sin(x))
        field = make_field(
            spec,
            lambda t, x: np.sin(x) * math.exp(-(1.0 - t) / 2.0),
            lambda t, x: (np.cos(x) * math.exp(-(1.0 - t) / 2.0))[:, :, None],
            levels=41,
            nodes=201,
            lo=-6.0,
            hi=6.0,
        )
        tf = field_test_function(field, component=0)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1e-2, 100, base_seed=16)
        res = ito_residuals(link_ensemble(ens, field, spec), test_fn=tf)
        # the field solves the reversed diffusion equation, so residuals are
        # discretization-sized, not O(1)
        assert np.abs(res).mean() <= 0.05

    def test_field_test_function_hessian_exact_on_quadratic(self):
        # u = x^T Q x / 2 + b.x on a 3-D grid: every second-difference stencil,
        # diagonal and cross, is exact, so hess returns Q at interior nodes
        q = np.array([[2.0, 0.5, -0.3], [0.5, -1.0, 0.7], [-0.3, 0.7, 0.4]])
        b = np.array([0.2, -0.1, 0.3])
        spec = ProblemSpec(
            n=3,
            m=1,
            l=1,
            horizon=1.0,
            drift=_zeros(3),
            generator=_zeros(1),
            diffusion=lambda t, x, u: np.broadcast_to(np.eye(3), (x.shape[0], 3, 3)).copy(),
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 3)),
            terminal=lambda x: np.zeros((x.shape[0], 1)),
            measure=TINY_MEASURE,
        )
        grid = Grid((-1.0, 0.0, 0.5), (1.0, 2.0, 1.5), (5, 6, 7))
        pts = grid.nodes()
        quad = 0.5 * np.einsum("bi,ij,bj->b", pts, q, pts) + pts @ b
        field = SolutionField(
            grid=grid,
            times=np.linspace(0.0, 1.0, 3),
            values=np.broadcast_to(quad[None, :, None], (3, grid.n_nodes, 1)),
            gradients=np.zeros((3, grid.n_nodes, 1, 3)),
            spec=spec,
            config=SolverConfig(grid=grid, n_steps=2, cutoff_width=0.4),
        )
        pos = np.stack(np.unravel_index(np.arange(grid.n_nodes), grid.shape), axis=1)
        interior = np.all((pos > 0) & (pos < np.array(grid.shape) - 1), axis=1)
        hess = field_test_function(field).hess(0.3, pts[interior])
        np.testing.assert_allclose(hess, np.broadcast_to(q, hess.shape), rtol=0, atol=1e-9)


class TestVectorBackwardComponent:
    def test_two_component_linear_field_telescopes_exactly(self):
        # h(x) = (x, 2x) with unit diffusion: the exact field is affine in x
        # for both components, so the terminal residual cancels per component
        measure = LevyMeasure(marks=[[1.0]], weights=[1e-12])
        spec = ProblemSpec(
            n=1,
            m=2,
            l=1,
            horizon=1.0,
            drift=_zeros(1),
            generator=_zeros(2),
            diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 1)),
            terminal=lambda x: np.concatenate([x, 2.0 * x], axis=1),
            measure=measure,
        )
        grid = Grid((-8.0,), (8.0,), (65,))
        config = SolverConfig(
            grid=grid,
            n_steps=8,
            dirichlet_data=lambda t, x: np.concatenate([x, 2.0 * x], axis=1),
        )
        times = np.linspace(0.0, 1.0, 9)
        pts = grid.nodes()
        values = np.broadcast_to(
            np.concatenate([pts, 2.0 * pts], axis=1)[None], (9, grid.n_nodes, 2)
        ).copy()
        gradients = np.broadcast_to(
            np.array([[1.0], [2.0]])[None, None], (9, grid.n_nodes, 2, 1)
        ).copy()
        field = SolutionField(
            grid=grid, times=times, values=values, gradients=gradients, spec=spec, config=config
        )
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1e-3, 100, base_seed=33)
        linked = link_ensemble(ens, field, spec)
        assert linked.z.shape == (100, 1001, 2, 1)
        rep = bsde_residual(linked, spec)
        assert rep.residuals.shape[1] == 2
        assert float(np.abs(rep.residuals).max()) <= 1e-12
