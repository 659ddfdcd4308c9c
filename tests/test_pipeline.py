import dataclasses
import functools
import math
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbsde import (
    Ensemble,
    Grid,
    LevyMeasure,
    MaxPrincipleConstants,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    TestFunction,
    bsde_residual,
    build_problem,
    catalog_names,
    estimate_class_s_norm,
    field_test_function,
    ito_residuals,
    link_ensemble,
    multilinear_interpolate,
    simulate_ensemble,
    solve_final_value,
)
from fbsde import paths, pipeline, solver
from fbsde.solver import second_difference
from test_paths import DT, SETUPS, exiting_setup, take


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


def make_field(spec, values_fn, lo=-12.0, hi=12.0, nodes=97, levels=9):
    grid = Grid((lo,), (hi,), (nodes,))
    config = SolverConfig(
        grid=grid,
        n_steps=levels - 1,
        dirichlet_data=lambda t, x: values_fn(t, x),
    )
    times = np.linspace(0.0, spec.horizon, levels)
    pts = grid.nodes()
    values = np.stack([values_fn(float(t), pts) for t in times])
    return SolutionField(grid=grid, times=times, values=values, spec=spec, config=config)


def zero_field(spec, **kw):
    return make_field(spec, lambda t, x: np.zeros((x.shape[0], 1)), **kw)


def linear_field(spec, **kw):
    return make_field(spec, lambda t, x: np.asarray(x, dtype=float).copy(), **kw)


def stream_path(field, spec, x0, dt, seed, stream_id):
    """Ensemble of the one path driven by ``RngStream(seed, stream_id)``."""
    ens = simulate_ensemble(field, spec, x0, dt, stream_id + 1, base_seed=seed)
    return take(ens, [stream_id])


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
        single = link_ensemble(take(ens, [2]), field, spec)
        assert np.array_equal(both.y[2], single.y[0])
        assert np.array_equal(both.z[2], single.z[0])

    def test_spec_mismatch_rejected(self):
        spec = make_spec()
        other = make_spec()
        field = linear_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.25, 1, base_seed=0)
        with pytest.raises(ValueError, match="same ProblemSpec"):
            link_ensemble(ens, field, other)

    def test_simulate_and_residual_reject_another_spec(self):
        spec = make_spec()
        other = make_spec()
        field = linear_field(spec)
        with pytest.raises(ValueError, match="same ProblemSpec"):
            simulate_ensemble(field, other, np.array([0.0]), 0.25, 1, base_seed=0)
        linked = simulate_ensemble(field, spec, np.array([0.0]), 0.25, 2, base_seed=0)
        # linking checks that the field is the one simulated with
        with pytest.raises(ValueError, match="another field"):
            link_ensemble(linked, linear_field(spec), spec)
        assert link_ensemble(linked, field, spec) is linked
        with pytest.raises(ValueError, match="same ProblemSpec"):
            bsde_residual(linked, other)
        # the field's own spec, given or left out, is the same residual
        assert bsde_residual(linked, spec).rms == bsde_residual(linked).rms


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
        assert estimate_class_s_norm(take(linked, order)) == base
        # splitting across separately simulated chunks changes nothing
        with mock.patch.object(paths, "_CHUNK_PATHS", 15):
            joined = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 30, base_seed=12)
        assert estimate_class_s_norm(joined) == base


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
        lo=-1.5,
        hi=1.5,
        nodes=49,
    )
    ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 12, base_seed=21)
    return link_ensemble(ens, field, spec)


ORDER_LINKED = order_setup()


class TestPathOrder:
    def test_setup_has_jumps_and_exits(self):
        exited = ORDER_LINKED.exited
        assert 0 < exited.sum() < len(exited)
        assert len(ORDER_LINKED.events) > len(exited)

    @given(st.permutations(range(12)))
    @settings(max_examples=25, deadline=None)
    def test_reductions_do_not_depend_on_path_order(self, order):
        shuffled = take(ORDER_LINKED, order)
        base = bsde_residual(ORDER_LINKED)
        rep = bsde_residual(shuffled)
        assert rep.rms == base.rms
        assert rep.class_s_norm == base.class_s_norm
        assert np.array_equal(rep.mean, base.mean)
        assert np.array_equal(rep.stderr, base.stderr)
        assert rep.excluded_paths == base.excluded_paths
        # the included paths' residuals are the same rows, permuted
        kept = np.flatnonzero(~ORDER_LINKED.exited)
        rows = {p: r for p, r in zip(kept.tolist(), base.residuals.tolist())}
        expect = [rows[p] for p in order if p in rows]
        assert rep.residuals.tolist() == expect
        assert estimate_class_s_norm(shuffled) == estimate_class_s_norm(ORDER_LINKED)


def one_kept_linked():
    """The exiting setup with one path kept among the exited ones."""
    spec, field = exiting_setup()
    ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 60, 3)
    kept, exited = np.flatnonzero(~ens.exited), np.flatnonzero(ens.exited)
    return take(ens, np.sort(np.concatenate([kept[:1], exited])))


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

    @pytest.mark.parametrize("component", [1, -1])
    def test_field_test_function_component_outside_range_named(self, component):
        field = ORDER_LINKED.field
        assert field.m == 1
        message = rf"component must be an integer in \[0, 1\), got {component}"
        with pytest.raises(ValueError, match=message):
            field_test_function(field, component)

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
        field = SolutionField(grid=grid, times=times, values=values, spec=spec, config=config)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1e-3, 100, base_seed=33)
        linked = link_ensemble(ens, field, spec)
        assert linked.z.shape == (100, 1001, 2, 1)
        rep = bsde_residual(linked, spec)
        assert rep.residuals.shape[1] == 2
        assert float(np.abs(rep.residuals).max()) <= 1e-12


def per_event_jump_values(linked):
    """Reference: the old per-event loop, one nonlocal table per event."""
    events = linked.events
    out = np.empty((len(events), linked.field.m))
    for e, (t, k, xb) in enumerate(
        zip(events.time.tolist(), events.atom.tolist(), events.x_before)
    ):
        out[e] = linked.field.nonlocal_table(t, xb[None, :])[0, k]
    return out


def per_event_ito_residuals(linked, tf):
    """Reference: ``ito_residuals`` with its old loop of two scalar-time
    test-function calls per event."""
    field = linked.field
    spec = field.spec
    meas = spec.measure
    times, states = linked.times, linked.states
    n_paths = len(linked)
    dts = np.diff(times)
    y, z, ztab = linked.y, linked.z, linked.ztilde
    db = linked.brownian_increments
    terms = np.zeros((6, n_paths))  # time, drift, brownian, hessian, comp, integrand
    for j in range(times.shape[0] - 1):
        t, h_step, xb = float(times[j]), float(dts[j]), states[:, j]
        gx = np.asarray(tf.grad(t, xb), dtype=float).reshape(n_paths, spec.n)
        terms[0] += np.asarray(tf.dt(t, xb), dtype=float).reshape(n_paths) * h_step
        f_raw = np.asarray(
            spec.drift(t, xb, y[:, j], z[:, j], ztab[:, j]), dtype=float
        ).reshape(n_paths, spec.n)
        terms[1] += np.einsum("bi,bi->b", gx, f_raw) * h_step
        sig = np.asarray(spec.diffusion(t, xb, y[:, j]), dtype=float).reshape(
            n_paths, spec.n, spec.n
        )
        terms[2] += np.einsum("bi,bij,bj->b", gx, sig, db[:, j])
        hx = np.asarray(tf.hess(t, xb), dtype=float).reshape(n_paths, spec.n, spec.n)
        gram = np.einsum("bik,bjk->bij", sig, sig)
        terms[3] += 0.5 * np.einsum("bij,bij->b", hx, gram) * h_step
        base = np.asarray(tf.value(t, xb), dtype=float).reshape(n_paths)
        for k in range(len(meas)):
            shift = np.asarray(
                spec.jump_coeff(t, xb, y[:, j], meas.marks[k]), dtype=float
            ).reshape(n_paths, spec.n)
            dphi = np.asarray(tf.value(t, xb + shift), dtype=float).reshape(n_paths) - base
            pairing = np.einsum("bi,bi->b", gx, shift)
            terms[4] += meas.weights[k] * dphi * h_step
            terms[5] += meas.weights[k] * (dphi - pairing) * h_step
    events = linked.events
    jump_sum = np.zeros(n_paths)
    for p, t, x_before, x_after in zip(
        events.path.tolist(), events.time.tolist(), events.x_before, events.x_after
    ):
        before = float(tf.value(t, x_before[None, :])[0])
        after = float(tf.value(t, x_after[None, :])[0])
        jump_sum[p] += after - before
    lhs = np.asarray(tf.value(float(times[-1]), states[:, -1]), dtype=float).reshape(
        n_paths
    ) - np.asarray(tf.value(float(times[0]), states[:, 0]), dtype=float).reshape(n_paths)
    return lhs - (
        terms[0] + terms[1] + terms[2] + terms[3] + (jump_sum - terms[4]) + terms[5]
    )


def catalog_linked(name):
    built = build_problem(name, {"nodes": 41, "steps": 40})
    field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
    ens = simulate_ensemble(field, built.spec, built.x0, built.spec.horizon / 50, 30, 3)
    return link_ensemble(ens, field, built.spec)


def u_dependent_shift_linked():
    # phi grows with u, so a jump's size depends on the field at the pre-jump state
    measure = LevyMeasure(marks=[[0.4], [-0.7]], weights=[1.5, 1.0])
    spec = make_spec(
        sigma_val=0.5,
        jump=lambda t, x, u, y: y[0] * (1.0 + 0.8 * u),
        measure=measure,
        terminal=lambda x: np.sin(x),
    )
    field = make_field(
        spec,
        lambda t, x: np.sin(x) * math.exp(-t),
        lo=-4.0,
        hi=4.0,
        nodes=81,
    )
    ens = simulate_ensemble(field, spec, np.array([0.3]), 0.05, 20, base_seed=8)
    return link_ensemble(ens, field, spec)


def no_event_linked():
    spec = make_spec(terminal=lambda x: np.sin(x))
    field = make_field(
        spec,
        lambda t, x: np.sin(x) * math.exp(-t),
    )
    ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 6, base_seed=2)
    return link_ensemble(ens, field, spec)


class TestEventRows:
    """The batched event rows equal the per-event loops they replace, bit for bit."""

    @pytest.mark.parametrize(
        "make_linked",
        [functools.partial(catalog_linked, name) for name in catalog_names()]
        + [u_dependent_shift_linked, no_event_linked, lambda: ORDER_LINKED],
        ids=catalog_names() + ["u-dependent-shift", "no-events", "exiting-paths"],
    )
    def test_jump_values_and_ito_residuals_equal_per_event_loops(self, make_linked):
        linked = make_linked()
        events = linked.events
        assert linked.jump_values.shape == (len(events), linked.field.m)
        assert np.array_equal(linked.jump_values, per_event_jump_values(linked))
        for tf in (field_test_function(linked.field), LINEAR_FN):
            assert np.array_equal(ito_residuals(linked, tf), per_event_ito_residuals(linked, tf))

    def test_setups_cover_jumps_no_jumps_and_exits(self):
        shifted = u_dependent_shift_linked()
        assert len(shifted.events) > len(shifted)
        assert np.any(shifted.jump_values != 0.0)
        assert len(no_event_linked().events) == 0
        assert ORDER_LINKED.exited.any() and len(ORDER_LINKED.events)
        for name in catalog_names():
            assert len(catalog_linked(name).events) > 0, name


def all_levels_test_function(field, component=0):
    """Reference: ``field_test_function`` as it was, with every level's
    Hessian and time derivative built up front."""
    grid = field.grid
    ndim = grid.ndim
    n_levels = field.times.shape[0]
    dt_field = float(field.times[1] - field.times[0])
    comp_vals = field.values[:, :, component]
    dt_snaps = (comp_vals[1:] - comp_vals[:-1]) / dt_field
    hess_snaps = np.zeros((n_levels, grid.n_nodes, ndim, ndim))
    for lev in range(n_levels):
        nd = comp_vals[lev].reshape(grid.shape)
        for i in range(ndim):
            for j in range(i, ndim):
                d2 = second_difference(nd, grid, i, j).ravel()
                hess_snaps[lev, :, i, j] = d2
                hess_snaps[lev, :, j, i] = d2

    def time_deriv(t, x):
        i, _ = field.time_bracket(t)
        return multilinear_interpolate(grid, dt_snaps[i], x)

    return TestFunction(
        value=lambda t, x: field.value(t, x)[:, component],
        grad=lambda t, x: field.gradient(t, x)[:, component, :],
        hess=lambda t, x: field.interpolate(t, x, hess_snaps),
        dt=time_deriv,
    )


def coupled_2d_linked():
    """A solved 2-D field with a mixed diffusion and two jump atoms, linked."""
    measure = LevyMeasure(marks=[[0.3, 0.0], [0.0, -0.3]], weights=[0.7, 0.7])
    sigma = np.array([[1.0, 0.5], [0.0, 1.0]])

    def f(t, x, u, p, w):
        return 0.25 * u + 0.15 * p[:, 0, :] + 0.1 * w[:, :, 0].sum(axis=1, keepdims=True)

    spec = ProblemSpec(
        n=2,
        m=1,
        l=2,
        horizon=1.0,
        drift=f,
        generator=lambda t, x, u, p, w: -0.5 * u + 0.2 * p[:, :, 0],
        diffusion=lambda t, x, u: np.broadcast_to(sigma, (x.shape[0], 2, 2)).copy(),
        jump_coeff=lambda t, x, u, y: np.broadcast_to(y, (x.shape[0], 2)).copy(),
        terminal=lambda x: (np.sin(x[:, 0]) * np.cos(x[:, 1]))[:, None],
        measure=measure,
    )
    config = SolverConfig(grid=Grid((-6.0, -6.0), (6.0, 6.0), (17, 17)), n_steps=40)
    field, _ = solve_final_value(spec, config, MaxPrincipleConstants(0.0, 1.0, 1.0))
    ens = simulate_ensemble(field, spec, np.zeros(2), 0.025, 40, base_seed=5)
    return link_ensemble(ens, field, spec)


class TestFieldTestFunctionOnDemand:
    @pytest.mark.parametrize(
        "make_linked",
        [functools.partial(catalog_linked, name) for name in catalog_names()]
        + [coupled_2d_linked],
        ids=catalog_names() + ["coupled-2d"],
    )
    def test_ito_residuals_equal_all_levels_reference(self, make_linked):
        linked = make_linked()
        field = linked.field
        reference = all_levels_test_function(field)
        assert np.array_equal(
            ito_residuals(linked), ito_residuals(linked, reference)
        )
        # per-row times reach levels that are not neighbours
        tf = field_test_function(field)
        states = linked.states[:, 7]
        t = np.linspace(0.0, field.spec.horizon, len(states))
        assert np.array_equal(tf.hess(t, states), reference.hess(t, states))

    def test_holds_no_level_table(self, traced_peak):
        field = coupled_2d_linked().field
        points = np.random.default_rng(1).uniform(-5.0, 5.0, (50, 2))
        _, peak = traced_peak(lambda: field_test_function(field).hess(0.37, points))
        assert peak < field.values.nbytes


def per_level_link(ensemble, field, spec):
    """Reference: ``link_ensemble``'s old loop, one field query per level on
    the P rows of that level.  Returns (y, z, ztilde)."""
    times, states = ensemble.times, ensemble.states
    n_paths, n_levels = states.shape[:2]
    y = np.empty((n_paths, n_levels, spec.m))
    z = np.empty((n_paths, n_levels, spec.m, spec.n))
    ztab = np.empty((n_paths, n_levels, len(spec.measure), spec.m))
    for j in range(n_levels):
        t = float(times[j])
        xb = states[:, j]
        yb = field.value(t, xb)
        sig = np.asarray(spec.diffusion(t, xb, yb), dtype=float).reshape(
            n_paths, spec.n, spec.n
        )
        grad = field.gradient(t, xb)
        y[:, j] = yb
        z[:, j] = np.einsum("bmi,bij->bmj", grad, sig)
        ztab[:, j] = field.nonlocal_table(t, xb, u_here=yb)
    return y, z, ztab


def two_query_jump_values(ens):
    """Reference: the jump values as ``link_ensemble`` computed them, two
    batched value queries over the whole event table."""
    ev, field = ens.events, ens.field
    return field.value(ev.time, ev.x_after) - field.value(ev.time, ev.x_before)


def assert_rows_equal_per_level_link(ens):
    """The simulated (Y, Z, Ztilde) and jump values have the bytes of
    ``per_level_link`` and of ``two_query_jump_values``."""
    field = ens.field
    for got, want in zip(
        (ens.y, ens.z, ens.ztilde, ens.jump_values),
        per_level_link(ens, field, field.spec) + (two_query_jump_values(ens),),
    ):
        assert same_bits(got, want)


def assert_blocks_equal_per_level_loops(linked, reference_ito):
    """The ensemble's rows and its Ito check equal the per-level loops:
    ``per_level_link``, and ``reference_ito`` from the per-level loop of
    ``per_event_ito_residuals``."""
    assert_rows_equal_per_level_link(linked)
    assert np.array_equal(ito_residuals(linked), reference_ito)


def empty_linked():
    return take(ORDER_LINKED, [])


def block_rows_cases(n_paths, n_levels):
    """``_BLOCK_ROWS`` values: 1, one that leaves a ragged last block, one above P * L."""
    rows = n_paths * n_levels
    ragged = next((b for b in range(2 * n_paths + 1, rows) if rows % b), 5)
    return [1, ragged, rows + 1]


BLOCK_SETUPS = (
    [functools.partial(catalog_linked, name) for name in catalog_names()]
    + [coupled_2d_linked, lambda: ORDER_LINKED, no_event_linked, empty_linked]
)
BLOCK_IDS = catalog_names() + ["coupled-2d", "exiting-paths", "no-events", "no-paths"]


class TestLevelBlocks:
    """Level blocks give the per-level loops' results bit for bit, at any block size."""

    @pytest.mark.parametrize("make_linked", BLOCK_SETUPS, ids=BLOCK_IDS)
    def test_link_and_ito_equal_per_level_loops(self, make_linked):
        linked = make_linked()
        tf = field_test_function(linked.field)
        reference_ito = per_event_ito_residuals(linked, tf) if len(linked) else np.zeros(0)
        n_paths, n_levels = linked.states.shape[:2]
        cases = block_rows_cases(n_paths, n_levels)
        assert n_paths == 0 or (n_paths * n_levels) % cases[1]
        assert_blocks_equal_per_level_loops(linked, reference_ito)
        for block_rows in cases:
            with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
                assert_blocks_equal_per_level_loops(linked, reference_ito)

    @pytest.mark.parametrize("n_paths, n_levels", [(12, 21), (400, 101), (1, 7), (0, 5)])
    def test_blocks_are_runs_of_whole_levels(self, n_paths, n_levels):
        for block_rows in block_rows_cases(n_paths, n_levels) + [1 << 11]:
            with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
                blocks = list(pipeline._level_blocks(n_paths, n_levels))
            levels = [j for b in blocks for j in range(b.start, b.stop)]
            assert levels == list(range(n_levels)) and all(b.stop > b.start for b in blocks)
            # at most _BLOCK_ROWS rows, unless one level alone holds more
            assert all((b.stop - b.start) * n_paths <= max(block_rows, n_paths) for b in blocks)

    # from one row to beyond the 20 paths x 21 levels of the ensemble
    @given(st.integers(min_value=1, max_value=20 * 21 + 3))
    @settings(max_examples=20, deadline=None)
    def test_results_do_not_depend_on_block_size(self, block_rows):
        linked = BLOCK_PROPERTY_LINKED
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            ito = ito_residuals(linked)
            norm = estimate_class_s_norm(linked)
        assert np.array_equal(ito, BLOCK_PROPERTY_ITO)
        assert norm == BLOCK_PROPERTY_NORM

    def test_one_located_pass_per_block(self):
        # the own test function's check locates each level block's rows once
        # and reads every value off the ensemble: no value or gradient query
        ens = coupled_2d_linked()
        n_paths, n_levels = ens.states.shape[:2]
        assert (n_paths, n_levels) == (40, 41)
        for block_rows, n_blocks in ((1 << 11, 1), (3 * n_paths, 14), (1, n_levels - 1)):
            with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows), mock.patch.object(
                solver, "cell_corners", wraps=solver.cell_corners
            ) as corners, mock.patch.object(
                SolutionField, "value", side_effect=AssertionError("value query")
            ), mock.patch.object(
                SolutionField, "gradient", side_effect=AssertionError("gradient query")
            ):
                ito_residuals(ens)
            assert corners.call_count == n_blocks


BLOCK_PROPERTY_LINKED = u_dependent_shift_linked()
BLOCK_PROPERTY_ITO = ito_residuals(BLOCK_PROPERTY_LINKED)
BLOCK_PROPERTY_NORM = estimate_class_s_norm(BLOCK_PROPERTY_LINKED)


def mc_2d_problem(steps=100):
    """The benchmark's ``mc-2d`` problem: a 2-D analogue of ``coupled-linear``
    solved on 41^2 nodes x ``steps`` steps.  Returns (field, spec)."""
    measure = LevyMeasure(marks=[[0.3, 0.0], [0.0, -0.3]], weights=[0.7, 0.7])
    sigma = np.array([[1.0, 0.5], [0.0, 1.0]])

    def nu_w(w):
        return np.einsum("k,bk->b", measure.weights, w[:, :, 0])

    def f(t, x, u, p, w):
        wi = nu_w(w)
        return np.stack(
            [
                0.25 * u[:, 0] + 0.15 * p[:, 0, 0] + 0.1 * wi,
                -0.2 * u[:, 0] + 0.1 * p[:, 0, 1] - 0.1 * wi,
            ],
            axis=1,
        )

    def g(t, x, u, p, w):
        return (-0.5 * u[:, 0] + 0.2 * p[:, 0, 0] - 0.1 * p[:, 0, 1] + 0.1 * nu_w(w))[
            :, None
        ]

    spec = ProblemSpec(
        n=2,
        m=1,
        l=2,
        horizon=1.0,
        drift=f,
        generator=g,
        diffusion=lambda t, x, u: np.broadcast_to(sigma, (x.shape[0], 2, 2)).copy(),
        jump_coeff=lambda t, x, u, y: np.broadcast_to(y, (x.shape[0], 2)).copy(),
        terminal=lambda x: (np.sin(x[:, 0]) * np.cos(x[:, 1]))[:, None],
        measure=measure,
    )
    config = SolverConfig(grid=Grid((-6.0, -6.0), (6.0, 6.0), (41, 41)), n_steps=steps)
    constants = MaxPrincipleConstants(0.0, 0.05 + 0.5 * measure.total_mass, 0.55)
    field, _ = solve_final_value(spec, config, constants)
    return field, spec


class TestLevelBlockMemory:
    def test_block_temporaries_do_not_grow_with_the_level_count(self, traced_peak):
        field, spec = mc_2d_problem()
        ito_peak = []
        for path_steps in (100, 400):
            ens = simulate_ensemble(field, spec, np.zeros(2), 1.0 / path_steps, 400, 7)
            ito_peak.append(traced_peak(ito_residuals, ens)[1])
        # holding every level's block temporaries at once would grow them 4x
        small, large = ito_peak
        assert abs(large - small) <= 0.15 * small, ito_peak
        # a block of few paths spans many levels; its Hessian tables must not
        # follow (one table for every level of the mc-2d field peaks at 10.9 MB)
        for n_paths in (1, 4):
            ens = simulate_ensemble(field, spec, np.zeros(2), 1.0 / 400, n_paths, 7)
            assert traced_peak(ito_residuals, ens)[1] <= ito_peak[1], n_paths

    def test_no_gradient_table_follows_the_field_levels(self, traced_peak):
        peaks = {}
        for steps in (50, 400):
            field, spec = mc_2d_problem(steps)

            def pipeline_stages():
                ens = simulate_ensemble(field, spec, np.zeros(2), 1.0 / 50, 100, 7)
                bsde_residual(ens, spec)
                ito_residuals(ens)
                return ens

            ens, peak = traced_peak(pipeline_stages)
            held = sum(a.nbytes for a in (ens.states, ens.brownian_increments, ens.y, ens.z))
            peaks[len(field.times)] = peak - held
        grid = field.grid
        # a gradient table, (L, n_nodes, m, n), would add 350 levels of it: 9.4 MB
        table_growth = (401 - 51) * grid.n_nodes * spec.m * grid.ndim * 8
        assert peaks[401] - peaks[51] < 0.05 * table_growth, peaks

    def test_ito_check_peak_is_one_level_block(self, traced_peak):
        # one 400-path level is one block of the corner pass, with no Hessian
        # table; 2000-row blocks with per-query tables peaked at 3.0 MB
        field, spec = mc_2d_problem()
        peaks = []
        for path_steps in (100, 400):
            ens = simulate_ensemble(field, spec, np.zeros(2), 1.0 / path_steps, 400, 7)
            peaks.append(traced_peak(ito_residuals, ens)[1])
        assert max(peaks) < 1_000_000, peaks
        assert peaks[1] - peaks[0] < 0.1 * peaks[0], peaks

    def test_excluded_paths_are_not_copied(self, traced_peak):
        # 4000 paths x 100 levels, 1177 of them exited: a copy of the kept
        # paths' arrays took 11.4 MB of a 14.4 MB peak
        spec, field = exiting_setup()
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.01, 4000, 3)
        assert int(ens.exited.sum()) == 1177
        report, peak = traced_peak(bsde_residual, ens)
        assert peak <= 3.5e6, peak
        assert_report_equals_kept_paths(report, ens)

    def test_residual_temporaries_do_not_grow_with_the_level_count(self, traced_peak):
        # the residual's sums go level by level and its class-S norm level
        # block by level block, so its peak above the held ensemble is one
        # level's rows; the generator values over all levels, (P, L - 1, m),
        # grew it 3.1x from 100 to 400 levels
        field, spec = mc_2d_problem()
        peaks = []
        for path_steps in (100, 400):
            ens = simulate_ensemble(field, spec, np.zeros(2), 1.0 / path_steps, 400, 7)
            peaks.append(traced_peak(bsde_residual, ens)[1])
        assert peaks[1] - peaks[0] < 0.1 * peaks[0], peaks


def fsum_column(values):
    """The exact sum over paths as it was before the vectorized passes."""
    return math.fsum(values.tolist())


def whole_array_class_s_norm(linked):
    """Reference: ``estimate_class_s_norm`` as it was before it went level
    block by level block, squaring whole (P, L) arrays and summing each
    column with ``math.fsum``; kept verbatim."""
    if not len(linked):
        raise ValueError("ensemble must be non-empty")
    times = linked.times
    n_paths = len(linked)
    weights = linked.field.spec.measure.weights

    x_sq = np.sum(linked.states**2, axis=-1)  # (P, L)
    y_sq = np.sum(linked.y**2, axis=-1)
    z_sq = np.sum(linked.z**2, axis=(-1, -2))
    w_sq = np.einsum("pjkm,k->pj", linked.ztilde**2, weights)

    sup_term = max(
        fsum_column(x_sq[:, j]) / n_paths + fsum_column(y_sq[:, j]) / n_paths
        for j in range(times.shape[0])
    )
    dts = np.diff(times)
    int_term = math.fsum(
        float(dts[j])
        * (fsum_column(z_sq[:, j]) / n_paths + fsum_column(w_sq[:, j]) / n_paths)
        for j in range(dts.shape[0])
    )
    return sup_term + int_term


def assert_report_equals_kept_paths(report, ens):
    """``report`` is ``bsde_residual`` of the paths of ``ens`` that stayed in
    the box, copied out with ``take``, bit for bit."""
    want = bsde_residual(take(ens, np.flatnonzero(~ens.exited)))
    for name in ("residuals", "rms", "mean", "stderr", "class_s_norm"):
        assert same_bits(getattr(report, name), getattr(want, name)), name
    assert (report.excluded_paths, report.total_paths) == (int(ens.exited.sum()), len(ens))


def whole_array_class_s_norm_of(linked, keep=slice(None)):
    """``whole_array_class_s_norm`` of the paths ``keep``, copied out with ``take``."""
    return whole_array_class_s_norm(take(linked, np.arange(len(linked))[keep]))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# signed zeros and subnormals, placed among the random entries
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]


@st.composite
def random_linked(draw):
    """An ``Ensemble`` of random arrays (no events), and a ``_BLOCK_ROWS`` value."""
    n_paths, n_levels = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n, m, n_atoms = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2])), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def wide(*shape):
        # all zeros, which leaves the other terms' rounding bare, or magnitudes
        # of one scale, whose sums round in every order, up to e^-30 .. e^30
        spread = draw(st.sampled_from([0.0, 1.0, 30.0, None]))
        if spread is None:
            return np.zeros(shape)
        out = rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 2.0, shape)
        out *= np.exp(rng.uniform(-spread, spread, shape))
        flat = out.reshape(-1)
        for i, value in draw(
            st.lists(st.tuples(st.integers(0, flat.size - 1), st.sampled_from(SPECIAL_FLOATS)))
        ):
            flat[i] = value
        return out

    weights = np.exp(rng.uniform(-5.0, 5.0, n_atoms))
    measure = LevyMeasure(marks=np.arange(1.0, n_atoms + 1.0)[:, None], weights=weights)
    events = np.zeros(
        0,
        dtype=[("path", np.int64), ("time", float), ("atom", np.int64), ("interval", np.int64),
               ("x_before", float, (n,)), ("x_after", float, (n,))],
    ).view(np.recarray)
    linked = Ensemble(
        times=np.linspace(0.0, math.exp(rng.uniform(-5.0, 5.0)), n_levels),
        states=wide(n_paths, n_levels, n),
        brownian_increments=np.zeros((n_paths, n_levels - 1, n)),
        exited=np.zeros(n_paths, dtype=bool),
        events=events,
        field=SimpleNamespace(spec=SimpleNamespace(measure=measure)),
        y=wide(n_paths, n_levels, m),
        z=wide(n_paths, n_levels, m, n),
        ztilde=wide(n_paths, n_levels, n_atoms, m),
        jump_values=np.zeros((0, m)),
    )
    return linked, draw(st.integers(1, n_paths * n_levels + 1))


def mc_2d_linked():
    field, spec = mc_2d_problem()
    ens = simulate_ensemble(field, spec, np.zeros(2), 1.0 / 100, 100, 7)
    return link_ensemble(ens, field, spec)


class TestExcludedPaths:
    @pytest.mark.parametrize(
        "make_linked",
        [lambda: ORDER_LINKED, one_kept_linked]
        + [functools.partial(catalog_linked, name) for name in ("heat", "manufactured-nonlocal")],
        ids=["exiting-paths", "one-kept", "heat", "manufactured-nonlocal"],
    )
    def test_report_equals_the_kept_paths_copied_out(self, make_linked):
        ens = make_linked()
        assert ens.exited.any()
        assert_report_equals_kept_paths(bsde_residual(ens), ens)


class TestLevelWiseClassSNorm:
    """The class-S norm taken level block by level block has the bits of the whole-array one."""

    @given(random_linked())
    @settings(max_examples=300, deadline=None)
    def test_equals_whole_array_reference(self, case):
        linked, block_rows = case
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            got = estimate_class_s_norm(linked)
        assert same_bits(got, whole_array_class_s_norm(linked))

    @pytest.mark.parametrize(
        "make_linked",
        [functools.partial(catalog_linked, name) for name in catalog_names()]
        + [mc_2d_linked, lambda: ORDER_LINKED],
        ids=catalog_names() + ["mc-2d", "exiting-paths"],
    )
    def test_residual_report_equals_whole_array_reference(self, make_linked):
        linked = make_linked()
        with mock.patch.object(pipeline, "estimate_class_s_norm", whole_array_class_s_norm_of):
            want = bsde_residual(linked)
        n_paths, n_levels = linked.states.shape[:2]
        for block_rows in block_rows_cases(n_paths, n_levels) + [1 << 11]:
            with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
                got = bsde_residual(linked)
            for name in ("residuals", "rms", "mean", "stderr", "class_s_norm"):
                assert same_bits(getattr(got, name), getattr(want, name)), (name, block_rows)


class TestStreamedClassSSums:
    """The walk's class-S sums: the parts of all paths so far, chunk by chunk,
    with each chunk's exited paths' rows taken off again, have the bits of
    the kept paths alone, nan and inf squares included."""

    @given(random_linked(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_taken_off_equal_the_kept_paths(self, case, data):
        linked, _ = case
        n_paths, n_levels = linked.states.shape[:2]
        exited = np.array(data.draw(st.lists(st.booleans(), min_size=n_paths, max_size=n_paths)))
        keep = np.flatnonzero(~exited)
        assume(keep.size)
        y, ztilde = linked.y.copy(), linked.ztilde.copy()
        special = st.sampled_from([math.inf, -math.inf, math.nan])
        cells = st.tuples(st.integers(0, n_paths - 1), st.integers(0, n_levels - 1), special)
        for p, j, value in data.draw(st.lists(cells, max_size=3)):
            (y[p, j] if data.draw(st.booleans()) else ztilde[p, j])[0] = value
        linked = dataclasses.replace(linked, y=y, ztilde=ztilde)
        measure = linked.field.spec.measure
        field = SimpleNamespace(spec=SimpleNamespace(measure=measure, m=y.shape[2]))
        sums = pipeline._ResidualSums(field, linked.times, n_paths)
        rows = (linked.states, y, linked.z, ztilde)
        split = data.draw(st.integers(0, n_paths))
        for chunk in (np.arange(split), np.arange(split, n_paths)):
            for j in range(n_levels):
                sums.level(j, *(a[chunk, j] for a in rows), None)
            gone = chunk[exited[chunk]]
            for j in range(n_levels):
                sums.level(j, *(a[gone, j] for a in rows), None, sign=-1)
        got = sums.class_s_norm(keep.size)
        assert same_bits(got, estimate_class_s_norm(linked, keep))


def simulated(name):
    """An ensemble of a ``test_paths.SETUPS`` entry, of ``mc-2d``, or of the
    exiting-paths setup."""
    if name == "mc-2d":
        return mc_2d_linked()
    if name == "exiting-paths":
        return order_setup()
    spec, field, x0 = SETUPS[name]()
    return simulate_ensemble(field, spec, x0, DT.get(name, 1.0 / 40.0), 60, 3)


class TestRowsReadOffWhileSimulating:
    """The simulation's (Y, Z, Ztilde) and jump values are the per-level link's, byte for byte."""

    @pytest.mark.parametrize("chunk_paths", [4096, 7])
    @pytest.mark.parametrize("name", list(SETUPS) + ["mc-2d", "exiting-paths"])
    def test_rows_equal_per_level_link(self, name, chunk_paths):
        with mock.patch.object(paths, "_CHUNK_PATHS", chunk_paths):
            ens = simulated(name)
        assert len(ens.events) > 0
        assert_rows_equal_per_level_link(ens)

    def test_chunk_join_holds_no_second_copy(self, traced_peak):
        built = build_problem("coupled-linear", {"nodes": 41, "steps": 40})
        field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
        args = (field, built.spec, built.x0, built.spec.horizon / 200, 800, 7)
        with mock.patch.object(paths, "_CHUNK_PATHS", 100):
            ens, peak = traced_peak(simulate_ensemble, *args)
        arrays = (ens.states, ens.brownian_increments, ens.y, ens.z, ens.ztilde)
        held = sum(a.nbytes for a in arrays) + ens.events.nbytes + ens.jump_values.nbytes
        # joining chunks by copying any (P, L, .) array would add at least its bytes
        assert peak - held < min(a.nbytes for a in arrays), (peak, held)


def fsum_outcome(fn):
    """The bytes of ``fn()``'s floats, or the type of the error it raises."""
    try:
        return np.array(fn(), dtype=float).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


# what fsum passes through or raises on: infinities, nan, finite values whose
# sums overflow, and the largest exponents that still go through the passes
EDGE_FLOATS = SPECIAL_FLOATS + [
    math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1e308, 2.0**1000, -(2.0**1010)
]


@st.composite
def float_rows(draw, edges=EDGE_FLOATS, top=1022):
    """Rows (C, P) of one scale or of many, with exact cancellations and ``edges``."""
    n_rows, n = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((n_rows, n))
    for row in rows:
        center = draw(st.integers(-1074, top))
        spread = draw(st.sampled_from([0, 5, 60, 2100]))
        exps = np.clip(center + rng.integers(-spread, spread + 1, n), -1074, top)
        row[:] = rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(1.0, 2.0, n), exps)
        if draw(st.booleans()):  # pairs that cancel exactly
            row[n // 2 : 2 * (n // 2)] = -row[: n // 2]
        for i, value in draw(st.lists(st.tuples(st.integers(0, 39), st.sampled_from(edges)))):
            if i < n:
                row[i] = value
    return rows


class TestExactSums:
    """The vectorized exact sums have the bits of ``math.fsum`` per row."""

    @pytest.mark.parametrize(
        "row",
        [[], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324, -5e-324], [1e-310, 5e-324],
         [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0], [1e308, 1e308],
         [1e308, -1e308, 1e308], [2.0**1000] * 7, [1.0, 2.0**-1074, -1.0]],
    )
    def test_edge_rows_equal_fsum(self, row):
        values = np.array([row], dtype=float).reshape(1, -1)
        want = fsum_outcome(lambda: [math.fsum(row)])
        assert fsum_outcome(lambda: pipeline._exact_sums(values)) == want

    @given(float_rows())
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_fsum(self, rows):
        want = [fsum_outcome(lambda: [math.fsum(row.tolist())]) for row in rows]
        got = [fsum_outcome(lambda: pipeline._exact_sums(row[None])) for row in rows]
        assert got == want
        if not any(isinstance(w, type) for w in want):
            assert fsum_outcome(lambda: pipeline._exact_sums(rows)) == b"".join(want)

    @given(float_rows(edges=SPECIAL_FLOATS, top=1000), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_pass_sums_of_two_chunks_merge(self, rows, split):
        split = min(split, rows.shape[1])
        first, second = (pipeline._pass_sums(part) for part in (rows[:, :split], rows[:, split:]))
        for row, a, b in zip(rows, first, second):
            assert same_bits(math.fsum(a + b), math.fsum(row.tolist()))


def coupled_linear_ensemble(n_paths):
    built = build_problem("coupled-linear", {"nodes": 41, "steps": 40})
    field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
    return simulate_ensemble(field, built.spec, built.x0, built.spec.horizon / 50, n_paths, 3)


REPORT_FIELDS = ("residuals", "rms", "mean", "stderr", "class_s_norm")


class TestResidualLevelByLevel:
    """Each path's residual depends on its own rows only."""

    @pytest.mark.parametrize("name", ["coupled-linear", "exiting-paths", "mc-2d"])
    def test_residuals_do_not_depend_on_the_chunking(self, name):
        whole = bsde_residual(simulated(name))
        with mock.patch.object(paths, "_CHUNK_PATHS", 7):
            ens = simulated(name)
        chunked = bsde_residual(ens)
        for field in REPORT_FIELDS:
            assert same_bits(getattr(chunked, field), getattr(whole, field)), field
        # the residuals of paths taken in chunks are the whole ensemble's rows
        kept = np.flatnonzero(~ens.exited)
        chunks = [kept[lo : lo + 7] for lo in range(0, len(kept), 7)]
        parts = [bsde_residual(take(ens, chunk)).residuals for chunk in chunks]
        assert same_bits(np.concatenate(parts), whole.residuals)

    def test_reversed_paths_keep_the_reductions(self):
        ens = coupled_linear_ensemble(500)
        base = bsde_residual(ens)
        rev = bsde_residual(take(ens, np.arange(len(ens))[::-1]))
        for field in REPORT_FIELDS[1:]:
            assert same_bits(getattr(rev, field), getattr(base, field)), field
        assert same_bits(rev.residuals, base.residuals[::-1])

    def test_path_jump_sums_are_the_per_path_event_sums(self):
        ens = coupled_linear_ensemble(60)
        got = pipeline._path_jump_sums(ens.events.path, ens.jump_values, len(ens))
        off = ens.event_offsets
        for p in range(len(ens)):
            want = np.zeros(ens.jump_values.shape[1])
            for row in ens.jump_values[off[p] : off[p + 1]]:
                want = want + row
            assert same_bits(got[p], want), p
