import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde import (
    Ensemble,
    Grid,
    LevyMeasure,
    ProblemSpec,
    RngStream,
    SolutionField,
    SolverConfig,
    euler_increment,
    sample_poisson_measure,
    simulate_ensemble,
)
from fbsde import paths


def _zeros(m):
    def fn(t, x, u, p, w):
        return np.zeros((x.shape[0], m))

    return fn


def make_spec(
    drift=None,
    sigma_val=1.0,
    jump=None,
    measure=None,
    terminal=None,
    horizon=1.0,
):
    measure = measure or LevyMeasure(marks=[[1.0]], weights=[1e-12])
    return ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=horizon,
        drift=drift or _zeros(1),
        generator=_zeros(1),
        diffusion=lambda t, x, u: np.full((x.shape[0], 1, 1), sigma_val),
        jump_coeff=jump or (lambda t, x, u, y: np.zeros((x.shape[0], 1))),
        terminal=terminal or (lambda x: np.asarray(x, dtype=float).copy()),
        measure=measure,
    )


def zero_field(spec, lo=-12.0, hi=12.0, nodes=33, levels=5):
    grid = Grid((lo,), (hi,), (nodes,))
    config = SolverConfig(
        grid=grid,
        n_steps=levels - 1,
        dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
    )
    times = np.linspace(0.0, spec.horizon, levels)
    return SolutionField(
        grid=grid,
        times=times,
        values=np.zeros((levels, grid.n_nodes, 1)),
        gradients=np.zeros((levels, grid.n_nodes, 1, 1)),
        spec=spec,
        config=config,
    )


class TestPoissonSampling:
    def test_mean_count_matches_rate(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[2.0])
        counts = [
            len(sample_poisson_measure(measure, 1.0, RngStream(2024, i)))
            for i in range(10_000)
        ]
        mean = np.mean(counts)
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / 10_000)

    def test_single_atom_all_indices_zero(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[3.0])
        jumps = sample_poisson_measure(measure, 2.0, RngStream(7, 0))
        assert jumps and all(k == 0 for _, k in jumps)

    def test_times_sorted_within_horizon(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[5.0])
        jumps = sample_poisson_measure(measure, 3.0, RngStream(11, 4))
        times = [t for t, _ in jumps]
        assert times == sorted(times)
        assert all(0.0 <= t <= 3.0 for t in times)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            sample_poisson_measure(measure, horizon, RngStream(0, 0))

    def test_atom_frequencies_follow_weights(self):
        measure = LevyMeasure(marks=[[1.0], [2.0]], weights=[0.5, 1.5])
        marks = []
        for i in range(400):
            marks += [k for _, k in sample_poisson_measure(measure, 5.0, RngStream(3, i))]
        freq = np.mean([k == 1 for k in marks])
        n = len(marks)
        assert abs(freq - 0.75) <= 3.0 * math.sqrt(0.75 * 0.25 / n)


def stream_path(field, spec, x0, dt, seed, stream_id):
    """The path driven by ``RngStream(seed, stream_id)``: that path of an ensemble."""
    return simulate_ensemble(field, spec, x0, dt, stream_id + 1, base_seed=seed)[stream_id]


class TestSimulateForward:
    def test_constant_drift_exact(self):
        # dyadic dt and no jumps: the running sum stays exactly representable
        spec = make_spec(drift=lambda t, x, u, p, w: np.ones((x.shape[0], 1)), sigma_val=0.0)
        field = zero_field(spec)
        path = stream_path(field, spec, np.array([0.0]), 1.0 / 128.0, 1, 0)
        assert len(path.events) == 0
        assert path.states[-1, 0] == 1.0

    def test_brownian_variance(self):
        spec = make_spec(sigma_val=1.0)
        field = zero_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1.0 / 64.0, 4000, base_seed=5)
        x_T = ens.states[:, -1, 0]
        var = x_T.var(ddof=1)
        stderr = var * math.sqrt(2.0 / (len(x_T) - 1))  # stderr of a variance estimate
        assert abs(var - 1.0) <= 3.0 * stderr
        assert abs(x_T.mean()) <= 4.0 * x_T.std(ddof=1) / math.sqrt(len(x_T))

    def test_compensated_jump_martingale(self):
        rate = 2.0
        measure = LevyMeasure(marks=[[1.0]], weights=[rate])
        spec = make_spec(
            sigma_val=0.0,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        field = zero_field(spec, lo=-15.0, hi=15.0)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 1.0 / 100.0, 3000, base_seed=9)
        x_T = ens.states[:, -1, 0]
        stderr = x_T.std(ddof=1) / math.sqrt(len(x_T))
        assert abs(x_T.mean()) <= 4.0 * stderr

    def test_cadlag_jump_bookkeeping(self):
        measure = LevyMeasure(marks=[[0.5]], weights=[3.0])
        spec = make_spec(
            sigma_val=0.2,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        field = zero_field(spec)
        path = stream_path(field, spec, np.array([0.0]), 1.0 / 50.0, 21, 3)
        assert len(path.events) > 0
        for ev in path.events:
            y = field.value(ev.time, ev.x_before[None, :])
            shift = spec.jump_coeff(ev.time, ev.x_before[None, :], y, measure.marks[ev.atom])
            assert np.array_equal(ev.x_after, ev.x_before + shift.reshape(1))

    def test_euler_replay_on_jump_free_intervals(self):
        measure = LevyMeasure(marks=[[0.5]], weights=[1.0])
        spec = make_spec(
            drift=lambda t, x, u, p, w: 0.3 * x,
            sigma_val=0.5,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        field = zero_field(spec)
        path = stream_path(field, spec, np.array([0.5]), 1.0 / 40.0, 8, 2)
        jump_intervals = {ev.interval for ev in path.events}
        replayed = 0
        for j in range(path.n_steps):
            if j in jump_intervals:
                continue
            t = float(path.times[j])
            delta = float(path.times[j + 1] - path.times[j])
            out = euler_increment(
                field, spec, t, path.states[j][None, :], path.brownian_increments[j][None, :], delta
            )
            assert np.array_equal(out[0], path.states[j + 1])
            replayed += 1
        assert replayed > 0

    def test_reproducibility_and_subset_consistency(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        spec = make_spec(
            sigma_val=0.3,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        field = zero_field(spec)
        a = stream_path(field, spec, np.array([0.0]), 0.02, 77, 5)
        b = stream_path(field, spec, np.array([0.0]), 0.02, 77, 5)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.brownian_increments, b.brownian_increments)
        assert [(e.time, e.atom) for e in a.events] == [(e.time, e.atom) for e in b.events]

        with mock.patch.object(paths, "_CHUNK_PATHS", 3):
            ens = simulate_ensemble(field, spec, np.array([0.0]), 0.02, 8, base_seed=77)
        assert np.array_equal(ens[5].states, a.states)

    def test_exit_flagging(self):
        spec = make_spec(drift=lambda t, x, u, p, w: np.full((x.shape[0], 1), 50.0), sigma_val=0.0)
        field = zero_field(spec, lo=-2.0, hi=2.0)
        path = stream_path(field, spec, np.array([0.0]), 0.05, 1, 1)
        assert path.exited

    def test_dt_must_divide_horizon(self):
        spec = make_spec()
        field = zero_field(spec)
        with pytest.raises(ValueError, match="divide"):
            simulate_ensemble(field, spec, np.array([0.0]), 0.3, 1, base_seed=0)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
    def test_dt_must_be_positive(self, dt):
        spec = make_spec()
        field = zero_field(spec)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_ensemble(field, spec, np.array([0.0]), dt, 1, base_seed=0)

    @pytest.mark.parametrize("base_seed", [-1, 1.5, "7"])
    def test_base_seed_must_be_a_non_negative_integer(self, base_seed):
        spec = make_spec()
        field = zero_field(spec)
        with pytest.raises(ValueError, match="base_seed"):
            simulate_ensemble(field, spec, np.array([0.0]), 0.25, 1, base_seed=base_seed)

    def test_x0_outside_box_rejected(self):
        spec = make_spec()
        field = zero_field(spec, lo=-3.0, hi=3.0)
        with pytest.raises(ValueError, match="inside"):
            simulate_ensemble(field, spec, np.array([5.0]), 0.1, 1, base_seed=0)

    def test_x0_in_cutoff_annulus_rejected(self):
        spec = make_spec()
        grid = Grid((-2.0,), (2.0,), (17,))
        config = SolverConfig(grid=grid, n_steps=4, cutoff_width=1.5)
        times = np.linspace(0.0, 1.0, 5)
        field = SolutionField(
            grid=grid,
            times=times,
            values=np.zeros((5, grid.n_nodes, 1)),
            gradients=np.zeros((5, grid.n_nodes, 1, 1)),
            spec=spec,
            config=config,
        )
        with pytest.raises(ValueError, match="inner"):
            simulate_ensemble(field, spec, np.array([1.0]), 0.25, 1, base_seed=0)


class TestMultiJumpIntervals:
    def test_many_jumps_per_interval_exact_identity(self):
        # coarse grid with a high rate forces several jumps per interval;
        # with f = sigma = 0 and unit marks, X_T = x + count - rate * T
        rate = 40.0
        measure = LevyMeasure(marks=[[1.0]], weights=[rate])
        spec = make_spec(
            sigma_val=0.0,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        field = zero_field(spec, lo=-80.0, hi=80.0)
        for path in simulate_ensemble(field, spec, np.array([0.0]), 0.25, 5, base_seed=31):
            count = len(path.events)
            assert count > 4  # at least one interval carries several jumps
            expect = count - rate * 1.0
            assert abs(path.states[-1, 0] - expect) <= 1e-9
            # events sit inside their recorded intervals, in time order
            times = [e.time for e in path.events]
            assert times == sorted(times)
            for ev in path.events:
                assert path.times[ev.interval] <= ev.time <= path.times[ev.interval + 1]

    def test_high_rate_reproducibility(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[25.0])
        spec = make_spec(
            sigma_val=0.1,
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), 0.1 * y[0]),
            measure=measure,
        )
        field = zero_field(spec, lo=-40.0, hi=40.0)
        a = stream_path(field, spec, np.array([0.0]), 0.125, 5, 9)
        b = stream_path(field, spec, np.array([0.0]), 0.125, 5, 9)
        assert np.array_equal(a.states, b.states)
        assert len(a.events) == len(b.events)


class TestTwoDimensionalSimulation:
    def test_2d_gaussian_increments(self):
        mat = np.array([[1.0, 0.3], [0.0, 0.8]])

        def sigma(t, x, u):
            return np.broadcast_to(mat, (x.shape[0], 2, 2)).copy()

        measure = LevyMeasure(marks=[[1.0]], weights=[1e-12])
        spec = ProblemSpec(
            n=2,
            m=1,
            l=1,
            horizon=1.0,
            drift=lambda t, x, u, p, w: np.zeros((x.shape[0], 2)),
            generator=_zeros(1),
            diffusion=sigma,
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2)),
            terminal=lambda x: x[:, :1].copy(),
            measure=measure,
        )
        grid = Grid((-12.0, -12.0), (12.0, 12.0), (9, 9))
        config = SolverConfig(
            grid=grid, n_steps=4, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1))
        )
        times = np.linspace(0.0, 1.0, 5)
        field = SolutionField(
            grid=grid,
            times=times,
            values=np.zeros((5, grid.n_nodes, 1)),
            gradients=np.zeros((5, grid.n_nodes, 1, 2)),
            spec=spec,
            config=config,
        )
        ens = simulate_ensemble(field, spec, np.zeros(2), 1.0 / 32.0, 3000, base_seed=17)
        x_T = ens.states[:, -1]
        cov_expect = mat @ mat.T  # covariance of X_T is Gram(sigma) * T with T = 1
        for i in range(2):
            se = x_T[:, i].std(ddof=1) / math.sqrt(len(x_T))
            assert abs(x_T[:, i].mean()) <= 4.0 * se
            var = x_T[:, i].var(ddof=1)
            var_se = var * math.sqrt(2.0 / (len(x_T) - 1))
            assert abs(var - cov_expect[i, i]) <= 3.0 * var_se
        sample_cov = np.cov(x_T.T, ddof=1)
        assert abs(sample_cov[0, 1] - cov_expect[0, 1]) <= 0.1


class TestVectorMarks:
    def test_two_dimensional_marks_drive_scalar_state(self):
        measure = LevyMeasure(marks=[[0.5, 1.0], [-0.5, 0.25]], weights=[1.0, 2.0])
        spec = ProblemSpec(
            n=1,
            m=1,
            l=2,
            horizon=1.0,
            drift=_zeros(1),
            generator=_zeros(1),
            diffusion=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
            jump_coeff=lambda t, x, u, y: np.full((x.shape[0], 1), y[0] + y[1]),
            terminal=lambda x: np.asarray(x, dtype=float).copy(),
            measure=measure,
        )
        field = zero_field(spec, lo=-30.0, hi=30.0)
        jumps = sample_poisson_measure(measure, 1.0, RngStream(12, 0))
        assert all(k in (0, 1) for _, k in jumps)
        path = stream_path(field, spec, np.array([0.0]), 0.1, 12, 0)
        # replay the jump sizes from the logged atoms
        shift = {0: 1.5, 1: -0.25}
        total = sum(shift[e.atom] for e in path.events)
        comp = (1.0 * 1.5 + 2.0 * (-0.25)) * 1.0  # weighted mark sums over [0, T]
        assert abs(path.states[-1, 0] - (total - comp)) <= 1e-9


def jumpy_setup():
    """Unit-rate jumps and a little diffusion on a wide zero field."""
    measure = LevyMeasure(marks=[[0.5], [-0.25]], weights=[2.0, 1.0])
    spec = make_spec(
        sigma_val=0.3,
        jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
        measure=measure,
    )
    return spec, zero_field(spec, lo=-20.0, hi=20.0)


JUMPY_SPEC, JUMPY_FIELD = jumpy_setup()
EVENT_COLUMNS = ("path", "time", "atom", "interval", "x_before", "x_after")


def assert_same_ensemble(a, b):
    for name in ("times", "states", "brownian_increments", "exited"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.events.dtype.names == EVENT_COLUMNS
    for name in EVENT_COLUMNS:
        assert np.array_equal(a.events[name], b.events[name]), name


class TestEnsembleArrays:
    def test_event_table_sorted_by_path_then_time(self):
        ens = simulate_ensemble(JUMPY_FIELD, JUMPY_SPEC, np.array([0.0]), 0.125, 12, base_seed=3)
        ev = ens.events
        assert len(ev) > len(ens)  # several paths jump more than once
        keys = list(zip(ev.path.tolist(), ev.time.tolist()))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert ev.x_before.shape == ev.x_after.shape == (len(ev), 1)

    def test_path_views_are_read_only_and_copy_free(self):
        ens = simulate_ensemble(JUMPY_FIELD, JUMPY_SPEC, np.array([0.0]), 0.125, 6, base_seed=4)
        views = list(ens)
        assert len(views) == len(ens) == 6
        assert sum(len(v.events) for v in views) == len(ens.events)
        for i, view in enumerate(views):
            assert np.shares_memory(view.states, ens.states)
            assert np.shares_memory(view.events, ens.events) or len(view.events) == 0
            assert np.all(view.events.path == i)
            assert view.n_steps == 8 and view.exited == ens.exited[i]
        with pytest.raises(ValueError):
            views[0].states[0, 0] = 1.0
        with pytest.raises(ValueError):
            ens.events.time[:] = 0.0
        assert np.array_equal(ens[-1].states, ens.states[5])
        with pytest.raises(IndexError):
            ens[6]

    def test_take_and_concat_are_inverse(self):
        ens = simulate_ensemble(JUMPY_FIELD, JUMPY_SPEC, np.array([0.0]), 0.125, 7, base_seed=5)
        perm = np.array([4, 0, 6, 2, 1, 5, 3])
        shuffled = ens.take(perm)
        for q, p in enumerate(perm):
            assert np.array_equal(shuffled[q].states, ens[p].states)
            for name in ("time", "atom", "x_after"):
                assert np.array_equal(shuffled[q].events[name], ens[p].events[name])
        assert_same_ensemble(shuffled.take(np.argsort(perm)), ens)
        assert_same_ensemble(Ensemble.concat([ens.take(range(3)), ens.take([3, 4, 5, 6])]), ens)

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_ensemble_does_not_depend_on_chunk_size(self, n_paths, chunk_size, seed):
        args = (JUMPY_FIELD, JUMPY_SPEC, np.array([0.0]), 0.25, n_paths, seed)
        with mock.patch.object(paths, "_CHUNK_PATHS", chunk_size):
            chunked = simulate_ensemble(*args)
        assert_same_ensemble(chunked, simulate_ensemble(*args))

