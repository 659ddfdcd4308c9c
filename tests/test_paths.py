import dataclasses
import functools
import hashlib
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde import (
    Grid,
    LevyMeasure,
    ProblemSpec,
    RngStream,
    SolutionField,
    SolverConfig,
    build_problem,
    catalog_names,
    euler_increment,
    simulate_ensemble,
    solve_final_value,
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
        spec=spec,
        config=config,
    )


def jump_schedule(measure, horizon, seed, stream_id):
    """The jump times and atoms that the walk draws first from ``RngStream(seed, stream_id)``."""
    gen = RngStream(seed, stream_id).generator()
    return paths._draw_jump_schedule(measure, paths._atom_cdf(measure), horizon, gen)


class TestPoissonSampling:
    def test_mean_count_matches_rate(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[2.0])
        counts = [len(jump_schedule(measure, 1.0, 2024, i)[0]) for i in range(10_000)]
        mean = np.mean(counts)
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / 10_000)

    def test_single_atom_all_indices_zero(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[3.0])
        _, atoms = jump_schedule(measure, 2.0, 7, 0)
        assert atoms.size and np.all(atoms == 0)

    def test_times_sorted_within_horizon(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[5.0])
        times = jump_schedule(measure, 3.0, 11, 4)[0].tolist()
        assert times == sorted(times)
        assert all(0.0 <= t <= 3.0 for t in times)

    def test_atom_frequencies_follow_weights(self):
        measure = LevyMeasure(marks=[[1.0], [2.0]], weights=[0.5, 1.5])
        marks = []
        for i in range(400):
            marks += jump_schedule(measure, 5.0, 3, i)[1].tolist()
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
            x = path.states[j][None, :]
            backward = field.backward_rows(t, x)
            out = euler_increment(backward, spec, t, x, path.brownian_increments[j][None, :], delta)
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

    @pytest.mark.parametrize("base_seed", [-1, 1.5, "7", True])
    def test_base_seed_must_be_a_non_negative_integer(self, base_seed):
        spec = make_spec()
        field = zero_field(spec)
        with pytest.raises(ValueError, match="base_seed"):
            simulate_ensemble(field, spec, np.array([0.0]), 0.25, 1, base_seed=base_seed)

    @pytest.mark.parametrize("n_paths", [2.5, True, "3"])
    def test_path_count_must_be_an_integer(self, n_paths):
        spec = make_spec()
        field = zero_field(spec)
        with pytest.raises(ValueError, match="n_paths must be an integer"):
            simulate_ensemble(field, spec, np.array([0.0]), 0.25, n_paths, base_seed=0)

    def test_numpy_integer_counts_pass(self):
        spec = make_spec()
        field = zero_field(spec)
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.25, np.int64(2), np.uint32(5))
        assert_same_ensemble(ens, simulate_ensemble(field, spec, np.array([0.0]), 0.25, 2, 5))

    def test_x0_outside_box_rejected(self):
        spec = make_spec()
        field = zero_field(spec, lo=-3.0, hi=3.0)
        with pytest.raises(ValueError, match="inside"):
            simulate_ensemble(field, spec, np.array([5.0]), 0.1, 1, base_seed=0)

    @pytest.mark.parametrize("coord", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_is_named(self, coord):
        config = SolverConfig(grid=Grid((-3.0, -3.0), (3.0, 3.0), (9, 9)), n_steps=4)
        message = f"x0 coordinate 1 must be finite, got {coord}"
        with pytest.raises(ValueError, match=re.escape(message)):
            paths._check_start_point(config, [0.0, coord])

    def test_x0_in_cutoff_annulus_rejected(self):
        spec = make_spec()
        grid = Grid((-2.0,), (2.0,), (17,))
        config = SolverConfig(grid=grid, n_steps=4, cutoff_width=1.5)
        times = np.linspace(0.0, 1.0, 5)
        field = SolutionField(
            grid=grid,
            times=times,
            values=np.zeros((5, grid.n_nodes, 1)),
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
        _, atoms = jump_schedule(measure, 1.0, 12, 0)
        assert all(k in (0, 1) for k in atoms.tolist())
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


PATH_ARRAYS = ("times", "states", "brownian_increments", "exited")
BACKWARD_ARRAYS = ("y", "z", "ztilde", "jump_values")


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def take(ens, index):
    """The paths ``index`` of ``ens``, in that order, with all their rows, as a new ensemble."""
    index = np.asarray(index, dtype=np.int64)
    off = ens.event_offsets
    counts = off[index + 1] - off[index]
    first = np.cumsum(counts) - counts
    rows = np.repeat(off[index] - first, counts) + np.arange(counts.sum())
    events = ens.events[rows]
    events["path"] = np.repeat(np.arange(len(index)), counts)
    per_path = {name: getattr(ens, name)[index] for name in paths._PATH_AXIS_ARRAYS}
    return dataclasses.replace(ens, events=events, jump_values=ens.jump_values[rows], **per_path)


def assert_same_ensemble(a, b, arrays=PATH_ARRAYS + BACKWARD_ARRAYS):
    for name in arrays:
        assert same_bytes(getattr(a, name), getattr(b, name)), name
    assert a.events.dtype.names == EVENT_COLUMNS
    for name in EVENT_COLUMNS:
        assert same_bytes(a.events[name], b.events[name]), name


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

    def test_first_paths_are_those_of_an_ensemble_simulated_alone(self):
        ens = simulate_ensemble(JUMPY_FIELD, JUMPY_SPEC, np.array([0.0]), 0.125, 7, base_seed=5)
        front = simulate_ensemble(JUMPY_FIELD, JUMPY_SPEC, np.array([0.0]), 0.125, 3, base_seed=5)
        assert_same_ensemble(take(ens, range(3)), front)
        perm = np.array([4, 0, 6, 2, 1, 5, 3])
        assert_same_ensemble(take(take(ens, perm), np.argsort(perm)), ens)

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



def reference_simulate(field, spec, x0, dt, n_paths, seed):
    """Reference: the per-path jump loop that the event-synchronous rounds
    replace, kept verbatim apart from its set-up (one chunk).  Returns the
    path arrays only, each ``euler_increment`` fed its own field query."""
    times = paths._time_grid(spec.horizon, dt)
    streams = [RngStream(seed, p) for p in range(n_paths)]
    n = spec.n
    n_steps = times.shape[0] - 1
    meas = spec.measure

    gens = [s.generator() for s in streams]
    cdf = paths._atom_cdf(meas)
    schedules = [paths._draw_jump_schedule(meas, cdf, spec.horizon, gen) for gen in gens]
    max_jumps = max((len(s[0]) for s in schedules), default=0)
    normals = np.zeros((n_paths, n_steps + max_jumps, n))
    for p, gen in enumerate(gens):
        total = n_steps + len(schedules[p][0])
        normals[p, :total] = gen.standard_normal((total, n))

    jumps_by_interval = {}
    for p, (taus, atoms) in enumerate(schedules):
        if len(taus) == 0:
            continue
        idx = np.searchsorted(times, taus, side="left") - 1
        idx = np.clip(idx, 0, n_steps - 1)
        for tau, k, j in zip(taus, atoms, idx):
            jumps_by_interval.setdefault(int(j), []).append((p, float(tau), int(k)))

    x_cur = np.tile(np.asarray(x0, dtype=float).reshape(1, n), (n_paths, 1))
    cursor = np.zeros(n_paths, dtype=np.int64)
    states = np.empty((n_paths, n_steps + 1, n))
    states[:, 0] = x_cur
    increments = np.zeros((n_paths, n_steps, n))
    events = []
    exited = np.zeros(n_paths, dtype=bool)
    all_idx = np.arange(n_paths)

    for j in range(n_steps):
        t0 = float(times[j])
        t1 = float(times[j + 1])
        delta = t1 - t0
        interval_jumps = jumps_by_interval.get(j, [])
        jump_paths = sorted({p for p, _, _ in interval_jumps})

        plain = np.ones(n_paths, dtype=bool)
        plain[jump_paths] = False
        if np.any(plain):
            rows = all_idx[plain]
            xi = normals[rows, cursor[rows]]
            db = np.sqrt(delta) * xi
            backward = field.backward_rows(t0, x_cur[rows])
            x_cur[rows] = euler_increment(backward, spec, t0, x_cur[rows], db, delta)
            increments[rows, j] = db
            cursor[rows] += 1

        for p in jump_paths:
            t_a = t0
            x = x_cur[p : p + 1]
            db_total = np.zeros(n)
            for q, tau, k in interval_jumps:
                if q != p:
                    continue
                sub = tau - t_a
                xi = normals[p, cursor[p]]
                cursor[p] += 1
                db = np.sqrt(sub) * xi
                x = euler_increment(field.backward_rows(t_a, x), spec, t_a, x, db[None, :], sub)
                db_total += db
                x_before = x[0].copy()
                y_before = field.value(tau, x)
                shift = np.asarray(
                    spec.jump_coeff(tau, x, y_before, meas.marks[k]), dtype=float
                ).reshape(n)
                x_after = x_before + shift
                events.append((p, tau, k, j, x_before, x_after))
                x = x_after[None, :].copy()
                t_a = tau
            sub = t1 - t_a
            xi = normals[p, cursor[p]]
            cursor[p] += 1
            db = np.sqrt(sub) * xi
            x = euler_increment(field.backward_rows(t_a, x), spec, t_a, x, db[None, :], sub)
            db_total += db
            x_cur[p] = x[0]
            increments[p, j] = db_total

        states[:, j + 1] = x_cur
        exited |= np.any((x_cur < field.grid.lower) | (x_cur > field.grid.upper), axis=1)

    dtype = [("path", np.int64), ("time", float), ("atom", np.int64), ("interval", np.int64)]
    dtype += [("x_before", float, (n,)), ("x_after", float, (n,))]
    table = np.array(events, dtype=dtype).view(np.recarray)
    table = table[np.argsort(table.path, kind="stable")]
    return SimpleNamespace(
        times=times, states=states, brownian_increments=increments, exited=exited, events=table
    )


def _time_column(t):
    # a scalar time or one time per row, as a column
    return np.reshape(t, (-1, 1))


def sine_field(spec, lo, hi, nodes, levels=9):
    """exp(-t) sin(x_1) cos(x_2) ..., gradients derived by finite differences."""
    grid = Grid((lo,) * spec.n, (hi,) * spec.n, (nodes,) * spec.n)
    config = SolverConfig(
        grid=grid, n_steps=levels - 1, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1))
    )
    times = np.linspace(0.0, spec.horizon, levels)
    pts = grid.nodes()
    shape = np.sin(pts[:, 0]) * np.prod(np.cos(pts[:, 1:]), axis=1)
    values = np.exp(-times)[:, None, None] * shape[None, :, None]
    return SolutionField(grid=grid, times=times, values=values, spec=spec, config=config)


def high_rate_setup():
    """Several jumps of one path in one interval; t-, x- and u-dependent coefficients."""
    measure = LevyMeasure(marks=[[0.3], [-0.2]], weights=[18.0, 12.0])

    def drift(t, x, u, p, w):
        return 0.2 * u - 0.3 * _time_column(t) * x + 0.1 * w[:, :, 0].sum(axis=1, keepdims=True)

    def jump(t, x, u, y):
        return y[0] * (1.0 + 0.5 * u) * (1.0 + 0.2 * _time_column(t))

    spec = ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=1.0,
        drift=drift,
        generator=_zeros(1),
        diffusion=lambda t, x, u: (0.4 + 0.1 * _time_column(t) * u)[:, :, None],
        jump_coeff=jump,
        terminal=lambda x: np.sin(x),
        measure=measure,
    )
    return spec, sine_field(spec, -10.0, 10.0, 81)


def vector_mark_setup(weights=(1.5, 1.0)):
    """2-D state and 2-D marks on a 2-D sine field, with a mixed diffusion."""
    measure = LevyMeasure(marks=[[0.3, 0.1], [-0.2, 0.4]], weights=list(weights))
    mat = np.array([[0.6, 0.2], [0.0, 0.5]])

    def drift(t, x, u, p, w):
        nonlocal_sum = w[:, :, 0].sum(axis=1, keepdims=True)
        return 0.2 * u - 0.1 * _time_column(t) * x + 0.3 * p[:, 0, :] + 0.1 * nonlocal_sum

    def diffusion(t, x, u):
        return np.broadcast_to(mat, (x.shape[0], 2, 2)) * (1.0 + 0.2 * np.reshape(t, (-1, 1, 1)))

    def jump(t, x, u, y):
        return y * (1.0 + 0.1 * _time_column(t)) * (1.0 + 0.05 * x[:, :1])

    spec = ProblemSpec(
        n=2,
        m=1,
        l=2,
        horizon=1.0,
        drift=drift,
        generator=_zeros(1),
        diffusion=diffusion,
        jump_coeff=jump,
        terminal=lambda x: (np.sin(x[:, 0]) * np.cos(x[:, 1]))[:, None],
        measure=measure,
    )
    return spec, sine_field(spec, -4.0, 4.0, 17, levels=5)


def exiting_setup():
    """Drift and jumps carry some of the paths out of a narrow box."""
    measure = LevyMeasure(marks=[[0.8]], weights=[3.0])
    spec = make_spec(
        drift=lambda t, x, u, p, w: np.full((x.shape[0], 1), 1.5),
        sigma_val=0.6,
        jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
        measure=measure,
    )
    return spec, zero_field(spec, lo=-2.5, hi=2.5)


def catalog_setup(name):
    built = build_problem(name, {"nodes": 41, "steps": 40})
    field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
    return built.spec, field, built.x0


SETUPS = {
    **{name: functools.partial(catalog_setup, name) for name in catalog_names()},
    "high-rate": lambda: (*high_rate_setup(), np.array([0.2])),
    "vector-marks": lambda: (*vector_mark_setup(), np.array([0.5, -0.3])),
    "exiting": lambda: (*exiting_setup(), np.array([0.0])),
}
DT = {"high-rate": 0.125, "vector-marks": 0.05, "exiting": 0.05}


class TestEventSynchronousRounds:
    @pytest.mark.parametrize("name", list(SETUPS))
    def test_equals_the_per_path_jump_loop(self, name):
        spec, field, x0 = SETUPS[name]()
        args = (field, spec, x0, DT.get(name, 1.0 / 40.0), 60, 3)
        ens = simulate_ensemble(*args)
        assert_same_ensemble(ens, reference_simulate(*args), PATH_ARRAYS)
        assert len(ens.events) > 0

    def test_setups_cover_multi_jump_intervals_and_exits(self):
        spec, field = high_rate_setup()
        ens = simulate_ensemble(field, spec, np.array([0.2]), 0.125, 20, base_seed=3)
        per_interval = np.zeros((len(ens), len(ens.times) - 1), dtype=np.int64)
        np.add.at(per_interval, (ens.events.path, ens.events.interval), 1)
        assert per_interval.max() >= 3
        spec, field = exiting_setup()
        ens = simulate_ensemble(field, spec, np.array([0.0]), 0.05, 60, base_seed=3)
        assert ens.exited.any() and not ens.exited.all()

    def test_one_increment_call_per_round(self):
        spec, field = high_rate_setup()
        with mock.patch.object(paths, "euler_increment", wraps=paths.euler_increment) as spy:
            ens = simulate_ensemble(field, spec, np.array([0.2]), 0.125, 20, base_seed=3)
        n_steps = len(ens.times) - 1
        per_interval = np.zeros((len(ens), n_steps), dtype=np.int64)
        np.add.at(per_interval, (ens.events.path, ens.events.interval), 1)
        # round 0 starts at t_j, later rounds at jump times inside (t_j, t_{j+1})
        starts = [np.min(call.args[2]) for call in spy.call_args_list]
        called = np.bincount(np.searchsorted(ens.times, starts, side="right") - 1, minlength=n_steps)
        assert np.array_equal(called, 1 + per_interval.max(axis=0))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_row_times_equal_single_row_calls(self, n_rows, seed):
        spec, field = VECTOR_MARK_SETUP
        rng = np.random.default_rng(seed)
        t = rng.random(n_rows)
        delta = 0.1 * rng.random(n_rows)
        x = rng.uniform(-3.0, 3.0, (n_rows, 2))
        db = rng.standard_normal((n_rows, 2))
        batch = euler_increment(field.backward_rows(t, x), spec, t, x, db, delta)
        rows = []
        for b in range(n_rows):
            tb, xb = float(t[b]), x[b : b + 1]
            backward = field.backward_rows(tb, xb)
            rows.append(euler_increment(backward, spec, tb, xb, db[b : b + 1], float(delta[b])))
        assert np.array_equal(batch, np.concatenate(rows))


VECTOR_MARK_SETUP = vector_mark_setup()


def ensemble_digests(ens):
    """The first 16 hex digits of the sha256 of each array of ``ens`` and of its event table."""
    arrays = {name: getattr(ens, name) for name in PATH_ARRAYS + BACKWARD_ARRAYS}
    arrays["events"] = ens.events
    return {name: hashlib.sha256(a.tobytes()).hexdigest()[:16] for name, a in arrays.items()}


# 40 paths of the vector-mark setup at rates 15 and 10, dt 0.05 and seed 3: up to
# 6 jumps of one path in one interval; pinned while the walk still stepped the
# Brownian increments and Y in arrays over levels of its own
HIGH_RATE_2D = ((15.0, 10.0), np.array([0.5, -0.3]), 0.05, 40, 3)
HIGH_RATE_2D_DIGESTS = {
    "times": "cbe8d5613464e9f1",
    "states": "867557482b4f95bb",
    "brownian_increments": "333fca049e836290",
    "exited": "129ef2cb61d59752",
    "y": "853781fbb2dcbf84",
    "z": "4d23c9145a3029d3",
    "ztilde": "6b47c001d055d660",
    "jump_values": "f1a9b6a5d62ee607",
    "events": "16a4b7c1ee9757c7",
}


class TestLevelVisitor:
    """Each finished level goes to the visitor with the same bits, whether or not
    the caller keeps Y and the Brownian increments over levels."""

    def visits(self, keep_y):
        weights, x0, dt, n_paths, seed = HIGH_RATE_2D
        spec, field = vector_mark_setup(weights)
        times = paths._time_grid(spec.horizon, dt)
        streams = [RngStream(seed, p) for p in range(n_paths)]
        out = paths._path_arrays(n_paths, len(times), spec, keep_y)
        levels = []

        def visit(j, *rows):
            assert j == len(levels)
            levels.append([None if r is None else r.copy() for r in rows])

        table, jump_values = paths._simulate_paths(field, x0, times, streams, out, visit)
        return out, levels, table, jump_values

    def test_levels_do_not_depend_on_what_the_caller_keeps(self):
        weights, x0, dt, n_paths, seed = HIGH_RATE_2D
        spec, field = vector_mark_setup(weights)
        ens = simulate_ensemble(field, spec, x0, dt, n_paths, seed)
        assert ensemble_digests(ens) == HIGH_RATE_2D_DIGESTS
        per_interval = np.zeros((n_paths, len(ens.times) - 1), dtype=np.int64)
        np.add.at(per_interval, (ens.events.path, ens.events.interval), 1)
        assert per_interval.max() >= 3  # levels take several rounds

        (states, exited, y), levels, table, jump_values = self.visits(keep_y=True)
        (bare_states, _, no_y), bare_levels, bare_table, bare_jump_values = self.visits(False)
        assert no_y is None and len(levels) == len(bare_levels) == len(ens.times)
        for j, (rows, bare_rows) in enumerate(zip(levels, bare_levels)):
            held = [ens.states, ens.y, ens.z, ens.ztilde, ens.brownian_increments]
            want = [a[:, j] if j < a.shape[1] else None for a in held]
            for name, got, bare, kept in zip(("X", "Y", "Z", "Zt", "dB"), rows, bare_rows, want):
                if kept is None:
                    assert got is None and bare is None and j == len(ens.times) - 1
                else:
                    assert same_bytes(got, kept) and same_bytes(bare, kept), (name, j)
        for got in (states, bare_states):
            assert same_bytes(got, ens.states)
        assert same_bytes(y, ens.y) and same_bytes(exited, ens.exited)
        for got, got_values in ((table, jump_values), (bare_table, bare_jump_values)):
            assert same_bytes(got_values, ens.jump_values)
            for name in EVENT_COLUMNS:
                assert same_bytes(got[name], ens.events[name]), name


def test_stepping_with_jumps_does_not_import_numpy_ma(fresh_python):
    # np.unique imports numpy.ma on first use: 0.74 MB of peak RSS and about
    # 10 ms in a fresh process, for the atoms of a round's jumps
    done = fresh_python(
        """
        import sys
        from fbsde import build_problem, simulate_ensemble, solve_final_value

        built = build_problem("coupled-linear", {"nodes": 41, "steps": 20})
        field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
        ens = simulate_ensemble(field, built.spec, built.x0, 0.05, 50, 7)
        print(len(ens.events) > 0, "numpy.ma" in sys.modules)
        """
    )
    assert done.stdout.strip() == "True False", done.stdout + done.stderr
