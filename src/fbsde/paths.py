"""Euler simulation of the decoupled forward jump-diffusion.

One path is driven by Brownian increments and an atomic compensated
Poisson random measure.  Jumps are placed at their exact times: the
Euler substep containing a jump is split there, the jump displacement is
applied to the pre-jump state, and the compensator is folded into the
drift, so the jump integral is compensated.

Every path owns an :class:`RngStream` and consumes it in a fixed order
(jump count, jump times, atom indices, then one standard normal vector
per substep), which makes any subset of an ensemble bit-reproducible
regardless of scheduling or chunking.  An ensemble is one
:class:`Ensemble` of arrays over the path axis with a flat event table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .problem import LevyMeasure, ProblemSpec
from .solver import SolutionField, SolverConfig

__all__ = [
    "RngStream",
    "Ensemble",
    "JumpPath",
    "sample_poisson_measure",
    "euler_increment",
    "simulate_ensemble",
]


@dataclass(frozen=True)
class RngStream:
    """Seed pair identifying one reproducible random stream."""

    seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([int(self.seed), int(self.stream_id)])
        )


@dataclass(frozen=True)
class JumpPath:
    """Read-only, copy-free view of one path of an :class:`Ensemble`."""

    times: np.ndarray  # (N+1,)
    states: np.ndarray  # (N+1, n)
    brownian_increments: np.ndarray  # (N, n)
    events: np.recarray  # this path's rows of the event table
    exited: bool

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1


@dataclass(frozen=True)
class Ensemble:
    """Forward paths on one uniform time grid, as arrays over the path axis.

    ``states[p, j]`` is the post-jump value of path p at ``times[j]``;
    ``brownian_increments[p, j]`` is its total Brownian increment over
    ``(times[j], times[j+1])``.  The convention at zero is that the
    pre-jump value equals the initial point.  ``events`` is one record
    array sorted by (path, time), with the columns ``path``, ``time``
    (exact jump time), ``atom``, ``interval`` (the uniform interval
    containing the jump), ``x_before`` and ``x_after`` (the states around
    it).  All arrays are read-only; ``ens[i]`` is a view of path i.
    """

    times: np.ndarray  # (L,)
    states: np.ndarray  # (P, L, n)
    brownian_increments: np.ndarray  # (P, L-1, n)
    exited: np.ndarray  # (P,) bool
    events: np.recarray  # (E,)

    def __post_init__(self):
        if not np.all(np.isfinite(self.states)):
            raise ValueError("path states must be finite")
        path, time = self.events.path, self.events.time
        later = (path[1:] > path[:-1]) | ((path[1:] == path[:-1]) & (time[1:] > time[:-1]))
        if not np.all(later):
            raise ValueError("jump times must be strictly increasing along each path")
        for arr in (self.times, self.states, self.brownian_increments, self.exited, self.events):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, i: int) -> JumpPath:
        i = range(len(self))[i]
        lo, hi = self.event_offsets[i], self.event_offsets[i + 1]
        return JumpPath(
            times=self.times,
            states=self.states[i],
            brownian_increments=self.brownian_increments[i],
            events=self.events[lo:hi],
            exited=bool(self.exited[i]),
        )

    @cached_property
    def event_offsets(self) -> np.ndarray:
        """Path p owns the event rows ``event_offsets[p]:event_offsets[p + 1]``."""
        return np.searchsorted(self.events.path, np.arange(len(self) + 1))

    def event_rows(self, index: np.ndarray) -> np.ndarray:
        """Event-table rows of the paths ``index``, path by path."""
        off = self.event_offsets
        counts = off[index + 1] - off[index]
        first = np.cumsum(counts) - counts
        return np.repeat(off[index] - first, counts) + np.arange(counts.sum())

    def take(self, index) -> Ensemble:
        """The paths ``index``, in that order, as a new ensemble."""
        index = np.asarray(index, dtype=np.int64)
        events = self.events[self.event_rows(index)]
        events["path"] = np.repeat(
            np.arange(len(index)), np.diff(self.event_offsets)[index]
        )
        return Ensemble(
            times=self.times,
            states=self.states[index],
            brownian_increments=self.brownian_increments[index],
            exited=self.exited[index],
            events=events,
        )

    @staticmethod
    def concat(parts: Sequence[Ensemble]) -> Ensemble:
        """The paths of ``parts`` one after another, on their shared time grid."""
        if len(parts) == 1:
            return parts[0]
        times = parts[0].times
        if not all(np.array_equal(p.times, times) for p in parts):
            raise ValueError("all ensembles must share one time grid")
        events = np.concatenate([p.events for p in parts]).view(np.recarray)
        first_path = np.cumsum([0] + [len(p) for p in parts[:-1]])
        events["path"] += np.repeat(first_path, [len(p.events) for p in parts])
        return Ensemble(
            times=times,
            states=np.concatenate([p.states for p in parts]),
            brownian_increments=np.concatenate([p.brownian_increments for p in parts]),
            exited=np.concatenate([p.exited for p in parts]),
            events=events,
        )


def _draw_jump_schedule(
    measure: LevyMeasure, horizon: float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Jump times and atom indices over [0, horizon], in draw order."""
    count = int(gen.poisson(measure.total_mass * horizon))
    taus = np.sort(gen.random(count) * horizon)
    cum = np.cumsum(measure.weights) / measure.total_mass
    atoms = np.minimum(
        np.searchsorted(cum, gen.random(count), side="right"), len(measure) - 1
    )
    return taus, atoms.astype(np.int64)


def sample_poisson_measure(
    measure: LevyMeasure, horizon: float, rng: RngStream
) -> list[tuple[float, int]]:
    """Draw the atomic Poisson random measure on [0, horizon].

    The jump count is Poisson(nu(Z) * horizon), times are uniform and
    sorted, and atoms are drawn with probabilities proportional to the
    weights.
    """
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    taus, atoms = _draw_jump_schedule(measure, horizon, rng.generator())
    return [(float(t), int(k)) for t, k in zip(taus, atoms)]


def euler_increment(
    field: SolutionField,
    spec: ProblemSpec,
    t: float,
    x: np.ndarray,
    db: np.ndarray,
    delta: float,
) -> np.ndarray:
    """One drift+diffusion Euler update over a jump-free substep.

    The drift is the coefficient of the decoupled equation: the problem
    drift evaluated through the field (value, gradient composed with the
    diffusion, nonlocal table) minus the jump compensator.
    """
    x = np.atleast_2d(x)
    y = field.value(t, x)
    sig = np.asarray(spec.diffusion(t, x, y), dtype=float).reshape(
        x.shape[0], spec.n, spec.n
    )
    grad = field.gradient(t, x)
    zarg = np.einsum("bmi,bij->bmj", grad, sig)
    wtab = field.nonlocal_table(t, x, u_here=y)
    fval = np.asarray(spec.drift(t, x, y, zarg, wtab), dtype=float).reshape(
        x.shape[0], spec.n
    )
    drift = fval - spec.phi_integral(t, x, y)
    return x + drift * delta + np.einsum("bij,bj->bi", sig, db)


def _time_grid(horizon: float, dt: float) -> np.ndarray:
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValueError(f"dt {dt} must divide the horizon {horizon}")
    return np.linspace(0.0, horizon, n_steps + 1)


def _check_start_point(config: SolverConfig, x0) -> np.ndarray:
    """``x0`` as an (n,) array; it must lie in the inner region of the grid."""
    grid = config.grid
    x0 = np.asarray(x0, dtype=float)
    if x0.size != grid.ndim:
        raise ValueError(f"x0 must have {grid.ndim} coordinate(s), got {x0.size}")
    x0 = x0.reshape(grid.ndim)
    for ax in range(grid.ndim):
        if not grid.lower[ax] <= x0[ax] <= grid.upper[ax]:
            raise ValueError("x0 must lie inside the grid box")
    if config.dirichlet_data is None:
        width = config.cutoff_width
        for ax in range(grid.ndim):
            dist = min(x0[ax] - grid.lower[ax], grid.upper[ax] - x0[ax])
            if dist < width:
                raise ValueError("x0 must lie in the inner (cutoff = 1) region")
    return x0


def _outside_box(grid, x: np.ndarray) -> np.ndarray:
    lower = np.array(grid.lower)
    upper = np.array(grid.upper)
    return np.any((x < lower) | (x > upper), axis=-1)


def _simulate_paths(
    field: SolutionField,
    spec: ProblemSpec,
    x0: np.ndarray,
    times: np.ndarray,
    streams: Sequence[RngStream],
) -> Ensemble:
    n_paths = len(streams)
    n = spec.n
    n_steps = times.shape[0] - 1
    horizon = spec.horizon
    meas = spec.measure

    # draw everything up front, one stream per path, fixed order
    gens = [s.generator() for s in streams]
    schedules = [_draw_jump_schedule(meas, horizon, gen) for gen in gens]
    max_jumps = max((len(s[0]) for s in schedules), default=0)
    normals = np.zeros((n_paths, n_steps + max_jumps, n))
    for p, gen in enumerate(gens):
        total = n_steps + len(schedules[p][0])
        normals[p, :total] = gen.standard_normal((total, n))

    jumps_by_interval: dict[int, list[tuple[int, float, int]]] = {}
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
    events: list[tuple] = []  # rows of the event table, in simulation order
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
            x_cur[rows] = euler_increment(field, spec, t0, x_cur[rows], db, delta)
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
                x = euler_increment(field, spec, t_a, x, db[None, :], sub)
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
            x = euler_increment(field, spec, t_a, x, db[None, :], sub)
            db_total += db
            x_cur[p] = x[0]
            increments[p, j] = db_total

        states[:, j + 1] = x_cur
        exited |= _outside_box(field.grid, x_cur)

    # each path's rows are appended in time order, so a stable sort by path
    # gives the (path, time) order
    dtype = [("path", np.int64), ("time", float), ("atom", np.int64), ("interval", np.int64)]
    dtype += [("x_before", float, (n,)), ("x_after", float, (n,))]
    table = np.array(events, dtype=dtype).view(np.recarray)
    table = table[np.argsort(table.path, kind="stable")]
    return Ensemble(times, states, increments, exited, table)


def simulate_ensemble(
    field: SolutionField,
    spec: ProblemSpec,
    x0: np.ndarray,
    dt: float,
    n_paths: int,
    base_seed: int,
    chunk_size: int = 4096,
) -> Ensemble:
    """Simulate ``n_paths`` paths of the decoupled forward equation.

    Path i consumes ``RngStream(base_seed, i)``, so the ensemble does not
    depend on ``chunk_size``.  ``dt`` must divide the horizon; ``x0`` must
    lie in the inner region of the grid.  A path leaving the box is
    flagged, not fatal.
    """
    if not isinstance(base_seed, (int, np.integer)) or base_seed < 0:
        raise ValueError(f"base_seed must be a non-negative integer, got {base_seed!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = _check_start_point(field.config, x0)
    times = _time_grid(spec.horizon, dt)
    parts = []
    for start in range(0, n_paths, chunk_size):
        ids = range(start, min(start + chunk_size, n_paths))
        streams = [RngStream(base_seed, p) for p in ids]
        parts.append(_simulate_paths(field, spec, x0, times, streams))
    return Ensemble.concat(parts)
