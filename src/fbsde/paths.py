"""Euler simulation of the decoupled forward jump-diffusion.

One path is driven by Brownian increments and an atomic compensated
Poisson random measure.  Jumps are placed at their exact times: the
Euler substep containing a jump is split there, the jump displacement is
applied to the pre-jump state, and the compensator is folded into the
drift, so the jump integral is compensated.

The paths of a chunk advance in event-synchronous rounds: in each grid
interval, round r moves every path short of the interval's end to its
next stop (its next jump, or that end) in one batched Euler update, then
applies the round's jumps, so each path gets its own arithmetic.

Every path owns an :class:`RngStream` and consumes it in a fixed order
(jump count, jump times, atom indices, then one standard normal vector
per substep), which makes any subset of an ensemble bit-reproducible
regardless of scheduling or chunking.  The round-0 normals are drawn up
front into the state rows after the first level, and each is read out
before its level's states replace it; a level's Brownian increment is
summed in one (P, n) array, so no increment over levels is held unless
the caller stores it.  An ensemble is one :class:`Ensemble` of arrays
over the path axis with a flat event table.

The backward triple is read off the field while simulating: round 0 of
interval j queries ``SolutionField.backward_rows`` at (t_j, X_j) for
every path, which gives the Euler drift and is also level j of (Y, Z,
Ztilde); the round after a jump queries the post-jump state, whose Y
gives the jump of Y.  Only the terminal level takes a query of its own.
Each finished level, Z and Ztilde included, goes to a visitor, which
stores it in the ensemble or, on the command line, adds it to the
residual sums, so no Z or Ztilde over levels is held.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .operators import all_finite
from .problem import LevyMeasure, ProblemSpec
from .solver import SolutionField, SolverConfig

__all__ = [
    "RngStream",
    "Ensemble",
    "JumpPath",
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


_PATH_AXIS_ARRAYS = ("states", "brownian_increments", "exited", "y", "z", "ztilde")


@dataclass(frozen=True)
class Ensemble:
    """Forward paths on one uniform time grid and their (Y, Z, Ztilde),
    as arrays over the path axis.

    ``states[p, j]`` is the post-jump value of path p at ``times[j]``;
    ``brownian_increments[p, j]`` is its total Brownian increment over
    ``(times[j], times[j+1])``.  The convention at zero is that the
    pre-jump value equals the initial point.  ``events`` is one record
    array sorted by (path, time), with the columns ``path``, ``time``
    (exact jump time), ``atom``, ``interval`` (the uniform interval
    containing the jump), ``x_before`` and ``x_after`` (the states around
    it).  ``y``, ``z`` and ``ztilde`` hold ``field``'s (Y, Z, Ztilde) at
    (t_j, X^p_j), Ztilde being the per-atom table; ``jump_values[e]`` is
    the jump u(t, x_after) - u(t, x_before) of Y at event row e.  All
    arrays are read-only; ``ens[i]`` (and iteration) is a view of path i,
    and ``event_offsets`` gives each path's event rows.
    """

    times: np.ndarray  # (L,)
    states: np.ndarray  # (P, L, n)
    brownian_increments: np.ndarray  # (P, L-1, n)
    exited: np.ndarray  # (P,) bool
    events: np.recarray  # (E,)
    field: SolutionField
    y: np.ndarray  # (P, L, m)
    z: np.ndarray  # (P, L, m, n)
    ztilde: np.ndarray  # (P, L, K, m)
    jump_values: np.ndarray  # (E, m)

    def __post_init__(self):
        if not all_finite(self.states):
            raise ValueError("path states must be finite")
        path, time = self.events.path, self.events.time
        later = (path[1:] > path[:-1]) | ((path[1:] == path[:-1]) & (time[1:] > time[:-1]))
        if not np.all(later):
            raise ValueError("jump times must be strictly increasing along each path")
        for name in _PATH_AXIS_ARRAYS + ("times", "events", "jump_values"):
            getattr(self, name).flags.writeable = False

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


def _atom_cdf(measure: LevyMeasure) -> np.ndarray:
    """Cumulative atom probabilities, the table :func:`_draw_jump_schedule` searches."""
    return np.cumsum(measure.weights) / measure.total_mass


def _draw_jump_schedule(
    measure: LevyMeasure, cdf: np.ndarray, horizon: float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the atomic Poisson random measure on [0, horizon]: jump times
    and atom indices, in draw order.

    The jump count is Poisson(nu(Z) * horizon), the times are uniform and
    sorted, and the atoms are drawn with probabilities proportional to the
    weights; ``cdf`` is :func:`_atom_cdf` of ``measure``.
    """
    count = int(gen.poisson(measure.total_mass * horizon))
    taus = np.sort(gen.random(count) * horizon)
    atoms = np.minimum(
        np.searchsorted(cdf, gen.random(count), side="right"), len(measure) - 1
    )
    return taus, atoms.astype(np.int64)


def euler_increment(
    backward: tuple,
    spec: ProblemSpec,
    t,
    x: np.ndarray,
    db: np.ndarray,
    delta,
) -> np.ndarray:
    """One drift+diffusion Euler update over a jump-free substep.

    The drift is the coefficient of the decoupled equation: the problem
    drift evaluated at the (Y, Z, Ztilde) rows minus the jump compensator.
    ``backward`` is ``field.backward_rows(t, x)`` of a field of ``spec``:
    the caller queries the field.  ``t`` and ``delta`` are scalars or one
    start time and one substep per row.
    """
    x = np.atleast_2d(x)
    y, z, ztilde, sig = backward
    drift = spec.f(t, x, y, z, ztilde) - spec.phi_integral(t, x, y)
    return x + drift * np.reshape(delta, (-1, 1)) + np.einsum("bij,bj->bi", sig, db)


def _time_grid(horizon: float, dt: float) -> np.ndarray:
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = horizon / dt
    if not steps < 2.0**62:  # numpy holds fewer items, and an infinite quotient is no count
        raise ValueError(f"dt {dt} makes {steps:.3g} time steps, too many to hold")
    n_steps = int(round(steps))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValueError(f"dt {dt} must divide the horizon {horizon}")
    try:
        return np.linspace(0.0, horizon, n_steps + 1)
    except MemoryError:
        raise ValueError(f"dt {dt} makes {n_steps} time steps, too many to hold") from None


def _check_start_point(config: SolverConfig, x0) -> np.ndarray:
    """``x0`` as an (n,) array; it must lie in the inner region of the grid."""
    grid = config.grid
    x0 = np.asarray(x0, dtype=float)
    if x0.size != grid.ndim:
        raise ValueError(f"x0 must have {grid.ndim} coordinate(s), got {x0.size}")
    x0 = x0.reshape(grid.ndim)
    for ax in range(grid.ndim):
        if not np.isfinite(x0[ax]):
            raise ValueError(f"x0 coordinate {ax} must be finite, got {x0[ax]}")
        if not grid.lower[ax] <= x0[ax] <= grid.upper[ax]:
            raise ValueError("x0 must lie inside the grid box")
    if config.dirichlet_data is None:
        width = config.cutoff_width
        for ax in range(grid.ndim):
            dist = min(x0[ax] - grid.lower[ax], grid.upper[ax] - x0[ax])
            if dist < width:
                raise ValueError("x0 must lie in the inner (cutoff = 1) region")
    return x0


def _draw_streams(
    streams: Sequence[RngStream],
    measure: LevyMeasure,
    times: np.ndarray,
    round0_normals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each stream's jump schedule, then one normal vector per substep.

    A path's substeps are, in draw order, round 0 of each interval and then
    one after each of its jumps in that interval.  The round-0 normals are
    written into ``round0_normals`` (P, N, n), whose rows of one path must
    be contiguous, such as ``states[:, 1:]``; the rest are returned, one
    per jump.  Returns counts, then the jump times, atoms and after-jump
    normals in (path, time) order.
    """
    n_steps, n = round0_normals.shape[1:]
    counts = np.zeros(len(streams), dtype=np.int64)
    taus, atoms, after_jump = [], [], [np.empty((0, n))]
    cdf = _atom_cdf(measure)
    for p, stream in enumerate(streams):
        # one generator at a time: a chunk's generators outweigh its other temporaries
        gen = stream.generator()
        path_taus, path_atoms = _draw_jump_schedule(measure, cdf, float(times[-1]), gen)
        if not len(path_taus):
            gen.standard_normal(out=round0_normals[p])
            continue
        counts[p] = len(path_taus)
        taus += path_taus.tolist()
        atoms += path_atoms.tolist()
        draws = gen.standard_normal((n_steps + counts[p], n))
        # the jump of rank i (from 0) in interval j is followed by draw j + i + 1
        after = np.zeros(draws.shape[0], dtype=bool)
        after[_jump_intervals(times, path_taus) + np.arange(1, counts[p] + 1)] = True
        round0_normals[p] = draws[~after]
        after_jump.append(draws[after])
    taus = np.array(taus, dtype=float)
    return counts, taus, np.array(atoms, dtype=np.int64), np.concatenate(after_jump)


def _jump_intervals(times: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The interval (t_j, t_{j+1}] holding each jump time in [0, T]; 0 is in the first."""
    return np.maximum(np.searchsorted(times, taus) - 1, 0)


def _simulate_paths(
    field: SolutionField,
    x0: np.ndarray,
    times: np.ndarray,
    streams: Sequence[RngStream],
    out: Sequence[np.ndarray],
    visit: Callable,
) -> tuple[np.recarray, np.ndarray]:
    """Step the paths of ``streams``, writing their rows of ``out``, the :func:`_path_arrays`
    (Y None: not kept).  The round-0 normals wait in ``states[:, 1:]``; each finished level
    goes to ``visit(j, X_j, Y_j, Z_j, Ztilde_j, dB_j)`` (dB_L None), X_j a view of the states.

    Returns their event table, paths numbered from 0, and its jump values.
    """
    states, exited, y = out
    spec = field.spec
    n_paths = len(streams)
    n = spec.n
    n_steps = times.shape[0] - 1
    # the round-0 normals wait in the state rows that replace them
    counts, taus, atoms, after_jump = _draw_streams(streams, spec.measure, times, states[:, 1:])

    # the event table is complete but for the states around each jump,
    # which are written when the jump happens
    dtype = [("path", np.int64), ("time", float), ("atom", np.int64), ("interval", np.int64)]
    dtype += [("x_before", float, (n,)), ("x_after", float, (n,))]
    table = np.zeros(len(taus), dtype=dtype).view(np.recarray)
    table.path = np.repeat(np.arange(n_paths), counts)
    table.time, table.atom, table.interval = taus, atoms, _jump_intervals(times, taus)
    jump_values = np.empty((len(taus), spec.m))
    # path p's next event row; its rows end at last_event[p]; row -1 is "none left"
    last_event = np.cumsum(counts)
    next_event = last_event - counts
    event_time = np.append(taus, np.inf)
    # the columns as plain arrays: a record-array attribute costs a lookup per read
    event_atom, event_before, event_after = table.atom, table.x_before, table.x_after

    x_cur = np.tile(np.asarray(x0, dtype=float).reshape(1, n), (n_paths, 1))
    states[:, 0] = x_cur

    for j in range(n_steps):
        # round r moves every path still short of t_{j+1} to its next stop,
        # its next jump in this interval or t_{j+1}, then applies the jumps
        rows = np.arange(n_paths)
        t_start = np.full(n_paths, times[j])
        backward = field.backward_rows(t_start, x_cur)
        y_j, level = backward[0], backward[1:3]
        if y is not None:
            y[:, j] = y_j
        normals = states[:, j + 1].copy()
        db_j = np.zeros((n_paths, n))
        while True:
            ev = np.where(next_event[rows] < last_event[rows], next_event[rows], -1)
            # the next jump lies in this interval iff it is no later than t_{j+1}
            jumps = event_time[ev] <= times[j + 1]
            stop = np.where(jumps, event_time[ev], times[j + 1])
            sub = stop - t_start
            db = np.sqrt(sub)[:, None] * normals
            x_cur[rows] = euler_increment(backward, spec, t_start, x_cur[rows], db, sub)
            db_j[rows] += db

            rows, ev, t_start = rows[jumps], ev[jumps], stop[jumps]
            if not rows.size:
                break
            x_before = x_cur[rows]
            y_before = field.value(t_start, x_before)
            shift = np.empty_like(x_before)
            ev_atom = event_atom[ev]
            # ascending atoms without np.unique, which imports numpy.ma on first use
            for k in np.flatnonzero(np.bincount(ev_atom)):
                at = ev_atom == k
                shift[at] = spec.phi(t_start[at], x_before[at], y_before[at], k)
            event_before[ev] = x_before
            event_after[ev] = x_cur[rows] = x_before + shift
            next_event[rows] += 1
            # the next round starts at the post-jump states: its Y is u(t, x_after)
            backward = field.backward_rows(t_start, x_cur[rows])
            jump_values[ev] = backward[0] - y_before
            normals = after_jump[ev]

        states[:, j + 1] = x_cur
        exited |= np.any((x_cur < field.grid.lower) | (x_cur > field.grid.upper), axis=1)
        visit(j, states[:, j], y_j, *level, db_j)

    if not all_finite(states):
        raise ValueError("path states must be finite")
    y_j, *level = field.backward_rows(np.full(n_paths, times[-1]), x_cur)[:3]
    if y is not None:
        y[:, -1] = y_j
    visit(n_steps, states[:, -1], y_j, *level, None)
    return table, jump_values


_CHUNK_PATHS = 4096  # paths stepped together: bounds one chunk's temporaries and events


def _path_chunks(n_paths: int) -> Iterator[range]:
    """The paths in runs of at most ``_CHUNK_PATHS``, made one at a time."""
    return (range(lo, min(lo + _CHUNK_PATHS, n_paths)) for lo in range(0, n_paths, _CHUNK_PATHS))


def _path_arrays(n_paths: int, n_levels: int, spec: ProblemSpec, keep_y: bool = True) -> tuple:
    """Empty states (P, L, n), exited (P,) and y (P, L, m), or None for y unless ``keep_y``."""
    y = np.empty((n_paths, n_levels, spec.m)) if keep_y else None
    return np.empty((n_paths, n_levels, spec.n)), np.zeros(n_paths, dtype=bool), y


def simulate_ensemble(
    field: SolutionField,
    spec: ProblemSpec,
    x0: np.ndarray,
    dt: float,
    n_paths: int,
    base_seed: int,
) -> Ensemble:
    """Simulate ``n_paths`` paths of the decoupled forward equation, with
    their (Y, Z, Ztilde) read off ``field``.

    Paths are stepped in chunks of at most ``_CHUNK_PATHS``, each writing
    its rows of the whole-ensemble arrays; path i consumes
    ``RngStream(base_seed, i)``, so the ensemble does not depend on the
    chunking.  ``dt`` must divide the horizon; ``x0`` must lie in the inner
    region of the grid; ``spec`` must be ``field.spec``.  A path leaving
    the box is flagged, not fatal.
    """
    if field.spec is not spec:
        raise ValueError("field and spec must share the same ProblemSpec")
    if isinstance(base_seed, bool) or not isinstance(base_seed, numbers.Integral) or base_seed < 0:
        raise ValueError(f"base_seed must be a non-negative integer, got {base_seed!r}")
    if isinstance(n_paths, bool) or not isinstance(n_paths, numbers.Integral):
        raise ValueError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = _check_start_point(field.config, x0)
    times = _time_grid(spec.horizon, dt)
    n_levels = times.shape[0]
    states, exited, y = arrays = _path_arrays(n_paths, n_levels, spec)
    increments = np.empty((n_paths, n_levels - 1, spec.n))
    z = np.empty((n_paths, n_levels, spec.m, spec.n))
    ztilde = np.empty((n_paths, n_levels, len(spec.measure), spec.m))
    tables, jump_values = [], []
    for chunk in _path_chunks(n_paths):
        rows = slice(chunk.start, chunk.stop)

        def store(j, x, y_j, z_j, ztilde_j, db):
            z[rows, j], ztilde[rows, j] = z_j, ztilde_j
            if db is not None:
                increments[rows, j] = db

        streams = [RngStream(base_seed, p) for p in chunk]
        table, values = _simulate_paths(field, x0, times, streams, [a[rows] for a in arrays], store)
        table.path += chunk.start
        tables.append(table)
        jump_values.append(values)
    return Ensemble(
        times=times,
        events=np.concatenate(tables).view(np.recarray),
        field=field,
        jump_values=np.concatenate(jump_values),
        **dict(zip(_PATH_AXIS_ARRAYS, (states, increments, exited, y, z, ztilde))),
    )
