"""Command-line front end: solve, simulate, verify, sweep, check-assumptions.

Configuration comes from an optional flat key-value file (``key = value``
lines, dotted section names) overridden by command-line flags.  Every
run writes ``report.json`` with the resolved configuration and seeds;
``solve`` adds ``field.csv``, ``simulate``/``verify`` add ``paths.csv``
and ``sweep`` writes ``sweep.csv``.  Floating-point CSV output uses 17
significant digits so values round-trip losslessly.

The paths are walked in chunks (``paths._CHUNK_PATHS``): each finished
level of a chunk goes into the residual sums, then its rows of
``paths.csv`` are appended and it is dropped.  A run holds one chunk's
states and Y (a ``sweep`` rung its states alone, the states holding the
round-0 normals until each level is stepped), no increments and no Z or
Ztilde over levels, and reports the bits of
``bsde_residual(simulate_ensemble(...))``.  ``field.csv`` is
formatted in a forked helper process while the first chunk is simulated,
and the second half of each chunk's paths in another while this process
formats the first.  The ``field.csv`` helper forms each level's gradient
as it writes that level, so no process holds a gradient table.  At most
one helper is alive at a time, and every helper is reaped before
:func:`run` returns or raises.  The bytes are those of formatting in
one process, which is what happens where ``os.fork`` is missing.  A file
that cannot be written ends the run with an :class:`FbsdeError` naming
it (exit 1).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import BuiltProblem, build_problem
from .errors import ConfigError, FbsdeError
from .pipeline import ResidualReport, _ResidualSums
from .paths import RngStream, _check_start_point, _path_arrays, _path_chunks, _simulate_paths
from .paths import _time_grid
from .problem import AssumptionCheck, AssumptionReport, _shaped, check_ellipticity, check_growth
from .solver import (
    Diagnostics,
    MaxPrincipleResult,
    SolutionField,
    _level_gradient,
    check_max_principle,
    solve_final_value,
)

__all__ = ["RunConfig", "run", "sweep", "main"]

_ENV_OUT_DIR = "FBSDE_OUTPUT_DIR"
_STAGES = ("assumptions", "solve", "simulate", "verify")


# ``%`` formats of CSV cells; ``"%.17g" % v`` is the text of ``format(v, ".17g")``
_INT, _FLOAT = "%d", "%.17g"


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one pipeline run."""

    problem: str
    params: dict = field(default_factory=dict)
    stages: tuple[str, ...] = ("solve",)
    nodes: Optional[int] = None
    steps: Optional[int] = None
    cutoff_width: Optional[float] = None
    paths: int = 256
    dt: Optional[float] = None
    seed: int = 0
    x0: Optional[tuple[float, ...]] = None
    out_dir: Path = Path(".")
    rungs: int = 0

    def validate(self) -> None:
        for stage in self.stages:
            if stage not in _STAGES:
                raise ConfigError(f"unknown stage {stage!r}")
        if "simulate" in self.stages or self.rungs:
            if self.paths < 1:
                raise ConfigError("paths must be >= 1")
            if self.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {self.seed}")


def parse_config_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """Flat ``key = value`` file with dotted sections; returns values with line numbers."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _path_error(path, exc) from None
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = (value, lineno)
    return out


def _path_error(path, exc: Exception) -> ConfigError:
    """A file-system failure on ``path`` as a configuration error that names it."""
    return ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}")


def _out_dir(config: RunConfig) -> Path:
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _path_error(out_dir, exc) from None
    return out_dir


# config-file key -> (RunConfig field, type)
_FILE_KEYS = {
    "problem": ("problem", str),
    "solver.nodes": ("nodes", int),
    "solver.steps": ("steps", int),
    "solver.cutoff_width": ("cutoff_width", float),
    "sim.paths": ("paths", int),
    "sim.dt": ("dt", float),
    "sim.seed": ("seed", int),
    "out.dir": ("out_dir", Path),
    "sweep.rungs": ("rungs", int),
}


def _apply_config_file(path: str | Path, base: dict) -> dict:
    parsed = parse_config_file(path)
    for key, (value, lineno) in parsed.items():
        if key.startswith("param."):
            base.setdefault("params", {})[key[len("param.") :]] = value
            continue
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name, kind = _FILE_KEYS[key]
        try:
            base[name] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return base


def _build(config: RunConfig) -> BuiltProblem:
    """Catalog entry with the run's overrides; a rejected value is a ConfigError.

    ``nodes`` and ``steps`` are the catalog's parameters of those names, so
    setting one also through ``params`` is an error.  A run that simulates
    has its start point and path step checked here.
    """
    params = dict(config.params)
    for key in ("nodes", "steps"):
        value = getattr(config, key)
        if value is None:
            continue
        if key in params:
            raise ConfigError(
                f"--{key} (solver.{key}) and --param {key}= (param.{key}) set the"
                f" same catalog parameter {key!r}; give one"
            )
        params[key] = value
    try:
        built = build_problem(config.problem, params)
        cfg = built.solver_config
        if config.cutoff_width is not None:
            cfg = replace(cfg, cutoff_width=float(config.cutoff_width))
        if "simulate" in config.stages or config.rungs:
            x0 = built.x0 if config.x0 is None else config.x0
            _check_start_point(cfg, x0)
            _time_grid(built.spec.horizon, _path_dt(config, built))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg is not built.solver_config:
        built = replace(built, solver_config=cfg)
    if config.x0 is not None:
        built = replace(built, x0=np.asarray(config.x0, dtype=float))
    return built


def _path_dt(config: RunConfig, built: BuiltProblem) -> float:
    return config.dt if config.dt is not None else built.default_path_dt


def _assumption_report(built: BuiltProblem) -> AssumptionReport:
    meas = built.spec.measure
    mass_check = AssumptionCheck(
        name="B2",
        samples=len(meas),
        worst_margin=-float(meas.total_mass),
        passed=True,
    )
    ell = check_ellipticity(built.spec, built.ellipticity_samples)
    growth = check_growth(built.spec, built.growth_samples, built.envelopes)
    return AssumptionReport(entries=(ell, mass_check, growth))


# most rows formatted at once: a block's columns are held as Python lists,
# and formatting a whole file at once raises peak memory by a quarter
_CSV_BLOCK_ROWS = 1 << 14


def _text(values: np.ndarray) -> np.ndarray:
    """Each value's CSV text, formatted once for reuse in many rows."""
    return np.array([_FLOAT % v for v in values.tolist()], dtype=object)


def _write_csv(
    path: Path, columns: list[tuple[str, str]], blocks, header: bool = True, mode: str = "w"
) -> None:
    """Header (left out if ``header`` is false), then each block formatted with one row template;
    ``mode`` is ``open``'s.

    ``columns`` pairs each column name with its format; a block holds one
    entry per column: a 1-D array (all of equal length) formatted with the
    column's format, an object array of ready text, or a ``str`` shared by
    every row of the block, which goes into the block's template.
    """
    with open(path, mode, encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(name for name, _ in columns) + "\n")
        for block in blocks:
            cells = [
                c.replace("%", "%%") if isinstance(c, str)
                else "%s" if c.dtype == object else fmt
                for (_, fmt), c in zip(columns, block)
            ]
            row_fmt = ",".join(cells) + "\n"
            block = [c for c in block if not isinstance(c, str)]
            for lo in range(0, len(block[0]), _CSV_BLOCK_ROWS):
                cols = [c[lo : lo + _CSV_BLOCK_ROWS].tolist() for c in block]
                fh.writelines(map(row_fmt.__mod__, zip(*cols)))


def _reason(exc: BaseException) -> str:
    """An OS error's reason, or any other error's type and message."""
    if isinstance(exc, OSError):
        return exc.strerror or str(exc)
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _writing(path: Path):
    """An ``OSError`` raised inside as an :class:`FbsdeError` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise FbsdeError(f"{path}: {_reason(exc)}") from None


@contextlib.contextmanager
def _in_child(fn, path: Path, *args):
    """Run ``fn(path, *args)`` in a forked child while the ``with`` body runs.

    Leaving the body reaps the child, whether the body succeeded or
    raised; when the body succeeded and the child failed, the exit
    raises an :class:`FbsdeError` naming ``path`` and the child's error,
    which the child sends back through a pipe.  Where ``os.fork`` is
    missing, ``fn`` runs inline before the body.
    """
    if not hasattr(os, "fork"):
        with _writing(path):
            fn(path, *args)
        yield
        return
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child leaves only through os._exit: no cleanup of the parent's runs twice
        status = 1
        try:
            os.close(read_end)
            fn(path, *args)
            status = 0
        except BaseException as exc:
            os.write(write_end, _reason(exc).encode("utf-8", "replace"))
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        yield
    finally:
        with open(read_end, "rb") as pipe:
            message = pipe.read().decode("utf-8", "replace")
        _, status = os.waitpid(pid, 0)
    if status:
        raise FbsdeError(f"{path}: {message or f'writer ended with wait status {status}'}")


def _write_field_csv(path: Path, field_obj: SolutionField) -> None:
    nodes = field_obj.grid.nodes()
    n = nodes.shape[1]
    m = field_obj.m
    grad_ids = [(c, i) for c in range(m) for i in range(n)]
    columns = (
        [("level", _INT), ("t", _FLOAT)]
        + [(f"x_{i}", _FLOAT) for i in range(n)]
        + [(f"field_{c}", _FLOAT) for c in range(m)]
        + [(f"grad_{c}_{i}", _FLOAT) for c, i in grad_ids]
    )
    node_text = tuple(_text(col) for col in nodes.T)

    def blocks():
        # one block per time level; level and t are the same on every row
        for lev, (t, values) in enumerate(zip(field_obj.times.tolist(), field_obj.values)):
            grad = _level_gradient(field_obj.grid, values)
            yield (
                (_INT % lev, _FLOAT % t)
                + node_text
                + tuple(values.T)
                + tuple(grad[:, c, i] for c, i in grad_ids)
            )

    _write_csv(path, columns, blocks())


def _write_paths_csv(path: Path, times, states, y, events, first: int = 0) -> None:
    """Rows of paths ``first``, ``first + 1``, ...; appended without the header unless first is 0.

    Paths ``[0, P//2)`` formatted here, ``[P//2, P)`` in a child into a part file
    (``path`` + ``.part``), appended once both halves are written and removed on every path out.
    """
    n_paths, n_levels, n = states.shape
    m = y.shape[2]
    columns = (
        [("path", _INT), ("t", _FLOAT)]
        + [(f"x_{i}", _FLOAT) for i in range(n)]
        + [(f"y_{c}", _FLOAT) for c in range(m)]
        + [("jumps", _INT)]
    )
    interval, off = events.interval, np.searchsorted(events.path, np.arange(n_paths + 1))
    time_text = _text(times)

    def blocks(lo: int, hi: int):
        # one block per path; the path id is the same on every row, and the
        # jumps column counts the path's own events in the interval ending at each time
        return (
            (_INT % (first + p), time_text)
            + tuple(states[p].T)
            + tuple(y[p].T)
            + (np.bincount(interval[off[p] : off[p + 1]] + 1, minlength=n_levels),)
            for p in range(lo, hi)
        )

    half = n_paths // 2
    part = path.with_name(path.name + ".part")
    try:
        with _writing(path):
            with _in_child(_write_csv, part, columns, blocks(half, n_paths), False):
                _write_csv(path, columns, blocks(0, half), not first, "a" if first else "w")
            with open(path, "ab") as out, open(part, "rb") as rest:
                shutil.copyfileobj(rest, out)
    finally:
        part.unlink(missing_ok=True)


def _walk_paths(field_obj, x0, dt, n_paths, seed, paths_csv=None, first_chunk=None):
    """The residual report of ``n_paths`` paths (path i consumes ``RngStream(seed, i)``),
    simulated chunk by chunk; each chunk's rows are appended to ``paths_csv``, if given,
    and then dropped.  Without ``paths_csv``, no Y over levels is kept.  ``first_chunk``
    is a context around the stepping of the first chunk.
    """
    spec = field_obj.spec
    times = _time_grid(spec.horizon, dt)
    sums = _ResidualSums(field_obj, times, n_paths)
    for chunk in _path_chunks(n_paths):
        arrays = _path_arrays(len(chunk), len(times), spec, keep_y=paths_csv is not None)
        states, exited, y = arrays
        streams = [RngStream(seed, p) for p in chunk]
        with first_chunk or contextlib.nullcontext():
            events, jumps = _simulate_paths(field_obj, x0, times, streams, arrays, sums.level)
        first_chunk = None
        sums.close(states[:, -1], events, jumps, exited, states)
        if paths_csv is not None:
            _write_paths_csv(paths_csv, times, states, y, events, chunk.start)
        # the chunk goes before the next one is allocated
        del states, exited, y, arrays, events, jumps
    return sums.report()


def _report_dict(
    config: RunConfig,
    built: BuiltProblem,
    assumptions: Optional[AssumptionReport],
    diag: Optional[Diagnostics],
    max_principle: Optional[MaxPrincipleResult],
    residuals: Optional[ResidualReport],
    checks: dict,
) -> dict:
    report: dict = {
        "config": {
            "problem": config.problem,
            "params": {k: str(v) for k, v in config.params.items()},
            "stages": list(config.stages),
            "nodes": built.solver_config.grid.shape,
            "steps": built.solver_config.n_steps,
            "cutoff_width": built.solver_config.cutoff_width,
            "paths": config.paths,
            "dt": _path_dt(config, built),
            "x0": list(np.asarray(built.x0, dtype=float)),
            "out_dir": str(config.out_dir),
        },
        "seeds": {"base_seed": config.seed, "stream_ids": f"0..{config.paths - 1}"},
        "checks": checks,
    }
    if assumptions is not None:
        report["assumptions"] = {
            "passed": assumptions.passed,
            "entries": [asdict(e) for e in assumptions.entries],
        }
    if diag is not None:
        report["diagnostics"] = {
            "sup_u": [float(v) for v in diag.sup_u],
            "sup_gradient": [float(v) for v in diag.sup_gradient],
            "initial_data_sup": diag.initial_data_sup,
            "boundary_data_sup": diag.boundary_data_sup,
            "lambda_rate": max_principle.lambda_rate,
            "coarse_time_grid": diag.coarse_time_grid,
            "constants": asdict(diag.constants),
        }
    if max_principle is not None:
        report["max_principle"] = asdict(max_principle)
    if residuals is not None:
        report["residuals"] = {
            "rms": residuals.rms,
            "mean": [float(v) for v in residuals.mean],
            "stderr": [float(v) for v in residuals.stderr],
            "class_s_norm": residuals.class_s_norm,
            "excluded_paths": residuals.excluded_paths,
            "total_paths": residuals.total_paths,
        }
    return report


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def run(config: RunConfig) -> int:
    """Execute the selected stages; exit status 1 if an enabled check fails."""
    config.validate()
    built = _build(config)
    out_dir = _out_dir(config)

    assumptions = None
    diag = None
    field_obj = None
    max_principle = None
    residuals = None
    checks: dict = {}

    if "assumptions" in config.stages:
        assumptions = _assumption_report(built)
        checks["assumptions_pass"] = assumptions.passed

    needs_solve = bool({"solve", "simulate", "verify"} & set(config.stages))
    if needs_solve:
        field_obj, diag = solve_final_value(
            built.spec, built.solver_config, built.constants
        )
        max_principle = check_max_principle(field_obj, diag)
        checks["max_principle_pass"] = max_principle.passed
        field_writer = contextlib.nullcontext()
        if "solve" in config.stages:
            field_writer = _in_child(_write_field_csv, out_dir / "field.csv", field_obj)
        if "simulate" in config.stages or "verify" in config.stages:
            # field.csv is written while the first chunk of paths is simulated
            residuals = _walk_paths(
                field_obj, built.x0, _path_dt(config, built), config.paths, config.seed,
                out_dir / "paths.csv", field_writer,
            )
            # exits are expected on tight boxes; they are reported, not fatal
            checks["residual_finite"] = bool(np.isfinite(residuals.rms))
        else:
            with field_writer:
                pass

    report = _report_dict(
        config, built, assumptions, diag, max_principle, residuals, checks
    )
    report_path = out_dir / "report.json"
    with _writing(report_path), open(report_path, "w", encoding="utf-8") as fh:
        # strict JSON: a non-finite value that reaches the dump raises
        json.dump(_finite_or_null(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    return 0 if all(checks.values()) else 1


def sweep(config: RunConfig) -> int:
    """Refinement ladder (h, dt) -> (h/2, dt/4); one CSV row per rung."""
    config.validate()
    if config.rungs < 2:
        raise ConfigError("sweep needs at least 2 rungs")
    built0 = _build(config)
    out_dir = _out_dir(config)

    base_nodes = built0.solver_config.grid.shape[0]
    base_steps = built0.solver_config.n_steps
    base_dt = _path_dt(config, built0)

    rows = []
    prev_err = None
    prev_rms = None
    for r in range(config.rungs):
        nodes = (base_nodes - 1) * 2**r + 1
        steps = base_steps * 4**r
        path_dt = base_dt / 2**r
        rung_params = {**config.params, "nodes": nodes, "steps": steps}
        rung_cfg = replace(config, params=rung_params, nodes=None, steps=None, dt=path_dt)
        built = _build(rung_cfg)
        field_obj, _ = solve_final_value(built.spec, built.solver_config, built.constants)

        if built.oracle is not None:
            nodes_xy = field_obj.grid.nodes()
            shape = (nodes_xy.shape[0], field_obj.m)
            err = max(
                float(np.abs(u - _shaped("oracle", built.oracle(float(t), nodes_xy), shape)).max())
                for t, u in zip(field_obj.times, field_obj.values)
            )
        else:
            err = None

        rms = _walk_paths(field_obj, built.x0, path_dt, config.paths, config.seed).rms

        err_ratio = (prev_err / err) if (err and prev_err) else None
        rms_ratio = (prev_rms / rms) if (rms and prev_rms) else None
        rows.append(
            {
                "rung": r,
                "nodes": nodes,
                "steps": steps,
                "h": float(field_obj.grid.spacings[0]),
                "dt_solver": built.spec.horizon / steps,
                "path_dt": path_dt,
                "field_error": err,
                "residual_rms": rms,
                "field_error_ratio": err_ratio,
                "residual_ratio": rms_ratio,
            }
        )
        prev_err = err
        prev_rms = rms

    # a row's keys, in insertion order, are the CSV columns
    sweep_path = out_dir / "sweep.csv"
    with _writing(sweep_path), open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            cells = []
            for v in row.values():
                if v is None:
                    cells.append("")
                elif isinstance(v, int):
                    cells.append(str(v))
                else:
                    cells.append(_FLOAT % v)
            fh.write(",".join(cells) + "\n")
    return 0


def _parse_params(items: list[str]) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--param needs NAME=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbsde",
        description="Decoupling-field solver and jump-diffusion verification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", help="catalog problem name")
    common.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--nodes", type=int, dest="nodes")
    common.add_argument("--steps", type=int)
    common.add_argument("--cutoff-width", type=float, dest="cutoff_width")
    common.add_argument("--out", dest="out_dir", help="output directory")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--paths", type=int, default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--x0", help="comma-separated start point")

    sub.add_parser("solve", parents=[common], help="solve the field, write field.csv")
    sub.add_parser(
        "simulate", parents=[common, sim], help="solve then simulate paths"
    )
    sub.add_parser(
        "verify",
        parents=[common, sim],
        help="assumptions + solve + simulate + checks",
    )
    sweep_p = sub.add_parser("sweep", parents=[common, sim], help="refinement ladder")
    sweep_p.add_argument("--rungs", type=int, default=None)
    sub.add_parser(
        "check-assumptions", parents=[common], help="sampled assumption checks"
    )
    return parser


_COMMAND_STAGES = {
    "solve": ("solve",),
    "simulate": ("solve", "simulate"),
    "verify": ("assumptions", "solve", "simulate", "verify"),
    "check-assumptions": ("assumptions",),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    settings: dict = {"params": {}}
    if args.config:
        settings = _apply_config_file(args.config, settings)
    settings["params"].update(_parse_params(args.param))

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return settings.get(key, default)

    problem = args.problem or settings.get("problem")
    if not problem:
        raise ConfigError("a problem name is required (--problem or config file)")
    out_default = os.environ.get(_ENV_OUT_DIR, "fbsde-out")
    try:
        x0 = tuple(float(v) for v in args.x0.split(",")) if getattr(args, "x0", None) else None
    except ValueError:
        raise ConfigError(f"--x0 needs comma-separated numbers, got {args.x0!r}") from None
    config = RunConfig(
        problem=problem,
        params=settings["params"],
        stages=_COMMAND_STAGES.get(args.command, ()),
        nodes=pick(args.nodes, "nodes", None),
        steps=pick(args.steps, "steps", None),
        cutoff_width=pick(args.cutoff_width, "cutoff_width", None),
        paths=int(pick(getattr(args, "paths", None), "paths", 256)),
        dt=pick(getattr(args, "dt", None), "dt", None),
        seed=int(pick(getattr(args, "seed", None), "seed", 0)),
        x0=x0,
        out_dir=Path(pick(args.out_dir, "out_dir", out_default)),
        rungs=int(pick(getattr(args, "rungs", None), "rungs", 0)),
    )
    return config


def main(argv: Optional[list[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "sweep":
            return sweep(config)
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FbsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
