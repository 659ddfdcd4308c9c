"""Run one fbsde benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-1d --seed 7 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src/`` directory.  One run repeats iterations of the workload,
each in a fresh Python process started one at a time, until
``--seconds`` are used.  The first iteration is a warm-up (page cache,
byte-code caches) whose timings are dropped; its checks still count.
Every iteration uses the same seed, so its outputs must repeat exactly.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the iterations.  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics (medians over the
traced ones) plus ``trace.overhead_s``, the median over neighbouring
(untraced, traced) pairs of the traced minus the untraced wall time.

A readable summary goes to standard error; the full record (seed,
environment, every iteration, quartiles) goes to
``.bench_out/<workload>-seed<N>-trace<T>-<pid>.json``; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("verify-1d", "solve-3d", "mc-2d")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# a run must end within 180 s; stop starting iterations well before
RUN_LIMIT_S = 150.0


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def environment(program: dict) -> dict:
    """Machine, thread settings and source revision, plus the worker's ``program``."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **program,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }


def spawn(args: list[str], scratch: Path, timeout: float) -> tuple[dict | None, str]:
    """Start one worker process, wait for it, return (record, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), *args, "--scratch", str(scratch), "--t0", repr(t0)]
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); with one sample all three are that sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: str, seed: int, seconds: float, traced: bool, scratch: Path):
    """One untimed warm-up iteration, then iterate until ``seconds`` are used.

    The warm-up fills the page cache and byte-code caches; its checks
    still count.  Returns (records, errors).
    """
    base = ["--workload", workload, "--seed", str(seed)]
    modes = (0, 1) if traced else (0,)
    records, errors = [], []
    start = time.monotonic()
    i = -1  # the warm-up
    while True:
        mode = modes[max(i, 0) % len(modes)]
        left = RUN_LIMIT_S - (time.monotonic() - start)
        rec, error = spawn(base + ["--trace", str(mode)], scratch, timeout=max(left, 1.0))
        shutil.rmtree(scratch, ignore_errors=True)
        if rec is None:
            errors.append(error)
            break
        rec["warmup"] = i < 0
        records.append(rec)
        if i < 0:
            start = time.monotonic()
        i += 1
        elapsed = time.monotonic() - start
        per_iteration = elapsed / max(i, 1)
        if i >= len(modes) and elapsed + per_iteration > seconds:
            break
        if elapsed + 2.0 * per_iteration > RUN_LIMIT_S:
            break
    return records, errors


def run_checks(records: list[dict], errors: list[str]) -> dict[str, list[bool]]:
    """Every check outcome, grouped by name, including the run-level ones."""
    checks: dict[str, list[bool]] = {"iteration_completed": [True] * len(records)}
    checks["iteration_completed"] += [False] * len(errors)
    for rec in records:
        for name, passed in rec["checks"].items():
            checks.setdefault(name, []).append(bool(passed))
    if records:
        # same seed in every iteration, traced or not: outputs must repeat
        checks["accuracy_repeatable"] = [
            len({rec["accuracy"] for rec in records}) == 1
        ]
        if records[0]["fingerprint"]:
            checks["paths_csv_sha256_repeatable"] = [
                len({rec["fingerprint"] for rec in records}) == 1
            ]
    return checks


def summarize(records: list[dict], spec: dict, traced: bool) -> dict[str, dict]:
    """Metric name -> {value, unit, q1, q3, n} for the requested metric set."""
    out = {}
    if not traced:
        plain = [r for r in records if r["trace"] == 0]
        series = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "accuracy_err": [r["accuracy"] for r in plain],
        }
        metrics = spec["end_to_end"]
    else:
        layered = [r for r in records if r["trace"] == 1]
        series = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_s":
                continue
            series[name] = [_layer_value(r["layer"], name) for r in layered]
        # iterations alternate untraced, traced: pairing neighbours cancels
        # most of the machine's drift from the difference
        series["trace.overhead_s"] = [
            statistics.median(
                b["wall_s"] - a["wall_s"]
                for a, b in zip(records[::2], records[1::2])
                if (a["trace"], b["trace"]) == (0, 1)
            )
        ]
        metrics = spec["per_layer"]
    for metric in metrics:
        values = series[metric["name"]]
        q1, med, q3 = quartiles(values)
        out[metric["name"]] = {
            "value": med,
            "unit": metric["unit"],
            "q1": q1,
            "q3": q3,
            "n": len(values),
        }
    return out


def _single(value: float, n: int) -> dict:
    return {"value": value, "unit": "1", "q1": value, "q3": value, "n": n}


def _layer_value(layer: dict, name: str) -> float:
    if name == "paths.rows_per_increment":
        calls = layer.get("paths.euler_increment.calls", 0)
        return layer.get("paths.euler_increment.rows", 0) / calls if calls else 0.0
    return layer.get(name, 0)


def _print_summary(head: dict, summary: dict, reported: dict) -> None:
    err = sys.stderr
    print(
        f"workload {head['workload']}  seed {head['seed']}  trace {head['trace']}  "
        f"iterations {head['iterations']}",
        file=err,
    )
    env = head["environment"]
    print(
        "env: "
        + ", ".join(f"{k}={v}" for k, v in env.items() if k != "thread_env")
        + f", threads={env['thread_env']}",
        file=err,
    )
    for name, m in {**summary, **reported}.items():
        print(
            f"  {name:<42} {m['value']:<14.6g} {m['unit']:<8} "
            f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}",
            file=err,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "fbsde" / "__init__.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a source checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    try:
        records, errors = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    timed = [r for r in records if not r["warmup"]]
    if {r["trace"] for r in timed} != {0, args.trace}:
        print("error: too few iterations completed:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    checks = run_checks(records, errors)
    attempted = sum(len(v) for v in checks.values())
    failed = sum(v.count(False) for v in checks.values())
    summary = summarize(timed, spec, bool(args.trace))

    # reported by name, not gated: the accuracy figure under its own name,
    # and two fractions that are 0 on a healthy commit
    plain = [r for r in timed if r["trace"] == 0]
    exited = sum(r["counts"].get("paths_exited", 0) for r in plain)
    simulated = sum(r["counts"].get("paths_total", 0) for r in plain)
    reported = {
        "check_fail_frac": _single(failed / attempted, attempted),
        "exit_path_frac": _single(exited / simulated if simulated else 0.0, simulated),
    }
    if not args.trace:
        reported[records[0]["accuracy_name"]] = summary["accuracy_err"]

    head = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "iterations": len(timed),
        "environment": environment(records[-1]["program"]),
    }
    full = {
        **head,
        "metrics": summary,
        "reported": reported,
        "checks": {k: {"attempted": len(v), "failed": v.count(False)} for k, v in checks.items()},
        "errors": errors,
        "records": [{k: v for k, v in r.items() if k != "spans"} for r in records],
        "spans": next((r["spans"] for r in reversed(records) if r.get("spans")), []),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (OUT_DIR / name).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    _print_summary(head, summary, reported)
    for name, outcome in checks.items():
        if False in outcome:
            print(f"  check failed: {name} ({outcome.count(False)}/{len(outcome)})", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in summary.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
