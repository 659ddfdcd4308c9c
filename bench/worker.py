"""One benchmark iteration in a fresh Python process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 \
        --t0 MONOTONIC --scratch DIR

``--t0`` is the parent's ``time.monotonic()`` taken just before it
started this process; Linux's monotonic clock is shared by all
processes, so ``wall_s`` and ``setup_s`` count interpreter start-up and
imports.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "verify-1d": workloads.verify_1d,
    "solve-3d": workloads.solve_3d,
    "mc-2d": workloads.mc_2d,
}


def _import_program() -> None:
    import fbsde

    origin = Path(fbsde.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"fbsde imported from {origin}, not from {ROOT / 'src'}")


def _program_environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _first_call_probe(sink: list) -> list:
    """Record when ``solve_final_value`` is first entered; returns the undo list."""
    import fbsde.solver

    original = fbsde.solver.solve_final_value

    def probe(*args, **kwargs):
        if not sink:
            sink.append(time.monotonic())
        return original(*args, **kwargs)

    return tracing.rebind(original, probe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    _import_program()
    solve_started: list = []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        undo = _first_call_probe(solve_started)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.scratch)
    finally:
        if tracer is not None:
            tracer.remove()
        else:
            tracing.restore(undo)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": outcome.t_last_output - args.t0,
        "setup_s": solve_started[0] - args.t0 if solve_started else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_name": outcome.accuracy_name,
        "accuracy": outcome.accuracy,
        "checks": outcome.checks,
        "counts": outcome.counts,
        "fingerprint": outcome.fingerprint,
    }
    if tracer is not None:
        layer = tracer.metrics()
        for key in ("cli.paths_csv_bytes", "cli.field_csv_bytes"):
            layer[key] = outcome.counts.get(key, 0)
        record["layer"] = layer
        record["spans"] = tracer.spans
    record["program"] = _program_environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
