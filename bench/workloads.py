"""The three benchmark workloads, each one iteration in the calling process.

Every workload function takes the workload seed and a scratch directory
and returns an :class:`Outcome`: the time its last output was produced,
its accuracy figure, the checks it ran and a few outcome counts.  The functions import ``fbsde`` themselves,
so the import cost lands inside the measured set-up time.

Why these three (see ``bench/README.md`` for the layer map):

* ``verify-1d`` is the real ``fbsde verify`` command on ``coupled-linear``:
  a cheap 1-D solve, then simulate, link, residual and both CSV writers.
* ``solve-3d`` is a library ``solve_final_value`` on 3-D heat with a
  product-sine oracle: the ADI solver kernel and nothing else.
* ``mc-2d`` is a library pipeline on a 2-D analogue of ``coupled-linear``
  (mixed derivative, two jump atoms): 2-D point queries, path-by-path
  jump stepping, linking, the residual and the Ito check, no files.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

# sizes: each iteration takes about two to four seconds on a 2-vCPU machine
VERIFY_1D = {"nodes": 201, "steps": 400, "paths": 500, "dt": "5e-3"}
SOLVE_3D = {"nodes": 17, "steps": 40, "horizon": 0.3}
MC_2D = {"nodes": 41, "steps": 100, "paths": 400, "path_steps": 100}


@dataclass
class Outcome:
    """What one iteration of a workload produced."""

    t_last_output: float  # time.monotonic() after the last output
    accuracy_name: str  # "field_err_max" or "residual_rms"
    accuracy: float
    checks: dict[str, bool]
    counts: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""  # bytes that must repeat for a repeated seed


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def verify_1d(seed: int, scratch: Path) -> Outcome:
    """``fbsde verify --problem coupled-linear`` with both CSV writers."""
    from fbsde import cli

    out_dir = scratch / "verify-1d"
    argv = [
        "verify",
        "--problem",
        "coupled-linear",
        "--nodes",
        str(VERIFY_1D["nodes"]),
        "--steps",
        str(VERIFY_1D["steps"]),
        "--paths",
        str(VERIFY_1D["paths"]),
        "--dt",
        VERIFY_1D["dt"],
        "--seed",
        str(seed),
        "--out",
        str(out_dir),
    ]
    status = cli.main(argv)
    t_last = time.monotonic()

    text = (out_dir / "report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    again = json.dumps(report, indent=2, sort_keys=True) + "\n"
    residuals = report["residuals"]
    checks = {"exit_status_0": status == 0, "report_idempotent": again == text}
    for name, passed in report["checks"].items():
        checks[f"report.{name}"] = passed is True
    paths_csv = out_dir / "paths.csv"
    field_csv = out_dir / "field.csv"
    return Outcome(
        t_last_output=t_last,
        accuracy_name="residual_rms",
        accuracy=float(residuals["rms"]),
        checks=checks,
        counts={
            "paths_total": residuals["total_paths"],
            "paths_exited": residuals["excluded_paths"],
            "cli.paths_csv_bytes": paths_csv.stat().st_size,
            "cli.field_csv_bytes": field_csv.stat().st_size,
        },
        fingerprint=_sha256(paths_csv),
    )


def heat_3d_modes(seed: int) -> tuple[int, int, int]:
    """Mode numbers of the product-sine data: a seeded permutation of (1, 1, 2)."""
    import numpy as np

    return tuple(int(k) for k in np.random.default_rng(seed).permutation([1, 1, 2]))


def heat_3d_error_budget(nodes: int, steps: int, horizon: float, modes) -> float:
    """A-priori bound on the max nodal error of the implicit 3-D heat march.

    Central differences lose k^4 h^2 / 24 per axis from the decay rate
    of sin(k x) (diffusion coefficient 1/2) and backward Euler loses
    lambda^2 dt / 2; both act for at most the horizon.  Twice that
    leaves room for rounding and for any scheme at least this accurate.
    """
    h = math.pi / (nodes - 1)
    dt = horizon / steps
    lam = 0.5 * sum(k * k for k in modes)
    per_unit_time = sum(k**4 for k in modes) * h * h / 24.0 + lam * lam * dt / 2.0
    return 2.0 * horizon * per_unit_time


def solve_3d(seed: int, scratch: Path) -> Outcome:
    """ADI solve of 3-D heat with zero faces against its closed-form oracle."""
    import numpy as np

    from fbsde import (
        Grid,
        LevyMeasure,
        MaxPrincipleConstants,
        ProblemSpec,
        SolverConfig,
        check_max_principle,
        solve_final_value,
    )

    modes = heat_3d_modes(seed)
    horizon = SOLVE_3D["horizon"]
    rate = 0.5 * sum(k * k for k in modes)

    def h(x):
        out = np.ones(x.shape[0])
        for ax, k in enumerate(modes):
            out = out * np.sin(k * x[:, ax])
        return out[:, None]

    spec = ProblemSpec(
        n=3,
        m=1,
        l=1,
        horizon=horizon,
        drift=lambda t, x, u, p, w: np.zeros((x.shape[0], 3)),
        generator=lambda t, x, u, p, w: np.zeros((x.shape[0], 1)),
        diffusion=lambda t, x, u: np.broadcast_to(np.eye(3), (x.shape[0], 3, 3)).copy(),
        jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 3)),
        terminal=h,
        measure=LevyMeasure(marks=[[1.0]], weights=[1.0]),
    )
    nodes = SOLVE_3D["nodes"]
    config = SolverConfig(
        grid=Grid((0.0,) * 3, (math.pi,) * 3, (nodes,) * 3),
        n_steps=SOLVE_3D["steps"],
        linear_solver="auto",
        dirichlet_data=lambda t, x: np.zeros((x.shape[0], 1)),
    )
    constants = MaxPrincipleConstants(0.0, 0.0, 0.0)
    field_obj, diag = solve_final_value(spec, config, constants)
    t_last = time.monotonic()

    pts = config.grid.nodes()
    exact = h(pts)
    err = max(
        float(np.abs(field_obj.values[i] - math.exp(-rate * (horizon - t)) * exact).max())
        for i, t in enumerate(field_obj.times)
    )
    budget = heat_3d_error_budget(nodes, SOLVE_3D["steps"], horizon, modes)
    return Outcome(
        t_last_output=t_last,
        accuracy_name="field_err_max",
        accuracy=err,
        checks={
            "max_principle": check_max_principle(field_obj, diag).passed,
            "field_err_within_budget": err <= budget,
        },
    )


def coupled_linear_2d():
    """2-D analogue of ``coupled-linear``: (spec, solver config, constants, x0).

    sigma has an off-diagonal entry, so the solve carries a mixed
    derivative; two jump atoms shift the state along each axis; drift
    and generator are linear in (u, p, w); h = sin x cos y on [-6, 6]^2
    with the cutoff boundary.
    """
    import numpy as np

    from fbsde import Grid, LevyMeasure, MaxPrincipleConstants, ProblemSpec, SolverConfig

    measure = LevyMeasure(marks=[[0.3, 0.0], [0.0, -0.3]], weights=[0.7, 0.7])
    weights = measure.weights
    sigma = np.array([[1.0, 0.5], [0.0, 1.0]])

    def nu_w(w):
        return np.einsum("k,bk->b", weights, w[:, :, 0])

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
    nodes = MC_2D["nodes"]
    config = SolverConfig(
        grid=Grid((-6.0, -6.0), (6.0, 6.0), (nodes, nodes)),
        n_steps=MC_2D["steps"],
        linear_solver="auto",
    )
    constants = MaxPrincipleConstants(
        c1=0.0, c2=0.05 + 0.5 * measure.total_mass, c3=0.05 + 0.5
    )
    return spec, config, constants, np.zeros(2)


def mc_2d(seed: int, scratch: Path) -> Outcome:
    """Solve, simulate, link, residual and Ito check on the 2-D problem."""
    import numpy as np

    from fbsde import (
        bsde_residual,
        check_max_principle,
        ito_residuals,
        link_ensemble,
        simulate_ensemble,
        solve_final_value,
    )

    spec, config, constants, x0 = coupled_linear_2d()
    field_obj, diag = solve_final_value(spec, config, constants)
    ensemble = simulate_ensemble(
        field_obj, spec, x0, spec.horizon / MC_2D["path_steps"], MC_2D["paths"], seed
    )
    linked = link_ensemble(ensemble, field_obj, spec)
    report = bsde_residual(linked, spec)
    ito = ito_residuals(linked)
    t_last = time.monotonic()

    ito_stderr = float(ito.std(ddof=1)) / math.sqrt(ito.shape[0])
    return Outcome(
        t_last_output=t_last,
        accuracy_name="residual_rms",
        accuracy=float(report.rms),
        checks={
            "max_principle": check_max_principle(field_obj, diag).passed,
            "residual_finite": bool(np.isfinite(report.rms)),
            "no_excluded_paths": report.excluded_paths == 0,
            "ito_mean_within_4_stderr": abs(float(ito.mean())) <= 4.0 * ito_stderr,
        },
        counts={
            "paths_total": report.total_paths,
            "paths_exited": report.excluded_paths,
        },
    )
