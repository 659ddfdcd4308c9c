"""Coupled forward-backward SDEs with jumps via a decoupling-field PIDE solver.

The package splits into: problem data and sampled assumption checks
(:mod:`fbsde.problem`), the nonlocal shifted difference and coefficient
assembly (:mod:`fbsde.operators`), the IMEX field solver
(:mod:`fbsde.solver`), forward jump-diffusion simulation with
the backward processes read off the field (:mod:`fbsde.paths`), residual
diagnostics (:mod:`fbsde.pipeline`), a benchmark catalog
(:mod:`fbsde.catalog`) and the command-line front end (:mod:`fbsde.cli`).

``import fbsde`` loads none of them: the first use of a name below
imports the module that defines it (PEP 562), and ``fbsde.X`` is always
that module's ``X``.  A solver-only caller thus loads ``errors``,
``grid``, ``problem``, ``operators`` and ``solver``, never ``paths``,
``pipeline``, ``catalog`` or ``cli``.
"""

import importlib

# public name -> the module that defines it
_MODULE_OF = {
    "BuiltProblem": "catalog",
    "CATALOG": "catalog",
    "build_problem": "catalog",
    "catalog_names": "catalog",
    "BlowUpError": "errors",
    "ConfigError": "errors",
    "DegenerateDiffusionError": "errors",
    "FbsdeError": "errors",
    "LinearSolveError": "errors",
    "NonFiniteShiftError": "errors",
    "ShapeError": "errors",
    "Grid": "grid",
    "multilinear_interpolate": "grid",
    "assemble_coefficients": "operators",
    "eval_nonlocal": "operators",
    "integrate_over_nu": "operators",
    "Ensemble": "paths",
    "JumpPath": "paths",
    "RngStream": "paths",
    "euler_increment": "paths",
    "simulate_ensemble": "paths",
    "ResidualReport": "pipeline",
    "TestFunction": "pipeline",
    "bsde_residual": "pipeline",
    "estimate_class_s_norm": "pipeline",
    "field_test_function": "pipeline",
    "ito_residuals": "pipeline",
    "link_ensemble": "pipeline",
    "AssumptionCheck": "problem",
    "AssumptionReport": "problem",
    "GrowthEnvelopes": "problem",
    "LevyMeasure": "problem",
    "ProblemSpec": "problem",
    "check_ellipticity": "problem",
    "check_growth": "problem",
    "Diagnostics": "solver",
    "MaxPrincipleConstants": "solver",
    "MaxPrincipleResult": "solver",
    "SolutionField": "solver",
    "SolverConfig": "solver",
    "check_max_principle": "solver",
    "cutoff_values": "solver",
    "solve_final_value": "solver",
    "spatial_gradient": "solver",
    "step_imex": "solver",
}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # resolved on every access, not copied here, so a name rebound in its
    # module (a test's monkeypatch, a tracer) is what ``fbsde.name`` gives
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
