"""Coupled forward-backward SDEs with jumps via a decoupling-field PIDE solver.

The package splits into: problem data and sampled assumption checks
(:mod:`fbsde.problem`), the nonlocal shifted difference and coefficient
assembly (:mod:`fbsde.operators`), the IMEX field solver
(:mod:`fbsde.solver`), forward jump-diffusion simulation
(:mod:`fbsde.paths`), reconstruction of the backward processes with
residual diagnostics (:mod:`fbsde.pipeline`), a benchmark catalog
(:mod:`fbsde.catalog`) and the command-line front end (:mod:`fbsde.cli`).
"""

from .catalog import BuiltProblem, CATALOG, build_problem, catalog_names
from .errors import (
    BlowUpError,
    ConfigError,
    DegenerateDiffusionError,
    FbsdeError,
    LinearSolveError,
    NonFiniteShiftError,
)
from .grid import Grid, multilinear_interpolate
from .operators import assemble_coefficients, eval_nonlocal, integrate_over_nu
from .paths import (
    Ensemble,
    JumpPath,
    RngStream,
    euler_increment,
    sample_poisson_measure,
    simulate_ensemble,
)
from .pipeline import (
    Linked,
    ResidualReport,
    TestFunction,
    bsde_residual,
    estimate_class_s_norm,
    field_test_function,
    ito_residuals,
    link_ensemble,
)
from .problem import (
    AssumptionCheck,
    AssumptionReport,
    GrowthEnvelopes,
    LevyMeasure,
    ProblemSpec,
    check_ellipticity,
    check_growth,
)
from .solver import (
    Diagnostics,
    MaxPrincipleConstants,
    MaxPrincipleResult,
    SolutionField,
    SolverConfig,
    check_max_principle,
    cutoff_values,
    solve_final_value,
    spatial_gradient,
    step_imex,
)

__version__ = "0.1.0"
