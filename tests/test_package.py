"""The package namespace: which names ``import fbsde`` exports, and what it loads."""

import importlib

import pytest

import fbsde
import fbsde.solver

# every public name as "<defining module>.<name>", in the order of __all__
EXPORTS = [
    "catalog.BuiltProblem",
    "catalog.CATALOG",
    "catalog.build_problem",
    "catalog.catalog_names",
    "errors.BlowUpError",
    "errors.ConfigError",
    "errors.DegenerateDiffusionError",
    "errors.FbsdeError",
    "errors.LinearSolveError",
    "errors.NonFiniteShiftError",
    "errors.ShapeError",
    "grid.Grid",
    "grid.multilinear_interpolate",
    "operators.assemble_coefficients",
    "operators.eval_nonlocal",
    "operators.integrate_over_nu",
    "paths.Ensemble",
    "paths.JumpPath",
    "paths.RngStream",
    "paths.euler_increment",
    "paths.simulate_ensemble",
    "pipeline.ResidualReport",
    "pipeline.TestFunction",
    "pipeline.bsde_residual",
    "pipeline.estimate_class_s_norm",
    "pipeline.field_test_function",
    "pipeline.ito_residuals",
    "pipeline.link_ensemble",
    "problem.AssumptionCheck",
    "problem.AssumptionReport",
    "problem.GrowthEnvelopes",
    "problem.LevyMeasure",
    "problem.ProblemSpec",
    "problem.check_ellipticity",
    "problem.check_growth",
    "solver.Diagnostics",
    "solver.MaxPrincipleConstants",
    "solver.MaxPrincipleResult",
    "solver.SolutionField",
    "solver.SolverConfig",
    "solver.check_max_principle",
    "solver.cutoff_values",
    "solver.solve_final_value",
    "solver.spatial_gradient",
    "solver.step_imex",
]
NAMES = [entry.split(".")[1] for entry in EXPORTS]


class TestNamespace:
    def test_all_is_the_pinned_list(self):
        assert len(NAMES) == 45
        assert fbsde.__all__ == NAMES

    @pytest.mark.parametrize("entry", EXPORTS)
    def test_each_name_is_its_defining_modules_object(self, entry):
        module, name = entry.split(".")
        assert getattr(fbsde, name) is getattr(importlib.import_module(f"fbsde.{module}"), name)

    def test_dir_lists_every_name(self):
        assert set(NAMES) | {"__version__"} <= set(dir(fbsde))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from fbsde import *", namespace)
        assert all(namespace[name] is getattr(fbsde, name) for name in NAMES)

    def test_submodule_import_gives_the_module(self):
        from fbsde import cli

        assert cli is importlib.import_module("fbsde.cli")

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            fbsde.no_such_name

    def test_version(self):
        assert fbsde.__version__ == "0.1.0"

    def test_a_name_rebound_in_its_module_is_what_the_package_gives(self, monkeypatch):
        # nothing is copied into the package, so undoing a rebind there
        # (a test's monkeypatch, a tracer's restore) leaves nothing behind
        stub = object()
        monkeypatch.setattr(fbsde.solver, "solve_final_value", stub)
        assert fbsde.solve_final_value is stub
        assert "solve_final_value" not in vars(fbsde)


def _layers_loaded(fresh_python, import_line: str) -> set[str]:
    done = fresh_python(
        f"""
        import sys
        {import_line}
        print(*sorted(m for m in sys.modules if m.startswith("fbsde.")))
        """
    )
    return set(done.stdout.split())


class TestWhatAnImportLoads:
    def test_import_fbsde_loads_no_layer(self, fresh_python):
        assert _layers_loaded(fresh_python, "import fbsde") == set()

    def test_a_solver_only_caller_loads_the_solver_layers(self, fresh_python):
        # the import line of the benchmark's library solve
        line = (
            "from fbsde import Grid, LevyMeasure, MaxPrincipleConstants, ProblemSpec,"
            " SolverConfig, check_max_principle, solve_final_value"
        )
        assert _layers_loaded(fresh_python, line) == {
            "fbsde.errors",
            "fbsde.grid",
            "fbsde.problem",
            "fbsde.operators",
            "fbsde.solver",
        }

    def test_the_library_pipeline_loads_neither_catalog_nor_cli(self, fresh_python):
        # the import lines of the benchmark's library pipeline
        line = (
            "from fbsde import Grid, LevyMeasure, MaxPrincipleConstants, ProblemSpec,"
            " SolverConfig, bsde_residual, check_max_principle, ito_residuals,"
            " link_ensemble, simulate_ensemble, solve_final_value"
        )
        loaded = _layers_loaded(fresh_python, line)
        assert {"fbsde.paths", "fbsde.pipeline"} <= loaded
        assert not loaded & {"fbsde.catalog", "fbsde.cli"}

    def test_no_layer_imports_scipy(self, fresh_python):
        # the command-line front end imports every layer
        done = fresh_python(
            """
            import sys
            import fbsde.cli
            print("scipy" in sys.modules)
            """
        )
        assert done.stdout.strip() == "False", done.stdout + done.stderr
