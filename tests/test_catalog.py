import numpy as np
import pytest

from fbsde import (
    ConfigError,
    build_problem,
    catalog_names,
    check_ellipticity,
    check_growth,
    check_max_principle,
    eval_nonlocal,
    solve_final_value,
)


class TestCatalogEntries:
    def test_expected_names(self):
        assert catalog_names() == [
            "coupled-linear",
            "heat",
            "manufactured-nonlocal",
            "pure-jump",
        ]

    @pytest.mark.parametrize("name", ["heat", "manufactured-nonlocal", "pure-jump", "coupled-linear"])
    def test_default_samples_pass_ellipticity(self, name):
        built = build_problem(name)
        entry = check_ellipticity(built.spec, built.ellipticity_samples)
        assert entry.passed, f"{name}: margin {entry.worst_margin}"

    @pytest.mark.parametrize("name", ["heat", "manufactured-nonlocal", "pure-jump", "coupled-linear"])
    def test_default_samples_pass_growth(self, name):
        built = build_problem(name)
        entry = check_growth(built.spec, built.growth_samples, built.envelopes)
        assert entry.passed, f"{name}: margin {entry.worst_margin}"

    def test_unknown_problem_lists_names(self):
        with pytest.raises(ConfigError, match="coupled-linear.*heat"):
            build_problem("nosuch")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            build_problem("heat", {"wibble": 3})

    def test_parameter_override(self):
        built = build_problem("heat", {"nodes": 51, "steps": 10})
        assert built.solver_config.grid.shape == (51,)
        assert built.solver_config.n_steps == 10

    def test_heat_terminal_matches_oracle(self):
        built = build_problem("heat")
        pts = built.solver_config.grid.nodes()
        h_vals = built.spec.terminal(pts)
        assert np.allclose(h_vals, built.oracle(built.spec.horizon, pts))


class TestManufacturedForcing:
    def test_forcing_is_the_pide_residual_of_the_target(self):
        # independent oracle: central finite differences of the target field
        built = build_problem("manufactured-nonlocal")
        spec = built.spec
        meas = spec.measure
        L = built.solver_config.grid.upper[0]

        def target(t, x):
            return np.exp(-t) * np.cos(x)

        eps = 1e-5
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = rng.uniform(0.0, spec.horizon)
            x = rng.uniform(-L + 0.5, L - 0.5)
            th_t = (target(t + eps, x) - target(t - eps, x)) / (2 * eps)
            th_x = (target(t, x + eps) - target(t, x - eps)) / (2 * eps)
            th_xx = (target(t, x + eps) - 2 * target(t, x) + target(t, x - eps)) / eps**2
            shrink = 1.0 - (x / L) ** 2
            phi_int = sum(
                w * y[0] * shrink for w, y in zip(meas.weights, meas.marks)
            )
            nonlocal_int = sum(
                w * (target(t, x + y[0] * shrink) - target(t, x))
                for w, y in zip(meas.weights, meas.marks)
            )
            g_val = spec.generator(
                t,
                np.array([[x]]),
                np.array([[target(t, x)]]),
                np.array([[[th_x]]]),
                np.zeros((1, len(meas), 1)),
            )[0, 0]
            residual = th_x * (0.0 - phi_int) + 0.5 * th_xx + g_val + nonlocal_int + th_t
            assert abs(residual) <= 1e-6

    def test_solver_reproduces_target(self):
        built = build_problem("manufactured-nonlocal", {"nodes": 101, "steps": 100})
        field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
        pts = field.grid.nodes()
        err = max(
            float(np.abs(field.values[i] - built.oracle(float(t), pts)).max())
            for i, t in enumerate(field.times)
        )
        assert err <= 6e-3


class TestPureJumpField:
    def test_identity_field_in_inner_region(self):
        built = build_problem("pure-jump", {"nodes": 181, "steps": 200})
        field, diag = solve_final_value(built.spec, built.solver_config, built.constants)
        assert check_max_principle(field, diag).passed
        pts = field.grid.nodes()
        inner = (pts[:, 0] >= -3.0) & (pts[:, 0] <= 3.0)
        err = max(
            float(np.abs(field.values[i][inner] - pts[inner]).max())
            for i in range(field.times.shape[0])
        )
        assert err <= 0.1


class TestOneShiftRoutine:
    """The field's off-grid table and the march's node table are one routine."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_nonlocal_table_at_level_times_equals_eval_nonlocal(self, name):
        # 32 steps on horizon 1: every level time is exact in binary, so a
        # query at times[i] takes level i alone, without blending
        built = build_problem(name, {"nodes": 41, "steps": 32, "horizon": 1.0})
        field, _ = solve_final_value(built.spec, built.solver_config, built.constants)
        spec, grid = built.spec, field.grid
        nodes = grid.nodes()
        for i in (0, 7, 16, 31, 32):
            t_i = float(field.times[i])
            got = field.nonlocal_table(t_i, nodes, u_here=field.values[i])
            want = eval_nonlocal(grid, field.values[i], spec, spec.horizon - t_i)
            assert np.array_equal(got, want), f"{name}: level {i}"

    @pytest.mark.parametrize("name", catalog_names())
    def test_phi_integral_is_the_per_atom_sum(self, name):
        built = build_problem(name, {"nodes": 41})
        spec = built.spec
        x = built.solver_config.grid.nodes()
        u = np.asarray(spec.terminal(x), dtype=float).reshape(x.shape[0], spec.m)
        for t in (0.0, 0.3, spec.horizon):
            want = np.zeros((x.shape[0], spec.n))
            for mark, weight in zip(spec.measure.marks, spec.measure.weights):
                phi = np.asarray(spec.jump_coeff(t, x, u, mark), dtype=float)
                want = want + weight * phi.reshape(x.shape[0], spec.n)
            assert np.array_equal(spec.phi_integral(t, x, u), want), f"{name}: t={t}"
