import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde import (
    AssumptionCheck,
    DegenerateDiffusionError,
    GrowthEnvelopes,
    LevyMeasure,
    ProblemSpec,
    build_problem,
    check_ellipticity,
    check_growth,
)


def _zeros(m):
    def fn(t, x, u, p, w):
        return np.zeros((x.shape[0], m))

    return fn


def make_spec(sigma, drift=None, generator=None, jump=None, measure=None, lo=1.0, hi=1.0):
    measure = measure or LevyMeasure(marks=[[1.0]], weights=[1.0])

    def default_jump(t, x, u, y):
        return np.zeros((x.shape[0], 1))

    return ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=1.0,
        drift=drift or _zeros(1),
        generator=generator or _zeros(1),
        diffusion=sigma,
        jump_coeff=jump or default_jump,
        terminal=lambda x: np.asarray(x, dtype=float).copy(),
        measure=measure,
        ellipticity_lower=lo,
        ellipticity_upper=hi,
    )


class TestLevyMeasure:
    def test_single_atom_mass(self):
        assert LevyMeasure(marks=[[1.0]], weights=[2.0]).total_mass == 2.0

    def test_symmetric_atoms(self):
        m = LevyMeasure(marks=[[1.0], [-1.0]], weights=[0.5, 0.5])
        assert m.total_mass == 1.0

    def test_uniform_weights_normalize(self):
        k = 7
        m = LevyMeasure(marks=[[float(i + 1)] for i in range(k)], weights=[1.0 / k] * k)
        assert m.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LevyMeasure(marks=np.zeros((0, 1)), weights=np.zeros(0))

    def test_total_mass_past_the_float_range_named(self):
        with pytest.raises(ValueError, match="total mass of the weights"):
            LevyMeasure(marks=[[1.0], [1.0]], weights=[1e308, 1e308])

    def test_rejects_zero_mark(self):
        with pytest.raises(ValueError, match="nonzero"):
            LevyMeasure(marks=[[0.0]], weights=[1.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            LevyMeasure(marks=[[1.0]], weights=[0.0])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=1e-3, max_value=10.0),
            ),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_mass_permutation_invariant(self, atoms, rng):
        marks = [[y] for y, _ in atoms]
        weights = [w for _, w in atoms]
        base = LevyMeasure(marks=marks, weights=weights).total_mass
        order = list(range(len(atoms)))
        rng.shuffle(order)
        shuffled = LevyMeasure(
            marks=[marks[i] for i in order], weights=[weights[i] for i in order]
        ).total_mass
        assert shuffled == base  # exact summation makes this bitwise


class TestEllipticity:
    def test_identity_passes_with_zero_margin(self):
        spec = make_spec(lambda t, x, u: np.ones((x.shape[0], 1, 1)))
        entry = check_ellipticity(spec, [(0.0, np.zeros(1), np.zeros(1))])
        assert entry.passed and entry.worst_margin == 0.0

    def test_diagonal_eigenvalues(self):
        def sigma(t, x, u):
            out = np.zeros((x.shape[0], 2, 2))
            out[:, 0, 0] = 1.0
            out[:, 1, 1] = 2.0
            return out

        spec = ProblemSpec(
            n=2,
            m=1,
            l=1,
            horizon=1.0,
            drift=_zeros(2),
            generator=_zeros(1),
            diffusion=sigma,
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2)),
            terminal=lambda x: x[:, :1].copy(),
            measure=LevyMeasure(marks=[[1.0]], weights=[1.0]),
            ellipticity_lower=1.0,
            ellipticity_upper=4.0,
        )
        entry = check_ellipticity(spec, [(0.0, np.zeros(2), np.zeros(1))])
        assert entry.passed

    def test_zero_matrix_degenerate(self):
        spec = make_spec(lambda t, x, u: np.zeros((x.shape[0], 1, 1)))
        with pytest.raises(DegenerateDiffusionError):
            check_ellipticity(spec, [(0.0, np.zeros(1), np.zeros(1))])

    def test_orthogonal_rotation_invariance(self):
        # margins depend on sigma sigma^T only, so sigma Q gives identical ones
        rng = np.random.default_rng(123)
        for _ in range(20):
            base = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))

            def from_matrix(mat):
                def sigma(t, x, u):
                    return np.broadcast_to(mat, (x.shape[0], 2, 2)).copy()

                return sigma

            def spec2(sig):
                return ProblemSpec(
                    n=2,
                    m=1,
                    l=1,
                    horizon=1.0,
                    drift=_zeros(2),
                    generator=_zeros(1),
                    diffusion=sig,
                    jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2)),
                    terminal=lambda x: x[:, :1].copy(),
                    measure=LevyMeasure(marks=[[1.0]], weights=[1.0]),
                    ellipticity_lower=0.5,
                    ellipticity_upper=20.0,
                )

            samples = [(0.0, np.zeros(2), np.zeros(1))]
            a = check_ellipticity(spec2(from_matrix(base)), samples)
            b = check_ellipticity(spec2(from_matrix(base @ q)), samples)
            assert a.worst_margin == pytest.approx(b.worst_margin, abs=1e-10)

    def test_nan_sigma_fails_with_an_infinite_margin(self):
        spec = make_spec(lambda t, x, u: np.full((x.shape[0], 1, 1), np.nan))
        entry = check_ellipticity(spec, [(0.0, np.zeros(1), np.zeros(1))])
        assert entry.worst_margin == np.inf and not entry.passed

    def test_nan_sample_among_finite_ones_fails(self):
        def sigma(t, x, u):
            return np.full((x.shape[0], 1, 1), np.nan if t == 0.5 else 1.0)

        samples = [(t, np.zeros(1), np.zeros(1)) for t in (0.0, 0.5, 1.0)]
        entry = check_ellipticity(make_spec(sigma), samples)
        assert entry.samples == 3
        assert entry.worst_margin == np.inf and not entry.passed


UNIT_ENVELOPES = GrowthEnvelopes(
    drift_env=lambda s, r: 1.0,
    gen_env=lambda s, r: 1.0,
    gen_decay=lambda s, q, r: 0.0,
    jump_env=lambda s: 1.0,
)


def _growth_sample(p_value, w_value=0.0):
    return (
        0.0,
        np.zeros(1),
        np.zeros(1),
        np.full((1, 1), p_value),
        np.full((1, 1), w_value),
    )


class TestGrowth:
    def test_zero_coefficients_pass(self):
        spec = make_spec(lambda t, x, u: np.ones((x.shape[0], 1, 1)))
        entry = check_growth(spec, [_growth_sample(0.0), _growth_sample(3.0)], UNIT_ENVELOPES)
        assert entry.passed

    def test_linear_drift_under_unit_envelope(self):
        def drift(t, x, u, p, w):
            return p[:, :, 0]

        spec = make_spec(lambda t, x, u: np.ones((x.shape[0], 1, 1)), drift=drift)
        entry = check_growth(spec, [_growth_sample(5.0)], UNIT_ENVELOPES)
        # |f| = |p| <= 1 * (1 + |p|) with slack exactly 1
        assert entry.passed and entry.worst_margin == pytest.approx(-1.0)

    def test_cubic_generator_fails_quadratic_envelope(self):
        def gen(t, x, u, p, w):
            q = np.sqrt(np.sum(p**2, axis=(-1, -2)))
            return (q**3)[:, None]

        spec = make_spec(lambda t, x, u: np.ones((x.shape[0], 1, 1)), generator=gen)
        entry = check_growth(spec, [_growth_sample(10.0)], UNIT_ENVELOPES)
        # oracle fixed by hand: 10^3 - (1 + 0) * (1 + 10)^2 = 1000 - 121 = 879
        assert not entry.passed
        assert entry.worst_margin == pytest.approx(879.0, abs=1e-9)

    def test_more_samples_never_flip_fail_to_pass(self):
        def gen(t, x, u, p, w):
            q = np.sqrt(np.sum(p**2, axis=(-1, -2)))
            return (q**3)[:, None]

        spec = make_spec(lambda t, x, u: np.ones((x.shape[0], 1, 1)), generator=gen)
        failing = [_growth_sample(10.0)]
        entry = check_growth(spec, failing, UNIT_ENVELOPES)
        assert not entry.passed
        for extra in (0.0, 1.0, 2.0):
            bigger = failing + [_growth_sample(extra)]
            again = check_growth(spec, bigger, UNIT_ENVELOPES)
            assert not again.passed
            assert again.worst_margin >= entry.worst_margin


class TestAssumptionCheck:
    def test_flag_must_match_margin(self):
        with pytest.raises(ValueError):
            AssumptionCheck(name="B1", samples=1, worst_margin=1.0, passed=True)

    def test_consistent_flag_accepted(self):
        entry = AssumptionCheck(name="B1", samples=3, worst_margin=-0.5, passed=True)
        assert entry.passed


class TestProblemSpec:
    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            ProblemSpec(
                n=1,
                m=1,
                l=1,
                horizon=horizon,
                drift=_zeros(1),
                generator=_zeros(1),
                diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
                jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 1)),
                terminal=lambda x: np.asarray(x, dtype=float).copy(),
                measure=LevyMeasure(marks=[[1.0]], weights=[1.0]),
            )

    @pytest.mark.parametrize(
        "name, value",
        [("n", 1.5), ("n", True), ("n", np.float64(1.0)), ("m", 2.0), ("l", True)]
        + [("horizon", True)],
    )
    def test_non_integer_or_bool_dimension_and_bool_horizon_named(self, name, value):
        spec = build_problem("heat", {"nodes": 11, "steps": 4}).spec
        message = rf"^(dimension )?{name} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(spec, **{name: value})

    def test_numpy_integer_dimensions_and_float_horizon_accepted(self):
        spec = build_problem("heat", {"nodes": 11, "steps": 4}).spec
        spec = dataclasses.replace(spec, n=np.int64(1), m=np.int32(1), horizon=np.float64(0.5))
        assert (spec.n, spec.m, spec.horizon) == (1, 1, 0.5)


# each ProblemSpec method: (user field it calls, the call on a spec, result shape)
ROWS = 4
_X = np.linspace(0.0, 1.0, ROWS)[:, None]
_U, _P, _W = np.zeros((ROWS, 1)), np.zeros((ROWS, 1, 1)), np.zeros((ROWS, 1, 1))
SPEC_METHODS = {
    "f": ("drift", lambda spec: spec.f(0.0, _X, _U, _P, _W), (ROWS, 1)),
    "g": ("generator", lambda spec: spec.g(0.0, _X, _U, _P, _W), (ROWS, 1)),
    "sigma": ("diffusion", lambda spec: spec.sigma(0.0, _X, _U), (ROWS, 1, 1)),
    "phi": ("jump_coeff", lambda spec: spec.phi(0.0, _X, _U, 0), (ROWS, 1)),
    "h": ("terminal", lambda spec: spec.h(_X), (ROWS, 1)),
}


class TestCoefficientShapes:
    """The ProblemSpec methods shape each coefficient result or name the field."""

    @pytest.mark.parametrize("method", sorted(SPEC_METHODS))
    def test_wrong_size_names_the_field_and_both_shapes(self, method):
        name, call, shape = SPEC_METHODS[method]
        spec = dataclasses.replace(
            make_spec(lambda t, x, u: np.ones((x.shape[0], 1, 1))),
            **{name: lambda *args: np.zeros((ROWS, 2))},
        )
        expected = re.escape(f"{name} returned shape (4, 2), expected {shape}")
        with pytest.raises(ValueError, match=expected):
            call(spec)

    @pytest.mark.parametrize("method", sorted(SPEC_METHODS))
    def test_flat_result_for_one_component_is_accepted(self, method):
        name, call, shape = SPEC_METHODS[method]
        spec = dataclasses.replace(
            make_spec(lambda t, x, u: np.ones((x.shape[0], 1, 1))),
            **{name: lambda *args: np.arange(ROWS)},
        )
        out = call(spec)
        assert out.shape == shape and out.dtype == np.float64
        assert out.ravel().tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_phi_passes_the_mark_of_atom_k(self):
        measure = LevyMeasure(marks=[[1.0], [-0.5]], weights=[0.7, 0.6])
        spec = make_spec(
            lambda t, x, u: np.ones((x.shape[0], 1, 1)),
            jump=lambda t, x, u, y: np.full((x.shape[0], 1), y[0]),
            measure=measure,
        )
        assert spec.phi(0.0, _X, _U, 1).ravel().tolist() == [-0.5] * ROWS
        assert spec.phi_integral(0.0, _X, _U).ravel().tolist() == [0.7 - 0.3] * ROWS
