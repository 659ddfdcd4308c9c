import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde import (
    Grid,
    LevyMeasure,
    NonFiniteShiftError,
    ProblemSpec,
    assemble_coefficients,
    eval_nonlocal,
    integrate_over_nu,
    multilinear_interpolate,
)
from fbsde.grid import cell_corners, grid_axes
from fbsde.operators import _half_gram, shifted_differences


def _zeros(m):
    def fn(t, x, u, p, w):
        return np.zeros((x.shape[0], m))

    return fn


def spec_1d(jump, measure, drift=None, generator=None, sigma_val=1.0, horizon=1.0):
    return ProblemSpec(
        n=1,
        m=1,
        l=1,
        horizon=horizon,
        drift=drift or _zeros(1),
        generator=generator or _zeros(1),
        diffusion=lambda t, x, u: np.full((x.shape[0], 1, 1), sigma_val),
        jump_coeff=jump,
        terminal=lambda x: np.asarray(x, dtype=float).copy(),
        measure=measure,
    )


GRID = Grid((-5.0,), (5.0,), (101,))


class TestInterpolation:
    def test_reproduces_node_values(self):
        vals = np.sin(GRID.nodes())
        out = multilinear_interpolate(GRID, vals, GRID.nodes())
        assert np.allclose(out, vals, atol=1e-14)

    def test_clamps_to_box(self):
        vals = GRID.nodes().copy()
        out = multilinear_interpolate(GRID, vals, np.array([[99.0], [-99.0]]))
        assert out[0, 0] == 5.0 and out[1, 0] == -5.0

    def test_2d_bilinear_exact_on_affine(self):
        grid = Grid((0.0, -1.0), (2.0, 1.0), (5, 7))
        pts = grid.nodes()
        vals = (1.5 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1])[:, None]
        query = np.array([[0.3, 0.2], [1.7, -0.9], [0.0, 1.0]])
        out = multilinear_interpolate(grid, vals, query)
        expect = 1.5 + 2.0 * query[:, 0] - 0.5 * query[:, 1]
        assert np.allclose(out[:, 0], expect, atol=1e-13)


def reference_cell_corners(grid, points):
    """Reference: ``cell_corners`` as it was, every axis applied to all
    2^d corners at once through the corner index's bits."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    corner = np.arange(1 << grid.ndim)[:, None]
    flats = np.zeros((corner.shape[0], pts.shape[0]), dtype=np.int64)
    weights = np.ones(flats.shape)
    for ax in range(grid.ndim):
        lo, hi, h = grid.lower[ax], grid.upper[ax], grid.spacings[ax]
        s = (np.clip(pts[:, ax], lo, hi) - lo) / h
        cell = np.minimum(np.floor(s).astype(np.int64), grid.shape[ax] - 2)
        frac = s - cell
        bit = (corner >> ax) & 1
        weights = weights * np.where(bit, frac, 1.0 - frac)
        flats = flats + (cell + bit) * grid.strides[ax]
    return flats, weights


CORNER_GRIDS = [
    Grid((-5.0,), (5.0,), (101,)),
    Grid((0.0, -1.0), (2.0, 1.0), (5, 7)),
    Grid((-6.0, -6.0, 0.0), (6.0, 6.0, 1.5), (4, 17, 6)),
]


class TestCellCorners:
    # interior, beyond each face, exactly on nodes and faces, signed zeros, infinities
    @given(
        st.sampled_from(range(len(CORNER_GRIDS))),
        st.lists(
            st.one_of(
                st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -5.0, 5.0, 6.0, np.inf, -np.inf]),
            ),
            min_size=0,
            max_size=24,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_the_reference(self, which, coords):
        grid = CORNER_GRIDS[which]
        n_pts = len(coords) // grid.ndim
        points = np.array(coords[: n_pts * grid.ndim], dtype=float).reshape(n_pts, grid.ndim)
        flats, weights = cell_corners(grid, points)
        ref_flats, ref_weights = reference_cell_corners(grid, points)
        assert flats.dtype == ref_flats.dtype and np.array_equal(flats, ref_flats)
        assert weights.shape == ref_weights.shape
        assert weights.tobytes() == ref_weights.tobytes()  # signed zeros too


class TestEvalNonlocal:
    def test_zero_shift_gives_zero_field(self):
        measure = LevyMeasure(marks=[[1.0], [2.0]], weights=[1.0, 0.5])
        spec = spec_1d(lambda t, x, u, y: np.zeros((x.shape[0], 1)), measure)
        u = np.sin(GRID.nodes())
        table = eval_nonlocal(GRID, u, spec, 0.3)
        assert np.all(table == 0.0)

    def test_linear_function_unit_shift(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        spec = spec_1d(lambda t, x, u, y: np.full((x.shape[0], 1), y[0]), measure)
        u = GRID.nodes().copy()
        table = eval_nonlocal(GRID, u, spec, 0.0)
        nodes = GRID.nodes()[:, 0]
        inside = nodes + 1.0 <= 5.0
        assert np.allclose(table[inside, 0, 0], 1.0, atol=1e-13)

    def test_quadratic_interpolation_error_bound(self):
        # independent oracle: evaluate u exactly at the shifted point
        mark = 0.937  # deliberately off the node lattice
        measure = LevyMeasure(marks=[[mark]], weights=[1.0])
        spec = spec_1d(lambda t, x, u, y: np.full((x.shape[0], 1), y[0]), measure)
        errors = []
        for nodes in (51, 101, 201):
            grid = Grid((-5.0,), (5.0,), (nodes,))
            xs = grid.nodes()
            table = eval_nonlocal(grid, xs**2, spec, 0.0)
            h = grid.spacings[0]
            center = np.argmin(np.abs(xs[:, 0]))
            exact = (xs[center, 0] + mark) ** 2 - xs[center, 0] ** 2
            err = abs(table[center, 0, 0] - exact)
            assert err <= h * h * 2.0 / 8.0 + 1e-12  # h^2 max|u''| / 8
            errors.append(err)
        assert errors[2] < errors[0]

    def test_non_finite_shift_raises(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        spec = spec_1d(lambda t, x, u, y: np.full((x.shape[0], 1), np.nan), measure)
        u = GRID.nodes().copy()
        with pytest.raises(NonFiniteShiftError):
            eval_nonlocal(GRID, u, spec, 0.0)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_exactness(self, intercept, slope, mark):
        # affine fields with interior shifts are reproduced to machine precision
        if abs(mark) < 1e-3:
            mark = 0.5
        measure = LevyMeasure(marks=[[mark]], weights=[1.0])
        spec = spec_1d(lambda t, x, u, y: np.full((x.shape[0], 1), y[0]), measure)
        xs = GRID.nodes()
        u = intercept + slope * xs
        table = eval_nonlocal(GRID, u, spec, 0.0)
        inside = (xs[:, 0] + mark <= 5.0) & (xs[:, 0] + mark >= -5.0)
        scale = max(1.0, abs(intercept) + 5 * abs(slope))
        assert np.all(
            np.abs(table[inside, 0, 0] - slope * mark) <= 1e-13 * scale
        )

    def test_sup_bound_against_field_range(self):
        rng = np.random.default_rng(99)
        measure = LevyMeasure(marks=[[0.7], [-2.0]], weights=[1.3, 0.4])
        spec = spec_1d(
            lambda t, x, u, y: y[0] * (1.0 + np.sin(3.0 * x)), measure
        )  # shifts leave the box on purpose
        for _ in range(50):
            u = rng.normal(size=(GRID.n_nodes, 1))
            table = eval_nonlocal(GRID, u, spec, 0.5)
            integral = integrate_over_nu(table, measure)
            bound = 2.0 * measure.total_mass * np.abs(u).max()
            assert np.all(np.abs(integral) <= bound * (1.0 + 1e-12))


class TestIntegrateOverNu:
    def test_constant_table(self):
        measure = LevyMeasure(marks=[[1.0], [2.0]], weights=[0.5, 1.5])
        c = np.array([3.0, -1.0])
        table = np.tile(c, (2, 1))
        assert np.allclose(integrate_over_nu(table, measure), 2.0 * c)

    def test_cancellation(self):
        measure = LevyMeasure(marks=[[1.0], [-1.0]], weights=[0.5, 0.5])
        v = np.array([2.0])
        table = np.stack([v, -v])
        assert integrate_over_nu(table, measure) == pytest.approx(0.0)

    def test_hand_summed_series(self):
        # oracle: 0.5 * 1 + 1.5 * 2 = 3.5
        measure = LevyMeasure(marks=[[1.0], [2.0]], weights=[0.5, 1.5])
        table = measure.marks.copy()
        assert integrate_over_nu(table, measure)[0] == pytest.approx(3.5, abs=1e-15)

    def test_dimension_mismatch(self):
        measure = LevyMeasure(marks=[[1.0], [2.0]], weights=[0.5, 1.5])
        with pytest.raises(ValueError, match="atom rows"):
            integrate_over_nu(np.zeros((3, 1)), measure)


class TestAssembleCoefficients:
    def test_identity_diffusion_gives_half_identity(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        spec = ProblemSpec(
            n=2,
            m=1,
            l=1,
            horizon=1.0,
            drift=_zeros(2),
            generator=_zeros(1),
            diffusion=lambda t, x, u: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2)),
            terminal=lambda x: x[:, :1].copy(),
            measure=measure,
        )
        x = np.zeros((4, 2))
        u = np.zeros((4, 1))
        p = np.zeros((4, 1, 2))
        w = np.zeros((4, 1, 1))
        a2, a1, a0 = assemble_coefficients(spec, 0.3, x, u, p, w)
        assert np.allclose(a2, 0.5 * np.eye(2))
        # uniform parabolicity: xi^T a2 xi = |xi|^2 / 2
        xi = np.array([1.3, -0.4])
        assert np.einsum("i,ij,j->", xi, a2[0], xi) == pytest.approx(0.5 * xi @ xi)

    def test_constant_jump_integral_enters_transport(self):
        measure = LevyMeasure(marks=[[1.0], [3.0]], weights=[0.5, 1.5])  # mass 2
        spec = spec_1d(lambda t, x, u, y: np.ones((x.shape[0], 1)), measure)
        x = np.zeros((2, 1))
        a2, a1, a0 = assemble_coefficients(
            spec, 0.0, x, np.zeros((2, 1)), np.zeros((2, 1, 1)), np.zeros((2, 2, 1))
        )
        assert np.allclose(a1, 2.0)

    def test_reaction_is_minus_table_integral(self):
        measure = LevyMeasure(marks=[[1.0], [3.0]], weights=[0.5, 1.5])
        spec = spec_1d(lambda t, x, u, y: np.zeros((x.shape[0], 1)), measure)
        c = 4.0
        w = np.full((2, 2, 1), c)
        _, _, a0 = assemble_coefficients(
            spec, 0.0, np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1, 1)), w
        )
        assert np.allclose(a0, -2.0 * c)

    def test_symmetry_is_bitwise(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        spec = ProblemSpec(
            n=2,
            m=1,
            l=1,
            horizon=1.0,
            drift=_zeros(2),
            generator=_zeros(1),
            diffusion=lambda t, x, u: np.broadcast_to(mat, (x.shape[0], 2, 2)).copy(),
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2)),
            terminal=lambda x: x[:, :1].copy(),
            measure=measure,
        )
        a2, _, _ = assemble_coefficients(
            spec,
            0.0,
            np.zeros((3, 2)),
            np.zeros((3, 1)),
            np.zeros((3, 1, 2)),
            np.zeros((3, 1, 1)),
        )
        assert np.array_equal(a2, a2.swapaxes(-1, -2))

    def test_time_argument_is_reflected(self):
        # drift depending on time only: a1 at Cauchy time t must see T - t
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])

        def drift(t, x, u, p, w):
            return np.full((x.shape[0], 1), t)

        spec = spec_1d(
            lambda t, x, u, y: np.zeros((x.shape[0], 1)),
            measure,
            drift=drift,
            horizon=2.0,
        )
        _, a1, _ = assemble_coefficients(
            spec, 0.5, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1, 1)), np.zeros((1, 1, 1))
        )
        assert a1[0, 0] == pytest.approx(-(2.0 - 0.5))

    def test_composite_gradient_argument(self):
        # f returns its p-argument; with sigma = 2 the assembled value is p * 2
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])

        def drift(t, x, u, p, w):
            return p[:, :, 0]

        spec = spec_1d(
            lambda t, x, u, y: np.zeros((x.shape[0], 1)),
            measure,
            drift=drift,
            sigma_val=2.0,
        )
        p = np.full((1, 1, 1), 3.0)
        _, a1, _ = assemble_coefficients(
            spec, 0.0, np.zeros((1, 1)), np.zeros((1, 1)), p, np.zeros((1, 1, 1))
        )
        assert a1[0, 0] == pytest.approx(-6.0)


class TestGrid:
    def test_nodes_reproducible_from_bounds_and_counts(self):
        grid = Grid((-1.0, 0.0), (1.0, 3.0), (5, 7))
        axes = grid_axes(grid)
        assert np.array_equal(axes[0], np.linspace(-1.0, 1.0, 5))
        assert np.array_equal(axes[1], np.linspace(0.0, 3.0, 7))
        assert grid.nodes().shape == (35, 2)
        assert grid.spacings == (0.5, 0.5)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="3 nodes"):
            Grid((0.0,), (1.0,), (2,))

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError, match="exceed"):
            Grid((1.0,), (1.0,), (5,))

    @pytest.mark.parametrize(
        "lower, upper",
        [((-np.inf,), (1.0,)), ((0.0,), (np.inf,)), ((0.0, np.nan), (1.0, 1.0))],
        ids=["lower-inf", "upper-inf", "lower-nan"],
    )
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            Grid(lower, upper, (5,) * len(lower))

    def test_boundary_mask_2d(self):
        grid = Grid((0.0, 0.0), (1.0, 1.0), (4, 5))
        mask = grid.boundary_mask().reshape(4, 5)
        assert mask[0].all() and mask[-1].all()
        assert mask[:, 0].all() and mask[:, -1].all()
        assert not mask[1:-1, 1:-1].any()


class TestProblemSpecValidation:
    def test_rejects_nonpositive_horizon(self):
        measure = LevyMeasure(marks=[[1.0]], weights=[1.0])
        with pytest.raises(ValueError, match="horizon"):
            ProblemSpec(
                n=1, m=1, l=1, horizon=0.0,
                drift=_zeros(1), generator=_zeros(1),
                diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
                jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 1)),
                terminal=lambda x: x.copy(), measure=measure,
            )

    def test_rejects_mark_dimension_mismatch(self):
        measure = LevyMeasure(marks=[[1.0, 2.0]], weights=[1.0])
        with pytest.raises(ValueError, match="mark dimension"):
            ProblemSpec(
                n=1, m=1, l=1, horizon=1.0,
                drift=_zeros(1), generator=_zeros(1),
                diffusion=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
                jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 1)),
                terminal=lambda x: x.copy(), measure=measure,
            )


# entries with both zeros, so that products of either sign of zero occur
SIGMA_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=False),
)


def _sigma_batch(n, entries):
    return np.array(entries, dtype=float).reshape(-1, n, n)


class TestHalfGram:
    """``a2 = 0.5 sigma sigma^T`` without einsum, entry-major."""

    @pytest.mark.parametrize("n", [1, 2])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_einsum_bit_for_bit_up_to_two_dimensions(self, n, data):
        rows = data.draw(st.integers(min_value=1, max_value=6))
        size = rows * n * n
        sig = _sigma_batch(n, data.draw(st.lists(SIGMA_ENTRY, min_size=size, max_size=size)))
        # einsum's sums start from +0.0: a (-0.0) + (-0.0) entry is +0.0 there
        want = 0.5 * np.einsum("bik,bjk->bij", sig, sig)
        got = _half_gram(sig)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_signed_zero_products_give_positive_zero(self):
        sig = np.array([[[-0.0, 0.0], [0.0, 0.0]], [[1.0, -0.0], [-0.0, 0.0]]])
        got = _half_gram(sig)
        assert not np.signbit(got).any()

    @given(st.lists(SIGMA_ENTRY, min_size=9 * 4, max_size=9 * 4))
    @settings(max_examples=80, deadline=None)
    def test_three_dimensions_within_one_rounding_per_term(self, entries):
        sig = _sigma_batch(3, entries)
        got = _half_gram(sig)
        assert np.array_equal(got, got.swapaxes(1, 2))  # exactly symmetric
        want = 0.5 * np.einsum("bik,bjk->bij", sig, sig)
        # two orders of a 3-term sum differ by at most 2 roundings of sum |terms|
        scale = 0.5 * np.einsum("bik,bjk->bij", np.abs(sig), np.abs(sig))
        assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * scale)

    def test_entries_are_contiguous_over_the_batch(self):
        sig = np.random.default_rng(0).normal(size=(50, 3, 3))
        got = _half_gram(sig)
        for i in range(3):
            for j in range(3):
                assert got[:, i, j].flags.c_contiguous

    def test_assembled_a2_is_the_half_gram(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(50, 2, 2))
        spec = ProblemSpec(
            n=2,
            m=1,
            l=1,
            horizon=1.0,
            drift=_zeros(2),
            generator=_zeros(1),
            diffusion=lambda t, x, u: mat.copy(),
            jump_coeff=lambda t, x, u, y: np.zeros((x.shape[0], 2)),
            terminal=lambda x: x[:, :1].copy(),
            measure=LevyMeasure(marks=[[1.0]], weights=[1.0]),
        )
        x, u = np.zeros((50, 2)), np.zeros((50, 1))
        a2, _, _ = assemble_coefficients(spec, 0.0, x, u, np.zeros((50, 1, 2)), np.zeros((50, 1, 1)))
        assert a2.tobytes() == (0.5 * np.einsum("bik,bjk->bij", mat, mat)).tobytes()
        assert a2[:, 0, 1].flags.c_contiguous


class TestZeroShiftRows:
    """The column-by-column zero-shift test marks exactly the rows with no shift."""

    SHIFT = st.tuples(st.sampled_from([0.0, -0.0, 0.25]), st.sampled_from([0.0, -0.0, -1.0]))

    @given(st.lists(SHIFT, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_rows_without_a_shift_are_exact_zeros(self, shifts):
        grid = Grid((-2.0, -2.0), (2.0, 2.0), (9, 9))
        shift = np.array(shifts)
        spec = ProblemSpec(
            n=2,
            m=1,
            l=1,
            horizon=1.0,
            drift=_zeros(2),
            generator=_zeros(1),
            diffusion=lambda t, x, u: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
            jump_coeff=lambda t, x, u, y: shift.copy(),
            terminal=lambda x: x[:, :1].copy(),
            measure=LevyMeasure(marks=[[1.0]], weights=[1.0]),
        )
        points = np.random.default_rng(len(shifts)).uniform(-1.0, 1.0, (len(shifts), 2))
        u_here = points[:, :1] + 0.5
        table = shifted_differences(lambda q: q[:, :1].copy(), spec, 0.5, points, u_here)[:, 0, 0]
        moved = np.any(shift != 0.0, axis=1)
        assert np.array_equal(table[~moved], np.zeros((~moved).sum()))
        assert not np.signbit(table[~moved]).any()
        assert np.array_equal(table[moved], (points + shift)[moved, 0] - u_here[moved, 0])
