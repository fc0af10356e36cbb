"""Core step-function layer: construction, losses, sampling, file formats.

Loss values are checked against independent adaptive-quadrature oracles
(scipy), not against the cell-sum formulas under test.
"""

import json
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import densagg.densities as densities
from densagg import (
    MASS_TOL,
    FunctionClass,
    PiecewiseDensity,
    PiecewiseFunction,
    ValidationError,
    common_refinement,
    hellinger_distance,
    kl_divergence,
    l1_distance,
    load_densities,
    load_density,
    load_sample,
    renormalize,
    sample,
    save_densities,
    save_density,
    save_sample,
    validate_class,
)
from densagg.aggregation import CandidateSet, _sample_cells, progressive_weights
from densagg.densities import (
    _SAMPLE_CHUNK,
    _cell_dtype,
    _cell_lookup,
    _guide_table,
    _union_grid,
)
from densagg.experiments import _perturbation_candidates

# Oracle values, fixed by adaptive quadrature of the integrands
# (quad of f log(f/g) resp. (sqrt f - sqrt g)^2 with a breakpoint at 0.5).
KL_UNIFORM_VS_STEP = 0.14384103622589042
HELLINGER_UNIFORM_VS_STEP = 0.2610523844401031


@pytest.fixture
def uniform():
    return PiecewiseDensity.uniform()


@pytest.fixture
def step():
    return PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5])


def random_density(rng, max_cells=8):
    cuts = np.unique(rng.uniform(0.05, 0.95, size=int(rng.integers(0, max_cells))))
    bp = np.concatenate(([0.0], cuts, [1.0]))
    return renormalize(PiecewiseFunction(bp, rng.uniform(0.1, 3.0, size=bp.size - 1)))


def quad_piecewise(fn, f, g, tol=1e-12):
    """Adaptive quadrature of fn(f(x), g(x)) honoring both functions' breaks."""
    pts = sorted(set(f.breakpoints.tolist()) | set(g.breakpoints.tolist()))
    val, err = integrate.quad(
        lambda x: fn(float(f(x)), float(g(x))), 0.0, 1.0,
        points=pts[1:-1] or None, limit=200, epsabs=tol, epsrel=tol,
    )
    assert err < 1e-9
    return val


class TestConstruction:
    def test_breakpoints_must_start_and_end_at_unit_interval(self):
        with pytest.raises(ValidationError):
            PiecewiseFunction([0.1, 1.0], [1.0])
        with pytest.raises(ValidationError):
            PiecewiseFunction([0.0, 0.9], [1.0])

    def test_breakpoints_must_strictly_increase(self):
        with pytest.raises(ValidationError):
            PiecewiseFunction([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            PiecewiseFunction([0.0, 0.7, 0.3, 1.0], [1.0, 1.0, 1.0])

    def test_lengths_must_match(self):
        with pytest.raises(ValidationError):
            PiecewiseFunction([0.0, 0.5, 1.0], [1.0])
        with pytest.raises(ValidationError, match="one-dimensional"):
            PiecewiseFunction([[0.0, 1.0]], [1.0])

    def test_values_must_be_finite(self):
        with pytest.raises(ValidationError):
            PiecewiseFunction([0.0, 1.0], [math.inf])

    def test_density_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            PiecewiseDensity([0.0, 0.5, 1.0], [2.5, -0.5])

    def test_density_mass_tolerance(self):
        with pytest.raises(ValidationError):
            PiecewiseDensity([0.0, 1.0], [1.001])
        # within MASS_TOL is accepted, not silently rescaled
        d = PiecewiseDensity([0.0, 1.0], [1.0 + 5e-13])
        assert d.values[0] == 1.0 + 5e-13

    def test_arrays_are_immutable(self, uniform):
        with pytest.raises(ValueError):
            uniform.values[0] = 2.0

    def test_evaluation_is_right_open(self, step):
        assert step(0.0) == 1.5
        assert step(0.49999) == 1.5
        assert step(0.5) == 0.5  # interior breakpoint belongs to the right cell
        assert step(1.0) == 0.5  # last cell is closed at 1

    def test_evaluation_outside_domain_raises(self, step):
        with pytest.raises(ValidationError):
            step(-0.1)
        with pytest.raises(ValidationError):
            step([0.2, 1.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_evaluation_at_non_finite_points_raises(self, step, bad):
        with pytest.raises(ValidationError, match="finite"):
            step(bad)
        with pytest.raises(ValidationError, match="finite"):
            step([0.2, bad, 0.7])
        with pytest.raises(ValidationError, match="finite"):
            step.cell_index([bad])

    def test_equality_compares_arrays(self, step):
        same = PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5])
        assert step == same and not step != same
        assert step != PiecewiseDensity([0.0, 0.5, 1.0], [0.5, 1.5])
        assert step != PiecewiseDensity([0.0, 0.25, 1.0], [1.5, 5.0 / 6.0])
        assert step != PiecewiseDensity.uniform()
        assert step != PiecewiseFunction(step.breakpoints, step.values)
        assert step != "step"

    def test_hash_agrees_with_equality(self, step):
        same = PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5])
        assert hash(step) == hash(same) and len({step, same}) == 1
        # -0.0 == 0.0, so the two must hash alike although their bytes differ
        pos = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        neg = PiecewiseDensity([-0.0, 0.5, 1.0], [2.0, -0.0])
        assert pos == neg and hash(pos) == hash(neg)

    def test_integral(self, step):
        assert step.integral() == pytest.approx(1.0, abs=1e-15)


class TestRefinement:
    def test_union_grid(self, step):
        g = PiecewiseDensity([0.0, 0.25, 1.0], [2.0, 2.0 / 3.0])
        rf, rg = common_refinement(step, g)
        expected = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.array_equal(rf.breakpoints, expected)
        assert np.array_equal(rg.breakpoints, expected)

    def test_pointwise_equality_at_random_points(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            f, g = random_density(rng), random_density(rng)
            rf, rg = common_refinement(f, g)
            x = rng.uniform(0.0, 1.0, size=10)
            np.testing.assert_array_equal(rf(x), f(x))
            np.testing.assert_array_equal(rg(x), g(x))

    def test_types_and_mass_preserved(self, step):
        g = PiecewiseDensity([0.0, 0.1, 1.0], [3.0, 7.0 / 9.0])
        rf, rg = common_refinement(step, g)
        assert isinstance(rf, PiecewiseDensity) and isinstance(rg, PiecewiseDensity)
        assert rf.integral() == pytest.approx(1.0, abs=MASS_TOL)


@st.composite
def grid_lists(draw):
    """One to six grids of unequal lengths from ``-0.0`` or ``0.0`` to 1,
    whose inner points often repeat across grids."""
    pool = draw(st.lists(st.floats(1e-9, 1.0, exclude_max=True), min_size=1, max_size=8))
    inner = st.sampled_from(pool) | st.floats(1e-9, 1.0, exclude_max=True)
    grids = []
    for _ in range(draw(st.integers(1, 6))):
        points = draw(st.lists(inner, max_size=10, unique=True))
        zero = draw(st.sampled_from([0.0, -0.0]))
        grids.append(np.array([zero, *sorted(points), 1.0]))
    return grids


@settings(max_examples=200, deadline=None)
@given(grid_lists())
def test_union_grid_equals_the_union1d_fold(grids):
    got = _union_grid(grids)
    fold = reduce(np.union1d, grids)
    # value for value; past the zero, bit for bit
    assert got.shape == fold.shape and np.array_equal(got, fold)
    assert got[1:].tobytes() == fold[1:].tobytes()
    # the first grid's zero is kept
    assert np.signbit(got[0]) == np.signbit(grids[0][0])


def test_candidate_sets_and_refinements_keep_the_first_zero():
    f = PiecewiseDensity([-0.0, 0.5, 1.0], [1.5, 0.5])
    g = PiecewiseDensity([0.0, 0.25, 1.0], [2.0, 2.0 / 3.0])
    assert np.signbit(CandidateSet.from_densities([f, g]).grid[0])
    assert not np.signbit(CandidateSet.from_densities([g, f]).grid[0])
    assert np.signbit(common_refinement(f, g)[0].breakpoints[0])
    assert not np.signbit(common_refinement(g, f)[1].breakpoints[0])


class TestKL:
    def test_self_divergence_is_zero(self, step):
        assert kl_divergence(step, step) == 0.0

    def test_frozen_quadrature_value(self, uniform, step):
        got = kl_divergence(uniform, step)
        assert got == pytest.approx(KL_UNIFORM_VS_STEP, abs=1e-12)
        assert got == pytest.approx(
            quad_piecewise(lambda a, b: a * math.log(a / b) if a else 0.0, uniform, step),
            abs=1e-10,
        )

    def test_infinite_when_support_escapes(self, uniform):
        g = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        assert kl_divergence(uniform, g) == math.inf

    def test_zero_log_zero_convention(self, uniform):
        f = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        # f vanishes where g does; contribution is 0, not nan
        assert kl_divergence(f, f) == 0.0
        assert kl_divergence(f, uniform) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_asymmetric(self, uniform, step):
        assert kl_divergence(uniform, step) != kl_divergence(step, uniform)

    def test_rejects_negative_values(self, uniform):
        g = PiecewiseFunction([0.0, 0.5, 1.0], [-1.0, 1.0])
        with pytest.raises(ValidationError):
            kl_divergence(uniform, g)


class TestHellinger:
    def test_frozen_quadrature_value(self, uniform, step):
        got = hellinger_distance(uniform, step)
        assert got == pytest.approx(HELLINGER_UNIFORM_VS_STEP, abs=1e-12)
        assert got**2 == pytest.approx(
            quad_piecewise(lambda a, b: (math.sqrt(a) - math.sqrt(b)) ** 2, uniform, step),
            abs=1e-10,
        )

    def test_symmetric_and_zero_on_diagonal(self, uniform, step):
        assert hellinger_distance(uniform, step) == hellinger_distance(step, uniform)
        assert hellinger_distance(step, step) == 0.0

    def test_rejects_negative_values(self, uniform):
        g = PiecewiseFunction([0.0, 0.5, 1.0], [-0.5, 0.5])
        with pytest.raises(ValidationError):
            hellinger_distance(uniform, g)


class TestL1:
    def test_frozen_value(self, uniform, step):
        assert l1_distance(uniform, step) == pytest.approx(0.5, abs=1e-15)

    def test_quadrature_agreement_on_random_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            f, g = random_density(rng), random_density(rng)
            assert l1_distance(f, g) == pytest.approx(
                quad_piecewise(lambda a, b: abs(a - b), f, g), abs=1e-10
            )
            assert kl_divergence(f, g) == pytest.approx(
                quad_piecewise(lambda a, b: a * math.log(a / b), f, g), abs=1e-10
            )

    def test_signed_functions_allowed(self):
        f = PiecewiseFunction([0.0, 0.5, 1.0], [-1.0, 1.0])
        g = PiecewiseFunction([0.0, 1.0], [0.0])
        assert l1_distance(f, g) == pytest.approx(1.0, abs=1e-15)


@st.composite
def step_densities(draw):
    n_cuts = draw(st.integers(0, 5))
    cuts = draw(
        st.lists(
            st.floats(0.01, 0.99), min_size=n_cuts, max_size=n_cuts, unique=True
        )
    )
    bp = np.concatenate(([0.0], np.sort(cuts), [1.0]))
    vals = draw(
        st.lists(st.floats(0.05, 4.0), min_size=bp.size - 1, max_size=bp.size - 1)
    )
    return renormalize(PiecewiseFunction(bp, np.asarray(vals)))


@settings(max_examples=100, deadline=None)
@given(step_densities(), step_densities())
def test_loss_relations_hold_for_arbitrary_densities(f, g):
    """Symmetry, range bounds, and KL dominating squared Hellinger."""
    h = hellinger_distance(f, g)
    assert h == pytest.approx(hellinger_distance(g, f), abs=1e-14)
    assert l1_distance(f, g) == pytest.approx(l1_distance(g, f), abs=1e-14)
    assert l1_distance(f, g) <= 2.0 + 1e-12
    assert h <= math.sqrt(2.0) + 1e-12
    assert kl_divergence(f, g) >= h**2 - 1e-12


@st.composite
def lookup_cases(draw):
    """Nondecreasing edges from 0 with repeated values (zero-mass cells of a
    CDF), sometimes clustered below one bucket width, and points on, beside
    and past them."""
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    if draw(st.booleans()):
        width = draw(st.sampled_from([1e-3, 1e-9, 2.0**-40]))
        levels = [min(1.0, levels[0] + width * v) for v in levels]
    rest = draw(st.lists(st.sampled_from(levels + [1.0]), min_size=1, max_size=12))
    edges = np.array([0.0] + sorted(rest))
    extra = draw(st.lists(st.floats(-0.5, 2.0), max_size=8))
    x = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [0.0, 1.0, 2.0], SPECIAL_POINTS, extra))
    return edges, x


#: Subnormals, signed zeros and points far below 0 and above 1.
SPECIAL_POINTS = [5e-324, -5e-324, 2.2e-308, -0.0, -1e-300, -3.0, 1.0 + 2**-52, 1e300, -1e300]


def _searched(edges, x):
    return np.searchsorted(edges[:-1], x, side="right") - 1


@settings(max_examples=300, deadline=None)
@given(lookup_cases())
def test_cell_lookup_matches_the_searches_it_replaced(case):
    edges, x = case
    got = _cell_lookup(edges, x)
    # the sample-point lookup
    assert np.array_equal(got, _searched(edges, x))
    # the CDF inversion, with its clamp onto the last cell
    clamped = np.minimum(np.searchsorted(edges, x, side="right") - 1, edges.size - 2)
    assert np.array_equal(got, clamped)
    # refinement and loss cells: their points are left edges of a finer
    # grid, so they lie below the last edge
    below = x < edges[-1]
    assert np.array_equal(got[below], np.searchsorted(edges, x[below], side="right") - 1)
    # the compact lookup, for the points at or above the first edge
    dtype = _cell_dtype(edges.size - 1)
    inside = x >= edges[0]
    compact = _cell_lookup(edges, x[inside], dtype)
    assert compact.dtype == dtype and np.array_equal(compact, got[inside])


class TestGuideTable:
    @pytest.mark.parametrize("point", [0.0, -0.0, 0.3, 0.5, 1.0, -2.0, 5e-324, 7.0])
    def test_a_scalar_point_gives_a_scalar_cell(self, point):
        edges = np.array([0.0, 0.25, 0.5, 1.0])
        for x in (point, np.float64(point), np.array(point)):
            got = _cell_lookup(edges, x)
            assert np.ndim(got) == 0 and got == _searched(edges, x)

    @pytest.mark.parametrize("extra", [-1, 0, 1, _SAMPLE_CHUNK + 5])
    def test_inputs_longer_than_a_chunk(self, extra):
        rng = np.random.default_rng(extra + 2)
        edges = np.concatenate(([0.0], np.sort(rng.random(40)), [1.0]))
        x = rng.uniform(-0.1, 1.1, size=2 * _SAMPLE_CHUNK + extra)
        x[::97] = edges[rng.integers(0, edges.size, size=x[::97].size)]
        assert np.array_equal(_cell_lookup(edges, x), _searched(edges, x))
        rows = x[:3 * (x.size // 3)].reshape(3, -1)
        got = _cell_lookup(edges, rows)
        assert got.shape == rows.shape and np.array_equal(got, _searched(edges, rows))
        rows = np.abs(rows)
        got = _cell_lookup(edges, rows, np.uint8)
        assert got.dtype == np.uint8 and np.array_equal(got, _searched(edges, rows))

    @pytest.mark.parametrize("chunk", [2**16, 2**14, 1000])
    def test_cells_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        rng = np.random.default_rng(9)
        grid = CandidateSet.from_densities(_perturbation_candidates(64, 1000, 2.0)).grid
        clustered = np.concatenate(([0.0], 0.5 + np.arange(1, 40) / 2**20, [1.0]))
        assert _guide_table(grid[:-1]) is not None and _guide_table(clustered[:-1]) is None
        cases = [(edges, rng.random(c + e), dtype) for c in (1000, 2**14, 2**16) for e in (-1, 0, 1)
                 for edges in (grid, clustered) for dtype in (np.intp, np.uint8)]
        expected = [_cell_lookup(*case) for case in cases]
        monkeypatch.setattr(densities, "_SAMPLE_CHUNK", chunk)
        assert all(np.array_equal(_cell_lookup(*case), cells)
                   for case, cells in zip(cases, expected))

    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("size", [2, 16, 17, 100])
    def test_the_table_is_used_up_to_the_depth_of_a_binary_search(self, size, repeat):
        depth = (size - 1).bit_length()
        k = 1 << (2 * size - 1).bit_length()
        for inside in (depth, depth + 1):
            # ``inside`` edges strictly inside the bucket [1/2, 1/2 + 1/k), the
            # rest on bucket ends, where they count toward a start, not a step
            if repeat:
                cluster = np.full(inside, 0.5 + 0.5 / k)  # a run of zero-mass cells
            else:
                cluster = 0.5 + np.arange(1, inside + 1) / (k * (inside + 1))
            ends = np.arange(size - inside) / k
            edges = np.concatenate((np.sort(np.concatenate((ends, cluster))), [1.0]))
            table = _guide_table(edges[:-1])
            assert (table is None) == (inside > depth)
            if table is not None:
                assert table[2] == inside
            x = np.concatenate((edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf), SPECIAL_POINTS,
                                np.linspace(-0.1, 1.1, 999)))
            assert np.array_equal(_cell_lookup(edges, x), _searched(edges, x))

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_the_family_grids_and_member_cdfs_take_the_table(self, m):
        members = _perturbation_candidates(m, 1000, 2.0)
        cset = CandidateSet.from_densities(members)
        cdfs = [np.concatenate(([0.0], np.cumsum(f.values * f.cell_lengths)))
                for f in members]
        for edges in [cset.grid, *cdfs]:
            table = _guide_table(edges[:-1])
            assert table is not None and table[2] <= 1

    def test_peak_memory_of_a_million_points(self):
        edges = CandidateSet.from_densities(_perturbation_candidates(64, 1000, 2.0)).grid
        x = np.random.default_rng(4).random(10**6)
        tracemalloc.start()
        try:
            _cell_lookup(edges, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6 + 6 * 2**20  # the output and a few chunks


class TestCellDtype:
    @pytest.mark.parametrize("cells, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                              (65_536, np.uint16), (65_537, np.uint32)])
    def test_grids_at_each_width_map_back_every_cell(self, cells, dtype):
        assert _cell_dtype(cells) == dtype
        grid = np.linspace(0.0, 1.0, cells + 1)
        x = np.concatenate((grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                            (grid[:-1] + grid[1:]) / 2, [1.0]))
        x = x[(x >= 0.0) & (x <= 1.0)]
        got = _cell_lookup(grid, x, dtype)
        assert got.dtype == dtype and np.array_equal(got, _searched(grid, x))
        assert np.array_equal(_cell_lookup(grid, grid[:-1], dtype), np.arange(cells))
        assert _cell_lookup(grid, 1.0, dtype) == cells - 1
        # a sample's cells take the compact dtype; the public lookups stay intp
        cset = CandidateSet(grid, np.ones((1, cells)))
        assert _sample_cells(cset, x).dtype == dtype
        assert progressive_weights(cset, x[:100]).cells.dtype == dtype
        for public in (cset.cell_indices(x), PiecewiseFunction(grid, np.ones(cells)).cell_index(x)):
            assert public.dtype == np.intp and np.array_equal(public, got)

    def test_the_widest_grids_take_uint32_then_uint64(self):
        assert _cell_dtype(2**32) == np.uint32
        assert _cell_dtype(2**32 + 1) == np.uint64


class TestSampling:
    def test_support_and_shape(self, step):
        x = sample(step, 1000, seed=0)
        assert x.shape == (1000,)
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_deterministic_given_seed(self, step):
        assert np.array_equal(sample(step, 64, seed=42), sample(step, 64, seed=42))
        assert not np.array_equal(sample(step, 64, seed=42), sample(step, 64, seed=43))

    def test_tuple_seeds(self, step):
        a = sample(step, 16, seed=(7, 100, 3))
        b = sample(step, 16, seed=(7, 100, 4))
        assert not np.array_equal(a, b)

    def test_mean_matches_clt(self, uniform):
        n = 100_000
        x = sample(uniform, n, seed=5)
        sigma = 1.0 / math.sqrt(12.0)
        assert abs(float(x.mean()) - 0.5) <= 4.0 * sigma / math.sqrt(n)

    def test_cell_frequencies_chi_squared(self):
        d = PiecewiseDensity([0.0, 0.2, 0.7, 1.0], [2.0, 0.8, 1.0 / 1.5])
        n = 100_000
        x = sample(d, n, seed=11)
        counts, _ = np.histogram(x, bins=d.breakpoints)
        expected = d.values * d.cell_lengths * n
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-3

    def test_zero_mass_cells_never_hit(self):
        d = PiecewiseDensity([0.0, 0.25, 0.75, 1.0], [2.0, 0.0, 2.0])
        x = sample(d, 10_000, seed=3)
        assert not np.any((x >= 0.25) & (x < 0.75))

    def test_empty_and_invalid_sizes(self, uniform):
        assert sample(uniform, 0, seed=1).shape == (0,)
        with pytest.raises(ValidationError):
            sample(uniform, -1, seed=1)


class TestValidateClass:
    def test_bound_must_exceed_one(self, uniform):
        with pytest.raises(ValidationError):
            validate_class(uniform, FunctionClass.DENSITY, 1.0)

    def test_uniform_in_every_class(self, uniform):
        for cls in FunctionClass:
            assert validate_class(uniform, cls, 1.5)

    def test_sup_bound_enforced(self, step):
        assert validate_class(step, FunctionClass.DENSITY, 2.0)
        assert not validate_class(step, FunctionClass.DENSITY, 1.2)

    def test_nonnormalized_functions(self):
        g = PiecewiseFunction([0.0, 0.5, 1.0], [0.5, 0.3])  # mass 0.4
        assert not validate_class(g, FunctionClass.DENSITY, 2.0)
        assert not validate_class(g, FunctionClass.KL_CANDIDATE, 2.0)
        assert validate_class(g, FunctionClass.HELLINGER_CANDIDATE, 2.0)
        assert validate_class(g, FunctionClass.L1_CANDIDATE, 2.0)

    def test_signed_functions(self):
        g = PiecewiseFunction([0.0, 0.5, 1.0], [-0.5, 0.5])
        assert not validate_class(g, FunctionClass.HELLINGER_CANDIDATE, 2.0)
        assert validate_class(g, FunctionClass.L1_CANDIDATE, 2.0)


class TestRenormalize:
    def test_scales_to_unit_mass(self):
        f = PiecewiseFunction([0.0, 0.5, 1.0], [3.0, 1.0])
        d = renormalize(f)
        assert isinstance(d, PiecewiseDensity)
        np.testing.assert_allclose(d.values, [1.5, 0.5])

    def test_rejects_zero_mass_and_negatives(self):
        with pytest.raises(ValidationError):
            renormalize(PiecewiseFunction([0.0, 1.0], [0.0]))
        with pytest.raises(ValidationError):
            renormalize(PiecewiseFunction([0.0, 0.5, 1.0], [-1.0, 3.0]))


class TestFileFormats:
    def test_density_roundtrip_is_exact(self, tmp_path, step):
        p = tmp_path / "d.json"
        save_density(step, p)
        back = load_density(p)
        assert np.array_equal(back.breakpoints, step.breakpoints)
        assert np.array_equal(back.values, step.values)

    def test_density_file_is_plain_json(self, tmp_path, step):
        p = tmp_path / "d.json"
        save_density(step, p)
        obj = json.loads(p.read_text())
        assert set(obj) == {"breakpoints", "values"}

    def test_candidate_list_roundtrip(self, tmp_path, uniform, step):
        p = tmp_path / "c.json"
        save_densities([uniform, step], p)
        back = load_densities(p)
        assert len(back) == 2
        assert np.array_equal(back[1].values, step.values)

    def test_malformed_density_files(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"breakpoints": [0, 1]}')
        with pytest.raises(ValidationError):
            load_density(p)
        p.write_text("[]")
        with pytest.raises(ValidationError):
            load_densities(p)

    def test_sample_roundtrip_is_exact(self, tmp_path, step):
        x = sample(step, 100, seed=9)
        p = tmp_path / "x.txt"
        save_sample(x, p)
        assert np.array_equal(load_sample(p), x)

    def test_malformed_sample_file(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("0.5\nnot-a-number\n")
        with pytest.raises(ValidationError):
            load_sample(p)
