"""Core step-function layer: construction, losses, sampling, file formats.

Loss values are checked against independent adaptive-quadrature oracles
(scipy), not against the cell-sum formulas under test.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

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
