"""Progressive-mixture weights, the aggregate, and minimum-distance selection.

The weight checks use exact rational arithmetic (fractions) and exactly
rounded log-domain sums (math.fsum) as independent oracles.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from densagg import (
    CandidateSet,
    PiecewiseDensity,
    PiecewiseFunction,
    ValidationError,
    aggregate,
    empirical_kl,
    kl_divergence,
    mixture,
    progressive_weights,
    renormalize,
    sample,
    yatracos_class,
    yatracos_select,
)
from densagg.aggregation import _normalize_log_rows


def two_candidates():
    return CandidateSet.from_densities([
        PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5]),
        PiecewiseDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
    ])


def random_positive_density(rng, max_cells=6):
    cuts = np.unique(rng.uniform(0.05, 0.95, size=int(rng.integers(0, max_cells))))
    bp = np.concatenate(([0.0], cuts, [1.0]))
    return renormalize(PiecewiseFunction(bp, rng.uniform(0.2, 3.0, size=bp.size - 1)))


class TestCandidateSet:
    def test_shared_grid_is_union(self):
        a = PiecewiseDensity([0.0, 0.25, 1.0], [2.0, 2.0 / 3.0])
        b = PiecewiseDensity([0.0, 0.5, 1.0], [0.5, 1.5])
        cset = CandidateSet.from_densities([a, b])
        assert np.array_equal(cset.grid, [0.0, 0.25, 0.5, 1.0])
        for j, original in enumerate([a, b]):
            x = np.linspace(0.0, 1.0, 13)
            np.testing.assert_array_equal(cset.candidate(j)(x), original(x))

    def test_needs_at_least_one(self):
        with pytest.raises(ValidationError):
            CandidateSet.from_densities([])

    def test_bound_validation_is_optional(self):
        tall = PiecewiseDensity([0.0, 0.1, 1.0], [5.0, 5.0 / 9.0])
        CandidateSet.from_densities([tall])  # no bound, no check
        with pytest.raises(ValidationError):
            CandidateSet.from_densities([tall], bound=2.0)

    def test_rows_must_be_densities(self):
        with pytest.raises(ValidationError):
            CandidateSet(np.array([0.0, 1.0]), np.array([[2.0]]))

    def test_cell_indices_close_the_last_cell(self):
        cset = two_candidates()
        np.testing.assert_array_equal(
            cset.cell_indices([0.0, 0.49, 0.5, 0.99, 1.0]), [0, 0, 1, 1, 1])

    def test_equality_and_hash(self):
        u = PiecewiseDensity.uniform()
        a, b = CandidateSet.from_densities([u, u]), CandidateSet.from_densities([u, u])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != two_candidates() and a != CandidateSet.from_densities([u])
        assert a != (a.grid, a.values)

    def test_log_table_is_cells_by_candidates(self):
        cset = CandidateSet.from_densities([
            PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0]), PiecewiseDensity.uniform(),
        ])
        np.testing.assert_array_equal(
            cset.log_table, [[math.log(2.0), 0.0], [-math.inf, 0.0]])
        np.testing.assert_array_equal(
            cset.log_likelihood_terms([0.75, 0.25]), cset.log_table[[1, 0]])


@pytest.mark.parametrize("consumer", [
    CandidateSet.cell_indices, CandidateSet.log_likelihood_terms,
    progressive_weights, aggregate, yatracos_select,
])
@pytest.mark.parametrize("x", [
    [0.2, math.nan, 0.7], [math.nan], [0.3, math.inf], [-math.inf, 0.3], [0.3, 1.5], [-0.25],
])
def test_every_sample_consumer_rejects_bad_points(consumer, x):
    with pytest.raises(ValidationError, match="finite and lie in"):
        consumer(two_candidates(), x)


class TestEmpiricalKL:
    def test_uniform_is_zero(self):
        assert empirical_kl(PiecewiseDensity.uniform(), [0.1, 0.9]) == 0.0

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(101)
        f = random_positive_density(rng)
        x = sample(f, 200, seed=5)
        oracle = -math.fsum(math.log(float(f(xi))) for xi in x) / x.size
        assert empirical_kl(f, x) == pytest.approx(oracle, abs=1e-12)

    def test_infinite_on_zero_likelihood(self):
        f = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        assert empirical_kl(f, [0.75]) == math.inf

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            empirical_kl(PiecewiseDensity.uniform(), [])


class TestProgressiveWeights:
    def test_prior_row_is_exactly_uniform(self):
        rng = np.random.default_rng(0)
        cands = [random_positive_density(rng) for _ in range(7)]
        traj = progressive_weights(CandidateSet.from_densities(cands), [0.3, 0.6])
        assert np.all(traj.weights[0] == 1.0 / 7.0)

    def test_two_candidate_rational_oracle(self):
        # Sample points 0.25, 0.75, 0.25; candidate values are halves of odd
        # integers, so every weight is an exact dyadic rational.
        cset = two_candidates()
        x = [0.25, 0.75, 0.25]
        traj = progressive_weights(cset, x)

        vals = [
            {0: Fraction(3, 2), 1: Fraction(1, 2)},
            {0: Fraction(1, 2), 1: Fraction(3, 2)},
        ]
        cells = [0, 1, 0]
        prods = [Fraction(1), Fraction(1)]
        expected = [[Fraction(1, 2), Fraction(1, 2)]]
        for c in cells:
            prods = [prods[j] * vals[j][c] for j in range(2)]
            total = sum(prods)
            expected.append([p / total for p in prods])

        assert expected == [
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(3, 4), Fraction(1, 4)],
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(3, 4), Fraction(1, 4)],
        ]
        np.testing.assert_allclose(
            traj.weights, np.array(expected, dtype=float), atol=1e-15
        )
        np.testing.assert_allclose(traj.averaged, [0.625, 0.375], atol=1e-15)

    def test_identical_candidates_stay_uniform(self):
        u = PiecewiseDensity.uniform()
        cset = CandidateSet.from_densities([u, u, u])
        traj = progressive_weights(cset, sample(u, 50, seed=2))
        np.testing.assert_allclose(traj.weights, 1.0 / 3.0, atol=1e-15)

    def test_matches_exponential_reweighting_of_empirical_loss(self):
        # Row k is proportional to exp(-k * empirical KL over the k-prefix).
        rng = np.random.default_rng(33)
        cands = [random_positive_density(rng) for _ in range(5)]
        cset = CandidateSet.from_densities(cands)
        x = sample(cands[0], 40, seed=8)
        traj = progressive_weights(cset, x)
        for k in (1, 7, 40):
            log_w = np.array([
                -k * empirical_kl(cset.candidate(j), x[:k]) for j in range(5)
            ])
            w = np.exp(log_w - log_w.max())
            np.testing.assert_allclose(traj.weights[k], w / w.sum(), atol=1e-12)

    def test_zero_likelihood_gives_exact_zero_weight(self):
        left = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        cset = CandidateSet.from_densities([left, PiecewiseDensity.uniform()])
        traj = progressive_weights(cset, [0.25, 0.75, 0.25])
        assert traj.weights[1, 0] > 0
        assert traj.weights[2, 0] == 0.0  # vanished at the second point ...
        assert traj.weights[3, 0] == 0.0  # ... and stays at exactly zero
        assert traj.weights[2, 1] == 1.0

    def test_all_candidates_vanishing_is_an_error(self):
        left = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        cset = CandidateSet.from_densities([left, left])
        with pytest.raises(ValidationError, match="zero likelihood"):
            progressive_weights(cset, [0.75])

    @pytest.mark.parametrize("x", [0.25, [[0.25, 0.75]]])
    def test_sample_must_be_one_dimensional(self, x):
        with pytest.raises(ValidationError, match="one-dimensional"):
            progressive_weights(two_candidates(), x)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(4)
        cands = [random_positive_density(rng) for _ in range(11)]
        cset = CandidateSet.from_densities(cands)
        traj = progressive_weights(cset, sample(cands[3], 300, seed=12))
        assert np.all(traj.weights >= 0)
        np.testing.assert_allclose(traj.weights.sum(axis=1), 1.0, atol=1e-12)

    def test_pointwise_dominant_candidate_gets_larger_weight(self):
        hi = PiecewiseDensity([0.0, 0.5, 1.0], [1.8, 0.2])
        lo = PiecewiseDensity([0.0, 0.5, 1.0], [1.2, 0.8])
        cset = CandidateSet.from_densities([hi, lo])
        traj = progressive_weights(cset, [0.1, 0.2, 0.3])
        assert np.all(traj.weights[1:, 0] > traj.weights[1:, 1])

    def test_common_likelihood_scale_cancels(self):
        rng = np.random.default_rng(6)
        log_w = rng.normal(size=(9, 4)) * 30.0
        shifted = log_w + rng.normal(size=(9, 1)) * 50.0
        np.testing.assert_allclose(
            _normalize_log_rows(shifted), _normalize_log_rows(log_w), atol=1e-13
        )

    def test_trajectory_csv(self, tmp_path):
        traj = progressive_weights(two_candidates(), [0.25, 0.75])
        path = tmp_path / "w.csv"
        traj.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "w_1", "w_2"]
        assert len(rows) == 4
        parsed = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_array_equal(parsed, traj.weights)


class TestAggregate:
    def test_empty_sample_gives_equal_mixture(self):
        cset = two_candidates()
        agg = aggregate(cset, [])
        np.testing.assert_array_equal(agg.values, [1.0, 1.0])

    def test_two_candidate_oracle_mixture(self):
        # Averaged weights (5/8, 3/8) => cell values (9/8, 7/8).
        agg = aggregate(two_candidates(), [0.25, 0.75, 0.25])
        np.testing.assert_allclose(agg.values, [1.125, 0.875], atol=1e-15)

    def test_unit_mass_for_large_instances(self):
        rng = np.random.default_rng(2024)
        cands = [random_positive_density(rng) for _ in range(100)]
        cset = CandidateSet.from_densities(cands)
        agg = aggregate(cset, sample(cands[0], 1000, seed=1))
        assert abs(agg.integral() - 1.0) <= 1e-12
        assert np.all(agg.values >= 0)

    def test_single_candidate_rejected(self):
        cset = CandidateSet.from_densities([PiecewiseDensity.uniform()])
        with pytest.raises(ValidationError):
            aggregate(cset, [0.5])

    def test_mixture_validates_weights(self):
        cset = two_candidates()
        with pytest.raises(ValidationError):
            mixture(cset, [0.9, 0.2])
        with pytest.raises(ValidationError):
            mixture(cset, [1.5, -0.5])

    def test_risk_never_worse_than_worst_candidate(self):
        # sanity: aggregation interpolates, so its KL risk from the truth
        # cannot exceed the worst candidate's by Jensen's inequality
        rng = np.random.default_rng(99)
        cands = [random_positive_density(rng) for _ in range(6)]
        cset = CandidateSet.from_densities(cands)
        truth = cands[2]
        x = sample(truth, 120, seed=7)
        risk = kl_divergence(truth, aggregate(cset, x))
        worst = max(kl_divergence(truth, c) for c in cands)
        assert risk <= worst + 1e-12


class TestYatracosClass:
    def test_single_candidate_gives_empty_set_only(self):
        cset = CandidateSet.from_densities([PiecewiseDensity.uniform()])
        assert yatracos_class(cset) == [frozenset()]

    def test_two_candidates(self):
        sets = yatracos_class(two_candidates())
        assert sets == [frozenset(), frozenset({0}), frozenset({1})]

    def test_deduplication_and_determinism(self):
        rng = np.random.default_rng(15)
        cands = [random_positive_density(rng) for _ in range(5)]
        cset = CandidateSet.from_densities(cands)
        sets = yatracos_class(cset)
        assert len(sets) == len(set(sets))
        assert sets == yatracos_class(cset)
        # ordered pairs of distinct candidates, plus the empty set
        assert len(sets) <= 5 * 4 + 1


class TestYatracosSelect:
    def test_single_candidate(self):
        cset = CandidateSet.from_densities([PiecewiseDensity.uniform()])
        assert yatracos_select(cset, [0.5, 0.6]) == 0

    def test_disjoint_supports(self):
        cset = CandidateSet.from_densities([
            PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0]),
            PiecewiseDensity([0.0, 0.5, 1.0], [0.0, 2.0]),
        ])
        assert yatracos_select(cset, [0.1, 0.2, 0.3, 0.4]) == 0
        assert yatracos_select(cset, [0.6, 0.7, 0.8, 0.9]) == 1

    def test_ties_break_to_smallest_index(self):
        u = PiecewiseDensity.uniform()
        cset = CandidateSet.from_densities([u, u, u])
        assert yatracos_select(cset, [0.2, 0.8]) == 0

    def test_recovers_sampled_candidate_with_high_frequency(self):
        cands = [
            PiecewiseDensity([0.0, 0.5, 1.0], [1.8, 0.2]),
            PiecewiseDensity([0.0, 0.5, 1.0], [0.2, 1.8]),
            PiecewiseDensity.uniform(),
        ]
        cset = CandidateSet.from_densities(cands)
        hits = sum(
            yatracos_select(cset, sample(cands[0], 10_000, seed=(9, s))) == 0
            for s in range(100)
        )
        assert hits >= 99

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        cands = [random_positive_density(rng) for _ in range(4)]
        x = sample(cands[1], 500, seed=13)
        selected = yatracos_select(CandidateSet.from_densities(cands), x)
        perm = [2, 0, 3, 1]
        permuted = [cands[p] for p in perm]
        selected_perm = yatracos_select(CandidateSet.from_densities(permuted), x)
        assert permuted[selected_perm] is cands[selected]

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            yatracos_select(two_candidates(), [])
