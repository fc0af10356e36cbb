"""Worst-case family construction: parameters, words, closed forms, audit.

The greedy word sets are checked against an independent brute-force scan,
and every closed-form distance is checked against the exact cell-sum
integrators on the actual perturbed densities.
"""

import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densagg import (
    HELLINGER_CURVATURE,
    AuditReport,
    PerturbationFamily,
    PiecewiseDensity,
    SeparatedSet,
    ValidationError,
    analytic_hellinger_sq,
    analytic_kl_product,
    analytic_l1,
    audit_hypotheses,
    build_separated_set,
    bump,
    choose_parameters,
    hamming_distance,
    hellinger_distance,
    kl_divergence,
    l1_distance,
    load_separated_set,
    min_bump_count,
    perturbed_density,
    save_separated_set,
    validate_class,
)
from densagg.densities import FunctionClass, _cell_lookup, _sample_rows
from densagg.lowerbound import _member_values


def brute_force_greedy(n_bits, n_words):
    """Independent first-fit scan over integers in counting order."""
    accepted = [0]
    w = 1
    while len(accepted) < n_words and w < 2**n_bits:
        if all(8 * ((w ^ v).bit_count()) >= n_bits for v in accepted):
            accepted.append(w)
        w += 1
    return accepted


def words_as_ints(sep):
    return [int("".join(str(int(b)) for b in row), 2) for row in sep.words]


@st.composite
def boundary_triples(draw):
    """``(M, n, A)`` with ``log(M)`` near ``16 * min(1, A-1)^2 * n``."""
    m = draw(st.integers(2, 10**9))
    bound = draw(st.floats(1.0, 3.0, exclude_min=True))
    tipping = math.log(m) / (16.0 * min(1.0, bound - 1.0) ** 2)
    return m, max(1, math.floor(tipping) + draw(st.integers(-1, 2))), bound


@pytest.fixture(scope="module")
def family_16_1000():
    return choose_parameters(16, 1000, 2.0)


@pytest.fixture(scope="module")
def words_16_1000(family_16_1000):
    return build_separated_set(family_16_1000.n_bumps, 16)


class TestParameterChoice:
    def test_minimal_bump_count_vs_integer_scan(self):
        for m in range(2, 41):
            d = 1
            while 2**d < m**8:
                d += 1
            assert min_bump_count(m) == d

    @pytest.mark.parametrize("m,expected", [(2, 8), (3, 13), (4, 16), (10, 27), (16, 32), (256, 64)])
    def test_known_bump_counts(self, m, expected):
        assert min_bump_count(m) == expected

    def test_frozen_example(self):
        fam = choose_parameters(16, 100, 2.0)
        assert fam.n_bumps == 32
        assert fam.amplitude == pytest.approx(1.3320873778523163, abs=1e-15)
        assert fam.amplitude == pytest.approx(
            8.0 * math.sqrt(math.log(16.0) / 100.0), abs=1e-15
        )

    def test_feasibility_gate_names_the_inequality(self):
        with pytest.raises(ValidationError, match=r"16 \* min\(1, A-1\)\^2 \* n"):
            choose_parameters(16, 10, 1.01)

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            choose_parameters(1, 100, 2.0)
        with pytest.raises(ValidationError):
            choose_parameters(16, 0, 2.0)
        with pytest.raises(ValidationError):
            choose_parameters(16, 100, 1.0)

    def test_family_invariants_enforced(self, family_16_1000):
        cap = family_16_1000.n_bumps * 1.0
        with pytest.raises(ValidationError, match="amplitude"):
            replace(family_16_1000, amplitude=cap * 1.01)
        for bound in (1.0, math.inf):
            with pytest.raises(ValidationError, match="sup bound must exceed 1"):
                replace(family_16_1000, bound=bound)
        # within the cap, rescaling is allowed (used by the audit tests)
        bigger = replace(family_16_1000, amplitude=family_16_1000.amplitude * 6)
        assert bigger.bump_height == pytest.approx(6 * family_16_1000.bump_height)

    def test_tuned_family_at_the_float_boundary_is_admitted(self):
        # the exact-arithmetic gate rejected this family, though its members
        # reach 1 + a == A and no further
        bound = 1.0000000117808507
        fam = choose_parameters(3078, 3617031736664667, bound)
        assert 1.0 + fam.bump_height == bound
        ones = perturbed_density(fam, np.ones(fam.n_bumps, dtype=int))
        assert validate_class(ones, FunctionClass.KL_CANDIDATE, bound)

    def test_family_whose_members_pass_the_bound_is_rejected(self):
        # D = 90, so the amplitude D * (A - 1) passed the old cap, but the
        # members' 1 + a rounds above A
        bound = 1.9853177518521077
        with pytest.raises(ValidationError, match="amplitude"):
            PerturbationFamily(amplitude=90 * (bound - 1.0), bound=bound, family_size=2400)

    @settings(max_examples=300, deadline=None)
    @given(boundary_triples())
    def test_tuned_families_near_the_gate_stay_in_the_class(self, triple):
        m, n, bound = triple
        try:
            fam = choose_parameters(m, n, bound)
        except ValidationError as err:
            assert "log(M) <= 16 * min(1, A-1)^2 * n" in str(err)
            return
        ones = perturbed_density(fam, np.ones(fam.n_bumps, dtype=int))
        assert validate_class(ones, FunctionClass.KL_CANDIDATE, bound)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(2, 5000), bound=st.floats(1.0, 3.0, exclude_min=True),
           steps=st.integers(-3, 3))
    def test_direct_families_near_the_cap_stay_in_range(self, m, bound, steps):
        amplitude = min_bump_count(m) * min(1.0, bound - 1.0)
        for _ in range(abs(steps)):
            amplitude = math.nextafter(amplitude, math.copysign(math.inf, steps))
        try:
            fam = PerturbationFamily(amplitude=amplitude, bound=bound, family_size=m)
        except ValidationError:
            return
        # every member's values are among those of these two members
        for word in (np.zeros(fam.n_bumps, dtype=int), np.ones(fam.n_bumps, dtype=int)):
            values = perturbed_density(fam, word).values
            assert np.all((values >= 0.0) & (values <= bound))

    def test_tight_amplitude_never_exceeds_bound_margin(self):
        for m, n, a in [(2, 1, 2.0), (16, 4, 3.0), (5, 2, 1.5)]:
            fam = choose_parameters(m, n, a)
            assert fam.amplitude <= fam.n_bumps * min(1.0, a - 1.0) + 1e-15
            d = perturbed_density(fam, np.ones(fam.n_bumps, dtype=int))
            assert validate_class(d, FunctionClass.DENSITY, a)


class TestBumps:
    def test_integrates_to_zero(self, family_16_1000):
        for j in (1, 17, 32):
            assert abs(bump(family_16_1000, j).integral()) <= 1e-15

    def test_height_and_support(self, family_16_1000):
        fam = family_16_1000
        b = bump(fam, 5)
        assert np.max(b.values) == fam.bump_height
        assert np.min(b.values) == -fam.bump_height
        # up on the left half-cell, down on the right half-cell
        assert b(4.25 / 32.0) == fam.bump_height
        assert b(4.75 / 32.0) == -fam.bump_height
        assert b(3.9 / 32.0) == 0.0 and b(5.1 / 32.0) == 0.0

    def test_translates_of_first_bump(self, family_16_1000):
        fam = family_16_1000
        first = bump(fam, 1)
        x = np.linspace(0.0, 1.0 / 32.0, 9)[:-1]
        for j in (2, 31):
            shifted = bump(fam, j)(x + (j - 1) / 32.0)
            np.testing.assert_allclose(shifted, first(x), atol=1e-15)

    def test_edge_indices(self, family_16_1000):
        assert bump(family_16_1000, 1).breakpoints[0] == 0.0
        assert bump(family_16_1000, 32).breakpoints[-1] == 1.0
        with pytest.raises(ValidationError):
            bump(family_16_1000, 0)
        with pytest.raises(ValidationError):
            bump(family_16_1000, 33)


class TestPerturbedDensity:
    def test_zero_word_is_uniform(self, family_16_1000):
        d = perturbed_density(family_16_1000, np.zeros(32, dtype=int))
        assert np.all(d.values == 1.0)

    def test_active_cells_alternate(self, family_16_1000):
        fam = family_16_1000
        word = np.zeros(32, dtype=int)
        word[[0, 7]] = 1
        d = perturbed_density(fam, word)
        a = fam.bump_height
        assert d.values[0] == 1.0 + a and d.values[1] == 1.0 - a
        assert d.values[14] == 1.0 + a and d.values[15] == 1.0 - a
        assert np.all(d.values[2:14] == 1.0)

    def test_is_one_plus_sum_of_bumps(self, family_16_1000):
        # the definition, reassembled independently from the bump op
        fam = family_16_1000
        rng = np.random.default_rng(50)
        word = (rng.random(32) < 0.5).astype(int)
        d = perturbed_density(fam, word)
        x = rng.uniform(0.0, 1.0, size=64)
        expected = 1.0 + sum(
            word[j - 1] * np.asarray(bump(fam, j)(x)) for j in range(1, 33)
        )
        np.testing.assert_allclose(np.asarray(d(x)), expected, atol=1e-12)

    def test_unit_mass_and_class_membership(self, family_16_1000):
        fam = family_16_1000
        word = np.ones(32, dtype=int)
        d = perturbed_density(fam, word)
        assert abs(d.integral() - 1.0) <= 1e-13
        assert validate_class(d, FunctionClass.DENSITY, fam.bound)

    def test_word_validation(self, family_16_1000):
        with pytest.raises(ValidationError):
            perturbed_density(family_16_1000, np.zeros(31, dtype=int))
        with pytest.raises(ValidationError):
            perturbed_density(family_16_1000, np.full(32, 2, dtype=int))


class TestHammingDistance:
    def test_basics(self):
        assert hamming_distance([0, 1, 1], [0, 1, 1]) == 0
        assert hamming_distance([0, 1, 1], [1, 1, 0]) == 2

    def test_symmetry_exhaustive_small_words(self):
        words = [[(v >> k) & 1 for k in range(6)] for v in range(64)]
        for w1 in words[::5]:
            for w2 in words:
                assert hamming_distance(w1, w2) == hamming_distance(w2, w1)

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(60)
        for _ in range(500):
            a, b, c = (rng.integers(0, 2, size=10) for _ in range(3))
            assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    def test_validation(self):
        with pytest.raises(ValidationError):
            hamming_distance([0, 1], [0, 1, 1])
        with pytest.raises(ValidationError):
            hamming_distance([0, 2], [0, 1])
        with pytest.raises(ValidationError):
            hamming_distance([[0, 1]], [[0, 1]])


class TestSeparatedSet:
    def test_two_words_of_length_eight(self):
        sep = build_separated_set(8, 2)
        assert np.array_equal(sep.words, [[0] * 8, [0] * 7 + [1]])

    def test_four_words_of_length_sixteen(self):
        sep = build_separated_set(16, 4)
        assert words_as_ints(sep) == [0, 3, 5, 6]
        assert words_as_ints(sep) == brute_force_greedy(16, 4)

    def test_sixteen_words_match_brute_force(self):
        sep = build_separated_set(32, 16)
        assert sep.size == 16
        assert words_as_ints(sep) == brute_force_greedy(32, 16)

    def test_pairwise_separation_exhaustive(self):
        sep = build_separated_set(32, 16)
        for i in range(sep.size):
            for j in range(i + 1, sep.size):
                assert hamming_distance(sep.words[i], sep.words[j]) >= 4

    def test_contains_zero_word_first(self):
        sep = build_separated_set(24, 8)
        assert np.all(sep.words[0] == 0)

    def test_reproducible_bit_for_bit(self):
        a = build_separated_set(32, 16)
        b = build_separated_set(32, 16)
        assert np.array_equal(a.words, b.words)

    def test_infeasible_request_rejected(self):
        with pytest.raises(ValidationError, match="2\\^"):
            build_separated_set(8, 3)  # needs 2^(8/8) >= 3
        with pytest.raises(ValidationError, match="word length must be positive"):
            build_separated_set(0, 1)
        with pytest.raises(ValidationError, match="set size must be positive"):
            build_separated_set(16, 0)

    def test_words_wider_than_64_bits(self):
        # basis words are searched in 64 bits; the leading columns stay zero
        sep = build_separated_set(72, 2)
        assert sep.size == 2
        assert np.all(sep.words[1][:63] == 0) and np.all(sep.words[1][63:] == 1)

    def test_validation_on_construction(self):
        with pytest.raises(ValidationError, match="separated"):
            SeparatedSet(np.array([[0] * 16, [0] * 15 + [1]]))
        with pytest.raises(ValidationError, match="all zeros"):
            SeparatedSet(np.array([[1] + [0] * 15, [0] * 12 + [1] * 4]))
        for words in (np.zeros(16, dtype=int), np.zeros((0, 16), dtype=int),
                      np.zeros((1, 0), dtype=int)):
            with pytest.raises(ValidationError, match="nonempty 2-D"):
                SeparatedSet(words)
        with pytest.raises(ValidationError, match="0 or 1"):
            SeparatedSet(np.array([[0] * 16, [0] * 12 + [2] * 4]))

    def test_save_load_roundtrip(self, tmp_path):
        sep = build_separated_set(16, 4)
        p = tmp_path / "words.txt"
        save_separated_set(sep, p)
        assert p.read_text().splitlines()[0] == "0" * 16
        back = load_separated_set(p)
        assert np.array_equal(back.words, sep.words)

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0101\n01x1\n")
        with pytest.raises(ValidationError):
            load_separated_set(p)

    def test_load_rejects_ragged_words(self, tmp_path):
        p = tmp_path / "ragged.txt"
        p.write_text("0000\n011\n")
        with pytest.raises(ValidationError, match="ragged.txt"):
            load_separated_set(p)


class TestClosedForms:
    def test_identical_words_give_zero(self, family_16_1000):
        w = np.ones(32, dtype=int)
        assert analytic_hellinger_sq(family_16_1000, w, w) == 0.0
        assert analytic_l1(family_16_1000, w, w) == 0.0
        assert analytic_kl_product(family_16_1000, np.zeros(32, dtype=int), 100) == 0.0

    def test_hellinger_matches_exact_integration(self, family_16_1000, words_16_1000):
        fam, sep = family_16_1000, words_16_1000
        densities = [perturbed_density(fam, w) for w in sep.words]
        for i in range(0, sep.size, 3):
            for j in range(i + 1, sep.size, 2):
                exact = hellinger_distance(densities[i], densities[j]) ** 2
                assert analytic_hellinger_sq(fam, sep.words[i], sep.words[j]) == pytest.approx(
                    exact, abs=1e-12
                )

    def test_l1_matches_exact_integration(self, family_16_1000, words_16_1000):
        fam, sep = family_16_1000, words_16_1000
        densities = [perturbed_density(fam, w) for w in sep.words]
        for i in range(0, sep.size, 3):
            for j in range(i + 1, sep.size, 2):
                assert analytic_l1(fam, sep.words[i], sep.words[j]) == pytest.approx(
                    l1_distance(densities[i], densities[j]), abs=1e-12
                )

    def test_kl_tensorizes_over_sample_size(self, family_16_1000, words_16_1000):
        fam, sep = family_16_1000, words_16_1000
        uniform = PiecewiseDensity.uniform()
        for w in sep.words[1:6]:
            single = kl_divergence(perturbed_density(fam, w), uniform)
            for n in (1, 2, 5):
                assert analytic_kl_product(fam, w, n) == pytest.approx(
                    n * single, abs=1e-12
                )

    @pytest.mark.parametrize("seed", [1, 7])
    def test_kl_product_matches_the_simulated_log_likelihood_ratio(self, seed):
        # Under member w, the mean of L_n(w) - L_n(0), with L_n a member's
        # log-likelihood, estimates n KL(f_w | f_0) without bias, and f_0 is
        # the uniform density.  Summed over the words of the (16, 400)
        # family, from 1,000 samples per word (6.4e6 points); a KL product
        # of a quarter of its value sat about 7 se away.
        n, reps = 400, 1000
        fam = choose_parameters(16, n, 2.0)
        words = build_separated_set(fam.n_bumps, 16).words
        grid, values = _member_values(fam, np.vstack([words, np.zeros_like(words[:1])]))
        logs = np.log(values)
        simulated, variance = 0.0, 0.0
        for t in range(words.shape[0]):
            seeds = [(seed, t, r) for r in range(reps)]
            cells = _cell_lookup(grid, _sample_rows(PiecewiseDensity(grid, values[t]), n, seeds))
            ratio = (logs[t][cells] - logs[-1][cells]).sum(axis=1)
            simulated += ratio.mean()
            variance += ratio.var(ddof=1) / reps
        closed = math.fsum(analytic_kl_product(fam, w, n) for w in words)
        assert abs(simulated - closed) <= 4 * math.sqrt(variance)

    def test_quadratic_minorant_sweep(self):
        # 2 - sqrt(1+a) - sqrt(1-a) >= 2 c a^2 across the whole bump range
        a = np.linspace(0.0, 1.0, 10_000)
        lhs = 2.0 - np.sqrt(1.0 + a) - np.sqrt(1.0 - a)
        assert np.all(lhs >= 2.0 * HELLINGER_CURVATURE * a**2)

    def test_hellinger_floor_in_terms_of_parameters(self, family_16_1000, words_16_1000):
        fam, sep = family_16_1000, words_16_1000
        floor = (
            2.0 * HELLINGER_CURVATURE * fam.amplitude**2 / fam.n_bumps**3
        )
        for i in range(sep.size):
            for j in range(i + 1, sep.size):
                rho = hamming_distance(sep.words[i], sep.words[j])
                assert analytic_hellinger_sq(fam, sep.words[i], sep.words[j]) >= rho * floor - 1e-15

    def test_kl_ceiling_in_terms_of_parameters(self, family_16_1000, words_16_1000):
        fam, sep = family_16_1000, words_16_1000
        n = 1000
        ceiling = n * fam.amplitude**2 / fam.n_bumps**2
        for w in sep.words:
            assert analytic_kl_product(fam, w, n) <= ceiling + 1e-15

    def test_l1_separation_floor_at_tuned_amplitude(self, family_16_1000, words_16_1000):
        fam, sep = family_16_1000, words_16_1000
        floor = math.sqrt(math.log(fam.family_size) / 1000) / 32.0
        for i in range(sep.size):
            for j in range(i + 1, sep.size):
                assert analytic_l1(fam, sep.words[i], sep.words[j]) >= floor - 1e-15

    def test_per_bump_forms_match_a_200_digit_reference(self):
        # M = 2 gives D = 8 bumps, so amplitude 8a has bump height exactly a,
        # and the Hamming distance 8 (resp. 16 active bump-samples over 2D)
        # scales the per-bump values by exactly 1.
        heights = np.concatenate((np.geomspace(1e-12, 1.0, 400), [
            np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 1.0,
            np.nextafter(1e-12, 1.0), 3e-9, 1e-6, 0.01, 0.25, 0.75, 0.999]))
        zeros, ones = np.zeros(8, dtype=int), np.ones(8, dtype=int)
        with localcontext() as ctx:
            ctx.prec = 210
            for a in heights.tolist():
                fam = PerturbationFamily(amplitude=8.0 * a, bound=2.0, family_size=2)
                assert fam.bump_height == a
                d = Decimal(a)
                up, down = (1 + d).sqrt(), (1 - d).sqrt()
                hellinger = 2 - up - down
                kl = (1 + d) * (1 + d).ln() + ((1 - d) * (1 - d).ln() if d < 1 else 0)
                for got, want in ((analytic_hellinger_sq(fam, zeros, ones), hellinger),
                                  (analytic_kl_product(fam, ones, 2), kl)):
                    assert abs((Decimal(got) - want) / want) <= Decimal("1e-14"), a

    def test_kl_validates_inputs(self, family_16_1000):
        with pytest.raises(ValidationError):
            analytic_kl_product(family_16_1000, np.zeros(32, dtype=int), -1)


class TestAudit:
    def test_tuned_family_passes_everything(self, family_16_1000, words_16_1000):
        report = audit_hypotheses(family_16_1000, words_16_1000, 1000)
        assert report.all_pass
        assert len(report.checks) == 16 + 16 * 15 // 2
        names = {c.name for c in report.checks}
        assert "kl_budget[word=0]" in names
        assert "hellinger_separation[pair=(0,1)]" in names

    def test_zero_word_has_zero_divergence(self, family_16_1000, words_16_1000):
        report = audit_hypotheses(family_16_1000, words_16_1000, 1000)
        first = report.checks[0]
        assert first.name == "kl_budget[word=0]"
        assert first.achieved == 0.0

    def test_inflated_amplitude_breaks_the_kl_budget(self, family_16_1000, words_16_1000):
        # six-fold amplitude pushes every nonzero word past the budget
        loud = replace(family_16_1000, amplitude=6 * family_16_1000.amplitude)
        report = audit_hypotheses(loud, words_16_1000, 1000)
        assert not report.all_pass
        failed = [c for c in report.checks if not c.passed]
        assert failed and all(c.name.startswith("kl_budget") for c in failed)
        assert len(failed) == 15  # every word except the all-zeros one

    def test_report_serialization(self, tmp_path, family_16_1000, words_16_1000):
        report = audit_hypotheses(family_16_1000, words_16_1000, 1000)
        p = tmp_path / "audit.json"
        report.save(p)
        obj = json.loads(p.read_text())
        assert obj["M"] == 16 and obj["n"] == 1000 and obj["D"] == 32
        assert obj["all_pass"] is True
        assert len(obj["checks"]) == len(report.checks)
        assert {"name", "bound", "achieved", "pass"} == set(obj["checks"][0])

    def test_word_length_must_match_family(self, family_16_1000):
        with pytest.raises(ValidationError, match="word length"):
            audit_hypotheses(family_16_1000, build_separated_set(16, 4), 1000)
        # built directly, the record checks its words too
        with pytest.raises(ValidationError, match="word length 40 does not match the family's 32"):
            AuditReport(family_16_1000, 1000, build_separated_set(40, 16))

    def test_sample_size_must_be_positive(self, family_16_1000, words_16_1000):
        with pytest.raises(ValidationError):
            audit_hypotheses(family_16_1000, words_16_1000, 0)
        with pytest.raises(ValidationError, match="sample size must be positive, got 0"):
            AuditReport(family_16_1000, 0, words_16_1000)
