"""Progressive-mixture weights, the aggregate, and minimum-distance selection.

The weight checks use exact rational arithmetic (fractions) and exactly
rounded log-domain sums (math.fsum) as independent oracles.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densagg.aggregation as aggregation
from densagg import (
    MASS_TOL,
    CandidateSet,
    PiecewiseDensity,
    PiecewiseFunction,
    ValidationError,
    WeightTrajectory,
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
from densagg.aggregation import (
    _BLOCK_ELEMENTS,
    _ROW_LOOP_WIDTH,
    _averaged_weights,
    _exp_log_rows,
)
from densagg.experiments import _perturbation_candidates


def two_candidates():
    return CandidateSet.from_densities([
        PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5]),
        PiecewiseDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
    ])


@st.composite
def weight_problems(draw):
    """Candidates with zero cells and likelihood ratios up to 1e300, and the
    cells of R samples that span several blocks of the weight kernel."""
    # R * M on both sides of the kernel's switch to a per-row cumulative sum
    w = _ROW_LOOP_WIDTH
    m = draw(st.sampled_from([2, w // 4, w - 1, w, w + 1, 600]) | st.integers(2, 600))
    r = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 8))
    span = draw(st.sampled_from([0.0, 1.0, 30.0, 300.0]))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    step = max(1, _BLOCK_ELEMENTS // (r * m))
    n = draw(st.integers(step + 1, 3 * step))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = 10.0 ** rng.uniform(-span, 0.0, size=(m, cells))
    # Candidate 0 keeps every cell, so that no weight row is undefined.
    raw[1:][rng.random((m - 1, cells)) < zeros] = 0.0
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    grid = np.linspace(0.0, 1.0, cells + 1)
    cset = CandidateSet(grid, raw / (raw @ np.diff(grid))[:, None])
    return cset, rng.integers(0, cells, size=(r, n))


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
        with pytest.raises(ValidationError, match="at least one candidate"):
            CandidateSet(np.array([0.0, 1.0]), np.empty((0, 1)))

    def test_bound_validation_is_optional(self):
        tall = PiecewiseDensity([0.0, 0.1, 1.0], [5.0, 5.0 / 9.0])
        CandidateSet.from_densities([tall])  # no bound, no check
        with pytest.raises(ValidationError):
            CandidateSet.from_densities([tall], bound=2.0)

    def test_rows_must_be_densities(self):
        with pytest.raises(ValidationError):
            CandidateSet(np.array([0.0, 1.0]), np.array([[2.0]]))
        for grid, values in (([0.0, 0.5, 1.0], [[1.0]]), ([0.0, 1.0], [1.0]),
                             ([[0.0, 1.0]], [[1.0]])):
            with pytest.raises(ValidationError, match=r"must be \(M, len\(grid\) - 1\)"):
                CandidateSet(np.array(grid), np.array(values))

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

    @settings(max_examples=60, deadline=None)
    @given(weight_problems())
    def test_rows_are_probability_vectors(self, problem):
        # The kernel does not check its rows; this is the check.
        cset, cells = problem
        grid = cset.grid
        traj = progressive_weights(cset, (grid[cells[0]] + grid[cells[0] + 1]) / 2)
        for rows in (traj.weights, traj.averaged[None], _averaged_weights(cset, cells)):
            assert np.all(rows >= 0)
            assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= MASS_TOL)

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
            _exp_log_rows(shifted), _exp_log_rows(log_w), atol=1e-13
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

    @pytest.mark.parametrize("cells", [[2], [-1], [[0, 1]], [0.0, 1.0]])
    def test_trajectory_rejects_cells_off_the_grid(self, cells):
        # the kernel gathers by cell with mode="clip", which never fails
        with pytest.raises(ValidationError, match="grid cells in \\[0, 2\\)"):
            WeightTrajectory(two_candidates(), np.array(cells))

    def test_trajectories_compare_and_hash_by_candidates_and_cell_values(self):
        cset = two_candidates()
        traj = progressive_weights(cset, [0.25, 0.75, 0.25])
        same = progressive_weights(cset, [0.25, 0.75, 0.25])
        wide = WeightTrajectory(cset, traj.cells.astype(np.intp))
        assert traj.cells.dtype == np.uint8
        assert traj == same == wide
        assert hash(traj) == hash(same) == hash(wide)
        assert len({traj, same, wide}) == 1
        assert traj != progressive_weights(cset, [0.25, 0.75, 0.75])
        swapped = CandidateSet(cset.grid, cset.values[::-1])
        assert traj != WeightTrajectory(swapped, traj.cells)
        assert traj != "trajectory"

    def test_a_trajectory_keeps_its_own_cells(self):
        # averaged is computed once, so the cells it came from cannot change
        cset = two_candidates()
        traj = progressive_weights(cset, [0.25, 0.75, 0.75])
        source = np.array([0, 1, 1])
        built, listed = WeightTrajectory(cset, source), WeightTrajectory(cset, [0, 1, 1])
        source[0] = 1
        assert built == listed == traj and listed.n_steps == 3
        for other in (built, listed):
            assert not other.cells.flags.writeable
            assert np.array_equal(other.averaged, traj.averaged)
            assert np.array_equal(other.weights, traj.weights)

    def test_a_read_only_view_of_a_writable_array_is_copied(self):
        # the base can change under the view, and ``averaged`` with it
        cset = CandidateSet([0.0, 0.5, 1.0], [[1.5, 0.5], [0.5, 1.5]])
        base = np.zeros(3, dtype=np.intp)
        view = base[:]
        view.setflags(write=False)
        traj = WeightTrajectory(cset, view)
        base[:] = 1
        own = WeightTrajectory(cset, [0, 0, 0])
        assert np.array_equal(traj.cells, own.cells)
        assert np.array_equal(traj.averaged, own.averaged) and own.averaged[0] > 0.5
        assert np.array_equal(traj.weights, own.weights)

    def test_cells_no_writable_array_reaches_are_kept(self):
        owner = np.array([0, 1, 1])
        owner.setflags(write=False)
        view = owner[1:]
        assert WeightTrajectory(two_candidates(), owner).cells is owner
        assert WeightTrajectory(two_candidates(), view).cells is view
        # progressive_weights hands over its lookup's own buffer, uncopied
        traj = progressive_weights(two_candidates(), [0.25, 0.75])
        assert traj.cells.base is None and not traj.cells.flags.writeable


def _separated_family(m, eps):
    """Candidate ``j`` puts mass ``1 - eps`` on its own ``1/m`` of [0, 1]."""
    grid = np.linspace(0.0, 1.0, m + 1)
    return [PiecewiseDensity(grid, np.where(np.arange(m) == j, (1 - eps) * m,
                                            eps * m / (m - 1))) for j in range(m)]


def _vanishing_candidates():
    """Four candidates on five cells; candidate 0 vanishes on the last."""
    raw = np.random.default_rng(5).uniform(0.2, 3.0, size=(4, 5))
    raw[0, 4] = 0.0
    grid = np.linspace(0.0, 1.0, 6)
    return [PiecewiseDensity(grid, v / (v.sum() / 5)) for v in raw]


#: name -> (candidates tuned to n, truth index); the truth of the vanishing
#: family is the uniform density, which puts mass where candidate 0 has none.
REGRET_FAMILIES = {
    "tuned-8": (lambda n: _perturbation_candidates(8, max(n, 1), 2.0), 1),
    "tuned-64": (lambda n: _perturbation_candidates(64, max(n, 1), 2.0), 5),
    "tuned-256": (lambda n: _perturbation_candidates(256, max(n, 1), 2.0), 17),
    "separated-8": (lambda n: _separated_family(8, 0.3), 2),
    "vanishing-4": (lambda n: _vanishing_candidates(), None),
}


def _summed_log_loss(cset, cells, workers):
    """``Σ_{k<n} -log(w_k · f(X_{k+1}))``, exactly rounded, with the rows
    ``w_k`` taken from the kernel's ``visit`` at ``workers`` workers.  Above
    one worker, blocks are visited on helper threads in any order, so the
    losses are collected by row and summed in row order."""
    n = cells.size
    losses = {}

    def visit(r, k, rows):
        stop = min(k + rows.shape[0], n)
        predictive = (rows[:stop - k] * cset.values.T[cells[k:stop]]).sum(axis=1)
        losses[k] = (-np.log(predictive)).tolist()

    _averaged_weights(cset, cells[None], workers, visit)
    return math.fsum(loss for k in sorted(losses) for loss in losses[k])


def _bayes_log_loss(cset, cells):
    """The Bayes mixture's log loss ``-log((1/M) Σ_j Π_i f_j(X_i))``, from
    exactly rounded sums of the ``log f_j(X_i)`` table entries (a cell's
    entry times its count, in exact rational arithmetic).  Also returns
    ``L``, the largest finite ``|log f_j(X_i)|``."""
    counts = np.bincount(cells, minlength=cset.log_table.shape[0])
    seen = np.flatnonzero(counts)
    table = cset.log_table[seen]
    sums = [-math.inf if np.isneginf(column).any() else
            float(sum(Fraction(int(k)) * Fraction(t) for k, t in zip(counts[seen], column)))
            for column in table.T.tolist()]
    top = max(sums)
    bayes = math.log(cset.size) - top - math.log(math.fsum(math.exp(s - top) for s in sums))
    finite = np.abs(table[np.isfinite(table)])
    return bayes, float(finite.max(initial=0.0))


class TestPathwiseRegret:
    """The predictive mixtures' summed log loss is the Bayes mixture's
    (Barron 1987; Yang 2000; Catoni 2004), on every sample.

    Tolerance, with ``u = 2^-53``, ``L`` the largest finite ``|log f_j(X_i)|``,
    M candidates on C grid cells, and the kernel's segments of ``G = 2^14``
    points.  The identity telescopes through the softmax normalisers, so
    rounding reaches the left side through each row's inconsistency with
    the row before it (its log-likelihood less the previous row's and the
    new term), and once through the last row's own error.
    - Inside a segment a row is the row before plus one term, rounded once:
      at most ``u·k·L`` at row k, so at most ``u·L·n(n+1)/2`` over all rows.
    - A segment that starts after point ``a`` begins at its exact-count
      anchor ``Σ_c N_c·log f_c``: C products and C - 1 additions, which
      round by at most ``u·C·a·L``.  Its first row is inconsistent with the
      previous segment's last by both anchors' errors and by that segment's
      own additions' errors; over the ``⌈n/G⌉ - 1`` starts these sum to at
      most ``u·L·n²/2 + u·L·C·n·(n+G)/G``.
    - Row k is its anchor plus at most G additions, so the last row is off
      by at most ``u·L·n·(C + G)``, where one running sum was off by
      ``u·L·n²/2``.
    - The row-max shift before the softmax rounds by at most ``2u·k·L`` per
      entry, which adds at most ``u·L·n(n+1)``.  The softmax's exp, sum and
      division, the dot product with ``f(X_{k+1})`` and the log put a
      relative error of at most ``(2M + 8)·u`` on each predictive density.
    Hence, with the factor 2 on ``u·L·n(n+1)`` raised to 3 and the segment
    terms doubled for second-order terms,
    ``|gap| <= u·(3·L·n·(n + 1) + 2·L·n·(2C + G + C·n/G) + (2M + 8)·n)``;
    every other sum is exactly rounded.  So the segments do not tighten
    the worst case: each row's own additions still round at its magnitude
    ``k·L``, and a segment start gives back the drift that the previous
    segment dropped.  The one-running-sum kernel, whose worst case was
    ``u·(3·L·n·(n + 1) + (2M + 8)·n)``, passes this tolerance too.

    At n = 10^6 that worst case, 1.2e-7 to 2.6e-7, is about 10^4 times the
    measured gaps: 1.11e-11 (tuned-8), 1.16e-11 (tuned-64) and 1.21e-11
    (tuned-256).  There a measured regression bound, ``|gap| <= 1e-9``,
    also holds; it catches a kernel that scales every weight row by
    ``1 + 2^-46``, which moves the gap by about ``n·2^-46 ≈ 1.4e-8`` and
    still passes the worst case.
    """

    # n = 10^6 on the tuned families only, to keep the suite short; the
    # bound grows as n², yet rows shifted by one still fail it there
    @pytest.mark.parametrize("family, n", [
        *((family, n) for family in sorted(REGRET_FAMILIES) for n in (0, 1, 100, 10**5)),
        ("tuned-8", 10**6), ("tuned-64", 10**6), ("tuned-256", 10**6),
    ])
    def test_summed_log_loss_is_the_bayes_mixture_log_loss(self, family, n):
        build, truth = REGRET_FAMILIES[family]
        cands = build(n)
        cset = CandidateSet.from_densities(cands)
        density = PiecewiseDensity.uniform() if truth is None else cands[truth]
        cells = cset.cell_indices(sample(density, n, seed=n + len(cands)))
        right, big = _bayes_log_loss(cset, cells)
        c, g = cset.log_table.shape[0], aggregation._SEGMENT_ROWS
        tolerance = 2.0**-53 * (3 * big * n * (n + 1) + 2 * big * n * (2 * c + g + c * n / g)
                                + (2 * cset.size + 8) * n)
        left = _summed_log_loss(cset, cells, 1)
        assert abs(left - right) <= tolerance
        if n == 10**6:
            assert abs(left - right) <= 1e-9
        # The rows are the same at any worker count, and so is their sum.
        for workers in (2, 3):
            assert _summed_log_loss(cset, cells, workers) == left


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
        # NaN fails every comparison, so it must fail the positive test
        for weights in ([math.nan, 1.0], [0.5, math.nan]):
            with pytest.raises(ValidationError, match="must be a probability vector"):
                mixture(cset, weights)
        for weights in ([1.0], [[0.5, 0.5]]):
            with pytest.raises(ValidationError, match="expected 2 weights"):
                mixture(cset, weights)

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


def _assert_masks(masks, expected):
    """``masks`` is the read-only bool mask array with rows ``expected``."""
    assert masks.dtype == bool and not masks.flags.writeable
    np.testing.assert_array_equal(masks, np.array(expected, dtype=bool))


class TestYatracosClass:
    def test_single_candidate_gives_empty_set_only(self):
        cset = CandidateSet.from_densities([PiecewiseDensity.uniform()])
        _assert_masks(yatracos_class(cset), [[False]])

    def test_two_candidates(self):
        sets = yatracos_class(two_candidates())
        _assert_masks(sets, [[False, False], [True, False], [False, True]])

    def test_deduplication_and_determinism(self):
        rng = np.random.default_rng(15)
        cands = [random_positive_density(rng) for _ in range(5)]
        cset = CandidateSet.from_densities(cands)
        sets = yatracos_class(cset)
        assert len(np.unique(sets, axis=0)) == len(sets)
        _assert_masks(sets, yatracos_class(cset))
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
