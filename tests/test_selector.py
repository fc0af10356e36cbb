"""The minimum-distance selector on comparison-set masks.

``yatracos_class`` returns the comparison sets as rows of a bool mask, and
one scorer serves ``yatracos_select`` and the experiment engine's batches.
Both are checked here against frozen copies of the code they replaced, in
``frozen_selector``: the frozenset class (``_old_yatracos_class``) and the
per-sample selector that rebuilt it on every call (``_old_yatracos_select``).
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densagg.aggregation as aggregation
from densagg import (
    CandidateSet,
    PiecewiseDensity,
    ValidationError,
    sample,
    yatracos_class,
    yatracos_select,
)
from densagg.aggregation import _select_cells
from densagg.experiments import _perturbation_candidates
from frozen_selector import _old_selector, _old_yatracos_class, _old_yatracos_select

# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@st.composite
def families(draw, max_m=70):
    """Candidate sets with zero cells, tied levels and duplicate candidates."""
    m = draw(st.integers(1, max_m))
    cells = draw(st.integers(1, 8))
    level = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 1.5, 3.0])
    raw = np.array(draw(st.lists(st.lists(level, min_size=cells, max_size=cells),
                                 min_size=m, max_size=m)))
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    copies = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                           max_size=m))
    for src, dst in copies:
        raw[dst] = raw[src]
    grid = np.linspace(0.0, 1.0, cells + 1)
    return CandidateSet(grid, raw / (raw @ np.diff(grid))[:, None])


def _tuned(m):
    """The tuned perturbation family at M = m, n_ref = 1000, with its old selector."""
    cset = CandidateSet.from_densities(_perturbation_candidates(m, 1000, 2.0))
    return cset, _old_selector(cset)


def _frozensets(masks):
    return [frozenset(np.flatnonzero(row).tolist()) for row in masks]


def _samples(seed, rows, n, cells):
    """Points in [0, 1], mostly in the first cell, so that ties are common."""
    rng = np.random.default_rng(seed)
    u = rng.random((rows, n))
    return np.where(rng.random((rows, n)) < 0.7, u / cells, u)


# ---------------------------------------------------------------------------
# The class
# ---------------------------------------------------------------------------


class TestMaskClass:
    @settings(max_examples=120, deadline=None)
    @given(families())
    def test_rows_are_the_old_sets_in_order(self, cset):
        masks = yatracos_class(cset)
        assert masks.dtype == bool and masks.shape[1] == cset.values.shape[1]
        assert not masks.flags.writeable
        assert _frozensets(masks) == _old_yatracos_class(cset)

    @pytest.mark.parametrize("m", [4, 16, 37, 64])
    def test_perturbation_families(self, m):
        cset = CandidateSet.from_densities(_perturbation_candidates(m, 500, 2.0))
        assert _frozensets(yatracos_class(cset)) == _old_yatracos_class(cset)

    def test_order_is_size_then_descending_bits(self):
        cset = CandidateSet(np.linspace(0.0, 1.0, 4), np.array([
            [1.5, 1.5, 0.0], [0.0, 1.5, 1.5], [1.5, 0.0, 1.5], [1.0, 1.0, 1.0],
        ]))
        masks = yatracos_class(cset).astype(int).tolist()
        assert masks == [
            [0, 0, 0],
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [1, 1, 0], [1, 0, 1], [0, 1, 1],
        ]


# ---------------------------------------------------------------------------
# The scorer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def tuned():
    """``_tuned``, built once per M and dropped with the test class."""
    return functools.cache(_tuned)


class TestScorer:
    @settings(max_examples=80, deadline=None)
    @given(families(), st.integers(1, 9), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batched_selections_equal_the_old_selector(self, cset, rows, n, seed):
        x = _samples(seed, rows, n, cset.values.shape[1])
        expected = [_old_yatracos_select(cset, row) for row in x]
        assert _select_cells(cset, cset.cell_indices(x)).tolist() == expected
        assert [yatracos_select(cset, row) for row in x] == expected

    def test_exact_ties_break_to_the_smallest_index(self):
        # Mirror images score alike on a symmetric sample, and so do copies.
        left = PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5])
        right = PiecewiseDensity([0.0, 0.5, 1.0], [0.5, 1.5])
        cset = CandidateSet.from_densities([right, left, right, left])
        x = np.array([[0.25, 0.75], [0.1, 0.9], [0.2, 0.3]])
        expected = [_old_yatracos_select(cset, row) for row in x]
        assert expected == [0, 0, 1]
        assert _select_cells(cset, cset.cell_indices(x)).tolist() == expected

    @pytest.mark.parametrize("m, budget", [(2, 4), (5, 1), (16, 100), (16, 2**10), (64, 3000)])
    def test_chunking_does_not_change_the_selection(self, monkeypatch, m, budget):
        cands = _perturbation_candidates(m, 300, 2.0) if m > 5 else [
            PiecewiseDensity([0.0, 0.3, 1.0], [0.1 + 0.5 * j, (1 - 0.3 * (0.1 + 0.5 * j)) / 0.7])
            for j in range(m)
        ]
        cset = CandidateSet.from_densities(cands)
        x = _samples(m, 37, 60, cset.values.shape[1])
        cells = cset.cell_indices(x)
        whole = _select_cells(cset, cells)
        sets = yatracos_class(cset).shape[0]
        monkeypatch.setattr(aggregation, "_SELECT_ELEMENTS", budget)
        chunk = max(1, budget // max(sets, cset.values.shape[1], x.shape[1],
                                     m * min(sets, aggregation._PROBES)))
        assert chunk < x.shape[0]  # the rows really split
        assert np.array_equal(_select_cells(cset, cells), whole)
        assert whole[:6].tolist() == [_old_yatracos_select(cset, row) for row in x[:6]]

    def test_class_is_built_once_per_batch(self, monkeypatch):
        cset = CandidateSet.from_densities(_perturbation_candidates(8, 100, 2.0))
        calls = []

        def counting(candidates):
            calls.append(candidates)
            return yatracos_class(candidates)

        monkeypatch.setattr(aggregation, "yatracos_class", counting)
        _select_cells(cset, cset.cell_indices(_samples(3, 25, 10, cset.values.shape[1])))
        assert calls == [cset]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 16, 64, 100, 256]), st.integers(0, 255),
           st.integers(1, 3), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_tuned_families_up_to_256_select_as_the_old_selector(self, tuned, m, truth, rows,
                                                                 n, seed):
        cset, old = tuned(m)
        x = np.stack([sample(cset.candidate(truth % m), n, seed=(seed, r)) for r in range(rows)])
        expected = [old(row) for row in x]
        assert _select_cells(cset, cset.cell_indices(x)).tolist() == expected

    def test_an_earlier_tie_whose_bound_equals_the_upper_bound_wins(self, monkeypatch):
        # One point per cell of four, so P_n(A) = |A| / 4, and dyadic values:
        # every deviation is exact.  The sets are {}, {2}, {3}, {0, 2} and
        # {1, 3}; with one probe it is {3}, where P_n is farthest from the
        # mean integral.  There candidate 0 deviates by 1/8, its score;
        # candidate 1 (candidate 0 with cells 2 and 3 swapped) by 0, though
        # it also scores 1/8.  So candidate 1 has the least lower bound and
        # sets U = 1/8, candidate 0's lower bound is U exactly, and the tie
        # goes to candidate 0 only if a bound equal to U is not pruned.
        # Candidate 2 (lower bound 1/4) is pruned.
        cset = CandidateSet(np.linspace(0.0, 1.0, 5), np.array([
            [1.0, 0.5, 1.0, 1.5], [1.0, 0.5, 1.5, 1.0], [0.5, 1.0, 0.5, 2.0],
        ]))
        x = np.array([[0.125, 0.375, 0.625, 0.875]])
        assert _old_yatracos_select(cset, x[0]) == 0
        monkeypatch.setattr(aggregation, "_PROBES", 1)
        assert _select_cells(cset, cset.cell_indices(x)).tolist() == [0]

    @pytest.mark.parametrize("probes", [1, 16])
    def test_identical_candidates_all_survive_and_the_first_wins(self, monkeypatch, probes):
        # Every lower bound equals the first's, which is at most U.
        monkeypatch.setattr(aggregation, "_PROBES", probes)
        cset = CandidateSet.from_densities([PiecewiseDensity([0.0, 0.3, 1.0], [2.0, 4 / 7])] * 6)
        x = _samples(5, 9, 20, cset.values.shape[1])
        assert _select_cells(cset, cset.cell_indices(x)).tolist() == [0] * 9

    def test_one_candidate_has_one_set_and_is_selected(self):
        cset = CandidateSet.from_densities([PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5])])
        assert yatracos_class(cset).shape == (1, 2)
        x = _samples(6, 7, 5, 2)
        assert _select_cells(cset, cset.cell_indices(x)).tolist() == [0] * 7
        assert yatracos_select(cset, x[0]) == 0

    def test_peak_memory_is_bounded_for_many_rows(self):
        cset = CandidateSet.from_densities(_perturbation_candidates(16, 100, 2.0))
        cells = cset.cell_indices(_samples(4, 2**14, 8, cset.values.shape[1]))
        rows, sets = cells.shape[0], yatracos_class(cset).shape[0]
        tracemalloc.start()
        try:
            _select_cells(cset, cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (rows, M, sets) deviation array would take rows * M * sets doubles
        assert 8 * rows * cset.size * sets > 200 * 2**20
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("width, rows, n", [(2**12, 2**12, 8), (2, 2**9, 2**12)])
    def test_peak_memory_is_bounded_for_few_sets(self, width, rows, n):
        # Two candidates have at most three sets, so rows must be chunked by
        # the cells (the (row, cell) counts) and the sample size (the offset
        # cells) as well.
        rng = np.random.default_rng(width)
        grid = np.linspace(0.0, 1.0, width + 1)
        raw = rng.uniform(0.5, 1.5, size=(2, width))
        cset = CandidateSet(grid, raw / (raw @ np.diff(grid))[:, None])
        cells = rng.integers(0, width, size=(rows, n))
        tracemalloc.start()
        try:
            chosen = _select_cells(cset, cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        old = _old_selector(cset)
        assert chosen[:5].tolist() == [old(grid[c] + 0.5 / width) for c in cells[:5]]
        # the counts of all rows, or a copy of all their cells, would take
        # 16 MiB
        assert 8 * rows * max(width, n) >= 16 * 2**20
        assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


def _cset():
    return CandidateSet.from_densities([
        PiecewiseDensity([0.0, 0.5, 1.0], [1.5, 0.5]),
        PiecewiseDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
    ])


@pytest.mark.parametrize("x", [0.25, [[0.25, 0.75]], [[0.25], [0.75]]])
def test_select_needs_a_one_dimensional_sample(x):
    with pytest.raises(ValidationError, match="the sample must be one-dimensional"):
        yatracos_select(_cset(), x)


@pytest.mark.parametrize("x", [[], [[]]])
def test_select_needs_a_point(x):
    with pytest.raises(ValidationError):
        yatracos_select(_cset(), x)


def _old_row_check(grid, vals):
    """The message of the per-candidate construction ``CandidateSet`` used to run."""
    for j in range(vals.shape[0]):
        try:
            PiecewiseDensity(grid, vals[j])
        except ValidationError as exc:
            return f"candidate {j}: {exc}"
    return None


@pytest.mark.parametrize("bad_row, value", [
    (0, [2.0, 1.0]), (2, [1.0, 0.5]), (1, [2.5, -0.5]), (2, [np.nan, 1.0]),
    (1, [np.inf, 1.0]), (0, [-np.inf, 1.0]),
])
def test_candidate_rows_are_checked_in_bulk_with_the_old_messages(bad_row, value):
    grid = np.array([0.0, 0.5, 1.0])
    vals = np.array([[1.0, 1.0], [1.5, 0.5], [0.5, 1.5]])
    vals[bad_row] = value
    expected = _old_row_check(grid, vals)
    assert expected.startswith(f"candidate {bad_row}: ")
    with pytest.raises(ValidationError) as info:
        CandidateSet(grid, vals)
    assert str(info.value) == expected


def test_candidate_set_builds_no_per_row_densities(monkeypatch):
    built = []
    monkeypatch.setattr(PiecewiseDensity, "__post_init__",
                        lambda self: built.append(self))
    CandidateSet(np.linspace(0.0, 1.0, 5), np.ones((40, 4)))
    assert built == []


@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.6, 0.5], [0.1, 1.0]])
def test_candidate_grid_is_checked(grid):
    with pytest.raises(ValidationError, match="breakpoints"):
        CandidateSet(np.array(grid), np.ones((2, len(grid) - 1)))
