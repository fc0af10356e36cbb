"""The minimum-distance selector on comparison-set masks.

``yatracos_class`` returns the comparison sets as rows of a bool mask, and
one scorer serves ``yatracos_select`` and the experiment engine's batches.
Both are checked here against frozen copies of the code they replaced: the
frozenset class (``_old_yatracos_class``) and the per-sample selector that
rebuilt it on every call (``_old_yatracos_select``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densagg.aggregation as aggregation
from densagg import CandidateSet, PiecewiseDensity, ValidationError, yatracos_class, yatracos_select
from densagg.aggregation import _select_cells
from densagg.experiments import _perturbation_candidates

# ---------------------------------------------------------------------------
# Frozen copies of the replaced code
# ---------------------------------------------------------------------------


def _old_yatracos_class(candidates):
    vals = candidates.values
    sets = {frozenset()}
    for i in range(vals.shape[0]):
        gt = vals[i] > vals
        for j in range(vals.shape[0]):
            if i != j:
                sets.add(frozenset(np.flatnonzero(gt[j]).tolist()))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def _old_yatracos_select(candidates, x):
    pts = np.asarray(x, dtype=float)
    if pts.size == 0:
        raise ValidationError("yatracos_select needs at least one sample point")
    counts = np.bincount(candidates.cell_indices(pts), minlength=candidates.values.shape[1])
    sets = _old_yatracos_class(candidates)
    masks = np.zeros((len(sets), candidates.values.shape[1]), dtype=bool)
    for s, cells in enumerate(sets):
        masks[s, list(cells)] = True
    cell_masses = candidates.values * candidates.cell_lengths
    set_integrals = cell_masses @ masks.T
    empirical = (counts @ masks.T) / pts.size
    scores = np.max(np.abs(set_integrals - empirical), axis=1)
    return int(np.argmin(scores))


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
        set_step = min(sets, max(1, budget // m))
        assert set_step < sets  # really split
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
