"""The streamed progressive mixture against the full-matrix computation.

``_oracle_progressive_weights`` is the (n+1)×M implementation the stream
replaced, kept in substance: one ``log`` per sample point, one ``cumsum``
and one softmax over the whole matrix, then the column mean.  Its softmax
takes the kernel's normalisation rule, each row times the reciprocal of
its ``einsum`` sum, and the column sum adds the rows in row order.
On a sample of up to one kernel segment of 2^14 points that the kernel
walks in the log domain, the stream must reproduce its averaged vector and
every weight row bit for bit; past it, or as a running product, those of
the lane reference in ``test_engine``, whose segments start from exact
cell counts.  A running product must also stay within a rounding bound of
the oracle.  Either way it fails with the oracle's message where it fails.
"""

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
    aggregate,
    progressive_weights,
)
from densagg.aggregation import _BLOCK_ELEMENTS, _SEGMENT_ROWS
from test_engine import _reference_rows, _reference_averaged


def _oracle_progressive_weights(cset: CandidateSet, x):
    """Full-matrix weights and their column mean, as computed before streaming."""
    pts = np.asarray(x, dtype=float)
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise ValidationError("sample points must lie in [0, 1]")
    idx = np.clip(np.searchsorted(cset.grid, pts, side="right") - 1, 0,
                  cset.values.shape[1] - 1)
    with np.errstate(divide="ignore"):
        terms = np.log(cset.values[:, idx].T)
    n = terms.shape[0]
    log_w = np.zeros((n + 1, cset.size))
    if n:
        log_w[1:] = np.cumsum(terms, axis=0)
    row_max = log_w.max(axis=1)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        k = int(np.argmax(dead))
        raise ValidationError(
            f"every candidate has zero likelihood on the first {k} sample points; "
            "weights are undefined"
        )
    with np.errstate(invalid="ignore"):
        w = np.exp(log_w - row_max[:, None])
    w *= (1.0 / np.einsum("km->k", w))[:, None]
    return w, w.mean(axis=0)


def _expected(cset, x):
    """The oracle's weights and averaged vector, or its error, and the pair
    the stream must stay near; past one kernel segment or on a product lane,
    the lane reference's weights, which the stream must match bit for bit."""
    weights, averaged = _oracle_progressive_weights(cset, x)
    cells = cset.cell_indices(x)[None]
    if len(x) > _SEGMENT_ROWS:
        return _reference_rows(cset, cells)[:, 0], _reference_averaged(cset, cells)[0], None
    if aggregation._lane_starts(cset, cells)[0].any():
        near = weights, averaged
        return _reference_rows(cset, cells)[:, 0], _reference_averaged(cset, cells)[0], near
    return weights, averaged, None


def _oracle_product_rtol(cset, x):
    """A bound on the relative gap between each oracle weight row and a
    product lane's, (n+1,), with u = 2^-53.  The oracle's log-likelihood
    ``S_k`` of row k is a float cumsum of ``log`` terms (each off by at most
    4u relative), so it is off by at most ``e_k = u·Σ_{i<=k} (|S_i| + 4|t_i|)``
    per candidate; the softmax then is off by ``2·max_j e_k + u·max_j |S_k -
    max S_k|`` plus (M + 8)u.  A product row is k ratios (each rounded once)
    multiplied in k roundings, then scaled by the reciprocal of its sum (M - 1
    roundings in the sum, two more): (2k + M + 1)u, within (2k + M + 2)u."""
    idx = cset.cell_indices(x)
    with np.errstate(divide="ignore"):
        terms = np.log(cset.values[:, idx].T)
    terms = np.vstack([np.zeros(cset.size), terms])
    log_w = np.cumsum(terms, axis=0)
    finite = np.isfinite(log_w)
    err = np.cumsum(np.where(finite, np.abs(log_w) + 4 * np.abs(terms), 0.0), axis=0)
    spread = np.where(finite, log_w.max(axis=1, keepdims=True) - log_w, 0.0)
    k = np.arange(len(x) + 1)
    return 2.0**-53 * (2 * err.max(axis=1) + spread.max(axis=1) + 2 * k + 2 * cset.size + 10)


def _step(m: int) -> int:
    return max(1, _BLOCK_ELEMENTS // m)


def _assert_matches(cset, x, expected):
    """The stream's trajectory of ``x`` against ``_expected``'s values: bit for
    bit, and within ``_oracle_product_rtol`` of the oracle on a product lane
    (entries below 2^-1022 of a row whose sum exceeds 2^-900 are off by less
    than 2^-140)."""
    weights, averaged, near = expected
    traj = progressive_weights(cset, x)
    assert traj.n_steps == len(x) and traj.n_candidates == cset.size
    assert np.array_equal(traj.averaged, averaged)
    assert np.array_equal(traj.weights, weights)
    if near is not None:
        oracle_rows, oracle_averaged = near
        rtol = _oracle_product_rtol(cset, x)[:, None]
        gap = np.abs(traj.weights - oracle_rows)
        assert np.all(gap <= rtol * np.maximum(traj.weights, oracle_rows) + 2.0**-140)
        # a mean of nonnegative rows: their bound, and n + 1 additions
        total = rtol.max() + 2.0**-53 * (len(x) + 2)
        assert np.all(np.abs(traj.averaged - oracle_averaged)
                      <= total * (traj.averaged + oracle_averaged) + 2.0**-140)


def _assert_matches_oracle(cset, x):
    _assert_matches(cset, x, _expected(cset, x))


def _family(raw) -> CandidateSet:
    """Candidates from nonnegative raw cell values on an even grid."""
    raw = np.asarray(raw, dtype=float)
    grid = np.linspace(0.0, 1.0, raw.shape[1] + 1)
    return CandidateSet(grid, raw / (raw @ np.diff(grid))[:, None])


@st.composite
def families_and_samples(draw):
    m = draw(st.integers(2, 70))
    cells = draw(st.integers(1, 8))
    level = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.0])
    raw = np.array(draw(st.lists(st.lists(level, min_size=cells, max_size=cells),
                                 min_size=m, max_size=m)))
    # Cell 0 stays positive for one candidate so that not every sample dies.
    raw[0, 0] = 1.0
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    step = _step(m)
    n = draw(st.sampled_from([0, 1, step - 1, step, step + 1, 2 * step])
             | st.integers(0, 3 * step))
    seed = draw(st.integers(0, 2**32 - 1))
    # Mostly cell 0, so that zero cells are hit but rarely kill every candidate.
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    x = np.where(rng.random(n) < 0.9, u / cells, u)
    return _family(raw), x


class TestStreamMatchesFullMatrix:
    @settings(max_examples=150, deadline=None)
    @given(families_and_samples())
    def test_bit_identical_on_random_families(self, case):
        cset, x = case
        try:
            expected = _expected(cset, x)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                progressive_weights(cset, x)
            assert str(info.value) == str(exc)
            return
        _assert_matches(cset, x, expected)

    @pytest.mark.parametrize("m", [2, 3, 7, 64, 70])
    @pytest.mark.parametrize("offset", [-1, 0, 1, "double"])
    def test_sample_sizes_at_block_boundaries(self, m, offset):
        rng = np.random.default_rng(m)
        cset = _family(rng.uniform(0.2, 3.0, size=(m, 5)))
        step = _step(m)
        n = 2 * step if offset == "double" else step + offset
        _assert_matches_oracle(cset, rng.random(n))

    @pytest.mark.parametrize("m", [2, 64])
    @pytest.mark.parametrize("at", [-1, 0, 1])
    def test_likelihood_vanishing_at_a_block_boundary(self, m, at):
        # Candidate 0 is zero on the right half; the first right-half point
        # sits next to the end of the first full block of rows.
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.5, 2.0, size=(m, 2))
        raw[0, 1] = 0.0
        cset = _family(raw)
        k = _step(m) + at
        x = rng.uniform(0.0, 0.5, size=_step(m) * 2)
        x[k] = 0.75
        traj = progressive_weights(cset, x)
        assert traj.weights[k, 0] > 0.0 and traj.weights[k + 1, 0] == 0.0
        _assert_matches_oracle(cset, x)

    @pytest.mark.parametrize("m", [2, 64])
    @pytest.mark.parametrize("at", [0, 1, "before", "at", "after"])
    def test_all_dead_message_names_the_oracle_prefix(self, m, at):
        left = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        cset = CandidateSet.from_densities([left] * m)
        step = _step(m)
        k = {"before": step - 1, "at": step, "after": step + 1}.get(at, at)
        x = np.full(2 * step + 3, 0.25)
        x[k] = 0.75
        with pytest.raises(ValidationError) as expected:
            _oracle_progressive_weights(cset, x)
        with pytest.raises(ValidationError) as got:
            progressive_weights(cset, x)
        assert str(got.value) == str(expected.value)
        assert f"on the first {k + 1} sample points" in str(got.value)

    def test_csv_rows_are_the_materialised_weights(self, tmp_path):
        rng = np.random.default_rng(3)
        cset = _family(rng.uniform(0.2, 3.0, size=(64, 4)))
        traj = progressive_weights(cset, rng.random(_step(64) + 5))
        traj.to_csv(tmp_path / "w.csv")
        rows = [line.split(",") for line in (tmp_path / "w.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(traj.n_steps + 1))
        assert np.array_equal(np.array([r[1:] for r in rows], dtype=float), traj.weights)


class TestMemory:
    def test_aggregate_does_not_build_the_weight_matrix(self):
        m, n = 64, 200_000
        rng = np.random.default_rng(11)
        cset = _family(rng.uniform(0.2, 3.0, size=(m, 96)))
        x = rng.random(n)
        full_matrix = 8 * (n + 1) * m  # 102 MB
        tracemalloc.start()
        try:
            aggregate(cset, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20 < full_matrix / 6

    def test_progressive_weights_holds_one_byte_per_point(self, monkeypatch):
        # 96 cells take uint8 cells; with intp cells the lookup alone held
        # 8 bytes per point (about 9.8 MiB here at two workers)
        monkeypatch.setattr(aggregation, "_workers", lambda: 2)
        rng = np.random.default_rng(12)
        cset = _family(rng.uniform(0.2, 3.0, size=(64, 96)))
        n = 10**6
        x = rng.random(n)
        tracemalloc.start()
        try:
            traj = progressive_weights(cset, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.cells.nbytes == n
        assert peak < n + 3 * 2**20
