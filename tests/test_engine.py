"""The replication-batched engine against the one-sample functions.

Every batched layer must reproduce its one-sample counterpart bit for bit:
the weight kernel on (rows, lanes, M) blocks, row sampling, row mixtures
and row losses.  The one-sample functions are themselves checked here against
frozen copies of the code they replaced (``_old_sample``, ``_old_kl`` and
friends), and the three harnesses against a frozen copy of the
replication loops they replaced (``_old_*_experiment``), report row by
report row.  The weight kernel gives the same bits at every worker count,
its lanes those of a row-by-row product or of the log-domain walk, as
the form rule decides, and its averaged weights lie within a stated
number of ulps of their definition computed in 40-digit decimal.  At tiny n the engine's KL, H and
L1 risks are also checked against their exact values, finite sums over
cell sequences.
"""

import csv
import functools
import itertools
import math
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import densagg.aggregation as aggregation
import densagg.densities as densities
from densagg import (
    CandidateSet,
    ExperimentConfig,
    PiecewiseDensity,
    PiecewiseFunction,
    RiskReport,
    RiskRow,
    ValidationError,
    WeightTrajectory,
    aggregate,
    hellinger_distance,
    kl_divergence,
    l1_distance,
    progressive_weights,
    renormalize,
    run_oracle_experiment,
    run_rate_study,
    run_yatracos_experiment,
    sample,
    yatracos_select,
)
from densagg.aggregation import (
    _BLOCK_ELEMENTS,
    _ROW_LOOP_WIDTH,
    _SEGMENT_ROWS,
    _aggregate_rows,
    _averaged_weights,
    _exp_log_rows,
    _mixture_values,
    _select_cells,
)
from densagg.cli import main
from densagg.densities import _hellinger_rows, _kl_rows, _l1_rows, _sample_rows
from densagg.experiments import (
    _LOSS_ROWS,
    LOSSES,
    _mean_se,
    _perturbation_candidates,
    _replication_risks,
    build_candidates,
    build_truth,
)
from frozen_selector import _old_selector
from test_aggregation import _separated_family

# ---------------------------------------------------------------------------
# Frozen copies of the replaced code
# ---------------------------------------------------------------------------


def _old_sample(density, n, seed):
    """``sample`` before it was chunked: the inversion over all points at once."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    masses = density.values * density.cell_lengths
    cdf = np.concatenate(([0.0], np.cumsum(masses)))
    idx = np.searchsorted(cdf, u, side="right") - 1
    idx = np.minimum(idx, masses.size - 1)
    m = masses[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(m > 0, (u - cdf[idx]) / np.where(m > 0, m, 1.0), 0.0)
    x = density.breakpoints[idx] + frac * density.cell_lengths[idx]
    return np.clip(x, 0.0, 1.0)


def _scaled_rows(raw):
    """Each row of ``raw`` (over its last axis) times the reciprocal of its
    ``einsum`` sum: the kernel's one normalisation rule."""
    return raw * (1.0 / np.einsum("...m->...", raw))[..., None]


def _float_cumsum_weight_blocks(candidates, cells, carry, first):
    """Yield ``(k, rows)``, the log-domain kernel's blocks of weight rows
    as they were before narrow blocks paired their columns: a float
    ``np.cumsum`` below 512 entries per row, one ``np.add`` per row above,
    then ``_exp_log_rows`` and ``_scaled_rows``.  ``cells[:, 0]`` is sample
    point ``first`` and ``carry`` the log-likelihood of the row before it."""
    width = cells.shape[0] * candidates.size
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, cells.shape[1], step):
        terms = candidates.log_table[cells[:, start:start + step].T]
        terms[0] += carry
        if width >= 512:
            for i in range(1, terms.shape[0]):
                np.add(terms[i - 1], terms[i], out=terms[i])
        else:
            np.cumsum(terms, axis=0, out=terms)
        carry = terms[-1].copy()
        yield first + start + 1, _scaled_rows(_exp_log_rows(terms, first + start + 1))


def _exact_count_anchor(candidates, cells):
    """``Σ_c N_c · log f_c`` per replication of ``cells`` (R, k), ``N_c`` the
    count of cell ``c``, over the seen cells in cell order."""
    anchor = np.zeros((cells.shape[0], candidates.size))
    for r, row in enumerate(cells):
        counts = np.bincount(row, minlength=candidates.log_table.shape[0])
        for c in np.flatnonzero(counts):
            anchor[r] += int(counts[c]) * candidates.log_table[c]
    return anchor


def _product_rows(candidates, cells, carry):
    """One product lane's weight rows, (n, M), row by row: the raw row before
    (``carry`` before the first) times the point's ``ratio_table`` row
    (``np.cumprod`` multiplies down the rows in order), then ``_scaled_rows``."""
    raw = candidates.ratio_table[cells]
    raw[0] *= carry
    np.cumprod(raw, axis=0, out=raw)
    return _scaled_rows(raw)


def _lanes(candidates, cells):
    """Yield ``(s, rs, k, rows)`` segment by segment: the reference weight
    rows (rows, len(rs), M) of segment ``s`` of replications ``rs``, ``rows[0]``
    being row ``k``, in the form ``aggregation._lane_starts`` gives each lane.
    Product lanes are walked one at a time by ``_product_rows``, from ones or
    from ``_exp_log_rows`` of their exact-count anchor; a segment's log lanes
    together by the float cumsum from that anchor, which fails at the
    earliest dead row."""
    product, _ = aggregation._lane_starts(candidates, cells)
    seg = aggregation._SEGMENT_ROWS
    for s, start in enumerate(range(0, cells.shape[1], seg)):
        lanes = cells[:, start:start + seg]
        anchor = _exact_count_anchor(candidates, cells[:, :start])
        logs = np.flatnonzero(~product[s])
        if logs.size:
            blocks = _float_cumsum_weight_blocks(candidates, lanes[logs], anchor[logs], start)
            yield s, logs, start + 1, np.concatenate([rows for _, rows in blocks])
        for r in np.flatnonzero(product[s]):
            carry = _exp_log_rows(anchor[None, r])[0] if s else 1.0
            yield s, [r], start + 1, _product_rows(candidates, lanes[r], carry)[:, None]


def _reference_rows(candidates, cells):
    """The reference weight rows of ``cells`` (R, n), (n+1, R, M)."""
    rows = np.full((cells.shape[1] + 1, cells.shape[0], candidates.size), 1.0 / candidates.size)
    for _, rs, k, block in _lanes(candidates, cells):
        rows[k:k + block.shape[0], rs] = block
    return rows


def _reference_averaged(candidates, cells):
    """The reference averaged weights: each lane's rows added in row order
    (a sum over the outer axis) to the prior row (segment 0) or to zeros,
    the lanes' sums added in segment order."""
    sums = [np.full((cells.shape[0], candidates.size), 1.0 / candidates.size)]
    for s, rs, _, block in _lanes(candidates, cells):
        if s == len(sums):
            sums.append(np.zeros_like(sums[0]))
        sums[s][rs] = np.concatenate([sums[s][None, rs], block]).sum(axis=0)
    return functools.reduce(np.add, sums) / (cells.shape[1] + 1)


def _reference_csv(candidates, cells, path):
    """``WeightTrajectory.to_csv`` of one sample's reference rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"w_{j + 1}" for j in range(candidates.size)])
        for i, row in enumerate(_reference_rows(candidates, cells[None])[:, 0]):
            writer.writerow([i] + [repr(float(v)) for v in row])


def _visited_rows(candidates, cells, workers):
    """The kernel's averaged weights, and the rows its ``visit`` receives,
    (n+1, R, M), each checked to arrive once."""
    rows = np.full((cells.shape[1] + 1, cells.shape[0], candidates.size), np.nan)

    def visit(r, k, block):
        assert np.isnan(rows[k:k + block.shape[0], r]).all()
        rows[k:k + block.shape[0], r] = block  # the worker's buffer is reused

    averaged = _averaged_weights(candidates, cells, workers, visit)
    assert not np.isnan(rows).any()
    return averaged, rows


def _plain_max_exp_log_rows(log_w, first_row=0):
    """``_exp_log_rows`` before its row max was seeded with ``-inf``."""
    row_max = log_w.max(axis=-1)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        k = first_row + int(np.nonzero(dead)[0][0])
        raise ValidationError(
            f"every candidate has zero likelihood on the first {k} sample points; "
            "weights are undefined"
        )
    np.subtract(log_w, row_max[..., None], out=log_w)
    return np.exp(log_w, out=log_w)


def _old_cells(f, g):
    grid = np.union1d(f.breakpoints, g.breakpoints)

    def on(h):
        return h.values[np.searchsorted(h.breakpoints, grid[:-1], side="right") - 1]

    return np.diff(grid), on(f), on(g)


def _old_kl(f, g):
    lens, fv, gv = _old_cells(f, g)
    pos = fv > 0
    if np.any(pos & (gv == 0.0)):
        return math.inf
    terms = np.zeros_like(fv)
    terms[pos] = fv[pos] * np.log(fv[pos] / gv[pos])
    return float(np.dot(lens, terms))


def _old_hellinger(f, g):
    lens, fv, gv = _old_cells(f, g)
    diff = np.sqrt(fv) - np.sqrt(gv)
    return float(math.sqrt(np.dot(lens, diff * diff)))


def _old_l1(f, g):
    lens, fv, gv = _old_cells(f, g)
    return float(np.dot(lens, np.abs(fv - gv)))


def _old_row(experiment, config, m, n, risks, oracle, bound):
    mean, se = _mean_se(risks)
    return RiskRow(experiment, m, n, config.replications, mean, se, oracle,
                   bound, mean - oracle <= bound + 3 * se)


def _old_oracle_experiment(config):
    candidates = build_candidates(config)
    cset = CandidateSet.from_densities(candidates, bound=config.A)
    truth = build_truth(config, candidates)
    oracle = min(kl_divergence(truth, cset.candidate(j)) for j in range(cset.size))
    if not math.isfinite(oracle):
        raise ValidationError("vacuous")
    return RiskReport(tuple(
        _old_row("oracle", config, cset.size, n, np.array([
            kl_divergence(truth, aggregate(cset, sample(truth, n, seed=(config.seed, n, r))))
            for r in range(config.replications)
        ]), oracle, math.log(cset.size) / (n + 1))
        for n in config.n_values
    ))


def _old_yatracos_experiment(config):
    candidates = build_candidates(config)
    cset = CandidateSet.from_densities(candidates, bound=config.A)
    truth = build_truth(config, candidates)
    oracle = min(l1_distance(truth, cset.candidate(j)) for j in range(cset.size))
    return RiskReport(tuple(
        _old_row("yatracos", config, cset.size, n, np.array([
            l1_distance(truth, cset.candidate(
                yatracos_select(cset, sample(truth, n, seed=(config.seed, n, r)))))
            for r in range(config.replications)
        ]), oracle, 2.0 * oracle + math.sqrt(math.log(cset.size) / n))
        for n in config.n_values
    ))


def _old_rate_rows(config):
    loss = LOSSES[config.loss]
    rows = []
    for m in config.M_values:
        for n in config.n_values:
            cset = CandidateSet.from_densities(
                _perturbation_candidates(m, n, config.A), bound=config.A)
            worst_mean, worst_se = -math.inf, 0.0
            for t in range(cset.size):
                truth = cset.candidate(t)
                mean, se = _mean_se(np.array([
                    loss(truth, aggregate(cset, sample(truth, n, seed=(config.seed, m, n, t, r))))
                    ** config.q
                    for r in range(config.replications)
                ]))
                if mean > worst_mean:
                    worst_mean, worst_se = mean, se
            rows.append(RiskRow("rate", m, n, config.replications, worst_mean, worst_se,
                                0.0, math.log(m) / n,
                                worst_mean > 0 and math.isfinite(worst_mean)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _family(raw) -> CandidateSet:
    raw = np.asarray(raw, dtype=float)
    grid = np.linspace(0.0, 1.0, raw.shape[1] + 1)
    return CandidateSet(grid, raw / (raw @ np.diff(grid))[:, None])


def _random_density(rng, max_cells=8, zeros=False) -> PiecewiseDensity:
    cuts = np.unique(rng.uniform(0.05, 0.95, size=int(rng.integers(0, max_cells))))
    bp = np.concatenate(([0.0], cuts, [1.0]))
    vals = rng.uniform(0.1, 3.0, size=bp.size - 1)
    if zeros:
        vals[rng.random(vals.size) < 0.3] = 0.0
        vals[0] = max(vals[0], 0.5)
    return renormalize(PiecewiseFunction(bp, vals))


@st.composite
def batched_cases(draw):
    m = draw(st.integers(2, 70))
    r_count = draw(st.sampled_from([1, 2, 3, 7, 40]))
    cells = draw(st.integers(1, 8))
    level = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.0])
    raw = np.array(draw(st.lists(st.lists(level, min_size=cells, max_size=cells),
                                 min_size=m, max_size=m)))
    raw[0, 0] = 1.0
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    step = max(1, _BLOCK_ELEMENTS // (r_count * m))
    n = draw(st.sampled_from([0, 1, step - 1, step, step + 1, 2 * step])
             | st.integers(0, 3 * step))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.random((r_count, n))
    x = np.where(rng.random((r_count, n)) < 0.95, u / cells, u)
    return _family(raw), x


@st.composite
def log_weight_blocks(draw):
    """(rows, M) or (rows, R, M) log weights holding ``-inf``, signed zeros
    and dead (all ``-inf``) rows at random positions, and a first row index."""
    rows = draw(st.integers(1, 6))
    r_shape = draw(st.sampled_from([(), (1,), (2,), (3,), (7,)]))
    m = draw(st.integers(1, 70))
    finite = st.floats(-800.0, 50.0)
    entry = st.one_of(finite, finite, st.sampled_from([-np.inf, 0.0, -0.0]))
    log_w = draw(arrays(float, (rows, *r_shape, m), elements=entry))
    runs = log_w.reshape(rows, -1, m)
    positions = st.tuples(st.integers(0, rows - 1), st.integers(0, runs.shape[1] - 1))
    for k, r in draw(st.lists(positions, max_size=2)):
        runs[k, r] = -np.inf
    return log_w, draw(st.integers(0, 10**6))


def _assert_kernel_matches(cset, x):
    """Batched averaged weights equal the per-sample ones, or fail alike."""
    per_row, errors = [], set()
    for row in x:
        try:
            per_row.append(progressive_weights(cset, row).averaged)
        except ValidationError as exc:
            errors.add(str(exc))
    if not errors:
        got = _averaged_weights(cset, cset.cell_indices(x))
        assert np.array_equal(got, np.stack(per_row))
        return
    with pytest.raises(ValidationError) as info:
        _averaged_weights(cset, cset.cell_indices(x))
    assert str(info.value) in errors


# ---------------------------------------------------------------------------
# The weight kernel
# ---------------------------------------------------------------------------


#: Kernel worker counts: the serial walk, one per CPU of a 2-CPU machine,
#: and 3 and 5 workers, more than there are CPUs.
WORKERS = [1, 2, 3, 5]


class TestBatchedKernel:
    @settings(max_examples=150, deadline=None)
    @given(batched_cases())
    def test_bit_identical_to_per_sample_weights(self, case):
        _assert_kernel_matches(*case)

    @pytest.mark.parametrize("m, r_count", [(4, 40), (12, 40), (13, 40), (64, 40),
                                            (64, 1), (70, 7), (2, 3)])
    @pytest.mark.parametrize("offset", [-1, 0, 1, "double"])
    def test_block_boundaries_on_both_sides_of_the_width_rule(self, m, r_count, offset):
        rng = np.random.default_rng(m * 100 + r_count)
        cset = _family(rng.uniform(0.2, 3.0, size=(m, 5)))
        step = max(1, _BLOCK_ELEMENTS // (r_count * m))
        n = 2 * step if offset == "double" else step + offset
        _assert_kernel_matches(cset, rng.random((r_count, n)))

    def test_width_rule_threshold_is_covered(self):
        # KERNEL_WIDTHS straddles the rule in float columns (511, 513 entries
        # per row) and in paired ones (1022, 1024)
        assert 511 < _ROW_LOOP_WIDTH <= 513 and 1022 // 2 < _ROW_LOOP_WIDTH <= 1024 // 2

    @pytest.mark.parametrize("block_elements, workers",
                             [(_BLOCK_ELEMENTS, 1)] + [(20, w) for w in WORKERS])
    def test_dead_rows_fail_at_the_earliest_dead_row(self, monkeypatch, block_elements,
                                                     workers):
        # by default both dead rows (row 12 of replication 1, row 8 of
        # replication 3) share one block; blocks of 2 rows part them
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", block_elements)
        left = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        cset = CandidateSet.from_densities([left, left])
        x = np.full((5, 20), 0.25)
        x[1, 11] = x[3, 7] = 0.75
        with pytest.raises(ValidationError, match="^every candidate has zero "
                           "likelihood on the first 8 sample points"):
            _averaged_weights(cset, cset.cell_indices(x), workers)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("block_elements, segment_rows",
                             [(_BLOCK_ELEMENTS, _SEGMENT_ROWS), (2**12, 100)])
    @pytest.mark.parametrize("m, r_count", [(8, 3), (64, 40), (64, 1)])
    def test_aggregate_rows_are_aggregates(self, monkeypatch, m, r_count, block_elements,
                                           segment_rows, workers):
        # at most one kernel worker per full segment: segments of 100
        # points give every call four, of blocks of 2^12 entries; default
        # ones leave every call of 400 points on the calling thread
        monkeypatch.setattr(aggregation, "_workers", lambda: workers)
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", block_elements)
        monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", segment_rows)
        cands = _perturbation_candidates(m, 400, 2.0)
        cset = CandidateSet.from_densities(cands)
        seeds = [(5, r) for r in range(r_count)]
        x = _sample_rows(cands[1], 400, seeds)
        expected = np.stack([aggregate(cset, row).values for row in x])
        assert np.array_equal(_aggregate_rows(cset, cset.cell_indices(x)), expected)

    @pytest.mark.parametrize("m, r_count", [(2, 1), (8, 3), (64, 40)])
    def test_mixture_rows_equal_one_product_per_row(self, m, r_count):
        cset = CandidateSet.from_densities(_perturbation_candidates(m, 400, 2.0))
        weights = np.random.default_rng(m).dirichlet(np.ones(m), size=r_count)
        expected = np.stack([w @ cset.values for w in weights])
        assert np.array_equal(_mixture_values(cset, weights), expected)

    def test_aggregate_rows_needs_two_candidates(self):
        cset = CandidateSet.from_densities([PiecewiseDensity.uniform()])
        with pytest.raises(ValidationError, match="two candidates"):
            _aggregate_rows(cset, cset.cell_indices(np.full((2, 3), 0.5)))


#: (entries per row, replications): R = 1 and R > 1 at each width.  Odd
#: widths keep float columns, 511 and 513 on either side of the row-loop
#: rule; 1022 and 1024 straddle it in paired columns.
KERNEL_WIDTHS = [(w, r) for w, rs in [(2, 2), (3, 3), (64, 4), (160, 40), (511, 7),
                                      (513, 19), (1022, 2), (1024, 16)] for r in (1, rs)]


def _vanishing_family(m, rng):
    """Candidates on 5 cells; candidate 0 vanishes on the last (log -inf)."""
    raw = rng.uniform(0.2, 3.0, size=(m, 5))
    if m > 1:
        raw[0, 4] = 0.0
    return _family(raw)


class TestKernelMatchesTheFloatCumsum:
    """The kernel against the lane reference: the row-by-row product on
    product lanes, the float cumsum on log-domain lanes, each lane past the
    first started from its exact-count anchor (six blocks, of up to 327,683
    points: 21 segments at 2 entries per row)."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("width, r_count", KERNEL_WIDTHS)
    def test_weights_bit_identical(self, width, r_count, workers):
        m = width // r_count
        rng = np.random.default_rng(width * 10 + r_count)
        cset = _vanishing_family(m, rng)
        n = 5 * max(1, _BLOCK_ELEMENTS // width) + 3  # six blocks
        x = rng.uniform(0.0, 0.8, size=(r_count, n))
        x[:, n // 3] = 0.9  # candidate 0 dies part way through
        cells = cset.cell_indices(x)
        averaged, rows = _visited_rows(cset, cells, workers)
        assert np.array_equal(averaged, _reference_averaged(cset, cells))
        assert np.array_equal(rows, _reference_rows(cset, cells))
        if r_count == 1:
            assert np.array_equal(progressive_weights(cset, x[0]).weights, rows[:, 0])
            assert m == 1 or rows[-1, 0, 0] == 0.0

    @pytest.mark.parametrize("m", [3, 64, 1024])
    def test_trajectory_is_walked_on_one_worker(self, monkeypatch, tmp_path, m):
        # ``weights`` and ``to_csv`` ask for one worker whatever the CPU
        # count: blocks visited on helper threads would interleave CSV rows.
        # Blocks of 2^12 entries keep the sample small; the bits do not
        # depend on the block size.
        monkeypatch.setattr(aggregation, "_workers", lambda: 4)
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", 2**12)
        rng = np.random.default_rng(m)
        cset = _vanishing_family(m, rng)
        n = 15 * max(1, 2**12 // m) + 3  # sixteen blocks, four workers; two segments at m = 3
        x = rng.uniform(0.0, 0.8, size=n)
        x[n // 3] = 0.9  # candidate 0 dies part way through
        cells = cset.cell_indices(x)
        trajectory = progressive_weights(cset, x)
        assert np.array_equal(trajectory.weights, _reference_rows(cset, cells[None])[:, 0])
        trajectory.to_csv(tmp_path / "got.csv")
        _reference_csv(cset, cells, tmp_path / "expected.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("width, r_count", KERNEL_WIDTHS)
    @pytest.mark.parametrize("at", [-1, 0, 1])
    def test_a_dead_row_on_a_block_boundary_fails_alike(self, width, r_count, at, workers):
        # at 2 and 3 entries per row the dead row lies in segment 4 or 2, which
        # any worker may take; at wider rows the sample is one segment
        m = width // r_count
        rng = np.random.default_rng(width + r_count)
        raw = rng.uniform(0.2, 3.0, size=(m, 5))
        raw[:, 4] = 0.0  # every candidate vanishes on the last cell
        cset = _family(raw)
        step = max(1, _BLOCK_ELEMENTS // width)
        x = rng.uniform(0.0, 0.8, size=(r_count, 5 * step + 3))
        x[-1, step + at] = 0.9
        cells = cset.cell_indices(x)
        with pytest.raises(ValidationError) as expected:
            _reference_averaged(cset, cells)
        with pytest.raises(ValidationError) as got:
            _averaged_weights(cset, cells, workers)
        assert str(got.value) == str(expected.value)
        assert f"on the first {step + at + 1} sample points" in str(got.value)


def _bounded(call, timeout=60.0):
    """``call()`` on a daemon thread, which becomes the kernel's calling
    thread: a worker left waiting fails the test instead of hanging it (the
    kernel's helpers inherit the daemon flag)."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed to the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the kernel did not return: a worker was left waiting"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def helpers(monkeypatch):
    """The helper threads of ``aggregation._deal``, recorded as they start;
    ``fail_start`` names a helper (1, 2, ...) whose start raises instead,
    setting ``start_failed`` first, and each started helper sleeps ``late``
    seconds before its first task."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            if len(started) + 1 == helpers_state.fail_start:
                helpers_state.start_failed.set()
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

        def run(self):
            time.sleep(helpers_state.late)
            super().run()

    helpers_state = SimpleNamespace(started=started, fail_start=None, late=0.0,
                                    start_failed=threading.Event())
    monkeypatch.setattr(aggregation, "threading",
                        SimpleNamespace(Thread=Recorded, local=threading.local))
    return helpers_state


def _assert_all_joined(threads):
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


def _worker_case(monkeypatch, blocks=12, m=3, r_count=2, segment_blocks=2):
    """Cells (R, n) of ``blocks`` blocks of 3 rows, in segments of
    ``segment_blocks`` blocks, and their candidates."""
    monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", 3 * r_count * m)
    monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", 3 * segment_blocks)
    rng = np.random.default_rng(blocks * 100 + m)
    cset = _vanishing_family(m, rng)
    x = rng.uniform(0.0, 0.8, size=(r_count, 3 * blocks))
    return cset, cset.cell_indices(x), 3


class TestKernelWorkers:
    """The kernel's segments dealt to workers: errors and thread lifetimes.
    Segments of two blocks of 3 rows stand in for segments of 2^14 points."""

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_helpers_start_only_for_a_second_full_segment_and_all_end(self, monkeypatch,
                                                                      helpers, workers):
        cset, cells, _ = _worker_case(monkeypatch)
        expected = _reference_averaged(cset, cells)
        assert np.array_equal(_bounded(lambda: _averaged_weights(cset, cells, workers)),
                              expected)
        assert len(helpers.started) == workers - 1
        _assert_all_joined(helpers.started)
        # no segment, one, or a full one and a tail: the calling thread alone
        segment = aggregation._SEGMENT_ROWS
        for n in (0, 1, segment, 2 * segment - 1):
            got = _averaged_weights(cset, cells[:, :n], workers)
            assert np.array_equal(got, _reference_averaged(cset, cells[:, :n]))
        assert len(helpers.started) == workers - 1

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("form", ["product", "log"])
    def test_an_error_on_any_worker_releases_every_worker(self, monkeypatch, helpers,
                                                          workers, form):
        # a failure in the first, second, ... block that any worker starts,
        # as running products or in the log domain (no lane is proven safe)
        cset, cells, _ = _worker_case(monkeypatch)
        if form == "log":
            monkeypatch.setattr(aggregation, "_PRODUCT_BITS", -1)
        real = aggregation._block_rows
        for failing in range(workers + 1):
            calls = itertools.count()  # next() is atomic across threads

            def block_rows(*args, failing=failing, calls=calls):
                if next(calls) == failing:
                    raise RuntimeError(f"block {failing}")
                return real(*args)

            monkeypatch.setattr(aggregation, "_block_rows", block_rows)
            helpers.started.clear()
            with pytest.raises(RuntimeError, match=f"^block {failing}$"):
                _bounded(lambda: _averaged_weights(cset, cells, workers))
            assert len(helpers.started) == workers - 1
            _assert_all_joined(helpers.started)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_a_later_segment_failing_first_in_time_loses(self, monkeypatch, helpers,
                                                          workers):
        # Every candidate vanishes on the last cell; a point there in
        # segment 2 (one block) kills every row from there on, and every
        # later segment from its exact-count start.  Segment 2's dead-row
        # check is held back, so segment 3 fails first in time; the error is
        # still 2's.
        cset, cells, step = _worker_case(monkeypatch, segment_blocks=1)
        cells = cells.copy()
        raw = cset.values.copy()
        raw[:, 4] = 0.0
        cset = _family(raw)
        cells[1, 2 * step + 1] = 4
        with pytest.raises(ValidationError) as serial:
            _averaged_weights(cset, cells, 1)
        assert "on the first 8 sample points;" in str(serial.value)
        real, failed = aggregation._exp_log_rows, []

        def slow(log_w, first_row=0):
            if first_row == 2 * step + 1:
                time.sleep(0.2)
            try:
                return real(log_w, first_row)
            except ValidationError:
                failed.append(first_row)
                raise

        monkeypatch.setattr(aggregation, "_exp_log_rows", slow)
        with pytest.raises(ValidationError) as got:
            _bounded(lambda: _averaged_weights(cset, cells, workers))
        assert str(got.value) == str(serial.value)
        assert failed[0] > 2 * step + 1 and 2 * step + 1 in failed
        _assert_all_joined(helpers.started)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_a_worker_without_a_buffer_releases_every_worker(self, monkeypatch, helpers,
                                                            workers):
        # the k-th block buffer, on whichever thread allocates it, cannot be
        # allocated: its segment is the only one to fail.  Each segment
        # allocates its own buffer, so with fewer than k allocations the
        # call succeeds.
        cset, cells, _ = _worker_case(monkeypatch)
        expected = _reference_averaged(cset, cells)
        real_empty = np.empty
        for failing in range(1, workers + 1):
            calls = itertools.count(1)  # next() is atomic across threads

            def empty(*args, failing=failing, calls=calls, **kwargs):
                if next(calls) == failing:
                    raise MemoryError(f"buffer {failing}")
                return real_empty(*args, **kwargs)

            monkeypatch.setattr(np, "empty", empty)
            helpers.started.clear()
            try:
                got = _bounded(lambda: _averaged_weights(cset, cells, workers))
            except MemoryError as exc:
                got = exc
            monkeypatch.setattr(np, "empty", real_empty)
            if next(calls) > failing:  # the failing allocation was made
                assert isinstance(got, MemoryError) and str(got) == f"buffer {failing}"
            else:
                assert failing > 1 and np.array_equal(got, expected)
            assert len(helpers.started) == workers - 1
            _assert_all_joined(helpers.started)

    def test_a_late_helper_leaves_its_blocks_to_the_calling_thread(self, monkeypatch,
                                                                   helpers):
        # Chunks go to whichever worker is free: while the helper sleeps
        # before its first task, the calling thread takes the chunks in
        # turn.  Dealt round-robin, the helper would hold every other chunk.
        cset, cells, _ = _worker_case(monkeypatch)
        real, takers = aggregation._block_rows, []

        def recorded(*args):
            takers.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(aggregation, "_block_rows", recorded)
        helpers.late = 0.2
        got = _bounded(lambda: _averaged_weights(cset, cells, 2))
        assert np.array_equal(got, _reference_averaged(cset, cells))
        helper = helpers.started[0]
        assert len(takers) - takers.count(helper) > takers.count(helper)
        _assert_all_joined(helpers.started)

    @pytest.mark.parametrize("fail_start", [1, 2, 4])
    def test_a_helper_that_cannot_start_releases_the_others(self, monkeypatch, helpers,
                                                             fail_start):
        cset, cells, _ = _worker_case(monkeypatch)
        helpers.fail_start = fail_start
        with pytest.raises(RuntimeError, match="can't start new thread"):
            _bounded(lambda: _averaged_weights(cset, cells, 5))
        assert len(helpers.started) == fail_start - 1
        _assert_all_joined(helpers.started)

    def test_stress_five_workers_with_constant_lock_hand_overs(self, monkeypatch, helpers):
        # 100 blocks of 3 rows in 50 segments on five workers; a segment
        # that read another's state, or sums added out of order, would
        # change the weights
        cset, cells, _ = _worker_case(monkeypatch, blocks=100, m=4)
        expected = _reference_averaged(cset, cells)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                got = _bounded(lambda: _averaged_weights(cset, cells, 5))
                assert got.tobytes() == expected.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert len(helpers.started) == 40
        _assert_all_joined(helpers.started)



class TestDeal:
    """Tasks dealt to the workers: order of errors, nesting, thread lifetimes."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_task_runs_once_and_no_helper_outlives_the_call(self, monkeypatch,
                                                                 helpers, workers):
        monkeypatch.setattr(aggregation, "_workers", lambda: workers)
        ran = []
        _bounded(lambda: aggregation._deal(7, ran.append))
        assert sorted(ran) == list(range(7))
        assert len(helpers.started) == workers - 1
        _assert_all_joined(helpers.started)

    def test_the_error_raised_is_the_least_failing_tasks(self, monkeypatch, helpers):
        # task 1 fails once task 3 has failed, on whichever worker did not
        # take 1, and the error raised is still 1's; no task after 3 starts
        monkeypatch.setattr(aggregation, "_workers", lambda: 2)
        ran, three_failed = [], threading.Event()

        def run(i):
            ran.append(i)
            if i == 1:
                assert three_failed.wait(10)
            if i == 3:
                three_failed.set()
            if i in (1, 3):
                raise ValueError(f"task {i}")

        with pytest.raises(ValueError, match="^task 1$"):
            _bounded(lambda: aggregation._deal(9, run))
        assert sorted(ran) == [0, 1, 2, 3]
        _assert_all_joined(helpers.started)

    @pytest.mark.parametrize("fail_start", [1, 2])
    def test_a_helper_that_cannot_start_stops_the_started_ones(self, monkeypatch, helpers,
                                                               fail_start):
        # Of three workers, helper ``fail_start`` cannot start.  A started
        # helper ends its task once the start has failed and takes no other,
        # the calling thread takes none, and the start's error is raised.
        monkeypatch.setattr(aggregation, "_workers", lambda: 3)
        helpers.fail_start = fail_start
        ran = []

        def run(i):
            ran.append(i)
            assert helpers.start_failed.wait(10)
            time.sleep(0.01)  # the calling thread records the failure meanwhile

        with pytest.raises(RuntimeError, match="can't start new thread"):
            _bounded(lambda: aggregation._deal(200, run))
        assert len(helpers.started) == fail_start - 1
        assert len(ran) <= len(helpers.started)
        _assert_all_joined(helpers.started)

    @pytest.mark.parametrize("fails", [False, True])
    def test_dealt_tasks_see_one_worker_and_a_lone_task_sees_all(self, monkeypatch,
                                                                 helpers, fails):
        monkeypatch.setattr(aggregation.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        seen = []

        def run(i):
            seen.append(aggregation._workers())
            if fails:
                raise ValueError("fails")

        for count in (1, 4):
            seen.clear()
            try:
                _bounded(lambda: aggregation._deal(count, run))
            except ValueError:
                pass
            assert set(seen) == ({3} if count == 1 else {1})
            # the calling thread has every worker again, on success and on error
            assert aggregation._workers() == 3
        # so a kernel call in a dealt task walks alone, whatever its blocks
        cset, cells, _ = _worker_case(monkeypatch)
        before = len(helpers.started)
        results = [None] * 2
        _bounded(lambda: aggregation._deal(
            2, lambda i: results.__setitem__(i, _averaged_weights(cset, cells))))
        assert len(helpers.started) - before == 1  # the engine's helper, not the kernel's
        expected = _reference_averaged(cset, cells)
        assert all(np.array_equal(r, expected) for r in results)
        _assert_all_joined(helpers.started)


def _decimal_averaged_weights(cset, cells):
    """The averaged weights from their definition, in 40-digit decimal: row
    ``k`` of replication ``r`` is ``Π_{i<=k} f_j(X_i)``, normalised, for
    ``k = 0..n``, and the average is over the ``n + 1`` rows."""
    with localcontext(prec=40):
        values = [[Decimal(float(v)) for v in row] for row in cset.values.T]  # cells x M
        out = []
        for row in cells.tolist():
            products = [Decimal(1)] * cset.size
            total = [Decimal(0)] * cset.size
            for k in range(len(row) + 1):
                if k:
                    products = [p * v for p, v in zip(products, values[row[k - 1]])]
                norm = sum(products)
                total = [t + p / norm for t, p in zip(total, products)]
            out.append([float(t / (len(row) + 1)) for t in total])
    return np.array(out)


#: Largest distance, in units in the last place of the 40-digit reference
#: rounded to a double, allowed between the kernel's averaged weights and
#: their definition at n = 300.  The rounding of the ratios, of the
#: exact-count anchors and of the running products puts the kernel, whose
#: lanes here are all products, in segments of 40 points, 1, 4, 6 and 4
#: ulps from it at M = 2, 3, 4 and 5, at every worker count (1, 11, 5 and 7
#: in one segment; 1, 6, 6 and 4, and 1, 11, 5 and 5, when rows were divided
#: by their sums); the log-domain walk read 1, 5, 15 and 28 (1, 14, 53 and
#: 89).
DECIMAL_ULPS = 256


class TestKernelMatchesTheDefinition:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_averaged_weights_within_ulps_of_decimal(self, monkeypatch, m, workers):
        # blocks of 4 rows and segments of 40, so 300 points cross 75
        # blocks in 8 segments
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", 4 * 2 * m)
        monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", 40)
        rng = np.random.default_rng(m)
        cset = _vanishing_family(m, rng)
        x = rng.uniform(0.0, 1.0, size=(2, 300))
        x[1, 150:] *= 0.8  # replication 1 keeps candidate 0 alive
        cells = cset.cell_indices(x)
        expected = _decimal_averaged_weights(cset, cells)
        got = _averaged_weights(cset, cells, workers)
        ulps = np.abs(got - expected) / np.spacing(expected)
        assert ulps.max() <= DECIMAL_ULPS


class TestIdentitySeededMax:
    @settings(max_examples=300, deadline=None)
    @given(log_weight_blocks())
    def test_weights_and_errors_equal_the_plain_max(self, case):
        log_w, first_row = case
        try:
            expected = _plain_max_exp_log_rows(log_w.copy(), first_row)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                _exp_log_rows(log_w.copy(), first_row)
            assert str(got.value) == str(exc)
            dead = np.all(log_w == -np.inf, axis=-1).reshape(log_w.shape[0], -1)
            k = first_row + int(np.argmax(dead.any(axis=1)))
            assert f"on the first {k} sample points;" in str(got.value)
            return
        assert _exp_log_rows(log_w.copy(), first_row).tobytes() == expected.tobytes()


#: (rows, lanes, M) of the einsum guard: every combination of up to 2^22
#: entries (a kernel block holds at most 2^17 and the running-sum row).
EINSUM_SHAPES = [s for s in itertools.product([1, 7, 2048], [1, 3, 163], [2, 3, 7, 64, 70])
                 if math.prod(s) <= 2**22]


class TestEinsumOrder:
    """The kernel's report bytes rest on the order of its two ``einsum``
    calls: a numpy whose einsum reassociates them, or fuses a multiply and
    an add, fails here rather than silently in the bytes."""

    @pytest.mark.parametrize("rows, lanes, m", EINSUM_SHAPES)
    def test_row_sums_and_the_weighted_column_sum_keep_their_order(self, rows, lanes, m):
        # values over many binades, so that another order rounds differently
        rng = np.random.default_rng(rows * 1000 + lanes * 100 + m)
        block = rng.random((rows + 1, lanes, m)) ** 8
        sums = np.einsum("klm->kl", block)
        pairs = list(itertools.product(range(rows + 1), range(lanes)))
        if len(pairs) > 4096:  # a few thousand one-row calls of each kind
            pairs = [pairs[0], pairs[-1]] + [pairs[i] for i in rng.choice(len(pairs), 4096)]
        for k, lane in pairs:
            assert sums[k, lane] == np.einsum("m->", block[k, lane])
        # row 0, at weight 1, is the running sum the rows are added to
        weights = np.concatenate([np.ones((1, lanes)), 1.0 / sums[1:]])
        total = np.zeros((lanes, m))
        for k in range(rows + 1):
            total = total + block[k] * weights[k][:, None]
        assert np.einsum("kl,klm->lm", weights, block).tobytes() == total.tobytes()


#: (M, R): every block after the prior reuses one buffer per kernel call,
#: the last block a leading slice of it.  Odd and even narrow rows take the
#: cumulative sum, M = 64 is the benchmarks' family, and 2560 entries per row
#: take the row loop.
BUFFER_CASES = [(m, r) for m in (2, 3, 64, 2560) for r in (1, 3)]


class TestBlockBufferReuse:
    @pytest.mark.parametrize("m, r_count", BUFFER_CASES)
    @pytest.mark.parametrize("last", ["step + 1", "2 step - 1"])
    def test_consumers_equal_the_float_cumsum(self, m, r_count, last, tmp_path):
        rng = np.random.default_rng(m * 10 + r_count)
        cset = _vanishing_family(m, rng)
        step = max(1, _BLOCK_ELEMENTS // (r_count * m))
        n = step + 1 if last == "step + 1" else 2 * step - 1
        x = rng.uniform(0.0, 0.8, size=(r_count, n))
        x[:, n // 3] = 0.9  # candidate 0 dies part way through
        cells = cset.cell_indices(x)
        assert np.array_equal(_averaged_weights(cset, cells), _reference_averaged(cset, cells))
        if r_count > 1:
            return
        trajectory = progressive_weights(cset, x[0])
        assert np.array_equal(trajectory.weights, _reference_rows(cset, cells)[:, 0])
        trajectory.to_csv(tmp_path / "got.csv")
        _reference_csv(cset, cells[0], tmp_path / "expected.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def _longdouble_averaged_weights(cset, cells, block=2**15):
    """The averaged weights of one sample's cells in ``np.longdouble``, fed
    the float64 ``log_table``: row ``k``'s log-likelihood is the exact-count
    ``Σ_c N_c(k) · log f_c`` up to 80-bit rounding, then the softmax and the
    column mean."""
    table = cset.log_table.astype(np.longdouble)
    carry = np.zeros(cset.size, dtype=np.longdouble)
    total = np.full(cset.size, 1 / np.longdouble(cset.size))  # the prior row
    for start in range(0, cells.size, block):
        rows = np.cumsum(table[cells[start:start + block]], axis=0) + carry
        carry = rows[-1].copy()
        rows = np.exp(rows - rows.max(axis=1, keepdims=True))
        total += (rows / rows.sum(axis=1, keepdims=True)).sum(axis=0)
    return total / (cells.size + 1)


#: Largest relative distance allowed between the kernel's averaged weights
#: and ``_longdouble_averaged_weights`` at n = 10^6 and M = 8.  Each row's
#: log-likelihood is its segment's exact-count anchor plus at most 2^14
#: float additions, so its rounding does not grow with n: the kernel reads
#: 4.3e-15 and 3.9e-15 at seeds 1 and 7, where one running sum over all
#: rows read 1.8e-13 and 1.6e-13.
LONGDOUBLE_RTOL = 2e-14


class TestSegments:
    """Segments of 2^14 points, each started from the exact cell counts
    before it."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_do_not_depend_on_the_workers_or_the_replications(self, monkeypatch,
                                                                     workers):
        # two full segments and a tail, three samples together and each alone
        monkeypatch.setattr(aggregation, "_workers", lambda: workers)
        cands = _perturbation_candidates(64, 1000, 2.0)
        cset = CandidateSet.from_densities(cands)
        x = _sample_rows(cands[1], 2 * _SEGMENT_ROWS + 5, [(9, r) for r in range(3)])
        cells = cset.cell_indices(x)
        assert np.array_equal(_averaged_weights(cset, cells),
                              _reference_averaged(cset, cells))
        rows = _aggregate_rows(cset, cells)
        for row, points in zip(rows, x):
            assert np.array_equal(row, aggregate(cset, points).values)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
    def test_trajectory_cells_of_any_integer_dtype(self, dtype):
        # the count pass offsets each replication's cells; uint64 cells plus
        # intp offsets would promote to float, which bincount refuses
        rng = np.random.default_rng(4)
        cset = _vanishing_family(3, rng)
        traj = progressive_weights(cset, rng.uniform(0.0, 0.8, size=_SEGMENT_ROWS + 5))
        other = WeightTrajectory(cset, traj.cells.astype(dtype))
        assert np.array_equal(other.averaged, traj.averaged)
        assert np.array_equal(other.weights, traj.weights)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                        reason="needs an extended-precision longdouble")
    def test_long_samples_are_close_to_the_exact_count_weights(self):
        n = 10**6
        cands = _perturbation_candidates(8, n, 2.0)
        cset = CandidateSet.from_densities(cands)
        cells = cset.cell_indices(sample(cands[1], n, seed=1))
        expected = _longdouble_averaged_weights(cset, cells)
        got = _averaged_weights(cset, cells[None])[0]
        assert np.all(np.abs(got - expected) <= LONGDOUBLE_RTOL * expected)


def _all_log_lane_starts(candidates, cells):
    """``aggregation._lane_starts`` with every lane in the log domain, from
    its exact-count anchor: the walk before lanes could be products."""
    seg = aggregation._SEGMENT_ROWS
    start = np.stack([_exact_count_anchor(candidates, cells[:, :s])
                      for s in range(0, max(1, cells.shape[1]), seg)])
    return np.zeros(start.shape[:2], dtype=bool), start


def _best_time(call, repeat=5):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


@st.composite
def tiny_ratio_cases(draw):
    """Families of 2 to 4 candidates on up to 4 cells whose likelihood
    ratios reach down to 1e-300, zeros included, and samples of up to 150
    points (four 40-point lanes) drawn with skewed cell frequencies."""
    m, width = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    level = st.sampled_from([0.0, 1e-300, 1e-200, 1e-30, 1e-5, 0.01, 0.5, 1.0, 2.0])
    raw = np.array(draw(st.lists(st.lists(level, min_size=width, max_size=width),
                                 min_size=m, max_size=m)))
    raw[raw.max(axis=1) == 0.0, 0] = 1.0
    r_count, n = draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.stack([rng.choice(width, size=n, p=rng.dirichlet(np.full(width, 0.5)))
                      for _ in range(r_count)])
    return _family(raw), cells


def _alternating_family(d, third):
    """Two candidates that swap the lead between the halves of [0, 1], whose
    ratio is ``d / (1 - d)`` in each one's weaker half, and a uniform third."""
    values = [[2 - 2 * d, 2 * d], [2 * d, 2 - 2 * d]] + ([[1.0, 1.0]] if third else [])
    return CandidateSet([0.0, 0.5, 1.0], values)


class TestProductLanes:
    """Lanes walked as running products of likelihood ratios, where a count
    bound proves that no row can underflow, and in the log domain
    elsewhere."""

    def test_a_candidate_that_comes_back_is_not_lost(self):
        # 1,100 points at 0.25 take candidate 1 down to 2^-1100 of candidate
        # 0, and the last point kills candidate 0.  As a product candidate 1
        # underflows to 0 and the last row would be dead; the lane's count
        # bound sends it to the log domain, which keeps it.
        cset = CandidateSet([0.0, 0.5, 1.0], [[2.0, 0.0], [1.0, 1.0]])
        x = np.array([0.25] * 1100 + [0.75])
        cells = cset.cell_indices(x)[None]
        assert not aggregation._lane_starts(cset, cells)[0].any()
        traj = progressive_weights(cset, x)
        assert traj.weights[-1].tolist() == [0.0, 1.0]
        assert np.array_equal(traj.averaged, _reference_averaged(cset, cells)[0])
        with pytest.MonkeyPatch.context() as mp, np.errstate(divide="ignore", invalid="ignore"):
            mp.setattr(aggregation, "_PRODUCT_BITS", math.inf)  # every lane a product
            assert np.isnan(progressive_weights(cset, x).weights[-1]).all()

    @pytest.mark.parametrize("d", [1e-5, 1e-30, 1e-300])
    @pytest.mark.parametrize("third", [False, True])
    def test_alternating_lead_tables_keep_the_log_walk(self, monkeypatch, d, third):
        # every lane takes the log domain, so the bytes are the log walk's
        cset = _alternating_family(d, third)
        x = np.random.default_rng(0).random(10**5)
        cells = cset.cell_indices(x)[None]
        assert not aggregation._lane_starts(cset, cells)[0].any()
        got = progressive_weights(cset, x).averaged
        assert np.array_equal(got, _reference_averaged(cset, cells)[0])
        monkeypatch.setattr(aggregation, "_lane_starts", _all_log_lane_starts)
        assert np.array_equal(_averaged_weights(cset, cells, 1)[0], got)

    def test_product_lanes_match_the_row_by_row_reference(self):
        # two full segments and a tail of each of three samples, all
        # products, on the family LONGDOUBLE_RTOL is stated for (tuned to
        # n = 10^6; tuned to this n, both forms read up to 2.1e-14 to 2.4e-14)
        n = 2 * _SEGMENT_ROWS + 5
        cands = _perturbation_candidates(8, 10**6, 2.0)
        cset = CandidateSet.from_densities(cands)
        cells = cset.cell_indices(_sample_rows(cands[1], n, [(3, r) for r in range(3)]))
        assert aggregation._lane_starts(cset, cells)[0].all()
        averaged, rows = _visited_rows(cset, cells, 2)
        assert np.array_equal(averaged, _reference_averaged(cset, cells))
        assert np.array_equal(rows, _reference_rows(cset, cells))
        if np.finfo(np.longdouble).eps <= 2.0**-60:  # an extended-precision longdouble
            for got, row in zip(averaged, cells):
                expected = _longdouble_averaged_weights(cset, row)
                assert np.all(np.abs(got - expected) <= LONGDOUBLE_RTOL * expected)

    @settings(max_examples=100, deadline=None)
    @given(tiny_ratio_cases())
    def test_product_lanes_are_within_a_bound_of_the_log_walk(self, case):
        # Bound, with u = 2^-53, L the largest finite |log f|, C cells, M
        # candidates and lanes of G = 40 points: a log-domain row's
        # log-likelihood is its anchor (C products of at most n·L) plus at
        # most G additions of running sums up to n·L, so each weight is off
        # by at most about 2·u·n·L·(C + G) relative, plus the softmax's few
        # ulps; a product row is off by the same anchor error and at most G
        # roundings.  Entries below 2^-1022 of a row whose sum exceeds
        # 2^-900 weigh less than 2^-122 and are off by less than 2^-160.
        cset, cells = case
        n = cells.shape[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aggregation, "_SEGMENT_ROWS", 40)
            product = aggregation._lane_starts(cset, cells)[0]
            try:
                got, rows = _visited_rows(cset, cells, 1)
            except ValidationError as exc:
                got = exc
            mp.setattr(aggregation, "_PRODUCT_BITS", -1)  # no lane is a product
            try:
                expected, log_rows = _visited_rows(cset, cells, 1)
            except ValidationError as exc:
                assert str(got) == str(exc)  # rows die in log lanes only
                return
        finite = np.abs(cset.log_table[np.isfinite(cset.log_table)])
        tol = 2.0**-53 * (4 * n * (finite.max() + 1) * (cset.log_table.shape[0] + 40)
                          + 8 * cset.size + 32)
        lane = np.zeros(rows.shape[:2], dtype=bool)
        lane[1:] = np.repeat(product, 40, axis=0)[:n]
        assert np.all(np.abs(rows[lane].sum(axis=-1) - 1.0) <= 1e-12)  # no dead row
        gap = np.abs(rows - log_rows)[lane]
        assert np.all(gap <= tol * np.maximum(rows, log_rows)[lane] + 2.0**-140)
        assert np.all(np.abs(got - expected) <= tol * np.maximum(got, expected) + 2.0**-140)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_batch_of_both_forms_gives_each_row_its_bytes_alone(self, monkeypatch,
                                                                  workers):
        # lanes of 40 points; a sample that keeps to one half of [0, 1] walks
        # as products, one that visits both halves often in the log domain
        monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", 40)
        monkeypatch.setattr(aggregation, "_workers", lambda: workers)
        cset = _alternating_family(1e-30, False)
        rng = np.random.default_rng(8)
        left = [1.0, 0.0, 0.5, 0.97, 0.5, 1.0]
        x = np.stack([np.where(rng.random(130) < p, 0.25, 0.75) for p in left])
        x[4, :80] = 0.25  # products, then the log domain
        cells = cset.cell_indices(x)
        product = aggregation._lane_starts(cset, cells)[0]
        assert product.any() and not product.all() and product[:, 4].any()
        averaged, rows = _visited_rows(cset, cells, workers)
        for r in range(cells.shape[0]):
            alone, alone_rows = _visited_rows(cset, cells[r:r + 1], 1)
            assert averaged[r].tobytes() == alone[0].tobytes()
            assert rows[:, r].tobytes() == alone_rows[:, 0].tobytes()
        assert np.array_equal(averaged, _reference_averaged(cset, cells))
        assert np.array_equal(_aggregate_rows(cset, cells), np.stack(
            [aggregate(cset, row).values for row in x]))

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 13, 33])
    @pytest.mark.parametrize("form", ["product", "log"])
    def test_odd_m_bytes_do_not_depend_on_the_layout(self, monkeypatch, m, form):
        # Odd rows give einsum's row sums a tail past its vector lanes.  Four
        # samples of 2,500 points in five lanes of 500 each: every worker
        # count, each sample alone, the batch split in two and three block
        # sizes (from a few rows a block to one block a lane) read the same
        # bytes as the lane reference.
        monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", 500)
        if form == "log":
            monkeypatch.setattr(aggregation, "_PRODUCT_BITS", -1)  # no lane is a product
        rng = np.random.default_rng(m)
        cset = _family(rng.uniform(0.8, 1.2, size=(m, 5)))
        cells = cset.cell_indices(rng.random((4, 2500)))
        assert aggregation._lane_starts(cset, cells)[0].all() == (form == "product")
        expected = _reference_averaged(cset, cells)
        for block_elements in (2**12, 2**15, 2**17):
            monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", block_elements)
            for workers in WORKERS:
                assert _averaged_weights(cset, cells, workers).tobytes() == expected.tobytes()
            alone = [_averaged_weights(cset, cells[r:r + 1], 2) for r in range(4)]
            split = [_averaged_weights(cset, cells[:1], 3), _averaged_weights(cset, cells[1:], 3)]
            for got in (alone, split):
                assert np.concatenate(got).tobytes() == expected.tobytes()


class TestFormRuleCost:
    """Timed once, apart from TestProductLanes, which CI also repeats."""

    @pytest.mark.parametrize("d", [1e-5, 1e-30, 1e-300])
    @pytest.mark.parametrize("third", [False, True])
    def test_the_form_rule_costs_at_most_the_log_walk_again(self, monkeypatch, d, third):
        # the rule took about 0.6 ms beside a 9-11 ms log walk on one core of
        # a Xeon-class x86-64 CPU, so a noisy machine has a wide margin
        cset = _alternating_family(d, third)
        cells = cset.cell_indices(np.random.default_rng(0).random(10**5))[None]
        ruled = _best_time(lambda: _averaged_weights(cset, cells, 1))
        monkeypatch.setattr(aggregation, "_lane_starts", _all_log_lane_starts)
        assert ruled <= 2 * _best_time(lambda: _averaged_weights(cset, cells, 1))


# ---------------------------------------------------------------------------
# Exact expectations
# ---------------------------------------------------------------------------


def _selected_values(cset, cells):
    """The selector harness's estimator: the selected candidates' cell values."""
    return cset.values[_select_cells(cset, cells)]


def _frozen_selected_values(cset, cells):
    """The selector through the frozen per-sample selector it replaced, each
    row of cells given as its cells' midpoints."""
    select = _old_selector(cset)
    mids = (cset.grid[:-1] + cset.grid[1:]) / 2
    return cset.values[[select(mids[row]) for row in cells]]


def _exact_risk(cset, truth, n, loss="KL", estimator=_aggregate_rows):
    """``E loss`` of ``estimator`` (by default the mixture) on n points from
    ``truth``, a density on ``cset.grid``: the estimator sees only the
    sample's cells, so this is a finite sum over all C^n cell sequences, each
    weighted by the product of the truth's cell masses."""
    masses = truth.values * truth.cell_lengths
    cells = np.indices((masses.size,) * n).reshape(n, -1).T
    prob = np.prod(masses[cells], axis=1)
    live = prob > 0
    risks = _LOSS_ROWS[loss](truth, cset.grid, estimator(cset, cells[live]))
    return math.fsum((prob[live] * risks).tolist())


class TestExactExpectation:
    """The engine against the mathematics it estimates, at n = 1 and 2 on the
    M = 4 worst-case family tuned at n = 3 (32 cells), truth index 1: the
    mixture's KL, H and L1 risks and the selector's L1 risk.  The engine's
    20,000 replications at n = 2 span two kernel blocks, so on more than one
    CPU the mixture's Monte Carlo means come through the kernel's dealt
    blocks.  Two more truths lie off the candidates: the uniform density
    written on the family's grid (a truth spec of its own; as a function it
    equals the zero word's member), and the mirror of candidate 1, whose
    bumps go down then up, which no member does.  The oracle inequality is
    also checked exactly on the separated family of ``TestPathwiseRegret``
    at four (M, ε), where the equal-weight mixture violates it (at M = 8,
    ε = 0.3 only at n = 2).  At ε = 0 every candidate vanishes off its own
    cell, so one point zeroes all weights but the truth's; a kernel that
    read a zero likelihood as 1 would violate it there."""

    @pytest.fixture(scope="class")
    def family(self):
        cset = CandidateSet.from_densities(_perturbation_candidates(4, 3, 2.0), bound=2.0)
        truth = cset.candidate(1)
        assert np.array_equal(truth.breakpoints, cset.grid)
        return cset, truth

    @pytest.fixture(scope="class", params=["uniform", "mirror"])
    def off_family(self, request):
        cset = CandidateSet.from_densities(_perturbation_candidates(4, 3, 2.0), bound=2.0)
        if request.param == "uniform":
            values = np.ones(cset.values.shape[1])
        else:
            values = cset.values[1].reshape(-1, 2)[:, ::-1].ravel()
            assert not any(np.array_equal(values, row) for row in cset.values)
        return cset, PiecewiseDensity(cset.grid, values)

    @pytest.mark.parametrize("loss", ["KL", "H", "L1"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_monte_carlo_mean_is_within_4_se_of_the_exact_risk(self, family, n, loss):
        cset, truth = family
        exact = _exact_risk(cset, truth, n, loss)
        seeds = [(1, n, r) for r in range(20_000)]
        risks, = _replication_risks(cset, [(truth, seeds)], n, _aggregate_rows, loss)
        mean, se = _mean_se(risks)
        assert 0.0 < se and abs(mean - exact) <= 4 * se

    @pytest.mark.parametrize("n", [1, 2])
    def test_selector_monte_carlo_mean_is_within_4_se_of_the_exact_l1(self, family, n):
        cset, truth = family
        exact = _exact_risk(cset, truth, n, "L1", _frozen_selected_values)
        seeds = [(1, n, r) for r in range(20_000)]
        risks, = _replication_risks(cset, [(truth, seeds)], n, _selected_values, "L1")
        mean, se = _mean_se(risks)
        if n == 1:
            # One point never selects the truth, and every other candidate
            # lies at the same L1 distance from it: the risk is constant.
            assert se == 0.0 and np.all(risks == exact)
        else:
            assert 0.0 < se and abs(mean - exact) <= 4 * se

    @pytest.mark.parametrize("n", [1, 2])
    def test_oracle_inequality_holds_exactly(self, family, n):
        cset, truth = family
        exact = _exact_risk(cset, truth, n)
        oracle = min(_kl_rows(truth, cset.grid, cset.values).tolist())
        assert exact - oracle <= math.log(cset.size) / (n + 1)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m, eps, index", [(8, 0.3, 2), (4, 0.1, 1), (16, 0.2, 5),
                                               (4, 0.0, 1)])
    def test_oracle_inequality_holds_exactly_on_the_separated_family(self, m, eps, index, n):
        candidates = _separated_family(m, eps)
        cset, truth = CandidateSet.from_densities(candidates), candidates[index]
        oracle = min(_kl_rows(truth, cset.grid, cset.values).tolist())
        assert _exact_risk(cset, truth, n) - oracle <= math.log(cset.size) / (n + 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_off_family_monte_carlo_means_are_within_4_se_of_the_exact_risks(self, off_family,
                                                                              n):
        # one harness run gives the mixtures; every loss is read off them
        cset, truth = off_family
        mixtures = []

        def recorded(candidates, cells):
            mixtures.append(_aggregate_rows(candidates, cells))
            return mixtures[-1]

        seeds = [(1, n, r) for r in range(20_000)]
        risks = {"KL": _replication_risks(cset, [(truth, seeds)], n, recorded, "KL")[0]}
        for loss in ("H", "L1"):
            risks[loss] = _LOSS_ROWS[loss](truth, cset.grid, np.concatenate(mixtures))
        for loss, values in risks.items():
            mean, se = _mean_se(values)
            assert 0.0 < se and abs(mean - _exact_risk(cset, truth, n, loss)) <= 4 * se, loss
        oracle = min(_kl_rows(truth, cset.grid, cset.values).tolist())
        assert _exact_risk(cset, truth, n) - oracle <= math.log(cset.size) / (n + 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_off_family_selector_mean_is_within_4_se_of_the_exact_l1(self, off_family, n):
        cset, truth = off_family
        exact = _exact_risk(cset, truth, n, "L1", _frozen_selected_values)
        seeds = [(1, n, r) for r in range(20_000)]
        risks, = _replication_risks(cset, [(truth, seeds)], n, _selected_values, "L1")
        mean, se = _mean_se(risks)
        if n == 1:
            # one point selects the same candidate in every cell the truth
            # charges: the uniform itself, or for the mirror a member at one
            # L1 distance from it
            assert se == 0.0 and np.all(risks == exact)
        else:
            assert 0.0 < se and abs(mean - exact) <= 4 * se


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TestSampleRows:
    @pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 10**5])
    def test_chunked_sample_equals_the_unchunked_inversion(self, n):
        rng = np.random.default_rng(n)
        for seed in range(10):
            d = _random_density(rng, zeros=True)
            assert np.array_equal(sample(d, n, seed=seed), _old_sample(d, n, seed))

    @pytest.mark.parametrize("density", ["member", "zero-mass", "uniform"])
    def test_sample_equals_the_searched_inversion(self, density):
        d = {"member": lambda: _perturbation_candidates(64, 1000, 2.0)[5],
             "zero-mass": lambda: PiecewiseDensity([0.0, 0.2, 0.3, 0.5, 0.6, 1.0],
                                                   [1.5, 0.0, 0.5, 0.0, 1.5]),
             "uniform": PiecewiseDensity.uniform}[density]()
        for seed in range(3):
            n = 2 * 2**16 + 5
            assert np.array_equal(sample(d, n, seed=seed), _old_sample(d, n, seed))

    @pytest.mark.parametrize("values", [
        [0.513, 0.0, 4.486999999999999, 0.0, 0.0],  # trailing zero-mass cells
        [1.015, 0.0, 1.5, 0.0, 1.2424999999999997],  # a positive last cell
    ])
    def test_zero_mass_cells_take_the_old_guarded_division(self, monkeypatch, values):
        # Both cumulative masses end just below 1, so variates at and past
        # cdf[-1] reach the corner where the lookup's cell can have zero mass.
        d = PiecewiseDensity([0.0, 0.2, 0.3, 0.5, 0.6, 1.0], values)
        cdf = np.concatenate(([0.0], np.cumsum(d.values * d.cell_lengths)))
        assert cdf[-1] < 1.0
        u = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                            np.linspace(cdf[-1], np.nextafter(1.0, 0.0), 5),
                            np.random.default_rng(0).random(50)))
        u = u[u < 1.0]

        class Variates:
            def random(self, n, out=None):
                if out is None:
                    return u[:n].copy()
                out[...] = u[:n]
                return out

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Variates())
        assert np.array_equal(sample(d, u.size, seed=0), _old_sample(d, u.size, 0))

    @pytest.mark.parametrize("n", [0, 1, 7, 2**16 + 3])
    def test_rows_are_stacked_samples(self, n):
        d = PiecewiseDensity([0.0, 0.2, 0.7, 1.0], [2.0, 0.0, 1.0 / 0.3 - 4.0 / 3.0])
        seeds = [(3, n, r) for r in range(5)]
        rows = _sample_rows(d, n, seeds)
        assert rows.shape == (5, n)
        assert np.array_equal(rows, np.stack([sample(d, n, seed=s) for s in seeds]))

    def test_sample_peak_memory(self):
        d = _random_density(np.random.default_rng(2), max_cells=40)
        n = 10**6
        tracemalloc.start()
        try:
            sample(d, n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the output alone is 7.6 MiB

    def test_a_group_draw_holds_its_output_and_one_chunk(self):
        # a rate-study group's draw at M = 64: 40 rows of 1600 points,
        # 0.49 MiB, inverted in chunks of 2^14 points (128 KiB temporaries)
        d = _perturbation_candidates(64, 1600, 2.0)[3]
        seeds = [(1, 64, 1600, 3, r) for r in range(40)]
        _sample_rows(d, 1600, seeds)
        tracemalloc.start()
        try:
            rows = _sample_rows(d, 1600, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 2**20

    def test_a_draw_builds_its_guide_table_once(self, monkeypatch):
        # 10^6 points are 62 chunks of 2^14; the table of their CDF is
        # built once for all of them
        d = _perturbation_candidates(64, 10**6, 2.0)[3]
        real, built = densities._guide_table, []

        def counted(left):
            built.append(left.size)
            return real(left)

        monkeypatch.setattr(densities, "_guide_table", counted)
        sample(d, 10**6, seed=1)
        assert built == [d.values.size]

    @pytest.mark.parametrize("chunk", [2**16, 2**14, 1000])
    def test_samples_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        d = _perturbation_candidates(64, 1000, 2.0)[5]
        sizes = [c + e for c in (1000, 2**14, 2**16) for e in (-1, 0, 1)]
        seeds = [(6, r) for r in range(3)]
        expected = ([sample(d, n, seed=n) for n in sizes]
                    + [_sample_rows(d, n // 3, seeds) for n in sizes])
        monkeypatch.setattr(densities, "_SAMPLE_CHUNK", chunk)
        got = [sample(d, n, seed=n) for n in sizes] + [_sample_rows(d, n // 3, seeds) for n in sizes]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


ROW_LOSSES = [
    (_kl_rows, kl_divergence, _old_kl),
    (_hellinger_rows, hellinger_distance, _old_hellinger),
    (_l1_rows, l1_distance, _old_l1),
]


class TestRowLosses:
    @pytest.mark.parametrize("rows, scalar, old", ROW_LOSSES)
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_scalar_losses(self, rows, scalar, old, seed):
        rng = np.random.default_rng(seed)
        f = _random_density(rng, zeros=seed % 2 == 1)
        cset = CandidateSet.from_densities(
            [_random_density(rng, max_cells=12, zeros=True) for _ in range(9)])
        got = rows(f, cset.grid, cset.values)
        expected = [scalar(f, cset.candidate(j)) for j in range(cset.size)]
        assert got.tolist() == expected
        assert expected == [old(f, cset.candidate(j)) for j in range(cset.size)]

    def test_every_loss_name_has_its_row_form(self):
        assert set(_LOSS_ROWS) == set(LOSSES)
        assert [(LOSSES[name], _LOSS_ROWS[name]) for name in LOSSES] == \
            [(scalar, rows) for rows, scalar, _ in ROW_LOSSES]

    def test_kl_is_infinite_where_absolute_continuity_fails(self):
        f = PiecewiseDensity.uniform()
        rows = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        got = _kl_rows(f, np.array([0.0, 0.5, 1.0]), rows)
        assert math.isinf(got[0]) and got[1] == 0.0 and math.isinf(got[2])

    @pytest.mark.parametrize("rows", [_kl_rows, _hellinger_rows])
    def test_negative_rows_are_rejected(self, rows):
        bad = np.array([[1.0, 1.0], [2.5, -0.5]])
        with pytest.raises(ValidationError, match="nonnegative"):
            rows(PiecewiseDensity.uniform(), np.array([0.0, 0.5, 1.0]), bad)


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------

INLINE = {
    "kind": "inline",
    "densities": [
        {"breakpoints": [0.0, 0.5, 1.0], "values": [1.6, 0.4]},
        {"breakpoints": [0.0, 0.3, 1.0], "values": [0.5, 0.85 / 0.7]},
        {"breakpoints": [0.0, 1.0], "values": [1.0]},
    ],
}


def _config(**overrides):
    base = dict(seed=31, M=3, n_values=(1, 25, 90), replications=23, A=3.0,
                truth_spec={"kind": "candidate", "index": 1}, candidate_spec=INLINE)
    base.update(overrides)
    return ExperimentConfig(**base)


RATE = dict(M=4, M_values=(4, 13), n_values=(20, 60, 150), replications=9, A=2.0,
            truth_spec={"kind": "candidate", "index": 0},
            candidate_spec={"kind": "perturbation"})


class TestHarnessesMatchTheReplicationLoops:
    @pytest.mark.parametrize("overrides", [
        {},
        {"truth_spec": {"kind": "uniform"}},
        {"truth_spec": {"kind": "inline", "breakpoints": [0, 0.4, 1],
                        "values": [1.5, 2.0 / 3.0]}},
        {"M": 16, "candidate_spec": {"kind": "perturbation"}, "A": 2.0},
    ])
    def test_oracle_and_yatracos(self, overrides):
        cfg = _config(**overrides)
        assert run_oracle_experiment(cfg).rows == _old_oracle_experiment(cfg).rows
        assert run_yatracos_experiment(cfg).rows == _old_yatracos_experiment(cfg).rows

    def test_replications_split_into_groups(self, monkeypatch):
        import densagg.experiments as ex

        monkeypatch.setattr(ex, "_GROUP_POINTS", 200)  # groups of 8, 3 and 1 rows
        for cfg in (_config(), _config(M=16, candidate_spec={"kind": "perturbation"}, A=2.0)):
            assert run_oracle_experiment(cfg).rows == _old_oracle_experiment(cfg).rows
            assert run_yatracos_experiment(cfg).rows == _old_yatracos_experiment(cfg).rows

    def test_selector_tables_are_built_once_per_family(self, monkeypatch):
        import densagg.experiments as ex

        cfg = _config(M=16, candidate_spec={"kind": "perturbation"}, A=2.0)
        expected = _old_yatracos_experiment(cfg).rows
        calls, build = [], aggregation.yatracos_class

        def counting(candidates):
            calls.append(candidates.size)
            return build(candidates)

        monkeypatch.setattr(aggregation, "yatracos_class", counting)
        monkeypatch.setattr(ex, "_GROUP_POINTS", 200)  # n = 1, 25, 90 in 1, 3, 12 groups
        assert run_yatracos_experiment(cfg).rows == expected
        assert calls == [16]

    @pytest.mark.parametrize("loss, q", [("KL", 1.0), ("H", 1.0), ("L1", 1.0),
                                         ("KL", 2.0), ("H", 2.0)])
    def test_rate_study(self, loss, q):
        cfg = ExperimentConfig(seed=5, loss=loss, q=q, **RATE)
        assert run_rate_study(cfg).report.rows == _old_rate_rows(cfg)

    @pytest.mark.parametrize("loss", ["KL", "L1"])
    def test_rate_study_in_groups_that_span_truths(self, monkeypatch, loss):
        import densagg.experiments as ex

        # groups of 10, 3 and 1 rows against truths of 9 replications
        monkeypatch.setattr(ex, "_GROUP_POINTS", 200)
        cfg = ExperimentConfig(seed=5, loss=loss, q=2.0, **RATE)
        assert run_rate_study(cfg).report.rows == _old_rate_rows(cfg)

    def test_engine_names_a_replication_whose_weights_die(self):
        # The truth puts mass where both candidates vanish: the oracle
        # experiment refuses it up front (infinite oracle KL), and the
        # engine itself fails on the first dead replication.
        cfg = _config(
            truth_spec={"kind": "uniform"},
            candidate_spec={"kind": "inline", "densities": [
                {"breakpoints": [0.0, 0.5, 1.0], "values": [2.0, 0.0]},
                {"breakpoints": [0.0, 0.25, 1.0], "values": [4.0, 0.0]},
            ]},
            M=2, A=5.0,
        )
        with pytest.raises(ValidationError):
            _old_oracle_experiment(cfg)
        with pytest.raises(ValidationError, match="infinite KL"):
            run_oracle_experiment(cfg)
        cset = CandidateSet.from_densities(build_candidates(cfg))
        seeds = [(1, r) for r in range(6)]
        with pytest.raises(ValidationError,
                           match=r"^replication \d: every candidate has zero likelihood"):
            _replication_risks(cset, [(PiecewiseDensity.uniform(), seeds)], 10,
                               _aggregate_rows, "KL")

    def test_engine_names_the_first_failing_replication_in_order(self, monkeypatch):
        import densagg.experiments as ex

        # Groups of two rows.  Replications 0 and 1 live; in the second
        # group, replication 2 dies on its 18th point and replication 3 on
        # its 3rd.  The batch fails at row 3, but the error names
        # replication 2 with its own message, as the replication loop did.
        monkeypatch.setattr(ex, "_GROUP_POINTS", 40)
        left = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        cset = CandidateSet.from_densities(
            [left, PiecewiseDensity([0.0, 0.25, 1.0], [4.0, 0.0])])
        truth = PiecewiseDensity([0.0, 0.5, 1.0], [1.96, 0.04])
        seeds = [(90, r) for r in range(8)]
        for r in (0, 1):
            aggregate(cset, sample(truth, 20, seed=seeds[r]))
        expected = str(pytest.raises(
            ValidationError, aggregate, cset, sample(truth, 20, seed=seeds[2])).value)
        assert "first 18 sample points" in expected
        batch = np.stack([sample(truth, 20, seed=s) for s in seeds[2:4]])
        with pytest.raises(ValidationError, match="^every candidate .* first 3 sample points"):
            _aggregate_rows(cset, cset.cell_indices(batch))
        with pytest.raises(ValidationError) as info:
            _replication_risks(cset, [(truth, seeds)], 20, _aggregate_rows, "KL")
        assert str(info.value) == f"replication 2: {expected}"

    def test_cli_exits_1_when_weights_die(self, tmp_path, capsys):
        cfg = _config(
            truth_spec={"kind": "uniform"},
            candidate_spec={"kind": "inline", "densities": [
                {"breakpoints": [0.0, 0.5, 1.0], "values": [2.0, 0.0]},
                {"breakpoints": [0.0, 0.25, 1.0], "values": [4.0, 0.0]},
            ]},
            M=2, A=5.0,
        )
        path = tmp_path / "config.json"
        cfg.save(path)
        assert main(["oracle-exp", "--config", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEngineOnSeveralPairs:
    """One engine call on several ``(truth, seeds)`` pairs, whose groups of
    replications span pairs, against one call per pair."""

    @pytest.mark.parametrize("loss", ["KL", "H", "L1"])
    @pytest.mark.parametrize("estimator", ["mixture", "selector"])
    def test_equals_the_per_pair_calls_at_every_group_size(self, monkeypatch, loss, estimator):
        import densagg.experiments as ex

        cset = CandidateSet.from_densities(_perturbation_candidates(8, 30, 2.0), bound=2.0)
        run = _aggregate_rows if estimator == "mixture" else ex._selector_estimator(cset)
        truths = [cset.candidate(t) for t in range(4)] + [PiecewiseDensity.uniform()]
        pairs = [(truth, [(9, t, r) for r in range(k)])
                 for t, (truth, k) in enumerate(zip(truths, (3, 1, 4, 2, 5)))]
        n = 30
        alone = [_replication_risks(cset, [pair], n, run, loss)[0].tolist() for pair in pairs]
        # groups of 1 to 15 rows cut the 15 replications at every offset of every pair
        for rows in range(1, 16):
            monkeypatch.setattr(ex, "_GROUP_POINTS", rows * n + n - 1)
            got = _replication_risks(cset, pairs, n, run, loss)
            assert [risks.tolist() for risks in got] == alone, rows

    def test_an_error_names_the_first_failing_replication_in_draw_order(self, monkeypatch):
        import densagg.experiments as ex

        # As in the one-pair test above: seeds[2] dies on its 18th point and
        # seeds[3] on its 3rd; seeds 0 and 1 live.  One group of four rows
        # spans two pairs, so the batch fails at seeds[3]'s third point, and
        # the error names whichever comes first in draw order, by its pair
        # and its own index in that pair.
        monkeypatch.setattr(ex, "_GROUP_POINTS", 80)
        left = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        cset = CandidateSet.from_densities(
            [left, PiecewiseDensity([0.0, 0.25, 1.0], [4.0, 0.0])])
        truth = PiecewiseDensity([0.0, 0.5, 1.0], [1.96, 0.04])
        seeds = [(90, r) for r in range(4)]

        def message(seed):
            return str(pytest.raises(
                ValidationError, aggregate, cset, sample(truth, 20, seed=seed)).value)

        # the last two orders both fail at a replication 0, of different truths
        for pairs, expected in (
            ([(truth, seeds[:3]), (truth, seeds[3:])],
             f"truth 0, replication 2: {message(seeds[2])}"),
            ([(truth, seeds[3:]), (truth, seeds[:3])],
             f"truth 0, replication 0: {message(seeds[3])}"),
            ([(truth, seeds[:2]), (truth, seeds[2:])],
             f"truth 1, replication 0: {message(seeds[2])}"),
        ):
            with pytest.raises(ValidationError) as info:
                _replication_risks(cset, pairs, 20, _aggregate_rows, "KL")
            assert str(info.value) == expected


class TestCompactCells:
    """Cells held in the grid's narrowest unsigned dtype, as sampling stores
    them, against the same cells as ``intp``: every result bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("width, dtype", [(96, np.uint8), (300, np.uint16)])
    def test_weights_risks_and_selections_do_not_depend_on_the_index_dtype(
            self, monkeypatch, tmp_path, workers, width, dtype):
        import densagg.experiments as ex

        monkeypatch.setattr(aggregation, "_workers", lambda: workers)
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", 2**12)
        rng = np.random.default_rng(width)
        cset = _family(rng.uniform(0.2, 3.0, size=(64, width)))
        traj = progressive_weights(cset, rng.random(3000))
        wide = WeightTrajectory(cset, traj.cells.astype(np.intp))
        assert traj.cells.dtype == dtype
        assert np.array_equal(traj.averaged, _averaged_weights(cset, wide.cells[None])[0])
        assert np.array_equal(traj.averaged, wide.averaged)
        assert np.array_equal(traj.weights, wide.weights)
        traj.to_csv(tmp_path / "compact.csv")
        wide.to_csv(tmp_path / "wide.csv")
        assert (tmp_path / "compact.csv").read_bytes() == (tmp_path / "wide.csv").read_bytes()
        rows = traj.cells.reshape(10, 300)
        assert np.array_equal(_select_cells(cset, rows), _select_cells(cset, rows.astype(np.intp)))
        # 24 replications in groups of 20 rows (the row loop) and 4 (the
        # float cumulative sum), the first spanning the three truths
        monkeypatch.setattr(ex, "_GROUP_POINTS", 20 * 200)
        pairs = [(cset.candidate(t), [(4, t, r) for r in range(8)]) for t in range(3)]
        for estimator, loss in ((_aggregate_rows, "KL"), (ex._selector_estimator(cset), "L1")):
            seen = []

            def compact(candidates, cells, estimator=estimator):
                seen.append(cells.dtype)
                return estimator(candidates, cells)

            def intp(candidates, cells, estimator=estimator):
                return estimator(candidates, cells.astype(np.intp))

            got = _replication_risks(cset, pairs, 200, compact, loss)
            expected = _replication_risks(cset, pairs, 200, intp, loss)
            assert seen == [dtype, dtype]
            assert [r.tolist() for r in got] == [r.tolist() for r in expected]


class TestGroupLayout:
    """Groups of replications whose (R, M) weight rows fill at most an eighth
    of a kernel block, against other layouts of the same replications."""

    def test_a_rate_study_cell_at_m_64_holds_a_few_blocks(self, monkeypatch):
        # the (M, n) = (64, 100) cell of the criterion-7 study: 64 truths of
        # 40 replications, in 10 groups of 256 walked in blocks of 8 rows
        import densagg.experiments as ex

        monkeypatch.setattr(aggregation, "_workers", lambda: 1)
        cset = ex._perturbation_set(64, 100, 2.0)
        pairs = [(cset.candidate(t), [(1, 64, 100, t, r) for r in range(40)])
                 for t in range(cset.size)]
        _replication_risks(cset, pairs[:1], 100, _aggregate_rows, "KL")
        tracemalloc.start()
        try:
            _replication_risks(cset, pairs, 100, _aggregate_rows, "KL")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("estimator", ["mixture", "selector"])
    def test_risks_do_not_depend_on_the_layout(self, monkeypatch, workers, estimator):
        import densagg.experiments as ex

        monkeypatch.setattr(aggregation, "_workers", lambda: workers)
        cset = ex._perturbation_set(64, 100, 2.0)
        run = _aggregate_rows if estimator == "mixture" else ex._selector_estimator(cset)
        loss = "KL" if estimator == "mixture" else "L1"
        pairs = [(cset.candidate(t), [(2, t, r) for r in range(50)]) for t in range(6)]
        rows = []

        def recorded(candidates, cells):
            rows.append(cells.shape[0])
            return run(candidates, cells)

        def risks():
            rows.clear()
            return [r.tolist() for r in _replication_risks(cset, pairs, 100, recorded, loss)]

        capped = risks()
        assert sorted(rows) == [44, 256]  # 2^17 // 8 entries hold 256 rows of 64
        monkeypatch.setattr(ex, "_BLOCK_ELEMENTS", 2**30)  # uncapped: one group
        assert risks() == capped and rows == [300]
        monkeypatch.setattr(ex, "_GROUP_POINTS", 100)  # one group per replication
        assert risks() == capped and rows == [1] * 300
