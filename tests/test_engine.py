"""The replication-batched engine against the one-sample functions.

Every batched layer must reproduce its one-sample counterpart bit for bit:
the weight kernel on (rows, R, M) blocks, row sampling, row mixtures and
row losses.  The one-sample functions are themselves checked here against
frozen copies of the code they replaced (``_old_sample``, ``_old_kl`` and
friends), and the three harnesses against a frozen copy of the
replication loops they replaced (``_old_*_experiment``), report row by
report row.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densagg import (
    CandidateSet,
    ExperimentConfig,
    PiecewiseDensity,
    PiecewiseFunction,
    RiskReport,
    RiskRow,
    ValidationError,
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
    _aggregate_rows,
    _averaged_weights,
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
                   mean - oracle, bound, mean - oracle <= bound + 3 * se)


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
                                0.0, worst_mean, math.log(m) / n,
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
        # the parametrised cases above take both cumulative-sum paths
        assert 12 * 40 < _ROW_LOOP_WIDTH <= 13 * 40

    def test_dead_rows_fail_at_the_earliest_dead_row(self):
        left = PiecewiseDensity([0.0, 0.5, 1.0], [2.0, 0.0])
        cset = CandidateSet.from_densities([left, left])
        x = np.full((5, 20), 0.25)
        x[1, 11] = x[3, 7] = 0.75
        with pytest.raises(ValidationError, match="^every candidate has zero "
                           "likelihood on the first 8 sample points"):
            _averaged_weights(cset, cset.cell_indices(x))

    @pytest.mark.parametrize("m, r_count", [(8, 3), (64, 40)])
    def test_aggregate_rows_are_aggregates(self, m, r_count):
        cands = _perturbation_candidates(m, 400, 2.0)
        cset = CandidateSet.from_densities(cands)
        seeds = [(5, r) for r in range(r_count)]
        x = _sample_rows(cands[1], 400, seeds)
        expected = np.stack([aggregate(cset, row).values for row in x])
        assert np.array_equal(_aggregate_rows(cset, x), expected)

    def test_aggregate_rows_needs_two_candidates(self):
        cset = CandidateSet.from_densities([PiecewiseDensity.uniform()])
        with pytest.raises(ValidationError, match="two candidates"):
            _aggregate_rows(cset, np.full((2, 3), 0.5))


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

    @pytest.mark.parametrize("loss, q", [("KL", 1.0), ("H", 1.0), ("L1", 1.0),
                                         ("KL", 2.0), ("H", 2.0)])
    def test_rate_study(self, loss, q):
        cfg = ExperimentConfig(seed=5, loss=loss, q=q, **RATE)
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
            _replication_risks(cset, PiecewiseDensity.uniform(), 10, seeds,
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
            _aggregate_rows(cset, batch)
        with pytest.raises(ValidationError) as info:
            _replication_risks(cset, truth, 20, seeds, _aggregate_rows, "KL")
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
