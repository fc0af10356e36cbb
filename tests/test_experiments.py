"""Monte Carlo harnesses: configs, reports, determinism, and the bounds."""

import csv
import json
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import densagg.aggregation as aggregation
import densagg.experiments as experiments
from densagg import (
    CSV_HEADER,
    ExperimentConfig,
    RiskRow,
    ValidationError,
    build_candidates,
    build_truth,
    load_config,
    run_lowerbound_audit,
    run_oracle_experiment,
    run_rate_study,
    run_yatracos_experiment,
    validate_class,
)
from densagg.aggregation import CandidateSet
from densagg.densities import FunctionClass, PiecewiseDensity
from densagg.lowerbound import (
    PerturbationFamily,
    _member_values,
    build_separated_set,
    choose_parameters,
    min_bump_count,
    perturbed_density,
)

THREE_INLINE = {
    "kind": "inline",
    "densities": [
        {"breakpoints": [0.0, 0.5, 1.0], "values": [1.6, 0.4]},
        {"breakpoints": [0.0, 0.5, 1.0], "values": [0.4, 1.6]},
        {"breakpoints": [0.0, 1.0], "values": [1.0]},
    ],
}


def quick_config(**overrides):
    base = dict(
        seed=4242,
        M=3,
        n_values=(25, 50),
        replications=40,
        A=3.0,
        truth_spec={"kind": "candidate", "index": 0},
        candidate_spec=THREE_INLINE,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = quick_config(M_values=(4, 8), loss="H", q=2.0)
        p = tmp_path / "cfg.json"
        cfg.save(p)
        assert load_config(p) == cfg

    @pytest.mark.parametrize("with_m_values", [True, False])
    def test_save_writes_fixed_bytes(self, tmp_path, with_m_values):
        # keys in field order, tuples as lists, M_values only when set
        extra = dict(M_values=(4, 8), loss="H", q=2) if with_m_values else {}
        cfg = ExperimentConfig(
            seed=7, M=4, n_values=(100, 200), replications=3, A=2,
            truth_spec={"kind": "candidate", "index": 0},
            candidate_spec={"kind": "perturbation", "n_ref": 200}, **extra,
        )
        p = tmp_path / "cfg.json"
        cfg.save(p)
        head = (
            '{\n  "seed": 7,\n  "M": 4,\n  "n_values": [\n    100,\n    200\n  ],\n'
            '  "replications": 3,\n  "A": 2.0,\n'
            '  "truth_spec": {\n    "kind": "candidate",\n    "index": 0\n  },\n'
            '  "candidate_spec": {\n    "kind": "perturbation",\n    "n_ref": 200\n  },\n'
        )
        if with_m_values:
            tail = '  "loss": "H",\n  "q": 2.0,\n  "M_values": [\n    4,\n    8\n  ]\n}\n'
        else:
            tail = '  "loss": "KL",\n  "q": 1.0\n}\n'
        assert p.read_bytes() == (head + tail).encode()

    def test_unknown_and_missing_fields(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 1, "M": 2, "bogus": True}))
        with pytest.raises(ValidationError, match="bogus"):
            load_config(p)
        p.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ValidationError, match="missing"):
            load_config(p)
        p.write_text("not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_config(p)
        p.write_text("[]")
        with pytest.raises(ValidationError, match="config must be a JSON object"):
            load_config(p)

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": -1},
            {"M": 0},
            {"n_values": ()},
            {"n_values": (0,)},
            {"replications": 0},
            {"A": 1.0},
            {"loss": "TV"},
            {"q": 0.0},
            {"M_values": (1, 4)},
            # integer fields take ints only: no bool, float or str
            {"seed": True},
            {"seed": 1.0},
            {"M": "3"},
            {"M": 3.0},
            {"M": 4.5},
            {"replications": 2.0},
            {"n_values": (50.7, "60")},
            {"n_values": (25, True)},
            {"n_values": 25},
            {"M_values": (4, 8.0)},
            # A and q are finite real numbers
            {"A": "3"},
            {"A": math.inf},
            {"A": math.nan},
            {"q": math.inf},
            {"q": True},
            {"loss": ["KL"]},
            # spec keys are checked per kind
            {"truth_spec": "uniform"},
            {"truth_spec": {"kind": "candidate", "index": 1.0}},
            {"truth_spec": {"kind": "candidate", "index": True}},
            {"truth_spec": {"kind": "candidate"}},
            {"truth_spec": {"kind": "uniform", "index": 0}},
            {"truth_spec": {"kind": "file"}},
            {"truth_spec": {"kind": "inline", "breakpoints": [0, 1]}},
            {"candidate_spec": {"kind": "perturbation", "n_reff": 10}},
            {"candidate_spec": {"kind": "perturbation", "n_ref": 10.5}},
            {"candidate_spec": {"kind": "perturbation", "n_ref": 0}},
            {"candidate_spec": {"kind": "files"}},
            {"candidate_spec": {**THREE_INLINE, "paths": []}},
            {"truth_spec": {"kind": "file", "path": 3}},
            {"candidate_spec": {"kind": "files", "paths": "a.json"}},
            {"truth_spec": {"kind": "candidate", "index": -1}},
            # finite as integers, but past the largest float
            {"A": 10**400},
            {"q": 10**400},
        ],
    )
    def test_field_validation(self, bad):
        with pytest.raises(ValidationError):
            quick_config(**bad)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"seed": -1}, "seed must be at least 0, got -1"),
            ({"M": 0}, "M must be at least 1, got 0"),
            ({"replications": 0}, "replications must be at least 1, got 0"),
            ({"n_values": ()}, "n_values must be a nonempty list"),
            ({"n_values": (5, 0)}, "n_values entry must be at least 1, got 0"),
            ({"M_values": (1, 4)}, "M_values entry must be at least 2, got 1"),
            ({"A": 1}, "A must exceed 1, got 1.0"),
            ({"q": -2.0}, "q must exceed 0, got -2.0"),
            ({"truth_spec": {"kind": "candidate", "index": -1}},
             "truth_spec.index must be at least 0, got -1"),
            ({"candidate_spec": {"kind": "perturbation", "n_ref": 0}},
             "candidate_spec.n_ref must be at least 1, got 0"),
            ({"truth_spec": {"kind": "file", "path": 3}},
             "truth_spec.path must be a str, got 3"),
            ({"candidate_spec": {"kind": "files", "paths": ["a.json", 0]}},
             "candidate_spec.paths entry must be a str, got 0"),
        ],
    )
    def test_rejection_names_the_field_and_its_rule(self, bad, message):
        with pytest.raises(ValidationError) as info:
            quick_config(**bad)
        assert str(info.value) == message


    def test_integral_reals_are_accepted(self):
        cfg = quick_config(A=3, q=2, seed=np.int64(4242))
        assert cfg.A == 3.0 and cfg.q == 2.0 and cfg.seed == 4242
        assert type(cfg.seed) is int


class TestDescriptors:
    def test_perturbation_candidates(self):
        cfg = quick_config(
            M=8, candidate_spec={"kind": "perturbation"}, A=2.0, n_values=(100, 400)
        )
        cands = build_candidates(cfg)
        assert len(cands) == 8
        assert all(validate_class(c, FunctionClass.DENSITY, 2.0) for c in cands)
        # tuned at max(n_values) unless n_ref says otherwise
        tuned = build_candidates(
            replace(cfg, candidate_spec={"kind": "perturbation", "n_ref": 100})
        )
        assert np.max(tuned[1].values) > np.max(cands[1].values)

    def test_candidate_count_must_match(self):
        with pytest.raises(ValidationError, match="M = 2"):
            build_candidates(quick_config(M=2))

    def test_unknown_kinds(self):
        with pytest.raises(ValidationError):
            build_candidates(quick_config(candidate_spec={"kind": "magic"}))
        with pytest.raises(ValidationError):
            build_truth(quick_config(truth_spec={"kind": "magic"}), [])

    def test_truth_kinds(self, tmp_path):
        cfg = quick_config()
        cands = build_candidates(cfg)
        assert build_truth(cfg, cands) is cands[0]
        u = build_truth(quick_config(truth_spec={"kind": "uniform"}), cands)
        assert np.all(u.values == 1.0)
        inline = build_truth(
            quick_config(
                truth_spec={"kind": "inline", "breakpoints": [0, 0.3, 1], "values": [2.0, 4.0 / 7.0]}
            ),
            cands,
        )
        assert inline.n_cells == 2
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"breakpoints": [0, 1], "values": [1.0]}))
        from_file = build_truth(quick_config(truth_spec={"kind": "file", "path": str(p)}), cands)
        assert np.all(from_file.values == 1.0)

    def test_candidate_files(self, tmp_path):
        paths = []
        for i, obj in enumerate(THREE_INLINE["densities"]):
            paths.append(str(tmp_path / f"c{i}.json"))
            Path(paths[-1]).write_text(json.dumps(obj))
        inline = build_candidates(quick_config())
        files = build_candidates(quick_config(candidate_spec={"kind": "files", "paths": paths}))
        assert files == inline
        with pytest.raises(ValidationError, match="supplies 2 densities but M = 3"):
            build_candidates(quick_config(candidate_spec={"kind": "files", "paths": paths[:2]}))

    def test_truth_index_out_of_range(self):
        cfg = quick_config(truth_spec={"kind": "candidate", "index": 7})
        with pytest.raises(ValidationError, match="index"):
            build_truth(cfg, build_candidates(cfg))


def _one_word_member(family, word):
    """A family member built one word at a time, as before the batched builder."""
    D, a = family.n_bumps, family.bump_height
    vals = np.ones(2 * D)
    active = np.asarray(word) == 1
    vals[0::2][active] = 1.0 + a
    vals[1::2][active] = 1.0 - a
    return PiecewiseDensity(np.arange(2 * D + 1) / (2.0 * D), vals)


def _same_bits(a, b):
    """Equal grids, values and log tables, byte for byte (so -inf for -inf)."""
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               and getattr(a, f).shape == getattr(b, f).shape
               for f in ("grid", "values", "log_table"))


class TestFamilyBuilder:
    @pytest.mark.parametrize("m", [2, 3, 4, 16, 64, 256])
    @pytest.mark.parametrize("n", [1, 7, 1000, 10**6])
    def test_the_direct_set_equals_the_refined_members(self, m, n):
        direct = experiments._perturbation_set(m, n, 2.0)
        refined = CandidateSet.from_densities(
            experiments._perturbation_candidates(m, n, 2.0), bound=2.0)
        assert _same_bits(direct, refined)
        family = choose_parameters(m, n, 2.0)
        words = build_separated_set(family.n_bumps, m).words
        old = CandidateSet.from_densities([_one_word_member(family, w) for w in words])
        assert _same_bits(direct, old)
        for j, w in enumerate(words):
            member = perturbed_density(family, w)
            assert member.values.tobytes() == direct.values[j].tobytes()
            assert member.breakpoints.tobytes() == direct.grid.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    def test_bump_height_one_gives_equal_infinite_logs(self, m):
        # a = 1 and A = 2: the members reach 0 and A, the edges of the range rule
        D = min_bump_count(m)
        family = PerturbationFamily(amplitude=float(D), bound=2.0, family_size=m)
        assert family.bump_height == 1.0
        words = build_separated_set(D, m).words
        direct = CandidateSet(*_member_values(family, words))
        refined = CandidateSet.from_densities(
            [perturbed_density(family, w) for w in words], bound=2.0)
        old = CandidateSet.from_densities([_one_word_member(family, w) for w in words])
        assert _same_bits(direct, refined) and _same_bits(direct, old)
        assert np.isneginf(direct.log_table).any() and direct.values.max() == 2.0

    @pytest.mark.parametrize("truth", [0, 5, 63])
    def test_the_harness_family_and_truth_equal_the_listed_ones(self, truth, monkeypatch):
        cfg = quick_config(M=64, A=2.0, n_values=(500, 2000),
                           truth_spec={"kind": "candidate", "index": truth},
                           candidate_spec={"kind": "perturbation"})
        candidates = build_candidates(cfg)
        listed = CandidateSet.from_densities(candidates, bound=2.0)
        listed_truth = build_truth(cfg, candidates)
        # the perturbation family is built without refining or checking members
        monkeypatch.setattr(CandidateSet, "from_densities", None)
        cset, got = experiments._candidate_set(cfg)
        assert _same_bits(cset, listed)
        assert got == listed_truth
        assert got.breakpoints.tobytes() == listed_truth.breakpoints.tobytes()
        with pytest.raises(ValidationError, match=r"index must be in 0\.\.63, got 64"):
            experiments._candidate_set(replace(cfg, truth_spec={"kind": "candidate", "index": 64}))

    def test_listed_families_keep_their_checks_and_their_truth(self):
        cfg = quick_config(A=1.5)  # 1.6 exceeds the bound
        with pytest.raises(ValidationError, match="candidate 0 is outside"):
            experiments._candidate_set(cfg)
        # the truth is the listed density, not its refinement onto the set's grid
        cfg = quick_config(truth_spec={"kind": "candidate", "index": 2})
        cset, truth = experiments._candidate_set(cfg)
        assert truth == build_candidates(cfg)[2] and truth.breakpoints.tolist() == [0.0, 1.0]
        assert cset.grid.tolist() == [0.0, 0.5, 1.0]


class TestOracleExperiment:
    def test_rows_satisfy_the_bound(self):
        report = run_oracle_experiment(quick_config())
        assert report.all_pass
        assert [r.n for r in report.rows] == [25, 50]
        for r in report.rows:
            assert r.experiment == "oracle" and r.M == 3 and r.replications == 40
            assert math.isfinite(r.mean_risk)
            assert r.excess == pytest.approx(r.mean_risk - r.oracle_risk)
            assert r.bound == pytest.approx(math.log(3) / (r.n + 1))

    def test_truth_outside_the_family(self):
        cfg = quick_config(
            truth_spec={"kind": "inline", "breakpoints": [0, 0.4, 1], "values": [1.5, 2.0 / 3.0]}
        )
        report = run_oracle_experiment(cfg)
        assert report.all_pass
        assert report.rows[0].oracle_risk > 0

    def test_all_candidates_infinitely_far_is_an_error(self):
        cfg = quick_config(
            truth_spec={"kind": "uniform"},
            candidate_spec={
                "kind": "inline",
                "densities": [
                    {"breakpoints": [0.0, 0.5, 1.0], "values": [2.0, 0.0]},
                    {"breakpoints": [0.0, 0.25, 1.0], "values": [4.0, 0.0]},
                ],
            },
            M=2,
            A=5.0,
        )
        with pytest.raises(ValidationError, match="infinite KL"):
            run_oracle_experiment(cfg)

    def test_deterministic_reports_and_csv(self, tmp_path):
        cfg = quick_config(n_values=(30,), replications=25)
        r1, r2 = run_oracle_experiment(cfg), run_oracle_experiment(cfg)
        assert r1 == r2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.to_csv(p1)
        r2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_results(self):
        cfg = quick_config(n_values=(30,), replications=25)
        assert run_oracle_experiment(cfg) != run_oracle_experiment(replace(cfg, seed=1))

    def test_standard_error_shrinks_like_root_replications(self):
        se_400 = run_oracle_experiment(quick_config(n_values=(40,), replications=400)).rows[0].se
        se_800 = run_oracle_experiment(quick_config(n_values=(40,), replications=800)).rows[0].se
        assert se_400 / se_800 == pytest.approx(math.sqrt(2.0), rel=0.2)

    def test_csv_schema(self, tmp_path):
        report = run_oracle_experiment(quick_config(n_values=(30,), replications=5))
        p = tmp_path / "r.csv"
        report.to_csv(p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert rows[1][0] == "oracle" and rows[1][-1] in {"true", "false"}
        assert len(rows) == 2


class TestYatracosExperiment:
    def test_rows_satisfy_the_bound(self):
        report = run_yatracos_experiment(quick_config(loss="L1"))
        assert report.all_pass
        r = report.rows[0]
        assert r.experiment == "yatracos"
        assert r.bound == pytest.approx(2 * r.oracle_risk + math.sqrt(math.log(3) / r.n))

    def test_selector_risk_is_a_family_distance(self):
        # with truth in the family the mean risk is a mixture of pairwise
        # L1 distances, all bounded by the family diameter
        report = run_yatracos_experiment(quick_config(loss="L1", n_values=(50,)))
        assert report.rows[0].mean_risk <= 1.2  # diameter of THREE_INLINE

    def test_single_candidate_is_deterministic(self):
        # the lone candidate is always selected, so the risk equals its
        # distance from the truth and sits inside the bound by a mile
        cfg = quick_config(
            M=1,
            truth_spec={"kind": "uniform"},
            candidate_spec={"kind": "inline", "densities": THREE_INLINE["densities"][:1]},
            replications=3,
            n_values=(20,),
        )
        report = run_yatracos_experiment(cfg)
        r = report.rows[0]
        assert r.mean_risk == r.oracle_risk == pytest.approx(0.6)
        assert r.se == 0.0 and r.passed


class TestRateStudy:
    def test_requires_perturbation_candidates(self):
        with pytest.raises(ValidationError, match="perturbation"):
            run_rate_study(quick_config(M_values=(4, 8)))

    def test_requires_two_distinct_family_sizes(self):
        cfg = quick_config(candidate_spec={"kind": "perturbation"}, A=2.0)
        with pytest.raises(ValidationError, match="family sizes"):
            run_rate_study(cfg)
        with pytest.raises(ValidationError, match="family sizes"):
            run_rate_study(replace(cfg, M_values=(8, 8)))

    def test_requires_three_distinct_sample_sizes(self):
        cfg = quick_config(
            candidate_spec={"kind": "perturbation"}, A=2.0, M_values=(4, 8)
        )
        with pytest.raises(ValidationError, match="sample sizes"):
            run_rate_study(cfg)  # quick_config has only two n values
        with pytest.raises(ValidationError, match="sample sizes"):
            run_rate_study(replace(cfg, n_values=(50, 50, 100)))

    def test_small_study_fits_unit_slope(self):
        cfg = quick_config(
            candidate_spec={"kind": "perturbation"},
            A=2.0,
            M_values=(4, 8),
            n_values=(50, 100, 200),
            replications=10,
        )
        result = run_rate_study(cfg)
        assert result.n_fit == 6 and result.dropped == 0
        assert len(result.report.rows) == 6
        assert {r.experiment for r in result.report.rows} == {"rate"}
        assert result.slope == pytest.approx(1.0, abs=0.35)
        for r in result.report.rows:
            assert r.oracle_risk == 0.0
            assert r.bound == pytest.approx(math.log(r.M) / r.n)
        # deterministic
        assert run_rate_study(cfg).slope == result.slope

    def test_power_transforms_the_slope(self):
        cfg = quick_config(
            candidate_spec={"kind": "perturbation"},
            A=2.0,
            M_values=(4, 8),
            n_values=(50, 100, 200),
            replications=8,
        )
        base = run_rate_study(cfg)
        squared = run_rate_study(replace(cfg, q=2.0))
        assert squared.slope == pytest.approx(2.0 * base.slope, rel=0.1)



class TestRateStudyBatches:
    """A cell's truths go through the engine together, in groups of
    replications that may span truths.  A cell's groups are dealt to the
    workers, and each walks the kernel alone; a lone group's kernel call
    has every worker."""

    @staticmethod
    def _config(**overrides):
        return quick_config(candidate_spec={"kind": "perturbation"}, A=2.0, M_values=(8, 4),
                            n_values=(50, 100, 200), replications=6, **overrides)

    @pytest.mark.parametrize("loss", ["KL", "H", "L1"])
    def test_reports_do_not_depend_on_workers_or_groups(self, monkeypatch, tmp_path, loss):
        cfg = self._config(loss=loss, q=2.0)

        def run(name):
            result = run_rate_study(cfg)
            result.report.to_csv(tmp_path / f"{name}.csv")
            (tmp_path / f"{name}.json").write_text(json.dumps(result.fit_dict()))
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("csv", "json")]

        # segments of 20 points give every call at least two full ones, so
        # the kernel of a lone group starts a helper for each worker past
        # the first; blocks of 2^10 entries give them several blocks each
        monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", 20)
        expected = run("default")
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", 2**10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads hand the lock over as often as they can
        try:
            # groups of 800 points (16, 8 and 4 rows) split truths of 6 replications
            for group in (experiments._GROUP_POINTS, 800):
                monkeypatch.setattr(experiments, "_GROUP_POINTS", group)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(aggregation, "_workers", lambda w=workers: w)
                    assert run(f"{group}-{workers}") == expected
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _recorded_helpers(monkeypatch):
        """Record the helper threads started, and per batched kernel call its
        n, its samples, the workers it sees and, when it sees more than one
        (it then runs alone), the helpers started during it; the process may
        run on three CPUs."""
        started, calls = [], []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        rows = experiments._aggregate_rows

        def recorded_rows(candidates, cells):
            before, free = len(started), aggregation._workers()
            try:
                return rows(candidates, cells)
            finally:
                calls.append((cells.shape[1], cells.shape[0], free,
                              len(started) - before if free > 1 else None))

        monkeypatch.setattr(aggregation, "threading",
                            SimpleNamespace(Thread=Recorded, local=threading.local))
        monkeypatch.setattr(aggregation.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(experiments, "_aggregate_rows", recorded_rows)
        return started, calls

    def test_groups_are_dealt_and_no_helper_outlives_the_study(self, monkeypatch):
        # Groups of 2400 points: at n = 50 each cell is one group, at n = 100
        # the M = 8 cell is two, at n = 200 the cells are four (M = 8) and two
        # (M = 4).  The engine starts a helper per group past the first, up
        # to two, and a dealt group's kernel sees one worker.  Segments of
        # 30 points give the lone groups 1 (n = 50) and 3 (n = 100) full
        # segments, so they start 0, 0 and 2 kernel helpers.
        started, calls = self._recorded_helpers(monkeypatch)
        monkeypatch.setattr(experiments, "_GROUP_POINTS", 2400)
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", 2**12)
        monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", 30)
        run_rate_study(self._config())
        assert sorted(calls, key=repr) == sorted(
            [(50, 48, 3, 0), (50, 24, 3, 0), (100, 24, 3, 2)]
            + [(100, 24, 1, None)] * 2 + [(200, 12, 1, None)] * 6, key=repr)
        assert len(started) == (1 + 2 + 1) + (0 + 0 + 2)
        assert not any(thread.is_alive() for thread in started)

    def test_no_kernel_helper_outlives_a_failing_study(self, monkeypatch):
        started, calls = self._recorded_helpers(monkeypatch)
        monkeypatch.setattr(aggregation, "_BLOCK_ELEMENTS", 2**10)
        monkeypatch.setattr(aggregation, "_SEGMENT_ROWS", 10)
        real, deal = aggregation._block_rows, aggregation._deal
        chunk, failed, both = threading.local(), {}, threading.Barrier(2, timeout=2)

        def tagged_deal(count, run, workers=None):
            def tagged(i):
                chunk.i = i
                return run(i)
            return deal(count, tagged, workers)

        def failing(*args):
            current = threading.current_thread()
            if current in started:
                failed[chunk.i] = started.index(current) + 1
                try:  # so that, as a rule, both helpers have taken a chunk
                    both.wait()
                except threading.BrokenBarrierError:
                    pass
                raise RuntimeError(f"helper {failed[chunk.i]} fails on chunk {chunk.i}")
            return real(*args)

        monkeypatch.setattr(aggregation, "_deal", tagged_deal)
        monkeypatch.setattr(aggregation, "_block_rows", failing)
        # the first cell is one group, whose kernel's lanes, five segments of
        # 48 replications, are dealt in six chunks to three workers; every
        # block a helper takes fails once both have taken one, and the error
        # raised is the least failing chunk's, whichever helper took it
        with pytest.raises(RuntimeError, match="^helper [12] fails on chunk [0-5]$") as got:
            run_rate_study(self._config())
        least = min(failed)
        assert str(got.value) == f"helper {failed[least]} fails on chunk {least}"
        assert calls == [(50, 48, 3, 2)]
        assert not any(thread.is_alive() for thread in started)

    def test_no_engine_helper_outlives_a_failing_study(self, monkeypatch):
        # groups of one replication, dealt to three workers; the helpers'
        # groups fail, and the error raised is the first failing group's
        started, calls = self._recorded_helpers(monkeypatch)
        monkeypatch.setattr(experiments, "_GROUP_POINTS", 50)
        rows = experiments._aggregate_rows

        def failing(candidates, cells):
            current = threading.current_thread()
            if current in started:
                raise RuntimeError(f"group of helper {started.index(current) + 1} fails")
            return rows(candidates, cells)

        monkeypatch.setattr(experiments, "_aggregate_rows", failing)
        with pytest.raises(RuntimeError, match="^group of helper [12] fails$"):
            run_rate_study(self._config())
        assert len(started) == 2
        assert not any(thread.is_alive() for thread in started)


class TestLowerboundAuditRunner:
    def test_tuned_audit_passes(self):
        report = run_lowerbound_audit(16, 1000, 2.0)
        assert report.all_pass
        assert report.family.family_size == 16 and report.sample_size == 1000
        assert report.words.size == 16 and report.words.word_length == report.family.n_bumps

    def test_infeasible_parameters_error(self):
        with pytest.raises(ValidationError):
            run_lowerbound_audit(16, 10, 1.01)


class TestRiskRow:
    def test_validates_consistency(self):
        with pytest.raises(ValidationError):
            RiskRow("x", 2, 10, 5, 1.0, -0.1, 0.5, 1.0, True)
        RiskRow("x", 2, 10, 5, 1.0, 0.1, 0.5, 1.0, True)
