"""Monte Carlo harnesses: configs, reports, determinism, and the bounds."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from densagg import (
    CSV_HEADER,
    ExperimentConfig,
    PiecewiseDensity,
    RiskRow,
    ValidationError,
    build_candidates,
    build_truth,
    kl_divergence,
    load_config,
    run_lowerbound_audit,
    run_oracle_experiment,
    run_rate_study,
    run_yatracos_experiment,
    validate_class,
)
from densagg.densities import FunctionClass

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
        ],
    )
    def test_field_validation(self, bad):
        with pytest.raises(ValidationError):
            quick_config(**bad)


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

    def test_truth_index_out_of_range(self):
        cfg = quick_config(truth_spec={"kind": "candidate", "index": 7})
        with pytest.raises(ValidationError, match="index"):
            build_truth(cfg, build_candidates(cfg))


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


class TestLowerboundAuditRunner:
    def test_tuned_audit_passes(self):
        report = run_lowerbound_audit(16, 1000, 2.0)
        assert report.all_pass
        assert report.family_size == 16 and report.sample_size == 1000

    def test_infeasible_parameters_error(self):
        with pytest.raises(ValidationError):
            run_lowerbound_audit(16, 10, 1.01)


class TestRiskRow:
    def test_validates_consistency(self):
        with pytest.raises(ValidationError):
            RiskRow("x", 2, 10, 5, 1.0, -0.1, 0.5, 0.5, 1.0, True)
        with pytest.raises(ValidationError):
            RiskRow("x", 2, 10, 5, 1.0, 0.1, 0.5, 0.9, 1.0, True)
        RiskRow("x", 2, 10, 5, 1.0, 0.1, 0.5, 0.5, 1.0, True)
