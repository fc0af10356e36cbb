"""End-to-end command tests driving ``densagg.cli.main`` with argv lists."""

import csv
import json
import math

import numpy as np
import pytest

from densagg import (
    CandidateSet,
    aggregate,
    load_density,
    load_separated_set,
    load_sample,
)
from densagg.cli import main

TWO_STEPS = [
    {"breakpoints": [0.0, 0.5, 1.0], "values": [1.9, 0.1]},
    {"breakpoints": [0.0, 0.5, 1.0], "values": [0.1, 1.9]},
]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "candidates.json").write_text(json.dumps(TWO_STEPS))
    (tmp_path / "sample.txt").write_text("0.1\n0.2\n0.7\n0.3\n")
    return tmp_path


def oracle_config(tmp_path, **overrides):
    cfg = {
        "seed": 4242,
        "M": 2,
        "n_values": [25],
        "replications": 30,
        "A": 2.0,
        "truth_spec": {"kind": "candidate", "index": 0},
        "candidate_spec": {"kind": "inline", "densities": TWO_STEPS},
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


class TestAggregateCommand:
    def test_matches_the_library(self, workdir):
        out = workdir / "agg.json"
        weights = workdir / "weights.csv"
        code = main([
            "aggregate",
            "--candidates", str(workdir / "candidates.json"),
            "--sample", str(workdir / "sample.txt"),
            "--out", str(out),
            "--weights-out", str(weights),
        ])
        assert code == 0
        cset = CandidateSet.from_densities(
            [load_density_obj(o) for o in TWO_STEPS]
        )
        expected = aggregate(cset, load_sample(workdir / "sample.txt"))
        got = load_density(out)
        np.testing.assert_array_equal(got.values, expected.values)
        with open(weights, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "w_1", "w_2"]
        assert len(rows) == 6  # header + weights after 0..4 points

    def test_sup_bound_flag_rejects_out_of_class_candidates(self, workdir, capsys):
        code = main([
            "aggregate",
            "--candidates", str(workdir / "candidates.json"),
            "--sample", str(workdir / "sample.txt"),
            "--out", str(workdir / "agg.json"),
            "--A", "1.5",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_single_candidate_is_rejected(self, workdir):
        (workdir / "one.json").write_text(json.dumps(TWO_STEPS[:1]))
        code = main([
            "aggregate",
            "--candidates", str(workdir / "one.json"),
            "--sample", str(workdir / "sample.txt"),
            "--out", str(workdir / "agg.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("garbage", ["{not json", '{"wrong": 1}', "[]"])
    def test_malformed_candidate_file(self, workdir, garbage):
        (workdir / "bad.json").write_text(garbage)
        code = main([
            "aggregate",
            "--candidates", str(workdir / "bad.json"),
            "--sample", str(workdir / "sample.txt"),
            "--out", str(workdir / "agg.json"),
        ])
        assert code == 1

    def test_missing_sample_file(self, workdir):
        code = main([
            "aggregate",
            "--candidates", str(workdir / "candidates.json"),
            "--sample", str(workdir / "nope.txt"),
            "--out", str(workdir / "agg.json"),
        ])
        assert code == 1


class TestYatracosCommand:
    def test_selects_the_likely_candidate(self, workdir):
        out = workdir / "sel.json"
        code = main([
            "yatracos",
            "--candidates", str(workdir / "candidates.json"),
            "--sample", str(workdir / "sample.txt"),
            "--out", str(out),
        ])
        assert code == 0
        obj = json.loads(out.read_text())
        # every sample point is below 0.5, where candidate 0 has mass 0.95
        assert obj == {"selected_index": 0, "M": 2, "n": 4}


@pytest.mark.parametrize("command", ["aggregate", "yatracos"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1.5"])
def test_sample_with_a_bad_point_exits_1(workdir, capsys, command, bad):
    (workdir / "bad.txt").write_text(f"0.1\n{bad}\n0.7\n")
    code = main([
        command,
        "--candidates", str(workdir / "candidates.json"),
        "--sample", str(workdir / "bad.txt"),
        "--out", str(workdir / "out.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: sample points must be finite")
    assert not (workdir / "out.json").exists()


class TestLowerboundAuditCommand:
    def test_writes_report_and_word_set(self, tmp_path):
        out = tmp_path / "audit.json"
        words_out = tmp_path / "words.txt"
        code = main([
            "lowerbound-audit", "--M", "4", "--n", "200", "--A", "2.0",
            "--out", str(out), "--set-out", str(words_out),
        ])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["M"] == 4 and obj["n"] == 200 and obj["A"] == 2.0
        assert obj["D"] == 16 and obj["all_pass"] is True
        assert len(obj["checks"]) == 4 + math.comb(4, 2)
        words = load_separated_set(words_out)
        assert words.size == 4 and words.word_length == 16

    def test_infeasible_parameters(self, tmp_path, capsys):
        code = main([
            "lowerbound-audit", "--M", "16", "--n", "10", "--A", "1.01",
            "--out", str(tmp_path / "audit.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommands:
    def test_oracle_exp_writes_passing_report(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["oracle-exp", "--config", str(oracle_config(tmp_path)),
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "experiment" and rows[1][0] == "oracle"
        assert rows[1][-1] == "true"

    def test_oracle_exp_is_byte_deterministic(self, tmp_path):
        cfg = oracle_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["oracle-exp", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["oracle-exp", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_the_report(self, tmp_path):
        cfg = oracle_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["oracle-exp", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["oracle-exp", "--config", str(cfg), "--out", str(b),
                     "--seed", "7"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_failed_row_exits_2(self, tmp_path, capsys):
        # one replication of one point cannot meet the oracle bound here
        cfg = oracle_config(tmp_path, seed=4, n_values=[1], replications=1)
        out = tmp_path / "report.csv"
        code = main(["oracle-exp", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "1 of 1 report rows failed" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][-1] == "false"  # the report is still written

    def test_yatracos_exp(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["yatracos-exp", "--config", str(oracle_config(tmp_path)),
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "yatracos" and rows[1][-1] == "true"

    def test_bad_config_exits_1(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"seed": 1}))
        code = main(["oracle-exp", "--config", str(p), "--out",
                     str(tmp_path / "r.csv")])
        assert code == 1
        assert "missing" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "bad",
        [
            {"M": "2"},
            {"M": 4.5, "candidate_spec": {"kind": "perturbation"}},
            {"n_values": [50.7, "60"]},
            {"M": 4, "candidate_spec": {"kind": "perturbation", "n_reff": 10}},
        ],
    )
    def test_mistyped_config_exits_1(self, tmp_path, capsys, bad):
        code = main(["oracle-exp", "--config", str(oracle_config(tmp_path, **bad)),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestRateStudyCommand:
    def rate_config(self, tmp_path, **overrides):
        return oracle_config(
            tmp_path,
            M=4,
            M_values=[4, 8],
            n_values=[50, 100, 200],
            replications=5,
            candidate_spec={"kind": "perturbation"},
            **overrides,
        )

    def test_writes_fit_and_report(self, tmp_path):
        out, fit = tmp_path / "rate.csv", tmp_path / "fit.json"
        code = main(["rate-study", "--config", str(self.rate_config(tmp_path)),
                     "--out", str(out), "--fit-out", str(fit)])
        assert code == 0
        obj = json.loads(fit.read_text())
        assert obj["slope_range"] == [0.5, 1.5]
        assert obj["slope_in_range"] is True
        assert obj["n_fit"] == 6 and obj["dropped"] == 0
        assert 0.5 <= obj["slope"] <= 1.5
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) == 7  # header + 2*3 cells

    def test_out_of_range_slope_exits_2(self, tmp_path, capsys):
        # cubing the loss triples the slope, pushing it out of range while
        # every row still passes — isolating the slope check
        out, fit = tmp_path / "rate.csv", tmp_path / "fit.json"
        code = main(["rate-study",
                     "--config", str(self.rate_config(tmp_path, q=3.0)),
                     "--out", str(out), "--fit-out", str(fit)])
        assert code == 2
        assert "fitted slope" in capsys.readouterr().err
        obj = json.loads(fit.read_text())
        assert obj["slope_in_range"] is False and obj["slope"] > 1.5

    def test_missing_family_sizes_exits_1(self, tmp_path):
        cfg = oracle_config(tmp_path, candidate_spec={"kind": "perturbation"},
                            M=4)
        code = main(["rate-study", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv"),
                     "--fit-out", str(tmp_path / "f.json")])
        assert code == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["aggregate"],  # missing required flags
            ["lowerbound-audit", "--M", "four", "--n", "1", "--A", "2",
             "--out", "x.json"],
        ],
    )
    def test_bad_usage_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "aggregate" in capsys.readouterr().out


def load_density_obj(obj):
    from densagg.densities import _density_from_obj

    return _density_from_obj(obj, "test")
