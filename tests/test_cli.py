"""End-to-end command tests driving ``densagg.cli.main`` with argv lists."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densagg import (
    CandidateSet,
    aggregate,
    audit_hypotheses,
    build_separated_set,
    choose_parameters,
    load_density,
    load_separated_set,
    load_sample,
)
from densagg import cli
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

    @pytest.mark.parametrize("bound", ["inf", "-inf", "nan"])
    def test_non_finite_sup_bound_exits_1(self, workdir, capsys, bound):
        code = main([
            "aggregate",
            "--candidates", str(workdir / "candidates.json"),
            "--sample", str(workdir / "sample.txt"),
            "--out", str(workdir / "agg.json"),
            f"--A={bound}",
        ])
        assert code == 1
        assert "must exceed 1" in capsys.readouterr().err
        assert not (workdir / "agg.json").exists()

    def test_single_candidate_is_rejected(self, workdir, capsys):
        (workdir / "one.json").write_text(json.dumps(TWO_STEPS[:1]))
        code = main([
            "aggregate",
            "--candidates", str(workdir / "one.json"),
            "--sample", str(workdir / "sample.txt"),
            "--out", str(workdir / "agg.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: aggregation needs at least two candidates\n"
        assert not (workdir / "agg.json").exists()

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


@pytest.mark.parametrize("density", [
    {"breakpoints": "ab", "values": [1.0]},
    {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, [1.0]]},
    {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, "x"]},
])
def test_non_numeric_candidate_file_exits_1(workdir, capsys, density):
    (workdir / "bad.json").write_text(json.dumps([TWO_STEPS[0], density]))
    code = main([
        "aggregate",
        "--candidates", str(workdir / "bad.json"),
        "--sample", str(workdir / "sample.txt"),
        "--out", str(workdir / "agg.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("spec", ["candidate_spec", "truth_spec"])
def test_non_numeric_inline_density_exits_1(tmp_path, capsys, spec):
    bad = {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, "x"]}
    override = ({"candidate_spec": {"kind": "inline", "densities": [TWO_STEPS[0], bad]}}
                if spec == "candidate_spec" else {"truth_spec": {"kind": "inline", **bad}})
    code = main(["oracle-exp", "--config", str(oracle_config(tmp_path, **override)),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


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

    @pytest.mark.parametrize("bound", ["inf", "-inf", "nan"])
    def test_non_finite_sup_bound_exits_1(self, tmp_path, capsys, bound):
        out = tmp_path / "audit.json"
        code = main([
            "lowerbound-audit", "--M", "16", "--n", "1000", f"--A={bound}",
            "--out", str(out),
        ])
        assert code == 1
        assert "must exceed 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [10**308, 10**309], ids=["1e308", "1e309"])
    def test_huge_sample_size_exits_1(self, tmp_path, capsys, n):
        # 10^309 overflowed the feasibility gate; 10^308 passed it and
        # overflowed the audit's n * D
        code = main([
            "lowerbound-audit", "--M", "16", "--n", str(n), "--A", "2",
            "--out", str(tmp_path / "audit.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: sample size too large")

    def test_failed_audit_counts_failures_without_naming_every_check(
            self, tmp_path, capsys, monkeypatch):
        # six-fold amplitude pushes the 15 nonzero words past the KL budget
        family = choose_parameters(16, 1000, 2.0)
        loud = replace(family, amplitude=6 * family.amplitude)
        report = audit_hypotheses(loud, build_separated_set(family.n_bumps, 16), 1000)
        monkeypatch.setattr(cli, "run_lowerbound_audit", lambda M, n, A: report)
        code = main([
            "lowerbound-audit", "--M", "16", "--n", "1000", "--A", "2",
            "--out", str(tmp_path / "audit.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "audit failed: 15 of 136 checks\n"
        assert "checks" not in report.__dict__

    def test_tuned_family_at_large_n_passes(self, tmp_path):
        # Every check holds here; the direct closed forms cancelled and
        # failed 120 of the 136 checks.
        code = main([
            "lowerbound-audit", "--M", "16", "--n", str(4 * 10**14), "--A", "2",
            "--out", str(tmp_path / "audit.json"),
        ])
        assert code == 0

    def test_sample_size_of_ten_to_the_nineteen_stays_exact(self, tmp_path):
        out = tmp_path / "audit.json"
        code = main([
            "lowerbound-audit", "--M", "16", "--n", str(10**19), "--A", "2",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["n"] == 10**19


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
            {"A": 10**400},  # exited 3: int too large to convert to float
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

    def study(self, tmp_path, q):
        # a high power underflows the worst-case mean loss to 0 at n = 1600
        cfg = oracle_config(tmp_path, seed=1, M=4, M_values=[4, 16],
                            n_values=[100, 400, 1600], replications=4,
                            candidate_spec={"kind": "perturbation"}, q=q)
        out, fit = tmp_path / "rate.csv", tmp_path / "fit.json"
        return main(["rate-study", "--config", str(cfg), "--out", str(out),
                     "--fit-out", str(fit)]), out, fit

    def test_unusable_cells_are_dropped_from_the_fit(self, tmp_path, capsys):
        code, out, fit = self.study(tmp_path, q=60.0)
        assert code == 2
        err = capsys.readouterr().err
        # both failures on the one diagnostic line
        assert err.startswith("2 of 6 report rows failed; fitted slope ")
        assert err.count("\n") == 1
        obj = json.loads(fit.read_text())
        assert list(obj) == ["slope", "intercept", "n_fit", "dropped", "slope_range",
                             "slope_in_range"]
        assert obj["dropped"] == 2 and obj["n_fit"] == 4
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert obj["n_fit"] + obj["dropped"] == len(rows)
        assert [r["pass"] for r in rows if r["n"] == "1600"] == ["false", "false"]
        assert all(r["pass"] == "true" for r in rows if r["n"] != "1600")

    def test_fewer_than_two_usable_cells_exits_1(self, tmp_path, capsys):
        code, out, fit = self.study(tmp_path, q=90.0)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: rate study has fewer than two usable cells; cannot fit a slope\n")
        assert not fit.exists()

    def test_missing_family_sizes_exits_1(self, tmp_path):
        cfg = oracle_config(tmp_path, candidate_spec={"kind": "perturbation"},
                            M=4)
        code = main(["rate-study", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv"),
                     "--fit-out", str(tmp_path / "f.json")])
        assert code == 1


class TestBadInputExits1:
    @pytest.mark.parametrize("n", [10**20, 2**61], ids=["1e20", "2^61"])
    def test_sample_larger_than_numpy_can_hold(self, tmp_path, capsys, n):
        # 10^20 points exceed numpy's largest dimension; 2^61 points fit
        # it, but their 2^64 bytes do not fit a signed machine word
        code = main(["oracle-exp", "--config", str(oracle_config(tmp_path, n_values=[n])),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sample_that_does_not_fit_in_memory(self, tmp_path):
        pytest.importorskip("resource")
        if not sys.platform.startswith("linux"):
            pytest.skip("RLIMIT_AS is enforced on Linux only")
        cfg = oracle_config(tmp_path, n_values=[10**11])  # 745 GiB of points
        # the address-space limit acts on the child process only
        child = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({2**31}, {2**31}))\n"
                 "from densagg.cli import main\n"
                 f"raise SystemExit(main(['oracle-exp', '--config', {str(cfg)!r}, "
                 f"'--out', {str(tmp_path / 'r.csv')!r}]))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: Unable to allocate")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("which", ["config", "candidates", "sample"])
    def test_file_that_is_not_utf8(self, workdir, capsys, which):
        bad = workdir / f"{which}.bin"
        bad.write_bytes(b"\xff\xfe0.5\n")
        if which == "config":
            argv = ["oracle-exp", "--config", str(bad), "--out", str(workdir / "r.csv")]
        else:
            files = {"candidates": str(workdir / "candidates.json"),
                     "sample": str(workdir / "sample.txt"), which: str(bad)}
            argv = ["aggregate", "--candidates", files["candidates"],
                    "--sample", files["sample"], "--out", str(workdir / "agg.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and err.count("\n") == 1


_COMMANDS = ["aggregate", "yatracos", "lowerbound-audit", "oracle-exp", "yatracos-exp",
             "rate-study"]


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

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["--he"], ["--help", "aggregate"], ["-x", "aggregate"],
        ["--", "aggregate"], ["frobnicate"], ["frobnicate", "--help"], ["aggregate", "--bogus"],
        ["aggregate", "--candidates"], ["yatracos", "--A", "two"],
        ["lowerbound-audit", "--M", "four", "--n", "1", "--A", "2", "--out", "x.json"],
        ["yatracos-exp", "--config", "c.json", "--out", "o.csv", "--seed", "1.5"],
        ["rate-study", "--config", "c.json", "--out", "o.csv"],
        *([name] for name in _COMMANDS), *([name, "--help"] for name in _COMMANDS),
    ])
    def test_help_and_usage_errors_match_a_full_build(self, argv, capsys, monkeypatch):
        # a call builds only its own subcommand's arguments, or all of them
        # when its first token is an option; nothing it prints may change
        def run():
            try:
                return main(list(argv))
            except SystemExit as exc:
                return f"SystemExit({exc.code})"

        got = run(), *capsys.readouterr()
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
        assert (run(), *capsys.readouterr()) == got
        assert got[0] in (1, "SystemExit(0)")

    def test_a_subcommand_builds_no_other_arguments(self):
        parser = cli._build_parser("rate-study")
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        assert list(subparsers) == list(_COMMANDS)
        for name, sub in subparsers.items():
            dests = [a.dest for a in sub._actions if a.dest != "help"]
            assert dests == (["config", "out", "fit_out", "seed"] if name == "rate-study"
                             else [])


def _mostly(valid, junk):
    """``valid``, or ``junk`` one time in five."""
    return st.integers(0, 4).flatmap(lambda k: junk if k == 0 else valid)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
#: For fields whose value sets no size: also integers past the largest float.
_JUNK_OR_HUGE = _JUNK | st.sampled_from([10**400, -10**400])
_FLAG_JUNK = st.one_of(
    st.integers(-3, 16).map(str), st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "x", ""]),
)
_DENSITIES = [*TWO_STEPS, {"breakpoints": [0.0, 1.0], "values": [1.0]},
              {"breakpoints": [0.0, 0.25, 1.0], "values": [4.0, 0.0]}]
_BAD_DENSITY = st.fixed_dictionaries({
    "breakpoints": st.lists(st.floats() | st.floats(0.0, 1.0) | _JUNK, max_size=4),
    "values": st.lists(st.floats() | _JUNK, max_size=3),
}) | _JUNK
_DENSITY = _mostly(st.sampled_from(_DENSITIES), _BAD_DENSITY)


@st.composite
def _config(draw, files: Path, rate: bool):
    """A config object for up to two faults: a field or descriptor key
    missing, junk or one too many.  Otherwise it is valid, so that most runs
    get past the config checks; ``rate`` makes it valid for the rate study."""
    path = _mostly(st.sampled_from(["d0.json", "d1.json", "d2.json", "d3.json"]),
                   st.sampled_from(["garbage.json", "binary.bin", "missing.json"]),
                   ).map(lambda name: str(files / name))
    m = draw(st.integers(2, 16))
    kind = "perturbation" if rate else draw(st.sampled_from(["perturbation", "files",
                                                             "inline"]))
    if kind == "perturbation":
        candidates = draw(st.fixed_dictionaries(
            {"kind": st.just(kind)}, optional={"n_ref": st.integers(1, 100)}))
    elif kind == "files":
        candidates = {"kind": kind, "paths": draw(st.lists(path, min_size=m, max_size=m))}
    else:
        candidates = {"kind": kind, "densities": draw(st.lists(
            st.sampled_from(_DENSITIES), min_size=m, max_size=m))}
    truth = draw(st.sampled_from([
        {"kind": "candidate", "index": draw(st.integers(0, m - 1))},
        {"kind": "uniform"},
        {"kind": "file", "path": draw(path)},
        {"kind": "inline", "breakpoints": [0.0, 0.5, 1.0], "values": [1.5, 0.5]},
    ]))
    config = draw(st.fixed_dictionaries({
        "seed": st.integers(0, 2**64),
        "M": st.just(m),
        "n_values": st.lists(st.integers(1, 100), min_size=3 if rate else 1, max_size=4,
                             unique=True),
        "replications": st.integers(1, 3),
        "A": st.sampled_from([1.5, 2.0, 3.0]) | st.floats(1.0, 4.0, exclude_min=True),
        "truth_spec": st.just(truth),
        "candidate_spec": st.just(candidates),
        **({"M_values": st.lists(st.integers(2, 16), min_size=2, max_size=3, unique=True)}
           if rate else {}),
    }, optional={
        "loss": st.sampled_from(["KL", "H", "L1"]),
        "q": st.floats(0.0, 100.0, exclude_min=True),
    }))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from([d for d in (config, config.get("truth_spec"),
                                                  config.get("candidate_spec"))
                                      if isinstance(d, dict)]))
        key = draw(st.sampled_from([*where, "bogus"]))
        if draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = draw(_JUNK_OR_HUGE if key in ("seed", "A", "q") else _JUNK)
    return config


class TestMisuse:
    """Random inputs to ``main`` exit 0, 1 or 2, never 3, and a nonzero exit
    writes one stderr line.

    Each input is valid in most of its parts, so that runs get past the
    first check: configs, candidate files, samples and flags each have a
    junk value now and then.  Sizes stay small (M <= 16, n <= 100, at most
    3 replications), so a run takes milliseconds.  Perturbation families
    past M = 512 take a minute or more to build; they lie outside this
    test's range and are not covered by it.
    """

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("misuse")
        for i, obj in enumerate(_DENSITIES):
            (root / f"d{i}.json").write_text(json.dumps(obj))
        (root / "garbage.json").write_text("{not json")
        (root / "binary.bin").write_bytes(b"\xff\xfe0.5\n")
        return root

    def run(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        if code == 1:
            assert err.startswith("error: "), err

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(),
           command=st.sampled_from(["oracle-exp", "yatracos-exp", "rate-study"]))
    def test_random_configs(self, files, data, command):
        cfg = files / "config.json"
        config = data.draw(_config(files, command == "rate-study"), label="config")
        cfg.write_text(json.dumps(config))
        self.run([command, "--config", str(cfg), "--out", str(files / "r.csv"),
                  *(["--fit-out", str(files / "f.json")] if command == "rate-study" else [])])

    @settings(max_examples=120, deadline=None)
    @given(command=st.sampled_from(["aggregate", "yatracos"]),
           candidates=_mostly(
               st.lists(_DENSITY, min_size=2, max_size=4).map(lambda d: json.dumps(d).encode()),
               st.binary(max_size=30) | _JUNK.map(lambda j: json.dumps(j).encode())),
           sample=_mostly(
               st.lists(st.floats(0.0, 1.0), max_size=20),
               st.lists(st.floats() | st.sampled_from(["nan", "inf", "x", ""]), max_size=20),
           ).map(lambda points: "\n".join(map(str, points)).encode()) | st.binary(max_size=30),
           bound=st.none() | _mostly(st.floats(1.0, 4.0, exclude_min=True).map(repr),
                                     _FLAG_JUNK))
    def test_random_candidate_files_and_samples(self, files, command, candidates, sample,
                                                bound):
        (files / "cands.json").write_bytes(candidates)
        (files / "sample.txt").write_bytes(sample)
        self.run([command, "--candidates", str(files / "cands.json"),
                  "--sample", str(files / "sample.txt"), "--out", str(files / "out.json"),
                  *([f"--A={bound}"] if bound is not None else [])])

    @settings(max_examples=80, deadline=None)
    @given(m=_mostly(st.integers(2, 16).map(str), _FLAG_JUNK),
           n=_mostly(st.integers(1, 100).map(str), _FLAG_JUNK),
           bound=_mostly(st.floats(1.0, 4.0, exclude_min=True).map(repr), _FLAG_JUNK))
    def test_random_audit_flags(self, files, m, n, bound):
        self.run(["lowerbound-audit", f"--M={m}", f"--n={n}", f"--A={bound}",
                  "--out", str(files / "audit.json"), "--set-out", str(files / "words.txt")])


def test_no_command_imports_numpy_ma(tmp_path):
    """Every subcommand runs in one fresh interpreter without loading
    ``numpy.ma``, which no densagg code uses (``np.union1d`` loads it)."""
    cands = [*TWO_STEPS, {"breakpoints": [0.0, 0.25, 1.0], "values": [0.4, 1.2]}]
    (tmp_path / "cands.json").write_text(json.dumps(cands))
    (tmp_path / "sample.txt").write_text("0.1\n0.2\n0.7\n0.3\n0.45\n")
    inline = {"kind": "inline", "densities": cands}
    perturbation = {"kind": "perturbation"}
    configs = {
        "oracle": {"M": 3, "candidate_spec": inline},
        "selector": {"M": 3, "candidate_spec": inline},
        "selector-family": {"M": 8, "candidate_spec": perturbation},
        "rate": {"M": 2, "M_values": [2, 4], "n_values": [20, 40, 80], "loss": "H", "q": 2,
                 "candidate_spec": perturbation},
    }
    for name, cfg in configs.items():
        cfg = {"seed": 5, "n_values": [20, 40], "replications": 3, "A": 2.0,
               "truth_spec": {"kind": "candidate", "index": 1}, **cfg}
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    runs = [
        ["aggregate", "--candidates", "cands.json", "--sample", "sample.txt",
         "--out", "agg.json", "--weights-out", "weights.csv"],
        ["yatracos", "--candidates", "cands.json", "--sample", "sample.txt", "--out", "sel.json"],
        ["lowerbound-audit", "--M", "4", "--n", "100", "--A", "2", "--out", "audit.json",
         "--set-out", "words.txt"],
        ["oracle-exp", "--config", "oracle.json", "--out", "oracle.csv"],
        ["yatracos-exp", "--config", "selector.json", "--out", "selector.csv"],
        ["yatracos-exp", "--config", "selector-family.json", "--out", "family.csv"],
        ["rate-study", "--config", "rate.json", "--out", "rate.csv", "--fit-out", "fit.json"],
    ]
    child = ("import json, sys\nfrom densagg.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(runs), proc.stderr
    assert not loaded


def load_density_obj(obj):
    from densagg.densities import _density_from_obj

    return _density_from_obj(obj, "test")
