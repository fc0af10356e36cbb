"""Smoke test of the benchmark itself, at reduced workload sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root (the
repository's own test run does not collect it).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers, per_layer_metric_units, summarize  # noqa: E402

#: The layer each workload's timed call must reach.
ENTRY = {
    "rate_study": "aggregation.progressive_weights",
    "aggregate_large": "aggregation.progressive_weights",
    "selector_exp": "aggregation.yatracos_class",
    "audit": "lowerbound.audit_hypotheses",
}


def _run(name, out, trace):
    out.mkdir()
    prepared = workloads.prepare(name, 3, out, small=True)
    if trace:
        with Tracer() as tracer:
            code = prepared.run()
    else:
        tracer, code = None, prepared.run()
    prepared.save()
    assert code == 0
    return tracer


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_outputs_match_untraced(name, tmp_path):
    _run(name, tmp_path / "plain", trace=False)
    tracer = _run(name, tmp_path / "traced", trace=True)
    assert installed_wrappers() == []
    for fname in workloads.OUTPUT_FILES[name]:
        assert (tmp_path / "plain" / fname).read_bytes() == \
            (tmp_path / "traced" / fname).read_bytes()
    metrics, covered = summarize(tracer.spans)
    assert set(metrics) == set(per_layer_metric_units())
    assert metrics[f"{ENTRY[name]}.calls"] >= 1
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ENTRY.values())
    assert covered > 0
    workloads.output_numbers(name, tmp_path / "traced")


def test_tracer_rebinds_everywhere_and_restores_after_errors():
    from densagg import aggregation, cli, experiments

    before = (cli.main, experiments.LOSSES["KL"], experiments.aggregate,
              aggregation.CandidateSet.__dict__["from_densities"])
    cset = aggregation.CandidateSet.from_densities(
        [aggregation.PiecewiseDensity.uniform()] * 2)
    with pytest.raises(aggregation.ValidationError):
        with Tracer() as tracer:
            bound = installed_wrappers()
            aggregation.mixture(cset, [2.0, -1.0])
    assert {"densagg.cli.main", "densagg.experiments.aggregate",
            "densagg.experiments.LOSSES['KL']",
            "densagg.aggregation.CandidateSet.from_densities"} <= set(bound)
    assert installed_wrappers() == []
    assert before == (cli.main, experiments.LOSSES["KL"], experiments.aggregate,
                      aggregation.CandidateSet.__dict__["from_densities"])
    metrics, _ = summarize(tracer.spans)
    assert metrics["aggregation.mixture.calls"] == 1
    assert metrics["aggregation.mixture.errors"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if command[0] == "python3" else command[0], *command[1:],
         "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_output_checks_catch_deviation_and_changed_bytes(tmp_path):
    _run("audit", tmp_path / "first", trace=False)
    numbers, _ = workloads.output_numbers("audit", tmp_path / "first")
    shutil.copytree(tmp_path / "first", tmp_path / "same")
    rep = {"problems": []}
    run.check_outputs("audit", rep, tmp_path / "same", tmp_path / "first", numbers)
    assert rep == {"problems": [], "result_dev": 0.0}

    off = list(numbers)
    off[-1] *= 1 + 1e-6
    rep = {"problems": []}
    run.check_outputs("audit", rep, tmp_path / "same", tmp_path / "first", off)
    assert rep["result_dev"] > 0 and len(rep["problems"]) == 1

    audit = tmp_path / "same" / "audit.json"
    audit.write_text(audit.read_text().replace('"all_pass": true', '"all_pass": false'))
    rep = {"problems": []}
    run.check_outputs("audit", rep, tmp_path / "same", tmp_path / "first", numbers)
    assert any("all_pass" in p for p in rep["problems"])
    assert any("differs" in p for p in rep["problems"])


def test_overlong_repetition_is_killed_and_fails(tmp_path):
    rep = run.run_child("audit", 0, False, tmp_path / "rep", timeout=0.2)
    assert rep["timed_out"] and rep["problems"]
