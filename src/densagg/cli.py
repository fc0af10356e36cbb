"""Command-line front end for aggregation, selection, audits and experiments.

Subcommands
-----------
``aggregate``
    Progressive-mixture density from a candidate file and a sample file.
``yatracos``
    Minimum-distance selection among candidates given a sample.
``lowerbound-audit``
    Build the worst-case family for (M, n, A) and audit its information
    bounds.
``oracle-exp`` / ``yatracos-exp`` / ``rate-study``
    The seeded Monte Carlo harnesses of :mod:`densagg.experiments`.

Contract: results go to files only; diagnostics are single lines on
stderr.  Exit codes: 0 success, 1 invalid input (bad flags, malformed
files, violated preconditions, a request larger than memory), 2 a reported
check failed (a ``pass=false`` row, a failed audit, or a rate slope outside
the certified range), 3 unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .aggregation import (CandidateSet, _check_aggregable, mixture, progressive_weights,
                          yatracos_select)
from .densities import (
    ValidationError,
    load_densities,
    load_sample,
    save_density,
)
from .experiments import (
    SLOPE_RANGE,
    load_config,
    run_lowerbound_audit,
    run_oracle_experiment,
    run_rate_study,
    run_yatracos_experiment,
)
from .lowerbound import save_separated_set

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; here 2 means "a check
    # failed", so usage problems are rerouted to the validation path.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="densagg",
        description="Aggregate step densities, select candidates, and certify risk bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="progressive-mixture density from files")
    p.add_argument("--candidates", required=True, help="JSON array of densities")
    p.add_argument("--sample", required=True, help="text file, one float per line")
    p.add_argument("--out", required=True, help="output density JSON")
    p.add_argument("--weights-out", help="optional weight-trajectory CSV")
    p.add_argument("--A", type=float, help="optional sup bound to validate candidates against")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("yatracos", help="minimum-distance candidate selection")
    p.add_argument("--candidates", required=True, help="JSON array of densities")
    p.add_argument("--sample", required=True, help="text file, one float per line")
    p.add_argument("--out", required=True, help="output JSON with the selected index")
    p.add_argument("--A", type=float, help="optional sup bound to validate candidates against")
    p.set_defaults(func=_cmd_yatracos)

    p = sub.add_parser("lowerbound-audit", help="audit the worst-case family for (M, n, A)")
    p.add_argument("--M", type=int, required=True, help="family size")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--A", type=float, required=True, help="sup bound")
    p.add_argument("--out", required=True, help="output audit-report JSON")
    p.add_argument("--set-out", help="optional separated-set dump (one 0/1 word per line)")
    p.set_defaults(func=_cmd_lowerbound_audit)

    for name, runner in (
        ("oracle-exp", run_oracle_experiment),
        ("yatracos-exp", run_yatracos_experiment),
    ):
        p = sub.add_parser(name, help=f"run the {name.replace('-exp', '')} experiment")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output report CSV")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(func=_cmd_experiment, runner=runner)

    p = sub.add_parser("rate-study", help="fit the excess-risk rate across (M, n)")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output report CSV")
    p.add_argument("--fit-out", required=True, help="output JSON with slope/intercept")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_rate_study)

    return parser


def _load_candidate_set(ns) -> CandidateSet:
    return CandidateSet.from_densities(load_densities(ns.candidates), bound=ns.A)


def _cmd_aggregate(ns) -> int:
    cset = _load_candidate_set(ns)
    _check_aggregable(cset)
    x = load_sample(ns.sample)
    trajectory = progressive_weights(cset, x)
    save_density(mixture(cset, trajectory.averaged), ns.out)
    if ns.weights_out:
        trajectory.to_csv(ns.weights_out)
    return 0


def _cmd_yatracos(ns) -> int:
    cset = _load_candidate_set(ns)
    x = load_sample(ns.sample)
    index = yatracos_select(cset, x)
    Path(ns.out).write_text(
        json.dumps({"selected_index": index, "M": cset.size, "n": int(x.size)}) + "\n"
    )
    return 0


def _cmd_lowerbound_audit(ns) -> int:
    report = run_lowerbound_audit(ns.M, ns.n, ns.A)
    report.save(ns.out)
    if ns.set_out:
        save_separated_set(report.words, ns.set_out)
    if not report.all_pass:
        m = report.words.size
        print(f"audit failed: {report.n_failed} of {m * (m + 1) // 2} checks", file=sys.stderr)
        return 2
    return 0


def _config_from(ns):
    config = load_config(ns.config)
    if ns.seed is not None:
        config = replace(config, seed=ns.seed)
    return config


def _report_exit(report, problems=()) -> int:
    """2, after one stderr line naming the failed rows and ``problems``; else 0."""
    failed = sum(not r.passed for r in report.rows)
    if failed:
        problems = [f"{failed} of {len(report.rows)} report rows failed", *problems]
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 2
    return 0


def _cmd_experiment(ns) -> int:
    report = ns.runner(_config_from(ns))
    report.to_csv(ns.out)
    return _report_exit(report)


def _cmd_rate_study(ns) -> int:
    result = run_rate_study(_config_from(ns))
    result.report.to_csv(ns.out)
    Path(ns.fit_out).write_text(json.dumps(result.fit_dict(), indent=2) + "\n")
    slope = () if result.slope_in_range else (
        f"fitted slope {result.slope:.4f} outside [{SLOPE_RANGE[0]}, {SLOPE_RANGE[1]}]",)
    return _report_exit(result.report, slope)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return ns.func(ns)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
