"""Seeded Monte Carlo runs: risk reports and the rate regression.

Everything is reproducible — replication r at sample size n draws from a
generator seeded with (seed, n, r), so rerunning this script gives the
same numbers and byte-identical CSV files.

Run with ``python demos/04_experiment_harness.py``.
"""

import tempfile
from pathlib import Path

from densagg import ExperimentConfig, run_oracle_experiment, run_rate_study

config = ExperimentConfig(
    seed=11,
    M=8,
    n_values=(50, 200, 800),
    replications=50,
    A=2.0,
    truth_spec={"kind": "candidate", "index": 2},
    candidate_spec={"kind": "perturbation"},
)

report = run_oracle_experiment(config)
print("oracle experiment (excess = mean risk - best candidate risk):")
for row in report.rows:
    print(f"  n={row.n:>4}  excess {row.excess:.2e}  "
          f"bound {row.bound:.2e}  pass={row.passed}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report.csv"
    report.to_csv(out)
    print(f"\nCSV written to {out}:")
    print(out.read_text())

# The rate study re-tunes the worst-case family per (M, n) cell, takes the
# worst truth in each family, and regresses log(excess) on log(log(M)/n).
# A slope near 1 means the excess scales like log(M)/n.
study = run_rate_study(ExperimentConfig(
    seed=11,
    M=4,
    n_values=(100, 200, 400),
    replications=20,
    A=2.0,
    truth_spec={"kind": "candidate", "index": 0},
    candidate_spec={"kind": "perturbation"},
    M_values=(4, 16),
))
print(f"rate study: slope {study.slope:.3f} "
      f"(certified range {study.fit_dict()['slope_range']}), "
      f"fitted on {study.n_fit} cells")
