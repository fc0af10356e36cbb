"""The four benchmark workloads: inputs from a seed, the timed call, the outputs.

Why these four (each stresses layers the others do not):

* ``rate_study`` — ``densagg rate-study`` on the acceptance criterion-7
  config: 10,080 small ``aggregate`` calls, so per-call overhead is the cost.
* ``aggregate_large`` — one library ``aggregate`` call on a 10^6-point sample
  from the M=64 worst-case family, then ``kl_divergence``: the same layers in
  the opposite regime, where each (n+1)×M array (~0.5 GB) exceeds the caches.
* ``selector_exp`` — ``densagg yatracos-exp`` at M=64: the only workload that
  runs the minimum-distance selector, and it never calls aggregation.
* ``audit`` — ``densagg lowerbound-audit --M 256 --n 1000 --A 2``: separated
  set and hypothesis audit only; nothing is sampled or aggregated.  The audit
  has no random input, so its inputs are the same for every seed.

``prepare`` runs in the child process, which has ``densagg`` importable;
``output_numbers`` runs in the parent and reads the output files with the
standard library only.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

NAMES = ("rate_study", "aggregate_large", "selector_exp", "audit")

#: Seeds are reduced modulo this many input variants; every variant of a
#: seeded workload has reference outputs stored under ``reference/``.
VARIANTS = 16

#: What one unit of ``throughput`` is, per workload.
WORK_UNITS = {
    "rate_study": "aggregate replications",
    "aggregate_large": "sample points x candidates",
    "selector_exp": "selections",
    "audit": "audit checks",
}

#: Output files each workload writes into its output directory.
OUTPUT_FILES = {
    "rate_study": ("report.csv", "fit.json"),
    "aggregate_large": ("estimate.json", "kl.json"),
    "selector_exp": ("report.csv",),
    "audit": ("audit.json",),
}

_A = 2.0


def input_seed(name: str, seed: int) -> int:
    """The input variant a benchmark seed selects (0 for the unseeded audit)."""
    return 0 if name == "audit" else seed % VARIANTS


def _sizes(name: str, small: bool) -> dict:
    if name == "rate_study":
        return ({"M_values": [4, 8], "n_values": [50, 100, 200], "replications": 4}
                if small else
                {"M_values": [4, 16, 64], "n_values": [100, 400, 1600], "replications": 40})
    if name == "aggregate_large":
        return {"M": 8, "n": 2_000} if small else {"M": 64, "n": 1_000_000}
    if name == "selector_exp":
        return ({"M": 8, "n_values": [100, 200], "replications": 5}
                if small else
                {"M": 64, "n_values": [500, 2000], "replications": 50})
    if name == "audit":
        return {"M": 16, "n": 1000} if small else {"M": 256, "n": 1000}
    raise ValueError(f"unknown workload {name!r}")


class Prepared:
    """A workload with its inputs generated, ready for the timed call."""

    def __init__(self, run, work: int, save=lambda: None):
        #: The timed call; returns the program's exit code.
        self.run = run
        #: Units of work one call does (see ``WORK_UNITS``).
        self.work = work
        #: Writes outputs the timed call leaves in memory (library workloads).
        self.save = save


def _cli_config(out: Path, config: dict) -> str:
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return str(path)


def prepare(name: str, seed: int, out: Path, small: bool = False) -> Prepared:
    """Generate ``name``'s inputs for input seed ``seed`` into ``out``."""
    import densagg.cli as cli

    size = _sizes(name, small)
    if name == "rate_study":
        config = _cli_config(out, {
            "seed": seed, "M": size["M_values"][0], "n_values": size["n_values"],
            "replications": size["replications"], "A": _A,
            "truth_spec": {"kind": "candidate", "index": 0},
            "candidate_spec": {"kind": "perturbation"}, "M_values": size["M_values"],
        })
        args = ["rate-study", "--config", config, "--out", str(out / "report.csv"),
                "--fit-out", str(out / "fit.json")]
        work = sum(size["M_values"]) * len(size["n_values"]) * size["replications"]
        return Prepared(lambda: cli.main(args), work)

    if name == "selector_exp":
        config = _cli_config(out, {
            "seed": seed, "M": size["M"], "n_values": size["n_values"],
            "replications": size["replications"], "A": _A,
            "truth_spec": {"kind": "candidate", "index": 3},
            "candidate_spec": {"kind": "perturbation"},
        })
        args = ["yatracos-exp", "--config", config, "--out", str(out / "report.csv")]
        return Prepared(lambda: cli.main(args),
                        len(size["n_values"]) * size["replications"])

    if name == "audit":
        m = size["M"]
        args = ["lowerbound-audit", "--M", str(m), "--n", str(size["n"]),
                "--A", str(_A), "--out", str(out / "audit.json")]
        return Prepared(lambda: cli.main(args), m + m * (m - 1) // 2)

    if name == "aggregate_large":
        from densagg import aggregation, densities, lowerbound

        m, n = size["M"], size["n"]
        family = lowerbound.choose_parameters(m, n, _A)
        words = lowerbound.build_separated_set(family.n_bumps, m)
        candidates = [lowerbound.perturbed_density(family, w) for w in words.words]
        cset = aggregation.CandidateSet.from_densities(candidates, bound=_A)
        truth = candidates[seed % m]
        x = densities.sample(truth, n, seed=seed)
        result = {}

        def run():
            result["estimate"] = aggregation.aggregate(cset, x)
            result["kl"] = densities.kl_divergence(truth, result["estimate"])
            return 0

        def save():
            densities.save_density(result["estimate"], out / "estimate.json")
            (out / "kl.json").write_text(json.dumps({"kl": result["kl"]}) + "\n")

        return Prepared(run, n * m, save)

    raise ValueError(f"unknown workload {name!r}")


def _report_csv(path: Path, numbers: list, flags: list) -> None:
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            numbers.extend(float(row[k]) for k in (
                "M", "n", "replications", "mean_risk", "se", "oracle_risk",
                "excess", "bound"))
            flags.append((f"report pass M={row['M']} n={row['n']}", row["pass"] == "true"))


def output_numbers(name: str, out: Path) -> tuple[list[float], list[tuple[str, bool]]]:
    """Every numeric output of a finished call, in a fixed order, and its pass flags."""
    numbers: list[float] = []
    flags: list[tuple[str, bool]] = []
    if name in ("rate_study", "selector_exp"):
        _report_csv(out / "report.csv", numbers, flags)
    if name == "rate_study":
        fit = json.loads((out / "fit.json").read_text())
        numbers.extend(float(fit[k]) for k in ("slope", "intercept", "n_fit", "dropped"))
        flags.append(("fit slope_in_range", fit["slope_in_range"] is True))
    elif name == "aggregate_large":
        est = json.loads((out / "estimate.json").read_text())
        kl = json.loads((out / "kl.json").read_text())["kl"]
        numbers.extend(est["breakpoints"])
        numbers.extend(est["values"])
        numbers.append(kl)
        flags.append(("kl finite", math.isfinite(kl)))
    elif name == "audit":
        rep = json.loads((out / "audit.json").read_text())
        numbers.extend(float(rep[k]) for k in ("M", "n", "A", "D", "L", "curvature_const"))
        for check in rep["checks"]:
            numbers.append(check["bound"])
            numbers.append(check["achieved"])
            if check["pass"] is not True:
                flags.append((f"audit {check['name']}", False))
        flags.append(("audit all_pass", rep["all_pass"] is True))
    return numbers, flags
