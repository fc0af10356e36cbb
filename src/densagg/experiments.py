"""Seeded Monte Carlo experiments certifying the risk bounds.

Three harnesses, all driven by one JSON-serialisable :class:`ExperimentConfig`:

* :func:`run_oracle_experiment` — mean Kullback-Leibler risk of the
  progressive mixture vs. the best single candidate plus ``log(M)/(n+1)``.
* :func:`run_yatracos_experiment` — mean L1 risk of the minimum-distance
  selector vs. ``3 * min_j + sqrt(log(M)/n)``.
* :func:`run_rate_study` — log-log regression of worst-case excess risk
  against ``log(M)/n`` across several family sizes and sample sizes; the
  fitted slope certifies the rate.

Determinism: replication ``r`` at sample size ``n`` (and family size ``M``,
truth index ``t`` where applicable) draws from a generator seeded with the
tuple ``(seed, n, r)`` / ``(seed, M, n, t, r)``, so reports — and the CSV
files written from them — are identical across runs and machines with the
same numpy series.  Every row's ``pass`` flag applies the uniform rule
``excess <= bound + 3 * se`` (the rate study instead flags rows whose
excess is unusable for the fit).

One engine, :func:`_replication_risks`, runs every harness cell: it draws
the samples of all replications of a (family, truth, n) cell, one
generator stream per replication, estimates them together and scores them
row by row.  The progressive mixture runs the block kernel of
:mod:`densagg.aggregation` on (rows, R, M) blocks; the selector runs once
per row.  Each replication's arithmetic is that of ``sample``,
``aggregate``/``yatracos_select`` and the loss called on it alone, in the
same order, so reports are bit-identical to a loop over replications.
Replications are grouped so that one group holds at most ``_GROUP_POINTS``
(2^20) sample points, which bounds memory for any n × replications; the
criterion-7 rate study (n <= 1600, 40 replications) runs each cell as one
group.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ``aggregate`` is not called here, but perfbench's tracer test looks it up
# by this name; the harnesses reach the same code through ``_aggregate_rows``.
from .aggregation import CandidateSet, _aggregate_rows, aggregate, yatracos_select  # noqa: F401
from .densities import (
    PiecewiseDensity,
    ValidationError,
    _density_from_obj,
    _hellinger_rows,
    _kl_rows,
    _l1_rows,
    _sample_rows,
    hellinger_distance,
    kl_divergence,
    l1_distance,
    load_density,
)
from .lowerbound import (
    AuditReport,
    audit_hypotheses,
    build_separated_set,
    choose_parameters,
    perturbed_density,
)

__all__ = [
    "LOSSES",
    "SLOPE_RANGE",
    "CSV_HEADER",
    "ExperimentConfig",
    "load_config",
    "RiskRow",
    "RiskReport",
    "RateStudyResult",
    "build_candidates",
    "build_truth",
    "run_oracle_experiment",
    "run_yatracos_experiment",
    "run_rate_study",
    "run_lowerbound_audit",
]

LOSSES = {
    "KL": kl_divergence,
    "H": hellinger_distance,
    "L1": l1_distance,
}

#: The losses of ``LOSSES`` from one density to each row of a batch of
#: cell-value rows; the functions of ``LOSSES`` are their one-row case.
#: Configs are checked against these names, the ones the harnesses run.
_LOSS_ROWS = {
    "KL": _kl_rows,
    "H": _hellinger_rows,
    "L1": _l1_rows,
}

#: Largest number of sample points (replications × n) drawn and aggregated
#: together; replications of larger cells run in several groups.
_GROUP_POINTS = 2**20

#: Keys each descriptor kind takes, with their types; all are required
#: except ``n_ref``.
_SPEC_KEYS = {
    "truth_spec": {
        "candidate": {"index": int},
        "uniform": {},
        "file": {"path": str},
        "inline": {"breakpoints": list, "values": list},
    },
    "candidate_spec": {
        "perturbation": {"n_ref": int},
        "files": {"paths": list},
        "inline": {"densities": list},
    },
}
_OPTIONAL_KEYS = {"n_ref"}

#: Acceptable fitted slope for the rate study's log-log regression.  The
#: theoretical excess scales linearly in log(M)/n, i.e. slope 1; the range
#: leaves room for Monte Carlo noise and finite-size curvature.
SLOPE_RANGE = (0.5, 1.5)

CSV_HEADER = [
    "experiment", "M", "n", "replications",
    "mean_risk", "se", "oracle_risk", "excess", "bound", "pass",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness needs, mirrored 1:1 by the JSON config format.

    Fields
    ------
    seed:          nonnegative root seed; all replication seeds derive from it.
    M:             number of candidates.
    n_values:      sample sizes to run (each >= 1).
    replications:  Monte Carlo replications per sample size (>= 1).
    A:             sup bound defining the candidate class (> 1).
    truth_spec:    descriptor of the sampling density, one of
                   ``{"kind": "candidate", "index": i}``,
                   ``{"kind": "uniform"}``,
                   ``{"kind": "file", "path": ...}``,
                   ``{"kind": "inline", "breakpoints": [...], "values": [...]}``.
    candidate_spec: descriptor of the candidate family, one of
                   ``{"kind": "perturbation"}`` (worst-case bump family,
                   tuned at ``n_ref`` if given, else at max(n_values)),
                   ``{"kind": "files", "paths": [...]}``,
                   ``{"kind": "inline", "densities": [{...}, ...]}``.
    loss:          "KL", "H" or "L1" — used by the rate study; the oracle
                   experiment always measures KL and the selector always L1.
    q:             power applied to the rate study's per-replication loss.
    M_values:      family sizes for the rate study (>= 2 distinct values);
                   other harnesses ignore it.

    Types are strict: the integer fields (``seed``, ``M``,
    ``replications``, the entries of ``n_values`` and ``M_values``,
    ``truth_spec.index`` and ``candidate_spec.n_ref``) take ints, never
    bools, floats or strings; ``A`` and ``q`` take finite numbers; and each
    descriptor takes exactly the keys of its kind (``n_ref`` is optional).
    """

    seed: int
    M: int
    n_values: tuple[int, ...]
    replications: int
    A: float
    truth_spec: dict
    candidate_spec: dict
    loss: str = "KL"
    q: float = 1.0
    M_values: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("seed", "M", "replications"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("A", "q"):
            object.__setattr__(self, name, _finite_real(getattr(self, name), name))
        object.__setattr__(self, "n_values", _integers(self.n_values, "n_values"))
        if self.M_values is not None:
            object.__setattr__(self, "M_values", _integers(self.M_values, "M_values"))
        for name in ("truth_spec", "candidate_spec"):
            object.__setattr__(self, name, _spec(getattr(self, name), name))
        if self.candidate_spec.get("n_ref", 1) < 1:
            raise ValidationError("candidate_spec.n_ref must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.M < 1:
            raise ValidationError(f"M must be at least 1, got {self.M}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValidationError("n_values must be a nonempty list of sizes >= 1")
        if self.replications < 1:
            raise ValidationError(
                f"replications must be at least 1, got {self.replications}"
            )
        if not self.A > 1.0:
            raise ValidationError(f"A must exceed 1, got {self.A!r}")
        if not isinstance(self.loss, str) or self.loss not in _LOSS_ROWS:
            raise ValidationError(
                f"loss must be one of {sorted(_LOSS_ROWS)}, got {self.loss!r}"
            )
        if not self.q > 0:
            raise ValidationError(f"q must be positive, got {self.q!r}")
        if self.M_values is not None and any(m < 2 for m in self.M_values):
            raise ValidationError("every entry of M_values must be at least 2")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        known = {
            "seed", "M", "n_values", "replications", "A",
            "truth_spec", "candidate_spec", "loss", "q", "M_values",
        }
        unknown = set(obj) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = {"seed", "M", "n_values", "replications", "A",
                   "truth_spec", "candidate_spec"} - set(obj)
        if missing:
            raise ValidationError(f"missing config fields: {sorted(missing)}")
        return cls(**obj)

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "M": self.M,
            "n_values": list(self.n_values),
            "replications": self.replications,
            "A": self.A,
            "truth_spec": self.truth_spec,
            "candidate_spec": self.candidate_spec,
            "loss": self.loss,
            "q": self.q,
        }
        if self.M_values is not None:
            out["M_values"] = list(self.M_values)
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _integer(value, name: str) -> int:
    """``value`` as an int; rejects bools, floats and strings."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _integers(values, name: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name} must be a list of integers, got {values!r}")
    return tuple(_integer(v, f"{name} entry") for v in values)


def _finite_real(value, name: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _spec(spec, name: str) -> dict:
    """A copy of a descriptor whose keys and value types are those its kind takes."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{name} must be an object, got {spec!r}")
    kinds = _SPEC_KEYS[name]
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"{name}.kind must be one of {sorted(kinds)}, got {kind!r}")
    types = kinds[kind]
    keys = set(spec) - {"kind"}
    if not set(types) - _OPTIONAL_KEYS <= keys <= set(types):
        raise ValidationError(
            f"{name} of kind {kind!r} takes keys {sorted(types)}, got {sorted(keys)}"
        )
    out = dict(spec)
    for key in keys:
        where, want = f"{name}.{key}", types[key]
        if want is int:
            out[key] = _integer(spec[key], where)
        elif not isinstance(spec[key], (list, tuple) if want is list else want):
            raise ValidationError(f"{where} must be a {want.__name__}, got {spec[key]!r}")
    return out


def load_config(path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return ExperimentConfig.from_dict(obj)


def _perturbation_candidates(M: int, n_ref: int, bound: float) -> list[PiecewiseDensity]:
    family = choose_parameters(M, n_ref, bound)
    words = build_separated_set(family.n_bumps, M)
    return [perturbed_density(family, w) for w in words.words]


def build_candidates(config: ExperimentConfig) -> list[PiecewiseDensity]:
    """Materialise the candidate family a config describes."""
    spec = config.candidate_spec
    if spec["kind"] == "perturbation":
        n_ref = spec.get("n_ref", max(config.n_values))
        return _perturbation_candidates(config.M, n_ref, config.A)
    if spec["kind"] == "files":
        densities = [load_density(p) for p in spec["paths"]]
    else:
        densities = [
            _density_from_obj(o, f"candidate_spec.densities[{i}]")
            for i, o in enumerate(spec["densities"])
        ]
    if len(densities) != config.M:
        raise ValidationError(
            f"candidate_spec supplies {len(densities)} densities but M = {config.M}"
        )
    return densities


def build_truth(config: ExperimentConfig, candidates) -> PiecewiseDensity:
    """Materialise the sampling density a config describes."""
    spec = config.truth_spec
    if spec["kind"] == "candidate":
        index = spec["index"]
        if not 0 <= index < len(candidates):
            raise ValidationError(
                f"truth_spec.index must be in 0..{len(candidates) - 1}, got {index!r}"
            )
        return candidates[index]
    if spec["kind"] == "uniform":
        return PiecewiseDensity.uniform()
    if spec["kind"] == "file":
        return load_density(spec["path"])
    body = {k: v for k, v in spec.items() if k != "kind"}
    return _density_from_obj(body, "truth_spec")


@dataclass(frozen=True)
class RiskRow:
    """One experiment cell: a (family, sample size) pair's Monte Carlo summary."""

    experiment: str
    M: int
    n: int
    replications: int
    mean_risk: float
    se: float
    oracle_risk: float
    excess: float
    bound: float
    passed: bool

    def __post_init__(self):
        if self.se < 0:
            raise ValidationError("standard error cannot be negative")
        if math.isfinite(self.mean_risk) and math.isfinite(self.oracle_risk):
            if abs(self.excess - (self.mean_risk - self.oracle_risk)) > 1e-9:
                raise ValidationError("excess must equal mean_risk - oracle_risk")


@dataclass(frozen=True)
class RiskReport:
    """Rows plus the report-wide pass flag; serialises to the fixed CSV schema."""

    rows: tuple[RiskRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow([
                    r.experiment, r.M, r.n, r.replications,
                    repr(r.mean_risk), repr(r.se), repr(r.oracle_risk),
                    repr(r.excess), repr(r.bound),
                    "true" if r.passed else "false",
                ])


def _select_rows(candidates: CandidateSet, x: np.ndarray) -> np.ndarray:
    """Cell values of the candidate :func:`yatracos_select` picks for each row of ``x``."""
    return candidates.values[[yatracos_select(candidates, row) for row in x]]


def _replication_risks(
    candidates: CandidateSet, truth: PiecewiseDensity, n: int, seeds, estimator, loss: str
) -> np.ndarray:
    """Loss ``loss`` from ``truth`` to the estimate of each replication.

    Replication ``r`` estimates from ``sample(truth, n, seeds[r])``.
    ``estimator(candidates, x)`` maps a batch of samples ``x`` (R, n) to
    the estimates' cell values on the candidates' grid (R, cells).
    Replications run in groups of at most ``_GROUP_POINTS`` sample points.
    When a group fails, the error names the first of its replications that
    fails alone: the one a loop over replications would have stopped at.
    """
    group = max(1, _GROUP_POINTS // n)
    risks = []
    for start in range(0, len(seeds), group):
        x = _sample_rows(truth, n, seeds[start:start + group])
        try:
            values = estimator(candidates, x)
        except ValidationError:
            # Each row's arithmetic is the same alone as in the batch, so
            # some row fails alone too.
            for r in range(x.shape[0]):
                try:
                    estimator(candidates, x[r:r + 1])
                except ValidationError as exc:
                    raise ValidationError(f"replication {start + r}: {exc}") from None
            raise
        risks.append(_LOSS_ROWS[loss](truth, candidates.grid, values))
    return np.concatenate(risks)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2 or not np.all(np.isfinite(values)):
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def _risk_row(experiment: str, config: ExperimentConfig, m: int, n: int,
              mean: float, se: float, oracle: float, bound: float,
              passed: bool | None = None) -> RiskRow:
    """A report row; it passes by the uniform rule ``excess <= bound + 3 * se``
    unless ``passed`` says otherwise."""
    excess = mean - oracle
    if passed is None:
        passed = excess <= bound + 3 * se
    return RiskRow(experiment=experiment, M=m, n=n, replications=config.replications,
                   mean_risk=mean, se=se, oracle_risk=oracle, excess=excess,
                   bound=bound, passed=passed)


def _family_and_truth(config: ExperimentConfig) -> tuple[CandidateSet, PiecewiseDensity]:
    candidates = build_candidates(config)
    return (CandidateSet.from_densities(candidates, bound=config.A),
            build_truth(config, candidates))


def run_oracle_experiment(config: ExperimentConfig) -> RiskReport:
    """Monte Carlo check that the progressive mixture meets its KL bound.

    For each sample size ``n``: draw ``replications`` samples from the
    truth, aggregate, and measure ``KL(truth | aggregate)``.  The row
    passes when ``mean - min_j KL(truth | f_j) <= log(M)/(n+1) + 3 * se``.
    Fails loudly when every candidate sits at infinite KL from the truth,
    since then no bound is meaningful.  Loss is KL by definition here
    (``config.loss``/``q`` only steer the rate study).
    """
    cset, truth = _family_and_truth(config)
    oracle = min(kl_divergence(truth, cset.candidate(j)) for j in range(cset.size))
    if not math.isfinite(oracle):
        raise ValidationError(
            "every candidate is at infinite KL divergence from the truth; "
            "the oracle bound is vacuous"
        )
    rows = []
    for n in config.n_values:
        seeds = [(config.seed, n, r) for r in range(config.replications)]
        risks = _replication_risks(cset, truth, n, seeds, _aggregate_rows, "KL")
        rows.append(_risk_row("oracle", config, cset.size, n, *_mean_se(risks),
                              oracle, math.log(cset.size) / (n + 1)))
    return RiskReport(tuple(rows))


def run_yatracos_experiment(config: ExperimentConfig) -> RiskReport:
    """Monte Carlo check that minimum-distance selection meets its L1 bound.

    Row rule: ``mean L1(truth, selected) <= 3 * min_j L1(truth, f_j)
    + sqrt(log(M)/n) + 3 * se``; the bound column stores
    ``2 * min_j + sqrt(log(M)/n)`` so the uniform ``excess <= bound + 3*se``
    comparison applies.
    """
    cset, truth = _family_and_truth(config)
    oracle = min(l1_distance(truth, cset.candidate(j)) for j in range(cset.size))
    rows = []
    for n in config.n_values:
        seeds = [(config.seed, n, r) for r in range(config.replications)]
        risks = _replication_risks(cset, truth, n, seeds, _select_rows, "L1")
        rows.append(_risk_row("yatracos", config, cset.size, n, *_mean_se(risks),
                              oracle, 2.0 * oracle + math.sqrt(math.log(cset.size) / n)))
    return RiskReport(tuple(rows))


@dataclass(frozen=True)
class RateStudyResult:
    """Worst-case excess risks and the fitted log-log rate."""

    report: RiskReport
    slope: float
    intercept: float
    n_fit: int
    dropped: int

    @property
    def slope_in_range(self) -> bool:
        return SLOPE_RANGE[0] <= self.slope <= SLOPE_RANGE[1]

    def fit_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "n_fit": self.n_fit,
            "dropped": self.dropped,
            "slope_range": list(SLOPE_RANGE),
            "slope_in_range": self.slope_in_range,
        }


def run_rate_study(config: ExperimentConfig) -> RateStudyResult:
    """Measure how worst-case aggregation excess scales with ``log(M)/n``.

    For every family size in ``M_values`` and every sample size, the
    worst-case bump family tuned to that ``(M, n)`` is aggregated under
    each of its members as truth; the member with the largest mean loss
    (``config.loss`` to the power ``q``) defines the excess for that cell.
    A line is fitted to ``log(excess)`` against ``log(log(M)/n)``; rows
    whose excess is nonpositive carry ``pass=false``, are dropped from the
    fit, and are counted in ``dropped``.

    Requires the perturbation candidate kind (the study is about the
    worst-case family, which must be re-tuned per cell), at least two
    distinct family sizes, and at least three distinct sample sizes.
    """
    if config.candidate_spec.get("kind") != "perturbation":
        raise ValidationError(
            "the rate study requires candidate_spec.kind = 'perturbation'"
        )
    m_values = config.M_values if config.M_values is not None else (config.M,)
    if len(set(m_values)) < 2:
        raise ValidationError(
            "the rate study needs at least two distinct family sizes in M_values"
        )
    if len(set(config.n_values)) < 3:
        raise ValidationError(
            "the rate study needs at least three distinct sample sizes in n_values"
        )
    rows = []
    xs, ys = [], []
    dropped = 0
    for m in m_values:
        for n in config.n_values:
            candidates = _perturbation_candidates(m, n, config.A)
            cset = CandidateSet.from_densities(candidates, bound=config.A)
            worst_mean, worst_se = -math.inf, 0.0
            for t in range(cset.size):
                seeds = [(config.seed, m, n, t, r) for r in range(config.replications)]
                losses = _replication_risks(
                    cset, cset.candidate(t), n, seeds, _aggregate_rows, config.loss)
                mean, se = _mean_se(np.array([v ** config.q for v in losses.tolist()]))
                if mean > worst_mean:
                    worst_mean, worst_se = mean, se
            psi = math.log(m) / n
            valid = worst_mean > 0 and math.isfinite(worst_mean)
            # the truth is a family member, so the oracle risk is 0
            rows.append(_risk_row("rate", config, m, n, worst_mean, worst_se,
                                  0.0, psi, passed=valid))
            if valid:
                xs.append(math.log(psi))
                ys.append(math.log(worst_mean))
            else:
                dropped += 1
    if len(xs) < 2:
        raise ValidationError(
            "rate study has fewer than two usable cells; cannot fit a slope"
        )
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    return RateStudyResult(
        report=RiskReport(tuple(rows)),
        slope=float(slope),
        intercept=float(intercept),
        n_fit=len(xs),
        dropped=dropped,
    )


def run_lowerbound_audit(family_size: int, sample_size: int, bound: float) -> AuditReport:
    """Tune the worst-case family for ``(M, n, A)`` and audit its hypotheses."""
    family = choose_parameters(family_size, sample_size, bound)
    words = build_separated_set(family.n_bumps, family_size)
    return audit_hypotheses(family, words, sample_size)
