"""Seeded Monte Carlo experiments certifying the risk bounds.

Three harnesses (the oracle experiment, the selector experiment and the rate
study) are driven by one JSON-serialisable :class:`ExperimentConfig`.
Replication ``r`` at sample size ``n`` (and family size ``M``, truth index
``t`` where applicable) draws from a generator seeded with the tuple
``(seed, n, r)`` / ``(seed, M, n, t, r)``, and sees the arithmetic of
``sample``, the estimator and the loss called on it alone, in the same order,
whichever group of replications it is batched in (the rate study's groups
span a cell's truths).  So reports, and the CSV files written from them, are
byte-identical across reruns with the same numpy version, BLAS kernel and
SIMD target, whatever the number of CPUs the groups and the weight kernel
are dealt to.  Every row's ``pass`` flag applies the uniform rule
``excess <= bound + 3 * se`` (the rate study instead flags rows whose
excess is unusable for the fit).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

# ``aggregate`` is not called here, but perfbench's tracer test looks it up
# by this name; the harnesses reach the same code through ``_aggregate_rows``.
from .aggregation import (  # noqa: F401
    _BLOCK_ELEMENTS,
    CandidateSet,
    _aggregate_rows,
    _deal,
    _select_cells,
    _selector_tables,
    aggregate,
)
from .densities import (
    PiecewiseDensity,
    ValidationError,
    _cell_dtype,
    _cell_lookup,
    _density_from_obj,
    _hellinger_rows,
    _kl_rows,
    _l1_rows,
    _load_json,
    _sample_rows,
    hellinger_distance,
    kl_divergence,
    l1_distance,
    load_density,
)
from .lowerbound import (
    AuditReport,
    _member_values,
    audit_hypotheses,
    build_separated_set,
    choose_parameters,
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
#: together, on one worker; the replications of larger calls run in several
#: groups, dealt to the workers.
_GROUP_POINTS = 2**18

#: Keys each descriptor kind takes, each with its type or, for an integer
#: key, its least value; all are required except ``n_ref``.
_SPEC_KEYS = {
    "truth_spec": {
        "candidate": {"index": 0},
        "uniform": {},
        "file": {"path": str},
        "inline": {"breakpoints": list, "values": list},
    },
    "candidate_spec": {
        "perturbation": {"n_ref": 1},
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
    seed:          root seed (>= 0); all replication seeds derive from it.
    M:             number of candidates (>= 1).
    n_values:      sample sizes to run (nonempty, each >= 1).
    replications:  Monte Carlo replications per sample size (>= 1).
    A:             sup bound defining the candidate class (> 1).
    truth_spec:    descriptor of the sampling density, one of
                   ``{"kind": "candidate", "index": i}`` (i >= 0),
                   ``{"kind": "uniform"}``,
                   ``{"kind": "file", "path": ...}``,
                   ``{"kind": "inline", "breakpoints": [...], "values": [...]}``.
    candidate_spec: descriptor of the candidate family, one of
                   ``{"kind": "perturbation"}`` (worst-case bump family,
                   tuned at ``n_ref`` (>= 1) if given, else at max(n_values)),
                   ``{"kind": "files", "paths": [...]}``,
                   ``{"kind": "inline", "densities": [{...}, ...]}``.
    loss:          "KL", "H" or "L1" — used by the rate study; the oracle
                   experiment always measures KL and the selector always L1.
    q:             power applied to the rate study's per-replication loss (> 0).
    M_values:      family sizes for the rate study (each >= 2, at least two
                   distinct); other harnesses ignore it.

    Types are strict, and each field's type and floor are checked together
    as it is coerced: integer fields take ints, never bools, floats or
    strings; ``A`` and ``q`` take finite numbers; each descriptor takes
    exactly the keys of its kind (``n_ref`` is optional).  :func:`build_truth`
    checks the upper end of ``truth_spec.index``, which depends on the
    candidates.
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
        for name, least in (("seed", 0), ("M", 1), ("replications", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        for name, above in (("A", 1), ("q", 0)):
            object.__setattr__(self, name, _finite_real(getattr(self, name), name, above))
        object.__setattr__(self, "n_values", _integers(self.n_values, "n_values", 1))
        if self.M_values is not None:
            object.__setattr__(self, "M_values", _integers(self.M_values, "M_values", 2))
        for name in ("truth_spec", "candidate_spec"):
            object.__setattr__(self, name, _spec(getattr(self, name), name))
        if not self.n_values:
            raise ValidationError("n_values must be a nonempty list")
        if not isinstance(self.loss, str) or self.loss not in _LOSS_ROWS:
            raise ValidationError(
                f"loss must be one of {sorted(_LOSS_ROWS)}, got {self.loss!r}"
            )

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
        if missing:
            raise ValidationError(f"missing config fields: {sorted(missing)}")
        return cls(**obj)

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists; ``M_values`` only when set."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.M_values is None:
            del out["M_values"]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``; rejects bools, floats and strings."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _integers(values, name: str, least: int) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name} must be a list of integers, got {values!r}")
    return tuple(_integer(v, f"{name} entry", least) for v in values)


def _finite_real(value, name: str, above: float) -> float:
    """``value`` as a finite float above ``above``; rejects bools and strings."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if not value > above:
        raise ValidationError(f"{name} must exceed {above}, got {float(value)!r}")
    return float(value)


def _spec(spec, name: str) -> dict:
    """A copy of a descriptor whose keys and values are those its kind takes."""
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
        if isinstance(want, int):
            out[key] = _integer(spec[key], where, want)
        elif not isinstance(spec[key], (list, tuple) if want is list else want):
            raise ValidationError(f"{where} must be a {want.__name__}, got {spec[key]!r}")
    for path in spec["paths"] if kind == "files" else ():
        if not isinstance(path, str):
            raise ValidationError(f"{name}.paths entry must be a str, got {path!r}")
    return out


def load_config(path) -> ExperimentConfig:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return ExperimentConfig.from_dict(obj)


def _perturbation_set(M: int, n_ref: int, bound: float) -> CandidateSet:
    """The worst-case family tuned to ``(M, n_ref, bound)``, its members'
    values built on their one grid in one array op.  :class:`PerturbationFamily`
    guarantees that they lie in the bounded class, so none is checked alone."""
    family = choose_parameters(M, n_ref, bound)
    words = build_separated_set(family.n_bumps, M)
    return CandidateSet(*_member_values(family, words.words))


def _perturbation_candidates(M: int, n_ref: int, bound: float) -> list[PiecewiseDensity]:
    cset = _perturbation_set(M, n_ref, bound)
    return [cset.candidate(j) for j in range(cset.size)]


def _reference_size(config: ExperimentConfig) -> int:
    """The sample size a config's perturbation family is tuned to."""
    return config.candidate_spec.get("n_ref", max(config.n_values))


def _candidate_set(config: ExperimentConfig):
    """``(cset, truth)`` for a config: bit for bit ``CandidateSet.from_densities(
    build_candidates(config), bound=config.A)`` and :func:`build_truth`.  A
    perturbation family skips the refinement and the per-candidate class
    checks; a listed family keeps both, and its truth is the listed density."""
    spec = config.candidate_spec
    if spec["kind"] != "perturbation":
        candidates = build_candidates(config)
        return (CandidateSet.from_densities(candidates, bound=config.A),
                build_truth(config, candidates))
    cset = _perturbation_set(config.M, _reference_size(config), config.A)
    return cset, _truth(config, cset.size, cset.candidate)


def build_candidates(config: ExperimentConfig) -> list[PiecewiseDensity]:
    """Materialise the candidate family a config describes."""
    spec = config.candidate_spec
    if spec["kind"] == "perturbation":
        return _perturbation_candidates(config.M, _reference_size(config), config.A)
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
    return _truth(config, len(candidates), candidates.__getitem__)


def _truth(config: ExperimentConfig, size: int, candidate) -> PiecewiseDensity:
    """:func:`build_truth` for ``size`` candidates, ``candidate(j)`` the ``j``-th."""
    spec = config.truth_spec
    if spec["kind"] == "candidate":
        index = spec["index"]
        if not 0 <= index < size:
            raise ValidationError(
                f"truth_spec.index must be in 0..{size - 1}, got {index!r}"
            )
        return candidate(index)
    if spec["kind"] == "uniform":
        return PiecewiseDensity.uniform()
    if spec["kind"] == "file":
        return load_density(spec["path"])
    body = {k: v for k, v in spec.items() if k != "kind"}
    return _density_from_obj(body, "truth_spec")


@dataclass(frozen=True)
class RiskRow:
    """One experiment cell: a (family, sample size) pair's Monte Carlo summary;
    ``excess`` is derived as ``mean_risk - oracle_risk``."""

    experiment: str
    M: int
    n: int
    replications: int
    mean_risk: float
    se: float
    oracle_risk: float
    bound: float
    passed: bool

    def __post_init__(self):
        if self.se < 0:
            raise ValidationError("standard error cannot be negative")

    @property
    def excess(self) -> float:
        return self.mean_risk - self.oracle_risk


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


def _replication_risks(candidates: CandidateSet, pairs, n: int, estimator,
                       loss: str) -> list[np.ndarray]:
    """Loss ``loss`` from each pair's truth to the estimate of each of its
    replications: one array per ``(truth, seeds)`` pair of ``pairs``.

    Replication ``r`` of a pair estimates from ``sample(truth, n, seeds[r])``,
    mapped once to the candidates' shared-grid cells, held in the grid's
    ``densities._cell_dtype``.  ``estimator(candidates, cells)`` maps a batch
    of such cells (R, n) to the estimates' cell values on the candidates'
    grid (R, cells).  The pairs' replications are taken in order, in groups
    that may span pairs, of at most ``_GROUP_POINTS`` sample points and at
    most ``_BLOCK_ELEMENTS // (8·M)`` replications, so that every kernel
    block of a group holds at least 8 rows.  Each group is drawn, estimated
    in one estimator call and scored by one of the workers the groups are
    dealt to (``aggregation._deal``).  When a group fails, the error names
    the first of its replications that fails alone: the one a loop over the
    replications would have stopped at, as ``truth {t}, replication {r}``
    for replication ``r`` of pair ``t`` when there are several pairs (the
    rate study's pairs are its truths, in order), else as ``replication
    {r}``.
    """
    sizes = [len(seeds) for _, seeds in pairs]
    ends = np.cumsum(sizes).tolist()
    risks = np.empty(ends[-1])
    group = max(1, min(_GROUP_POINTS // n, _BLOCK_ELEMENTS // (8 * candidates.size)))
    dtype = _cell_dtype(candidates.values.shape[1])

    def run_group(g):
        start, stop = g * group, min(g * group + group, ends[-1])
        # (pair index, truth, seeds, draw index of seeds[0], draws lo..hi - 1)
        # of each pair with draws in the group, the draws numbered across the pairs
        runs = [(t, *pair, end - size, max(start, end - size), min(stop, end))
                for t, (pair, size, end) in enumerate(zip(pairs, sizes, ends))
                if end - size < stop and start < end]
        cells = None
        for _, truth, seeds, begin, lo, hi in runs:
            drawn = _cell_lookup(candidates.grid,
                                 _sample_rows(truth, n, seeds[lo - begin:hi - begin]), dtype)
            if cells is None:  # after the first draw, which rejects samples too large to hold
                cells = np.empty((stop - start, n), dtype=dtype)
            cells[lo - start:hi - start] = drawn
        try:
            values = estimator(candidates, cells)
        except ValidationError:
            # Each row's arithmetic is the same alone as in the batch, so
            # some row fails alone too.
            for t, truth, seeds, begin, lo, hi in runs:
                for i in range(lo - start, hi - start):
                    try:
                        estimator(candidates, cells[i:i + 1])
                    except ValidationError as exc:
                        which = f"truth {t}, " if len(pairs) > 1 else ""
                        raise ValidationError(
                            f"{which}replication {start + i - begin}: {exc}") from None
            raise
        for _, truth, seeds, begin, lo, hi in runs:
            risks[lo:hi] = _LOSS_ROWS[loss](truth, candidates.grid, values[lo - start:hi - start])

    _deal(-(-ends[-1] // group), run_group)
    return np.split(risks, ends[:-1])


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
                   mean_risk=mean, se=se, oracle_risk=oracle, bound=bound, passed=passed)


def _fixed_family_report(config: ExperimentConfig, experiment: str, estimator_for,
                         loss: str, row_bound) -> RiskReport:
    """One row per sample size for a harness that estimates one truth with the
    config's candidate family, through the estimator ``estimator_for(cset)``
    (see :func:`_replication_risks`); ``row_bound(oracle, M, n)`` is a row's
    bound."""
    cset, truth = _candidate_set(config)
    oracle = min(_LOSS_ROWS[loss](truth, cset.grid, cset.values).tolist())
    if not math.isfinite(oracle):  # only KL can be infinite
        raise ValidationError(
            "every candidate is at infinite KL divergence from the truth; "
            "the oracle bound is vacuous"
        )
    estimator = estimator_for(cset)
    rows = []
    for n in config.n_values:
        seeds = [(config.seed, n, r) for r in range(config.replications)]
        risks, = _replication_risks(cset, [(truth, seeds)], n, estimator, loss)
        rows.append(_risk_row(experiment, config, cset.size, n, *_mean_se(risks),
                              oracle, row_bound(oracle, cset.size, n)))
    return RiskReport(tuple(rows))


def run_oracle_experiment(config: ExperimentConfig) -> RiskReport:
    """Monte Carlo check that the progressive mixture meets its KL bound.

    For each sample size ``n``: draw ``replications`` samples from the
    truth, aggregate, and measure ``KL(truth | aggregate)``.  The row
    passes when ``mean - min_j KL(truth | f_j) <= log(M)/(n+1) + 3 * se``.
    Fails loudly when every candidate sits at infinite KL from the truth,
    since then no bound is meaningful.  Loss is KL by definition here
    (``config.loss``/``q`` only steer the rate study).
    """
    return _fixed_family_report(config, "oracle", lambda cset: _aggregate_rows, "KL",
                                lambda oracle, m, n: math.log(m) / (n + 1))


def run_yatracos_experiment(config: ExperimentConfig) -> RiskReport:
    """Monte Carlo check that minimum-distance selection meets its L1 bound.

    Row rule: ``mean L1(truth, selected) <= 3 * min_j L1(truth, f_j)
    + sqrt(log(M)/n) + 3 * se``; the bound column stores
    ``2 * min_j + sqrt(log(M)/n)`` so the uniform ``excess <= bound + 3*se``
    comparison applies.
    """
    return _fixed_family_report(
        config, "yatracos", _selector_estimator,
        "L1", lambda oracle, m, n: 2.0 * oracle + math.sqrt(math.log(m) / n))


def _selector_estimator(cset: CandidateSet):
    """The selector as an estimator of ``cset``'s cell values, with the
    family's tables built once for every group of replications."""
    tables = _selector_tables(cset)
    return lambda candidates, cells: candidates.values[_select_cells(candidates, cells, tables)]


@dataclass(frozen=True)
class RateStudyResult:
    """Worst-case excess risks and the fitted log-log rate.  A rate row passes
    exactly when it enters the fit, so ``n_fit`` and ``dropped`` count the
    report's passing and failing rows.  ``slope`` and ``intercept`` are fitted
    on construction, a line through ``(log bound, log mean_risk)`` of the
    passing rows; a report with fewer than two is refused."""

    report: RiskReport
    slope: float = field(init=False)
    intercept: float = field(init=False)

    def __post_init__(self):
        fit = [(math.log(r.bound), math.log(r.mean_risk)) for r in self.report.rows if r.passed]
        if len(fit) < 2:
            raise ValidationError("rate study has fewer than two usable cells; cannot fit a slope")
        for name, value in zip(("slope", "intercept"), np.polyfit(*np.array(fit).T, 1)):
            object.__setattr__(self, name, float(value))

    @property
    def n_fit(self) -> int:
        return sum(r.passed for r in self.report.rows)

    @property
    def dropped(self) -> int:
        return len(self.report.rows) - self.n_fit

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
    whose excess is nonpositive carry ``pass=false`` and are dropped from the
    fit; :attr:`RateStudyResult.dropped` counts them.

    Requires the perturbation candidate kind (the study is about the
    worst-case family, which must be re-tuned per cell), at least two
    distinct family sizes, and at least three distinct sample sizes.
    """
    if config.candidate_spec.get("kind") != "perturbation":
        raise ValidationError(
            "the rate study requires candidate_spec.kind = 'perturbation'"
        )
    if config.M_values is None or len(set(config.M_values)) < 2:
        raise ValidationError(
            "the rate study needs at least two distinct family sizes in M_values"
        )
    if len(set(config.n_values)) < 3:
        raise ValidationError(
            "the rate study needs at least three distinct sample sizes in n_values"
        )
    rows = []
    for m in config.M_values:
        for n in config.n_values:
            cset = _perturbation_set(m, n, config.A)
            pairs = [(cset.candidate(t),
                      [(config.seed, m, n, t, r) for r in range(config.replications)])
                     for t in range(cset.size)]
            worst_mean, worst_se = -math.inf, 0.0
            for losses in _replication_risks(cset, pairs, n, _aggregate_rows, config.loss):
                mean, se = _mean_se(np.array([v ** config.q for v in losses.tolist()]))
                if mean > worst_mean:
                    worst_mean, worst_se = mean, se
            valid = worst_mean > 0 and math.isfinite(worst_mean)
            # the truth is a family member, so the oracle risk is 0
            rows.append(_risk_row("rate", config, m, n, worst_mean, worst_se,
                                  0.0, math.log(m) / n, passed=valid))
    return RateStudyResult(RiskReport(tuple(rows)))


def run_lowerbound_audit(family_size: int, sample_size: int, bound: float) -> AuditReport:
    """Tune the worst-case family for ``(M, n, A)`` and audit its hypotheses;
    the report's ``words`` is the separated word set audited."""
    family = choose_parameters(family_size, sample_size, bound)
    words = build_separated_set(family.n_bumps, family_size)
    return audit_hypotheses(family, words, sample_size)
