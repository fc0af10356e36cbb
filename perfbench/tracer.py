"""Outside-in tracing of densagg's public functions.

The tracer rebinds module and class attributes of the imported ``densagg``
package to timing wrappers and puts the originals back afterwards; nothing in
``src/`` changes.  Every name bound to a traced function is rebound: the
function's home module, the modules that imported it by name (``experiments``,
``cli`` and the package ``__init__``), the ``experiments.LOSSES`` table, and
the ``CandidateSet``/``AuditReport``/``RiskReport`` methods.

Each call records one span ``(layer, start, end, parent, error, extras)``.
Spans stay in memory until :meth:`Tracer.uninstall`; :func:`summarize` turns
them into per-layer ``calls``, ``self_s`` (duration minus the time covered by
child spans), ``errors`` and the layer's extra counters.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

_MARK = "__perfbench_wrapped__"


def _mb_points_by_candidates(extra_row: int):
    def extra(args, kwargs, result):
        cset, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
        return {"computed_mb": 8.0 * (len(x) + extra_row) * cset.size / 2**20}
    return extra


def _sample_points(args, kwargs, result):
    return {"points": len(result)}


def _yatracos_pairs(args, kwargs, result):
    m = args[0].size
    return {"distinct": len(result), "pairs": m * (m - 1)}


def _audit_checks(args, kwargs, result):
    return {"checks": len(result.checks)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


#: ``(metric prefix, module, class or None, attribute, extras)`` for every
#: traced layer.  The metric prefix is ``<module>.<function>``; extras map a
#: call's arguments and result to counters summed over calls.
LAYERS = (
    ("aggregation.progressive_weights", "aggregation", None, "progressive_weights",
     _mb_points_by_candidates(1)),
    ("aggregation.log_likelihood_terms", "aggregation", "CandidateSet",
     "log_likelihood_terms", _mb_points_by_candidates(0)),
    ("densities.sample", "densities", None, "sample", _sample_points),
    ("aggregation.aggregate", "aggregation", None, "aggregate", None),
    ("aggregation.mixture", "aggregation", None, "mixture", None),
    ("densities.kl_divergence", "densities", None, "kl_divergence", None),
    ("aggregation.yatracos_class", "aggregation", None, "yatracos_class", _yatracos_pairs),
    ("aggregation.yatracos_select", "aggregation", None, "yatracos_select", None),
    ("densities.l1_distance", "densities", None, "l1_distance", None),
    ("lowerbound.build_separated_set", "lowerbound", None, "build_separated_set", None),
    ("lowerbound.audit_hypotheses", "lowerbound", None, "audit_hypotheses", _audit_checks),
    ("lowerbound.AuditReport.save", "lowerbound", "AuditReport", "save", _file_bytes),
    ("experiments.RiskReport.to_csv", "experiments", "RiskReport", "to_csv", _file_bytes),
    ("aggregation.CandidateSet.from_densities", "aggregation", "CandidateSet",
     "from_densities", None),
    ("cli.main", "cli", None, "main", None),
)

#: Extra per-layer metrics, derived from the summed extras.
EXTRA_METRICS = {
    "aggregation.progressive_weights": {"computed_mb": "MB"},
    "aggregation.log_likelihood_terms": {"computed_mb": "MB"},
    "densities.sample": {"points": "count"},
    "aggregation.yatracos_class": {"distinct_ratio": "ratio"},
    "lowerbound.audit_hypotheses": {"checks": "count"},
    "lowerbound.AuditReport.save": {"bytes": "bytes"},
    "experiments.RiskReport.to_csv": {"bytes": "bytes"},
}

MODULES = ("densagg", "densagg.densities", "densagg.aggregation",
           "densagg.lowerbound", "densagg.experiments", "densagg.cli")


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name, *_ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
        for extra, unit in EXTRA_METRICS.get(name, {}).items():
            units[f"{name}.{extra}"] = unit
    return units


class Tracer:
    """Installs timing wrappers on densagg's public functions.

    Use as a context manager; on exit every rebound attribute holds its
    original object again.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, func, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, True, None)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[index] = (name, start, end, parent, False,
                            extra(args, kwargs, result) if extra else None)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        losses = importlib.import_module("densagg.experiments").LOSSES
        for name, module, cls_name, attr, extra in LAYERS:
            home = importlib.import_module(f"densagg.{module}")
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__, extra))
                else:
                    replacement = self._wrap(name, original, extra)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
            for key, value in list(losses.items()):
                if value is original:
                    self._restore.append((losses, key, original))
                    losses[key] = wrapper

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def installed_wrappers() -> list[str]:
    """Names of traced wrappers still bound anywhere the tracer rebinds."""
    found = []
    for m in MODULES:
        mod = importlib.import_module(m)
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{m}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(getattr(member, "__func__", member), _MARK, False):
                        found.append(f"{m}.{key}.{attr}")
    for key, value in importlib.import_module("densagg.experiments").LOSSES.items():
        if getattr(value, _MARK, False):
            found.append(f"densagg.experiments.LOSSES[{key!r}]")
    return found


def summarize(spans) -> tuple[dict, float]:
    """Per-layer metrics from spans, and the wall time the root spans cover.

    Returns ``(metrics, covered_s)`` where ``metrics`` maps every name of
    :func:`per_layer_metric_units` to a number (0 for layers never called).
    """
    totals = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name, *_ in LAYERS}
    extras = {name: {} for name, *_ in LAYERS}
    child_time = [0.0] * len(spans)
    covered = 0.0
    for name, start, end, parent, error, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            covered += end - start
    for index, (name, start, end, parent, error, extra) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[index]
        t["errors"] += int(error)
        for key, value in (extra or {}).items():
            extras[name][key] = extras[name].get(key, 0) + value
    metrics = {}
    for name, *_ in LAYERS:
        for stat, value in totals[name].items():
            metrics[f"{name}.{stat}"] = value
        got = extras[name]
        for extra in EXTRA_METRICS.get(name, {}):
            if extra == "distinct_ratio":
                pairs = got.get("pairs", 0)
                metrics[f"{name}.{extra}"] = got.get("distinct", 0) / pairs if pairs else 0.0
            else:
                metrics[f"{name}.{extra}"] = got.get(extra, 0)
    return metrics, covered
