"""The package surface: ``densagg`` re-exports each layer's ``__all__``, no
module imports a name it never reads, and no record takes a value its other
fields fix."""

import ast
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

import densagg
from densagg import aggregation, densities, experiments, lowerbound


@pytest.mark.parametrize("module", [densities, aggregation, lowerbound, experiments],
                         ids=lambda m: m.__name__)
def test_every_public_name_is_exported_as_the_same_object(module):
    for name in module.__all__:
        assert getattr(densagg, name) is getattr(module, name), name
        assert name in densagg.__all__


def test_all_has_no_duplicates_and_holds_the_version():
    assert len(densagg.__all__) == len(set(densagg.__all__))
    assert "__version__" in densagg.__all__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from densagg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(densagg.__all__)


MODULES = [*sorted(Path(densagg.__file__).parent.glob("*.py")),
           *sorted(Path(__file__).parent.glob("*.py"))]


def _unread_imports(path: Path) -> list[str]:
    """Names bound by the imports of ``path`` that the module never reads.

    Star imports bind no name here, ``__future__`` imports are directives,
    and an import whose lines carry ``# noqa: F401`` is kept on purpose.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in read:
                unread.append(name)
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert _unread_imports(path) == []


def test_derived_values_are_read_not_passed():
    family = densagg.choose_parameters(16, 1000, 2.0)
    words = densagg.build_separated_set(family.n_bumps, 16)
    report = densagg.audit_hypotheses(family, words, 1000)
    row = densagg.RiskRow("rate", 16, 1000, 5, 1.0, 0.1, 0.25, 1.0, True)
    steeper = replace(row, mean_risk=math.exp(2.0), bound=math.exp(1.0))
    result = densagg.RateStudyResult(
        densagg.RiskReport((row, replace(row, passed=False), steeper)))
    cset = densagg.CandidateSet([0.0, 0.5, 1.0], [[1.5, 0.5], [0.5, 1.5]])
    traj = densagg.progressive_weights(cset, [0.25, 0.75, 0.25])
    # fields() lists init=False fields too: the constructor takes those with f.init
    for record, derived in ((family, {"n_bumps"}), (report, {"kl_classes", "sep_classes"}),
                            (row, {"excess"}),
                            (result, {"n_fit", "dropped", "slope", "intercept"}),
                            (traj, {"averaged", "weights"})):
        assert not derived & {f.name for f in fields(record) if f.init}
    assert [f.name for f in fields(traj) if f.init] == ["candidates", "cells"]
    assert [f.name for f in fields(result) if f.init] == ["report"]
    with pytest.raises(TypeError):
        densagg.RateStudyResult(result.report, 7.0, 0.0)
    with pytest.raises(densagg.ValidationError, match="fewer than two usable cells"):
        densagg.RateStudyResult(densagg.RiskReport((row, replace(steeper, passed=False))))
    assert result.slope == pytest.approx(2.0) and result.intercept == pytest.approx(0.0, abs=1e-12)
    assert densagg.WeightTrajectory(cset, traj.cells) == traj
    assert family.n_bumps == densagg.min_bump_count(16) == 32
    assert [e[0] for e in report.kl_classes] == [math.log(16) / 16.0] * 33
    assert len(report.sep_classes) == 33 and report.sep_classes[0][1] == 0.0
    assert row.excess == 0.75
    assert (result.n_fit, result.dropped) == (2, 1)
