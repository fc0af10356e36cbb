"""The package surface: ``densagg`` re-exports each layer's ``__all__``, and
no module imports a name it never reads."""

import ast
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
