"""Static checks the linters would make, without the linters.

``ruff`` / ``mypy`` are not installable in every environment this repo
is grown in, so the two checks a refactor most often trips are done
here over :mod:`ast` and :mod:`inspect`: no imported-but-unused name
anywhere in ``src/repro``, and no seed parameter on a search entry
point (an answer is a function of the index and the query).
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.index.executor import execute
from repro.index.graph_wave import graph_wave_search
from repro.index.search import joint_search
from repro.index.segments import SegmentView
from repro.service import IndexSnapshot, MustService

PACKAGE = Path(repro.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names used inside string annotations (``x: "Foo | None"``)."""
    slots: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            slots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            slots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            slots.append(node.annotation)
    names: set[str] = set()
    for slot in slots:
        for node in ast.walk(slot) if slot is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # Literal["two words"], not a type
                    continue
                names |= {
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                }
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def unused_imports(path: Path) -> list[str]:
    """``name (line N)`` for every import *path* binds and never reads.

    A name counts as read when it appears as an identifier, inside a
    string annotation (so ``TYPE_CHECKING`` imports are honoured) or in
    ``__all__``; a ``# noqa: F401`` on the import line keeps a
    deliberate re-export.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree) | _exported(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports():
    found = {
        str(path.relative_to(PACKAGE)): unused
        for path in MODULES
        if (unused := unused_imports(path))
    }
    assert len(MODULES) > 80 and found == {}


def test_the_scan_sees_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, Any\n"
        "from a import kept  # noqa: F401\n"
        "from a import exported, dropped\n"
        "if TYPE_CHECKING:\n"
        "    from b import Quoted\n"
        "__all__ = ['exported']\n"
        "def f(x: 'Quoted | None') -> Any:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(module) == ["os (line 2)", "dropped (line 5)"]


SEARCH_ENTRY_POINTS = [
    execute,
    joint_search,
    graph_wave_search,
    SegmentView.search,
    SegmentView.graph_wave,
    IndexSnapshot.query,
    IndexSnapshot.graph_wave,
    MustService.submit,
]


@pytest.mark.parametrize(
    "entry", SEARCH_ENTRY_POINTS, ids=lambda f: f.__qualname__
)
def test_no_search_entry_point_takes_a_seed(entry):
    assert not {"rng", "rngs"} & set(inspect.signature(entry).parameters)
