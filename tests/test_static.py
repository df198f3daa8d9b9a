"""Static checks the linters would make, without the linters.

``ruff`` / ``mypy`` are not installable in every environment this repo
is grown in, so the checks a refactor most often trips are done here
over :mod:`ast` and :mod:`inspect`: no imported-but-unused name anywhere
in ``src/repro``, no seed parameter on a search entry point (an answer
is a function of the index and the query), no graph-building option on
the segmented index (its delta is a buffer), complete annotations on
the modules ``pyproject.toml`` holds to ``disallow_untyped_defs`` — and
nothing an exact answer could be tuned with: no safety-band or
second-kernel parameter, no environment read in ``repro.core.space``,
one ``exact*`` method on a view, and every name the benchmark's tracer
binds still where it looks.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import tomllib
from pathlib import Path

import pytest

import repro
from perfbench.trace import TARGETS
from repro.core.query import SearchOptions
from repro.index.executor import execute
from repro.index.graph_wave import graph_wave_search
from repro.index.search import joint_search
from repro.index.segments import SegmentedIndex, SegmentView
from repro.service import IndexSnapshot, MustService, ServiceConfig

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


@pytest.mark.parametrize(
    "constructor", [SegmentedIndex.__init__, SegmentedIndex.from_graph]
)
def test_the_segmented_index_takes_no_delta_graph_options(constructor):
    assert not {"hnsw", "seed"} & set(inspect.signature(constructor).parameters)


def _imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def test_segments_import_no_incremental_graph():
    imported = _imports(PACKAGE / "index" / "segments.py")
    assert "repro.index.pipeline" in imported
    assert not {m for m in imported if m.startswith("repro.index.graphs")}


def test_exact_answers_have_no_knob():
    """The band is derived and there is one kernel: nothing to pass."""
    banned = {"margin", "exact_margin", "deterministic"}
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                spec = node.args
                names = spec.posonlyargs + spec.args + spec.kwonlyargs
                found += [
                    f"{path.relative_to(PACKAGE)}:{node.lineno} {arg.arg}"
                    for arg in names
                    if arg.arg in banned
                ]
    assert found == []
    assert len(dataclasses.fields(ServiceConfig)) == 6
    assert len(dataclasses.fields(SearchOptions)) == 9
    assert "os" not in _imports(PACKAGE / "core" / "space.py")
    exact = [name for name in vars(SegmentView) if name.startswith("exact")]
    assert exact == ["exact_wave"]


def test_every_traced_name_resolves():
    """``perfbench.trace`` wraps public callables by ``vars()`` lookup
    and raises on the first one missing — in the benchmark driver; a
    rename should fail here first."""
    assert len(TARGETS) > 30
    for target in TARGETS:
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = vars(owner)[part]
        assert callable(getattr(owner, attr)), target
        assert attr in vars(owner), target


def strict_modules() -> list[Path]:
    """Files of the modules ``pyproject.toml`` checks with
    ``disallow_untyped_defs`` (``pkg.*`` is the package and everything
    under it, as in mypy)."""
    config = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    files: set[Path] = set()
    for override in config["tool"]["mypy"]["overrides"]:
        if not override.get("disallow_untyped_defs"):
            continue
        for pattern in override["module"]:
            stem = PACKAGE.parent.joinpath(*pattern.removesuffix(".*").split("."))
            if pattern.endswith(".*"):
                files |= set(stem.rglob("*.py"))
            elif stem.is_dir():
                files.add(stem / "__init__.py")
            else:
                files.add(stem.with_suffix(".py"))
    return sorted(files)


def untyped_defs(path: Path) -> list[str]:
    """``name (line N)`` for every ``def`` in *path* that leaves a
    parameter or its return unannotated — ``self`` / ``cls`` and the
    return of ``__init__`` exempt, as under mypy."""
    tree = ast.parse(path.read_text())
    methods = {
        item
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    found = []
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        params = spec.posonlyargs + spec.args + spec.kwonlyargs
        params += [a for a in (spec.vararg, spec.kwarg) if a is not None]
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        if node in methods and not static:
            params = params[1:]
        complete = all(p.annotation is not None for p in params) and (
            node.returns is not None or node.name == "__init__"
        )
        if not complete:
            found.append(f"{node.name} (line {node.lineno})")
    return found


def test_strict_modules_are_fully_annotated():
    files = strict_modules()
    found = {
        str(path.relative_to(PACKAGE)): untyped
        for path in files
        if (untyped := untyped_defs(path))
    }
    assert len(files) >= 22 and found == {}


def test_the_annotation_scan_sees_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class C:\n"
        "    def __init__(self, x: int): ...\n"
        "    def method(self, x: int) -> int: ...\n"
        "    def bare(self, x) -> int: ...\n"
        "    @staticmethod\n"
        "    def static(x) -> int: ...\n"
        "def no_return(x: int): ...\n"
        "def starred(*args, **kwargs: int) -> None: ...\n"
        "def fine(x: int, *, y: str = '') -> None:\n"
        "    def nested(z): ...\n"
    )
    assert untyped_defs(module) == [
        "bare (line 4)", "static (line 6)", "no_return (line 7)",
        "starred (line 8)", "nested (line 10)",
    ]
