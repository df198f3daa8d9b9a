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
one ``exact*`` method on a view, one graph engine, and every name the
benchmark's tracer binds still where it looks.  The C kernel gets the
checks a compiler would not make: every exported function declared to
ctypes as the source defines it, and build flags that keep its float
contract.
"""

from __future__ import annotations

import ast
import ctypes
import dataclasses
import importlib
import inspect
import re
import tomllib
from pathlib import Path

import pytest

import repro
from perfbench.trace import TARGETS
from repro.core.query import SearchOptions
from repro.index import wave_kernel
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


def test_one_graph_engine():
    """The wave answers every graph query: no other engine is named in
    the source, and asking for one fails with the registry's error."""
    retired = {"heap", "paper"}
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.value!r}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value in retired
    ]
    assert found == []
    for name in retired:
        with pytest.raises(ValueError, match="did you mean|graph engine"):
            SearchOptions(engine=name)
    assert not hasattr(SegmentView, "search")


def _options_fields_read(path: Path) -> set[str]:
    """Every field read off a ``SearchOptions`` held as ``options`` /
    ``opts`` (a bare name or an attribute of that name)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        holder = node.value
        name = (
            holder.id if isinstance(holder, ast.Name)
            else holder.attr if isinstance(holder, ast.Attribute)
            else None
        )
        if name in ("options", "opts"):
            found.add(node.attr)
    return found


def test_serving_tiers_coalesce_and_execute_plans():
    """The serving tiers group requests by their plan and hand it to
    ``execute`` unchanged: they read no plan field beyond routing,
    exactness (for the wave counters) and ``k`` (for the shard merge);
    a shard worker has one batch search command; shard spawn walks the
    corpus once."""
    from repro.service import sharded

    for module in ("service", "sharded"):
        read = _options_fields_read(PACKAGE / "service" / f"{module}.py")
        assert read <= {"collection", "exact", "k"}, (module, read)
    worker = ast.parse(inspect.getsource(sharded._worker_main))
    commands = sorted(
        node.comparators[0].value
        for node in ast.walk(worker)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name) and node.left.id == "cmd"
    )
    assert len(commands) == 11
    assert [c for c in commands if c.startswith("search")] == [
        "search", "search_many"
    ]
    assert not {"exact_wave", "graph_wave"} & set(vars(sharded._ShardCollection))
    assert not hasattr(sharded, "_corpus_slices_mmap")
    assert not {"_wave_groups", "_exact_groups"} & set(vars(MustService))


def exported_c_functions(source: str) -> dict[str, tuple[str, int]]:
    """``{name: (return type, parameter count)}`` of every function
    *source* defines at file scope without ``static`` — what a ctypes
    loader can call."""
    found = {}
    pattern = r"^(?!static\b)([A-Za-z_][\w \t*]*?)\b(\w+)\s*\(([^;{)]*)\)\s*\{"
    for match in re.finditer(pattern, source, flags=re.M):
        returns, name, params = (part.strip() for part in match.groups())
        found[name] = (
            returns, 0 if params in ("", "void") else params.count(",") + 1
        )
    return found


def test_the_c_scan_sees_what_it_should():
    source = (
        "typedef struct {\n    int64_t b;\n} state;\n"
        "static int helper(int a)\n{\n    return a;\n}\n"
        "int64_t one(const state *s)\n{\n    if (s) {\n    }\n    return 0;\n}\n"
        "double two(const float *x, int64_t n,\n           double *out)\n{\n}\n"
        "void none(void)\n{\n}\n"
        "int64_t declared_only(int a);\n"
    )
    assert exported_c_functions(source) == {
        "one": ("int64_t", 1), "two": ("double", 3), "none": ("void", 0)
    }


#: the ctypes result type of each C return type the kernel may use.
C_RESULTS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}


def test_every_kernel_function_is_declared_to_ctypes():
    """ctypes reads an undeclared result as a 32-bit ``int``, so an
    ``int64_t`` status or count would truncate without a word; each
    exported function needs its ``argtypes`` and ``restype`` set by
    the loader to what the source says, and a loaded kernel carries
    them."""
    source = (PACKAGE / "index" / wave_kernel.SOURCE).read_text()
    exported = exported_c_functions(source)
    assert exported.keys() == wave_kernel.SIGNATURES.keys()
    for name, (argtypes, restype) in wave_kernel.SIGNATURES.items():
        returns, arity = exported[name]
        assert len(argtypes) == arity, name
        assert restype is C_RESULTS[returns], name
        if wave_kernel.lib is not None:
            function = getattr(wave_kernel.lib, name)
            assert function.argtypes == argtypes and function.restype is restype


def test_the_kernel_flags_keep_the_float_contract():
    """No FMA, no reassociation, nothing tuned to the build host."""
    assert "-ffp-contract=off" in wave_kernel.FLAGS
    banned = {
        "-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native"
    }
    assert not banned & set(wave_kernel.FLAGS)


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
