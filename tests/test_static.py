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
one ``exact*`` method on a view, one graph engine, one lexical scorer,
one writer of index archives, no float16 store, one dense metric (inner
product), one frontier scorer for the rows off its concat fast path,
one graph pipeline (KGraph, NSG and NSSG are its recipes), CI's
``mypy --strict`` file list in step with ``pyproject.toml``'s, and every
name the benchmark's tracer binds still where it looks.  The
C kernel gets the checks a compiler would not make: every exported
function declared to ctypes as the source defines it, and build flags
that keep its float contract.  It is also the one runtime path: no
module keeps a NumPy twin of a kernel or asks whether it loaded.
"""

from __future__ import annotations

import ast
import ctypes
import dataclasses
import importlib
import inspect
import re
import textwrap
import tomllib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import native
from perfbench.trace import TARGETS
from repro.core.query import SearchOptions
from repro.index.base import GraphIndex
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
    assert len(MODULES) >= 80 and found == {}


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


def test_lemma3_is_the_tests_job():
    """Lemma 3 is asserted by the test suite's hook
    (``conftest.lemma3_checked``), not by the engine: no module names
    the check or a plan field for it, and no thread pool is left."""
    retired = re.compile(r"\b(check_monotone|_check_lemma3|thread_map)\b")
    found = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in MODULES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if retired.search(line)
    ]
    assert found == []
    assert not (PACKAGE / "utils" / "parallel.py").exists()


def test_lemma4_is_counted_not_run():
    """No search plan prunes by Lemma 4: no module of the search stack
    names the flag or the pruned pass, ``RowScorer`` scores one way,
    and the plan runners take no such argument.  Fig. 10(c) counts
    Lemma 4 on the reference in :mod:`repro.bench.efficiency`."""
    from repro.index.executor import BatchExecutor
    from repro.index.graph_wave import lockstep
    from repro.index.scoring import RowScorer

    retired = re.compile(r"\b(early_termination|_pruned|_steps)\b")
    found = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for layer in ("core", "index", "service", "store")
        for path in sorted((PACKAGE / layer).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if retired.search(line)
    ]
    assert found == []
    for entry in (
        *SEARCH_ENTRY_POINTS, lockstep, RowScorer.__init__,
        BatchExecutor.run_graph_wave, BatchExecutor.run_segmented,
    ):
        assert "early_termination" not in inspect.signature(entry).parameters


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
    assert len(dataclasses.fields(SearchOptions)) == 7
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


def test_one_lexical_scorer_and_no_float16_store():
    """The posting-list scatter is the one lexical scorer and float16
    is no store kind: no signature under ``src/repro`` takes an engine
    choice, the brute-force scan and the float16 store live nowhere in
    the source, and ``SearchOptions`` keeps its seven fields, with
    ``sparse_engine="exact"`` refused."""
    from repro.store import STORE_KINDS

    found = []
    for path in MODULES:
        source = path.read_text()
        for name in ("sparse_scores_bruteforce", "sparse_scores_reference",
                     "HalfStore"):
            if name in source:
                found.append(f"{path.relative_to(PACKAGE)} names {name}")
        for node in ast.walk(ast.parse(source)):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                spec = node.args
                found += [
                    f"{path.relative_to(PACKAGE)}:{node.lineno} {arg.arg}"
                    for arg in spec.posonlyargs + spec.args + spec.kwonlyargs
                    if arg.arg in ("engine", "sparse_engine")
                ]
    assert found == []
    assert set(STORE_KINDS) == {"none", "int8", "pq"}
    assert len(dataclasses.fields(SearchOptions)) == 7
    with pytest.raises(ValueError, match="did you mean"):
        SearchOptions(sparse_engine="exact")


def test_no_sharded_serving_tier():
    """The in-process service is the one serving tier: the sharded
    tier's modules are gone, no entry point or index keeps a
    ``serve_sharded`` / ``shard`` hook, ``SearchOptions`` has no
    ``updated`` copy helper, and no source file names a
    multiprocessing start method."""
    import repro.service
    from repro.core.framework import MUST
    from repro.core.multivector import MultiVectorSet
    from repro.core.weights import Weights
    from repro.service import CollectionManager

    for name in ("repro.service.sharded", "repro.utils.shm"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    assert not {"ShardedService", "ShardFailed"} & set(dir(repro.service))
    must = MUST(MultiVectorSet([np.eye(4, dtype=np.float32)]))
    for owner in (must, CollectionManager(), SegmentedIndex(Weights([1.0]))):
        for attr in ("serve_sharded", "shard"):
            assert not hasattr(owner, attr), (type(owner).__name__, attr)
    assert not hasattr(SearchOptions, "updated")
    sources = [*MODULES, *PACKAGE.rglob("*.c")]
    assert [
        str(path.relative_to(PACKAGE))
        for path in sources if "mp_start" in path.read_text()
    ] == []


def test_one_dense_metric():
    """Every dense modality scores by inner product: the metric
    registry is gone, no constructor takes a ``metrics`` declaration,
    and no source file keeps a per-metric fork."""
    from repro.core.framework import MUST
    from repro.core.multivector import MultiVectorSet

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.registry")
    for entry in (MUST, MultiVectorSet, MultiVectorSet.from_store):
        assert "metrics" not in inspect.signature(entry).parameters, entry
    retired = re.compile(r"\b(is_ip_only|dense_score_rows|declared_metrics)\b")
    assert [
        str(path.relative_to(PACKAGE))
        for path in MODULES if retired.search(path.read_text())
    ] == []


def test_one_frontier_scorer():
    """Every wave row scores through the one native row scorer: the
    per-query scorers and kernels, ``StackedScorer`` and the Python step
    loop are gone from the source — no module names them, and none but
    :mod:`repro.native` calls ``wave_expand`` / ``wave_merge`` (the test
    suite's step loop does) — every registered store hands out one
    kernel, a plain :class:`~repro.store.ModalityKernel` operand the
    scorer reads, and full scans go through ``batch_scores``; a
    traversal and a scan are each one native call, with no loop in
    Python; the kernel exports ``score_rows`` and no per-kind scorer;
    NNDescent has one sweep, and neither it nor the MR baseline's batch
    takes ``n_jobs``."""
    from repro.baselines import MultiStreamedRetrieval
    from repro.index.graph_wave import _Wave
    from repro.index.nndescent import nndescent
    from repro.index.pipeline import FusedIndexBuilder
    from repro.index.scoring import RowScorer
    from repro.store import STORE_KINDS, ModalityKernel, VectorStore, make_store

    retired = re.compile(
        r"\b(Scorer|MatrixScorer|_HalfKernel|_MatKernel|_SQKernel|_ADCKernel"
        r"|StackedKernel|query_kernels?|query_all|query_ids"
        r"|query_ids_early_stop|StackedScorer|score_stack|_StackedMatKernel"
        r"|_StackedSQKernel|_StackedADCKernel|_adc_gather|gather_dot"
        r"|adc_gather|all_fast)\b"
    )
    found = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in MODULES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if retired.search(line)
    ]
    assert found == []
    stepping = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in MODULES
        if path.name != "native.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("wave_expand", "wave_merge")
    ]
    assert stepping == []
    assert {"stacked_kernel", "batch_scores"} <= VectorStore.__abstractmethods__
    assert not hasattr(VectorStore, "query_kernel")
    assert not ModalityKernel.__subclasses__()
    mat = np.eye(20, 8, dtype=np.float32)
    for kind, cls in STORE_KINDS.items():
        assert not cls.__abstractmethods__, cls
        assert not hasattr(cls, "query_kernel"), cls
        kernel = make_store(kind, [mat]).stacked_kernel(0, mat[:2])
        assert type(kernel) is ModalityKernel, kind
        assert kernel.kind in (native.DENSE_ROWS, native.INT8_ROWS, native.PQ_ROWS)
    assert "n_jobs" not in inspect.signature(nndescent).parameters
    assert "n_jobs" not in {f.name for f in dataclasses.fields(FusedIndexBuilder)}
    assert "n_jobs" not in inspect.signature(
        MultiStreamedRetrieval.batch_search
    ).parameters
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    for method in (_Wave.traverse, RowScorer.score):
        tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
        assert not [node for node in ast.walk(tree) if isinstance(node, loops)]
    assert len(native.SIGNATURES) == 9
    assert "score_rows" in native.SIGNATURES
    assert not {"gather_dot", "adc_gather"} & native.SIGNATURES.keys()


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
    """The service groups requests by their plan and hands it to
    ``execute`` unchanged: it reads no plan field beyond routing,
    exactness (for the wave counters) and ``k``."""
    read = _options_fields_read(PACKAGE / "service" / "service.py")
    assert read <= {"collection", "exact", "k"}, read
    assert not {"_wave_groups", "_exact_groups"} & set(vars(MustService))


def swallowed_exceptions(path: Path) -> list[str]:
    """``line N`` for every ``except Exception`` / ``except BaseException``
    handler in *path* that neither re-raises, nor binds the exception
    and reads it, nor calls ``logger.*``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if not any(
            isinstance(k, ast.Name) and k.id in ("Exception", "BaseException")
            for k in kinds
        ):
            continue
        body = [n for stmt in node.body for n in ast.walk(stmt)]
        handled = any(
            isinstance(n, ast.Raise)
            or (isinstance(n, ast.Name) and n.id == node.name
                and isinstance(n.ctx, ast.Load))
            or (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == "logger")
            for n in body
        )
        if not handled:
            found.append(f"line {node.lineno}")
    return found


def test_no_exception_is_swallowed():
    found = {
        str(path.relative_to(PACKAGE)): swallowed
        for path in MODULES
        if (swallowed := swallowed_exceptions(path))
    }
    assert found == {}


def test_the_except_scan_sees_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, BaseException) as exc:\n    x = 1\n"
        "try:\n    f()\nexcept Exception:\n    raise\n"
        "try:\n    f()\nexcept Exception as exc:\n    g(exc)\n"
        "try:\n    f()\nexcept Exception:\n    logger.warning('x')\n"
        "try:\n    f()\nexcept OSError:\n    pass\n"
    )
    assert swallowed_exceptions(module) == ["line 3", "line 7"]


def call_sites(name: str) -> list[str]:
    """``module:qualname`` of every function in ``src/repro`` that calls
    *name* (as ``name(...)`` or ``obj.name(...)``), once per call."""
    found = []

    def visit(node: ast.AST, module: str, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if called == name:
                    found.append(f"{module}:{'.'.join(scope)}")
            visit(child, module, scope)

    for path in MODULES:
        visit(ast.parse(path.read_text()), str(path.relative_to(PACKAGE)), [])
    return sorted(found)


def test_one_place_decides_how_rows_become_a_segment():
    """One seal path, one store rebind, one live-row walk: the store
    re-seat and the cold spill each have one caller, only the rebind
    helper (beside the set's own subset and the archive decode) wraps a
    store."""
    assert call_sites("reseat_on_store") == ["index/segments.py:seal_index"]
    assert call_sites("spill_cold") == ["index/segments.py:seal_index"]
    assert call_sites("from_store") == [
        "core/multivector.py:MultiVectorSet.subset",
        "core/space.py:JointSpace.rebind",
        "index/segments.py:SegmentedIndex._load_vectors",
    ]


def test_one_writer_of_index_archives():
    """Every ``.npz`` an index writes goes through the segmented save —
    a single graph saves as a one-segment directory — so crash-safe
    writing has one place to go; a graph has no save / load of its own."""
    assert call_sites("save_arrays") == [
        "index/segments.py:SegmentedIndex._save_segment"
    ]
    assert not hasattr(GraphIndex, "save") and not hasattr(GraphIndex, "load")


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
    source = (PACKAGE / native.SOURCE).read_text()
    exported = exported_c_functions(source)
    assert exported.keys() == native.SIGNATURES.keys()
    for name, (argtypes, restype) in native.SIGNATURES.items():
        returns, arity = exported[name]
        assert len(argtypes) == arity, name
        assert restype is C_RESULTS[returns], name
        function = getattr(native.lib, name)
        assert function.argtypes == argtypes and function.restype is restype


def c_function_body(source: str, name: str) -> str:
    """The text of file-scope function *name* in *source*, from its
    signature to its closing brace, whitespace runs read as one space."""
    start = re.search(rf"^[A-Za-z_][\w \t*]*\b{name}\s*\(", source, flags=re.M)
    assert start is not None, name
    end = re.compile(r"^}", flags=re.M).search(source, start.end())
    assert end is not None, name
    return " ".join(source[start.start() : end.end()].split())


def test_the_c_body_scan_sees_what_it_should():
    source = (
        "static int helper(int a)\n{\n    if (a) {\n        a++;\n    }\n"
        "    return a;\n}\n"
        "int64_t two(int b)\n{\n    return  b;\n}\n"
    )
    assert c_function_body(source, "helper").endswith("return a; }")
    assert c_function_body(source, "two") == "int64_t two(int b) { return b; }"


def test_the_equivalent_mutants_are_in_step_with_the_kernel():
    """Every mutant ``tests/equivalent_mutants.toml`` argues to be
    equivalent still names source text that occurs exactly once in its
    function of ``native.c``, and its mutated text occurs nowhere there:
    an edit that rewrites a listed site fails here, keyed by text, not by
    line number."""
    listed = tomllib.loads(
        (Path(__file__).parent / "equivalent_mutants.toml").read_text()
    )["mutant"]
    source = (PACKAGE / native.SOURCE).read_text()
    assert len(listed) == 4
    for entry in listed:
        body = c_function_body(source, entry["function"])
        site, mutant = (" ".join(entry[k].split()) for k in ("site", "mutant"))
        assert body.count(site) == 1, entry["site"]
        assert site != mutant and mutant not in body, entry["mutant"]
        assert entry["argument"].strip(), entry["site"]


def test_the_kernel_flags_keep_the_float_contract():
    """No FMA, no reassociation, nothing tuned to the build host."""
    assert "-ffp-contract=off" in native.FLAGS
    banned = {
        "-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native"
    }
    assert not banned & set(native.FLAGS)


def identifiers(source: str) -> set[str]:
    """Every name *source* binds or reads: variables, attributes,
    functions, classes, parameters, keywords and imports."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            found.add(node.name)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.add(node.arg)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name.split(".")[-1])
    return found


#: how a module would ask whether the kernel loaded.
KERNEL_CHECK = re.compile(r"\b(lib|kernel) is (not )?None\b")


def test_the_identifier_scan_sees_what_it_should():
    source = (
        "from m import bookkeeping as b\n"
        "class _NumpyBookkeeping:\n    pass\n"
        "def f(_lane_gram, **kw):\n    return g(x=1).needs_native\n"
    )
    assert {
        "b", "_NumpyBookkeeping", "f", "_lane_gram", "g", "x", "needs_native"
    } <= identifiers(source)
    assert "bookkeeping" not in identifiers("'''the bookkeeping'''\n")
    assert KERNEL_CHECK.search("if native.lib is None:")
    assert KERNEL_CHECK.search("if kernel is not None:")
    assert not KERNEL_CHECK.search("if kernel_count is None:")


def test_one_runtime_path():
    """``native.c`` is required, so ``src/repro`` names no NumPy twin of
    a kernel (the NumPy bookkeeping, its path query, the lane-loop Gram)
    and no no-kernel plan, never compares the kernel handle with
    ``None``, and the suite defines no skip marker for a missing kernel:
    the twins are the tests' oracles, in ``tests/oracles.py``."""
    retired = {"_NumpyBookkeeping", "bookkeeping", "_lane_gram"}
    found = [
        f"{path.relative_to(PACKAGE)}: {sorted(names)}"
        for path in MODULES
        if (names := retired & identifiers(path.read_text()))
    ]
    found += [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in MODULES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "graph/wave/numpy" in line or KERNEL_CHECK.search(line)
    ]
    assert found == []
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert not [p.name for p in tests if "needs_native" in identifiers(p.read_text())]
    assert isinstance(native.lib, ctypes.CDLL)


def test_one_graph_pipeline():
    """KGraph, NSG and NSSG are :class:`FusedIndexBuilder` recipes
    (``repro.index.BUILDERS``), not classes; α-pruning lives only in
    ``prune_one`` (Vamana and HNSW), and the pipeline keeps no setting
    that no caller sets: no α selection, angle parameter or extra meta."""
    retired = {
        "KGraphBuilder", "NSGBuilder", "NSSGBuilder", "rng_alpha_select",
        "extra_meta", "min_angle_deg",
    }
    found = [
        f"{path.relative_to(PACKAGE)}: {sorted(names)}"
        for path in MODULES
        if (names := retired & identifiers(path.read_text()))
    ]
    assert found == []


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


def ci_strict_files() -> list[Path]:
    """The files CI's ``mypy --strict`` step names: the ``.py`` words of
    the step, from its ``- name: mypy --strict`` line to the next line
    indented no deeper."""
    root = PACKAGE.parents[1]
    lines = (root / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.strip().startswith("- name: mypy --strict")
    )
    indent = len(lines[start]) - len(lines[start].lstrip())
    words: list[str] = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        words += line.split()
    return sorted(root / word for word in words if word.endswith(".py"))


def test_ci_checks_the_strict_modules():
    """CI's ``mypy --strict`` step names exactly the files
    ``pyproject.toml`` holds to ``disallow_untyped_defs``: a module added
    to one list and not the other is either never strict-checked in CI
    or fails it locally first."""
    assert ci_strict_files() == strict_modules()


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
