"""Tests for the benchmark harness (formatting, persistence, registry)."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.bench.harness import Table, format_table, save_table
from repro.bench.report import _registry

ROOT = Path(__file__).resolve().parents[1]


class TestTableFormatting:
    def _table(self) -> Table:
        return Table(
            "Tab. T", "demo", ["A", "Metric"],
            [["x", 0.123456], ["longer-name", 1.0]],
            notes="a note",
        )

    def test_format_contains_everything(self):
        text = format_table(self._table())
        assert "Tab. T" in text and "demo" in text
        assert "0.1235" in text  # floats rendered at 4 decimals
        assert "longer-name" in text
        assert "note: a note" in text

    def test_columns_aligned(self):
        text = format_table(self._table())
        lines = text.splitlines()
        header, sep = lines[1], lines[2]
        assert len(header) == len(sep)

    def test_row_str_types(self):
        table = self._table()
        assert table.row_str([1, 2.5, "x"]) == ["1", "2.5000", "x"]

    def test_save_table_roundtrip(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        path = harness.save_table(self._table(), "demo")
        assert path.exists()
        assert "Tab. T" in path.read_text()


class TestReportRegistry:
    def test_registry_covers_every_paper_artifact(self):
        stems = [stem for stem, _ in _registry()]
        # The experiment index of DESIGN.md §4 — every table and figure.
        for artifact in (
            "tab3", "tab4", "tab5", "tab6", "tab7", "tab8", "tab9",
            "tab10", "tab11", "tab12", "tab21",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10ab", "fig10c",
            "fig11", "fig13", "fig14",
        ):
            assert any(stem.startswith(artifact) or artifact in stem
                       for stem in stems), f"{artifact} missing from registry"

    def test_registry_stems_unique(self):
        stems = [stem for stem, _ in _registry()]
        assert len(stems) == len(set(stems))


class TestBenchSuiteIntegrity:
    @pytest.mark.parametrize(
        "stem", sorted(p.stem for p in (ROOT / "benchmarks").glob("bench_*.py"))
    )
    def test_bench_module_imports(self, stem):
        importlib.import_module(f"benchmarks.{stem}")

    @pytest.mark.parametrize(
        "doc",
        ["README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"],
    )
    def test_documented_paths_exist(self, doc):
        named = set(
            re.findall(
                r"(?:benchmarks|perfbench)/[\w./-]*\w|BENCH\w*\.json",
                (ROOT / doc).read_text(),
            )
        )
        assert named, f"{doc} names no benchmark path"
        missing = sorted(path for path in named if not (ROOT / path).exists())
        assert not missing, f"{doc} names paths that do not exist: {missing}"
