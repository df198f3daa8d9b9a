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
        # The experiment index (report._registry) — every table and figure.
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


# The benchmark suite's groups of paper artifacts, each a set of cases of
# benchmarks/bench_paper.py, keyed by the group's name in the suite.
BENCH_GROUPS = {
    "bench_fig10_graphs": ("fig10ab_graph_zoo",),
    "bench_fig10c_multivector": ("fig10c_multivector",),
    "bench_fig14_gamma": ("fig14_gamma",),
    "bench_fig5_case_study": ("fig5_case_study", "fig11_neighbors"),
    "bench_fig6_qps_recall": (
        "fig6_imagetext", "fig6_audiotext", "fig6_videotext",
    ),
    "bench_fig7_build": ("fig7_build_cost",),
    "bench_fig8_topk": ("fig8_topk",),
    "bench_fig9_weightlearn": ("fig9_negatives", "fig13_negative_counts"),
    "bench_tab10_single_modality": ("tab10_single_modality",),
    "bench_tab11_iterations": ("tab11_iterations",),
    "bench_tab12_beam": ("tab12_beam_width",),
    "bench_tab3_mitstates": ("tab3_mitstates",),
    "bench_tab4_celeba": ("tab4_celeba",),
    "bench_tab5_shopping": ("tab5_shopping_tshirt", "tab21_shopping_bottoms"),
    "bench_tab6_mscoco": ("tab6_mscoco",),
    "bench_tab7_scaling": ("tab7_data_volume",),
    "bench_tab8_modalities": ("tab8_modalities",),
    "bench_tab9_userweights": ("tab9_user_weights",),
}


class TestBenchSuiteIntegrity:
    @pytest.mark.parametrize("group", sorted(BENCH_GROUPS))
    def test_bench_module_imports(self, group):
        """The module imports and holds a callable case per artifact."""
        module = importlib.import_module("benchmarks.bench_paper")
        cases = dict(module.ENTRIES)
        for stem in BENCH_GROUPS[group]:
            assert callable(cases.get(stem)), f"{stem} is not a bench case"

    def test_bench_groups_cover_the_registry_once(self):
        grouped = [stem for stems in BENCH_GROUPS.values() for stem in stems]
        assert sorted(grouped) == sorted(stem for stem, _ in _registry())
        assert sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py")) \
            == ["bench_paper.py"]

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
