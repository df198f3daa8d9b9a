"""Table formatting and persistence for the benchmark harness.

Every experiment function returns a :class:`Table`; the pytest-benchmark
wrappers print it and archive it under ``benchmarks/results/`` so the
EXPERIMENTS.md record can be regenerated from the same artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["Table", "format_table", "save_table", "RESULTS_DIR"]

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


@dataclass
class Table:
    """One reproduced paper artifact (table or figure series)."""

    experiment_id: str  # e.g. "Tab. III"
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""

    def row_str(self, row: list) -> list[str]:
        out = []
        for cell in row:
            if isinstance(cell, float):
                out.append(f"{cell:.4f}")
            else:
                out.append(str(cell))
        return out


def format_table(table: Table) -> str:
    """Render a Table as aligned monospace text."""
    str_rows = [table.row_str(r) for r in table.rows]
    widths = [len(h) for h in table.headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {table.experiment_id}: {table.title} =="]
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(table.headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    if table.notes:
        lines.append(f"note: {table.notes}")
    return "\n".join(lines)


def save_table(table: Table, stem: str) -> Path:
    """Write the rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{stem}.txt"
    path.write_text(format_table(table) + "\n")
    return path
