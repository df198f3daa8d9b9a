"""Run every experiment and render the EXPERIMENTS.md record.

Usage::

    python -m repro.bench.report            # all experiments (~10-15 min)
    python -m repro.bench.report Tab3 Fig6  # a subset by id prefix
"""

from __future__ import annotations

import sys
import time

from repro.bench.harness import Table, format_table, save_table

#: (stem, callable) in paper order; callables are imported lazily so a
#: subset run does not pay for unused modules.  The stem names the
#: archive under ``benchmarks/results/`` and the test id in
#: ``benchmarks/bench_paper.py``.
def _registry():
    from repro.bench import ablations, accuracy, case_study, efficiency

    return [
        ("tab3_mitstates", accuracy.tab3_mitstates),
        ("tab4_celeba", accuracy.tab4_celeba),
        ("tab5_shopping_tshirt", accuracy.tab5_shopping_tshirt),
        ("tab6_mscoco", accuracy.tab6_mscoco),
        ("fig5_case_study", case_study.fig5_case_study),
        ("fig6_imagetext", lambda: efficiency.fig6_qps_recall("image")),
        ("fig6_audiotext", lambda: efficiency.fig6_qps_recall("audio")),
        ("fig6_videotext", lambda: efficiency.fig6_qps_recall("video")),
        ("tab7_data_volume", efficiency.tab7_data_volume),
        ("fig7_build_cost", efficiency.fig7_build_cost),
        ("tab8_modalities", accuracy.tab8_modalities),
        ("fig8_topk", efficiency.fig8_topk),
        ("fig9_negatives", ablations.fig9_negative_strategies),
        ("tab9_user_weights", accuracy.tab9_user_weights),
        ("tab10_single_modality", accuracy.tab10_single_modality),
        ("fig10ab_graph_zoo", ablations.fig10ab_graph_zoo),
        ("fig10c_multivector", efficiency.fig10c_multivector),
        ("fig11_neighbors", case_study.fig11_neighbors),
        ("tab11_iterations", ablations.tab11_iterations),
        ("tab12_beam_width", efficiency.tab12_beam_width),
        ("fig13_negative_counts", ablations.fig13_negative_counts),
        ("fig14_gamma", ablations.fig14_gamma),
        ("tab21_shopping_bottoms", accuracy.tab21_shopping_bottoms),
    ]


def run(filters: list[str] | None = None) -> list[tuple[str, Table, float]]:
    """Execute (a subset of) the experiments, saving each table."""
    outputs = []
    for stem, fn in _registry():
        if filters and not any(f.lower() in stem for f in filters):
            continue
        start = time.perf_counter()
        table = fn()
        elapsed = time.perf_counter() - start
        save_table(table, stem)
        print(format_table(table))
        print(f"[{stem} finished in {elapsed:.1f}s]\n", flush=True)
        outputs.append((stem, table, elapsed))
    return outputs


def main() -> None:
    filters = [f.lower() for f in sys.argv[1:]] or None
    run(filters)


if __name__ == "__main__":
    main()
