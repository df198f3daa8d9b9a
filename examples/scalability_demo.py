"""Scalability: fused-index search vs brute force as the corpus grows.

Builds MUST on ImageText corpora of increasing size (the paper's
ImageText1M→16M sweep, laptop-scaled) and reports per-query latency and
similarity-evaluation counts for the graph vs a full scan (Tab. VII's
shape: brute force grows linearly, the fused index stays near-flat).
Also demonstrates index persistence: build once, save, reload, search.

Run:  python examples/scalability_demo.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import MUST, Query, SearchOptions
from repro.baselines import BruteForceMUST
from repro.datasets import make_imagetext
from repro.datasets.largescale import encode_largescale, exact_ground_truth
from repro.metrics import mean_recall, measure_qps


def main() -> None:
    print(f"{'scale':>8s} {'flat ms/q':>10s} {'graph ms/q':>11s} "
          f"{'graph evals':>12s} {'recall@10':>10s}")
    must = None
    enc = None
    for n in (2_000, 8_000, 20_000):
        sem = make_imagetext(n=n, num_queries=40, seed=23)
        enc = encode_largescale(sem)
        must = MUST.from_dataset(enc)
        positives = np.asarray([g[0] for g in enc.ground_truth[:20]])
        must.fit_weights(enc.queries[:20], positives, epochs=120,
                         learning_rate=0.2)
        must.build()

        gt = exact_ground_truth(enc, must.weights, k=10)
        flat = BruteForceMUST(enc.objects, must.weights).build()
        flat_run = measure_qps(lambda q: flat.search(q, k=10), enc.queries)
        graph_run = measure_qps(
            lambda q: must.query(Query(q), SearchOptions(k=10, l=120)),
            enc.queries,
        )
        recall = mean_recall([r.ids for r in graph_run.results], list(gt), 10)
        evals = np.mean([r.stats.joint_evals for r in graph_run.results])
        print(f"{n:>8,d} {flat_run.mean_latency*1e3:>10.2f} "
              f"{graph_run.mean_latency*1e3:>11.2f} {evals:>12.0f} "
              f"{recall:>10.3f}")

    # --- persistence: save the last index and reload it -----------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "imagetext.idx"
        must.save_index(path)
        fresh = MUST.from_dataset(enc).load_index(path)
        opts = SearchOptions(k=5, l=80)
        a = must.query(Query(enc.queries[0]), opts)
        b = fresh.query(Query(enc.queries[0]), opts)
        assert np.array_equal(a.ids, b.ids)
        # A save is a directory: the manifest plus one archive per segment.
        size = sum(f.stat().st_size for f in path.iterdir())
        print(f"\nindex persisted to {path.name}/ "
              f"({size / 2**20:.2f} MB, vectors included) and reloaded: "
              f"identical results")


if __name__ == "__main__":
    main()
