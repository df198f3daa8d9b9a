"""Case studies: Fig. 5 (top-5 retrieval) and Fig. 11 (index neighbours).

These reproduce the paper's qualitative figures as labelled text — the
generators carry human-readable labels for every object, so the
"images" of Fig. 5/11 become their captions.
"""

from __future__ import annotations

import numpy as np

from repro.bench import cache
from repro.bench.harness import Table
from repro.core.query import Query, SearchOptions

__all__ = ["fig5_case_study", "fig11_neighbors"]


def fig5_case_study(query_index: int | None = None) -> Table:
    """Fig. 5: top-5 of MUST / MR / JE for one MIT-States edit query."""
    sem = cache.semantic_dataset("mitstates")
    enc, must, test = cache.trained_must("mitstates", "resnet50", ("lstm",))
    mr = cache.mr_baseline("mitstates", "resnet50", ("lstm",))
    je = cache.je_baseline("mitstates", "clip", ("lstm",))
    enc_clip = cache.encoded("mitstates", "clip", ("lstm",))

    qi = int(test[0]) if query_index is None else query_index
    gt = set(int(g) for g in enc.ground_truth[qi])

    def label(obj_id: int) -> str:
        mark = " <-- ground truth" if int(obj_id) in gt else ""
        return f"{sem.object_labels[int(obj_id)]}{mark}"

    rows = []
    must_ids = must.query(
        Query(enc.queries[qi]), SearchOptions(k=5, l=128)
    ).ids
    mr_ids = mr.search(enc.queries[qi], k=5, candidates_per_modality=100).ids
    je_ids = je.search(enc_clip.queries_option2[qi], k=5, l=128).ids
    for rank in range(5):
        rows.append([
            rank + 1, label(must_ids[rank]), label(mr_ids[rank]),
            label(je_ids[rank]),
        ])
    return Table(
        "Fig. 5", f"Case study — query: {sem.query_labels[qi]}",
        ["Rank", "MUST", "MR", "JE"], rows,
        notes="Ground-truth objects are marked; MUST satisfies both the "
              "reference noun and the requested state.",
    )


def fig11_neighbors(vertex: int | None = None) -> Table:
    """Fig. 11: top-3 neighbours of one CelebA vertex, MUST vs MR indexes."""
    sem = cache.semantic_dataset("celeba")
    enc, must, _ = cache.trained_must("celeba", "clip", ("encoding",))
    mr = cache.mr_baseline("celeba", "clip", ("encoding",))

    v = int(must.index.seed_vertex) if vertex is None else vertex
    space = must.space

    def top3(neighbor_ids: np.ndarray, score_fn) -> list[str]:
        scored = sorted(
            ((score_fn(int(u)), int(u)) for u in neighbor_ids), reverse=True
        )[:3]
        return [f"{sem.object_labels[u]} (sim={s:.3f})" for s, u in scored]

    must_n = top3(must.index.neighbors[v], lambda u: space.pair(v, u))
    rows = []
    mr_indexes = mr._indexes  # noqa: SLF001 - inspection for the case study
    mod0 = top3(
        mr_indexes[0].neighbors[v],
        lambda u: float(enc.objects.modality(0)[v] @ enc.objects.modality(0)[u]),
    )
    mod1 = top3(
        mr_indexes[1].neighbors[v],
        lambda u: float(enc.objects.modality(1)[v] @ enc.objects.modality(1)[u]),
    )
    for rank in range(3):
        rows.append([rank + 1, must_n[rank], mod0[rank], mod1[rank]])
    return Table(
        "Fig. 11", f"Top-3 index neighbours of '{sem.object_labels[v]}'",
        ["Rank", "MUST (joint)", "MR modality 0", "MR modality 1"], rows,
        notes="MUST's neighbours balance identity and attributes; each MR "
              "index sees one modality only.",
    )
