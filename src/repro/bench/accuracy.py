"""Accuracy experiments: Tables III–VI, VIII–X, XIX–XXI.

Each function reproduces one paper table: the three frameworks (JE / MR /
MUST) are evaluated on the same encoded corpus with the same metric,
``Recall@k(1)`` (hit rate against the planted ground truth) plus SME.
MR is given its best candidate budget per row, as the paper did (§VIII-F
reports tuning MR's candidates for its best Recall).
"""

from __future__ import annotations

import numpy as np

from repro.bench import cache
from repro.bench.harness import Table
from repro.core.query import Query, SearchOptions
from repro.core.weights import Weights
from repro.metrics import mean_hit_rate, mean_sme

__all__ = [
    "accuracy_table",
    "tab3_mitstates",
    "tab4_celeba",
    "tab5_shopping_tshirt",
    "tab21_shopping_bottoms",
    "tab6_mscoco",
    "tab8_modalities",
    "tab9_user_weights",
    "tab10_single_modality",
]

_MR_BUDGETS = (50, 100, 200)
_SEARCH_L = 128


def _evaluate(name, framework, target, auxiliaries, ks, opt2):
    """(recalls at ks, SME) for one framework row."""
    enc = cache.encoded(name, target, auxiliaries)
    _, test = cache.train_test_split(name)
    queries_all = (
        enc.queries_option2
        if (opt2 and enc.queries_option2)
        else enc.queries_option1
    )
    queries = [queries_all[i] for i in test]
    gt = [enc.ground_truth[i] for i in test]

    if framework == "MUST":
        _, must, _ = cache.trained_must(name, target, auxiliaries)
        plan = SearchOptions(k=max(ks), l=_SEARCH_L)
        results = [must.query(Query(q), plan).ids for q in queries]
    elif framework == "MR":
        mr = cache.mr_baseline(name, target, auxiliaries)
        best, best_r = None, -1.0
        for budget in _MR_BUDGETS:
            res = [
                mr.search(q, k=max(ks), candidates_per_modality=budget).ids
                for q in queries
            ]
            r = mean_hit_rate(res, gt, ks[0])
            if r > best_r:
                best, best_r = res, r
        results = best
    elif framework == "JE":
        je = cache.je_baseline(name, target, auxiliaries)
        results = [je.search(q, k=max(ks), l=_SEARCH_L).ids for q in queries]
    else:  # pragma: no cover - guarded by callers
        raise KeyError(framework)

    recalls = [mean_hit_rate(results, gt, k) for k in ks]
    error = mean_sme(
        enc.objects.modality(0), [r[0] for r in results], gt
    )
    return recalls, error


def accuracy_table(
    experiment_id: str,
    title: str,
    name: str,
    je_rows: list[tuple[str, tuple[str, ...]]],
    mr_rows: list[tuple[str, tuple[str, ...], bool]],
    must_rows: list[tuple[str, tuple[str, ...], bool]],
    ks: tuple[int, ...] = (1, 5, 10),
) -> Table:
    """Generic Tab. III–VI builder: one row per (framework, combo)."""
    headers = ["Framework", "Encoder"] + [f"Recall@{k}(1)" for k in ks] + ["SME"]
    rows: list[list] = []
    for target, aux in je_rows:
        recalls, err = _evaluate(name, "JE", target, aux, ks, opt2=True)
        enc = cache.encoded(name, target, aux)
        rows.append(["JE", enc.combo.label.split("+")[0], *recalls, err])
    for target, aux, opt2 in mr_rows:
        recalls, err = _evaluate(name, "MR", target, aux, ks, opt2=opt2)
        enc = cache.encoded(name, target, aux)
        rows.append(["MR", enc.combo.label, *recalls, err])
    for target, aux, opt2 in must_rows:
        recalls, err = _evaluate(name, "MUST", target, aux, ks, opt2=opt2)
        enc = cache.encoded(name, target, aux)
        rows.append(["MUST", enc.combo.label, *recalls, err])
    return Table(experiment_id, title, headers, rows)


def tab3_mitstates() -> Table:
    combos = [
        ("resnet17", ("lstm",)),
        ("resnet50", ("lstm",)),
        ("resnet17", ("transformer",)),
        ("resnet50", ("transformer",)),
        ("tirg", ("lstm",)),
        ("tirg", ("transformer",)),
        ("clip", ("lstm",)),
        ("clip", ("transformer",)),
    ]
    return accuracy_table(
        "Tab. III", "Search accuracy on MIT-States", "mitstates",
        je_rows=[("tirg", ("lstm",)), ("clip", ("lstm",))],
        mr_rows=[(t, a, True) for t, a in combos],
        must_rows=[(t, a, True) for t, a in combos],
    )


def tab4_celeba() -> Table:
    combos = [
        ("resnet17", ("encoding",)),
        ("resnet50", ("encoding",)),
        ("tirg", ("encoding",)),
        ("clip", ("encoding",)),
    ]
    return accuracy_table(
        "Tab. IV", "Search accuracy on CelebA", "celeba",
        je_rows=[("tirg", ("encoding",)), ("clip", ("encoding",))],
        mr_rows=[(t, a, True) for t, a in combos],
        must_rows=[(t, a, True) for t, a in combos],
    )


def tab5_shopping_tshirt() -> Table:
    return accuracy_table(
        "Tab. V", "Search accuracy on Shopping (T-shirt)", "shopping_tshirt",
        je_rows=[("tirg", ("encoding",))],
        mr_rows=[("resnet17", ("encoding",), True), ("tirg", ("encoding",), True)],
        must_rows=[("resnet17", ("encoding",), True), ("tirg", ("encoding",), True)],
    )


def tab21_shopping_bottoms() -> Table:
    return accuracy_table(
        "Tab. XXI", "Search accuracy on Shopping (Bottoms)", "shopping_bottoms",
        je_rows=[("tirg", ("encoding",))],
        mr_rows=[("resnet17", ("encoding",), True), ("tirg", ("encoding",), True)],
        must_rows=[("resnet17", ("encoding",), True), ("tirg", ("encoding",), True)],
    )


def tab6_mscoco() -> Table:
    combos = [("mpc", ("resnet50", "gru")), ("resnet50", ("resnet50", "gru"))]
    return accuracy_table(
        "Tab. VI", "Search accuracy on MS-COCO (3 modalities)", "mscoco",
        je_rows=[("mpc", ("resnet50", "gru"))],
        mr_rows=[(t, a, True) for t, a in combos],
        must_rows=[(t, a, True) for t, a in combos],
        ks=(10, 50, 100),
    )


def tab8_modalities() -> Table:
    """Tab. VIII: recall vs number of modalities on CelebA+."""
    headers = ["# Modality (m)", "MR Recall@1(1)", "MUST Recall@1(1)"]
    rows = []
    for m in (2, 3, 4):
        name, target, aux = cache.celeba_plus_combo(m)
        enc = cache.encoded(name, target, aux)
        _, test = cache.train_test_split(name)
        queries = [enc.queries[i] for i in test]
        gt = [enc.ground_truth[i] for i in test]
        _, must, _ = cache.trained_must(name, target, aux)
        must_r = mean_hit_rate(
            [
                must.query(Query(q), SearchOptions(k=10, l=_SEARCH_L)).ids
                for q in queries
            ], gt, 1
        )
        mr = cache.mr_baseline(name, target, aux)
        mr_r = max(
            mean_hit_rate(
                [mr.search(q, 10, candidates_per_modality=b).ids for q in queries],
                gt, 1,
            )
            for b in _MR_BUDGETS
        )
        rows.append([m, mr_r, must_r])
    return Table(
        "Tab. VIII", "Recall with different numbers of modalities (CelebA+)",
        headers, rows,
        notes="MUST improves with m; MR's merging degrades as streams grow.",
    )


def tab9_user_weights() -> Table:
    """Tab. IX: user-defined weights trade target vs auxiliary similarity."""
    enc, must, test = cache.trained_must("mitstates", "resnet50", ("lstm",))
    queries = [enc.queries[i] for i in test]
    headers = ["w0^2", "w1^2", "IP(q0, r0)", "IP(q1, r1)"]
    rows = []
    for w0 in (0.5, 0.6, 0.7, 0.8, 0.9):
        weights = Weights([w0, 1.0 - w0])
        ip0, ip1 = [], []
        for q in queries:
            top = must.query(
                Query(q, weights=weights), SearchOptions(k=1, l=_SEARCH_L)
            )
            r = int(top.ids[0])
            ip0.append(float(enc.objects.modality(0)[r] @ q.vectors[0]))
            ip1.append(float(enc.objects.modality(1)[r] @ q.vectors[1]))
        rows.append([w0, round(1.0 - w0, 1),
                     float(np.mean(ip0)), float(np.mean(ip1))])
    return Table(
        "Tab. IX", "Effect of user-defined weights (MIT-States)",
        headers, rows,
        notes="Raising w0 pulls results towards the target modality input.",
    )


def tab10_single_modality() -> Table:
    """Tab. X / XIX / XX: single-query-modality accuracy."""
    headers = ["Dataset", "Modality", "Encoder", "Recall@1(1)", "Recall@5(1)"]
    rows = []
    specs = [
        ("mitstates", "Target", "resnet17", ("lstm",), 0),
        ("mitstates", "Target", "resnet50", ("lstm",), 0),
        ("mitstates", "Auxiliary", "resnet50", ("lstm",), 1),
        ("mitstates", "Auxiliary", "resnet50", ("transformer",), 1),
        ("celeba", "Target", "resnet50", ("encoding",), 0),
        ("celeba", "Auxiliary", "resnet50", ("encoding",), 1),
        ("shopping_tshirt", "Target", "resnet17", ("encoding",), 0),
        ("shopping_tshirt", "Auxiliary", "resnet17", ("encoding",), 1),
    ]
    for name, which, target, aux, modality in specs:
        enc = cache.encoded(name, target, aux)
        _, test = cache.train_test_split(name)
        _, must, _ = cache.trained_must(name, target, aux)
        singles = enc.queries_single_modality(modality)
        queries = [singles[i] for i in test]
        gt = [enc.ground_truth[i] for i in test]
        plan = SearchOptions(k=5, l=_SEARCH_L)
        results = [must.query(Query(q), plan).ids for q in queries]
        encoder = (enc.combo.label.split("+")[0] if modality == 0
                   else enc.combo.label.split("+")[1])
        rows.append([
            enc.name, which, encoder,
            mean_hit_rate(results, gt, 1), mean_hit_rate(results, gt, 5),
        ])
    return Table(
        "Tab. X/XIX/XX", "Single query-modality accuracy",
        headers, rows,
        notes="Single-modality queries trail multimodal ones on every corpus.",
    )
