"""Memoised experiment artifacts shared across benchmark files.

Graph builds and weight training are the expensive parts of the harness;
this module builds each (dataset, combo) artifact once per process so the
benchmark suite reuses them across every table and figure.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from repro.baselines import JointEmbeddingSearch, MultiStreamedRetrieval
from repro.core.framework import MUST
from repro.datasets import (
    EncoderCombo,
    encode_dataset,
    make_celeba,
    make_celeba_plus,
    make_largescale,
    make_mitstates,
    make_mscoco,
    make_shopping,
    split_queries,
)

__all__ = [
    "semantic_dataset",
    "encoded",
    "trained_must",
    "celeba_plus_combo",
    "mr_baseline",
    "je_baseline",
    "largescale_encoded",
    "largescale_must",
    "train_test_split",
]

def _int_knob(name: str, default: int) -> int:
    """Benchmark scale knob, overridable via the environment.

    CI smoke runs shrink the whole harness with e.g.
    ``REPRO_LARGESCALE_N=2000`` instead of editing this file.
    """
    return int(os.environ.get(name, default))


#: Benchmark scale knobs — one place to shrink everything for smoke runs.
LARGESCALE_N = _int_knob("REPRO_LARGESCALE_N", 20_000)
LARGESCALE_QUERIES = _int_knob("REPRO_LARGESCALE_QUERIES", 60)
ACCURACY_QUERIES = _int_knob("REPRO_ACCURACY_QUERIES", 240)
WEIGHT_EPOCHS = _int_knob("REPRO_WEIGHT_EPOCHS", 300)
WEIGHT_LR = 0.2


@lru_cache(maxsize=None)
def semantic_dataset(name: str):
    """Named semantic corpora at benchmark scale."""
    if name == "mitstates":
        return make_mitstates(num_queries=ACCURACY_QUERIES)
    if name == "celeba":
        return make_celeba(num_queries=ACCURACY_QUERIES)
    if name.startswith("celeba_plus_m"):
        m = int(name.rsplit("m", 1)[1])
        return make_celeba_plus(num_modalities=m, num_queries=ACCURACY_QUERIES)
    if name == "shopping_tshirt":
        return make_shopping("t-shirt", num_queries=ACCURACY_QUERIES)
    if name == "shopping_bottoms":
        return make_shopping("bottoms", num_queries=ACCURACY_QUERIES)
    if name == "mscoco":
        return make_mscoco(num_queries=200)
    raise KeyError(f"unknown dataset {name!r}")


@lru_cache(maxsize=None)
def encoded(name: str, target: str, auxiliaries: tuple[str, ...]):
    return encode_dataset(
        semantic_dataset(name), EncoderCombo(target, auxiliaries), seed=0
    )


@lru_cache(maxsize=None)
def train_test_split(name: str):
    sem = semantic_dataset(name)
    return split_queries(sem.num_queries, 0.5, seed=1)


@lru_cache(maxsize=None)
def trained_must(name: str, target: str, auxiliaries: tuple[str, ...]):
    """Weight-trained, index-built MUST plus its evaluation split."""
    enc = encoded(name, target, auxiliaries)
    train, test = train_test_split(name)
    must = MUST.from_dataset(enc)
    anchors = [enc.queries[i] for i in train]
    positives = np.asarray([enc.ground_truth[i][0] for i in train])
    must.fit_weights(
        anchors, positives, epochs=WEIGHT_EPOCHS, learning_rate=WEIGHT_LR
    )
    must.build()
    return enc, must, test


def celeba_plus_combo(m: int) -> tuple[str, str, tuple[str, ...]]:
    """``(dataset, target encoder, auxiliary encoders)`` of CelebA+ with
    *m* modalities — the corpora of paper Tab. VIII."""
    aux = ("encoding",) + ("resnet17", "resnet50")[: m - 2]
    return f"celeba_plus_m{m}", "clip", aux


@lru_cache(maxsize=None)
def mr_baseline(name: str, target: str, auxiliaries: tuple[str, ...]):
    enc = encoded(name, target, auxiliaries)
    return MultiStreamedRetrieval(enc.objects).build()


@lru_cache(maxsize=None)
def je_baseline(name: str, target: str, auxiliaries: tuple[str, ...]):
    enc = encoded(name, target, auxiliaries)
    return JointEmbeddingSearch(enc.objects).build()


@lru_cache(maxsize=None)
def largescale_encoded(kind: str, n: int = LARGESCALE_N):
    from repro.datasets.largescale import encode_largescale

    sem = make_largescale(kind=kind, n=n, num_queries=LARGESCALE_QUERIES)
    return encode_largescale(sem)


@lru_cache(maxsize=None)
def largescale_must(kind: str, n: int = LARGESCALE_N):
    """MUST on a large-scale corpus with weights trained on its queries."""
    enc = largescale_encoded(kind, n)
    must = MUST.from_dataset(enc)
    anchors = enc.queries[: LARGESCALE_QUERIES // 2]
    positives = np.asarray(
        [enc.ground_truth[i][0] for i in range(LARGESCALE_QUERIES // 2)]
    )
    must.fit_weights(
        anchors, positives, epochs=150, learning_rate=WEIGHT_LR
    )
    must.build()
    return enc, must
