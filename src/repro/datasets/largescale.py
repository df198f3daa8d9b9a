"""Semi-synthetic large-scale corpora: {Image,Audio,Video}Text at any scale.

The paper builds ImageText1M / AudioText1M / VideoText1M / ImageText16M by
attaching a text modality to SIFT / MSONG / UQ-V / DEEP feature corpora.
Those corpora are unavailable offline, so we generate clustered feature
latents (real descriptor corpora are strongly clustered, which is what
makes proximity graphs effective) plus a tag-based text modality, at a
scale parameterised by ``n``.

Ground truth for these corpora is **exact joint-similarity top-k** under
the evaluation weights — the paper's Recall@10(10) protocol for Fig. 6 —
computed on demand via :func:`exact_ground_truth` rather than planted,
since there are no semantic labels.
"""

from __future__ import annotations

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.datasets.base import (
    EncodedDataset,
    EncoderCombo,
    SemanticDataset,
    encode_dataset,
)
from repro.embedding.concepts import LatentConceptSpace
from repro.metrics.groundtruth import exact_top_k_batch
from repro.utils.rng import derive_seed, spawn
from repro.utils.validation import require

__all__ = [
    "make_largescale",
    "make_imagetext",
    "make_audiotext",
    "make_videotext",
    "exact_ground_truth",
    "DEFAULT_COMBOS",
]

#: Encoder combos mirroring the original corpora's feature types.
DEFAULT_COMBOS = {
    "image": EncoderCombo(target="resnet50", auxiliaries=("lstm",)),
    "audio": EncoderCombo(target="audio-mfcc", auxiliaries=("lstm",)),
    "video": EncoderCombo(target="video-keyframe", auxiliaries=("lstm",)),
    "deep": EncoderCombo(target="deep-cnn", auxiliaries=("lstm",)),
}

_WITHIN_CLUSTER_NOISE = 0.55
_QUERY_NOISE = 0.35
_TAGS_PER_OBJECT = 3


def make_largescale(
    kind: str = "image",
    n: int = 10_000,
    num_queries: int = 100,
    num_clusters: int = 64,
    tag_vocabulary: int = 50,
    latent_dim: int = 48,
    seed: int = 23,
) -> SemanticDataset:
    """Generate a clustered feature corpus with a text modality.

    Queries are fresh inputs near a hidden base object (its id is recorded
    as a 1-element planted ground truth; benchmark-grade ground truth is
    recomputed exactly via :func:`exact_ground_truth`).
    """
    require(kind in DEFAULT_COMBOS, f"kind must be one of {sorted(DEFAULT_COMBOS)}")
    require(n >= num_clusters, "need at least one object per cluster")
    space = LatentConceptSpace(latent_dim, derive_seed(seed, "largescale-space", kind))
    rng = spawn(seed, "largescale", kind, n)

    root_dim = np.sqrt(latent_dim)
    centers = rng.standard_normal((num_clusters, latent_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignment = rng.integers(num_clusters, size=n)
    # Noise magnitudes follow the norm convention: the second term has an
    # expected norm of _WITHIN_CLUSTER_NOISE relative to the unit centre.
    feature_raw = centers[assignment] + (
        _WITHIN_CLUSTER_NOISE * rng.standard_normal((n, latent_dim)) / root_dim
    )
    feature_latents = space.jitter_batch(feature_raw, 0.0, None)

    tag_lat = space.concepts([f"tag:{kind}:{t}" for t in range(tag_vocabulary)])
    tags = rng.integers(tag_vocabulary, size=(n, _TAGS_PER_OBJECT))
    text_raw = tag_lat[tags].sum(axis=1)
    text_latents = space.jitter_batch(text_raw, 0.05, "obj-text")

    base_ids = rng.integers(n, size=num_queries)
    ref_raw = feature_latents[base_ids] + (
        _QUERY_NOISE * rng.standard_normal((num_queries, latent_dim)) / root_dim
    )
    reference_latents = space.jitter_batch(ref_raw, 0.0, None)
    aux_raw = text_raw[base_ids] + (
        0.3 * rng.standard_normal((num_queries, latent_dim)) / root_dim
    )
    aux_latents = space.jitter_batch(aux_raw, 0.0, None)
    composed = reference_latents.copy()

    scale_tag = f"{n // 1000}K" if n < 1_000_000 else f"{n // 1_000_000}M"
    return SemanticDataset(
        name=f"{kind.capitalize()}Text{scale_tag}",
        concept_space=space,
        object_latents=[feature_latents, text_latents],
        modality_kinds=(kind, "text"),
        query_aux_latents=[aux_latents],
        query_composed_latents=composed,
        ground_truth=[np.asarray([b], dtype=np.int64) for b in base_ids],
        query_reference_latents=reference_latents,
        extra={"kind": kind, "clusters": num_clusters},
    )


def make_imagetext(n: int = 10_000, **kwargs) -> SemanticDataset:
    """ImageText corpus (the paper's ImageText1M/16M analogue)."""
    return make_largescale(kind="image", n=n, **kwargs)


def make_audiotext(n: int = 10_000, **kwargs) -> SemanticDataset:
    """AudioText corpus (the paper's AudioText1M analogue)."""
    return make_largescale(kind="audio", n=n, **kwargs)


def make_videotext(n: int = 10_000, **kwargs) -> SemanticDataset:
    """VideoText corpus (the paper's VideoText1M analogue)."""
    return make_largescale(kind="video", n=n, **kwargs)


def encode_largescale(sem: SemanticDataset, seed: int = 0) -> EncodedDataset:
    """Encode a large-scale corpus under its default combo."""
    combo = DEFAULT_COMBOS[sem.extra["kind"]]
    return encode_dataset(sem, combo, seed=seed)


def exact_ground_truth(
    encoded: EncodedDataset,
    weights: Weights,
    k: int,
    queries: list[MultiVector] | None = None,
) -> list[np.ndarray]:
    """Exact joint top-*k* ids per query — the Recall@k(k) reference set."""
    space = JointSpace(encoded.objects, weights)
    queries = queries if queries is not None else encoded.queries
    return exact_top_k_batch(space, queries, k)
