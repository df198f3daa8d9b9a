"""Embedding substrate: latent concept space + pluggable synthetic encoders.

The substitution: the paper's pretrained encoders are simulated by
calibrated random-projection encoders whose error structure reproduces
the accuracy orderings of Tables III–VI (the README's "Module map" lists
the corpora and encoders built on it).
"""

from repro.embedding.base import EncoderRegistry
from repro.embedding.concepts import LatentConceptSpace
from repro.embedding.fusion import (
    FUSION_SPECS,
    SyntheticCompositionEncoder,
    make_composition_encoder,
)
from repro.embedding.synthetic import (
    ENCODER_SPECS,
    SyntheticEncoder,
    make_unimodal_encoder,
)

#: Default registry preloaded with the full paper encoder zoo.
default_registry = EncoderRegistry()
for _name in ENCODER_SPECS:
    default_registry.register(
        _name,
        lambda space, seed, _n=_name: make_unimodal_encoder(_n, space, seed),
    )
for _name in FUSION_SPECS:
    default_registry.register(
        _name,
        lambda space, seed, _n=_name: make_composition_encoder(_n, space, seed),
    )

__all__ = [
    "EncoderRegistry",
    "LatentConceptSpace",
    "SyntheticEncoder",
    "SyntheticCompositionEncoder",
    "ENCODER_SPECS",
    "FUSION_SPECS",
    "make_unimodal_encoder",
    "make_composition_encoder",
    "default_registry",
]
