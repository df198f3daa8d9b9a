"""Contrastive loss over joint similarities with its analytic gradient.

The paper's loss (Eq. 6) for a minibatch of anchors ``p``::

    L = 1/M · Σ_p −log [ exp(IP(p̂,p̂⁺)) / (exp(IP(p̂,p̂⁺)) + Σ exp(IP(p̂,p̂⁻))) ]

Because ``IP(p̂,ô) = Σ_i ω_i² · IP_i(p,o)`` (Lemma 1), the loss depends on
the weights only through a linear form of ``ω²`` over per-modality
similarity *features*.  The gradient is therefore exact and closed-form —
no autograd framework needed (this replaces the paper's PyTorch module;
the README's "Module map" places it in :mod:`repro.weightlearn`)::

    ∂L/∂ω_i = 2·ω_i · 1/M · Σ_p Σ_c (softmax_c − 1[c = positive]) · F[p,c,i]
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require

__all__ = ["contrastive_loss_and_grad", "joint_logits"]


def joint_logits(features: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Joint similarities from per-modality features: ``F @ ω²``.

    ``features`` has shape ``(batch, candidates, m)``; candidate 0 is the
    positive example by convention.
    """
    return features @ (omegas**2)


def contrastive_loss_and_grad(
    features: np.ndarray, omegas: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss value and ``∂L/∂ω`` for one (mini)batch.

    Returns ``(loss, grad)`` with ``grad.shape == omegas.shape``.
    """
    features = np.asarray(features, dtype=np.float64)
    require(features.ndim == 3, "features must be (batch, candidates, m)")
    omegas = np.asarray(omegas, dtype=np.float64)
    batch = features.shape[0]
    require(batch >= 1, "empty batch")

    logits = joint_logits(features, omegas)  # (B, C)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.maximum(probs[:, 0], 1e-300)).mean())

    dlogits = probs.copy()
    dlogits[:, 0] -= 1.0
    dlogits /= batch
    grad_w2 = np.einsum("bc,bcm->m", dlogits, features)
    grad = 2.0 * omegas * grad_w2
    return loss, grad
