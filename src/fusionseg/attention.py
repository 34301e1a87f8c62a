"""External attention over pixel-feature matrices.

The attention map is computed against small learnable key/value memories
shared across the dataset, so its footprint is N x S (linear in pixel count),
never N x N. Normalization is a column softmax over pixels followed by a row
L1 normalization over memory units.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .layers import Conv2d, Module
from .tensor import Tensor


class ExternalAttention(Module):
    """Learnable key-memory and value-memory, both [S, d]."""

    def __init__(self, s, d, rng=None):
        if s < 1 or d < 1:
            raise DimensionError("memory units and feature dim must be >= 1")
        self.d = d
        bound = 1.0 / np.sqrt(d)
        self.m_k = Tensor(rng.uniform(-bound, bound, size=(s, d)), requires_grad=True)
        self.m_v = Tensor(rng.uniform(-bound, bound, size=(s, d)), requires_grad=True)


def double_normalize(a: Tensor) -> Tensor:
    """Column softmax over pixels, then row L1 norm over memory units; [..., N,S]."""
    if a.data.ndim < 2:
        raise DimensionError("double_normalize expects an [..., N,S] tensor")
    # softmax output is strictly positive, so the L1 guard can be tiny;
    # this keeps row sums within 1e-9 of 1 even for a single memory unit
    return T.l1_normalize_axis(T.softmax_axis(a, axis=-2), axis=-1, eps=1e-300)


def external_attention_forward(att: ExternalAttention, f: Tensor) -> Tensor:
    """Refined features [..., N,d]: double-normalized (F . M_k^T) applied to M_v."""
    if f.data.ndim < 2 or f.data.shape[-1] != att.d:
        raise DimensionError(
            f"feature dim mismatch: {f.data.shape} vs d={att.d}")
    weights = double_normalize(T.matmul(f, T.transpose2d(att.m_k)))
    return T.matmul(weights, att.m_v)


class AttentionStage(Module):
    """Pointwise lift, external attention with residual, pointwise reduce."""

    def __init__(self, c_in, d, c_out, s, rng=None):
        self.lift = Conv2d(c_in, d, 1, rng=rng)
        self.att = ExternalAttention(s=s, d=d, rng=rng)
        self.reduce = Conv2d(d, c_out, 1, rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        b, _, h, w = x.data.shape
        d = self.att.d
        # [B,d,H,W] -> [B,N,d]: every image attends over its own pixels
        f = T.transpose2d(T.reshape(self.lift(x), (b, d, h * w)))
        refined = T.add(external_attention_forward(self.att, f), f)
        return self.reduce(T.reshape(T.transpose2d(refined), (b, d, h, w)))
