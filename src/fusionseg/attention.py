"""External attention over pixel-feature matrices, pixels last.

Features are ``[..., d, N]``, which is NCHW memory viewed as
``[B, channels, pixels]``, so the stage needs no transposes. The attention
map is computed against small learnable key/value memories shared across
the dataset, so its footprint is S x N (linear in pixel count), never N x N.
Normalization is a softmax over pixels followed by an L1 normalization over
memory units. ``tensor.external_attention`` runs the whole read-out as one
tape op, one image at a time; ``double_normalize`` is the same normalization
as two ops, the reference that op is tested against.
"""

from __future__ import annotations

from . import tensor as T
from .errors import DimensionError
from .layers import Conv2d, Module, uniform_init
from .tensor import Tensor


class ExternalAttention(Module):
    """Learnable key-memory and value-memory, both [S, d]."""

    def __init__(self, s, d, rng=None):
        self.d = d
        self.m_k = Tensor(uniform_init(rng, (s, d), d), requires_grad=True)
        self.m_v = Tensor(uniform_init(rng, (s, d), d), requires_grad=True)


def double_normalize(a: Tensor) -> Tensor:
    """Softmax over pixels (last axis), then L1 norm over memory units; [..., S,N]."""
    if a.data.ndim < 2:
        raise DimensionError("double_normalize expects an [..., S,N] tensor")
    return T.l1_normalize_axis(T.softmax_axis(a, axis=-1), axis=-2)


def external_attention_forward(att: ExternalAttention, f: Tensor) -> Tensor:
    """Refined features [..., d,N]: M_v^T applied to double-normalized (M_k . F)."""
    if f.data.ndim < 2 or f.data.shape[-2] != att.d:
        raise DimensionError(
            f"feature dim mismatch: {f.data.shape} vs d={att.d}")
    return T.external_attention(f, att.m_k, att.m_v)


class AttentionStage(Module):
    """Pointwise lift, external attention with residual, pointwise reduce."""

    def __init__(self, c_in, d, c_out, s, rng=None):
        self.lift = Conv2d(c_in, d, 1, rng=rng)
        self.att = ExternalAttention(s=s, d=d, rng=rng)
        self.reduce = Conv2d(d, c_out, 1, rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        b, _, h, w = x.data.shape
        d = self.att.d
        # [B,d,H,W] -> [B,d,N]: every image attends over its own pixels
        f = T.reshape(self.lift(x), (b, d, h * w))
        refined = T.add(external_attention_forward(self.att, f), f)
        return self.reduce(T.reshape(refined, (b, d, h, w)))
