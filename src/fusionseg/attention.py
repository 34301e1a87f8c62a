"""External attention over pixel-feature matrices, pixels last.

Features are ``[..., d, N]``, which is NCHW memory viewed as
``[B, channels, pixels]``, so the stage needs no transposes. The attention
map is computed against small learnable key/value memories shared across
the dataset, so its footprint is S x N (linear in pixel count), never N x N.
Normalization is a softmax over pixels followed by an L1 normalization over
memory units. ``tensor.external_attention`` runs the whole read-out as one
tape op, one image at a time.
"""

from __future__ import annotations

from . import tensor as T
from .layers import Conv2d, Module, uniform_init
from .tensor import Tensor


class ExternalAttention(Module):
    """Learnable key-memory and value-memory, both [S, d]."""

    def __init__(self, s, d, rng=None):
        self.d = d
        self.m_k = Tensor(uniform_init(rng, (s, d), d), requires_grad=True)
        self.m_v = Tensor(uniform_init(rng, (s, d), d), requires_grad=True)

    def __call__(self, f: Tensor) -> Tensor:
        """Refined features [..., d,N]: M_v^T applied to double-normalized (M_k . F)."""
        return T.external_attention(f, self.m_k, self.m_v)


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
        refined = T.add(self.att(f), f)
        return self.reduce(T.reshape(refined, (b, d, h, w)))
