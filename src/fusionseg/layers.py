"""Small trainable building blocks on top of the tensor engine.

Layers keep their parameters as Tensors and expose ``named_params`` so nets
can be flattened into a deterministic (name, tensor) list for optimizers and
checkpoints.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv2d:
    def __init__(self, cin, cout, k, stride=1, dilation=1, padding=0,
                 rng=None, zero_init=False):
        self.stride = stride
        self.dilation = dilation
        self.padding = padding
        if zero_init:
            w = np.zeros((cout, cin, k, k))
        else:
            w = uniform_init(rng, (cout, cin, k, k), cin * k * k)
        self.w = Tensor(w, requires_grad=True)

    def __call__(self, x):
        return T.conv2d(x, self.w, self.stride, self.dilation, self.padding)

    def named_params(self, prefix):
        return [(prefix + ".w", self.w)]


class BatchNorm2d:
    def __init__(self, c, eps=1e-5):
        self.eps = eps
        self.gamma = Tensor(np.ones(c), requires_grad=True)
        self.beta = Tensor(np.zeros(c), requires_grad=True)

    def __call__(self, x):
        return T.batchnorm2d(x, self.gamma, self.beta, self.eps)

    def named_params(self, prefix):
        return [(prefix + ".gamma", self.gamma), (prefix + ".beta", self.beta)]


class ConvBNRelu:
    """conv -> batchnorm -> relu, the stock block of every net here."""

    def __init__(self, cin, cout, k, stride=1, dilation=1, padding=0, rng=None):
        self.conv = Conv2d(cin, cout, k, stride, dilation, padding, rng=rng)
        self.bn = BatchNorm2d(cout)

    def __call__(self, x):
        return T.relu(self.bn(self.conv(x)))

    def named_params(self, prefix):
        return (self.conv.named_params(prefix + ".conv")
                + self.bn.named_params(prefix + ".bn"))


def collect_params(named_layers):
    """Flatten [(prefix, layer), ...] into an ordered (name, tensor) list."""
    out = []
    for prefix, layer in named_layers:
        out.extend(layer.named_params(prefix))
    return out


def zero_grads(params):
    for _, p in params:
        p.zero_grad()
