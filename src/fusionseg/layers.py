"""Small trainable building blocks on top of the tensor engine.

Every layer and net is a ``Module``: it keeps its parameters as Tensor
attributes, and ``Module.named_params`` flattens it into a deterministic
(name, tensor) list for optimizers and checkpoints.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .checkpoint import load_into_params, save_checkpoint
from .tensor import Tensor


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base of every layer and net; its parameter names are the checkpoint format.

    ``named_params`` walks ``vars(self)`` in assignment order: a Tensor
    attribute is a parameter, a Module attribute is walked in turn, and item
    ``i`` of a list attribute ``a`` is named ``a<i>``; names are joined with
    ".". Any other value is skipped, and so is every attribute whose name
    starts with "_", which is how a net holds a frozen sub-net (the segnet's
    generator) that it neither trains nor saves.
    """

    def named_params(self, prefix=""):
        out = []
        for attr, value in vars(self).items():
            if attr.startswith("_"):
                continue
            items = ([(f"{attr}{i}", v) for i, v in enumerate(value)]
                     if isinstance(value, list) else [(attr, value)])
            for name, v in items:
                name = f"{prefix}.{name}" if prefix else name
                if isinstance(v, Tensor):
                    out.append((name, v))
                elif isinstance(v, Module):
                    out.extend(v.named_params(name))
        return out

    def save(self, path):
        save_checkpoint(path, [(n, p.data) for n, p in self.named_params()])

    def load(self, path):
        load_into_params(path, self.named_params())


class Conv2d(Module):
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


class BatchNorm2d(Module):
    def __init__(self, c):
        self.gamma = Tensor(np.ones(c), requires_grad=True)
        self.beta = Tensor(np.zeros(c), requires_grad=True)

    def __call__(self, x, relu=False):
        return T.batchnorm2d(x, self.gamma, self.beta, relu)


class InstanceNorm2d(BatchNorm2d):
    def __call__(self, x, relu=False):
        return T.instancenorm2d(x, self.gamma, self.beta, relu)


class ConvBNRelu(Module):
    """conv -> norm (batchnorm by default) with its ReLU fused into the norm op."""

    def __init__(self, cin, cout, k, stride=1, dilation=1, padding=0, rng=None,
                 norm=BatchNorm2d):
        self.conv = Conv2d(cin, cout, k, stride, dilation, padding, rng=rng)
        self.bn = norm(cout)

    def __call__(self, x):
        return self.bn(self.conv(x), relu=True)
