"""Parameter names are the checkpoint format: pin them, and the walker's rules."""

import numpy as np

from fusionseg.gan import GanPair, GeneratorNet
from fusionseg.layers import Conv2d, Module
from fusionseg.segnet import AblationConfig, FusionSegNet
from fusionseg.tensor import Tensor


def cbr(prefix):
    """The three parameters of one ConvBNRelu block."""
    return [f"{prefix}.conv.w", f"{prefix}.bn.gamma", f"{prefix}.bn.beta"]


def names(module):
    return [n for n, _ in module.named_params()]


SEGNET_TAIL = (
    cbr("encoder.stem")
    + [n for i in range(4) for n in cbr(f"encoder.stage{i}.b0")]
    + cbr("aspp.one")
    + [n for i in range(3) for n in cbr(f"aspp.atrous{i}")]
    + ["aspp.pool.w"]
    + cbr("aspp.fuse")
    + cbr("decoder.low_reduce") + cbr("decoder.refine1")
    + cbr("decoder.refine2") + ["decoder.head.w"])

GENERATOR = (
    cbr("down1") + cbr("down2")
    + ["res1.conv1.w", "res1.bn1.gamma", "res1.bn1.beta",
       "res1.conv2.w", "res1.bn2.gamma", "res1.bn2.beta",
       "res2.conv1.w", "res2.bn1.gamma", "res2.bn1.beta",
       "res2.conv2.w", "res2.bn2.gamma", "res2.bn2.beta"]
    + cbr("up1") + cbr("up2") + ["final.w"])

DISCRIMINATOR = cbr("c1") + cbr("c2") + ["head.w"]


def test_full_segnet_names_exclude_the_generator():
    gen = GeneratorNet(np.random.default_rng(0))
    net = FusionSegNet(AblationConfig(True, True, True), seed=1, generator=gen)
    assert names(net) == (["attention.lift.w", "attention.att.m_k",
                           "attention.att.m_v", "attention.reduce.w"]
                          + SEGNET_TAIL)


def test_body_segnet_names():
    net = FusionSegNet(AblationConfig(), seed=1)
    assert names(net) == ["lift.w"] + SEGNET_TAIL


def test_gan_pair_names():
    pair = GanPair(seed=0)
    assert names(pair) == (
        [f"g_xy.{n}" for n in GENERATOR] + [f"g_yx.{n}" for n in GENERATOR]
        + [f"d_x.{n}" for n in DISCRIMINATOR]
        + [f"d_y.{n}" for n in DISCRIMINATOR])
    assert names(GeneratorNet(np.random.default_rng(0))) == GENERATOR


class Toy(Module):
    def __init__(self):
        self.scale = 2.0
        self.b = Tensor(np.zeros(1))
        self._frozen = Conv2d(1, 1, 1, zero_init=True)
        self.convs = [Conv2d(1, 1, 1, zero_init=True), 3]
        self.a = Tensor(np.zeros(1))


def test_walker_rules():
    # assignment order, list items as <attr><i>, "_" attributes and
    # non-parameter values skipped, prefix joined with "."
    toy = Toy()
    assert names(toy) == ["b", "convs0.w", "a"]
    assert [n for n, _ in toy.named_params("t")] == ["t.b", "t.convs0.w", "t.a"]
    assert dict(toy.named_params())["a"] is toy.a
