"""Unpaired SAR-to-optical translation with a cycle-consistent GAN pair.

Two generators and two discriminators trained alternately with the
least-squares adversarial loss, whose optimum has both discriminators score
real and fake 0.5 (Mao et al., arXiv 1611.04076). Criterion 5's 32 px toy
run (500 iterations, seed 42) ends short of it, at d_real 0.632 and d_fake
0.355, and that gap holds at 3,000 iterations. Only the SAR-to-optical
generator is consumed downstream by the segmentation net. Every net
normalizes each image on its own (instance norm), so neither a translation
nor a score depends on the rest of its batch.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError, DomainError
from .layers import Conv2d, ConvBNRelu, InstanceNorm2d, Module
from .tensor import AdamW, Tensor

BASE = 8  # channels of the first conv of every generator and discriminator
LAMBDA_CYC = 10.0  # weight of each cycle-consistency term (Zhu et al.)


class ResidualBlock(Module):
    def __init__(self, c, rng):
        self.conv1 = Conv2d(c, c, 3, padding=1, rng=rng)
        self.bn1 = InstanceNorm2d(c)
        self.conv2 = Conv2d(c, c, 3, padding=1, rng=rng)
        self.bn2 = InstanceNorm2d(c)

    def __call__(self, x):
        return T.add(self.bn2(self.conv2(self.bn1(self.conv1(x), relu=True))), x)


class UpConvBNRelu(ConvBNRelu):
    """A ``ConvBNRelu``, same names, after a nearest x2 upsample it never builds."""

    def __call__(self, x):
        return self.bn(T.upsample_conv2d(x, self.conv.w), relu=True)


class GeneratorNet(Module):
    """Encoder-residual-decoder mapping [B,1,H,W] -> [B,1,H,W] in [0,1].

    It halves H and W twice, then doubles them twice: both must divide by 4.
    Its norms are per image (instance norm), so batching changes no output.

    The final conv is zero-initialized, so an untrained generator outputs a
    constant 0.5 everywhere.
    """

    def __init__(self, rng):
        block = partial(ConvBNRelu, k=3, padding=1, rng=rng, norm=InstanceNorm2d)
        self.down1 = block(1, BASE, stride=2)
        self.down2 = block(BASE, 2 * BASE, stride=2)
        self.res1 = ResidualBlock(2 * BASE, rng)
        self.res2 = ResidualBlock(2 * BASE, rng)
        up = partial(UpConvBNRelu, k=3, padding=1, rng=rng, norm=InstanceNorm2d)
        self.up1 = up(2 * BASE, BASE)
        self.up2 = up(BASE, BASE)
        self.final = Conv2d(BASE, 1, 1, zero_init=True)

    def __call__(self, x):
        return T.sigmoid(self.logits(x))

    def logits(self, x):
        """The pre-sigmoid output."""
        if x.data.ndim != 4 or x.data.shape[1] != 1:
            raise DimensionError("generator expects a [B,1,H,W] input")
        height, width = x.data.shape[2:]
        if height % 4 or width % 4:
            raise DimensionError("generator needs H and W divisible by 4, "
                                 f"got H={height}, W={width}")
        h = self.down2(self.down1(x))
        h = self.res2(self.res1(h))
        return self.final(self.up2(self.up1(h)))


class DiscriminatorNet(Module):
    """Strided-conv patch classifier; scores squashed to (0,1).

    Its norms are per image, as the generators' are.
    """

    def __init__(self, rng):
        block = partial(ConvBNRelu, k=3, stride=2, padding=1, rng=rng,
                        norm=InstanceNorm2d)
        self.c1 = block(1, BASE)
        self.c2 = block(BASE, 2 * BASE)
        self.head = Conv2d(2 * BASE, 1, 3, padding=1, rng=rng)

    def __call__(self, x):
        return T.sigmoid(self.head(self.c2(self.c1(x))))


def disc_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """Least-squares discriminator loss: pulls real scores to 1, fake to 0."""
    return T.scale(T.add(ls_loss(d_real, 1.0), ls_loss(d_fake, 0.0)), 0.5)


def ls_loss(score: Tensor, target: float) -> Tensor:
    """Mean squared distance of discriminator scores from a 0/1 target."""
    diff = T.scale(score, 1.0, -target)
    return T.reduce_mean(T.mul(diff, diff))


def cycle_loss(x: Tensor, x_rec: Tensor) -> Tensor:
    """Mean absolute reconstruction error, weighted by ``LAMBDA_CYC``."""
    return T.scale(T.reduce_mean(T.absolute(T.add(x, T.scale(x_rec, -1.0)))),
                   LAMBDA_CYC)


class GanPair(Module):
    def __init__(self, seed: int):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.g_xy = GeneratorNet(rng)
        self.g_yx = GeneratorNet(rng)
        self.d_x = DiscriminatorNet(rng)
        self.d_y = DiscriminatorNet(rng)
        self.gen_opt = AdamW(self.g_xy.named_params("g_xy")
                             + self.g_yx.named_params("g_yx"))
        self.disc_opt = AdamW(self.d_x.named_params("d_x")
                              + self.d_y.named_params("d_y"))


def gan_train_step(pair: GanPair, batch_x: Tensor, batch_y: Tensor,
                   lr: float) -> dict:
    """One alternating update; returns the component losses, and as ``d_real`` and
    ``d_fake`` the discriminator phase's mean scores (the mean of both nets'
    means) on real and on fake images: 0.5 at the least-squares optimum, while
    criterion 5's toy run ends near d_real 0.63 and d_fake 0.36."""
    n, m = batch_x.data.shape[0], batch_y.data.shape[0]
    if n == 0 or m == 0:
        raise DimensionError("gan_train_step requires nonempty batches")
    if batch_x.data.shape[1:] != batch_y.data.shape[1:]:
        raise DimensionError("gan_train_step needs one image shape in both domains, "
                             f"got {batch_x.data.shape} and {batch_y.data.shape}")

    # generator phase (discriminators frozen: their params are not stepped);
    # g_xy runs once on [x, fake_x], so the phase makes three generator calls
    fake_x = pair.g_yx(batch_y)
    both = pair.g_xy(T.concat_batch([batch_x, fake_x]))
    fake_y, rec_y = T.batch_slice(both, 0, n), T.batch_slice(both, n, n + m)
    rec_x = pair.g_yx(fake_y)
    loss_g_xy = ls_loss(pair.d_y(fake_y), 1.0)
    loss_g_yx = ls_loss(pair.d_x(fake_x), 1.0)
    cyc_x = cycle_loss(batch_x, rec_x)
    cyc_y = cycle_loss(batch_y, rec_y)
    gen_total = T.add(T.add(loss_g_xy, loss_g_yx), T.add(cyc_x, cyc_y))
    gen_total.backward()
    pair.gen_opt.step(lr)
    pair.disc_opt.zero_grad()  # filled through the adversarial terms

    # discriminator phase (generators frozen; fakes detached)
    real = (pair.d_y(batch_y), pair.d_x(batch_x))
    fake = (pair.d_y(fake_y.detach()), pair.d_x(fake_x.detach()))
    loss_d_y, loss_d_x = disc_loss(real[0], fake[0]), disc_loss(real[1], fake[1])
    disc_total = T.add(loss_d_y, loss_d_x)
    disc_total.backward()
    pair.disc_opt.step(lr)

    return {
        "loss_g_xy": loss_g_xy.item(), "loss_g_yx": loss_g_yx.item(),
        "cycle_x": cyc_x.item(), "cycle_y": cyc_y.item(),
        "loss_d_x": loss_d_x.item(), "loss_d_y": loss_d_y.item(),
        "d_real": float(np.mean([d.data.mean() for d in real])),
        "d_fake": float(np.mean([d.data.mean() for d in fake])),
    }


def pretrain_gan(x_set: np.ndarray, y_set: np.ndarray, iterations: int,
                 seed: int, checkpoint_path=None, lr: float = 5e-4,
                 batch_size: int = 1, log_fn=None) -> GanPair:
    """Train on unpaired sets sampled independently with replacement."""
    if len(x_set) == 0 or len(y_set) == 0:
        raise ConfigurationError("pretrain_gan requires nonempty image sets")
    pair = GanPair(seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    for it in range(iterations):
        xi = rng.integers(0, len(x_set), size=batch_size)
        yi = rng.integers(0, len(y_set), size=batch_size)
        record = gan_train_step(pair, Tensor(x_set[xi]), Tensor(y_set[yi]), lr)
        if not np.all(np.isfinite(list(record.values()))):
            raise DomainError(f"non-finite GAN loss at iteration {it}")
        if log_fn is not None:
            log_fn(it, record)
    # the losses predate each step: a forward catches overflowed weights
    if iterations > 0:
        with T.no_grad():
            finite = np.isfinite(pair.g_xy.logits(Tensor(x_set[xi])).data).all()
        if not finite:
            raise DomainError(
                f"non-finite generator output after iteration {iterations - 1}")
    if checkpoint_path is not None:
        pair.save(checkpoint_path)
    return pair
