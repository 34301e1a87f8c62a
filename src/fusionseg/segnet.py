"""Fusion segmentation network: stitch, attention, encoder, ASPP, decoder.

Ablation switches mirror the experiment matrix: Body only, generated image
replacing the SAR input, attention on top, and channel-stitching of generated
plus real input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionStage
from .errors import ConfigurationError, DimensionError
from .gan import GeneratorNet
from .layers import Conv2d, ConvBNRelu, Module
from .tensor import Tensor


@dataclass
class AblationConfig:
    use_gan: bool = False
    use_attention: bool = False
    use_combine: bool = False

    def __post_init__(self):
        if self.use_combine and not self.use_gan:
            raise ConfigurationError("use_combine requires use_gan")


def stitch_channels_input(sar: Tensor, cfg: AblationConfig,
                          generator: GeneratorNet | None) -> Tensor:
    """Assemble the encoder input; the frozen generator records no tape."""
    if not cfg.use_gan:
        return sar
    if generator is None:
        raise ConfigurationError("use_gan set but no generator loaded")
    with T.no_grad():
        fake_optical = generator(sar)
    if cfg.use_combine:
        return T.concat_channels(sar, fake_optical)
    return fake_optical


class Encoder(Module):
    """Plain conv stack tapping features at strides 4 and 16."""

    channels = (8, 12, 16, 24)
    low_channels = channels[1]   # stride 4
    high_channels = channels[3]  # stride 16

    def __init__(self, c_in, rng=None):
        self.stem = ConvBNRelu(c_in, self.channels[0], 3, padding=1, rng=rng)
        prev = self.channels[0]
        self.stage = []
        for c in self.channels:
            self.stage.append(ConvBNRelu(prev, c, 3, stride=2, padding=1, rng=rng))
            prev = c

    def __call__(self, x):
        if x.data.shape[2] % 16 or x.data.shape[3] % 16:
            raise DimensionError("encoder input dims must be divisible by 16")
        h = self.stem(x)
        feats = []
        for stage in self.stage:
            h = stage(h)
            feats.append(h)
        return feats[1], feats[3]  # strides 4 and 16


class Aspp(Module):
    """Parallel 1x1, atrous 3x3 per rate, and a global-pool branch, fused 1x1."""

    def __init__(self, c_in, c_out, rates, rng):
        self.one = ConvBNRelu(c_in, c_out, 1, rng=rng)
        self.atrous = [ConvBNRelu(c_in, c_out, 3, dilation=r, padding=r, rng=rng)
                       for r in rates]
        self.pool = Conv2d(c_in, c_out, 1, rng=rng)
        self.fuse = ConvBNRelu((2 + len(rates)) * c_out, c_out, 1, rng=rng)

    def __call__(self, x):
        branches = [self.one(x)]
        branches.extend(a(x) for a in self.atrous)
        pooled = T.relu(self.pool(T.spatial_mean(x)))
        branches.append(T.tile_spatial(pooled, *x.data.shape[2:]))
        return self.fuse(T.concat_channels(*branches))


class Decoder(Module):
    """Upsample high-level features, merge reduced low-level ones, emit logits."""

    def __init__(self, c_high, c_low, c_mid, rng):
        self.low_reduce = ConvBNRelu(c_low, c_mid // 2, 1, rng=rng)
        self.refine1 = ConvBNRelu(c_high + c_mid // 2, c_mid, 3, padding=1, rng=rng)
        self.refine2 = ConvBNRelu(c_mid, c_mid, 3, padding=1, rng=rng)
        self.head = Conv2d(c_mid, 1, 1, rng=rng)

    def __call__(self, f_high, f_low):
        up = T.upsample_nearest(f_high, 4)
        merged = T.concat_channels(up, self.low_reduce(f_low))
        h = self.refine2(self.refine1(merged))
        return T.upsample_nearest(self.head(h), 4)


class FusionSegNet(Module):
    attention_units = 16
    attention_dim = 8
    aspp_rates = (1, 2, 4)
    lift_channels = 8
    decoder_channels = 16

    def __init__(self, cfg: AblationConfig, seed: int,
                 generator: GeneratorNet | None = None):
        self.cfg = cfg
        self._generator = generator  # frozen: "_" keeps it out of named_params
        rng = np.random.Generator(np.random.PCG64(seed))
        c_in = 2 if cfg.use_combine else 1
        if cfg.use_attention:
            self.entry = AttentionStage(c_in, self.attention_dim,
                                        self.lift_channels,
                                        s=self.attention_units, rng=rng)
        else:
            self.entry = Conv2d(c_in, self.lift_channels, 1, rng=rng)
        self.encoder = Encoder(self.lift_channels, rng=rng)
        self.aspp = Aspp(Encoder.high_channels, Encoder.high_channels,
                         self.aspp_rates, rng=rng)
        self.decoder = Decoder(Encoder.high_channels, Encoder.low_channels,
                               self.decoder_channels, rng=rng)

    def __call__(self, sar: Tensor) -> Tensor:
        return self.body(self.stitch(sar))

    def stitch(self, sar: Tensor) -> Tensor:
        """The encoder input for a SAR batch: the SAR, its translation, or both."""
        return stitch_channels_input(sar, self.cfg, self._generator)

    def body(self, x: Tensor) -> Tensor:
        """Logits from a stitched input: entry stage, encoder, ASPP, decoder."""
        f_low, f_high = self.encoder(self.entry(x))
        f_high = self.aspp(f_high)
        return self.decoder(f_high, f_low)
