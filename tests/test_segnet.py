import numpy as np
import pytest

from fusionseg import tensor as T
from fusionseg.errors import ConfigurationError, DimensionError
from fusionseg.gan import GeneratorNet
from fusionseg.losses import bce_sigmoid_loss, composite_loss, dice_loss
from fusionseg.segnet import (AblationConfig, Aspp, Encoder, FusionSegNet,
                              stitch_channels_input)
from fusionseg.tensor import Tensor, grad_check


def make_generator(seed=0):
    return GeneratorNet(np.random.default_rng(seed))


class TestStitch:
    def test_body_passthrough(self):
        sar = Tensor(np.random.default_rng(0).random((2, 1, 16, 16)))
        out = stitch_channels_input(sar, AblationConfig(), None)
        assert out is sar

    def test_combine_channel_order(self):
        sar = Tensor(np.random.default_rng(1).random((2, 1, 16, 16)))
        out = stitch_channels_input(sar, AblationConfig(True, False, True),
                                    make_generator())
        assert out.data.shape == (2, 2, 16, 16)
        assert np.array_equal(out.data[:, 0], sar.data[:, 0])

    def test_replace_mode_single_channel(self):
        sar = Tensor(np.random.default_rng(2).random((2, 1, 16, 16)))
        out = stitch_channels_input(sar, AblationConfig(True, False, False),
                                    make_generator())
        assert out.data.shape == (2, 1, 16, 16)

    def test_missing_generator_rejected(self):
        with pytest.raises(ConfigurationError):
            stitch_channels_input(Tensor(np.zeros((1, 1, 16, 16))),
                                  AblationConfig(True, False, False), None)

    def test_combine_requires_gan(self):
        with pytest.raises(ConfigurationError):
            AblationConfig(False, False, True)

    def test_no_gradient_reaches_generator(self):
        gen = make_generator(3)
        net = FusionSegNet(AblationConfig(True, True, True), seed=4,
                           generator=gen)
        sar = Tensor(np.random.default_rng(5).random((1, 1, 16, 16)))
        target = Tensor(np.zeros((1, 1, 16, 16)))
        logits = net(sar)
        loss = composite_loss(dice_loss(T.sigmoid(logits), target),
                              bce_sigmoid_loss(logits, target))
        loss.backward()
        assert all(p.grad is None for _, p in gen.named_params())
        assert all(p.grad is not None for _, p in net.named_params())


class TestEncoder:
    def test_feature_strides(self):
        enc = Encoder(4, rng=np.random.default_rng(6))
        low, high = enc(Tensor(np.random.default_rng(7).random((1, 4, 64, 64))))
        assert low.data.shape[2:] == (16, 16)
        assert high.data.shape[2:] == (4, 4)

    def test_indivisible_dims_rejected(self):
        enc = Encoder(4, rng=np.random.default_rng(10))
        with pytest.raises(DimensionError):
            enc(Tensor(np.zeros((1, 4, 60, 60))))


class TestAspp:
    def test_preserves_spatial_dims(self):
        for rates in ((), (1,), (1, 2, 4), (2, 3)):
            aspp = Aspp(4, 6, rates, np.random.default_rng(11))
            x = Tensor(np.random.default_rng(12).random((2, 4, 8, 8)))
            assert aspp(x).data.shape == (2, 6, 8, 8)

    def test_constant_input_constant_interior(self):
        # zero padding perturbs a border of width max(rates); away from it
        # every branch is constant, so the fused output is too
        aspp = Aspp(3, 4, (1, 2), np.random.default_rng(13))
        out = aspp(Tensor(np.ones((1, 3, 8, 8)))).data
        interior = out[:, :, 2:-2, 2:-2]
        assert np.all(interior.std(axis=(2, 3)) < 1e-10)

    def test_one_concat_matches_pairwise_concats_bitwise(self):
        aspp = Aspp(3, 4, (1, 2, 4), np.random.default_rng(15))
        data = np.random.default_rng(16).random((2, 3, 8, 8))
        weights = Tensor(np.random.default_rng(17).random((2, 4, 8, 8)))

        def pairwise(x):
            branches = [aspp.one(x)] + [a(x) for a in aspp.atrous]
            pooled = T.relu(aspp.pool(T.spatial_mean(x)))
            branches.append(T.tile_spatial(pooled, 8, 8))
            merged = branches[0]
            for b in branches[1:]:
                merged = T.concat_channels(merged, b)
            return aspp.fuse(merged)

        def run(forward):
            x = Tensor(data.copy(), requires_grad=True)
            out = forward(x)
            T.reduce_sum(T.mul(out, weights)).backward()
            grads = [p.grad for _, p in aspp.named_params()]
            for _, p in aspp.named_params():
                p.grad = None
            return out.data, x.grad, grads

        out, dx, grads = run(aspp)
        ref_out, ref_dx, ref_grads = run(pairwise)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


class TestForward:
    @pytest.mark.parametrize("cfg", [
        AblationConfig(False, False, False),
        AblationConfig(True, False, False),
        AblationConfig(True, True, False),
        AblationConfig(True, True, True),
    ])
    def test_all_configs_shapes(self, cfg):
        gen = make_generator(15) if cfg.use_gan else None
        net = FusionSegNet(cfg, seed=16, generator=gen)
        x = Tensor(np.random.default_rng(17).random((2, 1, 32, 32)))
        assert net(x).data.shape == (2, 1, 32, 32)

    def test_body_and_full_differ(self):
        x = Tensor(np.random.default_rng(18).random((1, 1, 32, 32)))
        body = FusionSegNet(AblationConfig(), seed=19)
        full = FusionSegNet(AblationConfig(True, True, True), seed=19,
                            generator=make_generator(20))
        assert not np.allclose(body(x).data, full(x).data)

    def test_forward_bitwise_deterministic(self):
        net = FusionSegNet(AblationConfig(), seed=21)
        x = Tensor(np.random.default_rng(22).random((2, 1, 32, 32)))
        assert np.array_equal(net(x).data, net(Tensor(x.data.copy())).data)

    def test_output_spatial_invariance(self):
        net = FusionSegNet(AblationConfig(), seed=23)
        for size in (16, 32, 48):
            x = Tensor(np.random.default_rng(24).random((1, 1, size, size)))
            assert net(x).data.shape == (1, 1, size, size)

    def test_logits_unbounded(self):
        net = FusionSegNet(AblationConfig(), seed=25)
        x = Tensor(np.random.default_rng(26).random((1, 1, 16, 16)) * 50)
        logits = net(x).data
        assert logits.min() < 0 or logits.max() > 1  # raw scores, no squashing


class TestEndToEndGradients:
    def test_grad_check_through_whole_net(self):
        # toy 16x16 full config; perturb a few representative parameters
        net = FusionSegNet(AblationConfig(True, True, True), seed=27,
                           generator=make_generator(28))
        rng = np.random.default_rng(29)
        x = Tensor(rng.random((1, 1, 16, 16)))
        target = Tensor((rng.random((1, 1, 16, 16)) > 0.5).astype(float))

        def loss_fn(_):
            logits = net(Tensor(x.data))
            return composite_loss(dice_loss(T.sigmoid(logits), target),
                                  bce_sigmoid_loss(logits, target))

        params = dict(net.named_params())
        picks = ["attention.att.m_k", "attention.att.m_v",
                 "attention.lift.w", "decoder.head.w",
                 "encoder.stem.conv.w", "aspp.fuse.bn.gamma"]
        for name in picks:
            assert grad_check(loss_fn, params[name]) < 1e-3, name

    def test_checkpoint_roundtrip(self, tmp_path):
        net = FusionSegNet(AblationConfig(), seed=30)
        p1 = tmp_path / "a.ckpt"
        net.save(p1)
        other = FusionSegNet(AblationConfig(), seed=31)
        other.load(p1)
        p2 = tmp_path / "b.ckpt"
        other.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
