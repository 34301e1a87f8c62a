import re

import numpy as np
import pytest

from fusionseg import tensor as T
from fusionseg.errors import ConfigurationError, DimensionError, DomainError
from fusionseg.gan import (DiscriminatorNet, GanPair, GeneratorNet,
                           cycle_loss, disc_loss, gan_train_step, ls_loss,
                           pretrain_gan)
from fusionseg.layers import BatchNorm2d, ConvBNRelu, InstanceNorm2d
from fusionseg.tensor import Tensor
from gradcheck import grad_check


def toy_batch(rng, n=2, size=16):
    return Tensor(rng.random((n, 1, size, size)))


def four_call_record(pair, bx, by):
    """A step's record from four separate generator calls, with no update:
    every value in it predates both optimizer steps."""
    fake_y, fake_x = pair.g_xy(bx), pair.g_yx(by)
    rec_x, rec_y = pair.g_yx(fake_y), pair.g_xy(fake_x)
    real, fake = (pair.d_y(by), pair.d_x(bx)), (pair.d_y(fake_y), pair.d_x(fake_x))
    return {
        "loss_g_xy": ls_loss(fake[0], 1.0).item(),
        "loss_g_yx": ls_loss(fake[1], 1.0).item(),
        "cycle_x": cycle_loss(bx, rec_x).item(),
        "cycle_y": cycle_loss(by, rec_y).item(),
        "loss_d_x": disc_loss(real[1], fake[1]).item(),
        "loss_d_y": disc_loss(real[0], fake[0]).item(),
        "d_real": float(np.mean([d.data.mean() for d in real])),
        "d_fake": float(np.mean([d.data.mean() for d in fake])),
    }


class TestGenerator:
    def test_shape_preserved(self):
        g = GeneratorNet(np.random.default_rng(0))
        out = g(Tensor(np.random.default_rng(1).random((8, 1, 64, 64))))
        assert out.data.shape == (8, 1, 64, 64)

    def test_outputs_in_unit_interval(self):
        g = GeneratorNet(np.random.default_rng(2))
        out = g(toy_batch(np.random.default_rng(3)))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_untrained_outputs_half(self):
        # final layer is zero-initialized, so sigmoid gives a constant 0.5
        g = GeneratorNet(np.random.default_rng(4))
        out = g(toy_batch(np.random.default_rng(5)))
        assert np.allclose(out.data, 0.5)

    def test_call_is_sigmoid_of_logits(self):
        g = GeneratorNet(np.random.default_rng(9))
        g.final.w.data[:] = np.random.default_rng(10).normal(
            size=g.final.w.data.shape)
        x = toy_batch(np.random.default_rng(11))
        assert np.array_equal(g(x).data, T.sigmoid(g.logits(x)).data)

    def test_rejects_multichannel(self):
        g = GeneratorNet(np.random.default_rng(6))
        with pytest.raises(DimensionError):
            g(Tensor(np.zeros((1, 2, 16, 16))))

    def test_trained_output_does_not_depend_on_the_batch(self):
        # trained, so the output is not the constant 0.5 of the untrained net
        sets = np.random.default_rng(7).random((2, 8, 1, 16, 16))
        g = pretrain_gan(sets[0], sets[1], 10, seed=8).g_xy
        x = sets[0]
        batched = g(Tensor(x)).data
        assert batched.std() > 1e-3
        # within rounding, not bitwise: BLAS may block a GEMM differently
        # at another batch size
        for i in range(len(x)):
            np.testing.assert_allclose(g(Tensor(x[i:i + 1])).data[0],
                                       batched[i], rtol=0, atol=1e-12)

    def test_up_blocks_keep_conv_bn_relu_params_and_maths(self):
        # an up block holds a ConvBNRelu's parameters under its names, so a
        # GAN checkpoint loads as it is, and computes that block after a
        # nearest x2 upsample
        up = GeneratorNet(np.random.default_rng(34)).up1
        ref = ConvBNRelu(16, 8, 3, padding=1, rng=np.random.default_rng(0),
                         norm=InstanceNorm2d)
        assert ([(n, p.data.shape) for n, p in up.named_params()]
                == [(n, p.data.shape) for n, p in ref.named_params()])
        x = Tensor(np.random.default_rng(35).normal(size=(2, 16, 5, 6)))
        want = ConvBNRelu.__call__(up, T.upsample_nearest(x, 2)).data
        assert np.abs(up(x).data - want).max() < 1e-12

class TestDiscriminator:
    def test_score_does_not_depend_on_the_batch(self):
        sets = np.random.default_rng(27).random((2, 6, 1, 16, 16))
        d = pretrain_gan(sets[0], sets[1], 10, seed=28).d_y
        batched = d(Tensor(sets[1])).data
        for i in range(len(sets[1])):
            np.testing.assert_allclose(d(Tensor(sets[1][i:i + 1])).data[0],
                                       batched[i], rtol=0, atol=1e-12)

    def test_batch_one_steps_equal_batch_norm_bitwise(self):
        # at batch 1 instance norm is batch norm's maths: the losses and
        # every parameter come out the same bits with either
        rng = np.random.default_rng(29)
        xs, ys = rng.random((5, 1, 1, 16, 16)), rng.random((5, 1, 1, 16, 16))

        def run(batch_norm):
            pair = GanPair(seed=30)
            if batch_norm:
                for block in (pair.d_x.c1, pair.d_x.c2, pair.d_y.c1, pair.d_y.c2):
                    bn = BatchNorm2d(len(block.bn.gamma.data))
                    bn.gamma, bn.beta = block.bn.gamma, block.bn.beta
                    block.bn = bn
            recs = [gan_train_step(pair, Tensor(x), Tensor(y), 1e-3)
                    for x, y in zip(xs, ys)]
            return recs, [p.data for _, p in pair.named_params()]

        (recs_in, params_in), (recs_bn, params_bn) = run(False), run(True)
        assert recs_in == recs_bn
        assert all(np.array_equal(a, b) for a, b in zip(params_in, params_bn))


class TestAdversarialLosses:
    def test_perfect_discriminator(self):
        loss_d = disc_loss(Tensor([1.0]), Tensor([0.0]))
        assert loss_d.item() == 0.0

    def test_equilibrium_at_half(self):
        loss_d = disc_loss(Tensor([0.5]), Tensor([0.5]))
        loss_g = ls_loss(Tensor([0.5]), 1.0)
        assert loss_d.item() == pytest.approx(0.25)
        assert loss_g.item() == pytest.approx(0.25)

    def test_perfect_generator(self):
        loss_g = ls_loss(Tensor([1.0]), 1.0)
        assert loss_g.item() == 0.0

    def test_grad_check(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            scores = Tensor(rng.uniform(0.1, 0.9, size=6), requires_grad=True)
            real = Tensor(rng.uniform(0.1, 0.9, size=6))
            assert grad_check(
                lambda t: T.add(disc_loss(real, t), ls_loss(t, 1.0)), scores) < 1e-4


class TestCycleLoss:
    def test_zero_for_identity(self):
        x = Tensor(np.random.default_rng(8).random((1, 1, 4, 4)))
        assert cycle_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_constant_gap(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        rec = Tensor(np.full((1, 1, 4, 4), 0.1))
        assert cycle_loss(x, rec).item() == pytest.approx(1.0)

    def test_grad_check(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.random((1, 1, 3, 3)))
        rec = Tensor(rng.random((1, 1, 3, 3)) + 0.01, requires_grad=True)
        assert grad_check(lambda t: cycle_loss(x, t), rec) < 1e-4


class TestTrainStep:
    def test_deterministic(self):
        rng = np.random.default_rng(12)
        bx, by = toy_batch(rng), toy_batch(rng)

        def run():
            pair = GanPair(seed=13)
            return gan_train_step(pair, Tensor(bx.data.copy()),
                                  Tensor(by.data.copy()), 1e-3)
        assert run() == run()

    def test_generator_step_freezes_discriminators(self):
        rng = np.random.default_rng(14)
        pair = GanPair(seed=15)
        d_before = [p.data.copy() for p in pair.disc_opt.params]
        g_before = [p.data.copy() for p in pair.gen_opt.params]
        gan_train_step(pair, toy_batch(rng), toy_batch(rng), 1e-3)
        # both phases ran: everything moved, but only via its own phase
        assert any(not np.array_equal(b, p.data)
                   for b, p in zip(g_before, pair.gen_opt.params))
        assert any(not np.array_equal(b, p.data)
                   for b, p in zip(d_before, pair.disc_opt.params))

    def test_freeze_discipline_bitwise(self):
        # zero adversarial pressure: make both discriminator phases no-ops by
        # stepping with lr=0 is not available, so instead check that the
        # generator phase alone leaves discriminators untouched
        rng = np.random.default_rng(16)
        pair = GanPair(seed=17)
        d_before = [p.data.copy() for p in pair.disc_opt.params]

        bx = toy_batch(rng)
        fake_y = pair.g_xy(bx)
        loss_g = ls_loss(pair.d_y(fake_y), 1.0)
        loss = T.add(loss_g, cycle_loss(bx, pair.g_yx(fake_y)))
        loss.backward()
        pair.gen_opt.step(1e-3)
        for before, p in zip(d_before, pair.disc_opt.params):
            assert np.array_equal(before, p.data)

    def test_generators_build_no_upsampled_array(self, monkeypatch):
        calls = []
        upsample = T.upsample_nearest
        monkeypatch.setattr(T, "upsample_nearest",
                            lambda *a: calls.append(1) or upsample(*a))
        rng = np.random.default_rng(19)
        gan_train_step(GanPair(seed=20), toy_batch(rng), toy_batch(rng), 1e-3)
        assert calls == []

    def test_generator_phase_makes_three_calls(self, monkeypatch):
        sizes = []
        call = GeneratorNet.__call__
        monkeypatch.setattr(GeneratorNet, "__call__",
                            lambda self, x: sizes.append(len(x.data)) or call(self, x))
        rng = np.random.default_rng(33)
        gan_train_step(GanPair(seed=34), toy_batch(rng, n=1), toy_batch(rng, n=1),
                       1e-3)
        assert sizes == [1, 2, 1]

    def test_first_step_equals_four_call_reference_bitwise(self):
        # each image's forward is per image, so one g_xy call on [x, fake_x]
        # gives the bits of two separate calls
        rng = np.random.default_rng(35)
        bx, by = toy_batch(rng, n=1), toy_batch(rng, n=1)
        record = gan_train_step(GanPair(seed=36), bx, by, 1e-3)
        assert record == four_call_record(GanPair(seed=36), bx, by)

    def test_unequal_batches_split_where_the_x_images_end(self):
        rng = np.random.default_rng(37)
        bx, by = toy_batch(rng, n=2), toy_batch(rng, n=3)
        record = gan_train_step(GanPair(seed=38), bx, by, 1e-3)
        reference = four_call_record(GanPair(seed=38), bx, by)
        assert record.keys() == reference.keys()
        for key, value in reference.items():
            assert abs(record[key] - value) <= 1e-12, key

    @pytest.mark.parametrize("shape_y", [(1, 1, 8, 8), (1, 2, 16, 16)],
                             ids=["spatial", "channels"])
    def test_rejects_mismatched_domains_before_any_net_runs(self, monkeypatch,
                                                            shape_y):
        calls = []
        for net in (GeneratorNet, DiscriminatorNet):
            monkeypatch.setattr(net, "__call__", lambda self, x: calls.append(1))
        with pytest.raises(DimensionError,
                           match=re.escape(f"(1, 1, 16, 16) and {shape_y}")):
            gan_train_step(GanPair(seed=39), Tensor(np.zeros((1, 1, 16, 16))),
                           Tensor(np.zeros(shape_y)), 1e-3)
        assert calls == []

    def test_record_holds_the_discriminator_phase_scores(self):
        # with both steps skipped, the nets after the step score as they did
        # in its discriminator phase
        rng = np.random.default_rng(21)
        bx, by = toy_batch(rng), toy_batch(rng)
        pair = GanPair(seed=22)
        pair.gen_opt.step = pair.disc_opt.step = lambda lr: None
        record = gan_train_step(pair, bx, by, 1e-3)
        real = [pair.d_y(by).data.mean(), pair.d_x(bx).data.mean()]
        fake = [pair.d_y(pair.g_xy(bx)).data.mean(),
                pair.d_x(pair.g_yx(by)).data.mean()]
        assert record["d_real"] == float(np.mean(real))
        assert record["d_fake"] == float(np.mean(fake))
        assert 0.0 < record["d_fake"] < 1.0 and 0.0 < record["d_real"] < 1.0

    def test_rejects_empty_batch(self):
        pair = GanPair(seed=18)
        with pytest.raises(DimensionError):
            gan_train_step(pair, Tensor(np.zeros((0, 1, 8, 8))),
                           Tensor(np.zeros((1, 1, 8, 8))), 1e-3)


class TestPretrain:
    def test_zero_iterations_equals_init(self, tmp_path):
        rng = np.random.default_rng(19)
        xs, ys = rng.random((3, 1, 16, 16)), rng.random((2, 1, 16, 16))
        path = tmp_path / "gan.ckpt"
        pair = pretrain_gan(xs, ys, 0, seed=20, checkpoint_path=path)
        fresh = GanPair(seed=20)
        for (_, a), (_, b) in zip(pair.named_params(), fresh.named_params()):
            assert np.array_equal(a.data, b.data)

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        xs, ys = rng.random((3, 1, 16, 16)), rng.random((2, 1, 16, 16))
        path = tmp_path / "gan.ckpt"
        pair = pretrain_gan(xs, ys, 2, seed=22, checkpoint_path=path)
        restored = GanPair(seed=99)
        restored.load(path)
        for (_, a), (_, b) in zip(pair.named_params(), restored.named_params()):
            assert np.array_equal(a.data, b.data)

    def test_rejects_empty_set(self):
        with pytest.raises(ConfigurationError):
            pretrain_gan(np.zeros((0, 1, 8, 8)), np.zeros((1, 1, 8, 8)), 1, 0)

    def test_non_finite_loss_is_domain_error(self, tmp_path):
        rng = np.random.default_rng(25)
        xs, ys = rng.random((1, 1, 16, 16)), rng.random((2, 1, 16, 16))
        xs[0, 0, 3, 5] = np.nan
        path = tmp_path / "gan.ckpt"
        recs = []
        with pytest.raises(DomainError, match="iteration 0"):
            pretrain_gan(xs, ys, 3, seed=26, checkpoint_path=path,
                         log_fn=lambda it, r: recs.append(r))
        assert recs == [] and not path.exists()

    def test_asymmetric_set_sizes(self):
        rng = np.random.default_rng(23)
        xs, ys = rng.random((6, 1, 16, 16)), rng.random((1, 1, 16, 16))
        recs = []
        pretrain_gan(xs, ys, 3, seed=24, log_fn=lambda it, r: recs.append(r))
        assert len(recs) == 3
