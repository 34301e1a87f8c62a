import numpy as np
import pytest

from fusionseg import tensor as T
from fusionseg.errors import ConfigurationError, DimensionError, DomainError
from fusionseg.gan import (GanPair, GeneratorNet,
                           cycle_loss, disc_loss, gan_train_step, ls_loss,
                           pretrain_gan)
from fusionseg.tensor import Tensor, grad_check


def toy_batch(rng, n=2, size=16):
    return Tensor(rng.random((n, 1, size, size)))


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
