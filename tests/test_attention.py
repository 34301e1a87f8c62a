import numpy as np
import pytest

from fusionseg import tensor as T
from fusionseg.attention import (AttentionStage, ExternalAttention,
                                 double_normalize, external_attention_forward)
from fusionseg.errors import DimensionError
from fusionseg.tensor import Tensor, grad_check


def make_att(s, d, seed=0):
    return ExternalAttention(s=s, d=d, rng=np.random.default_rng(seed))


class TestDoubleNormalize:
    def test_equal_logits_uniform(self):
        out = double_normalize(Tensor(np.zeros((3, 4)))).data
        assert np.allclose(out, 0.25)

    def test_single_memory_unit(self):
        out = double_normalize(Tensor(np.random.default_rng(0).normal(size=(5, 1))))
        assert np.allclose(out.data, 1.0)

    def test_worked_example(self):
        a = Tensor(np.array([[0.0, 0.0], [np.log(2.0), 0.0]]))
        out = double_normalize(a).data
        assert np.allclose(out, [[0.4, 0.6], [4 / 7, 3 / 7]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = Tensor(rng.normal(size=(6, 5)) * 20)
            out = double_normalize(a).data
            assert np.all(out >= 0)
            assert np.abs(out.sum(axis=1) - 1).max() < 1e-9


class TestExternalAttentionForward:
    def test_single_unit_collapses_to_value(self):
        att = make_att(1, 3)
        f = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        out = external_attention_forward(att, f).data
        assert np.allclose(out, np.broadcast_to(att.m_v.data, (4, 3)))

    def test_identical_keys_give_value_mean(self):
        att = make_att(4, 3)
        att.m_k.data[:] = att.m_k.data[0]
        f = Tensor(np.random.default_rng(3).normal(size=(5, 3)))
        out = external_attention_forward(att, f).data
        assert np.allclose(out, np.broadcast_to(att.m_v.data.mean(axis=0), (5, 3)))

    def test_single_pixel_ignores_logits(self):
        att = make_att(2, 3)
        rng = np.random.default_rng(4)
        outs = [external_attention_forward(att, Tensor(rng.normal(size=(1, 3)))).data
                for _ in range(3)]
        expected = att.m_v.data.mean(axis=0)
        for o in outs:
            assert np.allclose(o, expected)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            external_attention_forward(make_att(2, 3), Tensor(np.zeros((4, 5))))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        att = make_att(6, 4, seed=5)
        for _ in range(50):
            f = rng.normal(size=(8, 4))
            perm = rng.permutation(8)
            out = external_attention_forward(att, Tensor(f)).data
            out_p = external_attention_forward(att, Tensor(f[perm])).data
            assert np.abs(out[perm] - out_p).max() < 1e-12

    def test_grad_check_all_inputs(self):
        rng = np.random.default_rng(6)
        att = make_att(3, 2, seed=6)
        f = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss_via(target):
            def f_loss(_):
                out = external_attention_forward(att, f)
                return T.reduce_sum(T.mul(out, out))
            return f_loss

        for leaf in (f, att.m_k, att.m_v):
            assert grad_check(loss_via(leaf), leaf) < 1e-4

    def test_batched_equals_stacked(self):
        att = make_att(5, 4, seed=6)
        f = np.random.default_rng(6).normal(size=(3, 7, 4))
        out = external_attention_forward(att, Tensor(f)).data
        stacked = np.stack([external_attention_forward(att, Tensor(fi)).data
                            for fi in f])
        assert out.shape == (3, 7, 4)
        assert np.abs(out - stacked).max() < 1e-12


class TestAttentionStage:
    def test_output_shape(self):
        stage = AttentionStage(2, 4, 6, s=5, rng=np.random.default_rng(7))
        x = Tensor(np.random.default_rng(8).normal(size=(3, 2, 4, 4)))
        assert stage(x).data.shape == (3, 6, 4, 4)

    def test_zero_value_memory_leaves_residual(self):
        stage = AttentionStage(1, 3, 2, s=1, rng=np.random.default_rng(9))
        stage.att.m_v.data[:] = 0.0
        x = Tensor(np.random.default_rng(10).normal(size=(1, 1, 4, 4)))
        out = stage(x).data
        # attention term vanishes, so the stage reduces the lifted input alone
        lifted = T.pointwise_conv(x, stage.lift.w)
        expected = T.pointwise_conv(lifted, stage.reduce.w).data
        assert np.allclose(out, expected)

    def test_pixel_permutation_equivariance_pre_reduce(self):
        rng = np.random.default_rng(11)
        stage = AttentionStage(2, 3, 2, s=4, rng=rng)
        x = rng.normal(size=(1, 2, 4, 4))
        flat = x.reshape(1, 2, 16)
        perm = rng.permutation(16)
        xp = flat[:, :, perm].reshape(1, 2, 4, 4)
        out = stage(Tensor(x)).data.reshape(1, -1, 16)
        out_p = stage(Tensor(xp)).data.reshape(1, -1, 16)
        assert np.abs(out[:, :, perm] - out_p).max() < 1e-12

    def test_memory_is_linear_in_pixels(self):
        # attention map is [N,S]; keys/values never grow with pixel count
        stage = AttentionStage(1, 3, 2, s=4, rng=np.random.default_rng(12))
        assert stage.att.m_k.data.shape == (4, 3)
        assert stage.att.m_v.data.shape == (4, 3)

    def test_batch_matches_single_images(self):
        rng = np.random.default_rng(13)
        stage = AttentionStage(2, 3, 4, s=5, rng=rng)
        x = rng.normal(size=(3, 2, 4, 5))
        r = rng.normal(size=(3, 4, 4, 5))
        params = stage.named_params("s")

        def run(xs, rs):
            for _, p in params:
                p.zero_grad()
            out = stage(Tensor(xs))
            T.reduce_sum(T.mul(out, Tensor(rs))).backward()
            return out.data, {n: p.grad.copy() for n, p in params}

        out, grads = run(x, r)
        singles = [run(x[i:i + 1], r[i:i + 1]) for i in range(3)]
        assert np.abs(out - np.concatenate([o for o, _ in singles])).max() < 1e-12
        assert sorted(grads) == ["s.att.m_k", "s.att.m_v", "s.lift.w", "s.reduce.w"]
        for name, g in grads.items():
            assert np.abs(g - sum(gs[name] for _, gs in singles)).max() < 1e-12
