import tracemalloc
from contextlib import nullcontext

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
        out = double_normalize(Tensor(np.zeros((4, 3)))).data
        assert np.allclose(out, 0.25)

    def test_single_memory_unit(self):
        out = double_normalize(Tensor(np.random.default_rng(0).normal(size=(1, 5))))
        assert np.allclose(out.data, 1.0)

    def test_worked_example(self):
        a = Tensor(np.array([[0.0, np.log(2.0)], [0.0, 0.0]]))
        out = double_normalize(a).data
        assert np.allclose(out, [[0.4, 4 / 7], [0.6, 3 / 7]])

    def test_rows_sum_to_one(self):
        # each pixel's weights over the S memory units sum to one
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = Tensor(rng.normal(size=(5, 6)) * 20)
            out = double_normalize(a).data
            assert np.all(out >= 0)
            assert np.abs(out.sum(axis=0) - 1).max() < 1e-9


class TestExternalAttentionForward:
    def test_single_unit_collapses_to_value(self):
        att = make_att(1, 3)
        f = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        out = external_attention_forward(att, f).data
        assert np.allclose(out, np.broadcast_to(att.m_v.data.T, (3, 4)))

    def test_identical_keys_give_value_mean(self):
        att = make_att(4, 3)
        att.m_k.data[:] = att.m_k.data[0]
        f = Tensor(np.random.default_rng(3).normal(size=(3, 5)))
        out = external_attention_forward(att, f).data
        assert np.allclose(out, np.broadcast_to(att.m_v.data.mean(axis=0)[:, None],
                                                (3, 5)))

    def test_single_pixel_ignores_logits(self):
        att = make_att(2, 3)
        rng = np.random.default_rng(4)
        outs = [external_attention_forward(att, Tensor(rng.normal(size=(3, 1)))).data
                for _ in range(3)]
        expected = att.m_v.data.mean(axis=0)[:, None]
        for o in outs:
            assert np.allclose(o, expected)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            external_attention_forward(make_att(2, 3), Tensor(np.zeros((5, 4))))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        att = make_att(6, 4, seed=5)
        for _ in range(50):
            f = rng.normal(size=(4, 8))
            perm = rng.permutation(8)
            out = external_attention_forward(att, Tensor(f)).data
            out_p = external_attention_forward(att, Tensor(f[:, perm])).data
            assert np.abs(out[:, perm] - out_p).max() < 1e-12

    def test_grad_check_all_inputs(self):
        rng = np.random.default_rng(6)
        att = make_att(3, 2, seed=6)
        f = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

        def loss_via(target):
            def f_loss(_):
                out = external_attention_forward(att, f)
                return T.reduce_sum(T.mul(out, out))
            return f_loss

        for leaf in (f, att.m_k, att.m_v):
            assert grad_check(loss_via(leaf), leaf) < 1e-4

    def test_batched_equals_stacked(self):
        att = make_att(5, 4, seed=6)
        f = np.random.default_rng(6).normal(size=(3, 4, 7))
        out = external_attention_forward(att, Tensor(f)).data
        stacked = np.stack([external_attention_forward(att, Tensor(fi)).data
                            for fi in f])
        assert out.shape == (3, 4, 7)
        assert np.abs(out - stacked).max() < 1e-12


def composed(f, m_k, m_v):
    """External attention as the five ops it replaces."""
    return T.matmul(T.transpose2d(m_v), double_normalize(T.matmul(m_k, f)))


class TestExternalAttentionOp:
    @staticmethod
    def run(op, shape, s, seed):
        """Output and the gradients of f, m_k, m_v behind a residual add."""
        rng = np.random.default_rng(seed)
        f = Tensor(rng.normal(size=shape) * 3, requires_grad=True)
        m_k = Tensor(rng.normal(size=(s, shape[-2])), requires_grad=True)
        m_v = Tensor(rng.normal(size=(s, shape[-2])), requires_grad=True)
        out = op(f, m_k, m_v)
        g = Tensor(rng.normal(size=out.data.shape))
        # add() hands one gradient array to both parents, as in the stage
        T.reduce_sum(T.mul(T.add(out, f), g)).backward()
        return out.data, f.grad, m_k.grad, m_v.grad

    @pytest.mark.parametrize("shape, s", [
        ((3, 7), 4),            # one [d,N] matrix
        ((3, 4, 7), 5),         # [B,d,N]
        ((2, 3, 4, 6), 5),      # [2,3,d,N]
        ((2, 4, 5), 1),         # one memory unit
        ((3, 4, 1), 6),         # one pixel
        ((2, 8, 4096), 16),     # the full model's stage at 64 px
    ])
    def test_bitwise_equal_to_composition(self, shape, s):
        got = self.run(T.external_attention, shape, s, seed=sum(shape) + s)
        want = self.run(composed, shape, s, seed=sum(shape) + s)
        assert got[0].shape == shape
        for a, e in zip(got, want):
            assert np.array_equal(a, e)

    def test_no_grad_records_nothing(self):
        rng = np.random.default_rng(16)
        f = Tensor(rng.normal(size=(3, 4, 7)), requires_grad=True)
        m_k, m_v = (Tensor(rng.normal(size=(5, 4)), requires_grad=True)
                    for _ in range(2))
        with T.no_grad():
            out = T.external_attention(f, m_k, m_v)
        assert out._parents == () and not out.requires_grad
        assert np.array_equal(out.data, composed(f, m_k, m_v).data)

    @pytest.mark.parametrize("f, m_k, m_v", [
        ((3, 4, 7), (5, 3), (5, 4)),   # d of f is not m_k's width
        ((4, 7), (5, 4), (6, 4)),      # key and value unit counts differ
        ((7,), (5, 7), (5, 7)),        # features are not a matrix
        ((4, 7), (5, 4, 1), (5, 4)),   # 3-d key memory
    ])
    def test_shape_mismatch(self, f, m_k, m_v):
        with pytest.raises(DimensionError):
            T.external_attention(*(Tensor(np.zeros(s)) for s in (f, m_k, m_v)))


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
        # attention map is [S,N]; keys/values never grow with pixel count
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
                p.grad = None
            out = stage(Tensor(xs))
            T.reduce_sum(T.mul(out, Tensor(rs))).backward()
            return out.data, {n: p.grad.copy() for n, p in params}

        out, grads = run(x, r)
        singles = [run(x[i:i + 1], r[i:i + 1]) for i in range(3)]
        assert np.abs(out - np.concatenate([o for o, _ in singles])).max() < 1e-12
        assert sorted(grads) == ["s.att.m_k", "s.att.m_v", "s.lift.w", "s.reduce.w"]
        for name, g in grads.items():
            assert np.abs(g - sum(gs[name] for _, gs in singles)).max() < 1e-12


def pixels_first_stage(x, w_lift, m_k, m_v, w_reduce, g):
    """Output and the five gradients of the stage for upstream g, in numpy.

    The stage as a pixels-first [B,N,d] computation: lift, column softmax
    over pixels, row L1 over memory units, value read-out, residual, reduce,
    then its hand-written backward.
    """
    b, c, h, w = x.shape
    xp = x.reshape(b, c, h * w).transpose(0, 2, 1)
    lift, red = w_lift[:, :, 0, 0], w_reduce[:, :, 0, 0]
    f = xp @ lift.T
    logits = f @ m_k.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    denom = soft.sum(axis=2, keepdims=True) + 1e-300
    weights = soft / denom
    r = weights @ m_v + f
    out = (r @ red.T).transpose(0, 2, 1).reshape(b, -1, h, w)

    gp = g.reshape(b, -1, h * w).transpose(0, 2, 1)
    d_reduce = np.einsum("bno,bnd->od", gp, r)
    dr = gp @ red
    d_mv = np.einsum("bns,bnd->sd", weights, dr)
    dweights = dr @ m_v.T
    dsoft = (dweights - (dweights * weights).sum(axis=2, keepdims=True)) / denom
    dlogits = soft * (dsoft - (dsoft * soft).sum(axis=1, keepdims=True))
    d_mk = np.einsum("bns,bnd->sd", dlogits, f)
    df = dr + dlogits @ m_k
    d_lift = np.einsum("bnd,bnc->dc", df, xp)
    dx = (df @ lift).transpose(0, 2, 1).reshape(x.shape)
    return out, dx, d_lift[:, :, None, None], d_mk, d_mv, d_reduce[:, :, None, None]


class TestAttentionStageLayout:
    def test_matches_pixels_first_reference(self):
        rng = np.random.default_rng(14)
        stage = AttentionStage(2, 3, 4, s=5, rng=rng)
        x = Tensor(rng.normal(size=(3, 2, 4, 5)), requires_grad=True)
        out = stage(x)
        g = rng.normal(size=out.data.shape)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        got = (out.data, x.grad, stage.lift.w.grad, stage.att.m_k.grad,
               stage.att.m_v.grad, stage.reduce.w.grad)
        want = pixels_first_stage(x.data, stage.lift.w.data, stage.att.m_k.data,
                                  stage.att.m_v.data, stage.reduce.w.data, g)
        for a, e in zip(got, want):
            assert a.shape == e.shape
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max()

    @staticmethod
    def stage_peak(no_grad):
        """tracemalloc peak of one batch-8, 64-px pass of the full model's
        2 -> 8 -> 8 stage."""
        rng = np.random.default_rng(15)
        stage = AttentionStage(2, 8, 8, s=16, rng=rng)
        x = Tensor(rng.normal(size=(8, 2, 64, 64)))
        tracemalloc.start()
        try:
            with T.no_grad() if no_grad else nullcontext():
                stage(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_taped_forward_peak(self):
        # 12.9 MB with the one-op attention, which keeps only the softmax and
        # its L1 denominator; 21.2 MB as five taped ops, 29.6 MB when the
        # stage transposed to [B,N,d] and back
        assert self.stage_peak(no_grad=False) < 16e6

    def test_no_grad_forward_peak(self):
        # 6.3 MB: one image's [S,N] map at a time; 18.9 MB as five ops
        assert self.stage_peak(no_grad=True) < 8e6
