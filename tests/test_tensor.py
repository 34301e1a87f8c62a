import numpy as np
import pytest

from fusionseg import tensor as T
from fusionseg.errors import ContractError, DimensionError, DomainError
from fusionseg.tensor import AdamWState, Tensor, adamw_step, grad_check


def rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_annihilator(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.all(T.matmul(a, Tensor(np.zeros((2, 3)))).data == 0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).random((2, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(T.conv2d(x, w).data, x.data)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w)
        assert out.data.shape == (1, 1, 3, 3)
        assert np.all(out.data == 9.0)

    def test_dilated_shape(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, stride=1, dilation=2, padding=0)
        assert out.data.shape == (1, 1, 1, 1)

    @pytest.mark.parametrize("k,stride,dilation,padding", [
        (1, 1, 1, 0), (3, 1, 1, 1), (3, 2, 1, 1), (3, 1, 2, 2), (5, 2, 1, 2),
    ])
    def test_shape_formula(self, k, stride, dilation, padding):
        h = 16
        x = Tensor(np.zeros((1, 1, h, h)))
        w = Tensor(np.zeros((1, 1, k, k)))
        out = T.conv2d(x, w, stride, dilation, padding)
        expected = T.conv_output_extent(h, k, stride, dilation, padding)
        assert out.data.shape[2] == expected

    def test_nonpositive_output(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((1, 1, 3, 3))),
                     Tensor(np.zeros((1, 1, 3, 3))), dilation=2)


class TestPointwise:
    def test_identity_mixing(self):
        x = Tensor(np.random.default_rng(1).random((2, 3, 4, 4)))
        w = Tensor(np.eye(3)[:, :, None, None])
        assert np.allclose(T.pointwise_conv(x, w).data, x.data)

    def test_channel_sum(self):
        x = Tensor(np.random.default_rng(2).random((1, 2, 3, 3)))
        w = Tensor(np.ones((1, 2, 1, 1)))
        out = T.pointwise_conv(x, w)
        assert np.allclose(out.data[:, 0], x.data.sum(axis=1))

    def test_channel_reduce_shape(self):
        x = Tensor(np.zeros((1, 2, 3, 3)))
        out = T.pointwise_conv(x, Tensor(np.zeros((1, 2, 1, 1))))
        assert out.data.shape == (1, 1, 3, 3)

    def test_rejects_non_1x1(self):
        with pytest.raises(DimensionError):
            T.pointwise_conv(Tensor(np.zeros((1, 2, 3, 3))),
                             Tensor(np.zeros((1, 2, 3, 3))))


class TestSoftmaxAndL1:
    def test_symmetric(self):
        out = T.softmax_axis(Tensor([0.0, 0.0]), 0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_single_element(self):
        assert np.allclose(T.softmax_axis(Tensor([3.0]), 0).data, [1.0])

    def test_ln2(self):
        out = T.softmax_axis(Tensor([0.0, np.log(2.0)]), 0)
        assert np.allclose(out.data, [1 / 3, 2 / 3])

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 5)) * 10)
        out = T.softmax_axis(x, 1).data
        assert np.all(out > 0)
        assert np.abs(out.sum(axis=1) - 1).max() < 1e-12

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            T.softmax_axis(Tensor([1.0]), 3)

    def test_l1_uniform(self):
        out = T.l1_normalize_axis(Tensor([1.0, 1.0, 1.0, 1.0]), 0)
        assert np.allclose(out.data, 0.25)

    def test_l1_zero_slice(self):
        out = T.l1_normalize_axis(Tensor([0.0, 0.0]), 0, eps=1e-9)
        assert np.all(out.data == 0)

    def test_l1_direct(self):
        out = T.l1_normalize_axis(Tensor([1.0, 3.0]), 0)
        assert np.allclose(out.data, [0.25, 0.75])

    def test_l1_rejects_negative(self):
        with pytest.raises(DomainError):
            T.l1_normalize_axis(Tensor([-1.0, 1.0]), 0)


class TestConcatChannels:
    def test_shape(self):
        a = Tensor(np.zeros((2, 1, 4, 4)))
        b = Tensor(np.zeros((2, 1, 4, 4)))
        assert T.concat_channels(a, b).data.shape == (2, 2, 4, 4)

    def test_order_preserved(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.random((2, 2, 3, 3)))
        b = Tensor(rng.random((2, 1, 3, 3)))
        out = T.concat_channels(a, b)
        assert np.array_equal(out.data[:, 0], a.data[:, 0])
        assert np.array_equal(out.data[:, 2], b.data[:, 0])

    def test_spatial_mismatch(self):
        with pytest.raises(DimensionError):
            T.concat_channels(Tensor(np.zeros((1, 1, 32, 32))),
                              Tensor(np.zeros((1, 1, 64, 64))))


class TestElementwise:
    def test_sigmoid_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_relu(self):
        out = T.relu(Tensor([-3.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 3.0])

    def test_add(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestUpsample:
    def test_factor_one_identity(self):
        x = Tensor(np.random.default_rng(5).random((1, 1, 3, 3)))
        assert np.array_equal(T.upsample_nearest(x, 1).data, x.data)

    def test_replication(self):
        out = T.upsample_nearest(Tensor(np.full((1, 1, 1, 1), 7.0)), 2)
        assert np.all(out.data == 7.0) and out.data.shape == (1, 1, 2, 2)

    def test_gradient_sums_replicas(self):
        x = Tensor(np.random.default_rng(6).random((1, 1, 2, 2)),
                   requires_grad=True)
        T.reduce_sum(T.upsample_nearest(x, 2)).backward()
        assert np.all(x.grad == 4.0)

    def test_rejects_bad_factor(self):
        with pytest.raises(DomainError):
            T.upsample_nearest(Tensor(np.zeros((1, 1, 2, 2))), 0)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        T.reduce_sum(T.mul(x, x)).backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_independent_tensor_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        T.reduce_sum(T.mul(y, y)).backward()
        assert x.grad is None

    def test_sigmoid_grad_at_zero(self):
        z = Tensor([0.0], requires_grad=True)
        T.reduce_sum(T.sigmoid(z)).backward()
        assert np.allclose(z.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_double_use_accumulates(self):
        # tensor consumed twice: grads are the sum of both paths
        x = Tensor(np.random.default_rng(7).normal(size=4), requires_grad=True)
        err = grad_check(lambda t: T.reduce_sum(
            T.add(T.mul(t, t), T.scale(t, 3.0))), x)
        assert err < 1e-8


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.random.default_rng(8).normal(size=5), requires_grad=True)
        assert grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x) < 1e-8

    def test_detects_wrong_gradient(self):
        def doubled(t):
            # builds a node whose backward reports twice the true gradient
            out = T.reduce_sum(t)
            return Tensor(out.data, requires_grad=True, _parents=(t,),
                          _backward_fn=lambda g: (2.0 * np.ones_like(t.data),))
        x = Tensor(np.ones(3), requires_grad=True)
        assert grad_check(doubled, x) == pytest.approx(1.0)

    def test_constant_function(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert grad_check(lambda t: Tensor(0.0), x) == 0.0


OPS = {
    "matmul": lambda t: T.reduce_sum(T.mul(T.matmul(t, T.transpose2d(t)),
                                           T.matmul(t, T.transpose2d(t)))),
    # batched left operand [2,3,2] against a shared [2,6] right operand
    "matmul_batched": lambda t: T.reduce_sum(T.mul(
        T.matmul(T.reshape(t, (2, 3, 2)), T.reshape(t, (2, 6))),
        T.matmul(T.reshape(t, (2, 3, 2)), T.reshape(t, (2, 6))))),
    "transpose_batched": lambda t: T.reduce_sum(T.mul(
        T.transpose2d(T.reshape(t, (2, 2, 3))), T.reshape(t, (2, 3, 2)))),
    "softmax": lambda t: T.reduce_sum(T.mul(T.softmax_axis(t, 1),
                                            T.softmax_axis(t, 0))),
    "relu": lambda t: T.reduce_sum(T.mul(T.relu(t), T.relu(t))),
    "sigmoid": lambda t: T.reduce_sum(T.mul(T.sigmoid(t), T.sigmoid(t))),
    "abs": lambda t: T.reduce_sum(T.mul(T.absolute(t), T.absolute(t))),
    "softplus": lambda t: T.reduce_sum(T.mul(T.softplus(t), T.softplus(t))),
    "div": lambda t: T.reduce_sum(T.div(T.mul(t, t), T.scale(T.sigmoid(t), 1.0, 1.0))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_elementwise_grad_check(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    worst = 0.0
    for _ in range(20):
        x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        worst = max(worst, grad_check(OPS[name], x))
    assert worst < 1e-4


def test_determinism_same_seed():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(2, 2, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out = T.reduce_sum(T.sigmoid(T.conv2d(x, w, padding=1)))
        out.backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()
    a, b = run(), run()
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


class TestAdamW:
    def test_first_step_no_decay(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        state = AdamWState.for_param(p)
        adamw_step(p, state, lr=0.01)
        assert p.data[0] == pytest.approx(0.99, abs=1e-6)
        assert state.step == 1

    def test_zero_grad_no_decay_unchanged(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.0])
        adamw_step(p, AdamWState.for_param(p), lr=0.01)
        assert p.data[0] == pytest.approx(1.0)

    def test_decoupled_weight_decay(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        adamw_step(p, AdamWState.for_param(p, weight_decay=0.1), lr=0.01)
        assert p.data[0] == pytest.approx(0.989, abs=1e-5)

    def test_missing_grad(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            adamw_step(p, AdamWState.for_param(p), lr=0.01)
