import tracemalloc
import zlib

import numpy as np
import pytest

from fusionseg import tensor as T
from fusionseg.errors import ContractError, DimensionError, DomainError
from fusionseg.layers import Conv2d, ConvBNRelu
from fusionseg.tensor import AdamW, Tensor
from gradcheck import grad_check


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

    def test_shared_left_matches_per_image(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 4, 3), rand(rng, 5, 3, 6)
        out = T.matmul(a, b)
        g = rng.normal(size=out.data.shape)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        assert out.data.shape == (5, 4, 6)
        assert np.abs(out.data - np.stack([a.data @ bi for bi in b.data])).max() < 1e-12
        da = sum(gi @ bi.T for gi, bi in zip(g, b.data))
        assert np.abs(a.grad - da).max() < 1e-12
        assert np.abs(b.grad - np.stack([a.data.T @ gi for gi in g])).max() < 1e-12

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (2, 4, 5)), ((3, 4), (2, 5, 6)),
                                        ((2, 3, 4), (4, 5))],
                             ids=["both_batched", "inner_mismatch", "batched_left"])
    def test_shared_left_rejected(self, shapes):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones(shapes[0])), Tensor(np.ones(shapes[1])))


def conv_case(k, s, d, p, cin=3):
    """One (k, stride, dilation, padding, input channels) case; the id names
    the channels only when they are not 3."""
    return pytest.param(k, s, d, p, cin, id="-".join(map(str, (k, s, d, p)))
                        + ("" if cin == 3 else f"-cin{cin}"))


# a one-channel 3x3 conv runs _conv_blocks' folded GEMM (9 tap-channels)
CONV_CASES = ([conv_case(k, s, d, p) for k in (1, 3) for s in (1, 2)
               for d in (1, 2, 4) for p in sorted({0, 1, d})]
              + [conv_case(3, s, d, p, cin=1) for s in (1, 2) for d in (1, 2)
                 for p in sorted({0, 1, d})])


def direct_conv(x, w, g, stride, dilation, padding):
    """Output and both gradients (for upstream g) by a nested-loop direct conv."""
    b, _, h, wd = x.shape
    _, _, k, _ = w.shape
    ho = T.conv_output_extent(h, k, stride, dilation, padding)
    wo = T.conv_output_extent(wd, k, stride, dilation, padding)
    out = np.zeros((b, w.shape[0], ho, wo))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for n in range(b):
        for oy in range(ho):
            for ox in range(wo):
                for i in range(k):
                    for j in range(k):
                        y = oy * stride + i * dilation - padding
                        xx = ox * stride + j * dilation - padding
                        if 0 <= y < h and 0 <= xx < wd:
                            out[n, :, oy, ox] += w[:, :, i, j] @ x[n, :, y, xx]
                            dx[n, :, y, xx] += w[:, :, i, j].T @ g[n, :, oy, ox]
                            dw[:, :, i, j] += np.outer(g[n, :, oy, ox], x[n, :, y, xx])
    return out, dx, dw


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

    @pytest.mark.parametrize("x_shape,w_shape,kwargs,error,match", [
        ((1, 1, 5, 5), (1, 1, 2, 2), {}, DimensionError, "square and odd"),
        ((1, 1, 5, 5), (1, 1, 3, 1), {}, DimensionError, "square and odd"),
        ((1, 2, 5, 5), (1, 3, 3, 3), {}, DimensionError, "channel mismatch"),
        ((1, 1, 5, 5), (1, 1, 3, 3), {"stride": 0}, DomainError, "stride"),
        ((1, 1, 5, 5), (1, 1, 3, 3), {"dilation": 0}, DomainError, "dilation"),
        ((1, 1, 5, 5), (1, 1, 3, 3), {"padding": -1}, DomainError, "padding"),
        ((1, 5, 5), (1, 1, 3, 3), {}, DimensionError, "4-d"),
    ], ids=["even_kernel", "non_square_kernel", "channel_mismatch",
            "zero_stride", "zero_dilation", "negative_padding", "3d_input"])
    def test_rejects_bad_arguments(self, x_shape, w_shape, kwargs, error, match):
        with pytest.raises(error, match=match):
            T.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), **kwargs)

    @pytest.mark.parametrize("k", [3, 1])
    def test_grad_check_strided_unpadded(self, k):
        # at stride 2 and padding 0 no tap reads the last row or column of 8x8
        rng = np.random.default_rng(4)
        conv = Conv2d(2, 3, k, stride=2, rng=rng)
        x = rand(rng, 2, 2, 8, 8)
        expected = T.conv_output_extent(8, k, 2, 1, 0)
        assert conv(x).data.shape == (2, 3, expected, expected)

        def loss(_):
            out = conv(x)
            return T.reduce_sum(T.mul(out, out))

        assert grad_check(loss, x) < 1e-8
        assert grad_check(loss, conv.w) < 1e-8
        loss(None).backward()
        assert np.all(x.grad[:, :, -1, :] == 0) and np.all(x.grad[:, :, :, -1] == 0)

    @staticmethod
    def check_direct(batch, k, stride, dilation, padding, cin):
        rng = np.random.default_rng(7)
        x = rand(rng, batch, cin, 11, 10)
        w = rand(rng, 5, cin, k, k)
        out = T.conv2d(x, w, stride, dilation, padding)
        g = rng.normal(size=out.data.shape)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        expected = direct_conv(x.data, w.data, g, stride, dilation, padding)
        for got, want in zip((out.data, x.grad, w.grad), expected):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k,stride,dilation,padding,cin", CONV_CASES)
    def test_matches_direct_conv(self, batch, k, stride, dilation, padding, cin):
        self.check_direct(batch, k, stride, dilation, padding, cin)

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("k,stride,dilation,padding,cin", CONV_CASES)
    def test_blocks_match_direct_conv(self, monkeypatch, per_block, k, stride,
                                      dilation, padding, cin):
        # 3 images in blocks of one, or of two and a short last block; the
        # 5 output channels are the larger product of the two directions
        # (and of a one-channel source's 9 folded tap-channels, so its blocks
        # are a little smaller)
        ho = T.conv_output_extent(11, k, stride, dilation, padding)
        wo = T.conv_output_extent(10, k, stride, dilation, padding)
        monkeypatch.setattr(T, "CONV_BLOCK_BYTES", per_block * ho * wo * 5 * 8)
        self.check_direct(3, k, stride, dilation, padding, cin)

    def test_blocks_give_the_same_bits(self, monkeypatch):
        # 4 channels of a 16x16 input give 5 images at 16x16 (8 KB an image)
        # or 8x8 (2 KB an image) outputs; they run in blocks of 2, 2 and 1;
        # one block, or one image alone, gives the same bits. One input
        # channel folds 9 taps into one GEMM, whose buffer has 9 channels
        rng = np.random.default_rng(9)
        x0, w0 = rng.normal(size=(5, 4, 16, 16)), rng.normal(size=(4, 4, 3, 3))
        for cin, stride, dilation, padding in ((4, 1, 1, 1), (4, 2, 1, 1),
                                               (4, 1, 2, 2), (1, 2, 1, 1)):
            ho = T.conv_output_extent(16, 3, stride, dilation, padding)
            per_image = ho * ho * (9 if cin == 1 else 4) * 8
            g = rng.normal(size=(5, 4, ho, ho))

            def run(block_bytes, rows=slice(None)):
                monkeypatch.setattr(T, "CONV_BLOCK_BYTES", block_bytes)
                x = Tensor(x0[rows, :cin], requires_grad=True)
                w = Tensor(w0[:, :cin], requires_grad=True)
                out = T.conv2d(x, w, stride, dilation, padding)
                T.reduce_sum(T.mul(out, Tensor(g[rows]))).backward()
                return out.data, x.grad, w.grad

            blocked, whole = run(3 * per_image - 1), run(5 * per_image)
            for got, want in zip(blocked, whole):
                assert np.array_equal(got, want)
            for i in range(5):
                alone = run(5 * per_image, slice(i, i + 1))
                assert np.array_equal(alone[0], whole[0][i:i + 1])
                assert np.array_equal(alone[1], whole[1][i:i + 1])

    def test_no_input_gradient_when_input_needs_none(self, monkeypatch):
        # the weight gradient is the same bits, and no transposed conv runs:
        # the forward is the one call of the kernel
        rng = np.random.default_rng(11)
        x0, w0 = rng.normal(size=(3, 4, 9, 9)), rng.normal(size=(5, 4, 3, 3))
        calls = []
        kernel = T._conv_blocks
        monkeypatch.setattr(T, "_conv_blocks",
                            lambda *a: calls.append(1) or kernel(*a))

        def run(x_needs_grad):
            calls.clear()
            x = Tensor(x0, requires_grad=x_needs_grad)
            w = Tensor(w0, requires_grad=True)
            out = T.conv2d(x, w, stride=2, padding=1)
            T.reduce_sum(T.mul(out, out)).backward()
            return x.grad, w.grad, len(calls)

        (dx_none, dw_none, n_none), (dx, dw, n) = run(False), run(True)
        assert dx_none is None and dx is not None
        assert np.array_equal(dw_none, dw)
        assert n_none == 1 and n > 1

    def test_forward_working_memory(self):
        # blocks keep the per-tap products in cache-sized buffers: beyond its
        # output and padded channels-last copy, the forward peaks under 1 MB
        # (a whole-batch [8,64,64,8] product is 2 MB)
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(8, 8, 64, 64)))
        w = Tensor(rng.normal(size=(8, 8, 3, 3)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        padded = 8 * 66 * 66 * 8 * 8
        assert peak - out.data.nbytes - padded < 2**20

    def test_backward_working_memory(self):
        # the weight gradient works per image block and the input gradient
        # through the blocked forward kernel: one backward, results included,
        # peaks under 6 MB (a whole-batch scatter and window copy took 8.8)
        rng = np.random.default_rng(12)
        x = rand(rng, 8, 8, 64, 64)
        w = rand(rng, 8, 8, 3, 3)
        out = T.conv2d(x, w, padding=1)
        g = rng.normal(size=out.data.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = out._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grads[0].shape == x.data.shape and peak < 6e6

    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
    def test_tape_holds_no_extra_input_copy(self, k, padding):
        # a 1x1 conv keeps no copy of its input; a padded one only its
        # channels-last copy
        rng = np.random.default_rng(8)
        x = rand(rng, 8, 16, 32, 32)
        w = rand(rng, 16, 16, k, k)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, padding=padding)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        padded = 8 * 16 * (32 + 2 * padding) ** 2 * 8 if padding else 0
        assert held - out.data.nbytes - padded < 64 * 1024


class TestUpsampleConv2d:
    @staticmethod
    def both(x0, w0, g):
        """Output, dx and dw of the op and of the composition it replaces."""
        results = []
        for op in (T.upsample_conv2d, lambda x, w: T.conv2d(
                T.upsample_nearest(x, 2), w, padding=1)):
            x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
            out = op(x, w)
            T.reduce_sum(T.mul(out, Tensor(g))).backward()
            results.append((out.data, x.grad, w.grad))
        return results

    @pytest.mark.parametrize("shape", [(1, 3, 5, 6), (3, 2, 5, 6), (2, 1, 3, 7),
                                       (1, 2, 1, 1), (2, 3, 1, 4)],
                             ids=["batch1_odd_h", "batch3", "one_channel",
                                  "one_pixel", "one_row"])
    def test_matches_composition(self, shape):
        rng = np.random.default_rng(13)
        b, c, h, wd = shape
        x0, w0 = rng.normal(size=shape), rng.normal(size=(4, c, 3, 3))
        g = rng.normal(size=(b, 4, 2 * h, 2 * wd))
        for got, want in zip(*self.both(x0, w0, g)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_blocks_give_the_same_bits(self, monkeypatch):
        # 5 images of [2,3,5,6] in blocks of 2, 2 and 1, or in one block, or
        # one image alone
        rng = np.random.default_rng(14)
        x0, w0 = rng.normal(size=(5, 3, 5, 6)), rng.normal(size=(4, 3, 3, 3))
        g = rng.normal(size=(5, 4, 10, 12))

        def run(block_bytes, rows=slice(None)):
            monkeypatch.setattr(T, "CONV_BLOCK_BYTES", block_bytes)
            x = Tensor(x0[rows], requires_grad=True)
            w = Tensor(w0, requires_grad=True)
            out = T.upsample_conv2d(x, w)
            T.reduce_sum(T.mul(out, Tensor(g[rows]))).backward()
            return out.data, x.grad, w.grad

        # a [5,6] block of max(C, O) = 4 channels: every pass of the 5 images,
        # forward and backward, then runs in blocks of 2, 2 and 1
        per_image = 5 * 6 * 4 * 8
        sizes, block_images = [], T._block_images

        def recorded(*args):
            sizes.append(block_images(*args))
            return sizes[-1]

        monkeypatch.setattr(T, "_block_images", recorded)
        blocked = run(3 * per_image - 1)
        assert sizes and set(sizes) == {2}
        whole = run(5 * per_image)
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)
        for i in range(5):
            alone = run(5 * per_image, slice(i, i + 1))
            assert np.array_equal(alone[0], whole[0][i:i + 1])
            assert np.array_equal(alone[1], whole[1][i:i + 1])

    @pytest.mark.parametrize("leaf", ["x", "w"])
    def test_grad_check(self, leaf):
        rng = np.random.default_rng(15)
        x, w = rand(rng, 2, 2, 3, 4), rand(rng, 3, 2, 3, 3)

        def loss(_):
            out = T.upsample_conv2d(x, w)
            return T.reduce_sum(T.mul(out, out))

        assert grad_check(loss, x if leaf == "x" else w) < 1e-4

    def test_no_input_gradient_when_input_needs_none(self):
        rng = np.random.default_rng(16)
        x0, w0 = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 3, 3))
        grads = []
        for needs in (False, True):
            x, w = Tensor(x0, requires_grad=needs), Tensor(w0, requires_grad=True)
            out = T.upsample_conv2d(x, w)
            T.reduce_sum(T.mul(out, out)).backward()
            grads.append((x.grad, w.grad))
        assert grads[0][0] is None and grads[1][0] is not None
        assert np.array_equal(grads[0][1], grads[1][1])

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((1, 2, 4, 4), (3, 2, 1, 1)), ((1, 2, 4, 4), (3, 2, 5, 5)),
        ((2, 4, 4), (3, 2, 3, 3)), ((1, 2, 4, 4), (3, 1, 3, 3)),
    ], ids=["1x1_weight", "5x5_weight", "3d_input", "channel_mismatch"])
    def test_rejects_bad_shapes(self, x_shape, w_shape):
        with pytest.raises(DimensionError):
            T.upsample_conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))


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
        out = T.l1_normalize_axis(Tensor([0.0, 0.0]), 0)
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

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_three_unequal_widths_grad(self, position):
        rng = np.random.default_rng(5)
        parts = [Tensor(rng.random((2, c, 3, 3))) for c in (1, 3, 2)]
        w = Tensor(rng.random((2, 6, 3, 3)))

        def f(x):
            inputs = parts[:position] + [x] + parts[position + 1:]
            return T.reduce_sum(T.mul(T.concat_channels(*inputs), w))

        x = Tensor(parts[position].data.copy(), requires_grad=True)
        assert grad_check(f, x) < 1e-6

    @pytest.mark.parametrize("shapes", [
        ((2, 1, 4, 4), (2, 2, 4, 4), (1, 1, 4, 4)),
        ((2, 1, 4, 4), (2, 2, 4, 2), (2, 1, 4, 4)),
    ], ids=["batch", "spatial"])
    def test_three_input_mismatch(self, shapes):
        with pytest.raises(DimensionError):
            T.concat_channels(*(Tensor(np.zeros(s)) for s in shapes))


class TestBatchOps:
    def test_slice_grad_check(self):
        rng = np.random.default_rng(31)
        w = Tensor(rng.random((2, 2, 3, 3)))
        x = Tensor(rng.random((4, 2, 3, 3)), requires_grad=True)
        f = lambda t: T.reduce_sum(T.mul(T.batch_slice(t, 1, 3), w))
        assert grad_check(f, x) < 1e-4

    def test_both_halves_sum_back_in_place(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.random((3, 1, 2, 2)), requires_grad=True)
        wa, wb = rng.random((1, 1, 2, 2)), rng.random((2, 1, 2, 2))
        T.add(T.reduce_sum(T.mul(T.batch_slice(x, 0, 1), Tensor(wa))),
              T.reduce_sum(T.mul(T.batch_slice(x, 1, 3), Tensor(wb)))).backward()
        assert np.array_equal(x.grad, np.concatenate([wa, wb]))

    @pytest.mark.parametrize("start, stop", [(1, 1), (2, 1), (-1, 1), (0, 4), (3, 4)])
    def test_slice_rejects_empty_or_out_of_range(self, start, stop):
        with pytest.raises(DimensionError, match="out of range"):
            T.batch_slice(Tensor(np.zeros((3, 1, 2, 2))), start, stop)

    def test_concat_round_trip(self):
        rng = np.random.default_rng(33)
        a = Tensor(rng.random((1, 1, 2, 2)), requires_grad=True)
        b = Tensor(rng.random((2, 1, 2, 2)), requires_grad=True)
        both = T.concat_batch([a, b])
        assert np.array_equal(T.batch_slice(both, 0, 1).data, a.data)
        assert np.array_equal(T.batch_slice(both, 1, 3).data, b.data)
        g = rng.random((3, 1, 2, 2))
        T.reduce_sum(T.mul(both, Tensor(g))).backward()
        assert np.array_equal(a.grad, g[:1]) and np.array_equal(b.grad, g[1:])

    def test_concat_rejects_mismatched_images(self):
        with pytest.raises(DimensionError):
            T.concat_batch([Tensor(np.zeros((1, 1, 4, 4))),
                            Tensor(np.zeros((1, 1, 4, 2)))])


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

    def test_five_consumers_sum_newest_first(self):
        # a leaf read by five ops, as ASPP's input is
        rng = np.random.default_rng(8)
        x = rand(rng, 16)
        cs = [Tensor(rng.normal(size=16)) for _ in range(5)]

        def f(t):
            s = T.mul(t, cs[0])
            for c in cs[1:]:
                s = T.add(s, T.mul(t, c))
            return T.reduce_sum(T.mul(s, s))

        s = x.data * cs[0].data
        for c in cs[1:]:
            s = s + x.data * c.data
        g1, g2, g3, g4, g5 = ((s + s) * c.data for c in cs)
        f(x).backward()
        newest_first = (((g5 + g4) + g3) + g2) + g1
        assert np.array_equal(x.grad, newest_first)
        assert not np.array_equal(newest_first, (((g1 + g2) + g3) + g4) + g5)
        assert grad_check(f, x) < 1e-4

    def test_each_backward_fn_runs_once(self):
        # a diamond (a feeds b and c, which meet in d) plus a fan-out of a
        x = rand(np.random.default_rng(9), 3)
        a = T.mul(x, x)
        b = T.sigmoid(a)
        c = T.scale(a, 2.0)
        d = T.mul(b, c)
        e = T.add(d, a)
        loss = T.reduce_sum(e)
        calls = []

        def counted(name, fn):
            return lambda g: calls.append(name) or fn(g)

        for name, node in dict(a=a, b=b, c=c, d=d, e=e, loss=loss).items():
            node._backward_fn = counted(name, node._backward_fn)
        loss.backward()
        assert sorted(calls) == ["a", "b", "c", "d", "e", "loss"]

    def test_node_without_gradient_is_never_swept(self):
        x = rand(np.random.default_rng(10), 3)

        def never(g):
            raise AssertionError("swept a node that has no gradient")

        dead = T.mul(x, x)  # ancestor, but its consumer gives it no gradient
        dead._backward_fn = never
        side = T.sigmoid(x)  # never reaches the loss
        side._backward_fn = never
        y = Tensor(x.data * 2, requires_grad=True, _parents=(dead, x),
                   _backward_fn=lambda g: (None, 2 * g))
        T.reduce_sum(y).backward()
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_long_chain(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x
        for _ in range(20_000):
            y = T.scale(y, 1.0, 1.0)
        T.reduce_sum(y).backward()
        assert np.array_equal(x.grad, [1.0, 1.0])

    def test_every_op_output_is_newer_than_its_parents(self):
        from fusionseg.losses import bce_sigmoid_loss, composite_loss, dice_loss
        from fusionseg.segnet import AblationConfig, FusionSegNet
        net = FusionSegNet(AblationConfig(use_attention=True), seed=11)
        rng = np.random.default_rng(12)
        target = Tensor((rng.random((2, 1, 16, 16)) > 0.5).astype(float))
        logits = net(Tensor(rng.random((2, 1, 16, 16))))
        loss = composite_loss(dice_loss(T.sigmoid(logits), target),
                              bce_sigmoid_loss(logits, target))
        seen, stack, edges = set(), [loss], 0
        while stack:
            node = stack.pop()
            for p in node._parents:
                assert node._seq > p._seq
                edges += 1
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert edges > 100


def taped(x):
    """An op on a grad-requiring input records its tape."""
    out = T.mul(x, x)
    return (out.requires_grad and out._parents == (x, x)
            and out._backward_fn is not None)


class TestNoGrad:
    def test_op_inside_records_no_tape(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with T.no_grad():
            out = T.relu(T.mul(x, x))
        assert out._parents == () and out._backward_fn is None
        assert not out.requires_grad
        assert np.array_equal(out.data, [1.0, 4.0])

    def test_recording_back_after_normal_exit(self):
        x = Tensor([3.0], requires_grad=True)
        with T.no_grad():
            pass
        assert taped(x)
        T.reduce_sum(T.mul(x, x)).backward()
        assert np.array_equal(x.grad, [6.0])

    def test_recording_back_after_exception(self):
        x = Tensor([3.0], requires_grad=True)
        with pytest.raises(DimensionError):
            with T.no_grad():
                T.add(x, Tensor([1.0, 2.0]))
        assert taped(x)

    def test_nested_blocks_restore_outer_state(self):
        x = Tensor([3.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not taped(x)
        assert taped(x)


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


# fixed operands of external attention: a batched [2,3,5] feature map,
# four memory units of width 3
_EA = np.random.default_rng(21)
EA_F, EA_MK, EA_MV = (Tensor(_EA.normal(size=shape))
                      for shape in ((2, 3, 5), (4, 3), (4, 3)))


def _sq_sum(x):
    return T.reduce_sum(T.mul(x, x))


# fixed operands of the norms: [2,12,1,3] features, so that a 12-entry t can
# be gamma or beta; a perturbed x is [2,2,1,3] with the first two of each.
# The output is weighted: a norm's plain sum of squares is constant in x
_NM = np.random.default_rng(22)
NM_X, NM_W = _NM.normal(size=(2, 2, 12, 1, 3))
NM_G, NM_B = _NM.normal(size=(2, 12))


def _norm_ops(name, op):
    """One entry per operand of ``op(x, gamma, beta)``, each perturbed in turn."""
    def loss(x, gamma, beta):
        c = gamma.data.shape[0]
        return T.reduce_sum(T.mul(op(x, gamma, beta), Tensor(NM_W[:, :c])))

    return {
        f"{name}_x": lambda t: loss(T.reshape(t, (2, 2, 1, 3)),
                                    Tensor(NM_G[:2]), Tensor(NM_B[:2])),
        f"{name}_gamma": lambda t: loss(Tensor(NM_X), T.reshape(t, (12,)),
                                        Tensor(NM_B)),
        f"{name}_beta": lambda t: loss(Tensor(NM_X), Tensor(NM_G),
                                       T.reshape(t, (12,))),
    }


OPS = {
    "matmul": lambda t: T.reduce_sum(T.mul(T.matmul(t, T.transpose2d(t)),
                                           T.matmul(t, T.transpose2d(t)))),
    # shared [6,2] left operand against a batched [2,2,3] right operand
    "matmul_shared_left": lambda t: T.reduce_sum(T.mul(
        T.matmul(T.reshape(t, (6, 2)), T.reshape(t, (2, 2, 3))),
        T.matmul(T.reshape(t, (6, 2)), T.reshape(t, (2, 2, 3))))),
    "transpose_batched": lambda t: T.reduce_sum(T.mul(
        T.transpose2d(T.reshape(t, (2, 2, 3))), T.reshape(t, (2, 3, 2)))),
    "softmax": lambda t: T.reduce_sum(T.mul(T.softmax_axis(t, 1),
                                            T.softmax_axis(t, 0))),
    "relu": lambda t: T.reduce_sum(T.mul(T.relu(t), T.relu(t))),
    "sigmoid": lambda t: T.reduce_sum(T.mul(T.sigmoid(t), T.sigmoid(t))),
    "abs": lambda t: T.reduce_sum(T.mul(T.absolute(t), T.absolute(t))),
    "softplus": lambda t: T.reduce_sum(T.mul(T.softplus(t), T.softplus(t))),
    "div": lambda t: T.reduce_sum(T.div(T.mul(t, t), T.scale(T.sigmoid(t), 1.0, 1.0))),
    # 2 images x 2 channels x 3 pixels, weighted so the sum is not constant
    "instancenorm2d": lambda t: T.reduce_sum(T.mul(
        T.instancenorm2d(T.reshape(t, (2, 2, 1, 3)), Tensor([1.5, -0.5]),
                         Tensor([0.2, 0.1])),
        T.reshape(T.sigmoid(t), (2, 2, 1, 3)))),
    # each operand of external attention in turn, features [2,3,2] or [2,3,5]
    "external_attention_f": lambda t: _sq_sum(
        T.external_attention(T.reshape(t, (2, 3, 2)), EA_MK, EA_MV)),
    "external_attention_m_k": lambda t: _sq_sum(
        T.external_attention(EA_F, T.reshape(t, (4, 3)), EA_MV)),
    "external_attention_m_v": lambda t: _sq_sum(
        T.external_attention(EA_F, EA_MK, T.reshape(t, (4, 3)))),
    **_norm_ops("batchnorm2d", T.batchnorm2d),
    **_norm_ops("norm_relu_batch",
                lambda x, g, b: T.batchnorm2d(x, g, b, relu=True)),
    **_norm_ops("norm_relu_instance",
                lambda x, g, b: T.instancenorm2d(x, g, b, relu=True)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_elementwise_grad_check(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(20):
        x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        worst = max(worst, grad_check(OPS[name], x))
    assert worst < 1e-4


class TestInstanceNorm:
    def normalized(self, op, x, gamma, beta, weights):
        """Output and the gradients of x, gamma and beta under a fixed weighting."""
        x, gamma, beta = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = op(x, gamma, beta)
        T.reduce_sum(T.mul(out, Tensor(weights))).backward()
        return out.data, x.grad, gamma.grad, beta.grad

    def test_equals_batchnorm_at_batch_one(self):
        # so a GAN trained at batch 1 trains as it did with batch norm
        rng = np.random.default_rng(0)
        args = (rng.normal(size=(1, 3, 5, 4)), rng.normal(size=3),
                rng.normal(size=3), rng.normal(size=(1, 3, 5, 4)))
        for a, b in zip(self.normalized(T.instancenorm2d, *args),
                        self.normalized(T.batchnorm2d, *args)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_image_alone_equals_its_row_of_the_batch(self):
        rng = np.random.default_rng(1)
        # images of different scales, so batch statistics differ from each one's
        x = Tensor(rng.normal(size=(4, 3, 5, 4)) * np.arange(1, 5)[:, None, None, None])
        gamma, beta = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
        batched = T.instancenorm2d(x, gamma, beta).data
        alone = T.instancenorm2d(Tensor(x.data[:1]), gamma, beta).data
        np.testing.assert_allclose(alone[0], batched[0], rtol=0, atol=1e-12)
        # batch norm, by contrast, mixes the images
        assert not np.allclose(T.batchnorm2d(x, gamma, beta).data[0], batched[0])

    def test_rejects_non_4d(self):
        with pytest.raises(DimensionError):
            T.instancenorm2d(Tensor(np.zeros((3, 4))), Tensor(np.ones(4)),
                             Tensor(np.zeros(4)))


class TestNormRelu:
    """The norms' ``relu=True``: the ReLU fused into the norm op."""

    def run(self, op, x, gamma, beta, weights):
        """Output and the gradients of x, gamma and beta under a fixed weighting."""
        x, gamma, beta = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = op(x, gamma, beta)
        T.reduce_sum(T.mul(out, Tensor(weights))).backward()
        return out.data, x.grad, gamma.grad, beta.grad

    # the model's shapes, and an odd size: np.fmax can keep -0.0 in the tail
    # of an array it does not split evenly into vector lanes
    @pytest.mark.parametrize("shape", [(8, 8, 64, 64), (1, 8, 32, 32),
                                       (8, 24, 4, 4), (1, 16, 16, 16),
                                       (2, 3, 5, 3)])
    @pytest.mark.parametrize("axes,norm", [((0, 2, 3), T.batchnorm2d),
                                           ((2, 3), T.instancenorm2d)])
    def test_same_bits_as_relu_of_the_norm(self, shape, axes, norm):
        rng = np.random.default_rng(shape[1])
        x = rng.normal(size=shape) * 3 + 0.5
        gamma, beta = rng.normal(size=(2, shape[1]))
        # the last channel is constant 0 with gamma < 0 and beta = -0.0, so
        # its pre-activation is exactly -0.0; one entry of channel 0 is NaN
        x[:, -1] = 0.0
        gamma[-1], beta[-1] = -1.5, -0.0
        x[0, 0, 0, 0] = np.nan
        pre = norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert (pre[:, -1] == 0).all() and np.signbit(pre[:, -1]).all()
        # the NaN reaches exactly the entries that share its statistics
        assert np.isnan(pre).sum() == np.prod([shape[a] for a in axes])
        weights = rng.normal(size=shape)
        fused = self.run(lambda *a: norm(*a, relu=True), x, gamma, beta, weights)
        pair = self.run(lambda *a: T.relu(norm(*a)), x, gamma, beta, weights)
        # relu shares the one-pass form, so check the output on its own too
        for a, b in zip(fused, (np.where(pre > 0, pre, 0.0),) + pair[1:]):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert np.array_equal(pair[0], fused[0])

    def test_relu_gives_plus_zero_where_not_positive(self):
        x = np.array([-0.0, np.nan, 0.0, -1.0, -np.inf, 2.0, np.inf])
        out = T.relu(Tensor(x)).data
        assert np.array_equal(out, [0, 0, 0, 0, 0, 2, np.inf])
        assert not np.signbit(out).any()

    def test_taped_block_holds_no_separate_norm_output(self):
        # the stem block at 64 px: the conv keeps its padded copy and output,
        # the fused op xhat and the output (8.5 MB); a norm output, a relu
        # output and its mask besides took 10.9 MB
        block = ConvBNRelu(8, 8, 3, padding=1, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(8, 8, 64, 64)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = block(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad and held < 9.5e6


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


def one_param(value, grad, weight_decay=0.0):
    p = Tensor([value], requires_grad=True)
    p.grad = np.array([grad])
    return p, AdamW([("p", p)], weight_decay)


class TestAdamW:
    def test_first_step_no_decay(self):
        p, opt = one_param(1.0, 1.0)
        opt.step(lr=0.01)
        assert p.data[0] == pytest.approx(0.99, abs=1e-6)
        assert opt.t == 1

    def test_zero_grad_no_decay_unchanged(self):
        p, opt = one_param(1.0, 0.0)
        opt.step(lr=0.01)
        assert p.data[0] == pytest.approx(1.0)

    def test_decoupled_weight_decay(self):
        p, opt = one_param(1.0, 1.0, weight_decay=0.1)
        opt.step(lr=0.01)
        assert p.data[0] == pytest.approx(0.989, abs=1e-5)

    def test_missing_grad(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            AdamW([("p", p)]).step(lr=0.01)

    def test_zero_grad_clears_without_stepping(self):
        p, opt = one_param(1.0, 1.0)
        opt.zero_grad()
        assert p.grad is None and p.data[0] == 1.0 and opt.t == 0

    def test_three_steps_match_textbook_exactly(self):
        rng = np.random.default_rng(20)
        init = [rng.normal(size=(3, 2)), rng.normal(size=4)]
        grads = [[rng.normal(size=x.shape) for x in init] for _ in range(3)]
        lrs, wd = [0.01, 0.005, 0.002], 0.1
        params = [Tensor(x.copy(), requires_grad=True) for x in init]
        opt = AdamW([(f"p{i}", p) for i, p in enumerate(params)], wd)
        for gs, lr in zip(grads, lrs):
            for p, g in zip(params, gs):
                p.grad = g.copy()
            opt.step(lr)
            assert all(p.grad is None for p in params)
        # AdamW as published: bias-corrected moments, decay decoupled from them
        b1, b2, eps = 0.9, 0.999, 1e-8
        for i, x in enumerate(init):
            m = v = np.zeros_like(x)
            for t, (gs, lr) in enumerate(zip(grads, lrs), start=1):
                g = gs[i]
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                m_hat = m / (1 - b1 ** t)
                v_hat = v / (1 - b2 ** t)
                x = x - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * x)
            assert np.array_equal(params[i].data, x)
