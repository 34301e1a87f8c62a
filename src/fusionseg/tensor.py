"""Minimal dense tensor engine with reverse-mode automatic differentiation.

All values are float64. Ops build an acyclic tape in creation order, so an
op's output is newer than its inputs; ``Tensor.backward`` sweeps it newest
first and sums a tensor's path gradients, newest consumer first. Inside a
``no_grad()`` block ops record no tape.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, DomainError


class Tensor:
    """Dense float64 array participating in a differentiation graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(_parents)
        self._backward_fn = _backward_fn
        self._seq = next(_creation)

    def detach(self):
        """Leaf copy sharing no graph history (data is copied)."""
        return Tensor(self.data.copy())

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Populate ``grad`` on every requires_grad ancestor of a scalar loss.

        The one rule: a node is newer than its parents. So popping the pending
        op output with the highest ``_seq`` first reaches each one after all
        of its consumers, with its gradient complete. A leaf adds each
        gradient into ``grad`` as it arrives, so a parameter's gradient is not
        held to the end of the sweep. Either way a tensor's path gradients sum
        newest consumer first, and a node that receives no gradient is never
        visited.
        """
        if self.data.size != 1:
            raise ContractError("backward requires a scalar loss tensor")
        grads, pending = {}, []
        arrivals = [(self, np.ones_like(self.data))]
        while True:
            for p, pg in arrivals:
                if pg is None or not p.requires_grad:
                    continue
                if p._backward_fn is None:
                    p.grad = pg if p.grad is None else p.grad + pg
                elif p._seq in grads:
                    grads[p._seq] = grads[p._seq] + pg
                else:
                    grads[p._seq] = pg
                    heapq.heappush(pending, (-p._seq, p))
            if not pending:
                return
            node = heapq.heappop(pending)[1]
            arrivals = zip(node._parents, node._backward_fn(grads.pop(node._seq)))

_creation = itertools.count()  # Tensor._seq: creation order, one per process
_recording = True  # False inside no_grad(); one switch for the process


@contextmanager
def no_grad():
    """Ops inside the block record no tape: outputs keep no parents, no closure.

    For forward-only passes, which would otherwise hold every intermediate
    array alive until the output is dropped. The previous state comes back
    on exit, after an exception too, so blocks nest.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _records(parents):
    """True when an op on ``parents`` records a tape node."""
    return _recording and any(p.requires_grad for p in parents)


def _node(data, parents, backward_fn):
    requires = _records(parents)
    return Tensor(data, requires_grad=requires,
                  _parents=parents if requires else (),
                  _backward_fn=backward_fn if requires else None)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[n, k] x [..., k, m]; the shared 2-d ``a`` gets the batch-summed gradient."""
    if (a.data.ndim != 2 or b.data.ndim < 2
            or a.data.shape[1] != b.data.shape[-2]):
        raise DimensionError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def backward(g):
        da = g @ np.swapaxes(b.data, -1, -2)
        return (da.reshape(-1, *a.data.shape).sum(axis=0), a.data.T @ g)

    return _node(out, (a, b), backward)


def transpose2d(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise DimensionError("transpose2d expects a tensor of rank >= 2")
    # output and gradient are copied: a strided view slows the op that reads it
    return _node(np.swapaxes(x.data, -1, -2).copy(), (x,),
                 lambda g: (np.swapaxes(g, -1, -2).copy(),))


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.data.size:
        raise DimensionError(f"cannot reshape {x.data.shape} to {shape}")
    old = x.data.shape
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# convolution

def conv_output_extent(n, k, stride, dilation, padding):
    return (n + 2 * padding - dilation * (k - 1) - 1) // stride + 1


def _channels_last(a, lead, hp, wp):
    """[B,C,H,W] -> a new zero [B,hp,wp,C] array, ``a`` from row and column ``lead``."""
    b, c, h, w = a.shape
    out = np.zeros((b, hp, wp, c))
    out[:, lead:lead + h, lead:lead + w] = a.transpose(0, 2, 3, 1)
    return out


# most bytes of one [nb,Ho,Wo,channels] product buffer in conv2d, so that a
# block's buffers stay in a core's 2 MB L2 cache; a block is at least one
# image. Swept on seg-infer from 64 KB to 16 MB: 64-512 KB ran alike, and
# from 1 MB up each doubling ran slower.
CONV_BLOCK_BYTES = 256 * 1024


def _block_images(b, hout, wout, channels):
    """Images per block, so that ``[nb,Ho,Wo,channels]`` fits ``CONV_BLOCK_BYTES``."""
    return min(b, max(1, CONV_BLOCK_BYTES // (hout * wout * channels * 8)))


def _conv_blocks(src, w, ty, tx, out):
    """Channels-last ``src`` ``[B,Hp,Wp,C]`` times ``w`` ``[C,O,k,k]`` into NCHW ``out``.

    ``ty`` and ``tx`` list ``(tap, window)`` per axis: tap (i, j) adds window
    ``src[:, wy, wx]`` (``[B,Ho,Wo,C]``) times ``w[:, :, i, j]`` into the
    ``[B,O,Ho,Wo]`` ``out``, which may be a strided view and is zero if no tap
    reaches it. Per block of whole images, tap 0 writes the block's
    accumulator, every other tap writes one reused product buffer that is
    then added in, and the block is copied into ``out``. A source of at most
    9 tap-channels (``taps * C``: one channel) is one GEMM per block instead,
    of its windows side by side in one ``[nb,Ho,Wo,taps*C]`` buffer. An
    image's output is the same bits at any block size.
    """
    if not (ty and tx):
        out[...] = 0
        return
    # np.array copies C-contiguous, where np.stack keeps a transposed slice's
    # layout: strided [C,O] slices slow every GEMM and can change its bits
    wk = np.array([w[:, :, i, j] for i, _ in ty for j, _ in tx])
    taps = [(slice(None), wy, wx) for _, wy in ty for _, wx in tx]
    b, t, c, o = len(src), *wk.shape
    hout, wout = out.shape[2:]
    fold = t * c <= 9  # per tap won from C=8: [8,8,64,64] -> 8 took 3.35 ms, not 6.43
    nb = _block_images(b, hout, wout, max(t * c if fold else c, o))
    acc, prod = (np.empty((nb, hout, wout, n)) for n in (o, t * c if fold else o))
    for s in range(0, b, nb):
        xb = src[s:s + nb]
        a, p = acc[:len(xb)], prod[:len(xb)]
        if fold:
            for n, sl in enumerate(taps):
                p[..., n * c:(n + 1) * c] = xb[sl]
            np.matmul(p.reshape(-1, t * c), wk.reshape(-1, o), out=a.reshape(-1, o))
        else:
            np.matmul(xb[taps[0]], wk[0], out=a)
            for sl, wt in zip(taps[1:], wk[1:]):
                np.matmul(xb[sl], wt, out=p)
                a += p
        out[s:s + nb] = a.transpose(0, 3, 1, 2)


def _tap_products(src, g, ty, tx):
    """The ``[len(ty),len(tx),O,C]`` weight gradient of ``_conv_blocks(src, w, ty,
    tx, out)`` for ``out``'s gradient ``g``, as ``conv2d`` describes it."""
    (b, o, hout, wout), c = g.shape, src.shape[3]
    nb = _block_images(b, hout, wout, max(c, o))
    g3 = g.reshape(b, o, hout * wout)
    window = np.empty((nb, hout, wout, c))
    prods = np.empty((len(ty), len(tx), b, o, c))
    for s in range(0, b, nb):
        xb, gb = src[s:s + nb], g3[s:s + nb]
        win = window[:len(xb)]
        for i, (_, wy) in enumerate(ty):
            for j, (_, wx) in enumerate(tx):
                np.copyto(win, xb[:, wy, wx])
                np.matmul(gb, win.reshape(len(xb), -1, c),
                          out=prods[i, j, s:s + nb])
    return prods.sum(axis=2)


def _taps(n, k, stride, dilation):
    """(tap, window) for each of ``k`` taps along an axis of ``n`` conv outputs."""
    return [(i, slice(i * dilation, i * dilation + stride * (n - 1) + 1, stride))
            for i in range(k)]


def _conv_transpose(g, w, stride, dilation, padding, h, wd):
    """The transpose of a conv by ``w`` ``[O,C,k,k]`` of a ``[B,C,h,wd]`` input,
    applied to ``g`` ``[B,O,Ho,Wo]``: ``conv2d``'s input gradient, ``[B,C,h,wd]``.

    Input row ``r + stride*q`` takes ``g`` row ``q + c`` through tap i, where
    ``r + padding - i*dilation = c*stride``: each of the ``stride**2`` phases
    of the input is a stride-1 conv, by the taps that reach it, of ``g``
    copied once, channels-last, to row ``lead`` of a zero-padded buffer, and
    is written into its strided view of the result.
    """
    b, _, hout, wout = g.shape
    k = w.shape[2]
    lead = max(0, -((padding - dilation * (k - 1)) // stride))
    gp = _channels_last(g, lead, lead + max(hout, (h - 1 + padding) // stride + 1),
                        lead + max(wout, (wd - 1 + padding) // stride + 1))
    dx = np.empty((b, w.shape[1], h, wd))

    def phase(r, n):
        """(tap, window of gp) for each tap that reaches phase r of an axis."""
        nq = -(-(n - r) // stride)
        return [(i, slice(lead + c // stride, lead + c // stride + nq))
                for i in range(k) for c in [r + padding - i * dilation]
                if c % stride == 0]

    for ry in range(min(stride, h)):
        for rx in range(min(stride, wd)):
            _conv_blocks(gp, w, phase(ry, h), phase(rx, wd),
                         dx[:, :, ry::stride, rx::stride])
    return dx


def conv2d(x: Tensor, w: Tensor, stride=1, dilation=1, padding=0) -> Tensor:
    """Dilated, strided, zero-padded 2-d convolution as one GEMM per tap.

    The input is copied once, channels-last, so each tap (i, j) is a strided
    window ``[B,Ho,Wo,C]`` times ``w[:, :, i, j].T`` (``[C,O]``), a GEMM with
    no im2col buffer, run over blocks of whole images that fit
    ``CONV_BLOCK_BYTES`` (``_conv_blocks``, which folds a one-channel
    source's taps into one GEMM); the tape keeps the copy.

    The input gradient runs through the same kernel as a transposed conv
    (``_conv_transpose``): one stride-1 conv of g per phase of the input, in
    and out channels swapped. At stride 1 that is one conv with the flipped
    kernel; at stride 2 no multiply is by an inserted zero. It is skipped
    when ``x`` needs no gradient. The weight gradient (``_tap_products``)
    copies each tap's window of a block into one reused buffer, runs one
    batched ``[nb,O,Ho*Wo] x [nb,Ho*Wo,C]`` GEMM into a ``[k,k,B,O,C]``
    buffer of per-image products, and sums them over the images with one
    ``sum``. The output, each image's input gradient, and the weight
    gradient are the same bits at any block size.

    An unstrided, unpadded 1x1 conv copies nothing: NCHW viewed as
    ``[B,C,H*W]`` is one ``[O,C] x [B,C,H*W]`` ``matmul``, whose tape gives
    the gradients.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv2d expects 4-d input and weight")
    b, cin, h, wd = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if kh != kw or kh % 2 == 0:
        raise DimensionError(f"conv2d kernel must be square and odd, got {kh}x{kw}")
    if cin_w != cin:
        raise DimensionError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    if stride < 1 or dilation < 1 or padding < 0:
        raise DomainError("stride/dilation must be >= 1 and padding >= 0")
    k = kh
    hout = conv_output_extent(h, k, stride, dilation, padding)
    wout = conv_output_extent(wd, k, stride, dilation, padding)
    if hout < 1 or wout < 1:
        raise DimensionError(
            f"conv2d output extent nonpositive for input {h}x{wd}, "
            f"k={k}, stride={stride}, dilation={dilation}, padding={padding}")
    if k == 1 and stride == 1 and padding == 0:
        return reshape(matmul(reshape(w, (cout, cin)),
                              reshape(x, (b, cin, h * wd))), (b, cout, h, wd))
    ty, tx = _taps(hout, k, stride, dilation), _taps(wout, k, stride, dilation)
    xc = _channels_last(x.data, padding, h + 2 * padding, wd + 2 * padding)
    out = np.empty((b, cout, hout, wout))
    _conv_blocks(xc, w.data.transpose(1, 0, 2, 3), ty, tx, out)

    def backward(g):
        dw = _tap_products(xc, g, ty, tx).transpose(2, 3, 0, 1).copy()
        if not x.requires_grad:
            return (None, dw)
        return (_conv_transpose(g, w.data, stride, dilation, padding, h, wd), dw)

    return _node(out, (x, w), backward)


def upsample_conv2d(x: Tensor, w: Tensor) -> Tensor:
    """``conv2d(upsample_nearest(x, 2), w, padding=1)`` for a 3x3 ``w``, never upsampled.

    That is the transpose of a stride-2, padding-1 conv by the 4x4 kernel
    ``k4[c, o, s, t] = sum over a, b in {0, 1} of w[o, c, a+2-s, b+2-t]``:
    ``w`` flipped, in and out channels swapped, added into the four 3x3
    windows of a 4x4 grid (the sub-pixel view, Shi et al., arXiv 1609.05158).
    The output is ``_conv_transpose`` of ``x`` by ``k4``, four phases of 2x2
    taps. Backward copies g once, channels-last: the input gradient is that
    stride-2 conv of g by ``k4``, and the weight gradient its tap products
    with ``x``, whose four windows are summed back and flipped into ``dw``.
    """
    if x.data.ndim != 4 or w.data.shape[1:] != (x.data.shape[1], 3, 3):
        raise DimensionError("upsample_conv2d needs a 4-d input and a [O,C,3,3] "
                             f"weight, got {x.data.shape} and {w.data.shape}")
    (b, cin, h, wd), cout = x.data.shape, w.data.shape[0]
    k4 = np.zeros((cin, cout, 4, 4))
    windows = [(slice(a, a + 3), slice(c, c + 3)) for a in (0, 1) for c in (0, 1)]
    for sy, sx in windows:
        k4[:, :, sy, sx] += w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    out = _conv_transpose(x.data, k4, 2, 1, 1, 2 * h, 2 * wd)

    def backward(g):
        ty, tx = _taps(h, 4, 2, 1), _taps(wd, 4, 2, 1)
        gc = _channels_last(g, 1, 2 * h + 2, 2 * wd + 2)
        dk4 = _tap_products(gc, x.data, ty, tx)  # indexed [s, t, c, o]
        dw = sum(dk4[sy, sx] for sy, sx in windows)[::-1, ::-1]
        dw = dw.transpose(3, 2, 0, 1).copy()
        if not x.requires_grad:
            return (None, dw)
        dx = np.empty((b, cin, h, wd))
        _conv_blocks(gc, k4.transpose(1, 0, 2, 3), ty, tx, dx)
        return (dx, dw)

    return _node(out, (x, w), backward)


def pointwise_conv(x: Tensor, w: Tensor) -> Tensor:
    """A 1x1 ``conv2d``; the name stays for callers that want the 1x1 check."""
    if w.data.ndim != 4 or w.data.shape[2:] != (1, 1):
        raise DimensionError(f"pointwise_conv needs a 1x1 kernel, got {w.data.shape}")
    return conv2d(x, w)


# ---------------------------------------------------------------------------
# normalizations

BATCHNORM_EPS = 1e-5  # added to the variance before its square root
# guards an L1 denominator; external attention feeds it softmax output, which
# is strictly positive, so it can be tiny: sums stay within 1e-9 of 1 even for
# a single memory unit
L1_EPS = 1e-300


def softmax_axis(x: Tensor, axis: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"axis {axis} invalid for shape {x.data.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (x,), backward)


def l1_normalize_axis(x: Tensor, axis: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"axis {axis} invalid for shape {x.data.shape}")
    if np.any(x.data < 0):
        raise DomainError("l1_normalize_axis requires nonnegative entries")
    denom = x.data.sum(axis=axis, keepdims=True) + L1_EPS
    out = x.data / denom

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) / denom,)

    return _node(out, (x,), backward)


def external_attention(f: Tensor, m_k: Tensor, m_v: Tensor) -> Tensor:
    """``M_v^T . L1_S(softmax_N(M_k . F))`` for features ``[..., d, N]``.

    ``m_k`` is ``[S, d]`` and ``m_v`` is ``[S, d_v]``; the output is
    ``[..., d_v, N]``. One matrix of the flattened leading axes runs at a
    time, so its ``[S, N]`` map stays in cache, and every step writes into a
    reused or preallocated buffer. The tape keeps only the softmax output
    ``P`` and the L1 denominator; backward recomputes the weights
    ``P / denom`` per matrix. The output and the gradients are the same bits
    as ``matmul(transpose2d(m_v), l1_normalize_axis(softmax_axis(
    matmul(m_k, f), -1), -2))``.
    """
    if (m_k.data.ndim != 2 or m_v.data.ndim != 2 or f.data.ndim < 2
            or m_v.data.shape[0] != m_k.data.shape[0]
            or f.data.shape[-2] != m_k.data.shape[1]):
        raise DimensionError("external_attention shape mismatch: "
                             f"f {f.data.shape}, m_k {m_k.data.shape}, "
                             f"m_v {m_v.data.shape}")
    s, d = m_k.data.shape
    dv, npix = m_v.data.shape[1], f.data.shape[-1]
    f3 = f.data.reshape(-1, d, npix)
    n = len(f3)
    taped = _records((f, m_k, m_v))
    mvt = m_v.data.T.copy()
    # taped: every matrix's softmax and denominator are kept for backward;
    # otherwise one slot of each is reused
    p = np.empty((n if taped else 1, s, npix))
    denom = np.empty((n if taped else 1, 1, npix))
    w = np.empty((s, npix))
    out = np.empty((n, dv, npix))
    for i in range(n):
        pi, di = (p[i], denom[i]) if taped else (p[0], denom[0])
        np.matmul(m_k.data, f3[i], out=pi)
        pi -= pi.max(axis=1, keepdims=True)
        np.exp(pi, out=pi)
        pi /= pi.sum(axis=1, keepdims=True)
        np.sum(pi, axis=0, keepdims=True, out=di)
        di += L1_EPS
        np.divide(pi, di, out=w)
        np.matmul(mvt, w, out=out[i])

    def backward(g):
        # g is read only: add() hands the same array to both of its parents
        g3 = g.reshape(n, dv, npix)
        df = np.empty(f3.shape)
        # per-matrix parameter gradients, summed over matrices as the
        # reference composition sums them
        dmk, dmvt = np.empty((n, s, d)), np.empty((n, dv, s))
        w, dw, tmp = (np.empty((s, npix)) for _ in range(3))
        for i in range(n):
            np.divide(p[i], denom[i], out=w)
            np.matmul(g3[i], w.T, out=dmvt[i])
            np.matmul(mvt.T, g3[i], out=dw)
            np.multiply(dw, w, out=tmp)  # L1 backward
            dw -= tmp.sum(axis=0, keepdims=True)
            dw /= denom[i]
            np.multiply(dw, p[i], out=tmp)  # softmax backward
            dw -= tmp.sum(axis=1, keepdims=True)
            dw *= p[i]
            np.matmul(dw, f3[i].T, out=dmk[i])
            np.matmul(m_k.data.T, dw, out=df[i])
        return (df.reshape(f.data.shape), dmk.sum(axis=0),
                dmvt.sum(axis=0).T.copy())

    return _node(out.reshape(f.data.shape[:-2] + (dv, npix)), (f, m_k, m_v),
                 backward)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, relu=False) -> Tensor:
    """Per-channel normalization using the current batch statistics.

    ``relu=True`` runs the ReLU in place on the output in the same op, as
    in-place activated BatchNorm (Rota Bulò et al., arXiv 1712.02616); the
    output's sign is the mask in backward. Output and gradients are the bits
    of ``relu(batchnorm2d(...))``, NaN and -0.0 pre-activations included.
    """
    return _normalize2d(x, gamma, beta, (0, 2, 3), "batchnorm2d", relu)


def instancenorm2d(x: Tensor, gamma: Tensor, beta: Tensor, relu=False) -> Tensor:
    """Per-image, per-channel normalization: no image sees the rest of its batch.
    ``relu`` as in ``batchnorm2d``."""
    return _normalize2d(x, gamma, beta, (2, 3), "instancenorm2d", relu)


def _normalize2d(x, gamma, beta, axes, name, relu):
    """Normalize over ``axes`` with per-channel gamma and beta, then maybe ReLU.

    Centres once and takes the variance as ``sum(xc*xc)/n``, the arithmetic
    of ``np.var``; ``xc`` is scaled in place into ``xhat`` and the output is
    written into the squares buffer. The tape keeps ``xhat``, ``inv_std`` and
    the output; backward runs in two buffers of its own.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"{name} expects a 4-d tensor")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError("gamma/beta must have one entry per channel")
    n = int(np.prod([x.data.shape[a] for a in axes]))
    gamma4, beta4 = gamma.data[None, :, None, None], beta.data[None, :, None, None]
    xhat = x.data - x.data.mean(axis=axes, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv_std = 1.0 / np.sqrt(out.sum(axis=axes, keepdims=True) / n + BATCHNORM_EPS)
    xhat *= inv_std
    np.multiply(gamma4, xhat, out=out)
    out += beta4
    if relu:
        _relu_data(out, out=out)

    def backward(g):
        if relu:  # g is read only: add() hands the same array to both parents
            g = g * (out > 0)
        a = g * xhat
        sg, sgx = (v.sum(axis=axes, keepdims=True) for v in (g, a))
        # dx = gamma*inv_std/n * (n*g - sum(g) - xhat*sum(g*xhat)), in that order
        dx = n * g
        dx -= sg
        dx -= np.multiply(xhat, sgx, out=a)
        dx *= gamma4 * inv_std / n
        # dgamma and dbeta: the same sums, over the images too
        return (dx, sgx.sum(axis=0).reshape(c), sg.sum(axis=0).reshape(c))

    return _node(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# structural ops

def _concat(tensors, axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return _node(out, tensors, lambda g: tuple(np.split(g, cuts, axis=axis)))


def concat_channels(*tensors: Tensor) -> Tensor:
    """Any number of [B,C_i,H,W] tensors -> [B,sum C_i,H,W], in argument order."""
    if any(t.data.ndim != 4 for t in tensors):
        raise DimensionError("concat_channels expects 4-d tensors")
    if len({(t.data.shape[0],) + t.data.shape[2:] for t in tensors}) != 1:
        raise DimensionError("concat_channels batch/spatial mismatch: "
                             + " vs ".join(str(t.data.shape) for t in tensors))
    return _concat(tensors, 1)


def concat_batch(tensors) -> Tensor:
    tensors = tuple(tensors)
    if len({t.data.shape[1:] for t in tensors}) != 1:
        raise DimensionError("concat_batch requires identical trailing extents")
    return _concat(tensors, 0)


def batch_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """A copy of images ``start:stop``; their gradient lands in zeros shaped like x."""
    if not 0 <= start < stop <= x.data.shape[0]:
        raise DimensionError(f"batch range {start}:{stop} out of range "
                             f"for {x.data.shape[0]} images")

    def backward(g):
        dx = np.zeros_like(x.data)
        dx[start:stop] = g
        return (dx,)

    return _node(x.data[start:stop].copy(), (x,), backward)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    if factor < 1:
        raise DomainError(f"upsample factor must be >= 1, got {factor}")
    if x.data.ndim != 4:
        raise DimensionError("upsample_nearest expects a 4-d tensor")
    b, c, h, w = x.data.shape
    out = x.data.repeat(factor, axis=2).repeat(factor, axis=3)

    def backward(g):
        return (g.reshape(b, c, h, factor, w, factor).sum(axis=(3, 5)),)

    return _node(out, (x,), backward)


def spatial_mean(x: Tensor) -> Tensor:
    """Global average pool to [B,C,1,1]."""
    if x.data.ndim != 4:
        raise DimensionError("spatial_mean expects a 4-d tensor")
    b, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def backward(g):
        return (np.broadcast_to(g / (h * w), x.data.shape).copy(),)

    return _node(out, (x,), backward)


def tile_spatial(x: Tensor, h: int, w: int) -> Tensor:
    if x.data.ndim != 4 or x.data.shape[2:] != (1, 1):
        raise DimensionError("tile_spatial expects a [B,C,1,1] tensor")
    out = np.broadcast_to(x.data, x.data.shape[:2] + (h, w)).copy()
    return _node(out, (x,), lambda g: (g.sum(axis=(2, 3), keepdims=True),))


# ---------------------------------------------------------------------------
# elementwise

def _binary_check(a, b, name):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{name} shape mismatch: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_check(a, b, "add")
    return _node(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_check(a, b, "mul")
    return _node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_check(a, b, "div")
    out = a.data / b.data
    return _node(out, (a, b), lambda g: (g / b.data, -g * out / b.data))


def scale(x: Tensor, a: float, b: float = 0.0) -> Tensor:
    return _node(a * x.data + b, (x,), lambda g: (a * g,))


def _relu_data(a, out=None):
    """``a`` where ``a > 0``, else +0.0 (for NaN and -0.0 too); no mask, no branch."""
    out = np.fmax(a, 0.0, out=out)
    out += 0.0  # fmax may keep -0.0; -0.0 + 0.0 is +0.0
    return out


def relu(x: Tensor) -> Tensor:
    out = _relu_data(x.data)  # out > 0 exactly where x > 0: derivative at 0 is 0
    return _node(out, (x,), lambda g: (g * (out > 0),))


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))
    return _node(out, (x,), lambda g: (g * out * (1.0 - out),))


def softplus(x: Tensor) -> Tensor:
    out = np.logaddexp(0.0, x.data)
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))
    return _node(out, (x,), lambda g: (g * sig,))


def absolute(x: Tensor) -> Tensor:
    sign = np.sign(x.data)  # 0 at exactly 0, matching the relu convention
    return _node(np.abs(x.data), (x,), lambda g: (g * sign,))


def reduce_sum(x: Tensor) -> Tensor:
    shape = x.data.shape
    return _node(x.data.sum(), (x,),
                 lambda g: (np.broadcast_to(g, shape).copy(),))


def reduce_mean(x: Tensor) -> Tensor:
    return scale(reduce_sum(x), 1.0 / x.data.size)


# ---------------------------------------------------------------------------
# optimizer

B1, B2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


def adamw_step(param: Tensor, m: np.ndarray, v: np.ndarray, t: int,
               lr: float, weight_decay: float) -> None:
    """Step t (from 1) of decoupled-weight-decay Adam; param, m, v in place."""
    if param.grad is None:
        raise ContractError("adamw_step requires a populated gradient")
    g = param.grad.reshape(param.data.shape)
    m *= B1
    m += (1.0 - B1) * g
    v *= B2
    v += (1.0 - B2) * g * g
    m_hat = m / (1.0 - B1 ** t)
    v_hat = v / (1.0 - B2 ** t)
    param.data -= lr * (m_hat / (np.sqrt(v_hat) + EPS) + weight_decay * param.data)


class AdamW:
    """AdamW over a fixed parameter list; a step consumes the gradients.

    Not a ``layers.Module``: the parameters are named by the net that owns
    them, never by the optimizer.
    """

    def __init__(self, named_params, weight_decay: float = 0.0):
        self.params = [p for _, p in named_params]
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.weight_decay = weight_decay
        self.t = 0

    def step(self, lr: float) -> None:
        """Update every parameter from its gradient, then set each grad to None."""
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            adamw_step(p, m, v, self.t, lr, self.weight_decay)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
