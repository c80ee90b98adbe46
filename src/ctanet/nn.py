"""Neural layers: convolutions, linear, layer norm, GELU, attention, cross-entropy.

Each layer is one tape op. It computes in place into buffers it allocates
itself (never into its inputs) and keeps only what its backward reads:
``linear`` is one [rows, in] @ W^T GEMM per input block and also runs
every dense 1x1 conv; ``linear`` and ``conv2d_nhwc`` with ``gelu=True``
apply GELU to their own output, a cache-sized chunk at a time, and keep
only its derivative, never the pre-activation; ``attend`` takes q, k and v
tokens first and keeps only the attention weights.
Two ops reorder adjacent linear maps, exact in real arithmetic:
``reduce_project`` shortens a sequence along its tokens before it
projects it, and ``fold_pointwise`` folds a dense 1x1 conv into the linear
map after it, as a weight and a bias computed from the parameters per call.
Convolutions run channels-last and keep their unpadded input: depthwise
is one einsum over the k x k windows of the padded map, dense and grouped
convs one width-tiled banded GEMM, built and run one cache-sized block of
input windows at a time, for the output, dx and dW alike.
The naive nested-loop form lives in the test suite as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError
from .tensor import Tensor


@dataclass
class Conv2dParams:
    weight: Tensor            # [out_ch, in_ch/groups, k, k]
    bias: Optional[Tensor]    # [out_ch]
    stride: int = 1
    padding: int = 0
    groups: int = 1


@dataclass
class LinearParams:
    weight: Tensor            # [out_dim, in_dim]
    bias: Optional[Tensor]    # [out_dim]


@dataclass
class LayerNormParams:
    gamma: Tensor             # [dim]
    beta: Tensor              # [dim]
    eps: float = 1e-5


def same_padding(k: int) -> int:
    """Padding that preserves spatial extent for odd k at stride 1."""
    if k % 2 == 0:
        raise ConfigError(f"only odd kernel sizes are supported, got {k}")
    return (k - 1) // 2


# --------------------------------------------------------------------------
# initializers: uniform +-1/sqrt(fan_in) weights, zero biases
# --------------------------------------------------------------------------

def linear_init(in_dim: int, out_dim: int, *, bias: bool = True, seed: int = 0,
                dtype: str = "f32") -> LinearParams:
    bound = 1.0 / math.sqrt(in_dim)
    w = T.uniform([out_dim, in_dim], -bound, bound, seed=seed, dtype=dtype, requires_grad=True)
    b = T.zeros([out_dim], dtype=dtype, requires_grad=True) if bias else None
    return LinearParams(w, b)


def conv2d_init(in_ch: int, out_ch: int, k: int, *, stride: int = 1, padding: int = 0,
                groups: int = 1, bias: bool = True, seed: int = 0, dtype: str = "f32") -> Conv2dParams:
    if in_ch % groups or out_ch % groups:
        raise ConfigError(f"channels ({in_ch}->{out_ch}) not divisible by groups={groups}")
    if k % 2 == 0:
        raise ConfigError(f"only odd kernel sizes are supported, got {k}")
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d needs stride >= 1 and padding >= 0, got stride={stride}, "
                          f"padding={padding}")
    fan_in = (in_ch // groups) * k * k
    bound = 1.0 / math.sqrt(fan_in)
    w = T.uniform([out_ch, in_ch // groups, k, k], -bound, bound, seed=seed, dtype=dtype, requires_grad=True)
    b = T.zeros([out_ch], dtype=dtype, requires_grad=True) if bias else None
    return Conv2dParams(w, b, stride=stride, padding=padding, groups=groups)


def layer_norm_init(dim: int, *, dtype: str = "f32", eps: float = 1e-5) -> LayerNormParams:
    return LayerNormParams(
        T.ones([dim], dtype=dtype, requires_grad=True),
        T.zeros([dim], dtype=dtype, requires_grad=True),
        eps,
    )


# --------------------------------------------------------------------------
# convolution
# --------------------------------------------------------------------------
# Channels-last [B, H, W, C]. A dense or grouped conv is one banded GEMM:
# the output width splits into tiles of tw pixels, and each tile reads one
# [k, s(tw - 1) + k, C] window of the padded input, so a row of A is one
# tile's window and M [k (s(tw - 1) + k) C, tw OC] places the tap weights
# at each pixel's offset in it. A is a strided view of the padded input,
# copied ~256 KB at a time so that each block of it, and the block of output
# rows it yields, stays in cache; the whole A (~3.75x the input at k = 3,
# tw = 8) never exists. Weights stay stored as [out_ch, in_ch/groups, k, k].

_BLOCK_BYTES = 1 << 18


def _conv_checks(x: Tensor, p: Conv2dParams):
    """Shape contract of a channels-last convolution; returns the extents."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a rank-4 map, got {list(x.shape)}")
    if p.stride < 1 or p.padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, got stride={p.stride}, "
                         f"padding={p.padding}")
    oc, cg, k, k2 = p.weight.shape
    if k != k2:
        raise ShapeError("non-square conv kernels are not supported")
    if k % 2 == 0:
        raise ShapeError(f"only odd kernel sizes are supported, got {k}")
    T._check_same_dtype(x, p.weight, "conv2d")
    B, H, W, C = x.shape
    if C != cg * p.groups:
        raise ShapeError(f"conv2d channel mismatch: input has {C}, weight expects {cg * p.groups}")
    if oc % p.groups:
        raise ShapeError(f"out_ch={oc} not divisible by groups={p.groups}")
    if H + 2 * p.padding < k or W + 2 * p.padding < k:
        raise ShapeError(f"kernel {k} larger than padded input {H + 2 * p.padding}x{W + 2 * p.padding}")
    oh = (H + 2 * p.padding - k) // p.stride + 1
    ow = (W + 2 * p.padding - k) // p.stride + 1
    return B, H, W, C, oc, k, oh, ow


def _pad_hw(a: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad the two spatial axes of [B, H, W, C] by n on every side."""
    if not n:
        return a
    B, H, W, C = a.shape
    out = np.zeros((B, H + 2 * n, W + 2 * n, C), dtype=a.dtype)
    out[:, n:n + H, n:n + W] = a
    return out


def _windows(a: np.ndarray, k: int, step: int) -> np.ndarray:
    """[B, OH, OW, C, k, k] view of every k x k window of a padded map, at ``step``."""
    B, Hp, Wp, C = a.shape
    sb, sh, sw, sc = a.strides
    return as_strided(a, (B, (Hp - k) // step + 1, (Wp - k) // step + 1, C, k, k),
                      (sb, step * sh, step * sw, sc, sh, sw), writeable=False)


def _tile_width(ow: int) -> int:
    """Output pixels per tile: the largest divisor of ``ow`` that is at most 8,
    so the tiles cover the width exactly. A width with no divisor in 2..8
    (a prime above 7) gets 1, which makes A the im2col matrix."""
    return max(d for d in range(1, min(ow, 8) + 1) if ow % d == 0)


def _band_blocks(a: np.ndarray, k: int, s: int, oh: int, ow: int, tw: int):
    """Yield (index, A block) over A of a padded map a [B, Hp, Wp, C].

    A has one row per (image, output row, tile) and k (s(tw - 1) + k) C
    columns. A block holds whole images when one image's rows fit in
    _BLOCK_BYTES, else a run of one image's output rows; ``index`` selects
    the matching [B, oh, ..] rows, which are contiguous either way. Every
    block is copied into one buffer, valid until the next block is yielded.
    """
    B, C = a.shape[0], a.shape[3]
    ww, nt = s * (tw - 1) + k, ow // tw
    # [B, oh, nt, k, ww, C]; its last row and column read a[:, s (oh - 1) + k - 1]
    # and a[:, :, s (ow - 1) + k - 1], inside a as _conv_checks' extents hold
    sb, sh, sw, sc = a.strides
    win = as_strided(a, (B, oh, nt, k, ww, C), (sb, s * sh, s * tw * sw, sh, sw, sc),
                     writeable=False)
    row = nt * k * ww * C                          # A elements per output row
    rows = max(1, _BLOCK_BYTES // (row * a.itemsize))
    if rows >= oh:
        nb = min(B, rows // oh)
        blocks = [(slice(b, b + nb),) for b in range(0, B, nb)]
        buf = np.empty(nb * oh * row, dtype=a.dtype)
    else:
        blocks = [(b, slice(y, y + rows)) for b in range(B) for y in range(0, oh, rows)]
        buf = np.empty(rows * row, dtype=a.dtype)
    for idx in blocks:
        v = win[idx]
        blk = buf[:v.size].reshape(v.shape)
        np.copyto(blk, v)
        yield idx, blk.reshape(-1, k * ww * C)


def _band_correlate(a: np.ndarray, wk: np.ndarray, s: int, out: np.ndarray, epilogue=None):
    """out [B, oh, ow, OC] = the correlation of a padded map a [B, Hp, Wp, C]
    with taps wk [k, k, C, OC] at stride s, one GEMM A @ M per block of A
    written into out's rows; ``epilogue(index, out[index])`` then runs on
    each block while it is in cache."""
    k, _, C, OC = wk.shape
    _, oh, ow, _ = out.shape
    tw = _tile_width(ow)
    m = np.zeros((k, s * (tw - 1) + k, C, tw, OC), dtype=wk.dtype)
    for p in range(tw):                   # pixel p of a tile reads columns p s .. p s + k - 1
        m[:, p * s:p * s + k, :, p] = wk
    m = m.reshape(-1, tw * OC)
    for idx, ab in _band_blocks(a, k, s, oh, ow, tw):
        ob = out[idx]
        np.matmul(ab, m, out=ob.reshape(-1, tw * OC))
        if epilogue is not None:
            epilogue(idx, ob)


def _band_weight_grad(a: np.ndarray, g: np.ndarray, k: int, s: int) -> np.ndarray:
    """dL/d taps [k, k, C, OC] of ``_band_correlate(a, ., s, out)`` given
    dL/d out = g: A^T g summed over the blocks of A, then each tile pixel's
    band of it folded back onto the k x k taps."""
    _, oh, ow, OC = g.shape
    C, tw = a.shape[3], _tile_width(ow)
    ww = s * (tw - 1) + k
    d = np.zeros((k * ww * C, tw * OC), dtype=g.dtype)
    for idx, ab in _band_blocks(a, k, s, oh, ow, tw):
        d += ab.T @ g[idx].reshape(-1, tw * OC)
    d = d.reshape(k, ww, C, tw, OC)
    dw = d[:, 0:k, :, 0].copy()
    for p in range(1, tw):
        dw += d[:, p * s:p * s + k, :, p]
    return dw


def conv2d_nhwc(x: Tensor, p: Conv2dParams, gelu: bool = False) -> Tensor:
    """Grouped 2-d cross-correlation of a channels-last map [B, H, W, C].

    Output [B, OH, OW, out_ch], OH = floor((H + 2*pad - k)/stride) + 1,
    passed through GELU when ``gelu``. Depthwise (groups == C == out_ch) is
    one einsum of the input's windows with the [k, k, C] taps. Otherwise
    the conv is one banded GEMM over blocks of its input windows (see
    ``_band_correlate``), with block-diagonal [C, out_ch] taps for groups;
    the bias and GELU are applied to each block of output rows as it is
    written, and the GELU derivative, when recording, goes to the same
    block of its own buffer. dx is the same kernel run on the dilated,
    padded output gradient with the flipped taps; dW folds the band out of
    A^T g. The padded input is a forward temporary; backward pads ``x``
    again when the weight needs a gradient.
    """
    B, H, W, C, OC, k, OH, OW = _conv_checks(x, p)
    s, pad, G = p.stride, p.padding, p.groups
    w, b = p.weight, p.bias
    depthwise = G == C == OC
    # Tap weights are packed contiguous with the channel axis last, so the
    # einsum's inner loop and M's blocks read dense memory.
    if depthwise:                       # [k, k, C]; the flipped taps feed dx
        wt = np.ascontiguousarray(w.data[:, 0].transpose(1, 2, 0))
        wflip = wt[::-1, ::-1]
    else:                               # block-diagonal [k, k, C, OC]
        Cg, Og = C // G, OC // G
        wt = np.zeros((k, k, C, OC), dtype=w.data.dtype)
        for gi in range(G):
            wt[:, :, gi * Cg:(gi + 1) * Cg, gi * Og:(gi + 1) * Og] = \
                w.data[gi * Og:(gi + 1) * Og].transpose(2, 3, 1, 0)
        wflip = np.ascontiguousarray(wt[::-1, ::-1].swapaxes(2, 3))

    def correlate(a, wk, step, out, epilogue=None):
        if depthwise:
            np.einsum("bhwcij,ijc->bhwc", _windows(a, k, step), wk, out=out)
            if epilogue is not None:
                epilogue((), out)
        else:
            _band_correlate(a, wk, step, out, epilogue)

    # Buffers the tape keeps are allocated before the temporaries, so that
    # freeing the temporaries leaves no hole between kept buffers.
    parents = (x, w) if b is None else (x, w, b)
    record = T.recording(*parents)
    out = np.empty((B, OH, OW, OC), dtype=x.data.dtype)
    dgelu = np.empty_like(out) if gelu and record else None
    brow = None                          # one output row's bias, [OW * OC]
    if b is not None:
        brow = np.empty(OW * OC, dtype=b.data.dtype)
        brow.reshape(OW, OC)[...] = b.data

    def epilogue(idx, ob):
        if brow is not None:
            rows = ob.reshape(-1, OW * OC)          # a view: every block is contiguous
            rows += brow
        if gelu:
            _gelu(ob, record, out=ob, dout=None if dgelu is None else dgelu[idx])

    correlate(_pad_hw(x.data, pad), wt, s, out, epilogue)
    rx, rw, rb = (t is not None and t.requires_grad for t in (x, w, b))
    xd = x.data if rw else None          # dW pads it again
    n = len(parents)

    def backward(g):
        if gelu:
            g = g * dgelu
        dx = dw = db = None
        if rb:
            db = g.reshape(-1, OW * OC).sum(axis=0).reshape(OW, OC).sum(axis=0)
        if rw:
            if depthwise:
                dw = np.einsum("bhwcij,bhwc->cij", _windows(_pad_hw(xd, pad), k, s), g)
                dw = dw.reshape(C, 1, k, k)
            else:
                dwt = _band_weight_grad(_pad_hw(xd, pad), g, k, s)
                dw = np.concatenate([dwt[:, :, gi * Cg:(gi + 1) * Cg, gi * Og:(gi + 1) * Og]
                                     for gi in range(G)], axis=3).transpose(3, 2, 0, 1)
        if rx:
            # dx is the stride-1 correlation of the output gradient, dilated
            # by the stride and zero-padded by k - 1, with the flipped kernel.
            Hd, Wd = H + 2 * pad - k + 1, W + 2 * pad - k + 1
            dx = np.empty((B, H, W, C), dtype=g.dtype)
            gp = np.zeros((B, Hd + 2 * (k - 1), Wd + 2 * (k - 1), OC), dtype=g.dtype)
            gp[:, k - 1:k - 1 + Hd:s, k - 1:k - 1 + Wd:s] = g
            correlate(gp[:, pad:pad + H + k - 1, pad:pad + W + k - 1], wflip, 1, dx)
        return (dx, dw, db)[:n]

    return T._make(out, parents, backward, "conv2d")


# NCHW adapters: the layout of the naive oracle and the gradient registry.

def _nchw(x: Tensor, conv) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects [B, C, H, W], got {list(x.shape)}")
    return T.permute(conv(T.permute(x, (0, 2, 3, 1))), (0, 3, 1, 2))


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Grouped 2-d cross-correlation of [B, C, H, W]; see conv2d_nhwc."""
    return _nchw(x, lambda t: conv2d_nhwc(t, p))


def depthwise_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Per-channel convolution (groups == in_ch == out_ch) of [B, C, H, W]."""
    if x.ndim == 4 and not p.groups == x.shape[1] == p.weight.shape[0]:
        raise ShapeError(f"depthwise requires groups == in_ch == out_ch, got groups={p.groups}, "
                         f"{x.shape[1]}->{p.weight.shape[0]}")
    return _nchw(x, lambda t: conv2d_nhwc(t, p))


def pointwise_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """1x1 channel mixer of [B, C, H, W]: a per-pixel linear map."""
    if p.weight.shape[2:] != (1, 1) or p.groups != 1 or p.stride != 1 or p.padding != 0:
        raise ShapeError(f"pointwise conv needs a 1x1 kernel, groups == stride == 1 and no "
                         f"padding, got weight {list(p.weight.shape)}")
    return _nchw(x, lambda t: linear(t, p))


# --------------------------------------------------------------------------
# linear / layer norm / activations / loss
# --------------------------------------------------------------------------

def linear(x: Tensor | Sequence[Tensor], p: LinearParams | Conv2dParams,
           gelu: bool = False) -> Tensor:
    """y = x W^T + b over the last axis: one [rows, in] @ W^T GEMM per input.

    ``x`` is one tensor or a list of consecutive channel blocks, read in
    place of their concatenation. W is read as [out, in] whatever its
    trailing unit extents, so a 1x1 conv weight [out, in, 1, 1] serves as
    stored. With ``gelu`` the output is GELU(y), computed in y's buffer.
    """
    w, b = p.weight, p.bias
    wd = w.data
    out_dim, in_dim = wd.shape[:2]
    if wd.ndim > 2:
        if wd.size != out_dim * in_dim:
            raise ShapeError(f"linear reads the weight as [out, in], got {list(w.shape)}")
        wd = wd.reshape(out_dim, in_dim)
    xs, ws, lo = ((x,) if isinstance(x, Tensor) else tuple(x)), [], 0
    for t in xs:
        T._check_same_dtype(t, w, "linear")
        ws.append(wd[:, lo:lo + t.shape[-1]])
        lo += t.shape[-1]
    if lo != in_dim or any(t.shape[:-1] != xs[0].shape[:-1] for t in xs):
        raise ShapeError(f"linear expects last axis {in_dim}, got {list(xs[0].shape)}" if len(xs) == 1
                         else f"linear blocks {[list(t.shape) for t in xs]} do not match weight "
                              f"{list(w.shape)}")
    x2s = [t.data.reshape(-1, t.shape[-1]) for t in xs]   # reshape: a view if contiguous
    out = x2s[0] @ ws[0].T
    for k in range(1, len(xs)):
        out += x2s[k] @ ws[k].T
    if b is not None:
        out += b.data
    parents = xs + ((w,) if b is None else (w, b))
    if gelu:
        out, dgelu = _gelu(out, T.recording(*parents), out=out)
    rw, rb = w.requires_grad, b is not None and b.requires_grad
    w_shape, x_shapes = w.shape, [t.shape if t.requires_grad else None for t in xs]
    saved_x2s = x2s if rw else None      # dW reads the inputs
    n = len(parents)

    def backward(g):
        g2 = g.reshape(-1, out_dim)
        if gelu:
            g2 = g2 * dgelu
        db = g2.sum(axis=0) if rb else None
        dw = None
        if rw:
            dw = (np.concatenate([g2.T @ x2 for x2 in saved_x2s], axis=1) if len(saved_x2s) > 1
                  else g2.T @ saved_x2s[0]).reshape(w_shape)   # [out, in, 1, 1] for a 1x1 conv
        dxs = [None if s is None else (g2 @ wk).reshape(s) for s, wk in zip(x_shapes, ws)]
        return (*dxs, dw, db)[:n]

    return T._make(out.reshape(xs[0].shape[:-1] + (out_dim,)), parents, backward, "linear")


def reduce_project(x: Tensor, proj: LinearParams, reduce: LinearParams) -> Tensor:
    """The projection ``proj`` of x [B, S, D_in] shortened along its token
    axis by ``reduce`` (weight R [S_r, S]), tokens first [B, S_r, D_out].

    Both maps are linear, so shortening first is exact in real arithmetic
    and projects S_r rows instead of S: k = (R x) W^T + rowsum(R) b^T + r_b,
    which is R (x W^T + b) + r_b. Both maps have biases.
    """
    W, b, R, rb = proj.weight, proj.bias, reduce.weight, reduce.bias
    if x.ndim != 3 or W.shape[1] != x.shape[2] or R.shape[1] != x.shape[1]:
        raise ShapeError(f"reduce_project: x [B, S, D_in] {list(x.shape)} needs proj [D_out, D_in] "
                         f"and reduce [S_r, S], got {list(W.shape)} and {list(R.shape)}")
    T._check_same_dtype(x, W, "reduce_project")
    T._check_same_dtype(x, R, "reduce_project")
    B, S, Din = x.shape
    Dout, Sr = W.shape[0], R.shape[0]
    xd, wd, bd, rd = x.data, W.data, b.data, R.data
    rsum = rd.sum(axis=1)
    rx = np.matmul(rd, xd).reshape(-1, Din)               # R x, [B S_r, D_in]
    out = (rx @ wd.T).reshape(B, Sr, Dout)
    out += rsum[:, None] * bd + rb.data[:, None]
    rX, rW, rB, rR, rRb = (t.requires_grad for t in (x, W, b, R, rb))
    saved_rx = rx if rW else None                          # dW reads R x, dR reads x and b
    saved_xd, saved_bd = (xd, bd) if rR else (None, None)
    saved_rd = rd if rX else None

    def backward(g):
        g2 = g.reshape(-1, Dout)
        gs = g.sum(axis=0)                                 # [S_r, D_out]
        dx = dw = db = dr = None
        if rW:
            dw = g2.T @ saved_rx
        if rB:
            db = rsum @ gs
        if rX or rR:
            drx = (g2 @ wd).reshape(B, Sr, Din)
            if rX:
                dx = np.matmul(saved_rd.T, drx)
            if rR:
                dr = np.matmul(drx, saved_xd.transpose(0, 2, 1)).sum(axis=0)
                dr += (gs @ saved_bd)[:, None]
        return dx, dw, db, dr, gs.sum(axis=1) if rRb else None

    return T._make(out, (x, W, b, R, rb), backward, "reduce_project")


def fold_pointwise(outer: LinearParams, inner: Conv2dParams) -> LinearParams:
    """The linear map ``outer`` after the dense 1x1 conv ``inner``, as one
    linear map over inner's input. Its weight and its bias are each one
    small tape op over the parameters, whose backward maps the folded
    gradient back to every stored parameter.

    ``inner`` maps C channels to C (M [C, C]), and both maps have biases.
    Its output feeds every column of outer, channel-major with Q columns
    per channel (a patch's pixels), so that, with W viewed as [O, C, Q],
    W'[d] = M^T W[d] and b' = b + sum_{c,q} W[d, c, q] b_M[c].
    """
    W, M, bo, bi = outer.weight, inner.weight, outer.bias, inner.bias
    C = M.shape[0]
    if (M.shape[1:] != (C, 1, 1) or inner.groups != 1 or inner.stride != 1 or inner.padding
            or W.ndim != 2 or W.shape[1] % C):
        raise ShapeError(f"fold_pointwise: a dense 1x1 conv C -> C with weight {list(M.shape)}, "
                         f"groups={inner.groups}, cannot feed the columns of outer weight "
                         f"{list(W.shape)}")
    for t in (M, bo, bi):
        T._check_same_dtype(W, t, "fold_pointwise")
    O, Q = W.shape[0], W.shape[1] // C
    wq = W.data.reshape(O, C, Q)
    m = M.data.reshape(C, C)
    rW, rM = W.requires_grad, M.requires_grad
    m_shape = M.shape

    def weight_backward(g):
        gq = g.reshape(O, C, Q)
        return (np.matmul(m, gq).reshape(O, -1) if rW else None,
                np.einsum("dcq,deq->ce", wq, gq).reshape(m_shape) if rM else None)

    bsum = wq.sum(axis=2)                                  # [O, C]
    bid = bi.data
    rBi = bi.requires_grad
    saved_bsum = bsum if rBi else None

    def bias_backward(g):
        dw = np.repeat(np.outer(g, bid), Q, axis=1) if rW else None
        return g, dw, g @ saved_bsum if rBi else None

    w2 = np.matmul(m.T, wq).reshape(O, -1)
    return LinearParams(T._make(w2, (W, M), weight_backward, "fold_weight"),
                        T._make(bo.data + bsum @ bid, (bo, W, bi), bias_backward, "fold_bias"))


def _row_dot(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dot product of matching rows of two [rows, dim] arrays, as a [rows, 1] column."""
    return np.einsum("ij,ij->i", a, c)[:, None]


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, then scale-shift."""
    dim = p.gamma.shape[0]
    if x.shape[-1] != dim:
        raise ShapeError(f"layer_norm expects last axis {dim}, got {list(x.shape)}")
    gamma, beta, eps = p.gamma, p.beta, p.eps
    T._check_same_dtype(x, gamma, "layer_norm")

    x2 = x.data.reshape(-1, dim)
    xhat = x2 - x2.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(_row_dot(xhat, xhat) / dim + eps)
    xhat *= inv
    # backward reads xhat, so the output gets its own buffer only when recording
    out = xhat * gamma.data if T.recording(x, gamma, beta) else np.multiply(xhat, gamma.data, out=xhat)
    out += beta.data
    rx, rg, rb = x.requires_grad, gamma.requires_grad, beta.requires_grad
    shape, gd = x.shape, gamma.data

    def backward(g):
        g2 = g.reshape(-1, dim)
        dx = None
        if rx:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gamma
            dxhat = g2 * gd
            dx = xhat * (_row_dot(dxhat, xhat) / -dim)
            dx += dxhat
            dx -= dxhat.mean(axis=1, keepdims=True)
            dx *= inv
            dx = dx.reshape(shape)
        return (dx, np.einsum("ij,ij->j", g2, xhat) if rg else None,
                g2.sum(axis=0) if rb else None)

    return T._make(out.reshape(x.shape), (x, gamma, beta), backward, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)   # 0.7978845608028654
_GELU_A = 0.044715


_GELU_CHUNK = 1 << 15      # elements per pass: a chunk's buffers stay in L2


def _gelu(xd: np.ndarray, record: bool, out: Optional[np.ndarray] = None,
          dout: Optional[np.ndarray] = None):
    """tanh-form GELU of an array: 0.5 x (1 + tanh(c (x + a x^3))), c = sqrt(2/pi),
    a = 0.044715. Returns (y, dy/dx), the derivative None unless ``record``.

    y goes to ``out`` (which may be ``xd`` itself, read for the last time
    there), else to a fresh buffer, and the derivative to ``dout``, else to
    a fresh buffer; both are C-contiguous. The derivative
    0.5 (1 + t) + 0.5 x (1 - t^2) u' = (1 + t) (0.5 + 0.5 x u' (1 - t)),
    t = tanh(u), u' = c (1 + 3 a x^2), is formed in one buffer alongside.
    The passes run over chunks of _GELU_CHUNK to 2 _GELU_CHUNK elements of
    the flat arrays, so that each chunk's buffers stay in cache from one
    pass to the next; every element sees the same operations whatever the
    chunking.
    """
    y = np.empty_like(xd, order="C") if out is None else out
    d = None
    if record:
        d = np.empty_like(xd, order="C") if dout is None else dout
    xf, yf = xd.reshape(-1), y.reshape(-1)          # views: the buffers are contiguous
    df = None if d is None else d.reshape(-1)
    n = xf.size
    chunks = max(1, n // _GELU_CHUNK)
    step = max(1, -(-n // chunks))                   # the last chunk may be shorter
    tbuf = np.empty(min(n, step), dtype=xd.dtype)
    for lo in range(0, n, step):
        x = xf[lo:lo + step]
        t = np.multiply(x, x, out=tbuf[:x.size])
        if record:
            dc = np.multiply(t, 3.0 * _GELU_C * _GELU_A, out=df[lo:lo + x.size])
            dc += _GELU_C
            dc *= x
            dc *= 0.5                     # 0.5 x u'
        t *= _GELU_C * _GELU_A
        t += _GELU_C
        t *= x
        np.tanh(t, out=t)                 # t = tanh(c (x + a x^3))
        if record:
            dc *= 1.0 - t
            dc += 0.5
            dc *= 1.0 + t
        t += 1.0
        yc = np.multiply(t, x, out=yf[lo:lo + x.size])
        yc *= 0.5
    return y, d


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU (see ``_gelu``); backward reads only the derivative."""
    y, d = _gelu(x.data, T.recording(x))

    def backward(g):
        return (g * d,)

    return T._make(y, (x,), backward, "gelu")


def attend(q: Tensor, k: Tensor, v: Tensor, heads: int):
    """Multi-head scaled dot-product attention as one tape op:
    ctx = softmax(q k / sqrt(dk)) v in each head.

    q [B, Sq, D], k and v [B, S, D], all tokens first as their projections
    leave them. D splits into `heads` heads of dk as views, so the scores'
    right operand is k [B, h, dk, S], a transposed view that BLAS reads as
    it stands. Returns (ctx, weights): ctx [B, Sq, D] with the heads side
    by side, and the weights P [B, h, Sq, S] as a non-recording tensor. The
    scale and the softmax run in place in the scores' buffer, the tape
    keeps only P, and each gradient returns in its input's layout.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(f"attend expects rank-3 q, k, v, got {list(q.shape)}, "
                         f"{list(k.shape)}, {list(v.shape)}")
    B, Sq, D = q.shape
    S = k.shape[1]
    if k.shape != (B, S, D) or v.shape != (B, S, D) or heads < 1 or D % heads:
        raise ShapeError(f"attend: q [B, Sq, D] {list(q.shape)} needs k and v [{B}, S, {D}] "
                         f"and D divisible by {heads} heads, got {list(k.shape)} and {list(v.shape)}")
    T._check_same_dtype(q, k, "attend")
    T._check_same_dtype(q, v, "attend")
    dk = D // heads
    qh = q.data.reshape(B, Sq, heads, dk).transpose(0, 2, 1, 3)    # [B, h, Sq, dk]
    kh = k.data.reshape(B, S, heads, dk).transpose(0, 2, 3, 1)     # [B, h, dk, S]
    vh = v.data.reshape(B, S, heads, dk).transpose(0, 2, 1, 3)     # [B, h, S, dk]
    s = np.asarray(1.0 / math.sqrt(dk), dtype=q.data.dtype)
    p = np.matmul(qh, kh)
    p *= s
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def heads_out(a, b, rows):
        """a @ b [B, h, rows, dk] written with the heads side by side, [B, rows, D]."""
        out = np.empty((B, rows, heads, dk), dtype=p.dtype)
        np.matmul(a, b, out=out.transpose(0, 2, 1, 3))
        return out.reshape(B, rows, D)

    ctx = heads_out(p, vh, Sq)
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
    saved_kh = kh if rq else None         # dq reads k, dk reads q, and both read v
    saved_qh = qh if rk else None
    saved_vh = vh if rq or rk else None

    def backward(g):
        g = g.reshape(B, Sq, heads, dk).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if rv:
            gv = heads_out(np.swapaxes(p, -1, -2), g, S)
        if rq or rk:
            # dS = (dP - <dP, P>) * P * s, the dot product over each row
            ds = np.matmul(g, np.swapaxes(saved_vh, -1, -2))
            ds -= np.einsum("...i,...i->...", ds, p)[..., None]
            ds *= p
            ds *= s
            if rq:
                gq = heads_out(ds, np.swapaxes(saved_kh, -1, -2), Sq)
            if rk:
                gk = heads_out(np.swapaxes(ds, -1, -2), saved_qh, S)
        return gq, gk, gv

    return T._make(ctx, (q, k, v), backward, "attend"), Tensor(p)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean of -log softmax(logits)[label], via log-sum-exp."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [B, num_classes], got {list(logits.shape)}")
    B, K = logits.shape
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.shape[0] != B:
        raise ShapeError(f"{B} rows of logits but {lab.shape[0]} labels")
    if lab.size and (lab.min() < 0 or lab.max() >= K):
        raise DataError(f"label out of range [0, {K}): {int(lab.min())}..{int(lab.max())}")

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    se = e.sum(axis=1, keepdims=True)
    lse = np.log(se) + m
    picked = z[np.arange(B), lab][:, None]
    out = np.asarray((lse - picked).mean(), dtype=z.dtype)

    def backward(g):
        p = e / se
        p[np.arange(B), lab] -= 1.0
        return (p * (np.asarray(g) / B),)

    return T._make(out, (logits,), backward, "cross_entropy")
