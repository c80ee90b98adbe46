"""Neural layers: convolutions, linear, layer norm, GELU, cross-entropy.

Convolutions run channels-last as a sum over the kernel taps of shifted
input slices times per-tap weights; the naive nested-loop form lives in
the test suite as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
# Channels-last [B, H, W, C]: each tap adds the product of one shifted slice
# of the padded input with its weights; no im2col buffer is built or kept.
# Weights stay stored as [out_ch, in_ch/groups, k, k].

def _conv_checks(x: Tensor, p: Conv2dParams):
    """Shape contract of a channels-last convolution; returns the extents."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a rank-4 map, got {list(x.shape)}")
    oc, cg, k, k2 = p.weight.shape
    if k != k2:
        raise ShapeError("non-square conv kernels are not supported")
    if k % 2 == 0:
        raise ShapeError(f"only odd kernel sizes are supported, got {k}")
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
    return np.pad(a, [(0, 0), (n, n), (n, n), (0, 0)]) if n else a


def conv2d_nhwc(x: Tensor, p: Conv2dParams) -> Tensor:
    """Grouped 2-d cross-correlation of a channels-last map [B, H, W, C].

    Output [B, OH, OW, out_ch], OH = floor((H + 2*pad - k)/stride) + 1. A
    tap multiplies its [.., C] slice by a block-diagonal [C, out_ch] matrix;
    when groups == C == out_ch (depthwise) it is a per-channel multiply.
    """
    B, H, W, C, OC, k, OH, OW = _conv_checks(x, p)
    s, pad, G = p.stride, p.padding, p.groups
    w, b = p.weight, p.bias
    depthwise = G == C == OC
    taps = [(i, j) for i in range(k) for j in range(k)]
    # Tap weights are packed contiguous so each tap's multiply or matmul
    # reads a dense [C] vector or [C, OC] matrix.
    if depthwise:                       # [k, k, C]; the flipped taps feed dx
        wt = np.ascontiguousarray(w.data[:, 0].transpose(1, 2, 0))
        wflip = np.ascontiguousarray(wt[::-1, ::-1])
        prod = np.multiply
    else:                               # block-diagonal [k, k, C, OC]
        Cg, Og = C // G, OC // G
        wt = np.zeros((k, k, C, OC), dtype=w.data.dtype)
        for gi in range(G):
            wt[:, :, gi * Cg:(gi + 1) * Cg, gi * Og:(gi + 1) * Og] = \
                w.data[gi * Og:(gi + 1) * Og].transpose(2, 3, 1, 0)
        wflip = np.ascontiguousarray(wt[::-1, ::-1].swapaxes(2, 3))
        prod = np.matmul

    def window(a, i, j, step, oh, ow):
        return a[:, i:i + step * oh:step, j:j + step * ow:step]

    def tap_sum(a, wk, step, oh, ow):
        out = prod(window(a, 0, 0, step, oh, ow), wk[0, 0])
        for i, j in taps[1:]:
            out += prod(window(a, i, j, step, oh, ow), wk[i, j])
        return out

    xp = _pad_hw(x.data, pad)
    out = tap_sum(xp, wt, s, OH, OW)
    if b is not None:
        out += b.data

    def backward(g):
        if b is not None and b.requires_grad:
            T._accumulate(b, g.reshape(-1, OC).sum(axis=0))
        if w.requires_grad:
            if depthwise:
                dwt = np.stack([np.einsum("bhwc,bhwc->c", window(xp, i, j, s, OH, OW), g)
                                for i, j in taps])
                dw = dwt.T.reshape(C, 1, k, k)
            else:
                g2 = g.reshape(-1, OC)
                dwt = np.stack([window(xp, i, j, s, OH, OW).reshape(-1, C).T @ g2
                                for i, j in taps]).reshape(k, k, C, OC)
                dw = np.concatenate([dwt[:, :, gi * Cg:(gi + 1) * Cg, gi * Og:(gi + 1) * Og]
                                     for gi in range(G)], axis=3).transpose(3, 2, 0, 1)
            T._accumulate(w, dw)
        if x.requires_grad:
            # dx is the stride-1 correlation of the (dilated, zero-padded)
            # output gradient with the flipped kernel.
            if s > 1:
                g1 = np.zeros((B, H + 2 * pad - k + 1, W + 2 * pad - k + 1, OC), dtype=g.dtype)
                g1[:, ::s, ::s] = g
                g = g1
            gp = _pad_hw(g, k - 1)[:, pad:pad + H + k - 1, pad:pad + W + k - 1]
            T._accumulate(x, tap_sum(gp, wflip, 1, H, W))

    parents = (x, w) if b is None else (x, w, b)
    return T._make(out, parents, backward, "conv2d")


def pointwise_nhwc(xs, p: Conv2dParams) -> Tensor:
    """1x1 convolution over the last axis: sum_s xs[s] @ W[:, c_s]^T + b.

    ``xs`` are consecutive channel blocks of the input, read in place of
    their concatenation; W is the stored [out_ch, in_ch, 1, 1] weight.
    """
    OC, C, kh, kw = p.weight.shape
    if kh != 1 or kw != 1:
        raise ShapeError(f"pointwise conv needs a 1x1 kernel, got {list(p.weight.shape)}")
    if p.groups != 1 or p.stride != 1 or p.padding != 0:
        raise ShapeError("pointwise conv uses groups == stride == 1 and no padding")
    bounds = np.cumsum([0] + [x.shape[-1] for x in xs])
    if bounds[-1] != C or any(x.shape[:-1] != xs[0].shape[:-1] for x in xs):
        raise ShapeError(f"pointwise inputs {[list(x.shape) for x in xs]} do not match weight in_ch {C}")
    w, b = p.weight, p.bias
    w2 = w.data.reshape(OC, C)
    parts = list(zip(xs, bounds[:-1], bounds[1:]))
    out = 0.0 if b is None else b.data
    for x, lo, hi in parts:
        out = out + x.data.reshape(-1, hi - lo) @ w2[:, lo:hi].T
    out = out.reshape(xs[0].shape[:-1] + (OC,))

    def backward(g):
        g2 = g.reshape(-1, OC)
        if b is not None and b.requires_grad:
            T._accumulate(b, g2.sum(axis=0))
        if w.requires_grad:
            dw = np.concatenate([g2.T @ x.data.reshape(-1, hi - lo) for x, lo, hi in parts], axis=1)
            T._accumulate(w, dw.reshape(OC, C, 1, 1))
        for x, lo, hi in parts:
            if x.requires_grad:
                T._accumulate(x, (g2 @ w2[:, lo:hi]).reshape(x.shape))

    return T._make(out, tuple(xs) + ((w,) if b is None else (w, b)), backward, "pointwise_conv2d")


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
    return _nchw(x, lambda t: pointwise_nhwc([t], p))


# --------------------------------------------------------------------------
# linear / layer norm / activations / loss
# --------------------------------------------------------------------------

def linear(x: Tensor, p: LinearParams) -> Tensor:
    """y = x W^T + b over the last axis."""
    in_dim = p.weight.shape[1]
    if x.shape[-1] != in_dim:
        raise ShapeError(f"linear expects last axis {in_dim}, got {list(x.shape)}")
    squeeze = x.ndim == 1
    if squeeze:
        x = T.reshape(x, [1, in_dim])
    y = T.matmul(x, T.permute(p.weight, (1, 0)))
    if p.bias is not None:
        y = T.add(y, p.bias)
    return T.reshape(y, [p.weight.shape[0]]) if squeeze else y


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, then scale-shift."""
    dim = p.gamma.shape[0]
    if x.shape[-1] != dim:
        raise ShapeError(f"layer_norm expects last axis {dim}, got {list(x.shape)}")
    gamma, beta, eps = p.gamma, p.beta, p.eps

    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            T._accumulate(gamma, (g * xhat).reshape(-1, dim).sum(axis=0))
        if beta.requires_grad:
            T._accumulate(beta, g.reshape(-1, dim).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            T._accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return T._make(out, (x, gamma, beta), backward, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)   # 0.7978845608028654
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU: 0.5 x (1 + tanh(c (x + a x^3))), c = sqrt(2/pi), a = 0.044715."""
    xd = x.data
    u = _GELU_C * (xd + _GELU_A * (xd * xd * xd))
    t = np.tanh(u)
    out = 0.5 * xd * (1.0 + t)

    def backward(g):
        if x.requires_grad:
            du = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
            T._accumulate(x, g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du))

    return T._make(out, (x,), backward, "gelu")


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
        if logits.requires_grad:
            p = e / se
            p[np.arange(B), lab] -= 1.0
            T._accumulate(logits, p * (np.asarray(g) / B))

    return T._make(out, (logits,), backward, "cross_entropy")
