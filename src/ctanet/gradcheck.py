"""Central-difference verification of every differentiable operation.

Each check ties an op into a scalar through a fixed random weighting and
compares the recorded gradient against f64 central differences. The CLI
`gradcheck` command and the acceptance suite both run this registry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from . import tensor as T
from .model import (ModelConfig, ct_block, lmf_mhsa, mhsa, model_forward,
                    model_init, multi_scale_fuse, reconstruct, rrcv_forward,
                    tiny_config)
from .nn import cross_entropy
from .tensor import Tensor

TIGHT_TOL = 1e-6   # elementwise, matmul, softmax, data movement
LAYER_TOL = 1e-4   # composite layers and blocks

# the architecture blocks at micro scale: a 2x2 token grid of 8-dim tokens
MICRO = ModelConfig(image_size=4, patch_size=2, embed_dim=8, depth=1, heads=2,
                    mlp_ratio=2, kernel_scales=(1, 3), kv_reduction=2,
                    rrcv_variant="resnet", num_classes=2, rrcv_channels=2).validate()


@dataclass
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def _rand(shape, seed, lo=-1.0, hi=1.0):
    return T.uniform(shape, lo, hi, seed=seed, dtype="f64")


def _weighted(y: Tensor, seed: int) -> Tensor:
    w = _rand(y.shape, seed)
    return T.reduce_sum(T.mul(y, w))


def op_checks(seed: int = 0):
    """(name, tol, function, probe input) for every differentiable op."""
    s = lambda k: T.fold_seed(seed, k)
    x23 = _rand([2, 3], s(1))
    x234 = _rand([2, 3, 4], s(2))
    pos = _rand([2, 3], s(3), 0.5, 2.0)
    b23 = _rand([2, 3], s(4), 0.5, 1.5)
    col = _rand([2, 1], s(5))

    checks = [
        ("add", TIGHT_TOL, lambda x: _weighted(T.add(x, b23), s(10)), x23),
        ("add_broadcast", TIGHT_TOL, lambda x: _weighted(T.add(x, b23), s(11)), col),
        ("sub", TIGHT_TOL, lambda x: _weighted(T.sub(x, b23), s(12)), x23),
        ("mul", TIGHT_TOL, lambda x: _weighted(T.mul(x, b23), s(13)), x23),
        ("mul_broadcast", TIGHT_TOL, lambda x: _weighted(T.mul(col, x), s(14)), x23),
        ("div", TIGHT_TOL, lambda x: _weighted(T.div(x, b23), s(15)), x23),
        ("div_rhs", TIGHT_TOL, lambda x: _weighted(T.div(b23, x), s(16)), pos),
        ("scale", TIGHT_TOL, lambda x: _weighted(T.scale(x, -1.7), s(17)), x23),
        ("neg", TIGHT_TOL, lambda x: _weighted(T.neg(x), s(18)), x23),
        ("exp", TIGHT_TOL, lambda x: _weighted(T.exp(x), s(19)), x23),
        ("log", TIGHT_TOL, lambda x: _weighted(T.log(x), s(20)), pos),
        ("sqrt", TIGHT_TOL, lambda x: _weighted(T.sqrt(x), s(21)), pos),
        ("tanh", TIGHT_TOL, lambda x: _weighted(T.tanh(x), s(22)), x23),
        ("maximum", TIGHT_TOL, lambda x: _weighted(T.maximum(x, b23), s(23)), x23),
        ("matmul", TIGHT_TOL, lambda x: _weighted(T.matmul(x, _rand([3, 5], s(24))), s(25)), x23),
        ("matmul_batched", TIGHT_TOL,
         lambda x: _weighted(T.matmul(x, _rand([2, 4, 5], s(26))), s(27)), x234),
        ("softmax", TIGHT_TOL, lambda x: _weighted(T.softmax(x, axis=-1), s(28)), x234),
        ("sum", TIGHT_TOL, lambda x: _weighted(T.reduce_sum(x, axis=1), s(29)), x234),
        ("mean", TIGHT_TOL, lambda x: _weighted(T.reduce_mean(x, axis=(0, 2)), s(30)), x234),
        ("var", TIGHT_TOL, lambda x: _weighted(T.reduce_var(x, axis=-1), s(31)), x234),
        ("reshape", TIGHT_TOL, lambda x: _weighted(T.reshape(x, [4, 6]), s(32)), x234),
        ("permute", TIGHT_TOL, lambda x: _weighted(T.permute(x, (2, 0, 1)), s(33)), x234),
        ("concat", TIGHT_TOL, lambda x: _weighted(T.concat([x, b23], axis=0), s(34)), x23),
        ("slice", TIGHT_TOL, lambda x: _weighted(T.slice_(x, (slice(None), slice(1, 3))), s(35)), x234),
        ("expand", TIGHT_TOL, lambda x: _weighted(T.expand(x, [2, 3]), s(36)), col),
        ("pad2d", TIGHT_TOL, lambda x: _weighted(T.pad2d(x, 1), s(37)), _rand([1, 2, 3, 3], s(38))),
    ]

    # layers
    conv_p = nn.conv2d_init(2, 3, 3, padding=1, seed=s(40), dtype="f64")
    conv_s2 = nn.conv2d_init(2, 2, 3, padding=1, stride=2, seed=s(41), dtype="f64")
    dw_p = nn.conv2d_init(3, 3, 3, padding=1, groups=3, seed=s(42), dtype="f64")
    pw_p = nn.conv2d_init(3, 5, 1, seed=s(43), dtype="f64")
    grp_p = nn.conv2d_init(4, 4, 3, padding=1, groups=2, seed=s(44), dtype="f64")
    lin_p = nn.linear_init(4, 6, seed=s(45), dtype="f64")
    ln_p = nn.layer_norm_init(4, dtype="f64")
    labels = np.array([1, 0])
    # biases drawn non-zero, so that the folded bias's weight gradient counts
    kv_p = nn.LinearParams(_rand([6, 4], s(106)), _rand([6], s(107)))
    red_p = nn.LinearParams(_rand([3, 5], s(108)), _rand([3], s(109)))
    pc_p = nn.Conv2dParams(_rand([2, 2, 1, 1], s(110)), _rand([2], s(111)))
    fold_b, fold_x8 = _rand([3], s(114)), _rand([2, 3, 8], s(115))

    checks += [
        # conv2d's 10-wide output is two tiles of the banded GEMM, so its dW folds across tiles
        ("conv2d", LAYER_TOL, lambda x: _weighted(nn.conv2d(x, conv_p), s(50)), _rand([1, 2, 5, 10], s(51))),
        ("conv2d_stride2", LAYER_TOL, lambda x: _weighted(nn.conv2d(x, conv_s2), s(52)), _rand([1, 2, 6, 6], s(53))),
        ("conv2d_grouped", LAYER_TOL, lambda x: _weighted(nn.conv2d(x, grp_p), s(54)), _rand([1, 4, 4, 4], s(55))),
        ("depthwise_conv2d", LAYER_TOL, lambda x: _weighted(nn.depthwise_conv2d(x, dw_p), s(56)), _rand([1, 3, 5, 5], s(57))),
        ("pointwise_conv2d", LAYER_TOL, lambda x: _weighted(nn.pointwise_conv2d(x, pw_p), s(58)), _rand([1, 3, 4, 4], s(59))),
        ("linear", LAYER_TOL, lambda x: _weighted(nn.linear(x, lin_p), s(60)), _rand([2, 3, 4], s(61))),
        ("layer_norm", LAYER_TOL, lambda x: _weighted(nn.layer_norm(x, ln_p), s(62)), _rand([2, 3, 4], s(63))),
        ("linear_gelu", LAYER_TOL,
         lambda x: _weighted(nn.linear(x, lin_p, gelu=True), s(100)), _rand([2, 3, 4], s(101))),
        ("conv2d_gelu", LAYER_TOL,
         lambda x: _weighted(nn.conv2d_nhwc(x, conv_p, gelu=True), s(102)), _rand([1, 5, 5, 2], s(103))),
        ("gelu", LAYER_TOL, lambda x: _weighted(nn.gelu(x), s(64)), _rand([2, 5], s(65), -2.0, 2.0)),
        # q, k and v are slices of one probe [B, S, 3 D], two heads
        ("attend", LAYER_TOL,
         lambda x: _weighted(nn.attend(T.slice_(x, (..., slice(0, 4))), T.slice_(x, (..., slice(4, 8))),
                                       T.slice_(x, (..., slice(8, 12))), 2)[0], s(104)),
         _rand([2, 3, 12], s(105), -2.0, 2.0)),
        ("reduce_project", LAYER_TOL,
         lambda x: _weighted(nn.reduce_project(x, kv_p, red_p), s(117)), _rand([2, 5, 4], s(118))),
        # the probe is the outer weight: 2 channels of 4 pixels each, through a dense 1x1
        ("fold_pointwise", LAYER_TOL,
         lambda x: _weighted(nn.linear(fold_x8, nn.fold_pointwise(nn.LinearParams(x, fold_b), pc_p)),
                             s(119)), _rand([3, 8], s(120))),
        ("cross_entropy", LAYER_TOL, lambda x: cross_entropy(x, labels), _rand([2, 4], s(66))),
        ("reconstruct", TIGHT_TOL,
         lambda x: _weighted(reconstruct(x, 4, 4), s(67)), _rand([1, 2, 4, 2, 2], s(68))),
    ]

    # architecture blocks at micro scale
    net = model_init(MICRO, seed=T.fold_seed(seed, 70), dtype="f64")
    bp = net.blocks[0]
    mhsa_cfg = replace(MICRO, attention_kind="mhsa", kernel_scales=(), kv_reduction=1)
    mhsa_net = model_init(mhsa_cfg, seed=T.fold_seed(seed, 71), dtype="f64")

    tok = _rand([2, MICRO.tokens, 8], s(72))
    fmap = _rand([1, 2, 2, 8], s(73))    # channels-last [B, H, W, C]

    checks += [
        ("multi_scale_fuse", LAYER_TOL,
         lambda x: _weighted(multi_scale_fuse(x, bp.attn.fusion), s(80)), fmap),
        ("rrcv_forward", LAYER_TOL,
         lambda x: _weighted(rrcv_forward(x, bp.rrcv, MICRO), s(81)), tok),
        ("lmf_mhsa", LAYER_TOL,
         lambda x: _weighted(lmf_mhsa(x, bp.attn, MICRO), s(82)), tok),
        ("mhsa", LAYER_TOL,
         lambda x: _weighted(mhsa(x, mhsa_net.blocks[0].attn, 2), s(83)), tok),
        ("ct_block", LAYER_TOL,
         lambda x: _weighted(ct_block(x, bp, MICRO), s(84)), tok),
    ]
    return checks


def block_param_check(seed: int = 0) -> dict:
    """Block loss against every block parameter, all coordinates."""
    net = model_init(MICRO, seed=T.fold_seed(seed, 90), dtype="f64")
    x = _rand([2, MICRO.tokens, 8], T.fold_seed(seed, 91))
    w = _rand([2, MICRO.tokens, 8], T.fold_seed(seed, 92))
    params = [(n, p) for n, p in net.named_parameters() if n.startswith("blocks.0")]
    return T.grad_check_params(lambda: T.reduce_sum(T.mul(ct_block(x, net.blocks[0], MICRO), w)),
                               params, eps=1e-5)


def model_param_check(seed: int = 0, samples_per_param: int = 3) -> dict:
    """End-to-end loss of the tiny preset against a coordinate sample of
    every parameter (full enumeration would need ~600k forwards)."""
    cfg = tiny_config()
    net = model_init(cfg, seed=T.fold_seed(seed, 95), dtype="f64")
    img = _rand([2, 3, cfg.image_size, cfg.image_size], T.fold_seed(seed, 96), 0.0, 1.0)
    labels = np.array([3, 7])
    return T.grad_check_params(lambda: cross_entropy(model_forward(img, net), labels),
                               net.named_parameters(), eps=1e-5,
                               max_coords_per_param=samples_per_param, seed=seed)


def run_suite(seed: int = 0, include_model: bool = True, samples_per_param: int = 3):
    results = [CheckResult(name, T.grad_check(fn, x), tol)
               for name, tol, fn, x in op_checks(seed)]
    results.append(CheckResult("ct_block_params",
                               max(block_param_check(seed).values()), LAYER_TOL))
    if include_model:
        results.append(CheckResult("tiny_model_params",
                                   max(model_param_check(seed, samples_per_param).values()),
                                   LAYER_TOL))
    return results
