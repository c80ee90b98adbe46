"""Shared oracles and fixtures.

The oracles here are deliberately naive, independent reimplementations
(nested loops, textbook formulas); the fast paths in the package are
always checked against them rather than against themselves.
"""

import random

import numpy as np
import pytest

from ctanet.model import ModelConfig


def naive_conv2d(x, w, b, stride=1, pad=0, groups=1):
    """Direct 6-nested-loop cross-correlation on numpy arrays."""
    B, C, H, W = x.shape
    OC, Cg, k, _ = w.shape
    OH = (H + 2 * pad - k) // stride + 1
    OW = (W + 2 * pad - k) // stride + 1
    xp = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    out = np.zeros((B, OC, OH, OW), dtype=np.float64)
    og = OC // groups
    for bb in range(B):
        for o in range(OC):
            gi = o // og
            for oy in range(OH):
                for ox in range(OW):
                    acc = 0.0
                    for c in range(Cg):
                        for i in range(k):
                            for j in range(k):
                                acc += xp[bb, gi * Cg + c, oy * stride + i, ox * stride + j] * w[o, c, i, j]
                    out[bb, o, oy, ox] = acc + (b[o] if b is not None else 0.0)
    return out


def textbook_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, kv_reduce=None):
    """Reference multi-head self-attention from plain numpy matmul/softmax.

    kv_reduce = (wk_r, bk_r, wv_r, bv_r) first shortens K and V along the
    token axis: the projection y [B, T, D] becomes (y^T @ W_r^T + b_r)^T,
    where y^T is [B, D, T], so each keeps D and has W_r's row count of tokens.
    """
    B, T, D = x.shape
    dk = D // heads

    def proj(w, b, reduce=None):
        y = x @ w.T + b
        if reduce is not None:
            wr, br = reduce
            y = (y.transpose(0, 2, 1) @ wr.T + br).transpose(0, 2, 1)
        return y.reshape(B, -1, heads, dk).transpose(0, 2, 1, 3)

    kr, vr = (None, None) if kv_reduce is None else (kv_reduce[:2], kv_reduce[2:])
    q, k, v = proj(wq, bq), proj(wk, bk, kr), proj(wv, bv, vr)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, T, D)
    return ctx @ wo.T + bo


def reconstruct_oracle(patches, H, W):
    """Index-arithmetic rearrangement of [B, C, N, hp, wp] into [B, C, H, W]."""
    B, C, N, hp, wp = patches.shape
    gw = W // wp
    out = np.zeros((B, C, H, W), dtype=patches.dtype)
    for n in range(N):
        gy, gx = divmod(n, gw)
        for i in range(hp):
            for j in range(wp):
                out[:, :, gy * hp + i, gx * wp + j] = patches[:, :, n, i, j]
    return out


def random_valid_config(seed: int) -> ModelConfig:
    """A small random but valid model shape for invariance sweeps."""
    rng = random.Random(seed)
    patch = rng.choice([1, 2, 4])
    grid = rng.choice([2, 3, 4])
    heads = rng.choice([1, 2, 4])
    dim = heads * rng.choice([4, 8])
    n = grid * grid
    cfg = ModelConfig(
        image_size=patch * grid,
        patch_size=patch,
        embed_dim=dim,
        depth=1,
        heads=heads,
        mlp_ratio=rng.choice([1, 2]),
        attention_kind=rng.choice(["mhsa", "lmf_mhsa"]),
        rrcv_variant=rng.choice(["none", "cnn", "dwconv", "resnet"]),
        kernel_scales=tuple(rng.sample([1, 3, 5], rng.randint(1, 3))),
        kv_reduction=rng.randint(1, min(4, n)),
        num_classes=rng.choice([2, 10]),
        use_class_token=rng.choice([True, False]),
        rrcv_channels=rng.choice([None, 2, 4]),
    )
    return cfg.validate()


def write_cifar10_fixture(path, records):
    """records: list of (label, [3, 32, 32] uint8 array)."""
    with open(path, "wb") as fh:
        for label, pixels in records:
            fh.write(bytes([label]))
            fh.write(np.asarray(pixels, dtype=np.uint8).tobytes())


@pytest.fixture
def cifar10_root(tmp_path):
    """A dataset root holding a tiny crafted cifar-10 binary layout."""
    base = tmp_path / "cifar-10-batches-bin"
    base.mkdir()
    rng = np.random.default_rng(7)
    for name, n in [("data_batch_1.bin", 20), ("test_batch.bin", 10)]:
        records = [(int(i % 10), rng.integers(0, 256, size=(3, 32, 32), dtype=np.uint8).astype(np.uint8))
                   for i in range(n)]
        write_cifar10_fixture(base / name, records)
    for name in ["data_batch_2.bin", "data_batch_3.bin", "data_batch_4.bin", "data_batch_5.bin"]:
        write_cifar10_fixture(base / name, [])
    return tmp_path
