"""Dataset ingestion and batch preparation.

Covers the public CIFAR binary distributions (decoded byte-exactly), a
synthetic class-conditional generator for learnability runs, the fixed
augmentation pipeline, bilinear resizing and deterministic batching.
All randomness flows through the package's counter-based generator, so a
given seed reproduces the same batches and augmentations everywhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .tensor import Tensor

CIFAR10_DIRNAME = "cifar-10-batches-bin"
CIFAR100_DIRNAME = "cifar-100-binary"


@dataclass
class AugmentFlags:
    crop: bool = False       # pad-4 reflect + random crop
    flip: bool = False       # horizontal, p = 0.5
    rotate: bool = False     # uniform +-rotate_deg, bilinear, zero fill
    jitter: bool = False     # per-channel scale in [jitter_lo, jitter_hi]
    rotate_deg: float = 15.0
    jitter_lo: float = 0.8
    jitter_hi: float = 1.2

    def any(self) -> bool:
        return self.crop or self.flip or self.rotate or self.jitter


@dataclass
class DatasetSpec:
    kind: str = "synthetic"            # {cifar10, cifar100, synthetic}
    root: str = "data"
    split: str = "train"               # {train, test}
    subset_size: Optional[int] = None  # stratified, seed-deterministic
    val_subset: Optional[int] = None   # stratified cap on the evaluation split
    target_size: int = 32              # {32, 224}
    augment: AugmentFlags = field(default_factory=AugmentFlags)
    seed: int = 0
    synth_classes: int = 10
    synth_size: int = 512

    def validate(self) -> "DatasetSpec":
        if self.kind not in ("cifar10", "cifar100", "synthetic"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.split not in ("train", "test"):
            raise ConfigError(f"unknown split {self.split!r}")
        if self.target_size not in (32, 224):
            raise ConfigError(f"target_size must be 32 or 224, got {self.target_size}")
        if self.subset_size is not None and self.subset_size < 1:
            raise ConfigError(f"subset_size must be positive, got {self.subset_size}")
        return self


@dataclass
class Dataset:
    images: np.ndarray       # [n, 3, H, W] float32 in [0, 1]
    labels: np.ndarray       # [n] int64
    num_classes: int

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass
class ImageBatch:
    images: Tensor           # [B, 3, H, W], values in [0, 1]
    labels: np.ndarray       # [B] int64


# --------------------------------------------------------------------------
# CIFAR binary records
# --------------------------------------------------------------------------

def decode_cifar_records(raw: bytes, coarse_fine: bool, path: str = "<bytes>"):
    """Decode CIFAR binary records to ([n,3,32,32] float32 in [0,1], [n] labels).

    CIFAR-10 records are 1 label byte + 3072 channel-planar pixel bytes;
    CIFAR-100 records carry a coarse then a fine label byte first (the
    fine label is kept).
    """
    rec = 3074 if coarse_fine else 3073
    n = len(raw)
    if n % rec:
        raise DataError(
            f"{path}: length {n} is not a multiple of the {rec}-byte record; "
            f"partial record begins at byte {n - (n % rec)}")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, rec)
    labels = arr[:, 1 if coarse_fine else 0].astype(np.int64)
    pixels = arr[:, 2 if coarse_fine else 1:].reshape(-1, 3, 32, 32)
    return pixels.astype(np.float32) / 255.0, labels


def _read_binary(path: str) -> bytes:
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    with open(path, "rb") as fh:
        return fh.read()


def load_cifar(spec: DatasetSpec) -> Dataset:
    spec.validate()
    if spec.kind == "cifar10":
        base = os.path.join(spec.root, CIFAR10_DIRNAME)
        files = ([f"data_batch_{i}.bin" for i in range(1, 6)]
                 if spec.split == "train" else ["test_batch.bin"])
        coarse_fine, classes = False, 10
    else:
        base = os.path.join(spec.root, CIFAR100_DIRNAME)
        files = ["train.bin"] if spec.split == "train" else ["test.bin"]
        coarse_fine, classes = True, 100
    chunks = [decode_cifar_records(_read_binary(os.path.join(base, f)), coarse_fine, f)
              for f in files]
    images = np.concatenate([c[0] for c in chunks])
    labels = np.concatenate([c[1] for c in chunks])
    ds = Dataset(images, labels, classes)
    if spec.subset_size is not None:
        ds = stratified_subset(ds, spec.subset_size, spec.seed)
    return ds


def stratified_subset(ds: Dataset, size: int, seed: int) -> Dataset:
    """Seed-deterministic subset with per-class counts as even as possible.

    size == k * num_classes picks exactly k of every label; any remainder
    goes to the lowest class indices.
    """
    if size > len(ds):
        raise DataError(f"subset_size {size} exceeds dataset size {len(ds)}")
    per, extra = divmod(size, ds.num_classes)
    picks = []
    for c in range(ds.num_classes):
        idx = np.nonzero(ds.labels == c)[0]
        want = per + (1 if c < extra else 0)
        if want > idx.size:
            raise DataError(f"class {c} has only {idx.size} samples, need {want}")
        keys = T.random_u64(T.fold_seed(seed, c), idx.size)
        picks.append(idx[np.argsort(keys, kind="stable")][:want])
    order = np.sort(np.concatenate(picks))
    return Dataset(ds.images[order], ds.labels[order], ds.num_classes)


# --------------------------------------------------------------------------
# synthetic learnability fixture
# --------------------------------------------------------------------------

def synth_class_colors(num_classes: int) -> np.ndarray:
    """Pairwise-distinct mean colors, one per class, on a fixed color wheel."""
    c = np.arange(num_classes, dtype=np.float64)
    ang = 2.0 * math.pi * c / num_classes
    rgb = np.stack([0.5 + 0.45 * np.sin(ang),
                    0.5 + 0.45 * np.sin(ang + 2.0 * math.pi / 3.0),
                    0.5 + 0.45 * np.sin(ang + 4.0 * math.pi / 3.0)], axis=1)
    return rgb.astype(np.float32)


def synth_dataset(num_classes: int, n: int, image_size: int, seed: int) -> Dataset:
    """Class-conditional images: a distinct mean color plus uniform pixel noise."""
    if n < num_classes:
        raise DataError(f"need at least one sample per class: n={n} < {num_classes}")
    colors = synth_class_colors(num_classes)
    labels = (np.arange(n) % num_classes).astype(np.int64)
    noise = T.uniform([n, 3, image_size, image_size], -0.12, 0.12,
                      seed=T.fold_seed(seed, 101)).numpy()
    images = np.clip(colors[labels][:, :, None, None] + noise, 0.0, 1.0).astype(np.float32)
    return Dataset(images, labels, num_classes)


def load_dataset(spec: DatasetSpec) -> Dataset:
    spec.validate()
    if spec.kind == "synthetic":
        # the test split draws from an independent stream of the same seed
        seed = spec.seed if spec.split == "train" else T.fold_seed(spec.seed, 1717)
        ds = synth_dataset(spec.synth_classes, spec.synth_size, spec.target_size, seed)
        if spec.subset_size is not None:
            ds = stratified_subset(ds, spec.subset_size, spec.seed)
        return ds
    return load_cifar(spec)


# --------------------------------------------------------------------------
# augmentation primitives (numpy in, numpy out, explicit randomness)
# --------------------------------------------------------------------------

def pad_reflect_crop(images: np.ndarray, offsets: np.ndarray, pad: int = 4) -> np.ndarray:
    """Reflect-pad then crop back to the original size at per-image offsets."""
    B, C, H, W = images.shape
    padded = np.pad(images, [(0, 0), (0, 0), (pad, pad), (pad, pad)], mode="reflect")
    out = np.empty_like(images)
    for b in range(B):
        dy, dx = offsets[b]
        out[b] = padded[b, :, dy:dy + H, dx:dx + W]
    return out


def hflip(images: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = images.copy()
    out[mask] = out[mask, :, :, ::-1]
    return out


def rotate_bilinear(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each image about its center; zero fill outside, bilinear sampling."""
    B, C, H, W = images.shape
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(H, dtype=np.float64),
                         np.arange(W, dtype=np.float64), indexing="ij")
    dy, dx = ys - cy, xs - cx
    rad = np.deg2rad(degrees).reshape(B, 1, 1)
    cos, sin = np.cos(rad), np.sin(rad)
    # inverse map: source coordinates that land on each output pixel
    sx = cx + cos * dx + sin * dy
    sy = cy - sin * dx + cos * dy
    x0, y0 = np.floor(sx).astype(np.int64), np.floor(sy).astype(np.int64)
    fx, fy = sx - x0, sy - y0
    bidx = np.arange(B)[:, None, None]
    out = np.zeros((B, C, H, W), dtype=np.float64)
    for ox, oy, w in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xi, yi = x0 + ox, y0 + oy
        valid = (xi >= 0) & (xi < W) & (yi >= 0) & (yi < H)
        xc, yc = np.clip(xi, 0, W - 1), np.clip(yi, 0, H - 1)
        # advanced indices around the channel slice put [B, H, W] first
        sample = np.moveaxis(images[bidx, :, yc, xc], 3, 1)
        out += sample * (w * valid)[:, None, :, :]
    return out.astype(images.dtype)


def color_jitter(images: np.ndarray, scales: np.ndarray) -> np.ndarray:
    return np.clip(images * scales[:, :, None, None], 0.0, 1.0).astype(images.dtype)


def augment(batch: ImageBatch, flags: AugmentFlags, seed: int) -> ImageBatch:
    """Fixed-order pipeline: crop -> flip -> rotate -> jitter, each toggleable.

    With every flag off the batch is returned unchanged.
    """
    if not flags.any():
        return batch
    imgs = batch.images.numpy()
    B = imgs.shape[0]
    if flags.crop:
        u = T.uniform([B, 2], 0, 9, seed=T.fold_seed(seed, 1)).numpy()
        imgs = pad_reflect_crop(imgs, np.floor(u).astype(np.int64))
    if flags.flip:
        u = T.uniform([B], 0, 1, seed=T.fold_seed(seed, 2)).numpy()
        imgs = hflip(imgs, u < 0.5)
    if flags.rotate:
        deg = T.uniform([B], -flags.rotate_deg, flags.rotate_deg,
                        seed=T.fold_seed(seed, 3)).numpy()
        imgs = rotate_bilinear(imgs, deg)
    if flags.jitter:
        sc = T.uniform([B, 3], flags.jitter_lo, flags.jitter_hi,
                       seed=T.fold_seed(seed, 4)).numpy()
        imgs = color_jitter(imgs, sc)
    return ImageBatch(Tensor(imgs), batch.labels)


# --------------------------------------------------------------------------
# resize and batching
# --------------------------------------------------------------------------

def resize_array(images: np.ndarray, target: int) -> np.ndarray:
    """Corner-aligned bilinear resize of [B, C, H, W] to target x target.

    Source coordinate of output pixel i is i * (S - 1) / (T - 1).
    """
    B, C, H, W = images.shape
    if H == target and W == target:
        return images
    def axis_coords(src, dst):
        if dst == 1:
            return np.zeros(1)
        return np.arange(dst, dtype=np.float64) * (src - 1) / (dst - 1)
    sy, sx = axis_coords(H, target), axis_coords(W, target)
    y0 = np.clip(np.floor(sy).astype(np.int64), 0, H - 1)
    x0 = np.clip(np.floor(sx).astype(np.int64), 0, W - 1)
    y1, x1 = np.minimum(y0 + 1, H - 1), np.minimum(x0 + 1, W - 1)
    fy, fx = sy - y0, sx - x0
    top = images[:, :, y0][:, :, :, x0] * (1 - fx) + images[:, :, y0][:, :, :, x1] * fx
    bot = images[:, :, y1][:, :, :, x0] * (1 - fx) + images[:, :, y1][:, :, :, x1] * fx
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    return out.astype(images.dtype)


def batch_iter(ds: Dataset, batch_size: int, shuffle_seed: Optional[int] = None) -> Iterator[ImageBatch]:
    """Batches in a seed-deterministic order; the final short batch is kept."""
    n = len(ds)
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        order = np.argsort(T.random_u64(shuffle_seed, n), kind="stable")
    for lo in range(0, n, batch_size):
        idx = order[lo:lo + batch_size]
        yield ImageBatch(Tensor(ds.images[idx]), ds.labels[idx])
