"""Optimization loop: AdamW, warmup+cosine schedule, metrics, checkpoints.

Runs are seed-deterministic end to end: shuffle order and augmentation
draws are derived from (seed, epoch, batch), never from mutable RNG
state, so a resumed run retraces the uninterrupted one exactly.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import data as D
from . import tensor as T
from .errors import ConfigError, ContractError, DataError, NumericsError
from .model import CtaNet, ModelConfig, model_forward, model_init
from .nn import cross_entropy
from .tensor import Tensor

CHECKPOINT_MAGIC = b"CTA1"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05
    warmup_epochs: int = 3
    seed: int = 0
    dtype: str = "f32"

    def validate(self) -> "TrainConfig":
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(f"warmup_epochs {self.warmup_epochs} must be < epochs {self.epochs}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")
        for key in ("lr", "weight_decay"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"train.{key} must be finite and >= 0, got {getattr(self, key)}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ConfigError(f"train.{key} must be in [0, 1), got {getattr(self, key)}")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"train.eps must be finite and > 0, got {self.eps}")
        return self


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_model(cls, net: CtaNet) -> "OptimizerState":
        m = {name: np.zeros_like(p.data) for name, p in net.named_parameters()}
        v = {name: np.zeros_like(p.data) for name, p in net.named_parameters()}
        return cls(m=m, v=v, step=0)


@dataclass
class MetricsRow:
    epoch: int
    train_loss: float
    train_top1: float
    val_loss: float
    val_top1: float
    wall_seconds: float

    def csv(self) -> str:
        return (f"{self.epoch},{self.train_loss:.6f},{self.train_top1:.6f},"
                f"{self.val_loss:.6f},{self.val_top1:.6f},{self.wall_seconds:.3f}")


METRICS_HEADER = "epoch,train_loss,train_top1,val_loss,val_top1,wall_seconds"
EVAL_BATCH = 64   # evaluate's default batch size, also train_run's validation pass


def adamw_step(named_params, state: OptimizerState, lr: float, cfg: TrainConfig) -> None:
    """Decoupled-weight-decay Adam update with bias correction, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in named_params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name}")
        if cfg.weight_decay:
            p.data *= 1.0 - lr * cfg.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def lr_at(epoch_frac: float, cfg: TrainConfig) -> float:
    """Linear warmup to cfg.lr, then cosine decay to zero at cfg.epochs."""
    if cfg.warmup_epochs > 0 and epoch_frac < cfg.warmup_epochs:
        return cfg.lr * epoch_frac / cfg.warmup_epochs
    span = cfg.epochs - cfg.warmup_epochs
    progress = min(1.0, (epoch_frac - cfg.warmup_epochs) / span)
    return 0.5 * cfg.lr * (1.0 + math.cos(math.pi * progress))


# --------------------------------------------------------------------------
# heap policy
# --------------------------------------------------------------------------

# glibc's mallopt parameter numbers (malloc.h)
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
TOP_PAD_BYTES = 256 << 20
MMAP_THRESHOLD_BYTES = 32 << 20


def set_heap_policy() -> bool:
    """Keep freed heap pages in the process across training steps.

    A step frees and reallocates its whole tape. By default glibc trims the
    heap top back to the kernel, and serves large buffers with a fresh mmap
    each, so every step faults its pages in again. A 256 MiB top pad keeps
    the freed pages. Setting it also freezes glibc's dynamic mmap threshold
    wherever it happens to be, so the threshold is set explicitly to its
    64-bit maximum, 32 MiB: buffers below it come from the heap. Returns
    whether both settings were accepted; does nothing where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    top = mallopt(_M_TOP_PAD, TOP_PAD_BYTES)
    mmap = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    return top == 1 and mmap == 1


# --------------------------------------------------------------------------
# epoch driver
# --------------------------------------------------------------------------

def _prepare(batch: D.Dataset, target_size: int, dtype: str) -> Tensor:
    imgs = batch.images
    if imgs.shape[-1] != target_size:
        imgs = D.resize_array(imgs, target_size)
    return Tensor(imgs.astype(T.DTYPES[dtype], copy=False))


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction with argmax logit equal to the label; ties go to the lowest index."""
    return float((logits.argmax(axis=1) == labels).mean())


def train_epoch(net: CtaNet, ds: D.Dataset, state: OptimizerState, cfg: TrainConfig,
                epoch: int, aug: Optional[D.AugmentFlags] = None,
                target_size: Optional[int] = None):
    """One pass over ds; returns (mean loss, top1, steps)."""
    if len(ds) == 0:
        raise DataError("cannot train on an empty split")
    target = target_size or net.config.image_size
    params = net.named_parameters()
    steps = math.ceil(len(ds) / cfg.batch_size)
    loss_sum, hit_sum, seen, i = 0.0, 0.0, 0, 0
    for batch in D.batch_iter(ds, cfg.batch_size, shuffle_seed=T.fold_seed(cfg.seed, 7001, epoch)):
        if aug is not None:
            batch = D.augment(batch, aug, seed=T.fold_seed(cfg.seed, 9001, epoch, i))
        x = _prepare(batch, target, cfg.dtype)
        logits = model_forward(x, net)
        loss = cross_entropy(logits, batch.labels)
        if not math.isfinite(loss.item()):
            raise NumericsError(f"non-finite training loss at epoch {epoch}, step {i}")
        T.backward(loss)
        for name, p in params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericsError(f"non-finite gradient for {name} at epoch {epoch}, step {i}")
        adamw_step(params, state, lr_at(epoch + i / steps, cfg), cfg)
        T.zero_grads(p for _, p in params)
        b = len(batch.labels)
        loss_sum += loss.item() * b
        hit_sum += top1_accuracy(logits.numpy(), batch.labels) * b
        seen += b
        i += 1
    return loss_sum / seen, hit_sum / seen, steps


def evaluate(net: CtaNet, ds: D.Dataset, batch_size: int = EVAL_BATCH,
             target_size: Optional[int] = None, dtype: str = "f32"):
    """(mean loss, top1) without touching model state."""
    if len(ds) == 0:
        raise DataError("cannot evaluate on an empty split")
    target = target_size or net.config.image_size
    loss_sum, hit_sum, seen = 0.0, 0.0, 0
    with T.no_grad():
        for batch in D.batch_iter(ds, batch_size):
            x = _prepare(batch, target, dtype)
            logits = model_forward(x, net)
            loss = cross_entropy(logits, batch.labels)
            b = len(batch.labels)
            loss_sum += loss.item() * b
            hit_sum += top1_accuracy(logits.numpy(), batch.labels) * b
            seen += b
    return loss_sum / seen, hit_sum / seen


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

def _pack_blob(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _config_json(cfg: ModelConfig) -> bytes:
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path: str, net: CtaNet, state: Optional[OptimizerState] = None,
                    epoch: int = 0, seed: int = 0) -> None:
    """magic, version, config, named tensors, optional moments, epoch, seed."""
    named = net.named_parameters()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += _pack_blob(_config_json(net.config))
    out += struct.pack("<B", 1 if state is not None else 0)
    out += struct.pack("<I", len(named))
    for name, p in named:
        out += _pack_blob(name.encode())
        out += _pack_blob(T.tensor_to_bytes(p))
    if state is not None:
        out += struct.pack("<Q", state.step)
        for name, p in named:
            out += _pack_blob(T.tensor_to_bytes(Tensor(state.m[name])))
            out += _pack_blob(T.tensor_to_bytes(Tensor(state.v[name])))
    out += struct.pack("<I", epoch)
    out += struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(out))
    os.replace(tmp, path)


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf, self.off, self.path = buf, 0, path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise DataError(f"{self.path}: truncated at byte {self.off} (wanted {n} more)")
        piece = self.buf[self.off:self.off + n]
        self.off += n
        return piece

    def blob(self) -> bytes:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n)

    def text(self) -> str:
        try:
            return self.blob().decode()
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: text before byte {self.off} is not UTF-8: {exc}") from None

    def tensor(self, name: str) -> Tensor:
        blob = self.blob()
        try:
            t, end = T.tensor_from_bytes(blob)
        except ContractError as exc:
            raise DataError(f"{self.path}: malformed tensor {name!r} before byte {self.off}: {exc}") from None
        if end != len(blob):
            raise DataError(f"{self.path}: tensor {name!r} blob has {len(blob) - end} trailing bytes")
        return t


def load_checkpoint(path: str):
    """Returns (net, optimizer state or None, epochs_done, seed).

    A file that does not decode raises DataError.
    """
    rd = _Reader(D.read_file(path, "checkpoint"), path)
    if rd.take(4) != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad magic, not a checkpoint")
    (version,) = struct.unpack("<I", rd.take(4))
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    text = rd.text()
    try:
        cfg_d = json.loads(text)
        names = {f.name for f in fields(ModelConfig)}
        if set(cfg_d) != names:
            raise ValueError(f"missing keys {sorted(names - set(cfg_d))}, "
                             f"unknown keys {sorted(set(cfg_d) - names)}")
        cfg = ModelConfig(**dict(cfg_d, kernel_scales=tuple(cfg_d["kernel_scales"]))).validate()
    except (ValueError, TypeError) as exc:
        raise DataError(f"{path}: malformed model config ({type(exc).__name__}: {exc})") from None
    (has_opt,) = struct.unpack("<B", rd.take(1))
    (count,) = struct.unpack("<I", rd.take(4))
    tensors = {}
    order = []
    for _ in range(count):
        name = rd.text()
        tensors[name] = rd.tensor(name)
        order.append(name)
    dtype = tensors[order[0]].dtype if order else "f32"
    net = model_init(cfg, seed=0, dtype=dtype)
    named = net.named_parameters()
    if [n for n, _ in named] != order:
        raise DataError(f"{path}: parameter names do not match the configuration")
    for name, p in named:
        src = tensors[name]
        if src.shape != p.shape:
            raise DataError(f"{path}: shape mismatch for {name}: {src.shape} vs {p.shape}")
        if src.dtype != dtype:
            raise DataError(f"{path}: {name} is {src.dtype}, the first parameter is {dtype}")
        p.data = src.data
    state = None
    if has_opt:
        (step,) = struct.unpack("<Q", rd.take(8))
        m, v = {}, {}
        for name, p in named:
            mt, vt = rd.tensor(f"{name} first moment"), rd.tensor(f"{name} second moment")
            if mt.shape != p.shape or vt.shape != p.shape:
                raise DataError(f"{path}: optimizer moment shape mismatch for {name}: "
                                f"{mt.shape}/{vt.shape} vs {p.shape}")
            if mt.dtype != dtype or vt.dtype != dtype:
                raise DataError(f"{path}: optimizer moments for {name} are {mt.dtype}/{vt.dtype}, "
                                f"the parameters are {dtype}")
            m[name], v[name] = mt.data, vt.data
        state = OptimizerState(m=m, v=v, step=int(step))
    (epoch,) = struct.unpack("<I", rd.take(4))
    (seed,) = struct.unpack("<Q", rd.take(8))
    if rd.off != len(rd.buf):
        raise DataError(f"{path}: {len(rd.buf) - rd.off} unexpected bytes after the seed field")
    return net, state, epoch, seed


# --------------------------------------------------------------------------
# full run orchestration
# --------------------------------------------------------------------------

def train_run(net: CtaNet, state: OptimizerState, cfg: TrainConfig,
              train_ds: D.Dataset, val_ds: Optional[D.Dataset],
              aug: Optional[D.AugmentFlags] = None, target_size: Optional[int] = None,
              start_epoch: int = 0, stop_epoch: Optional[int] = None,
              out_dir: Optional[str] = None, log=None):
    """Epoch loop with metrics rows and a rolling checkpoint. Returns the rows.

    `stop_epoch` pauses the run early without changing the schedule
    horizon; resuming from the written checkpoint continues it exactly.
    """
    cfg.validate()
    set_heap_policy()
    rows = []
    metrics_path = os.path.join(out_dir, "metrics.csv") if out_dir else None
    if metrics_path and start_epoch == 0:
        with open(metrics_path, "w") as fh:
            fh.write(METRICS_HEADER + "\n")
    stop = cfg.epochs if stop_epoch is None else min(stop_epoch, cfg.epochs)
    for epoch in range(start_epoch, stop):
        t0 = time.time()
        tr_loss, tr_top1, _ = train_epoch(net, train_ds, state, cfg, epoch, aug, target_size)
        if val_ds is not None:
            va_loss, va_top1 = evaluate(net, val_ds, EVAL_BATCH, target_size, cfg.dtype)
        else:
            va_loss, va_top1 = float("nan"), float("nan")
        row = MetricsRow(epoch, tr_loss, tr_top1, va_loss, va_top1, time.time() - t0)
        rows.append(row)
        if log:
            log(f"epoch {epoch}: train loss {tr_loss:.4f} top1 {tr_top1:.3f}"
                f" | val loss {va_loss:.4f} top1 {va_top1:.3f} | {row.wall_seconds:.1f}s")
        if metrics_path:
            with open(metrics_path, "a") as fh:
                fh.write(row.csv() + "\n")
        if out_dir:
            save_checkpoint(os.path.join(out_dir, "last.ckpt"), net, state,
                            epoch=epoch + 1, seed=cfg.seed)
    return rows
