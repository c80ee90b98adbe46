"""Dense tensors with reverse-mode automatic differentiation.

Design points, fixed for the whole package:

- Tape values are never mutated. An op may return a view of its input
  (``reshape``, ``permute`` and ``slice_`` do; ``expand`` returns a
  read-only broadcast), and a gradient may be shared by several tensors,
  so ``_accumulate`` adds out of place. In-place writes go only into a
  buffer the writing function has just allocated, or into a leaf's
  ``.data`` while no tape reads it: the AdamW step after backward, and
  ``grad_check_params`` between its no-grad forwards.
- The tape is implicit: each non-leaf tensor keeps its parents and a
  closure that scatters the incoming gradient to them. ``backward`` does
  an iterative topological walk (no recursion limit issues on deep nets).
- f64 is the verification dtype, f32 the training dtype. Binary ops
  require matching dtypes; Python scalars adopt the tensor's dtype.
- Random content comes from an own counter-based 64-bit generator
  (splitmix64 finalizer), never the platform RNG, so identical seeds
  give identical buffers on every platform.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_TAGS = {"f32": 0, "f64": 1}
_TAG_DTYPES = {0: "f32", 1: "f64"}


def _np_dtype(dtype: str) -> np.dtype:
    try:
        return np.dtype(DTYPES[dtype])
    except KeyError:
        raise ShapeError(f"unknown dtype {dtype!r}, expected 'f32' or 'f64'") from None


def _dtype_name(arr: np.ndarray) -> str:
    return "f64" if arr.dtype == np.float64 else "f32"


# --------------------------------------------------------------------------
# autodiff switch
# --------------------------------------------------------------------------

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation-only forwards)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense n-d value, optionally recording the op that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op", "_backward_done")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _backward_fn=None, _op="leaf"):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._op = _op
        self._backward_done = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return _dtype_name(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, dtype={self.dtype}, op={self._op!r}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad = t.grad + g


def recording(*parents: Tensor) -> bool:
    """Whether an op on ``parents`` records a tape node (what ``_make`` decides)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable, op: str) -> Tensor:
    if recording(*parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward_fn=backward_fn, _op=op)
    return Tensor(data, requires_grad=False, _op=op)


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def _check_shape(shape: Sequence[int]) -> tuple:
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"extents must be >= 1, got {list(shape)}")
    return shape


def zeros(shape: Sequence[int], dtype: str = "f32", requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_check_shape(shape), dtype=_np_dtype(dtype)), requires_grad=requires_grad)


def ones(shape: Sequence[int], dtype: str = "f32", requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(_check_shape(shape), dtype=_np_dtype(dtype)), requires_grad=requires_grad)


# --------------------------------------------------------------------------
# counter-based PRNG (splitmix64 finalizer over a 64-bit counter)
# --------------------------------------------------------------------------

_U64 = np.uint64
_SM_GAMMA = _U64(0x9E3779B97F4A7C15)
_SM_M1 = _U64(0xBF58476D1CE4E5B9)
_SM_M2 = _U64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _SM_M1
    z = (z ^ (z >> _U64(27))) * _SM_M2
    return z ^ (z >> _U64(31))


def random_u64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit words of the stream for ``seed``."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SM_GAMMA)


def fold_seed(seed: int, *indices: int) -> int:
    """Derive an independent stream seed from a base seed and indices."""
    z = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    for k in indices:
        z = _mix64((z + _U64((k + 1) & 0xFFFFFFFFFFFFFFFF)) * _SM_GAMMA)
    return int(z[0])


def _uniform01(seed: int, count: int) -> np.ndarray:
    # 53 mantissa bits -> [0, 1)
    return (random_u64(seed, count) >> _U64(11)).astype(np.float64) * (2.0 ** -53)


def uniform(shape: Sequence[int], low: float = 0.0, high: float = 1.0, *, seed: int = 0,
            dtype: str = "f32", requires_grad: bool = False) -> Tensor:
    shape = _check_shape(shape)
    n = int(np.prod(shape))
    u = low + (high - low) * _uniform01(seed, n)
    return Tensor(u.reshape(shape).astype(_np_dtype(dtype)), requires_grad=requires_grad)


# --------------------------------------------------------------------------
# elementwise ops with broadcasting
# --------------------------------------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    for sa, sb in zip(reversed(a.shape), reversed(b.shape)):
        if sa != sb and sa != 1 and sb != 1:
            raise ShapeError(f"{op}: shapes {list(a.shape)} and {list(b.shape)} do not broadcast")


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype(a, b, "add")
    _broadcast_check(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype(a, b, "sub")
    _broadcast_check(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype(a, b, "mul")
    _broadcast_check(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype(a, b, "div")
    _broadcast_check(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = a.data / b.data

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out_data, (a, b), backward, "div")


def scale(a: Tensor, s: float) -> Tensor:
    return mul(a, s)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            _accumulate(a, -g)

    return _make(-a.data, (a,), backward, "neg")


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max. Ties send the gradient to the first argument."""
    b = _coerce(b, a)
    _check_same_dtype(a, b, "maximum")
    _broadcast_check(a, b, "maximum")
    out_data = np.maximum(a.data, b.data)

    def backward(g):
        take_a = a.data >= b.data
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * take_a, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * ~take_a, b.shape))

    return _make(out_data, (a, b), backward, "maximum")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            if a.requires_grad:
                _accumulate(a, g / a.data)

    return _make(out_data, (a,), backward, "log")


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(a.data)

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            if a.requires_grad:
                _accumulate(a, g * 0.5 / out_data)

    return _make(out_data, (a,), backward, "sqrt")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward, "tanh")


# --------------------------------------------------------------------------
# matmul and softmax
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {list(a.shape)} x {list(b.shape)}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {list(a.shape)} x {list(b.shape)}")
    if a.ndim > 2 and b.ndim > 2:
        for sa, sb in zip(reversed(a.shape[:-2]), reversed(b.shape[:-2])):
            if sa != sb and sa != 1 and sb != 1:
                raise ShapeError(f"matmul batch axes do not broadcast: {list(a.shape)} x {list(b.shape)}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), backward, "matmul")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {list(a.shape)}")
    out_data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            # out * (g - <g, out>), the dot product taken along ``axis``
            dot = np.einsum("...i,...i->...", np.moveaxis(g, axis, -1), np.moveaxis(out_data, axis, -1))
            ga = g - np.expand_dims(dot, axis)
            ga *= out_data
            _accumulate(a, ga)

    return _make(out_data, (a,), backward, "softmax")


# --------------------------------------------------------------------------
# reductions and shape ops
# --------------------------------------------------------------------------

def _norm_axis(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(ax % ndim for ax in axis)
    if len(set(axis)) != len(axis):
        raise ShapeError(f"duplicate axes {axis}")
    return axis


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(gg, axis)
            elif axis is None and not keepdims:
                gg = np.asarray(gg).reshape((1,) * a.ndim)
            _accumulate(a, np.broadcast_to(gg, a.shape))

    return _make(out_data, (a,), backward, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    n = a.size if axis is None else int(np.prod([a.shape[ax] for ax in axis]))
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            gg = np.asarray(g) / n
            if not keepdims and axis is not None:
                gg = np.expand_dims(gg, axis)
            elif axis is None and not keepdims:
                gg = gg.reshape((1,) * a.ndim)
            _accumulate(a, np.broadcast_to(gg, a.shape))

    return _make(out_data, (a,), backward, "mean")


def reduce_var(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (ddof = 0) along ``axis``."""
    axis = _norm_axis(axis, a.ndim)
    n = a.size if axis is None else int(np.prod([a.shape[ax] for ax in axis]))
    mu = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mu
    out_data = (centered * centered).mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            gg = np.asarray(g)
            if not keepdims and axis is not None:
                gg = np.expand_dims(gg, axis)
            elif axis is None and not keepdims:
                gg = gg.reshape((1,) * a.ndim)
            _accumulate(a, (2.0 / n) * centered * gg)

    return _make(out_data, (a,), backward, "var")


def reduce(a: Tensor, kind: str, axis=None, keepdims: bool = False) -> Tensor:
    fn = {"sum": reduce_sum, "mean": reduce_mean, "var": reduce_var}.get(kind)
    if fn is None:
        raise ShapeError(f"unknown reduction {kind!r}")
    return fn(a, axis, keepdims)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {list(a.shape)} to {list(shape)}")
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.shape))

    return _make(out_data, (a,), backward, "reshape")


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"bad permutation {list(axes)} for rank {a.ndim}")
    out_data = a.data.transpose(axes)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.transpose(np.argsort(axes)))

    return _make(out_data, (a,), backward, "permute")


def transpose_last2(a: Tensor) -> Tensor:
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return permute(a, axes)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    axis = axis % parts[0].ndim
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base) or any(o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis):
            raise ShapeError(f"concat shapes differ off-axis: {[list(q.shape) for q in parts]}")
        if p.data.dtype != parts[0].data.dtype:
            raise ShapeError("concat dtype mismatch")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                _accumulate(p, g[tuple(idx)])

    return _make(out_data, tuple(parts), backward, "concat")


def slice_(a: Tensor, key) -> Tensor:
    """Slice with a tuple of ``slice``/int entries (ints keep the axis).

    The output is a view. Backward scatters the gradient into a fresh zero
    buffer of the input shape.
    """
    if not isinstance(key, tuple):
        key = (key,)
    norm = tuple(slice(k, k + 1) if isinstance(k, int) else k for k in key)
    out_data = a.data[norm]

    def backward(g):
        if a.requires_grad:
            scattered = np.zeros_like(a.data)
            scattered[norm] = g
            _accumulate(a, scattered)

    return _make(out_data, (a,), backward, "slice")


def split(a: Tensor, sizes: Sequence[int], axis: int = 0):
    axis = axis % a.ndim
    if sum(sizes) != a.shape[axis]:
        raise ShapeError(f"split sizes {list(sizes)} do not cover axis extent {a.shape[axis]}")
    out, lo = [], 0
    for s in sizes:
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(lo, lo + s)
        out.append(slice_(a, tuple(idx)))
        lo += s
    return out


def expand(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Broadcast to ``shape`` as a read-only view. Backward sum-reduces."""
    shape = tuple(int(s) for s in shape)
    out_data = np.broadcast_to(a.data, shape)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))

    return _make(out_data, (a,), backward, "expand")


def pad2d(a: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes by ``pad`` on every side."""
    if pad == 0:
        return a
    width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
    out_data = np.pad(a.data, width)

    def backward(g):
        if a.requires_grad:
            sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))
            _accumulate(a, g[sl])

    return _make(out_data, (a,), backward, "pad2d")


# --------------------------------------------------------------------------
# backward driver
# --------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Gradients accumulate additively into every ``requires_grad`` leaf.
    A graph can be swept once; intermediate grads and closures are freed.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {list(loss.shape)}")
    if loss._backward_done:
        raise ContractError("backward called twice on the same graph")
    if not loss.requires_grad:
        raise ContractError("loss does not require grad; nothing to differentiate")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
    # Leaves keep their grads; interior nodes release buffers and closures.
    for node in topo:
        if node._parents:
            node.grad = None
            node._backward_fn = None
            node._parents = ()
    loss._backward_done = True


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# --------------------------------------------------------------------------
# verification utilities
# --------------------------------------------------------------------------

def check_finite_graph(out: Tensor) -> None:
    """Walk the recorded graph; raise naming the first op with non-finite values."""
    stack, seen = [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not np.isfinite(node.data).all():
            raise NumericsError(f"non-finite values produced by op {node._op!r}")
        stack.extend(node._parents)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a pure scalar-valued function of ``x``; ``x`` must be f64.
    The error at each coordinate is |analytic - cd| / max(|analytic|, |cd|, 1e-8).
    """
    if x.dtype != "f64":
        raise ContractError("grad_check requires an f64 input")
    x0 = Tensor(x.data, requires_grad=True)
    y = f(x0)
    if y.size != 1:
        raise ContractError("grad_check requires a scalar-valued function")
    check_finite_graph(y)
    backward(y)
    analytic = np.zeros_like(x0.data) if x0.grad is None else x0.grad

    flat = x.data.copy().reshape(-1)
    cd = np.empty_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f(Tensor(flat.reshape(x.shape))).item()
            flat[i] = orig - eps
            fm = f(Tensor(flat.reshape(x.shape))).item()
            flat[i] = orig
            cd[i] = (fp - fm) / (2.0 * eps)
    an = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(an), np.abs(cd)), 1e-8)
    return float(np.max(np.abs(an - cd) / denom))


def grad_check_params(loss_fn: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]],
                      eps: float = 1e-5, max_coords_per_param: Optional[int] = None,
                      seed: int = 0) -> dict[str, float]:
    """Central-difference check of a loss against named parameter tensors.

    ``loss_fn`` recomputes the scalar loss from the current parameter values.
    Large tensors can be spot-checked on a seeded coordinate sample.
    Returns the max relative error per parameter name. The error at a
    coordinate is max(0, |analytic - cd| - delta) / max(|analytic|, |cd|, 1e-8),
    where delta = 4 ulp(|L|) / eps bounds the central difference's own
    round-off at loss L, so gradients near 1e-8 are not failed on noise.
    """
    for name, p in params:
        if p.dtype != "f64":
            raise ContractError(f"grad_check_params requires f64 parameters, {name!r} is {p.dtype}")
        p.grad = None
    y = loss_fn()
    check_finite_graph(y)
    delta = 4.0 * float(np.spacing(abs(y.item()))) / eps
    backward(y)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad) for name, p in params}

    errors: dict[str, float] = {}
    with no_grad():
        for k, (name, p) in enumerate(params):
            flat, n = p.data.flat, p.data.size   # writes through for any layout
            if max_coords_per_param is not None and n > max_coords_per_param:
                idxs = random_u64(fold_seed(seed, k), max_coords_per_param) % _U64(n)
                idxs = np.unique(idxs.astype(np.int64))
            else:
                idxs = np.arange(n)
            an = analytic[name].reshape(-1)
            worst = 0.0
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                fp = loss_fn().item()
                flat[i] = orig - eps
                fm = loss_fn().item()
                flat[i] = orig
                cd = (fp - fm) / (2.0 * eps)
                rel = max(0.0, abs(an[i] - cd) - delta) / max(abs(an[i]), abs(cd), 1e-8)
                worst = max(worst, rel)
            errors[name] = worst
    return errors


# --------------------------------------------------------------------------
# serialization: dtype tag (1 byte), rank (u32 LE), extents (u64 LE), payload
# --------------------------------------------------------------------------

def tensor_to_bytes(t: Tensor) -> bytes:
    head = struct.pack("<BI", _DTYPE_TAGS[t.dtype], t.ndim)
    head += struct.pack(f"<{t.ndim}Q", *t.shape) if t.ndim else b""
    payload = t.data.astype("<f4" if t.dtype == "f32" else "<f8").tobytes()
    return head + payload


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Decode one tensor; returns (tensor, next offset)."""
    if len(buf) - offset < 5:
        raise ContractError(f"tensor header truncated at byte {offset}")
    tag, rank = struct.unpack_from("<BI", buf, offset)
    if tag not in _TAG_DTYPES:
        raise ContractError(f"unknown dtype tag {tag} at byte {offset}")
    offset += 5
    if len(buf) - offset < 8 * rank:
        raise ContractError(f"tensor extents truncated at byte {offset} (rank {rank})")
    shape = struct.unpack_from(f"<{rank}Q", buf, offset) if rank else ()
    offset += 8 * rank
    n = math.prod(shape)
    width = 4 if tag == 0 else 8
    if len(buf) - offset < n * width:
        raise ContractError(f"tensor payload truncated at byte {offset}")
    arr = np.frombuffer(buf, dtype="<f4" if tag == 0 else "<f8", count=n, offset=offset)
    offset += n * width
    return Tensor(arr.reshape(shape).astype(DTYPES[_TAG_DTYPES[tag]])), offset
