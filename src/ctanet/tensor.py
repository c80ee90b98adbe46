"""Dense tensors with reverse-mode automatic differentiation.

Design points, fixed for the whole package:

- Tape values are never mutated. An op may return a view of its input
  (``reshape``, ``permute`` and ``slice_`` do; ``expand`` returns a
  read-only broadcast), and a gradient may be shared by several tensors,
  so ``backward`` adds gradients out of place. In-place writes go only
  into a buffer the writing function has just allocated, or into a
  leaf's ``.data`` while no tape reads it: the AdamW step after backward,
  and ``grad_check_params`` between its no-grad forwards.
- The graph is apart from the values. A recorded op's output keeps its
  ``data`` and points to a small ``Node``: the op name, the parents'
  nodes, a closure and the gradient. A leaf that requires grad is its own
  node. Nodes link only to nodes, and a closure captures only the arrays,
  shapes and flags its backward reads, so an output value lives only
  while the caller, or a closure that saved it, holds it. ``backward``
  does an iterative topological walk (no recursion limit issues on deep
  nets).
- The tape is released as the sweep goes. Its peak is at the start of
  ``backward``: every buffer a closure saved. A node's consumers all run
  before it, so once its own closure has run it drops its gradient,
  closure and parent links, and the buffers only that closure saved are
  freed. Mid-sweep the tape holds the nodes not yet swept, the gradients
  waiting at the sweep's frontier and the leaves' gradients.
- Under ``check_finite()`` the first op whose output is non-finite raises
  ``NumericsError`` naming it; ``grad_check`` and ``grad_check_params``
  run their recorded forward under it.
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


_CHECK_FINITE = False


@contextmanager
def check_finite():
    """Inside the block, the first op whose output holds a non-finite value
    raises ``NumericsError`` naming it. Outside, the check is one branch per op."""
    global _CHECK_FINITE
    prev = _CHECK_FINITE
    _CHECK_FINITE = True
    try:
        yield
    finally:
        _CHECK_FINITE = prev


class Node:
    """One recorded op on the tape: its name, its parents' graph nodes, the
    closure that maps its gradient to theirs, and its gradient.

    A parent's entry is its ``Node``, the parent tensor itself when it is a
    leaf that requires grad, or None when it needs no gradient. No node
    and no closure holds a parent ``Tensor`` as a value: a closure captures
    only the arrays, shapes and flags its backward reads.
    """

    __slots__ = ("op", "parents", "backward_fn", "grad")

    def __init__(self, op: str, parents: tuple, backward_fn: Callable):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn
        self.grad: Optional[np.ndarray] = None


class Tensor:
    """A dense n-d value; a recorded op's output points to its op's ``Node``."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, *, _node: Optional[Node] = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None   # a leaf's gradient
        self.requires_grad = requires_grad or _node is not None
        self._node = _node

    @property
    def node(self):
        """This tensor's graph node: its op's ``Node`` if recorded, the
        tensor itself if it is a leaf that requires grad, else None."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else None

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
        op = "leaf" if self._node is None else self._node.op
        return f"Tensor(shape={list(self.shape)}, dtype={self.dtype}, op={op!r}, requires_grad={self.requires_grad})"


def recording(*parents: Tensor) -> bool:
    """Whether an op on ``parents`` records a tape node (what ``_make`` decides)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable, op: str) -> Tensor:
    """The output of ``op``. While recording it points to a new node that
    links to the parents' nodes; ``backward_fn(g)`` returns one gradient per
    parent, None for a parent that needs none."""
    if _CHECK_FINITE and not np.isfinite(data).all():
        raise NumericsError(f"non-finite values produced by op {op!r}")
    if recording(*parents):
        return Tensor(data, _node=Node(op, tuple([p.node for p in parents]), backward_fn))
    return Tensor(data)


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
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def backward(g):
        return _unbroadcast(g, sa) if ra else None, _unbroadcast(g, sb) if rb else None

    return _make(out_data, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype(a, b, "sub")
    _broadcast_check(a, b, "sub")
    out_data = a.data - b.data
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def backward(g):
        return _unbroadcast(g, sa) if ra else None, _unbroadcast(-g, sb) if rb else None

    return _make(out_data, (a, b), backward, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype(a, b, "mul")
    _broadcast_check(a, b, "mul")
    out_data = a.data * b.data
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None      # each gradient reads the other factor
    bd = b.data if a.requires_grad else None

    def backward(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return _make(out_data, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _check_same_dtype(a, b, "div")
    _broadcast_check(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = a.data / b.data
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    ad, bd = a.data if rb else None, b.data

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (_unbroadcast(g / bd, sa) if ra else None,
                    _unbroadcast(-g * ad / (bd * bd), sb) if rb else None)

    return _make(out_data, (a, b), backward, "div")


def scale(a: Tensor, s: float) -> Tensor:
    return mul(a, s)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return _make(-a.data, (a,), backward, "neg")


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max. Ties send the gradient to the first argument."""
    b = _coerce(b, a)
    _check_same_dtype(a, b, "maximum")
    _broadcast_check(a, b, "maximum")
    out_data = np.maximum(a.data, b.data)
    ad, bd = a.data, b.data
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def backward(g):
        take_a = ad >= bd
        return (_unbroadcast(g * take_a, sa) if ra else None,
                _unbroadcast(g * ~take_a, sb) if rb else None)

    return _make(out_data, (a, b), backward, "maximum")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def backward(g):
        return (g * out_data,)

    return _make(out_data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)
    ad = a.data

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (g / ad,)

    return _make(out_data, (a,), backward, "log")


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(a.data)

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (g * 0.5 / out_data,)

    return _make(out_data, (a,), backward, "sqrt")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

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
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None      # each gradient reads the other operand
    bd = b.data if a.requires_grad else None

    def backward(g):
        return (None if bd is None else _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa),
                None if ad is None else _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb))

    return _make(out_data, (a, b), backward, "matmul")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {list(a.shape)}")
    out_data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(g):
        # out * (g - <g, out>), the dot product taken along ``axis``
        dot = np.einsum("...i,...i->...", np.moveaxis(g, axis, -1), np.moveaxis(out_data, axis, -1))
        ga = g - np.expand_dims(dot, axis)
        ga *= out_data
        return (ga,)

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


def _unreduce(g, axis, keepdims: bool, ndim: int) -> np.ndarray:
    """Put back the axes a reduction dropped, so ``g`` broadcasts against its input."""
    g = np.asarray(g)
    if keepdims:
        return g
    return g.reshape((1,) * ndim) if axis is None else np.expand_dims(g, axis)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        return (np.broadcast_to(_unreduce(g, axis, keepdims, len(shape)), shape),)

    return _make(out_data, (a,), backward, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    n = a.size if axis is None else int(np.prod([a.shape[ax] for ax in axis]))
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        return (np.broadcast_to(_unreduce(np.asarray(g) / n, axis, keepdims, len(shape)), shape),)

    return _make(out_data, (a,), backward, "mean")


def reduce_var(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (ddof = 0) along ``axis``."""
    axis = _norm_axis(axis, a.ndim)
    n = a.size if axis is None else int(np.prod([a.shape[ax] for ax in axis]))
    mu = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mu
    out_data = (centered * centered).mean(axis=axis, keepdims=keepdims)

    def backward(g):
        return ((2.0 / n) * centered * _unreduce(g, axis, keepdims, centered.ndim),)

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
    sa = a.shape

    def backward(g):
        return (g.reshape(sa),)

    return _make(out_data, (a,), backward, "reshape")


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"bad permutation {list(axes)} for rank {a.ndim}")
    out_data = a.data.transpose(axes)

    def backward(g):
        return (g.transpose(np.argsort(axes)),)

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
    need = [p.requires_grad for p in parts]

    def backward(g):
        idx = [slice(None)] * g.ndim
        grads = []
        for r, lo, hi in zip(need, offsets[:-1], offsets[1:]):
            idx[axis] = slice(int(lo), int(hi))
            grads.append(g[tuple(idx)] if r else None)
        return grads

    return _make(out_data, tuple(parts), backward, "concat")


def slice_(a: Tensor, key) -> Tensor:
    """Slice with a tuple of ``slice`` entries and ``...``; every axis stays.

    The output is a view. Backward scatters the gradient into a fresh zero
    buffer of the input shape.
    """
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, slice) and k is not Ellipsis:
            raise ShapeError(f"slice_ takes slices and ..., got the entry {k!r}")
    out_data = a.data[key]
    sa, dtype = a.shape, a.data.dtype

    def backward(g):
        scattered = np.zeros(sa, dtype=dtype)
        scattered[key] = g
        return (scattered,)

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
    sa = a.shape

    def backward(g):
        return (_unbroadcast(g, sa),)

    return _make(out_data, (a,), backward, "expand")


def pad2d(a: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes by ``pad`` on every side."""
    if pad == 0:
        return a
    width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
    out_data = np.pad(a.data, width)

    def backward(g):
        return (g[(Ellipsis, slice(pad, -pad), slice(pad, -pad))],)

    return _make(out_data, (a,), backward, "pad2d")


# --------------------------------------------------------------------------
# backward driver
# --------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Nodes are popped off the topological order. Each closure returns one
    gradient per parent, and the sweep adds them into the parents' nodes
    out of place, in parent order; a leaf's gradient lands in its
    ``.grad`` and accumulates across sweeps. Each node drops its grad,
    closure and parent links right after its own closure runs, so the tape
    shrinks from its peak at the start of the sweep (the buffers the
    closures saved) as the sweep goes. A graph can be swept once, and a
    sweep that raised cannot be retried.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {list(loss.shape)}")
    root = loss._node
    if root is None:
        raise ContractError("loss is not a recorded op's output; nothing to differentiate")

    # Leaves are not swept: their consumers' closures feed them. A node an
    # earlier sweep reached (this loss's, or another's sharing the subgraph)
    # has no closure left; that is caught here, before any gradient moves.
    topo: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node.backward_fn is None:
            raise ContractError("backward called twice on the same graph")
        stack.append((node, True))
        for p in node.parents:
            if type(p) is Node and id(p) not in visited:
                stack.append((p, False))

    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        # The closure goes first: after one raises, some leaves already hold
        # their share and the graph is partly released, so a retry must not
        # sweep. A node is done once its own closure has run, since all its
        # consumers ran before it.
        fn, node.backward_fn = node.backward_fn, None
        for p, g in zip(node.parents, fn(node.grad), strict=True):
            if p is not None and g is not None:
                p.grad = np.asarray(g) if p.grad is None else p.grad + g
        node.grad = None
        node.parents = ()


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# --------------------------------------------------------------------------
# verification utilities
# --------------------------------------------------------------------------

def _central_diff(loss: Callable[[], Tensor], flat, idxs, eps: float) -> np.ndarray:
    """(loss(+eps) - loss(-eps)) / 2 eps at each coordinate ``i`` of ``idxs``,
    perturbing ``flat[i]`` in place, with no tape, and restoring it."""
    cd = np.empty(len(idxs))
    with no_grad():
        for j, i in enumerate(idxs):
            orig = flat[i]
            flat[i] = orig + eps
            fp = loss().item()
            flat[i] = orig - eps
            fm = loss().item()
            flat[i] = orig
            cd[j] = (fp - fm) / (2.0 * eps)
    return cd


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a pure scalar-valued function of ``x``; ``x`` must be f64.
    The error at each coordinate is |analytic - cd| / max(|analytic|, |cd|, 1e-8).
    """
    if x.dtype != "f64":
        raise ContractError("grad_check requires an f64 input")
    x0 = Tensor(x.data, requires_grad=True)
    with check_finite():
        y = f(x0)
    if y.size != 1:
        raise ContractError("grad_check requires a scalar-valued function")
    backward(y)
    an = np.zeros(x.size) if x0.grad is None else x0.grad.reshape(-1)

    flat = x.data.copy().reshape(-1)
    cd = _central_diff(lambda: f(Tensor(flat.reshape(x.shape))), flat, range(flat.size), eps)
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
    with check_finite():
        y = loss_fn()
    delta = 4.0 * float(np.spacing(abs(y.item()))) / eps
    backward(y)

    errors: dict[str, float] = {}
    for k, (name, p) in enumerate(params):
        n = p.data.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            idxs = random_u64(fold_seed(seed, k), max_coords_per_param) % _U64(n)
            idxs = np.unique(idxs.astype(np.int64))
        else:
            idxs = np.arange(n)
        an = (np.zeros(n) if p.grad is None else p.grad.reshape(-1))[idxs]
        # p.data.flat writes through for any layout
        cd = _central_diff(loss_fn, p.data.flat, idxs, eps)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(cd)), 1e-8)
        rel = np.maximum(np.abs(an - cd) - delta, 0.0) / denom
        errors[name] = float(np.max(rel, initial=0.0))
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
