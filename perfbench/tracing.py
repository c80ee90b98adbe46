"""Outside-in tracing of ctanet: timing wrappers on module attributes.

`ctanet.model`, `ctanet.nn` and `ctanet.tensor` call one another through
module attributes (`T.reshape`, `nn.linear`), so replacing an attribute
with a wrapper sees every call. Names that `train` and `gradcheck` import
with `from ... import` live in those modules' namespaces and are patched
there as well.

A `Recorder` keeps spans in memory (name, start, end, parent, step id) and
the step windows a workload marks. Spans are recorded only while a
`Patches` set is installed; step windows are marked in both modes, so the
end-to-end numbers come from the same clock with tracing on or off.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

now = time.perf_counter

# Calls that contain a whole step rather than work inside one; they are left
# out of the coverage union, which would otherwise be trivially complete.
CONTAINERS = ("train.train_run", "train.train_epoch", "train.evaluate")


class Recorder:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.step_of: list = []
        self.stack: list = []
        self.copy_bytes = defaultdict(int)      # step id -> output bytes of copying ops
        self.windows: list = []                 # (step id, start, end, traced)
        self.tracing = False
        self.step_id = None
        self._next_id = 0
        self._opened = None

    # -- step clock -----------------------------------------------------------

    def open_step(self) -> None:
        self.step_id, self._next_id = self._next_id, self._next_id + 1
        self._opened = now()

    def mark_step(self) -> None:
        """Close the current step window and open the next one."""
        t = now()
        self.windows.append((self.step_id, self._opened, t, self.tracing))
        self.step_id, self._next_id = self._next_id, self._next_id + 1
        self._opened = t

    def close_steps(self) -> None:
        self.step_id = None
        self._opened = None

    def step_ms(self, traced: bool) -> list:
        return [(e - s) * 1e3 for _, s, e, tr in self.windows if tr == traced]

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.step_of.append(-1 if self.step_id is None else self.step_id)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(now())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = now()
        self.stack.pop()

    def span(self, name: str, fn, count_bytes: bool = False):
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count_bytes and self.step_id is not None:
                self.copy_bytes[self.step_id] += out.data.nbytes
            return out
        return wrapper

    def generator_span(self, name: str, fn):
        """One span per `next()`: the time the consumer waits for an item."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                yield item
        return wrapper

    def arrays(self):
        return (np.array(self.names, dtype=object), np.array(self.starts), np.array(self.ends),
                np.array(self.parents, dtype=np.int64), np.array(self.step_of, dtype=np.int64))

    def save(self, path: str, origin: float) -> None:
        """Write the spans as arrays; times are seconds since `origin`."""
        names, starts, ends, parents, steps = self.arrays()
        table, name_id = np.unique(names.astype(str), return_inverse=True) if len(names) else ([], [])
        np.savez(path, names=np.asarray(table, dtype=str), name_id=np.asarray(name_id, dtype=np.int32),
                 start=starts - origin, end=ends - origin, parent=parents, step=steps)


class Patches:
    """Replace module attributes while installed; restore them on exit."""

    def __init__(self):
        self.plan: list = []       # (module, attribute, make_wrapper)
        self.saved: list = []

    def add(self, modules, attr: str, make) -> "Patches":
        for mod in modules:
            self.plan.append((mod, attr, make))
        return self

    def __enter__(self):
        for mod, attr, make in self.plan:
            fn = getattr(mod, attr)
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, make(fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)
        self.saved.clear()
        return False


def span_patches(rec: Recorder, ct) -> Patches:
    """Every public op and layer on the timed paths, named `<module>.<function>`."""
    T, nn, M, D, TR, G = ct.tensor, ct.nn, ct.model, ct.data, ct.train, ct.gradcheck
    p = Patches()

    def plain(name, **kw):
        return lambda fn: rec.span(name, fn, **kw)

    copies = ("reshape", "permute", "expand", "slice_", "concat")
    for f in ("add", "sub", "mul", "div", "scale", "neg", "maximum", "exp", "log", "sqrt",
              "tanh", "matmul", "softmax", "reduce_sum", "reduce_mean", "reduce_var", "reduce",
              "transpose_last2", "split", "pad2d", "backward", "zero_grads", "grad_check",
              "grad_check_params") + copies:
        p.add([T], f, plain(f"tensor.{f}", count_bytes=f in copies))
    for f in ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "linear", "layer_norm", "gelu"):
        p.add([nn], f, plain(f"nn.{f}"))
    p.add([nn, TR, G], "cross_entropy", plain("nn.cross_entropy"))
    for f in ("patch_embed", "fuse_tokens", "attention", "mlp_forward", "reverse_embed",
              "extract_patches", "patchify_map"):
        p.add([M], f, plain(f"model.{f}"))
    for f in ("ct_block", "lmf_mhsa", "mhsa", "multi_scale_fuse", "rrcv_forward", "reconstruct"):
        p.add([M, G], f, plain(f"model.{f}"))
    p.add([M, TR, G], "model_forward", plain("model.model_forward"))
    p.add([D], "batch_iter", lambda fn: rec.generator_span("data.batch_iter", fn))
    for f in ("augment", "resize_array"):
        p.add([D], f, plain(f"data.{f}"))
    for f in ("train_run", "train_epoch", "evaluate", "adamw_step", "save_checkpoint",
              "load_checkpoint", "top1_accuracy"):
        p.add([TR], f, plain(f"train.{f}"))
    for f in ("op_checks", "block_param_check", "model_param_check"):
        p.add([G], f, plain(f"gradcheck.{f}"))
    return p


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def span_totals(rec: Recorder, step_ids) -> dict:
    """name -> (inclusive s, self s, calls) over spans that started in `step_ids`.

    A span's self time is its duration minus the durations of its children.
    """
    names, starts, ends, parents, steps = rec.arrays()
    if not len(names):
        return {}
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    keep = np.isin(steps, np.fromiter(step_ids, dtype=np.int64))
    table, inv = np.unique(names[keep].astype(str), return_inverse=True)
    tot = np.bincount(inv, weights=dur[keep], minlength=len(table))
    slf = np.bincount(inv, weights=own[keep], minlength=len(table))
    calls = np.bincount(inv, minlength=len(table))
    return {str(n): (float(a), float(b), int(c)) for n, a, b, c in zip(table, tot, slf, calls)}


def per_call_s(rec: Recorder, name: str) -> float:
    """Mean duration of every recorded span called `name` (0 when none)."""
    d = [e - s for n, s, e in zip(rec.names, rec.starts, rec.ends) if n == name]
    return sum(d) / len(d) if d else 0.0


def coverage(rec: Recorder, windows) -> float:
    """Share of the windows' wall time covered by named spans below the containers."""
    names, starts, ends, _, _ = rec.arrays()
    keep = ~np.isin(names.astype(str), CONTAINERS) if len(names) else np.zeros(0, bool)
    s, e = starts[keep], ends[keep]
    if not len(s) or not windows:
        return 0.0
    order = np.argsort(s, kind="stable")
    s, e = s[order], np.maximum.accumulate(e[order])
    new = np.concatenate([[True], s[1:] > e[:-1]])        # a gap before this span
    seg_start = s[new]
    seg_end = np.append(e[np.flatnonzero(new)[1:] - 1], e[-1])
    cum = np.concatenate([[0.0], np.cumsum(seg_end - seg_start)])

    def covered_until(t):
        k = np.searchsorted(seg_start, t, side="right") - 1
        inside = np.where(k >= 0, np.minimum(t, seg_end[np.maximum(k, 0)]) - seg_start[np.maximum(k, 0)], 0.0)
        return np.where(k >= 0, cum[np.maximum(k, 0)] + inside, 0.0)

    w0 = np.array([w[0] for w in windows])
    w1 = np.array([w[1] for w in windows])
    return float((covered_until(w1) - covered_until(w0)).sum() / (w1 - w0).sum())
