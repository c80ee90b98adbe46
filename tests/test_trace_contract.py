"""The benchmark's tracer (perfbench/tracing.py) wraps ctanet functions by
module attribute name. Every name it wraps must exist, or each traced
benchmark run fails on entry; a traced forward and backward must run and
leave the originals in place. The benchmark's attention rate subtracts the
fusion time from the attention time, so every fusion span must nest inside
an attention span."""

import importlib.util
import os

import ctanet
import ctanet.data
import ctanet.gradcheck
import ctanet.nn
import ctanet.train
from ctanet import model as M
from ctanet import tensor as T

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_patches_enter_and_exit():
    tracing = load_tracing()
    rec = tracing.Recorder()
    originals = (ctanet.nn.linear, M.fuse_tokens, M.rrcv_forward, T.backward, T.zero_grads)
    net = M.model_init(M.tiny_config(depth=2), seed=0)
    rec.open_step()     # shape-op output bytes are counted only inside a step
    with tracing.span_patches(rec, ctanet):
        logits = M.model_forward(T.uniform([1, 3, 32, 32], seed=1), net)
        T.backward(T.reduce_sum(logits))
        T.zero_grads(net.parameters())
    assert (ctanet.nn.linear, M.fuse_tokens, M.rrcv_forward, T.backward, T.zero_grads) == originals
    assert {"model.fuse_tokens", "model.rrcv_forward", "nn.linear",
            "tensor.backward", "tensor.zero_grads"} <= set(rec.names)
    assert rec.copy_bytes[rec.step_id] > 0
    assert all(p.grad is None for p in net.parameters())

    def ancestors(i):
        while rec.parents[i] >= 0:
            i = rec.parents[i]
            yield rec.names[i]

    fusions = [i for i, name in enumerate(rec.names) if name == "model.fuse_tokens"]
    assert len(fusions) == 2
    assert all("model.attention" in ancestors(i) for i in fusions)

