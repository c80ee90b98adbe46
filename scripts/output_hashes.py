#!/usr/bin/env python3
"""Print sha256 hashes of the model's outputs, one per line.

Usage:
    python scripts/output_hashes.py

For each of the 12 tiny-preset variants (RRCV body resnet/dwconv/cnn x
class-token/mean-pooled head x fusion scales 1,3,5 / 3), under both
attention kinds and in f32 and f64, it hashes:

- the logits of a B=4 input (model seed 7, input seed 3);
- every parameter gradient after a cross-entropy backward, a parameter
  without one hashed as the bytes ``None``;
- the ``save_checkpoint`` bytes after one AdamW step on those gradients.

It then hashes the paper preset's f32 no-grad logits at B=2, and last
prints each check of ``gradcheck.run_suite(seed=0, include_model=False)``
with its error as ``float.hex``, so that a change to any op's gradient or
to the checkers shows too.

Run it in two checkouts and diff the output: identical lines mean
bit-identical outputs. It reads only the package's public API, and runs
from a checkout without the install.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from ctanet import gradcheck                                            # noqa: E402
from ctanet import tensor as T                                          # noqa: E402
from ctanet.model import model_forward, model_init, paper_config, tiny_config   # noqa: E402
from ctanet.nn import cross_entropy                                     # noqa: E402
from ctanet.train import OptimizerState, TrainConfig, adamw_step, save_checkpoint   # noqa: E402

VARIANTS = [dict(rrcv_variant=rrcv, use_class_token=cls, kernel_scales=scales)
            for rrcv in ("resnet", "dwconv", "cnn")
            for cls in (True, False)
            for scales in ((1, 3, 5), (3,))]


def sha(buf) -> str:
    return hashlib.sha256(b"None" if buf is None else bytes(buf)).hexdigest()


def tiny_hashes(variant: dict, attention: str, dtype: str, tmp: str):
    """(label, sha256) of the logits, each gradient and the stepped checkpoint."""
    cfg = tiny_config(attention_kind=attention, **variant)
    net = model_init(cfg, seed=7, dtype=dtype)
    img = T.uniform([4, 3, cfg.image_size, cfg.image_size], seed=3, dtype=dtype)
    logits = model_forward(img, net)
    yield "logits", sha(logits.data.tobytes())
    T.backward(cross_entropy(logits, np.arange(4) % cfg.num_classes))
    params = net.named_parameters()
    for name, p in params:
        yield f"grad {name}", sha(None if p.grad is None else p.grad.tobytes())
    state = OptimizerState.for_model(net)
    tc = TrainConfig(dtype=dtype)
    adamw_step(params, state, tc.lr, tc)
    path = os.path.join(tmp, "step.ckpt")
    save_checkpoint(path, net, state, epoch=1, seed=7)
    with open(path, "rb") as fh:
        yield "checkpoint", sha(fh.read())


def paper_hash() -> str:
    cfg = paper_config()
    net = model_init(cfg, seed=7, dtype="f32")
    img = T.uniform([2, 3, cfg.image_size, cfg.image_size], seed=3, dtype="f32")
    with T.no_grad():
        return sha(model_forward(img, net).data.tobytes())


def checker_errors():
    """(name, error as float.hex) of every check but the model-level one."""
    for r in gradcheck.run_suite(seed=0, include_model=False):
        yield r.name, r.error.hex()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for v in VARIANTS:
            tag = f"{v['rrcv_variant']}/{'cls' if v['use_class_token'] else 'mean'}/" \
                  + "".join(map(str, v["kernel_scales"]))
            for attention in ("lmf_mhsa", "mhsa"):
                for dtype in ("f32", "f64"):
                    for label, digest in tiny_hashes(v, attention, dtype, tmp):
                        print(f"{tag} {attention} {dtype} {label} {digest}")
    print(f"paper f32 no-grad logits {paper_hash()}")
    for name, error in checker_errors():
        print(f"gradcheck {name} {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
