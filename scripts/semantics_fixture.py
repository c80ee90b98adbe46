#!/usr/bin/env python3
"""Write the f64 semantics fixture, tests/golden/semantics_f64.json.

Usage:
    python scripts/semantics_fixture.py

For each of 16 depth-2 tiny variants ({lmf_mhsa, mhsa} attention x
{none, cnn, dwconv, resnet} detour x class-token / mean-pooled head), in
f64 at B=2, with every bias drawn non-zero (zero biases would hide every
bias term), it records:

- the logits and the cross-entropy loss;
- per parameter, a gradient fingerprint: its sum of squares and its dot
  products with two seeded ``T.uniform`` probes, a parameter that gets no
  gradient counting as zeros.

Values are stored as ``float.hex``. ``tests/test_semantics.py`` recomputes
them and compares within 1e-12 of each variant's scale: a change that only
reorders exact arithmetic passes, and a change of what the model computes
fails. Rerun this script only with a change that declares a change of the
model's semantics, and list the rewritten file with it. It reads only the
package's public API, and runs from a checkout without the install.
"""

import json
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from ctanet import tensor as T                                  # noqa: E402
from ctanet.model import model_forward, model_init, tiny_config  # noqa: E402
from ctanet.nn import cross_entropy                              # noqa: E402

FIXTURE = os.path.join(ROOT, "tests", "golden", "semantics_f64.json")
VARIANTS = [dict(attention_kind=kind, rrcv_variant=rrcv, use_class_token=cls)
            for kind in ("lmf_mhsa", "mhsa")
            for rrcv in ("none", "cnn", "dwconv", "resnet")
            for cls in (True, False)]


def fingerprint(variant: dict) -> dict:
    """The logits, the loss and a gradient fingerprint per parameter, as floats."""
    cfg = tiny_config(depth=2, **variant)
    net = model_init(cfg, seed=11, dtype="f64")
    params = net.named_parameters()
    for i, (name, p) in enumerate(params):
        if name.endswith(".bias"):
            p.data = T.uniform(p.shape, -0.5, 0.5, seed=T.fold_seed(12, i), dtype="f64").data
    img = T.uniform([2, 3, cfg.image_size, cfg.image_size], 0, 1, seed=13, dtype="f64")
    logits = model_forward(img, net)
    loss = cross_entropy(logits, np.array([3, 8]))
    T.backward(loss)
    grads = {}
    for i, (name, p) in enumerate(params):
        g = np.zeros(p.shape) if p.grad is None else p.grad
        probes = [T.uniform(p.shape, -1, 1, seed=T.fold_seed(seed, i), dtype="f64").data
                  for seed in (14, 15)]
        grads[name] = [float(np.vdot(g, g))] + [float(np.vdot(g, u)) for u in probes]
    return dict(logits=logits.data.ravel().tolist(), loss=float(loss.data), grads=grads)


def main() -> int:
    rows = []
    for v in VARIANTS:
        f = fingerprint(v)
        rows.append(dict(variant=v, logits=[x.hex() for x in f["logits"]], loss=f["loss"].hex(),
                         grads={n: [x.hex() for x in fp] for n, fp in f["grads"].items()}))
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:                    # one variant per line
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} variants to {os.path.relpath(FIXTURE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
