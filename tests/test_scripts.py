"""scripts/output_hashes.py, the bit-identity check between two checkouts."""

import hashlib
import importlib.util
import os

import pytest

from ctanet import gradcheck as G
from ctanet import tensor as T
from ctanet.model import model_forward, model_init, tiny_config

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "output_hashes.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# variant 0 is the tiny preset as it stands: resnet detour, class token, scales 1,3,5;
# variant 2 is the same with the mean-pooled head
@pytest.mark.parametrize("dtype,variant", [("f32", 0), ("f64", 0), ("f32", 2), ("f64", 2)],
                         ids=["f32", "f64", "f32-mean", "f64-mean"])
def test_output_hashes_one_variant(dtype, variant, tmp_path):
    script = _load_script()
    digests = dict(script.tiny_hashes(script.VARIANTS[variant], "lmf_mhsa", dtype, str(tmp_path)))
    net = model_init(tiny_config(**script.VARIANTS[variant]), seed=7, dtype=dtype)
    names = [name for name, _ in net.named_parameters()]
    assert len(digests) == len(names) + 2        # logits, a gradient per parameter, checkpoint
    assert all(len(d) == 64 for d in digests.values())
    assert "checkpoint" in digests
    img = T.uniform([4, 3, 32, 32], seed=3, dtype=dtype)
    want = hashlib.sha256(model_forward(img, net).data.tobytes()).hexdigest()
    assert digests["logits"] == want


def test_checker_errors_cover_every_check_but_the_model_level_one():
    lines = list(_load_script().checker_errors())
    assert [name for name, _ in lines] == [name for name, *_ in G.op_checks(seed=0)] + ["ct_block_params"]
    assert all(float.fromhex(error) <= G.LAYER_TOL for _, error in lines)
