"""The model's f64 outputs and gradients against the committed fixture that
scripts/semantics_fixture.py writes: a reordering of exact arithmetic
passes, a change of what the model computes fails."""

import importlib.util
import json
import os

import numpy as np

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "semantics_fixture.py")
TOL = 1e-12


def _load_script():
    spec = importlib.util.spec_from_file_location("semantics_fixture", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_model_matches_semantics_fixture():
    script = _load_script()
    with open(script.FIXTURE) as fh:
        fixture = json.load(fh)
    assert [row["variant"] for row in fixture] == script.VARIANTS
    for row in fixture:
        got = script.fingerprint(row["variant"])
        tag = ", ".join(f"{k}={v}" for k, v in row["variant"].items())
        want = np.array([float.fromhex(x) for x in row["logits"] + [row["loss"]]])
        have = np.array(got["logits"] + [got["loss"]])
        assert have.shape == want.shape, tag
        err = np.abs(have - want).max() / np.abs(want).max()
        assert err <= TOL, f"{tag}: logits and loss off by {err:.3g} of their scale"
        assert list(got["grads"]) == list(row["grads"]), tag
        # one scale per fingerprint column: sums of squares, first probe, second probe
        want = np.array([[float.fromhex(x) for x in fp] for fp in row["grads"].values()])
        err = np.abs(np.array(list(got["grads"].values())) - want) / np.abs(want).max(axis=0)
        worst = np.unravel_index(err.argmax(), err.shape)
        assert err.max() <= TOL, (f"{tag}: gradient of {list(row['grads'])[worst[0]]} off by "
                                  f"{err.max():.3g} of its column's scale")
