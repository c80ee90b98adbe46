"""The three workloads, each a closed loop: one caller, and the next unit of
work starts only after the previous one returned.

A workload builds its inputs from the seed (`setup`), runs one unit of work
per `run_unit` call (a training epoch, an inference sweep, a gradient-check
suite pass), installs the probes that mark its steps, and checks its outputs
outside the timed region. Only public functions of ctanet are called.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

import ctanet.config as C
import ctanet.costs as costs
import ctanet.data as D
import ctanet.gradcheck as G
import ctanet.model as M
import ctanet.tensor as T
import ctanet.train as TR
from tracing import Patches, Recorder, now


def final_loss_max(epochs: int) -> float:
    """Upper bound on the last epoch's mean training loss.

    Chance level on the ten-class synthetic set is ln 10 = 2.303. During the
    three warmup epochs the loss may sit near it; from the third epoch on it
    must be well below (seeds 0 and 7 read 1.33 and 1.44 there).
    """
    return 2.45 if epochs < 3 else 2.0


# f32 logits of the paper preset against an f64 forward of the same weights.
LOGIT_RTOL, LOGIT_ATOL = 1e-4, 1e-5


class CostRowError(RuntimeError):
    """A cost-model row that a per-layer MAC rate depends on is missing."""


class Checks:
    """Output checks, counted against the number attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def layer_macs(cfg: M.ModelConfig, batch: int) -> dict:
    """MACs per forward behind each `model.*.gmac_per_s`, from `count_costs` rows.

    Raises CostRowError when a row the model runs is absent, so a renamed or
    dropped row cannot silently turn a rate into zero.
    """
    rows = {r.name: r.macs for r in costs.count_costs(cfg, batch=batch).rows}
    lmf = cfg.attention_kind == "lmf_mhsa"
    attn = ["qkv", "scores", "weighted_sum", "out"] + (["kv_reduce"] if lmf and cfg.kv_reduction > 1 else [])
    need = {"patch_embed": ["patch_proj"], "fuse_tokens": [], "attention": [],
            "rrcv_forward": [], "mlp_forward": []}
    for i in range(cfg.depth):
        if lmf and cfg.kernel_scales:
            need["fuse_tokens"].append(f"blocks.{i}.attn.fusion")
        need["attention"] += [f"blocks.{i}.attn.{a}" for a in attn]
        if cfg.rrcv_variant != "none":
            need["rrcv_forward"].append(f"blocks.{i}.rrcv")
        need["mlp_forward"].append(f"blocks.{i}.mlp")
    missing = sorted(r for names in need.values() for r in names if r not in rows)
    if missing:
        raise CostRowError(f"count_costs has no row(s) {missing}; the per-layer MAC rates depend on them")
    return {layer: sum(rows[r] for r in names) for layer, names in need.items()}


class Workload:
    name = ""
    per = "step"             # per-layer times are per step or per pass
    cost_cfg = None          # (ModelConfig, batch) for the analytic MACs, or None

    def __init__(self, seed: int, out_dir: str):
        self.seed, self.out_dir = seed, out_dir
        self.images = 0

    def latency_ms(self, rec: Recorder) -> list:
        return rec.step_ms(traced=False)


class TrainTiny(Workload):
    """`train.train_run` on the tiny preset, one epoch per unit, with an out dir."""

    name = "train_tiny"

    def setup(self) -> None:
        run = C.preset_run_config("tiny")
        run.train.seed = run.data.seed = self.seed
        run.data.synth_size = 256
        run.data.augment = D.AugmentFlags(crop=True, flip=True)
        self.run = run.validate()
        self.train_ds, self.val_ds = (
            D.load_dataset(replace(run.data, split=s)) for s in ("train", "test"))
        self.net = M.model_init(run.model, seed=self.seed, dtype=run.train.dtype)
        self.state = TR.OptimizerState.for_model(self.net)
        self.cost_cfg = (run.model, run.train.batch_size)
        self.rows, self.losses, self.epoch = [], [], 0

    def probes(self, rec: Recorder) -> Patches:
        def epoch(fn):
            def wrapper(*args, **kwargs):
                rec.open_step()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close_steps()
            return wrapper

        def step(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                rec.mark_step()
                return out
            return wrapper

        def forward(fn):
            def wrapper(img, net):
                self.images += img.shape[0]
                return fn(img, net)
            return wrapper

        def loss(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.losses.append(out.item())
                return out
            return wrapper

        return (Patches().add([TR], "train_epoch", epoch).add([TR], "adamw_step", step)
                .add([TR], "model_forward", forward).add([TR], "cross_entropy", loss))

    def run_unit(self, rec: Recorder) -> bool:
        cfg = self.run
        self.rows += TR.train_run(self.net, self.state, cfg.train, self.train_ds, self.val_ds,
                                  aug=cfg.data.augment, target_size=cfg.model.image_size,
                                  start_epoch=self.epoch, stop_epoch=self.epoch + 1,
                                  out_dir=self.out_dir)
        self.epoch += 1
        return self.epoch < cfg.train.epochs

    @property
    def checkpoint(self) -> str:
        return os.path.join(self.out_dir, "last.ckpt")

    def check(self, checks: Checks) -> dict:
        for i, v in enumerate(self.losses):
            checks.expect(math.isfinite(v), f"loss {i} is {v}")
        final, bound = self.rows[-1].train_loss, final_loss_max(self.epoch)
        checks.expect(final <= bound, f"final train loss {final:.4f} > {bound} after {self.epoch} epochs")
        t = now()
        net, state, epoch, seed = TR.load_checkpoint(self.checkpoint)
        load_s = now() - t
        for (name, p), (name2, q) in zip(self.net.named_parameters(), net.named_parameters()):
            checks.expect(name == name2 and _same_bits(p.data, q.data),
                          f"checkpoint weight {name} differs from memory")
        checks.expect(state is not None and state.step == self.state.step
                      and all(_same_bits(self.state.m[k], state.m[k]) and _same_bits(self.state.v[k], state.v[k])
                              for k in self.state.m),
                      "checkpoint optimizer state differs from memory")
        checks.expect((epoch, seed) == (self.epoch, self.seed), f"checkpoint epoch/seed {epoch}/{seed}")
        return {"train.load_checkpoint.ms": load_s * 1e3,
                "train.checkpoint_bytes": os.path.getsize(self.checkpoint)}


class InferPaper(Workload):
    """No-grad paper-preset forwards at B=2 through `train.evaluate`, one sweep per unit."""

    name = "infer_paper"
    images_per_sweep = 10     # one image per class
    batch = 2

    def setup(self) -> None:
        cfg = M.paper_config()
        self.net = M.model_init(cfg, seed=self.seed, dtype="f32")
        self.ds = D.synth_dataset(cfg.num_classes, self.images_per_sweep, 32, self.seed)
        self.cost_cfg = (cfg, self.batch)
        self.finite: list = []

    def probes(self, rec: Recorder) -> Patches:
        def forward(fn):
            def wrapper(img, net):
                out = fn(img, net)
                rec.mark_step()
                self.images += img.shape[0]
                self.finite.append(bool(np.isfinite(out.data).all()))
                return out
            return wrapper

        def loss(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.finite.append(math.isfinite(out.item()))
                return out
            return wrapper

        return Patches().add([TR], "model_forward", forward).add([TR], "cross_entropy", loss)

    def run_unit(self, rec: Recorder) -> bool:
        rec.open_step()
        try:
            TR.evaluate(self.net, self.ds, batch_size=self.batch,
                        target_size=self.net.config.image_size, dtype="f32")
        finally:
            rec.close_steps()
        return True

    def check(self, checks: Checks) -> dict:
        for i, ok in enumerate(self.finite):
            checks.expect(ok, f"non-finite logits or loss in output {i}")
        cfg = self.net.config
        img = D.resize_array(self.ds.images[:self.batch], cfg.image_size)
        net64 = M.model_init(cfg, seed=self.seed, dtype="f64")
        for (_, p), (_, q) in zip(self.net.named_parameters(), net64.named_parameters()):
            q.data = p.data.astype(np.float64)
        with T.no_grad():
            y32 = M.model_forward(T.Tensor(img.astype(np.float32)), self.net).numpy()
            y64 = M.model_forward(T.Tensor(img.astype(np.float64)), net64).numpy()
        err = float(np.max(np.abs(y32 - y64) - LOGIT_RTOL * np.abs(y64)))
        checks.expect(err <= LOGIT_ATOL, f"f32 probe logits differ from f64 by {err:.3e} beyond rtol")
        return {}


class VerifyF64(Workload):
    """`gradcheck.run_suite(include_model=True)`, one suite pass per unit."""

    name = "verify_f64"
    per = "pass"

    def setup(self) -> None:
        # run_suite builds its own registry; building one here is the only
        # set-up the suite has beyond the imports, so it is what setup_s times.
        self.registry = G.op_checks(self.seed)
        self.results: list = []
        self.forwards: list = []         # (ms, traced) per model-level forward

    def latency_ms(self, rec: Recorder) -> list:
        return [ms for ms, traced in self.forwards if not traced]

    def probes(self, rec: Recorder) -> Patches:
        def forward(fn):
            def wrapper(img, net):
                t = now()
                out = fn(img, net)
                self.forwards.append(((now() - t) * 1e3, rec.tracing))
                self.images += img.shape[0]
                return out
            return wrapper

        return Patches().add([G], "model_forward", forward)

    def run_unit(self, rec: Recorder) -> bool:
        rec.open_step()
        self.results += G.run_suite(seed=self.seed, include_model=True)
        rec.mark_step()
        rec.close_steps()
        return True

    def check(self, checks: Checks) -> dict:
        for r in self.results:
            checks.expect(r.passed, f"gradient check {r.name}: error {r.error:.3e} > tol {r.tol:.0e}")
        return {}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


WORKLOADS = {w.name: w for w in (TrainTiny, InferPaper, VerifyF64)}
