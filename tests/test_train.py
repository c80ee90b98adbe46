"""Optimizer arithmetic, schedule, metrics, determinism, checkpoints."""

import ctypes
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ctanet import tensor as T
from ctanet import train as TR
from ctanet.data import Dataset, DatasetSpec, load_dataset
from ctanet.errors import ConfigError, DataError
from ctanet.model import model_forward, model_init, tiny_config
from ctanet.nn import cross_entropy
from ctanet.tensor import Tensor
from ctanet.train import (METRICS_HEADER, OptimizerState, TrainConfig,
                          adamw_step, evaluate, load_checkpoint, lr_at,
                          save_checkpoint, top1_accuracy, train_epoch, train_run)


def micro_setup(seed=0, dtype="f64", depth=2, synth=96):
    cfg = tiny_config(depth=depth)
    net = model_init(cfg, seed=seed, dtype=dtype)
    ds = load_dataset(DatasetSpec(kind="synthetic", synth_size=synth, seed=seed))
    return cfg, net, ds


class TestAdamW:
    def _state_for(self, p):
        return OptimizerState(m={"p": np.zeros_like(p.data)},
                              v={"p": np.zeros_like(p.data)}, step=0)

    def test_first_step_closed_form(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        cfg = TrainConfig(weight_decay=0.0)
        st = self._state_for(p)
        adamw_step([("p", p)], st, lr=0.1, cfg=cfg)
        # bias-corrected m-hat = 1, sqrt(v-hat) = 1 -> step is lr/(1 + eps)
        assert abs(p.data[0] - 0.9) < 1e-8
        assert st.step == 1

    def test_zero_grad_no_decay_is_noop(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        st = self._state_for(p)
        adamw_step([("p", p)], st, lr=0.1, cfg=TrainConfig(weight_decay=0.0))
        assert p.data[0] == 2.0

    def test_decoupled_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        st = self._state_for(p)
        adamw_step([("p", p)], st, lr=0.1, cfg=TrainConfig(weight_decay=0.05))
        assert abs(p.data[0] - 2.0 * (1 - 0.1 * 0.05)) < 1e-12


class TestSchedule:
    def test_warmup_end_reaches_max(self):
        cfg = TrainConfig(epochs=10, warmup_epochs=3, lr=3e-4)
        assert lr_at(3.0, cfg) == pytest.approx(3e-4)
        assert lr_at(1.5, cfg) == pytest.approx(1.5e-4)
        assert lr_at(0.0, cfg) == 0.0

    def test_final_step_near_zero(self):
        cfg = TrainConfig(epochs=10, warmup_epochs=3, lr=3e-4)
        assert lr_at(10.0, cfg) < 1e-18

    def test_cosine_midpoint_is_half(self):
        cfg = TrainConfig(epochs=10, warmup_epochs=2, lr=4e-4)
        assert lr_at(6.0, cfg) == pytest.approx(2e-4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=2, warmup_epochs=2).validate()
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()


class TestMetrics:
    def test_top1_fraction(self):
        logits = np.array([[1.0, 0], [0, 1], [1, 0], [0.2, 0.1]])
        labels = np.array([0, 1, 0, 1])
        assert top1_accuracy(logits, labels) == 0.75

    def test_top1_tie_breaks_low_index(self):
        assert top1_accuracy(np.array([[0.5, 0.5]]), np.array([0])) == 1.0
        assert top1_accuracy(np.array([[0.5, 0.5]]), np.array([1])) == 0.0

    def test_uniform_logits_loss_is_log_k(self):
        loss = cross_entropy(Tensor(np.zeros((4, 10))), np.arange(4))
        assert abs(loss.item() - math.log(10)) < 1e-12


class TestDeterminism:
    def test_identical_seeded_runs_match_exactly(self):
        rows = []
        for _ in range(2):
            cfg, net, ds = micro_setup(seed=4, dtype="f64")
            tcfg = TrainConfig(epochs=2, batch_size=32, warmup_epochs=1, seed=4, dtype="f64")
            st = OptimizerState.for_model(net)
            rows.append(train_run(net, st, tcfg, ds, None))
        a, b = rows
        assert [(r.train_loss, r.train_top1) for r in a] == [(r.train_loss, r.train_top1) for r in b]

    def test_single_step_decreases_batch_loss(self):
        # fixed batch, small lr: the first update should reduce that batch's
        # loss in nearly every seeded trial
        failures = 0
        for seed in range(20):
            cfg = tiny_config(depth=1)
            net = model_init(cfg, seed=seed, dtype="f64")
            img = T.uniform([8, 3, 32, 32], 0, 1, seed=900 + seed, dtype="f64")
            labels = np.arange(8) % 10
            params = net.named_parameters()
            loss0 = cross_entropy(model_forward(img, net), labels)
            T.backward(loss0)
            st = OptimizerState.for_model(net)
            adamw_step(params, st, lr=1e-4, cfg=TrainConfig(weight_decay=0.0))
            T.zero_grads(p for _, p in params)
            with T.no_grad():
                loss1 = cross_entropy(model_forward(img, net), labels)
            if not loss1.item() < loss0.item():
                failures += 1
        assert failures <= 1

    def test_evaluate_empty_split_is_data_error(self):
        cfg, net, ds = micro_setup(seed=6, dtype="f64", synth=48)
        empty = Dataset(ds.images[:0], ds.labels[:0], ds.num_classes)
        with pytest.raises(DataError, match="empty"):
            evaluate(net, empty, batch_size=16, dtype="f64")

    def test_evaluate_mutates_nothing(self):
        cfg, net, ds = micro_setup(seed=6, dtype="f64", synth=48)
        before = [p.data.tobytes() for p in net.parameters()]
        evaluate(net, ds, batch_size=16, dtype="f64")
        after = [p.data.tobytes() for p in net.parameters()]
        assert before == after



class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg, net, _ = micro_setup(seed=7, dtype="f32", depth=1)
        st = OptimizerState.for_model(net)
        path = str(tmp_path / "net.ckpt")
        save_checkpoint(path, net, st, epoch=3, seed=7)
        net2, st2, epoch, seed = load_checkpoint(path)
        assert (epoch, seed) == (3, 7)
        for (na, a), (nb, b) in zip(net.named_parameters(), net2.named_parameters()):
            assert na == nb and a.data.tobytes() == b.data.tobytes()
        for name in st.m:
            assert st.m[name].tobytes() == st2.m[name].tobytes()
            assert st.v[name].tobytes() == st2.v[name].tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg, net, _ = micro_setup(seed=8, dtype="f64", depth=1)
        st = OptimizerState.for_model(net)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, net, st, epoch=1, seed=8)
        net2, st2, ep, sd = load_checkpoint(p1)
        save_checkpoint(p2, net2, st2, epoch=ep, seed=sd)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_wrong_shaped_moment_rejected(self, tmp_path, moment):
        cfg, net, _ = micro_setup(seed=11, depth=1)
        st = OptimizerState.for_model(net)
        name = net.named_parameters()[0][0]
        getattr(st, moment)[name] = np.zeros((3, 5), dtype=np.float32)
        path = str(tmp_path / "moment.ckpt")
        save_checkpoint(path, net, st)
        with pytest.raises(DataError, match=f"moment shape mismatch for {name}"):
            load_checkpoint(path)

    def test_loaded_arrays_are_writeable(self, tmp_path):
        # AdamW updates weights and moments in place
        cfg, net, _ = micro_setup(seed=12, depth=1)
        path = str(tmp_path / "w.ckpt")
        save_checkpoint(path, net, OptimizerState.for_model(net))
        net2, st2, _, _ = load_checkpoint(path)
        arrays = [p.data for p in net2.parameters()] + list(st2.m.values()) + list(st2.v.values())
        assert all(a.flags.writeable for a in arrays)

    def test_corrupted_magic_rejected(self, tmp_path):
        cfg, net, _ = micro_setup(seed=9, depth=1)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(path, net)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        cfg, net, _ = micro_setup(seed=10, depth=1)
        path = str(tmp_path / "trunc.ckpt")
        save_checkpoint(path, net)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_resume_equals_uninterrupted(self, tmp_path):
        tcfg = TrainConfig(epochs=4, batch_size=32, warmup_epochs=1, seed=11, dtype="f64")
        ds = load_dataset(DatasetSpec(kind="synthetic", synth_size=96, seed=11))
        val = load_dataset(DatasetSpec(kind="synthetic", synth_size=32, split="test", seed=11))

        cfg = tiny_config(depth=2)
        net_a = model_init(cfg, seed=11, dtype="f64")
        rows_a = train_run(net_a, OptimizerState.for_model(net_a), tcfg, ds, val)

        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        net_b = model_init(cfg, seed=11, dtype="f64")
        rows_b = train_run(net_b, OptimizerState.for_model(net_b), tcfg, ds, val,
                           stop_epoch=2, out_dir=run_dir)
        net_c, st_c, epoch_c, _ = load_checkpoint(os.path.join(run_dir, "last.ckpt"))
        rows_b += train_run(net_c, st_c, tcfg, ds, val, start_epoch=epoch_c, out_dir=run_dir)

        assert [(r.train_loss, r.val_loss, r.val_top1) for r in rows_a] == \
               [(r.train_loss, r.val_loss, r.val_top1) for r in rows_b]
        # the metrics file holds every epoch exactly once
        lines = open(os.path.join(run_dir, "metrics.csv")).read().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2, 3]

    def test_stop_epoch_zero_trains_nothing(self):
        cfg, net, ds = micro_setup(seed=13, dtype="f32", depth=1, synth=32)
        before = [p.data.copy() for p in net.parameters()]
        tcfg = TrainConfig(epochs=2, batch_size=16, warmup_epochs=0, seed=13)
        assert train_run(net, OptimizerState.for_model(net), tcfg, ds, None, stop_epoch=0) == []
        assert all(np.array_equal(b, p.data) for b, p in zip(before, net.parameters()))

    def test_metrics_csv_schema(self, tmp_path):
        cfg, net, ds = micro_setup(seed=12, dtype="f32", depth=1, synth=48)
        tcfg = TrainConfig(epochs=1, batch_size=16, warmup_epochs=0, seed=12)
        train_run(net, OptimizerState.for_model(net), tcfg, ds, ds, out_dir=str(tmp_path))
        lines = open(tmp_path / "metrics.csv").read().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_top1,val_loss,val_top1,wall_seconds"
        row = lines[1].split(",")
        assert len(row) == 6
        assert 0.0 <= float(row[2]) <= 1.0 and 0.0 <= float(row[4]) <= 1.0


class TestHeapPolicy:
    def test_noop_without_a_loadable_libc(self, monkeypatch):
        def refuse(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert TR.set_heap_policy() is False

    def test_noop_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert TR.set_heap_policy() is False

    def test_train_run_sets_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(TR, "set_heap_policy", lambda: calls.append(1))
        cfg, net, ds = micro_setup(seed=2, dtype="f32", depth=1, synth=16)
        train_run(net, OptimizerState.for_model(net),
                  TrainConfig(epochs=1, warmup_epochs=0, batch_size=16, seed=2), ds, None)
        assert calls == [1]

    def test_import_never_calls_mallopt(self):
        # Records every mallopt looked up on a C library, as (param, value)
        # pairs once called; the explicit call at the end proves the
        # recorder sees the policy.
        script = textwrap.dedent("""
            import ctypes
            calls = []

            class Recorder(ctypes.CDLL):
                def __getitem__(self, name):
                    if name != "mallopt":
                        return super().__getitem__(name)
                    calls.append("lookup")

                    class Mallopt:
                        def __call__(self, param, value):
                            calls.append((param, value))
                            return 1
                    return Mallopt()

            ctypes.CDLL = Recorder
            import ctanet, ctanet.train, ctanet.cli
            print(len(calls))
            ctanet.train.set_heap_policy()
            print(calls)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout.splitlines()
        assert out[0] == "0"
        assert out[1] == str(["lookup", (-2, TR.TOP_PAD_BYTES), (-3, TR.MMAP_THRESHOLD_BYTES)])


class TestIntegration:
    def test_nonfinite_loss_is_a_numerical_failure(self):
        from ctanet.errors import NumericsError
        cfg, net, ds = micro_setup(seed=15, dtype="f32", depth=1, synth=32)
        net.head.weight.data[:] = np.nan
        with pytest.raises(NumericsError, match="non-finite"):
            train_epoch(net, ds, OptimizerState.for_model(net),
                        TrainConfig(epochs=1, warmup_epochs=0, seed=15), epoch=0)

    def test_nonfinite_gradient_stops_before_the_update(self, monkeypatch):
        from ctanet.errors import NumericsError
        cfg, net, ds = micro_setup(seed=16, dtype="f32", depth=1, synth=32)
        before = [p.data.copy() for p in net.parameters()]
        real = T.backward

        def poisoned(loss):
            real(loss)
            net.blocks[0].mlp.fc1.weight.grad[0, 0] = np.nan

        monkeypatch.setattr(T, "backward", poisoned)
        with pytest.raises(NumericsError, match=r"blocks\.0\.mlp\.fc1\.weight at epoch 2, step 0"):
            train_epoch(net, ds, OptimizerState.for_model(net),
                        TrainConfig(epochs=3, warmup_epochs=0, seed=16), epoch=2)
        assert all(np.array_equal(b, p.data) for b, p in zip(before, net.parameters()))

    def test_cifar_format_pipeline_end_to_end(self, tmp_path):
        # exercise the exact binary-dataset training path by writing a
        # learnable synthetic set in the CIFAR-10 record format
        from conftest import write_cifar10_fixture
        from ctanet.data import AugmentFlags, DatasetSpec, load_dataset
        base = tmp_path / "cifar-10-batches-bin"
        base.mkdir()
        synth = load_dataset(DatasetSpec(kind="synthetic", synth_size=300, seed=21))

        def records(ds, lo, hi):
            return [(int(ds.labels[i]), (ds.images[i] * 255).round().astype(np.uint8))
                    for i in range(lo, hi)]

        write_cifar10_fixture(base / "data_batch_1.bin", records(synth, 0, 120))
        write_cifar10_fixture(base / "data_batch_2.bin", records(synth, 120, 240))
        for name in ("data_batch_3.bin", "data_batch_4.bin", "data_batch_5.bin"):
            write_cifar10_fixture(base / name, [])
        write_cifar10_fixture(base / "test_batch.bin", records(synth, 240, 300))

        train_ds = load_dataset(DatasetSpec(kind="cifar10", root=str(tmp_path),
                                            split="train", subset_size=200, seed=1))
        test_ds = load_dataset(DatasetSpec(kind="cifar10", root=str(tmp_path), split="test"))
        assert len(train_ds) == 200 and len(test_ds) == 60

        cfg = tiny_config(depth=2)
        net = model_init(cfg, seed=1, dtype="f32")
        tcfg = TrainConfig(epochs=4, batch_size=32, warmup_epochs=1, seed=1)
        state = OptimizerState.for_model(net)
        aug = AugmentFlags(crop=True, flip=True)
        for epoch in range(tcfg.epochs):
            train_epoch(net, train_ds, state, tcfg, epoch, aug=aug)
        _, top1 = evaluate(net, test_ds, batch_size=32)
        assert top1 >= 0.3  # far above the 10% chance level
