"""CLI contract: config handling, subcommands, exit codes, artifacts."""

import json
import os
import struct

import numpy as np
import pytest

from ctanet import cli
from ctanet import config as C
from ctanet import nn
from ctanet import tensor as T
from ctanet.errors import ConfigError
from ctanet.model import model_init, tiny_config
from ctanet.train import save_checkpoint


def run_cli(args):
    return cli.main(args)


MICRO = [
    "--set", "model.depth=1",
    "--set", "data.synth_size=48",
    "--set", "data.val_subset=16",
    "--set", "train.warmup_epochs=0",
    "--epochs", "1",
    "--batch-size", "16",
]


class TestConfig:
    def test_unknown_key_named(self):
        run = C.preset_run_config("tiny")
        with pytest.raises(ConfigError, match="model.dephts"):
            C.set_key(run, "model.dephts", "3")

    def test_bad_value(self):
        run = C.preset_run_config("tiny")
        with pytest.raises(ConfigError, match="model.depth"):
            C.set_key(run, "model.depth", "three")

    def test_every_key_has_default_and_round_trips(self):
        run = C.preset_run_config("tiny")
        text = C.effective_text(run)
        assert len(text.strip().splitlines()) == len(C.all_keys())
        run2 = C.preset_run_config("paper")  # start from a different base
        for key, value in C.parse_config_text(text):
            C.set_key(run2, key, value)
        assert C.effective_text(run2) == text
        assert C.config_hash(run2) == C.config_hash(run)

    def test_file_then_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model.depth = 3\ntrain.batch_size = 8  # comment\n")
        args = cli.build_parser().parse_args(
            ["train", "--config", str(cfg_file), "--set", "model.depth=2"])
        run = cli.build_run(args)
        assert run.model.depth == 2          # flag wins over file
        assert run.train.batch_size == 8     # file wins over preset

    def test_scales_parsing(self):
        run = C.preset_run_config("tiny")
        C.set_key(run, "model.kernel_scales", "1,3")
        assert run.model.kernel_scales == (1, 3)
        C.set_key(run, "model.kernel_scales", "none")
        assert run.model.kernel_scales == ()

    def test_class_count_mismatch_rejected(self):
        run = C.preset_run_config("tiny")
        C.set_key(run, "data.synth_classes", "7")
        with pytest.raises(ConfigError, match="classes"):
            run.validate()


class TestAnalyze:
    def test_prints_both_reductions_and_conventions(self, tmp_path, capsys):
        out_csv = str(tmp_path / "costs.csv")
        code = run_cli(["analyze", "--preset", "paper", "--out", out_csv])
        assert code == 0
        text = capsys.readouterr().out
        assert "reduction" in text
        assert "MACs" in text and "FLOPs" in text
        assert "params" in text
        lines = open(out_csv).read().strip().splitlines()
        assert lines[0] == "layer,params,macs,flops"
        assert lines[-1].startswith("total,")

    def test_self_comparison_near_zero(self, capsys):
        code = run_cli(["analyze", "--preset", "tiny", "--attention", "mhsa",
                        "--rrcv", "none", "--scales", "none",
                        "--set", "model.kv_reduction=1",
                        "--set", "model.baseline_dim=none"])
        assert code == 0
        text = capsys.readouterr().out
        assert "reduction 0.00%" in text

    def test_invalid_config_exits_2(self, capsys):
        assert run_cli(["analyze", "--set", "model.depth=0"]) == 2


class TestTrainEval:
    def test_train_writes_artifacts_and_eval_matches(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = run_cli(["train", "--preset", "tiny", *MICRO, "--seed", "2", "--out-dir", out])
        assert code == 0
        run_dirs = [d for d in os.listdir(out)]
        assert len(run_dirs) == 1
        run_dir = os.path.join(out, run_dirs[0])
        assert os.path.exists(os.path.join(run_dir, "config.echo"))
        metrics = open(os.path.join(run_dir, "metrics.csv")).read().strip().splitlines()
        assert len(metrics) == 2
        final = metrics[-1].split(",")
        ckpt = os.path.join(run_dir, "last.ckpt")
        assert os.path.exists(ckpt)
        capsys.readouterr()

        code = run_cli(["eval", "--preset", "tiny", *MICRO, "--seed", "2",
                        "--checkpoint", ckpt])
        assert code == 0
        text = capsys.readouterr().out
        # the eval of the saved checkpoint reproduces the final val row
        assert f"loss={float(final[3]):.6f}" in text
        assert f"top1={float(final[4]):.6f}" in text

    def test_echoed_config_reproduces_run(self, tmp_path, capsys):
        out1 = str(tmp_path / "r1")
        run_cli(["train", "--preset", "tiny", *MICRO, "--seed", "5",
                 "--dtype", "f64", "--out-dir", out1])
        d1 = os.path.join(out1, os.listdir(out1)[0])
        echo = os.path.join(d1, "config.echo")
        out2 = str(tmp_path / "r2")
        run_cli(["train", "--config", echo, "--out-dir", out2])
        d2 = os.path.join(out2, os.listdir(out2)[0])
        m1 = open(os.path.join(d1, "metrics.csv")).read()
        m2 = open(os.path.join(d2, "metrics.csv")).read()
        strip_wall = lambda text: [",".join(line.split(",")[:5]) for line in text.splitlines()]
        assert strip_wall(m1) == strip_wall(m2)
        assert os.path.basename(d1).split("-")[0] == os.path.basename(d2).split("-")[0]
        capsys.readouterr()

    def test_eval_follows_checkpoint_dtype(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        run_cli(["train", "--preset", "tiny", *MICRO, "--seed", "8",
                 "--dtype", "f64", "--out-dir", out])
        run_dir = os.path.join(out, os.listdir(out)[0])
        capsys.readouterr()
        # config side defaults to f32; eval must still run the f64 model
        code = run_cli(["eval", "--preset", "tiny", *MICRO, "--seed", "8",
                        "--checkpoint", os.path.join(run_dir, "last.ckpt")])
        assert code == 0
        assert "top1=" in capsys.readouterr().out

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        code = run_cli(["train", "--preset", "tiny", *MICRO,
                        "--set", "data.kind=cifar10",
                        "--set", f"data.root={tmp_path}/nowhere",
                        "--out-dir", str(tmp_path / "runs")])
        assert code == 3

    def test_empty_training_split_exits_3(self, tmp_path, capsys):
        base = tmp_path / "cifar-10-batches-bin"
        base.mkdir()
        for i in range(1, 6):
            (base / f"data_batch_{i}.bin").write_bytes(b"")
        records = np.zeros((20, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(20) % 10
        (base / "test_batch.bin").write_bytes(records.tobytes())
        code = run_cli(["train", "--preset", "tiny", *MICRO,
                        "--set", "data.kind=cifar10", "--set", f"data.root={tmp_path}",
                        "--out-dir", str(tmp_path / "runs")])
        assert code == 3
        assert "empty split" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["non_utf8_config", "malformed_json", "unknown_key",
                                         "missing_key", "bad_dtype_tag", "bad_rank",
                                         "mixed_dtype", "trailing_bytes", "tensor_trailing_bytes"])
    def test_malformed_checkpoint_exits_3(self, tmp_path, capsys, corrupt):
        path = str(tmp_path / "net.ckpt")
        net = model_init(tiny_config(depth=1), seed=0)
        if corrupt == "mixed_dtype":
            fc1 = net.blocks[0].mlp.fc1.weight
            fc1.data = fc1.data.astype(np.float64)
        save_checkpoint(path, net)
        blob = open(path, "rb").read()
        (n,) = struct.unpack_from("<I", blob, 8)
        head, cfg, rest = blob[:8], blob[12:12 + n], bytearray(blob[12 + n:])
        cfg_d = json.loads(cfg)
        if corrupt == "non_utf8_config":
            cfg = cfg.replace(b"lmf_mhsa", b"lmf_mhs\xff")
        elif corrupt == "malformed_json":
            cfg = cfg[:-1]
        elif corrupt == "unknown_key":
            cfg = json.dumps(dict(cfg_d, bogus=1)).encode()
        elif corrupt == "missing_key":
            cfg = json.dumps({k: v for k, v in cfg_d.items() if k != "kernel_scales"}).encode()
        elif corrupt == "trailing_bytes":
            rest += bytes(7)
        elif corrupt != "mixed_dtype":
            # header of the first tensor: after has_opt, count, name blob, blob length
            (name_len,) = struct.unpack_from("<I", rest, 5)
            tag = 5 + 4 + name_len + 4
            if corrupt == "bad_dtype_tag":
                rest[tag] = 7
            elif corrupt == "bad_rank":
                rest[tag + 1:tag + 5] = struct.pack("<I", 2 ** 31)
            else:   # 3 zero bytes after the payload, inside the blob's length prefix
                (size,) = struct.unpack_from("<I", rest, tag - 4)
                rest[tag - 4:tag] = struct.pack("<I", size + 3)
                rest[tag + size:tag + size] = bytes(3)
        open(path, "wb").write(head + struct.pack("<I", len(cfg)) + cfg + bytes(rest))
        assert run_cli(["eval", "--preset", "tiny", *MICRO, "--checkpoint", path]) == 3
        assert "data error" in capsys.readouterr().err

    def test_subset_flag(self, tmp_path, capsys):
        code = run_cli(["train", "--preset", "tiny", *MICRO, "--subset", "24",
                        "--out-dir", str(tmp_path / "runs")])
        assert code == 0

    def test_nonfinite_gradient_exits_4(self, tmp_path, capsys, monkeypatch):
        real = T.backward

        def poisoned(loss):
            leaves, stack, seen = [], [loss], set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.extend(node._parents)
                if not node._parents and node.requires_grad:
                    leaves.append(node)
            real(loss)
            leaves[0].grad = np.full_like(leaves[0].data, np.inf)

        monkeypatch.setattr(T, "backward", poisoned)
        code = run_cli(["train", "--preset", "tiny", *MICRO, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        assert "non-finite gradient for" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_quick_suite_passes(self, capsys):
        assert run_cli(["gradcheck", "--quick"]) == 0
        text = capsys.readouterr().out
        assert "max_rel_err" in text and "passed" in text

    def test_wrong_backward_double_fails(self, capsys, monkeypatch):
        real = nn.gelu

        def sabotaged(x):
            out = real(x)
            if out._backward_fn is not None:
                good = out._backward_fn

                def bad(g):
                    good(g * 1.5)  # wrong scale reaches every input gradient
                out._backward_fn = bad
            return out

        monkeypatch.setattr(nn, "gelu", sabotaged)
        assert run_cli(["gradcheck", "--quick"]) == cli.EXIT_NUMERIC


class TestAblate:
    def test_two_by_two_grid(self, tmp_path, capsys):
        out = str(tmp_path / "abl")
        code = run_cli(["ablate", "--preset", "tiny", *MICRO, "--seed", "1",
                        "--grid-attention", "mhsa,lmf_mhsa",
                        "--grid-rrcv", "none,resnet",
                        "--out-dir", out])
        assert code == 0
        sub = os.listdir(out)[0]
        lines = open(os.path.join(out, sub, "summary.csv")).read().strip().splitlines()
        assert lines[0] == "cell,attention,rrcv,scales,batch,depth,heads,top1,params,flops,seconds"
        assert len(lines) == 5
        kinds = {tuple(line.split(",")[1:3]) for line in lines[1:]}
        assert kinds == {("mhsa", "none"), ("mhsa", "resnet"),
                         ("lmf_mhsa", "none"), ("lmf_mhsa", "resnet")}

    def test_cells_reproducible(self, tmp_path, capsys):
        rows = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            run_cli(["ablate", "--preset", "tiny", *MICRO, "--seed", "3",
                     "--grid-scales", "1;1,3,5", "--out-dir", out])
            d = os.listdir(out)[0]
            lines = open(os.path.join(out, d, "summary.csv")).read().strip().splitlines()
            rows.append([",".join(line.split(",")[:-1]) for line in lines[1:]])  # drop seconds
        assert rows[0] == rows[1]

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        assert run_cli(["ablate", "--preset", "tiny", "--out-dir", str(tmp_path)]) == 2

    def test_batch_depth_heads_axes(self, tmp_path, capsys):
        out = str(tmp_path / "abl")
        code = run_cli(["ablate", "--preset", "tiny", *MICRO, "--seed", "2",
                        "--grid-batch", "8,16", "--grid-heads", "2,4",
                        "--out-dir", out])
        assert code == 0
        d = os.listdir(out)[0]
        lines = open(os.path.join(out, d, "summary.csv")).read().strip().splitlines()
        assert len(lines) == 5
        cells = {tuple(line.split(",")[4:7:2]) for line in lines[1:]}
        assert cells == {("8", "2"), ("8", "4"), ("16", "2"), ("16", "4")}

    def test_grid_config_file(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "grid.rrcv = cnn,resnet\n"
            "model.depth = 1\n"
            "data.synth_size = 32\n"
            "data.val_subset = 16\n"
            "train.epochs = 1\n"
            "train.warmup_epochs = 0\n"
            "train.batch_size = 16\n")
        out = str(tmp_path / "abl")
        assert run_cli(["ablate", "--config", str(grid), "--out-dir", out]) == 0
        d = os.listdir(out)[0]
        lines = open(os.path.join(out, d, "summary.csv")).read().strip().splitlines()
        assert len(lines) == 3
