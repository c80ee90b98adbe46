"""CLI contract: config handling, subcommands, exit codes, artifacts."""

import argparse
import json
import os
import re
import struct

import numpy as np
import pytest
from conftest import tape_nodes

from ctanet import cli
from ctanet import config as C
from ctanet import nn
from ctanet import tensor as T
from ctanet.errors import ConfigError
from ctanet.model import model_init, tiny_config
from ctanet.train import save_checkpoint


def run_cli(args):
    return cli.main(args)


def exit_code(args):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


# The tiny preset's config.echo, literally. Run directories are named by its
# hash and old echo files are replayed, so key names, order and value format
# must not change.
TINY_ECHO = (
    "data.aug.crop = false\n"
    "data.aug.flip = false\n"
    "data.aug.jitter = false\n"
    "data.aug.jitter_hi = 1.2\n"
    "data.aug.jitter_lo = 0.8\n"
    "data.aug.rotate = false\n"
    "data.aug.rotate_deg = 15.0\n"
    "data.kind = synthetic\n"
    "data.root = data\n"
    "data.seed = 0\n"
    "data.split = train\n"
    "data.subset = none\n"
    "data.synth_classes = 10\n"
    "data.synth_size = 512\n"
    "data.target_size = 32\n"
    "data.val_subset = none\n"
    "model.attention_kind = lmf_mhsa\n"
    "model.baseline_dim = 128\n"
    "model.depth = 4\n"
    "model.embed_dim = 64\n"
    "model.heads = 4\n"
    "model.image_size = 32\n"
    "model.kernel_scales = 1,3,5\n"
    "model.kv_reduction = 4\n"
    "model.mlp_ratio = 4\n"
    "model.num_classes = 10\n"
    "model.patch_size = 4\n"
    "model.rrcv_channels = none\n"
    "model.rrcv_variant = resnet\n"
    "model.use_class_token = true\n"
    "train.batch_size = 32\n"
    "train.beta1 = 0.9\n"
    "train.beta2 = 0.999\n"
    "train.dtype = f32\n"
    "train.epochs = 20\n"
    "train.eps = 1e-08\n"
    "train.lr = 0.0003\n"
    "train.seed = 0\n"
    "train.warmup_epochs = 3\n"
    "train.weight_decay = 0.05\n"
)


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

    def test_tiny_echo_replays_byte_identically(self):
        run = C.preset_run_config("paper")
        for key, value in C.parse_config_text(TINY_ECHO):
            C.set_key(run, key, value)
        assert C.effective_text(run) == TINY_ECHO
        assert C.effective_text(C.preset_run_config("tiny")) == TINY_ECHO
        assert C.config_hash(run) == "fba4e28ae2ce"
        assert C.config_hash(C.preset_run_config("paper")) == "706cb7ab839a"

    @pytest.mark.parametrize("flag,value,keys", [
        ("--seed", "7", ("train.seed", "data.seed")),
        ("--dtype", "f64", ("train.dtype",)),
        ("--attention", "mhsa", ("model.attention_kind",)),
        ("--rrcv", "cnn", ("model.rrcv_variant",)),
        ("--scales", "3,5", ("model.kernel_scales",)),
        ("--subset", "7", ("data.subset",)),
        ("--epochs", "7", ("train.epochs",)),
        ("--batch-size", "7", ("train.batch_size",)),
    ])
    def test_shortcut_equals_set(self, flag, value, keys):
        def text(argv):
            return C.effective_text(cli.build_run(cli.build_parser().parse_args(["train", *argv])))
        via_flag = text([flag, value])
        assert via_flag == text([a for key in keys for a in ("--set", f"{key}={value}")])
        assert via_flag != text([])

    def test_fuzzed_values_raise_only_config_error(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # validate() only: a fuzzed extent must never size an allocation
        @hypothesis.settings(max_examples=1000, deadline=None, database=None, derandomize=True)
        @hypothesis.given(key=st.sampled_from(C.all_keys()),
                          value=st.one_of(st.integers(-2, 8).map(str), st.integers().map(str),
                                          st.floats().map(repr), st.text(max_size=12),
                                          st.sampled_from(["none", "true", "1,3", "f64", "mhsa"])))
        def check(key, value):
            run = C.preset_run_config("tiny")
            try:
                C.set_key(run, key, value)
                run.validate()
            except ConfigError:
                pass

        check()

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

    @pytest.mark.parametrize("kv", ["model.heads=0", "model.heads=-4",
                                    "model.rrcv_channels=0", "model.baseline_dim=0"])
    def test_out_of_range_model_value_exits_2(self, capsys, kv):
        assert run_cli(["analyze", "--set", kv]) == 2
        assert "config error" in capsys.readouterr().err

    def test_baseline_width_not_divisible_by_heads_is_named(self, capsys):
        # embed_dim 6 divides by 3 heads; the preset's baseline_dim 128 does not
        assert run_cli(["analyze", "--set", "model.embed_dim=6", "--set", "model.heads=3"]) == 2
        err = capsys.readouterr().err
        assert "model.baseline_dim 128" in err and "model.heads 3" in err

    @pytest.mark.parametrize("batch", ["0", "-3"])
    def test_batch_below_one_exits_2(self, capsys, batch):
        assert run_cli(["analyze", "--batch", batch]) == 2
        captured = capsys.readouterr()
        assert f"batch must be >= 1, got {batch}" in captured.err
        assert "MACs" not in captured.out


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
                                         "missing_key", "missing_heads", "bad_dtype_tag", "bad_rank",
                                         "mixed_dtype", "trailing_bytes", "tensor_trailing_bytes"])
    def test_malformed_checkpoint_exits_3(self, tmp_path, capsys, corrupt):
        path = str(tmp_path / "net.ckpt")
        net = model_init(tiny_config(depth=1, heads=2 if corrupt == "missing_heads" else 4), seed=0)
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
        elif corrupt in ("missing_key", "missing_heads"):
            gone = "heads" if corrupt == "missing_heads" else "kernel_scales"
            cfg = json.dumps({k: v for k, v in cfg_d.items() if k != gone}).encode()
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

    @pytest.mark.parametrize("case,want", [("checkpoint_dir", 3), ("config_dir", 2),
                                           ("config_not_utf8", 2), ("dataset_dir", 3)])
    def test_unreadable_input_is_named(self, tmp_path, capsys, case, want):
        path = tmp_path / "cifar-10-batches-bin" / "data_batch_1.bin"
        if case == "config_not_utf8":
            path = tmp_path / "run.cfg"
            path.write_bytes(b"model.depth = 1\n\xff\xfe\n")
        else:
            path.mkdir(parents=True)
        run = ["train", "--preset", "tiny", *MICRO, "--out-dir", str(tmp_path / "runs")]
        argv = {"checkpoint_dir": ["eval", "--preset", "tiny", *MICRO, "--checkpoint", str(path)],
                "dataset_dir": [*run, "--set", "data.kind=cifar10", "--set", f"data.root={tmp_path}"],
                }.get(case, [*run, "--config", str(path)])
        assert run_cli(argv) == want
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "ablate", "analyze"])
    def test_unwritable_output_is_named(self, tmp_path, capsys, command):
        # train and ablate get an existing file as --out-dir, analyze a
        # directory as --out; each is a config error before any output
        target = tmp_path / "taken"
        if command == "analyze":
            target.mkdir()
            argv = ["analyze", "--preset", "tiny", "--out", str(target)]
        else:
            target.write_text("")
            argv = [command, "--preset", "tiny", *MICRO, "--out-dir", str(target)]
            if command == "ablate":
                argv += ["--grid-rrcv", "none,resnet"]
        assert run_cli(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert str(target) in err and "Traceback" not in err
        assert out == ""

    def test_subset_flag(self, tmp_path, capsys):
        code = run_cli(["train", "--preset", "tiny", *MICRO, "--subset", "24",
                        "--out-dir", str(tmp_path / "runs")])
        assert code == 0

    def test_nonfinite_gradient_exits_4(self, tmp_path, capsys, monkeypatch):
        real = T.backward

        def poisoned(loss):
            leaves = [p for n in tape_nodes(loss) for p in n.parents if isinstance(p, T.Tensor)]
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
            if out.requires_grad:
                good = out.node.backward_fn

                def bad(g):
                    return good(g * 1.5)  # wrong scale reaches every input gradient
                out.node.backward_fn = bad
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

    @pytest.fixture
    def trained(self, monkeypatch):
        """The run directories `cli._train` was asked to fill."""
        calls = []

        def fake(run, run_dir, log=None):
            calls.append(run_dir)
            return [cli.TR.MetricsRow(0, 0.0, 0.0, 0.0, 0.0, 0.0)]

        monkeypatch.setattr(cli, "_train", fake)
        return calls

    def test_invalid_later_cell_exits_2_before_training(self, tmp_path, capsys, trained):
        out = tmp_path / "abl"
        assert run_cli(["ablate", *MICRO, "--grid-heads", "4,3", "--out-dir", str(out)]) == 2
        assert "heads 3" in capsys.readouterr().err
        assert trained == [] and not out.exists()

    def test_repeated_cell_exits_2_before_training(self, tmp_path, capsys, trained):
        out = tmp_path / "abl"
        argv = ["ablate", *MICRO, "--grid-rrcv", "resnet,resnet", "--out-dir", str(out)]
        assert run_cli(argv) == 2
        run, _ = cli._assemble(cli.build_parser().parse_args(argv))
        C.set_key(run, "model.rrcv_variant", "resnet")
        err = capsys.readouterr().err
        assert C.config_hash(run.validate()) in err and err.count("{'rrcv': 'resnet'}") == 2
        assert trained == [] and not out.exists()


class TestOneRunPath:
    def test_train_and_one_cell_ablate_agree(self, tmp_path, capsys, monkeypatch):
        flags = ["--preset", "tiny", *MICRO, "--seed", "4"]
        assert run_cli(["train", *flags, "--out-dir", str(tmp_path / "t")]) == 0
        assert run_cli(["ablate", *flags, "--grid-rrcv", "resnet", "--out-dir", str(tmp_path / "a")]) == 0
        (train_dir,) = os.listdir(tmp_path / "t")
        (root,) = os.listdir(tmp_path / "a")
        (cell,) = [d for d in os.listdir(tmp_path / "a" / root) if d != "summary.csv"]
        assert cell == train_dir.split("-")[0]
        for name in ("config.echo", "last.ckpt"):
            assert ((tmp_path / "t" / train_dir / name).read_bytes()
                    == (tmp_path / "a" / root / cell / name).read_bytes())

        scored = []
        real = cli.TR.evaluate

        def counting(net, ds, **kw):
            scored.append(len(ds))
            return real(net, ds, **kw)

        monkeypatch.setattr(cli.TR, "evaluate", counting)
        ckpt = str(tmp_path / "t" / train_dir / "last.ckpt")
        assert run_cli(["eval", *flags, "--checkpoint", ckpt, "--split", "train", "--subset", "24"]) == 0
        assert run_cli(["eval", *flags, "--checkpoint", ckpt]) == 0
        assert scored == [24, 16]   # data.subset caps train, data.val_subset caps test


class TestRejectedBeforeRunDir:
    def test_val_subset_below_one(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run_cli(["train", *MICRO, "--set", "data.val_subset=0", "--out-dir", str(out)]) == 2
        assert "data.val_subset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [-1, 0, 9])
    def test_synth_size_below_class_count(self, tmp_path, capsys, size):
        out = tmp_path / "runs"
        assert run_cli(["train", *MICRO, "--set", f"data.synth_size={size}", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "data.synth_size" in err and "data.synth_classes" in err
        assert not out.exists()

    @pytest.mark.parametrize("sets,key", [
        (["data.aug.jitter=true", "data.aug.jitter_lo=-1"], "data.aug.jitter_lo"),
        (["data.aug.jitter=true", "data.aug.jitter_lo=1.5"], "data.aug.jitter_lo"),
        (["data.aug.jitter=true", "data.aug.jitter_lo=nan"], "data.aug.jitter_lo"),
        (["data.aug.jitter=true", "data.aug.jitter_hi=inf"], "data.aug.jitter_hi"),
        (["data.aug.jitter=true", "data.aug.jitter_hi=0.5"], "data.aug.jitter_hi"),
        (["data.aug.rotate=true", "data.aug.rotate_deg=nan"], "data.aug.rotate_deg"),
        (["data.aug.rotate=true", "data.aug.rotate_deg=-15"], "data.aug.rotate_deg"),
    ])
    def test_bad_augment_bounds(self, tmp_path, capsys, sets, key):
        out = tmp_path / "runs"
        argv = ["train", *MICRO, "--out-dir", str(out)]
        for kv in sets:
            argv += ["--set", kv]
        assert run_cli(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kv", [
        "train.lr=nan", "train.lr=-1", "train.lr=inf",
        "train.weight_decay=-0.1", "train.weight_decay=nan",
        "train.beta1=1.5", "train.beta1=1", "train.beta2=-0.1", "train.beta2=nan",
        "train.eps=0", "train.eps=-1e-8", "train.eps=inf",
    ])
    def test_bad_optimizer_value(self, tmp_path, capsys, kv):
        out = tmp_path / "runs"
        assert run_cli(["train", *MICRO, "--set", kv, "--out-dir", str(out)]) == 2
        assert kv.split("=")[0] in capsys.readouterr().err
        assert not out.exists()


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--quick", "--preset", "paper"],
        ["gradcheck", "--quick", "--set", "model.depth=9"],
        ["analyze", "--out-dir", "x"],
        ["eval", *MICRO, "--out-dir", "x"],
    ])
    def test_unread_flag_exits_2(self, tmp_path, capsys, argv):
        if argv[0] == "eval":
            ckpt = str(tmp_path / "net.ckpt")
            save_checkpoint(ckpt, model_init(tiny_config(depth=1), seed=0))
            argv = [*argv, "--checkpoint", ckpt]
        assert exit_code(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_grid_line_outside_ablate_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid.rrcv = cnn,resnet\n")
        out = tmp_path / "runs"
        argv = [command, "--config", str(cfg)] + (["--out-dir", str(out)] if command == "train" else [])
        assert run_cli(argv) == 2
        assert "unknown config key 'grid.rrcv'" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_tables_match_parser(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read().splitlines()

        def table(header):
            rows = []
            for line in readme[readme.index(header) + 2:]:
                if not line.startswith("|"):
                    break
                rows.append([cell.strip() for cell in line.strip("|").split("|")])
            return rows

        shortcuts = {re.match(r"`(--[a-z-]+)", flag).group(1): tuple(re.findall(r"`([a-z_.]+)`", keys))
                     for flag, keys in table("| shortcut flag | config keys |")}
        assert shortcuts == {flag: keys for flag, (keys, _) in cli._SHORTCUTS.items()}
        axes = {axis.strip("`"): key.strip("`") for axis, key in table("| grid axis | config key |")}
        assert axes == cli._GRID_AXES

        documented = {}
        for name, flags in table("| subcommand | flags |"):
            flags = flags.replace("shortcut flags", " ".join(f"`{f}`" for f in cli._SHORTCUTS))
            flags = flags.replace("`--grid-<axis>`", " ".join(f"`--grid-{a}`" for a in cli._GRID_AXES))
            documented[name.strip("`")] = set(re.findall(r"`(--[a-z-]*[a-z])", flags))
        subs = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        parsed = {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
                  for name, sub in subs.items()}
        assert documented == parsed
