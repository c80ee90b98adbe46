"""Command-line entry point.

Subcommands: analyze | train | eval | gradcheck | ablate.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
stdout carries human-readable tables; machine-readable output goes to
files under the run directory (named by config hash + timestamp).
"""

from __future__ import annotations

import argparse
import copy
import itertools
import os
import sys
import time

from . import config as C
from . import costs
from . import data as D
from . import gradcheck as G
from . import train as TR
from .errors import ConfigError, DataError, NumericsError
from .model import ATTENTION_KINDS, RRCV_VARIANTS, model_init

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# shortcut flag -> (config keys it sets, argparse options); applied after --set
_SHORTCUTS = {
    "--seed": (("train.seed", "data.seed"), dict(type=int)),
    "--dtype": (("train.dtype",), dict(choices=("f32", "f64"))),
    "--attention": (("model.attention_kind",), dict(choices=ATTENTION_KINDS)),
    "--rrcv": (("model.rrcv_variant",), dict(choices=RRCV_VARIANTS)),
    "--scales": (("model.kernel_scales",), dict(metavar="1,3,5|none")),
    "--subset": (("data.subset",), dict(type=int)),
    "--epochs": (("train.epochs",), dict(type=int)),
    "--batch-size": (("train.batch_size",), dict(type=int)),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--preset", choices=("tiny", "paper"), default="tiny")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a single config key (repeatable)")
    sub.add_argument("--out-dir", default="runs")
    for flag, (keys, opts) in _SHORTCUTS.items():
        sub.add_argument(flag, help="sets " + " and ".join(keys), **opts)


def apply_flag_overrides(run: C.RunConfig, args) -> None:
    for kv in args.set:
        if "=" not in kv:
            raise ConfigError(f"--set expects KEY=VALUE, got {kv!r}")
        key, value = kv.split("=", 1)
        C.set_key(run, key.strip(), value.strip())
    for flag, (keys, _) in _SHORTCUTS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            for key in keys:
                C.set_key(run, key, str(value))


def build_run(args) -> C.RunConfig:
    run = C.preset_run_config(args.preset)
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        C.apply_config_file(run, args.config)
    apply_flag_overrides(run, args)
    return run.validate()


def _make_run_dir(base: str, run: C.RunConfig) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    path = os.path.join(base, f"{C.config_hash(run)}-{stamp}")
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "config.echo"), "w") as fh:
        fh.write(C.effective_text(run))
    return path


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    run = build_run(args)
    model_rep = costs.count_costs(run.model, batch=args.batch)
    lmf_rep, base_rep = costs.attention_twins(run.model, batch=args.batch)
    print(costs.emit_table(model_rep))
    print(costs.emit_table(base_rep))
    p_red, f_red = costs.reductions(lmf_rep, base_rep)
    hc = costs.human_count
    print(f"attention comparison (conv detour off on both sides):")
    print(f"  params: {hc(base_rep.total_params)} -> {hc(lmf_rep.total_params)}"
          f"   reduction {p_red:.2f}%")
    print(f"  compute: {hc(base_rep.total_macs)} MACs -> {hc(lmf_rep.total_macs)} MACs"
          f"   reduction {f_red:.2f}%")
    print(f"  compute: {hc(base_rep.total_flops)} FLOPs -> {hc(lmf_rep.total_flops)} FLOPs"
          f"   reduction {f_red:.2f}%  (1 MAC = 2 FLOPs)")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(costs.emit_table(model_rep, args.format))
        print(f"wrote {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# train / eval
# --------------------------------------------------------------------------

def _datasets(run: C.RunConfig):
    train_spec = copy.deepcopy(run.data)
    train_spec.split = "train"
    val_spec = copy.deepcopy(run.data)
    val_spec.split = "test"
    val_spec.subset_size = run.data.val_subset
    train_ds = D.load_dataset(train_spec)
    val_ds = D.load_dataset(val_spec)
    return train_ds, val_ds


def cmd_train(args) -> int:
    run = build_run(args)
    run_dir = _make_run_dir(args.out_dir, run)
    print(f"run dir: {run_dir}")
    train_ds, val_ds = _datasets(run)
    net = model_init(run.model, seed=run.train.seed, dtype=run.train.dtype)
    state = TR.OptimizerState.for_model(net)
    rows = TR.train_run(net, state, run.train, train_ds, val_ds,
                        aug=run.data.augment, target_size=run.model.image_size,
                        out_dir=run_dir, log=print)
    last = rows[-1]
    print(f"final: train top1 {last.train_top1:.4f}, val top1 {last.val_top1:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run = build_run(args)
    net, _, _, _ = TR.load_checkpoint(args.checkpoint)
    spec = copy.deepcopy(run.data)
    spec.split = args.split
    spec.subset_size = run.data.val_subset if args.split == "test" else run.data.subset_size
    ds = D.load_dataset(spec)
    dtype = net.parameters()[0].dtype  # follow the checkpoint, not the config
    loss, top1 = TR.evaluate(net, ds, batch_size=run.train.batch_size,
                             target_size=net.config.image_size, dtype=dtype)
    print(f"split={args.split} loss={loss:.6f} top1={top1:.6f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# gradcheck
# --------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    results = G.run_suite(seed=args.seed or 0, include_model=not args.quick)
    width = max(len(r.name) for r in results)
    fails = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  max_rel_err {r.error:.3e}  tol {r.tol:.0e}  {status}")
        fails += 0 if r.passed else 1
    if fails:
        print(f"{fails} gradient check(s) exceeded tolerance", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


# --------------------------------------------------------------------------
# ablate
# --------------------------------------------------------------------------

# ablation axis (grid.<axis> key, --grid-<axis> flag, summary column) -> config key
_GRID_AXES = {
    "attention": "model.attention_kind",
    "rrcv": "model.rrcv_variant",
    "scales": "model.kernel_scales",
    "batch": "train.batch_size",
    "depth": "model.depth",
    "heads": "model.heads",
}


def _parse_grid(args):
    """grid.* keys from the config file plus --grid-* flags; returns
    (base config pairs, {axis: [values]})."""
    grid: dict = {}
    base_pairs = []
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            for key, value in C.parse_config_text(fh.read()):
                if key.startswith("grid."):
                    axis = key[5:]
                    if axis not in _GRID_AXES:
                        raise ConfigError(f"unknown grid axis {key!r}")
                    grid[axis] = value
                else:
                    base_pairs.append((key, value))
    for axis in _GRID_AXES:
        flag = getattr(args, f"grid_{axis}")
        if flag is not None:
            grid[axis] = flag
    parsed = {}
    for axis, value in grid.items():
        if axis == "scales":
            cells = [v.strip() for v in value.replace("|", ";").split(";") if v.strip()]
        else:
            cells = [v.strip() for v in value.split(",") if v.strip()]
        if not cells:
            raise ConfigError(f"grid axis {axis} is empty")
        parsed[axis] = cells
    return base_pairs, parsed


def cmd_ablate(args) -> int:
    base_pairs, grid = _parse_grid(args)
    if not grid:
        raise ConfigError("empty ablation grid: give grid.* keys or --grid-* flags")
    base = C.preset_run_config(args.preset)
    for key, value in base_pairs:
        C.set_key(base, key, value)
    apply_flag_overrides(base, args)

    axes = sorted(grid)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    out_root = os.path.join(args.out_dir, f"ablation-{stamp}")
    os.makedirs(out_root, exist_ok=True)
    summary_path = os.path.join(out_root, "summary.csv")
    header = ",".join(["cell", *_GRID_AXES, "top1", "params", "flops", "seconds"])
    lines = [header]
    print(header)
    for combo in itertools.product(*(grid[a] for a in axes)):
        run = copy.deepcopy(base)
        for axis, value in zip(axes, combo):
            C.set_key(run, _GRID_AXES[axis], value)
        run.validate()
        cell = C.config_hash(run)
        cell_dir = os.path.join(out_root, cell)
        os.makedirs(cell_dir, exist_ok=True)
        with open(os.path.join(cell_dir, "config.echo"), "w") as fh:
            fh.write(C.effective_text(run))
        t0 = time.time()
        train_ds, val_ds = _datasets(run)
        net = model_init(run.model, seed=run.train.seed, dtype=run.train.dtype)
        state = TR.OptimizerState.for_model(net)
        rows = TR.train_run(net, state, run.train, train_ds, val_ds,
                            aug=run.data.augment, target_size=run.model.image_size,
                            out_dir=cell_dir)
        secs = time.time() - t0
        rep = costs.count_costs(run.model)
        values = [C.format_value(C.get_key(run, key)).replace(",", "+") for key in _GRID_AXES.values()]
        row = ",".join([cell, *values, f"{rows[-1].val_top1:.6f}", str(rep.total_params),
                        str(rep.total_flops), f"{secs:.3f}"])
        lines.append(row)
        print(row)
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {summary_path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctanet",
                                     description="hybrid conv/transformer classifier tools")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="analytic parameter/FLOP tables and reductions")
    _add_common(p)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--format", choices=("aligned-text", "csv"), default="csv")
    p.add_argument("--out", help="write the model cost table to this file")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("train", help="train a model, writing metrics and checkpoints")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("gradcheck", help="f64 central-difference gradient suite")
    _add_common(p)
    p.add_argument("--quick", action="store_true", help="skip the whole-model check")
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("ablate", help="cross-product config grid, one summary row per cell")
    _add_common(p)
    for axis, key in _GRID_AXES.items():
        p.add_argument(f"--grid-{axis}", help=f"comma (scales: semicolon) separated {key} values")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
