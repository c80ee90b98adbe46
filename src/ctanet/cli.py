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
import re
import sys
import time
from dataclasses import replace

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


# ablation axis (grid.<axis> key, --grid-<axis> flag, summary column) -> config key
_GRID_AXES = {
    "attention": "model.attention_kind",
    "rrcv": "model.rrcv_variant",
    "scales": "model.kernel_scales",
    "batch": "train.batch_size",
    "depth": "model.depth",
    "heads": "model.heads",
}


def _assemble(args):
    """preset < config file < --set < shortcuts, not yet validated.

    Returns the run and the config file's grid.* lines as {axis: value};
    those are read only by `ablate`, and any other command rejects them as
    unknown keys."""
    run, grid = C.preset_run_config(args.preset), {}
    if args.config:
        raw = D.read_file(args.config, "config file", ConfigError)
        try:
            text = raw.decode()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8 at byte {exc.start}") from None
        for key, value in C.parse_config_text(text):
            if key.startswith("grid.") and args.command == "ablate":
                if key[5:] not in _GRID_AXES:
                    raise ConfigError(f"unknown grid axis {key!r}")
                grid[key[5:]] = value
            else:
                C.set_key(run, key, value)
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
    return run, grid


def build_run(args) -> C.RunConfig:
    return _assemble(args)[0].validate()


def _make_run_dir(path: str, run: C.RunConfig) -> str:
    try:
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "config.echo"), "w") as fh:
            fh.write(C.effective_text(run))
    except OSError as exc:
        raise ConfigError(f"cannot write run directory {path}: {exc.strerror or exc}") from None
    return path


def _load_split(run: C.RunConfig, split: str) -> D.Dataset:
    """The train split is capped at data.subset, the test split at data.val_subset."""
    cap = run.data.subset_size if split == "train" else run.data.val_subset
    return D.load_dataset(replace(run.data, split=split, subset_size=cap))


def _train(run: C.RunConfig, run_dir: str, log=None):
    """Train `run` from its seed, writing metrics and checkpoints to run_dir."""
    train_ds, val_ds = _load_split(run, "train"), _load_split(run, "test")
    net = model_init(run.model, seed=run.train.seed, dtype=run.train.dtype)
    return TR.train_run(net, TR.OptimizerState.for_model(net), run.train, train_ds, val_ds,
                        aug=run.data.augment, target_size=run.model.image_size,
                        out_dir=run_dir, log=log)


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    run = build_run(args)
    model_rep = costs.count_costs(run.model, batch=args.batch)
    lmf_rep, base_rep = costs.attention_twins(run.model, batch=args.batch)
    if args.out:    # written first, so an unwritable path stops the command before any output
        try:
            with open(args.out, "w") as fh:
                fh.write(costs.emit_table(model_rep, args.format))
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
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
        print(f"wrote {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# train / eval
# --------------------------------------------------------------------------

def cmd_train(args) -> int:
    run = build_run(args)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    run_dir = _make_run_dir(os.path.join(args.out_dir, f"{C.config_hash(run)}-{stamp}"), run)
    print(f"run dir: {run_dir}")
    last = _train(run, run_dir, log=print)[-1]
    print(f"final: train top1 {last.train_top1:.4f}, val top1 {last.val_top1:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run = build_run(args)
    net, _, _, _ = TR.load_checkpoint(args.checkpoint)
    ds = _load_split(run, args.split)
    dtype = net.parameters()[0].dtype  # follow the checkpoint, not the config
    loss, top1 = TR.evaluate(net, ds, batch_size=run.train.batch_size,
                             target_size=net.config.image_size, dtype=dtype)
    print(f"split={args.split} loss={loss:.6f} top1={top1:.6f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# gradcheck
# --------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    results = G.run_suite(seed=args.seed, include_model=not args.quick)
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

def cmd_ablate(args) -> int:
    base, grid = _assemble(args)
    flags = {axis: getattr(args, f"grid_{axis}") for axis in _GRID_AXES}
    grid.update({axis: value for axis, value in flags.items() if value is not None})
    if not grid:
        raise ConfigError("empty ablation grid: give grid.* keys or --grid-* flags")
    axes = sorted(grid)
    for axis in axes:
        sep = "[;|]" if axis == "scales" else ","
        grid[axis] = [v.strip() for v in re.split(sep, grid[axis]) if v.strip()]
        if not grid[axis]:
            raise ConfigError(f"grid axis {axis} is empty")

    cells = {}
    for combo in itertools.product(*(grid[a] for a in axes)):
        run = copy.deepcopy(base)
        for axis, value in zip(axes, combo):
            C.set_key(run, _GRID_AXES[axis], value)
        cell = C.config_hash(run.validate())
        if cell in cells:
            raise ConfigError(f"grid values {cells[cell][0]} and {dict(zip(axes, combo))} "
                              f"give the same config, cell {cell}")
        cells[cell] = (dict(zip(axes, combo)), run)

    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    out_root = os.path.join(args.out_dir, f"ablation-{stamp}")
    # every cell's directory is made before the first cell trains
    run_dirs = {cell: _make_run_dir(os.path.join(out_root, cell), run) for cell, (_, run) in cells.items()}
    header = ",".join(["cell", *_GRID_AXES, "top1", "params", "flops", "seconds"])
    lines = [header]
    print(header)
    for cell, (_, run) in cells.items():
        t0 = time.time()
        rows = _train(run, run_dirs[cell])
        secs = time.time() - t0
        rep = costs.count_costs(run.model)
        values = [C.format_value(C.get_key(run, key)).replace(",", "+") for key in _GRID_AXES.values()]
        row = ",".join([cell, *values, f"{rows[-1].val_top1:.6f}", str(rep.total_params),
                        str(rep.total_flops), f"{secs:.3f}"])
        lines.append(row)
        print(row)
    summary_path = os.path.join(out_root, "summary.csv")
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {summary_path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """The flags `_assemble` reads."""
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--preset", choices=("tiny", "paper"), default="tiny")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a single config key (repeatable)")
    for flag, (keys, opts) in _SHORTCUTS.items():
        sub.add_argument(flag, help="sets " + " and ".join(keys), **opts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctanet",
                                     description="hybrid conv/transformer classifier tools")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="analytic parameter/FLOP tables and reductions")
    _add_run_flags(p)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--format", choices=("aligned-text", "csv"), default="csv")
    p.add_argument("--out", help="write the model cost table to this file")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("train", help="train a model, writing metrics and checkpoints")
    _add_run_flags(p)
    p.add_argument("--out-dir", default="runs")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint")
    _add_run_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("gradcheck", help="f64 central-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="skip the whole-model check")
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("ablate", help="cross-product config grid, one summary row per cell")
    _add_run_flags(p)
    p.add_argument("--out-dir", default="runs")
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
