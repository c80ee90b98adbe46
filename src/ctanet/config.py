"""Run configuration: flat dotted keys, file parsing, presets, hashing.

A run is fully described by `model.*`, `train.*` and `data.*` keys. Every
key has a default; unknown keys are rejected by name. Precedence is
preset < config file < command-line overrides. The effective config can
be echoed to text and re-parsed to reproduce the run exactly.

The key table is derived from the dataclasses: every leaf field under
`RunConfig` is one key, named by its attribute path and parsed by its
type. Two keys are named unlike their attribute: `data.subset` sets
`DatasetSpec.subset_size`, and `data.aug.*` sets `DatasetSpec.augment`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce
from typing import Optional, get_type_hints

from .data import AugmentFlags, DatasetSpec
from .errors import ConfigError
from .model import ModelConfig, paper_config, tiny_config
from .train import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DatasetSpec = field(default_factory=DatasetSpec)

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.train.validate()
        self.data.validate()
        dataset_classes = {"cifar10": 10, "cifar100": 100}.get(self.data.kind, self.data.synth_classes)
        if self.model.num_classes != dataset_classes:
            raise ConfigError(
                f"model.num_classes={self.model.num_classes} but data provides {dataset_classes} classes")
        if self.data.target_size != self.model.image_size:
            raise ConfigError(
                f"data.target_size={self.data.target_size} != model.image_size={self.model.image_size}")
        return self


# -- value codecs ----------------------------------------------------------

def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_opt_int(s: str):
    v = s.strip().lower()
    return None if v in ("none", "") else int(s)


def _parse_scales(s: str) -> tuple:
    v = s.strip().lower()
    if v in ("none", ""):
        return ()
    return tuple(int(x) for x in v.replace("+", ",").split(",") if x.strip())


def format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v) if v else "none"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# attribute path -> file key, for the two keys not named after their attribute
_ALIASES = {"data.subset_size": "data.subset", "data.augment": "data.aug"}
_PARSERS = {int: int, float: float, str: str, bool: _parse_bool,
            Optional[int]: _parse_opt_int, tuple: _parse_scales}


def _walk(cls, path: str = "", key: str = ""):
    """(key, (attribute names, parser)) for every leaf field under `cls`."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        sub, sub_key = path + f.name, _ALIASES.get(path + f.name, key + f.name)
        if is_dataclass(hints[f.name]):
            yield from _walk(hints[f.name], sub + ".", sub_key + ".")
        else:
            yield sub_key, (tuple(sub.split(".")), _PARSERS[hints[f.name]])


# key -> (attribute path from RunConfig, parser)
_KEYS = dict(_walk(RunConfig))


def set_key(run: RunConfig, key: str, value: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    path, parser = _KEYS[key]
    try:
        setattr(reduce(getattr, path[:-1], run), path[-1], parser(value))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None


def get_key(run: RunConfig, key: str):
    return reduce(getattr, _KEYS[key][0], run)


def all_keys():
    return sorted(_KEYS)


def effective_text(run: RunConfig) -> str:
    """All keys as `key = value` lines; parsing this text recreates the run."""
    return "".join(f"{k} = {format_value(get_key(run, k))}\n" for k in all_keys())


def config_hash(run: RunConfig) -> str:
    return hashlib.sha256(effective_text(run).encode()).hexdigest()[:12]


def parse_config_text(text: str):
    """key=value lines; '#' starts a comment; returns ordered (key, value) pairs."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def preset_run_config(preset: str = "tiny") -> RunConfig:
    """Named starting points. tiny: 32px desk scale; paper: 224px full shape."""
    if preset == "tiny":
        run = RunConfig(model=tiny_config())
        run.train.epochs = 20
        run.data = DatasetSpec(kind="synthetic", target_size=32)
    elif preset == "paper":
        run = RunConfig(model=paper_config())
        run.train.epochs = 20
        run.data = DatasetSpec(kind="cifar10", target_size=224)
        run.data.augment = AugmentFlags(crop=True, flip=True, rotate=True, jitter=True)
    else:
        raise ConfigError(f"unknown preset {preset!r} (expected tiny or paper)")
    return run
