"""Run configuration: hyperparameters, paths, and ablation switches."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigurationError
from .segnet import AblationConfig


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 8
    lr_init: float = 0.01
    lr_min: float = 1e-5
    weight_decay: float = 5e-4
    gan_iterations: int = 500
    gan_lr: float = 5e-4
    gan_batch_size: int = 1
    seed: int = 0
    image_size: int = 64
    data_dir: str = "data"
    out_dir: str = "runs"
    gan_checkpoint: str = "runs/gan.ckpt"
    ablation: AblationConfig = field(default_factory=AblationConfig)
    n_train: int = 200
    n_val: int = 40
    n_test: int = 40

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is float and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.lr_min > self.lr_init:
            raise ConfigurationError("lr_min must not exceed lr_init")
        if self.epochs < 1 or self.batch_size < 1 or self.gan_batch_size < 1:
            raise ConfigurationError(
                "epochs, batch_size and gan_batch_size must be >= 1")
        if self.gan_iterations < 0:
            raise ConfigurationError("gan_iterations must be >= 0")
        if min(self.lr_min, self.gan_lr, self.weight_decay) < 0:
            raise ConfigurationError(
                "lr_min, gan_lr and weight_decay must be >= 0")

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = _checked(cls, d, "config")
        abl = _checked(AblationConfig, d.pop("ablation", {}), "ablation")
        return cls(**d, ablation=AblationConfig(**abl))

    @classmethod
    def from_json_file(cls, path) -> "TrainConfig":
        return cls.from_dict(read_json_object(path))


def field_types(cls) -> dict:
    """Field name -> JSON type: a scalar's default type, dict for a nested config."""
    return {f.name: dict if f.default is MISSING else type(f.default)
            for f in fields(cls)}


def _checked(cls, d, where) -> dict:
    """d with unknown keys and mistyped values rejected; ints widen to float."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    types = field_types(cls)
    out = {}
    for key, value in d.items():
        if key not in types:
            raise ConfigurationError(f"unknown {where} key: {key!r}")
        if types[key] is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise ConfigurationError(
                    f"{where} key {key!r} is out of float range") from None
        if type(value) is not types[key]:
            raise ConfigurationError(
                f"{where} key {key!r} must be {types[key].__name__}, "
                f"got {type(value).__name__}")
        out[key] = value
    return out


def read_json_object(path) -> dict:
    """Parse a JSON config file; a missing or malformed file is a config error."""
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        d = json.loads(p.read_text())
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nested too deep
        raise ConfigurationError(f"malformed config file {p}: {e}") from None
    if not isinstance(d, dict):
        raise ConfigurationError(f"config file {p} must hold a JSON object")
    return d
