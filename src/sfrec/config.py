"""Experiment configuration: file of ``key = value`` lines plus overrides.

Every knob has a validated default; unknown keys and out-of-range values are
rejected by name so a typo in a config file fails loudly instead of silently
running the wrong experiment.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "parse_value"]

VARIANTS = ("independent", "f2s", "s2f_full")
FORMATS = ("ml1m", "tsv", "cluster")
PRECISIONS = ("float32", "float64")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: str = ""
    data_format: str = "ml1m"
    variant: str = "s2f_full"
    dim: int = 32
    # examples per Adam step; a training context (a positive plus its
    # n_train_neg negatives) is never split, so when 1 + n_train_neg does not
    # divide batch_size a step fires at the first context boundary past it
    batch_size: int = 256
    lr: float = 5e-4
    l2: float = 1e-4
    mlp_layers: int = 3
    threshold: int = 5
    slow_epochs: int = 10
    fast_epochs: int = 5
    patience: int = 2
    seeds: int = 3
    base_seed: int = 0
    min_seq_len: int = 20
    n_train_neg: int = 1
    n_eval_neg: int = 100
    pool_size: int = 20
    expose_k: int = 4
    eval_ks: list = field(default_factory=lambda: [5, 10])
    max_users: int = 0  # 0 = everyone
    max_history_len: int = 30
    max_positions_per_user: int = 32
    precision: str = "float32"
    record_timing: bool = True

    def mlp_hidden(self):
        """Hidden widths for the prediction heads, one fewer than layer count."""
        ladder = (64, 32, 16, 8, 4)
        return ladder[: self.mlp_layers - 1]

    def validate(self):
        positive_fields = (
            "dim",
            "batch_size",
            "lr",
            "l2",
            "mlp_layers",
            "threshold",
            "slow_epochs",
            "fast_epochs",
            "seeds",
            "min_seq_len",
            "n_train_neg",
            "n_eval_neg",
            "pool_size",
            "max_history_len",
            "max_positions_per_user",
        )
        for name in positive_fields:
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("patience", "base_seed", "expose_k", "max_users"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.data_format not in FORMATS:
            raise ConfigError(f"data_format must be one of {FORMATS}, got {self.data_format!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
        if self.mlp_layers > 5:
            raise ConfigError(f"mlp_layers capped at 5, got {self.mlp_layers}")
        if not self.eval_ks or any(k < 1 for k in self.eval_ks) or len(set(self.eval_ks)) < len(self.eval_ks):
            raise ConfigError(f"eval_ks must be distinct positive integers, got {self.eval_ks}")
        if self.min_seq_len < 20:
            raise ConfigError(
                f"min_seq_len below 20 breaks the 10/5/5 phase arithmetic, got {self.min_seq_len}"
            )
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def parse_value(key, raw):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "list":
            return [int(part) for part in raw.split(",") if part.strip()]
        return raw
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r}: {err}") from None


def load_config(path=None, overrides=None):
    """Build a validated config from an optional file plus override pairs.

    File syntax: one ``key = value`` per line, ``#`` comments, blank lines
    ignored.  ``overrides`` (a key -> value dict, e.g. from CLI flags) wins
    over file values.  Each value parses from its text (a list joined
    with commas); a mistyped value or a non-UTF-8 line is a ConfigError.
    """
    values = {}
    if path is not None:
        with open(path, "rb") as fh:
            for lineno, raw_line in enumerate(fh, start=1):
                try:
                    line = raw_line.decode("utf-8")
                except UnicodeDecodeError as err:
                    raise ConfigError(f"{path}:{lineno}: not UTF-8 text ({err.reason})") from None
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                values[key] = parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        values[key] = parse_value(key, ",".join(map(str, raw)) if isinstance(raw, list) else str(raw))
    return ExperimentConfig(**values).validate()
