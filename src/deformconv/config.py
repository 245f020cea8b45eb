"""Flat ``key = value`` run configuration files.

One setting per line; ``#`` starts a full-line comment; keys are dotted
paths (``opt.lr``, ``layer.0.type``). Every key must be known, and a
``layer.i.*`` key must be a field of layer i's type (LAYER_FIELDS): a
typo'd key is an error, not a silently ignored setting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .nn import LAYER_TYPES


class ConfigError(ValueError):
    """Missing, malformed, unknown, or out-of-range configuration."""


# every legal key; layer settings are per-index
_FIXED_KEYS = {
    "task",
    "seed",
    "out",
    "data.kind",
    "data.dir",
    "data.train",
    "data.test",
    "data.points",
    "data.noise",
    "layer.count",
    "opt.lr",
    "opt.weight_decay",
    "opt.epochs",
    "opt.batch",
    "eval.checkpoint",
    "eval.split",
    "export.checkpoint",
    "export.layer",
    "bench.sizes",
    "bench.reps",
    "pcc.hidden",
    "voxel.pitch",
    "subvoxel.pitch",
    "subvoxel.displacement",
}
# the spec fields of each layer type, in the order checkpoints write
# them; an optional field takes its default when absent
LAYER_FIELDS = {kind: record.fields for kind, record in LAYER_TYPES.items()}
FIELD_DEFAULTS = {"r": None, "skip": 0}
_FIELD_NAMES = sorted({name for fields in LAYER_FIELDS.values() for name in fields})
_LAYER_KEY = re.compile(r"^layer\.(0|[1-9]\d*)\.(type|%s)$" % "|".join(_FIELD_NAMES))


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in _FIXED_KEYS and not _LAYER_KEY.match(key):
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def load_config(path) -> "RunConfig":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return RunConfig(parse_config_text(text, source=str(path)))


@dataclass
class RunConfig:
    """Typed access over the parsed key/value map."""

    values: dict[str, str]

    def has(self, key: str) -> bool:
        return key in self.values

    def get_str(self, key: str, default: str | None = None) -> str:
        if key in self.values:
            return self.values[key]
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def get_int(self, key: str, default: int | None = None) -> int:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        try:
            return int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key}: expected integer, got {self.values[key]!r}") from None

    def get_float(self, key: str, default: float | None = None) -> float:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        try:
            return _finite(key, self.values[key])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def layer_specs(self) -> list[dict]:
        """The layer.* keys as a list of spec dicts (see nn.build_stack)."""
        count = self.get_int("layer.count")
        if count < 1:
            raise ConfigError("layer.count must be >= 1")
        specs = []
        for i in range(count):
            prefix = f"layer.{i}."
            texts = {k[len(prefix) :]: v for k, v in self.values.items() if k.startswith(prefix)}
            try:
                specs.append(parse_layer_spec(texts))
            except ValueError as exc:
                raise ConfigError(f"{prefix}{exc}") from None
        stray = sorted(k for k in self.values if (m := _LAYER_KEY.match(k)) and int(m[1]) >= count)
        if stray:
            raise ConfigError(f"layer keys beyond layer.count: {stray}")
        return specs

    def int_list(self, key: str, default: list[int]) -> list[int]:
        if key not in self.values:
            return default
        raw = self.values[key]
        try:
            return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated integers") from None


def parse_layer_spec(texts: dict[str, str]) -> dict:
    """A layer-spec dict from the text of each field, ``type`` included;
    raises ValueError naming the field at fault."""
    kind = texts.get("type")
    if kind is None:
        raise ValueError("type: missing required field")
    if kind not in LAYER_FIELDS:
        raise ValueError(f"type: unknown layer type {kind!r}")
    for name in texts:
        if name != "type" and name not in LAYER_FIELDS[kind]:
            raise ValueError(f"{name}: not a field of layer type {kind!r}")
    spec: dict = {"type": kind}
    for name in LAYER_FIELDS[kind]:
        if name not in texts and name not in FIELD_DEFAULTS:
            raise ValueError(f"{name}: missing required field")
        spec[name] = _parse_field(name, texts[name]) if name in texts else FIELD_DEFAULTS[name]
    return spec


def _parse_field(name: str, text: str):
    """in/out/k/cap: integers >= 1; a: one or three positive spacings,
    stored as three; r: a finite radius; skip: 0 or 1."""
    if name == "a":
        vals = [_finite(name, t) for t in text.split(",") if t.strip() != ""]
        if len(vals) not in (1, 3):
            raise ValueError("a: expected one or three comma-separated numbers")
        if any(v <= 0 for v in vals):
            raise ValueError("a: spacings must be positive")
        return vals * 3 if len(vals) == 1 else vals
    if name == "r":
        return _finite(name, text)
    if name == "skip":
        if text not in ("0", "1"):
            raise ValueError(f"skip: expected 0 or 1, got {text!r}")
        return int(text)
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name}: expected integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"{name}: must be >= 1, got {value}")
    return value


def _finite(name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name}: expected number, got {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{name}: value must be finite")
    return value
