"""Flat ``key = value`` run configuration files.

One setting per line; ``#`` starts a full-line comment; keys are dotted
paths (``opt.lr``, ``layer.0.type``). Every key must be known, and a
``layer.i.*`` key must be a field of layer i's type (LAYER_FIELDS): a
typo'd key is an error, not a silently ignored setting.

KEYS holds each fixed key's one rule (type, range or choices, default),
FIELDS each layer field's; the rules that span several keys are checked
where RunConfig reads those keys together, the stack's shape by
nn.check_stack. Every ConfigError names the key, or every key, at fault.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines, nn
from .nn import LAYER_TYPES
from .pointcloud import SYNTH_KINDS, SYNTH_MIN_NOISE, SYNTH_MIN_POINTS, TASKS


class ConfigError(ValueError):
    """Missing, malformed, unknown, or out-of-range configuration."""


@contextmanager
def config_errors(prefix: str):
    """A ValueError raised inside, or an OverflowError (a value past
    float range), is a ConfigError led by ``prefix``, which names the keys
    at fault."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


# each parser maps a value's text to the value, or raises a ValueError saying what it expects


def _value(kind: type = int, low: float | None = None, positive: bool = False):
    """A parser of one finite ``kind`` (int or float) value, at least
    ``low`` and, with ``positive``, above 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            kind_name = "integer" if kind is int else "number"
            raise ValueError(f"expected {kind_name}, got {text!r}") from None
        if kind is float and not np.isfinite(value):
            raise ValueError(f"must be finite, got {text!r}")
        if positive and value <= 0:
            raise ValueError(f"must be positive, got {text}")
        if low is not None and value < low:
            raise ValueError(f"must be >= {low}, got {text}")
        return value

    return parse


def _one_of(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected {' or '.join(choices)}, got {text!r}")
        return text

    return parse


def _path(text: str) -> str:
    if not text:
        raise ValueError("expected a path, got ''")
    return text


def _widths(text: str) -> list[int]:
    """Comma-separated integers >= 1; no text is no width."""
    return [_value(int, 1)(tok) for tok in text.split(",")] if text else []


def _spacings(text: str) -> list[float]:
    """One or three comma-separated positive numbers, stored as three."""
    values = [_value(float, positive=True)(tok) for tok in text.split(",")]
    if len(values) not in (1, 3):
        raise ValueError("expected one or three comma-separated numbers")
    return values * 3 if len(values) == 1 else values


def _bench_sizes(text: str) -> list[tuple[int, ...]]:
    """Space-separated M:K:k triples: M points, K neighbours, k anchors per axis."""
    sizes = [tuple(_value(int, 1)(part) for part in tok.split(":")) for tok in text.split()]
    if not sizes or any(len(size) != 3 or size[2] % 2 == 0 for size in sizes):
        raise ValueError(f"expected space-separated M:K:k triples, k odd, got {text!r}")
    return sizes


# every fixed key: (the parser of its text, the text an absent key stands
# for, None when the key is required); layer settings are per-index (FIELDS)
KEYS = {
    "task": (_one_of(*TASKS), None),
    "seed": (_value(int), None),
    "out": (_path, None),
    "data.kind": (_one_of(*SYNTH_KINDS), None),
    "data.dir": (_path, None),
    "data.train": (_value(int, 0), None),
    "data.test": (_value(int, 0), None),
    "data.points": (_value(int, SYNTH_MIN_POINTS), None),
    "data.noise": (_value(float, SYNTH_MIN_NOISE), "0"),
    "layer.count": (_value(int, 1), None),
    "opt.lr": (_value(float, positive=True), None),
    "opt.weight_decay": (_value(float, 0), "0"),
    "opt.epochs": (_value(int, 0), None),
    "opt.batch": (_value(int, 1), "1"),
    "eval.checkpoint": (_path, None),
    "eval.split": (_one_of("train", "test", "all"), "test"),
    "export.checkpoint": (_path, None),
    "export.layer": (_value(int, 0), None),
    "bench.sizes": (_bench_sizes, "10000:16:7 100000:16:3"),
    "bench.reps": (_value(int, 5), "5"),
    "pcc.hidden": (_widths, "8,8"),
    "voxel.pitch": (_value(float, positive=True), "0.2"),
    "subvoxel.pitch": (_value(float, positive=True), "0.2"),
    "subvoxel.displacement": (_value(float, 0), "0.05"),
}
# the parser of each layer spec field; a conv layer's k, a and r are
# checked together by nn.conv_spec
FIELDS = {
    "in": _value(int, 1),
    "out": _value(int, 1),
    "k": _value(int, 1),
    "a": _spacings,
    "r": _value(float),
    "cap": _value(int, 1),
    "skip": lambda text: int(_one_of("0", "1")(text)),
}
# the spec fields of each layer type, in the order checkpoints write
# them; an optional field takes its default when absent
LAYER_FIELDS = {kind: record.fields for kind, record in LAYER_TYPES.items()}
FIELD_DEFAULTS = {"r": None, "skip": 0}
_LAYER_KEY = re.compile(r"^layer\.(0|[1-9]\d*)\.(type|%s)$" % "|".join(FIELDS))


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
        if key not in KEYS and not _LAYER_KEY.match(key):
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

    def get(self, key: str):
        """``key``'s value by its rule in KEYS: its default when absent."""
        parse, default = KEYS[key]
        text = self.values.get(key, default)
        if text is None:
            raise ConfigError(f"missing required config key {key!r}")
        with config_errors(f"{key}: "):
            return parse(text)

    def layer_specs(self, task: str | None = None) -> list[dict]:
        """The layer.* keys as a list of spec dicts (see nn.LayerStack),
        checked as one stack: each conv layer's grid and radius
        (nn.conv_spec), then the stack's shape and, given its ``task``,
        its pool layers (nn.check_stack)."""
        count = self.get("layer.count")
        specs = []
        for i in range(count):
            prefix = f"layer.{i}."
            texts = {k[len(prefix) :]: v for k, v in self.values.items() if k.startswith(prefix)}
            with config_errors(prefix):
                spec = parse_layer_spec(texts)
            if "k" in spec:
                keys = ", ".join(f"{prefix}{n} = {texts[n]}" for n in ("k", "a", "r") if n in texts)
                with config_errors(f"{keys}: "):
                    nn.conv_spec(spec)
            specs.append(spec)
        stray = sorted(k for k in self.values if (m := _LAYER_KEY.match(k)) and int(m[1]) >= count)
        if stray:
            raise ConfigError(f"layer keys beyond layer.count: {stray}")
        nn.check_stack(specs, task, error=ConfigError)
        return specs

    def opt_settings(self) -> dict:
        """The opt.* keys as nn.train_stack keyword arguments; nn.init_adam
        checks opt.lr and opt.weight_decay together."""
        lr, weight_decay = self.get("opt.lr"), self.get("opt.weight_decay")
        with config_errors(f"opt.lr = {lr:g}, opt.weight_decay = {weight_decay:g}: "):
            nn.init_adam([], lr=lr, weight_decay=weight_decay)
        return dict(lr=lr, weight_decay=weight_decay,
                    epochs=self.get("opt.epochs"), batch_size=self.get("opt.batch"))

    def probe_settings(self) -> tuple[float, float]:
        """subvoxel.pitch and subvoxel.displacement, which
        baselines.check_subvoxel checks together."""
        pitch, disp = self.get("subvoxel.pitch"), self.get("subvoxel.displacement")
        with config_errors(f"subvoxel.pitch = {pitch:g}, subvoxel.displacement = {disp:g}: "):
            baselines.check_subvoxel(pitch, disp)
        return pitch, disp

    def split_sizes(self, split: str) -> tuple[int, int]:
        """data.train and data.test of a synthesised dataset, where
        ``split`` must hold a cloud: all (the two together, as synthesis
        needs), each (both splits, as training needs), or train or test
        (the eval.split value)."""
        train, test = self.get("data.train"), self.get("data.test")
        if {"all": train + test, "each": min(train, test), "train": train, "test": test}[split]:
            return train, test
        where = {"all": "the dataset", "each": "a split"}.get(split, f"eval.split = {split}")
        raise ConfigError(f"{where} holds no clouds (data.train = {train}, data.test = {test})")


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
        try:
            spec[name] = FIELDS[name](texts[name]) if name in texts else FIELD_DEFAULTS[name]
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return spec
