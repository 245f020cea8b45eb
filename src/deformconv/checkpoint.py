"""DFC1 checkpoint files: text header plus raw float64 payload.

Layout:

    DFC1\n
    task = segmentation\n
    seed = 7\n
    classes = 2\n
    layers = 3\n
    layer.0 = type=deformable in=2 out=8 k=3 a=0.2,0.2,0.2 cap=16 skip=0\n
    ...
    params = 1234\n
    \n
    <1234 little-endian float64 values>

Each layer line holds the fields of its layer type (config.LAYER_FIELDS)
in that order, read by the same rules as a config file's layer.* keys:
``a`` has three spacings, ``r`` is omitted when it is the default
radius, and ``skip`` is 0 or 1. Floats in the header are printed with
17 significant digits, so a load/save round trip reproduces the file
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .atomic import atomic_open
from .config import FIELD_DEFAULTS, LAYER_FIELDS, parse_layer_spec
from .pointcloud import TASKS

_MAGIC = b"DFC1\n"


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint content."""


@dataclass(frozen=True)
class Checkpoint:
    """A trained (or freshly initialised) stack, detached from code."""

    task: str
    seed: int
    num_classes: int
    layer_specs: list[dict]
    params: np.ndarray  # flat float64

    def build_stack(self) -> "nn.LayerStack":
        return nn.build_stack(self.layer_specs, self.task, flat=self.params.copy())


def _format_spec(spec: dict) -> str:
    parts = [f"type={spec['type']}"]
    for name in LAYER_FIELDS[spec["type"]]:
        value = spec[name] if name in spec else FIELD_DEFAULTS[name]
        if name in ("a", "r") and value is not None:
            value = ",".join("%.17g" % v for v in np.atleast_1d(value))
        if value is not None:
            parts.append(f"{name}={value}")
    return " ".join(parts)


def _parse_spec(line: str, where: str) -> dict:
    fields = {}
    for tok in line.split():
        if "=" not in tok:
            raise CheckpointError(f"{where}: bad token {tok!r}")
        key, _, val = tok.partition("=")
        if key in fields:
            raise CheckpointError(f"{where}: duplicate field {key!r}")
        fields[key] = val
    try:
        return parse_layer_spec(fields)
    except ValueError as exc:
        raise CheckpointError(f"{where}.{exc}") from None


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    if ckpt.task not in TASKS:
        raise CheckpointError(f"unknown task {ckpt.task!r}")
    expected = nn.spec_param_count(ckpt.layer_specs)
    if ckpt.params.shape != (expected,):
        raise CheckpointError(
            f"params hold {ckpt.params.shape} values, layer specs need {expected}"
        )
    if not np.all(np.isfinite(ckpt.params)):
        raise CheckpointError("params contain non-finite values")
    lines = [
        f"task = {ckpt.task}",
        f"seed = {ckpt.seed}",
        f"classes = {ckpt.num_classes}",
        f"layers = {len(ckpt.layer_specs)}",
    ]
    for i, spec in enumerate(ckpt.layer_specs):
        lines.append(f"layer.{i} = {_format_spec(spec)}")
    lines.append(f"params = {expected}")
    header = "".join(line + "\n" for line in lines)
    payload = np.ascontiguousarray(ckpt.params, dtype="<f8").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header.encode("ascii"))
        fh.write(b"\n")
        fh.write(payload)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path}: missing DFC1 magic")
    sep = blob.find(b"\n\n", len(_MAGIC) - 1)
    if sep < 0:
        raise CheckpointError(f"{path}: missing header/payload separator")
    header = blob[len(_MAGIC) : sep].decode("ascii", errors="replace")
    payload = blob[sep + 2 :]

    fields: dict[str, str] = {}
    for line in header.splitlines():
        key, eq, val = line.partition(" = ")
        if not eq:
            raise CheckpointError(f"{path}: bad header line {line!r}")
        if key in fields:
            raise CheckpointError(f"{path}: duplicate header key {key!r}")
        fields[key] = val
    try:
        task = fields["task"]
        seed = int(fields["seed"])
        num_classes = int(fields["classes"])
        n_layers = int(fields["layers"])
        n_params = int(fields["params"])
    except (KeyError, ValueError):
        raise CheckpointError(f"{path}: incomplete header") from None
    if task not in TASKS:
        raise CheckpointError(f"{path}: unknown task {task!r}")
    # exactly layer.0 .. layer.<n-1>: no sign, separator or leading zero
    layer_keys = [f"layer.{i}" for i in range(n_layers)]
    found = [k for k in fields if k.startswith("layer.")]
    if set(found) != set(layer_keys):
        raise CheckpointError(f"{path}: header declares {n_layers} layers, holds {found}")
    specs = [_parse_spec(fields[k], f"{path}: {k}") for k in layer_keys]
    expected = nn.spec_param_count(specs)
    if expected != n_params:
        raise CheckpointError(
            f"{path}: header claims {n_params} params, layers need {expected}"
        )
    if len(payload) != 8 * n_params:
        raise CheckpointError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * n_params}"
        )
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(params)):
        raise CheckpointError(f"{path}: payload contains non-finite values")
    return Checkpoint(
        task=task,
        seed=seed,
        num_classes=num_classes,
        layer_specs=specs,
        params=params,
    )
