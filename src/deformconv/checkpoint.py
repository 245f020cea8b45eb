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
in that order, read by the rules of a config file's layer.* keys: ``a``
has three spacings, ``r`` is omitted when it is the default radius, and
``skip`` is 0 or 1. Floats are printed with 17 significant digits.

A file loads only if saving the loaded checkpoint writes the same
header, line for line, the payload holds the counted values, and the
checkpoint is valid: finite params, a stack that builds (nn.LayerStack
checks the task, that the parameters fit one float64 array and match the
count, the width chain (each layer's ``in`` equal to the width the layer
before it emits), the pool rules, each grid and each radius against its
filter support), and a ``classes`` header equal to the width the stack
emits (unchecked for a stack of relu and pool layers alone). Saving
decodes the bytes it would write by this rule, and refuses before it
opens the file a checkpoint whose file would not load.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import nn
from .atomic import atomic_open
from .config import FIELD_DEFAULTS, LAYER_FIELDS, parse_layer_spec

_MAGIC = b"DFC1\n"


class CheckpointError(ValueError):
    """Unreadable, inconsistent or unbuildable checkpoint content."""


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
    for name in LAYER_FIELDS.get(spec["type"], ()):  # a bad spec is refused by _decode
        value = spec.get(name, FIELD_DEFAULTS.get(name))
        if name in ("a", "r") and value is not None:
            value = ",".join("%.17g" % v for v in np.atleast_1d(value))
        if value is not None:
            parts.append(f"{name}={value}")
    return " ".join(parts)


def _read_spec(line: str) -> dict:
    """A layer line's spec; the ValueError names the field at fault."""
    return parse_layer_spec(dict(tok.partition("=")[::2] for tok in line.split()))


def _header(ckpt: Checkpoint) -> list[str]:
    """The header lines saving writes, between the magic and the blank line."""
    return [
        f"task = {ckpt.task}",
        f"seed = {ckpt.seed}",
        f"classes = {ckpt.num_classes}",
        f"layers = {len(ckpt.layer_specs)}",
        *(f"layer.{i} = {_format_spec(spec)}" for i, spec in enumerate(ckpt.layer_specs)),
        f"params = {np.size(ckpt.params)}",
    ]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = ("".join(line + "\n" for line in _header(ckpt)) + "\n").encode("ascii", "replace")
    payload = np.ascontiguousarray(ckpt.params, dtype="<f8").tobytes()
    _decode(_MAGIC + header + payload, path)  # refuses what would not load
    with atomic_open(path, "wb") as fh:
        for part in (_MAGIC, header, payload):
            fh.write(part)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    return _decode(blob, path)


def _decode(blob: bytes, path) -> Checkpoint:
    """The checkpoint in a file's bytes, if they load; errors name ``path``."""
    if not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path}: missing DFC1 magic")
    sep = blob.find(b"\n\n", len(_MAGIC) - 1)
    if sep < 0:
        raise CheckpointError(f"{path}: missing header/payload separator")
    lines = blob[len(_MAGIC) : sep].decode("ascii", errors="replace").split("\n")
    payload = blob[sep + 2 :]
    fields: dict[str, str] = {}
    for line in lines:
        key, eq, value = line.partition(" = ")
        if not eq:
            raise CheckpointError(f"{path}: bad header line {line!r}")
        fields.setdefault(key, value)  # a repeated line fails the comparison below

    def field(at: int, key: str, read=str):
        """``key``'s value read by ``read``; saving writes it on header line ``at``."""
        if key not in fields:
            got = f"is {lines[at - 1]!r}" if at <= len(lines) else "is missing"
            raise CheckpointError(f"{path}: incomplete header, no {key!r}; header line {at} {got}")
        try:
            return read(fields[key])
        except ValueError as exc:  # int() past Python's digit limit too
            join = "." if key.startswith("layer.") else ": "  # layer.0.cap: ...
            raise CheckpointError(f"{path}: {key}{join}{exc}") from None

    specs = [field(5 + i, f"layer.{i}", _read_spec) for i in range(field(4, "layers", int))]
    count = field(5 + len(specs), "params", int)
    if len(payload) != 8 * count:
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, expected {8 * count}")
    ckpt = Checkpoint(field(1, "task"), field(2, "seed", int), field(3, "classes", int),
                      specs, np.frombuffer(payload, dtype="<f8").astype(np.float64))
    for at, (got, want) in enumerate(zip_longest(lines, _header(ckpt), fillvalue=""), 1):
        if got != want:
            raise CheckpointError(f"{path}: header line {at} is {got!r}, saving writes {want!r}")
    if not np.all(np.isfinite(ckpt.params)):
        raise CheckpointError(f"{path}: params contain non-finite values")
    try:
        width = ckpt.build_stack().width
    except ValueError as exc:
        raise CheckpointError(f"{path}: stack does not build: {exc}") from None
    if width not in (None, ckpt.num_classes):
        raise CheckpointError(f"{path}: classes = {ckpt.num_classes}, "
                              f"but the stack emits {width} channels")
    return ckpt
