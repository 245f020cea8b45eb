"""Point cloud containers, dfc-xyz file I/O, and synthetic datasets.

Positions are metric (meters) float64 throughout. A cloud always holds at
least one point; features are a dense (M, D') matrix aligned row-for-row
with the positions; labels are optional per-point integers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .rng import DetRng

CLASSIFICATION = "classification"
SEGMENTATION = "segmentation"
TASKS = (CLASSIFICATION, SEGMENTATION)

SYNTH_KINDS = ("shapes4", "two-surfaces-seg")

# shapes4 class order; each generated cloud carries one of these labels
SHAPE_NAMES = ("sphere", "cube-surface", "plane-patch", "torus")


class XyzFormatError(ValueError):
    """Malformed dfc-xyz content. Message names the offending line."""


def _freeze(obj, name: str, arr: np.ndarray) -> None:
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class PointCloud:
    """Immutable point set: positions (M,3), features (M,D'), labels (M,)?"""

    positions: np.ndarray
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64, copy=True)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (M, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("a point cloud must contain at least one point")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain non-finite values")
        feat = np.array(self.features, dtype=np.float64, copy=True)
        if feat.ndim != 2 or feat.shape[0] != pos.shape[0]:
            raise ValueError(
                f"features must be ({pos.shape[0]}, D'), got {feat.shape}"
            )
        if not np.all(np.isfinite(feat)):
            raise ValueError("features contain non-finite values")
        _freeze(self, "positions", pos)
        _freeze(self, "features", feat)
        if self.labels is not None:
            lab = np.array(self.labels, copy=True)
            if lab.ndim != 1 or lab.shape[0] != pos.shape[0]:
                raise ValueError(f"labels must be ({pos.shape[0]},), got {lab.shape}")
            if not np.issubdtype(lab.dtype, np.integer):
                raise ValueError("labels must be integers")
            lab = lab.astype(np.int64)
            if np.any(lab < 0):
                raise ValueError("labels must be non-negative")
            _freeze(self, "labels", lab)

    @property
    def num_points(self) -> int:
        return self.positions.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def translated(self, delta) -> "PointCloud":
        """Same cloud with every position shifted by delta (3-vector)."""
        d = np.asarray(delta, dtype=np.float64).reshape(3)
        return PointCloud(self.positions + d, self.features, self.labels)


@dataclass(frozen=True)
class Dataset:
    """A list of clouds plus the task they are labelled for."""

    clouds: list[PointCloud] = field(default_factory=list)
    num_classes: int = 1
    task: str = CLASSIFICATION

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        for i, cloud in enumerate(self.clouds):
            if cloud.labels is None:
                raise ValueError(f"cloud {i}: labelled task requires labels")
            if np.any(cloud.labels >= self.num_classes):
                raise ValueError(f"cloud {i}: label out of range")
            if self.task == CLASSIFICATION and np.unique(cloud.labels).size != 1:
                raise ValueError(
                    f"cloud {i}: classification clouds must carry one uniform label"
                )

    def __len__(self) -> int:
        return len(self.clouds)


def save_xyz(cloud: PointCloud, path) -> None:
    """Write a cloud as dfc-xyz text.

    Line 1 is the header ``# dfc-xyz D=<int> labeled=<0|1>``; every data
    line holds x y z, D' feature values, and (if labelled) the integer
    label. Floats are printed with 17 significant digits so a load/save
    round trip reproduces every float64 bit-exactly.
    """
    labeled = cloud.labels is not None
    line = " ".join(["%.17g"] * (3 + cloud.feature_dim) + ["%d"] * labeled) + "\n"
    rows = np.hstack([cloud.positions, cloud.features]).tolist()
    if labeled:
        rows = [row + [label] for row, label in zip(rows, cloud.labels.tolist())]
    with atomic_open(path) as fh:
        fh.write(f"# dfc-xyz D={cloud.feature_dim} labeled={int(labeled)}\n")
        for row in rows:
            fh.write(line % tuple(row))


def load_xyz(path) -> PointCloud:
    """Parse a dfc-xyz file. Raises XyzFormatError naming the bad line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise XyzFormatError(f"{path}: not an ASCII text file") from None
    if not lines:
        raise XyzFormatError(f"{path}:1: empty file, expected dfc-xyz header")
    header = lines[0].strip()
    bad = XyzFormatError(f"{path}:1: bad header {header!r}")
    # four whitespace-separated tokens
    tokens = re.fullmatch(r"# dfc-xyz D=(\S*) labeled=(\S*)", " ".join(header.split()))
    if tokens is None:
        raise bad
    try:
        dim, labeled = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise bad from None
    if dim < 0 or labeled not in (0, 1):
        raise bad

    expected = 3 + dim + labeled
    positions, features, labels = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != expected:
            raise XyzFormatError(
                f"{path}:{lineno}: expected {expected} fields, got {len(parts)}"
            )
        try:
            values = [float(tok) for tok in parts[: 3 + dim]]
        except ValueError:
            raise XyzFormatError(f"{path}:{lineno}: non-numeric field") from None
        if not all(map(math.isfinite, values)):
            raise XyzFormatError(f"{path}:{lineno}: non-finite value")
        positions.append(values[:3])
        features.append(values[3 : 3 + dim])
        if labeled:
            try:
                labels.append(int(parts[-1]))
            except ValueError:
                raise XyzFormatError(f"{path}:{lineno}: non-integer label") from None
    if not positions:
        raise XyzFormatError(f"{path}: no data lines")
    pos = np.asarray(positions, dtype=np.float64)
    feat = (
        np.asarray(features, dtype=np.float64)
        if dim
        else np.zeros((len(positions), 0))
    )
    try:
        lab = np.asarray(labels, dtype=np.int64) if labeled else None
        return PointCloud(pos, feat, lab)
    except (ValueError, OverflowError) as exc:  # OverflowError: a label past int64
        raise XyzFormatError(f"{path}: {exc}") from None


def _unit_sphere(rng: DetRng, n: int) -> np.ndarray:
    """n points uniform on the unit sphere (normalised Gaussians)."""
    v = rng.normals(3 * n).reshape(n, 3)
    norm = np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 2] ** 2)
    # a zero 3-vector has probability ~0; keep the guard cheap
    norm[norm == 0.0] = 1.0
    return v / norm[:, None]


def _shape_points(rng: DetRng, shape: int, n: int) -> np.ndarray:
    """Sample n points on one canonical shapes4 surface (pre-noise).

    Geometry is fixed per class so tests can verify it exactly:
      0 sphere       radius 0.5, centre origin
      1 cube-surface side 0.8, axis-aligned, centre origin
      2 plane-patch  z = 0, x and y in [-0.7, 0.7]
      3 torus        major radius 0.5, minor radius 0.18, xy-plane
    All coordinates lie inside [-1, 1]^3 before noise is added.
    """
    if shape == 0:
        return 0.5 * _unit_sphere(rng, n)
    if shape == 1:
        half = 0.4
        face = rng.integers(n, 0, 6)
        u = rng.uniforms(n, -half, half)
        v = rng.uniforms(n, -half, half)
        pts = np.empty((n, 3))
        axis = face % 3  # which coordinate is pinned
        sign = np.where(face < 3, half, -half)
        for d in range(3):
            sel = axis == d
            pts[sel, d] = sign[sel]
            others = [od for od in range(3) if od != d]
            pts[sel, others[0]] = u[sel]
            pts[sel, others[1]] = v[sel]
        return pts
    if shape == 2:
        pts = np.zeros((n, 3))
        pts[:, 0] = rng.uniforms(n, -0.7, 0.7)
        pts[:, 1] = rng.uniforms(n, -0.7, 0.7)
        return pts
    if shape == 3:
        major, minor = 0.5, 0.18
        theta = rng.uniforms(n, 0.0, 2.0 * np.pi)
        phi = rng.uniforms(n, 0.0, 2.0 * np.pi)
        ring = major + minor * np.cos(phi)
        return np.stack(
            [ring * np.cos(theta), ring * np.sin(theta), minor * np.sin(phi)], axis=1
        )
    raise ValueError(f"unknown shape id {shape}")


def _default_features(positions: np.ndarray) -> np.ndarray:
    """Input features for synthetic clouds: a constant-one channel plus
    the z coordinate. The constant channel lets a filter read pure local
    geometry; the height channel gives pointwise layers something to use.
    """
    feat = np.ones((positions.shape[0], 2))
    feat[:, 1] = positions[:, 2]
    return feat


def synth_dataset(
    kind: str,
    n_clouds: int,
    points_per_cloud: int,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Generate a labelled synthetic dataset.

    Pure function of its arguments: the same five values produce
    bit-identical clouds on every platform (all draws come from DetRng).

    kinds:
      shapes4          classification, 4 classes, cloud i gets class i % 4
      two-surfaces-seg segmentation, 2 classes (plane=0, sphere=1)
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; known: {SYNTH_KINDS}")
    if n_clouds < 1:
        raise ValueError("n_clouds must be >= 1")
    if points_per_cloud < 8:
        raise ValueError("points_per_cloud must be >= 8")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")

    rng = DetRng(seed)
    clouds = []
    if kind == "shapes4":
        for i in range(n_clouds):
            label = i % 4
            pts = _shape_points(rng, label, points_per_cloud)
            if noise_sigma > 0:
                pts = pts + rng.normals(pts.size, 0.0, noise_sigma).reshape(pts.shape)
            labels = np.full(points_per_cloud, label, dtype=np.int64)
            clouds.append(PointCloud(pts, _default_features(pts), labels))
        return Dataset(clouds, num_classes=4, task=CLASSIFICATION)

    # two-surfaces-seg: a horizontal plane patch plus a sphere above it
    for _ in range(n_clouds):
        n_plane = points_per_cloud // 2
        n_sphere = points_per_cloud - n_plane
        z0 = rng.uniform(-0.6, -0.2)
        plane = np.empty((n_plane, 3))
        plane[:, 0] = rng.uniforms(n_plane, -0.8, 0.8)
        plane[:, 1] = rng.uniforms(n_plane, -0.8, 0.8)
        plane[:, 2] = z0
        centre = np.array(
            [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.3)]
        )
        radius = rng.uniform(0.25, 0.4)
        sphere = centre + radius * _unit_sphere(rng, n_sphere)
        pts = np.concatenate([plane, sphere], axis=0)
        if noise_sigma > 0:
            pts = pts + rng.normals(pts.size, 0.0, noise_sigma).reshape(pts.shape)
        labels = np.concatenate(
            [np.zeros(n_plane, dtype=np.int64), np.ones(n_sphere, dtype=np.int64)]
        )
        clouds.append(PointCloud(pts, _default_features(pts), labels))
    return Dataset(clouds, num_classes=2, task=SEGMENTATION)
