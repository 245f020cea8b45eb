"""Deformable-filter convolution for 3D point clouds.

Learnable filters live on a small lattice of anchor positions and are
deformed to the continuous offsets between neighbouring points by
trilinear interpolation, giving a convolution that is exactly
translation and permutation equivariant and sensitive to displacements
far below any voxel pitch.
"""

from .conv import (
    AnchorGrid,
    ConvLayerSpec,
    DeformableFilter,
    SeparableFilter,
    backward_features,
    backward_separable_features,
    default_radius,
    enclosing_anchors,
    forward_features,
    forward_separable_features,
    grid_from_spacing,
    interpolate_filter,
    oracle_forward_features,
    trilinear_weight,
)
from .pointcloud import (
    Dataset,
    PointCloud,
    load_xyz,
    save_xyz,
    synth_dataset,
)
from .rng import DetRng
from .spatial import (
    GridHashIndex,
    NeighborTable,
    brute_force_neighbors,
    build_index,
    radius_neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorGrid",
    "ConvLayerSpec",
    "Dataset",
    "DeformableFilter",
    "DetRng",
    "GridHashIndex",
    "NeighborTable",
    "PointCloud",
    "SeparableFilter",
    "backward_features",
    "backward_separable_features",
    "brute_force_neighbors",
    "build_index",
    "default_radius",
    "enclosing_anchors",
    "forward_features",
    "forward_separable_features",
    "grid_from_spacing",
    "interpolate_filter",
    "load_xyz",
    "oracle_forward_features",
    "radius_neighbors",
    "save_xyz",
    "synth_dataset",
    "trilinear_weight",
    "__version__",
]
