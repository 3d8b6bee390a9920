"""Point cloud simplification: learned attention-based sampling, classical
baselines, neighborhood-search backends, and a benchmark CLI."""

from .core import (
    CasNetConfig,
    NeighborTable,
    PointCloud,
    RunRecord,
    ratio_to_count,
    validate_cloud,
)

__version__ = "0.1.0"

__all__ = [
    "CasNetConfig",
    "NeighborTable",
    "PointCloud",
    "RunRecord",
    "ratio_to_count",
    "validate_cloud",
    "__version__",
]
