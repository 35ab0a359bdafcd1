"""Factor-graph estimation, prediction and planning for 2D navigation."""

from .lie import Pose2, Pose3, embed_se3

__all__ = [
    "Pose2",
    "Pose3",
    "embed_se3",
]
