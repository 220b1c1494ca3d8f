"""Multi-timescale feature learning for weakly-supervised video anomaly
detection: autodiff core, fusion network, objective, trainer, data I/O,
frame-level metrics, and a CLI."""

from .model import ModelConfig, forward, init_params
from .objective import LossBreakdown, LossWeights, total_loss
from .trainer import TrainConfig, train

__all__ = [
    "ModelConfig",
    "forward",
    "init_params",
    "LossBreakdown",
    "LossWeights",
    "total_loss",
    "TrainConfig",
    "train",
]
