"""Bayesian adaptive budget allocation: posterior filtering, value-net
training, and online policy execution."""

from .net import (
    PolicyNet,
    TrainSchedule,
    learning_rate_search,
    net_forward,
    net_loss_and_grads,
    train_level,
    xavier_net,
)
from .niw import (
    niw_update_diag_stats,
    niw_update_stats,
    restrict_niw,
)
from .policy import (
    ActionSpec,
    AdaptiveRunResult,
    FeatureLayout,
    PolicyBundle,
    PosteriorState,
    f_plugin,
    run_adaptive,
)
from .training import (
    AdaptiveConfig,
    Trajectory,
    TrajectorySet,
    f_precompute,
    fit_value_functions,
    forward_pass,
    generate_strategies,
    mc_value_final,
)

__all__ = [
    "ActionSpec",
    "AdaptiveConfig",
    "AdaptiveRunResult",
    "FeatureLayout",
    "PolicyBundle",
    "PolicyNet",
    "PosteriorState",
    "Trajectory",
    "TrajectorySet",
    "TrainSchedule",
    "f_plugin",
    "f_precompute",
    "fit_value_functions",
    "forward_pass",
    "generate_strategies",
    "learning_rate_search",
    "mc_value_final",
    "net_forward",
    "net_loss_and_grads",
    "niw_update_diag_stats",
    "niw_update_stats",
    "restrict_niw",
    "run_adaptive",
    "train_level",
    "xavier_net",
]
