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
from .niw import niw_update_diag_stats
from .policy import (
    ActionSpec,
    AdaptiveConfig,
    PolicyBundle,
    PosteriorState,
    f_plugin,
    run_adaptive,
)
from .training import (
    Trajectory,
    f_precompute,
    fit_value_functions,
    forward_pass,
    generate_strategies,
    mc_value_final,
)

__all__ = [
    "ActionSpec",
    "AdaptiveConfig",
    "PolicyBundle",
    "PolicyNet",
    "PosteriorState",
    "Trajectory",
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
    "run_adaptive",
    "train_level",
    "xavier_net",
]
