"""Equilibrium policy learning for finite-horizon simultaneous-move
stochastic games: multi-agent no-regret stage solving inside a backward
per-timestep value-fitting loop, with a simultaneous-move MCTS baseline
and a head-to-head evaluation harness.
"""

from . import approx, baseline, cce, config, data, games, harness, persist, \
    trainer
from .bandit import IxParams, default_schedule, run_exp_ix
from .cce import (ma_exp_ix_batch, normalize_losses, prune_dominated,
                  verify_cce)
from .config import Config, ConfigError, load_config
from .games import Game, GameState, game_from_id
from .trainer import TrainedAgent, train

__version__ = "0.1.0"

__all__ = [
    "approx", "baseline", "cce", "config", "data", "games", "harness",
    "persist", "trainer",
    "IxParams", "default_schedule", "run_exp_ix",
    "ma_exp_ix_batch", "normalize_losses", "prune_dominated",
    "verify_cce",
    "Config", "ConfigError", "load_config",
    "Game", "GameState", "game_from_id",
    "TrainedAgent", "train",
    "__version__",
]
