"""Saving and loading trained agents as checkpoint directories.

One file per network: ``{game}_{player}_policy.ccef`` for policy
networks, ``{game}_{player}_{timestep}.ccef`` for per-layer value
networks (SM-MCTS value networks use timestep ``all``). Game ids are
sanitized into filenames; the original id lives in each file's
metadata block.
"""

from __future__ import annotations

import os
import re

from .approx import PolicyModel, QValueModel, ValueModel, load_model, \
    save_model
from .baseline import SmctsAgent
from .games import game_from_id
from .games.base import Game
from .trainer import (MlpValueSource, TrainedAgent, share_mode_for,
                      value_players)


def sanitize_game_id(game_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", game_id).strip("-")


def save_trained_agent(agent: TrainedAgent, out_dir: str, game_id: str):
    """Write every network of an equilibrium-trained agent."""
    tag = sanitize_game_id(game_id)
    os.makedirs(out_dir, exist_ok=True)
    for p, model in enumerate(agent.policy_models):
        save_model(os.path.join(out_dir, f"{tag}_{p}_policy.ccef"),
                   model, game=game_id, player=p)
    for h, source in agent.value_models.items():
        if not isinstance(source, MlpValueSource):
            continue   # tabular backend: no network to persist
        for p, model in source.models.items():
            save_model(os.path.join(out_dir, f"{tag}_{p}_{h}.ccef"),
                       model, game=game_id, player=p, timestep=h)


def save_smcts_agent(agent: SmctsAgent, out_dir: str, game_id: str):
    tag = sanitize_game_id(game_id)
    os.makedirs(out_dir, exist_ok=True)
    for p, model in enumerate(agent.policy_models):
        save_model(os.path.join(out_dir, f"{tag}_{p}_policy.ccef"),
                   model, game=game_id, player=p)
    for p, model in agent.value_models.items():
        save_model(os.path.join(out_dir, f"{tag}_{p}_all.ccef"),
                   model, game=game_id, player=p)


def _checkpoint_files(directory: str):
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"not a checkpoint directory: {directory}")
    return sorted(f for f in os.listdir(directory) if f.endswith(".ccef"))


def _load_all(directory: str):
    loaded = []
    for f in _checkpoint_files(directory):
        model, meta = load_model(os.path.join(directory, f))
        loaded.append((model, meta))
    if not loaded:
        raise FileNotFoundError(f"no .ccef checkpoints in {directory}")
    return loaded


def _check_value_players(game: Game, players, share_mode: str, what: str):
    expected = value_players(share_mode, game.num_players)
    if sorted(players) != expected:
        raise ValueError(f"{what}: value networks for players "
                         f"{sorted(players)}, expected {expected} "
                         f"(share mode {share_mode!r})")


def _game_for(loaded, game: Game | None) -> Game:
    if game is not None:
        return game
    ids = {meta.game for _, meta in loaded if meta.game}
    if len(ids) != 1:
        raise ValueError(f"ambiguous game ids in checkpoints: {ids}")
    return game_from_id(ids.pop())


def load_policy_agent(directory: str, game: Game | None = None,
                      name: str = "nncce") -> TrainedAgent:
    """Rebuild a TrainedAgent from a checkpoint directory."""
    loaded = _load_all(directory)
    game = _game_for(loaded, game)
    policies: dict = {}
    values: dict = {}
    for model, meta in loaded:
        if isinstance(model, PolicyModel):
            policies[meta.player] = model
        elif isinstance(model, QValueModel):
            values.setdefault(meta.timestep, {})[meta.player] = model
    if sorted(policies) != list(range(game.num_players)):
        raise ValueError(f"expected one policy per player, got "
                         f"players {sorted(policies)}")
    share = share_mode_for(game)
    for h, models in values.items():
        _check_value_players(game, models, share, f"{directory} layer {h}")
    sources = {h: MlpValueSource(models, share)
               for h, models in values.items()}
    return TrainedAgent(game, [policies[p] for p in range(game.num_players)],
                        sources, name=name)


def load_smcts_agent(directory: str, game: Game | None = None,
                     eval_simulations: int = 100, search_play: bool = True,
                     name: str = "smcts") -> SmctsAgent:
    loaded = _load_all(directory)
    game = _game_for(loaded, game)
    policies: dict = {}
    values: dict = {}
    for model, meta in loaded:
        if isinstance(model, PolicyModel):
            policies[meta.player] = model
        elif isinstance(model, ValueModel):
            values[meta.player] = model
    if sorted(policies) != list(range(game.num_players)):
        raise ValueError(f"expected one policy per player, got "
                         f"players {sorted(policies)}")
    share = share_mode_for(game)
    _check_value_players(game, values, share, directory)
    return SmctsAgent(game, values, [policies[p]
                                     for p in range(game.num_players)],
                      share, eval_simulations=eval_simulations,
                      search_play=search_play, name=name)
