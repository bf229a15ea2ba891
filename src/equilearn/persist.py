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
from .trainer import MlpValueSource, TrainedAgent


def sanitize_game_id(game_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", game_id).strip("-")


def _save_policies(agent: TrainedAgent, out_dir: str, game_id: str) -> str:
    """Create ``out_dir`` and write the agent's policy networks; returns
    the file-name tag of ``game_id``."""
    tag = sanitize_game_id(game_id)
    os.makedirs(out_dir, exist_ok=True)
    for p, model in enumerate(agent.policy_models):
        save_model(os.path.join(out_dir, f"{tag}_{p}_policy.ccef"),
                   model, game=game_id, player=p)
    return tag


def save_trained_agent(agent: TrainedAgent, out_dir: str, game_id: str):
    """Write every network of an equilibrium-trained agent. An agent
    whose layers hold value tables (the tabular backend) has nothing to
    write for them, so it is refused before any file is written."""
    for h, source in agent.value_models.items():
        if not isinstance(source, MlpValueSource):
            raise ValueError(f"layer {h} holds a value table from the "
                             f"tabular backend, which has no checkpoint "
                             f"format; save an agent trained with "
                             f"train.value_backend=mlp")
    tag = _save_policies(agent, out_dir, game_id)
    for h, source in agent.value_models.items():
        for p, model in source.models.items():
            save_model(os.path.join(out_dir, f"{tag}_{p}_{h}.ccef"),
                       model, game=game_id, player=p, timestep=h)


def save_smcts_agent(agent: SmctsAgent, out_dir: str, game_id: str):
    tag = _save_policies(agent, out_dir, game_id)
    for p, model in agent.state_value_models.items():
        save_model(os.path.join(out_dir, f"{tag}_{p}_all.ccef"),
                   model, game=game_id, player=p)


def _load(directory: str, game: Game | None, value_cls):
    """Read a checkpoint directory.

    Returns ``(game, policies, values)``: the game (from the files'
    game id unless given), one policy network per player in player
    order, and the ``value_cls`` networks as ``{timestep: {player:
    model}}``. The value networks' players are not checked here: the
    loaders build their agents through ``MlpValueSource`` and
    ``SmctsAgent``, which check them against the game's share mode.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"not a checkpoint directory: {directory}")
    loaded = [load_model(os.path.join(directory, f))
              for f in sorted(os.listdir(directory)) if f.endswith(".ccef")]
    if not loaded:
        raise FileNotFoundError(f"no .ccef checkpoints in {directory}")
    if game is None:
        ids = {meta.game for _, meta in loaded if meta.game}
        if len(ids) != 1:
            raise ValueError(f"ambiguous game ids in checkpoints: {ids}")
        game = game_from_id(ids.pop())
    policies: dict = {}
    values: dict = {}
    for model, meta in loaded:
        if isinstance(model, PolicyModel):
            policies[meta.player] = model
        elif isinstance(model, value_cls):
            values.setdefault(meta.timestep, {})[meta.player] = model
    n = game.num_players
    if sorted(policies) != list(range(n)):
        raise ValueError(f"expected one policy per player, got "
                         f"players {sorted(policies)}")
    return game, [policies[p] for p in range(n)], values


def _named(directory: str, layer, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError it raises names the
    checkpoint directory and the layer (a timestep or ``all``) whose
    value networks were refused."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{directory}: layer {layer}: {exc}") from exc


def load_policy_agent(directory: str, game: Game | None = None,
                      name: str = "nncce") -> TrainedAgent:
    """Rebuild a TrainedAgent from a checkpoint directory."""
    game, policies, values = _load(directory, game, QValueModel)
    sources = {h: _named(directory, h, MlpValueSource, game, models)
               for h, models in values.items()}
    return TrainedAgent(game, policies, sources, name=name)


def load_smcts_agent(directory: str, game: Game | None = None,
                     eval_simulations: int = 100,
                     name: str = "smcts") -> SmctsAgent:
    game, policies, values = _load(directory, game, ValueModel)
    if list(values) != [-1]:
        raise ValueError(f"{directory}: expected value networks for "
                         f"timestep all, got timesteps {sorted(values)}")
    return _named(directory, "all", SmctsAgent, game, values[-1], policies,
                  eval_simulations=eval_simulations, name=name)
