"""Tests for agent checkpoint directories."""

import os

import numpy as np
import pytest
from _oracles import PerPlayerAgent

from equilearn.approx import PolicyModel, QValueModel, SupportCodec, \
    ValueModel, fit_tabular, save_model
from equilearn.baseline import smcts_train
from equilearn.cli import main
from equilearn.config import Config
from equilearn.data import UniformPolicySource, generate_tree
from equilearn.games import game_from_id
from equilearn.persist import (load_policy_agent, load_smcts_agent,
                               sanitize_game_id, save_smcts_agent,
                               save_trained_agent)
from equilearn.trainer import (MlpValueSource, TabularValueSource,
                               TrainedAgent, train)

FAST_NET = {
    "net.q_hidden": "8", "net.q_rep": "4", "net.policy_hidden": "8",
    "net.policy_rep": "4", "net.learning_rate": "1e-3",
    "net.q_dropout": "0.0", "net.policy_dropout": "0.0",
    "net.q_epochs": "2", "net.policy_epochs": "2", "net.batch_size": "32",
}


def test_sanitize_game_id():
    assert sanitize_game_id("matrix:mp") == "matrix-mp"
    assert sanitize_game_id("pursuit:5x5") == "pursuit-5x5"
    assert sanitize_game_id("/weird//id:") == "weird-id"


def test_trained_agent_roundtrip(tmp_path):
    cfg = Config({"game": "matrix:mp", "train.outer_iters": "1",
                  "train.trajectories": "200", "train.cv_trees": "1",
                  "train.gate_matches": "4", "cce.rounds": "300", **FAST_NET})
    agent = train(cfg)
    save_trained_agent(agent, str(tmp_path), "matrix:mp")
    # game is inferred from checkpoint metadata
    restored = load_policy_agent(str(tmp_path))
    assert restored.game.spec.action_counts == (2, 2)
    state = restored.game.start_states()[0][0]
    for p in range(2):
        np.testing.assert_allclose(restored.policy(state, p),
                                   agent.policy(state, p), atol=1e-4)
    # value networks reload per layer, under the same share mode
    assert set(restored.value_models) == set(agent.value_models)
    for h, source in agent.value_models.items():
        loaded = restored.value_models[h]
        assert loaded.share_mode == source.share_mode == "zero_sum"
        assert set(loaded.models) == set(source.models) == {0}


def test_smcts_agent_roundtrip(tmp_path):
    cfg = Config({"game": "chain:1", "smcts.simulations": "300",
                  "smcts.iterations": "1", "smcts.batches": "5",
                  "smcts.eval_simulations": "10",
                  "train.gate_matches": "4", **FAST_NET})
    agent = smcts_train(cfg)
    save_smcts_agent(agent, str(tmp_path), "chain:1")
    restored = load_smcts_agent(str(tmp_path), eval_simulations=10)
    assert restored.game.spec.horizon == 2
    state = restored.game.start_states()[0][0]
    obs = {p: [restored.game.observe(state, p)] for p in range(2)}
    np.testing.assert_allclose(restored.observed_value(obs),
                               agent.observed_value(obs), atol=1e-4)
    for p in range(2):
        np.testing.assert_allclose(restored.policy(state, p),
                                   agent.policy(state, p), atol=1e-4)


def test_search_agent_directory_loads_as_distilled_play(tmp_path):
    """``policy:<dir>`` on a search agent's directory plays its policy
    networks alone: the loaded agent's ``policy`` is the frozen one-row
    rule's bits on reachable states, and ``head2head`` runs it."""
    cfg = Config({"game": "pursuit", "smcts.simulations": "200",
                  "smcts.iterations": "1", "smcts.batches": "5",
                  "train.gate_matches": "4", **FAST_NET})
    save_smcts_agent(smcts_train(cfg), str(tmp_path), "pursuit")
    distilled = load_policy_agent(str(tmp_path))
    assert type(distilled) is TrainedAgent and distilled.value_models == {}
    game, frozen = distilled.game, PerPlayerAgent(distilled)
    tree = generate_tree(game, UniformPolicySource(), 200,
                         rng=np.random.default_rng(0))
    states = [node.state for layer in tree.layers for node in layer.values()
              if not node.state.terminal]
    assert len(states) > 100
    for state in states:
        for p in range(game.num_players):
            assert (distilled.policy(state, p).tobytes()
                    == frozen.policy(state, p).tobytes())
    assert main(["head2head", "--game", "pursuit",
                 "--out-dir", str(tmp_path / "match"),
                 "--agent-a", f"policy:{tmp_path}",
                 "--agent-b", f"smcts:{tmp_path}", "--seed", "1",
                 "--set", "match.count=4",
                 "--set", "smcts.eval_simulations=5"]) == 0


def test_load_rejects_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_policy_agent(str(tmp_path / "nope"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        load_policy_agent(str(empty))


def _tiny_policies(game):
    return [PolicyModel(game.observation_size, game.spec.action_counts[p],
                        trunk_hidden=(4,), rep_size=3, head_hidden=(4,),
                        seed=p)
            for p in range(game.num_players)]


def _write_checkpoints(directory, game, game_id, value_models, timestep):
    """Write a checkpoint directory file by file, named as the savers
    name their files: a policy network per player, and ``value_models``
    (player -> network) at ``timestep`` (-1 for all timesteps)."""
    directory.mkdir()
    tag = sanitize_game_id(game_id)
    for p, model in enumerate(_tiny_policies(game)):
        save_model(str(directory / f"{tag}_{p}_policy.ccef"), model,
                   game=game_id, player=p)
    h = "all" if timestep == -1 else timestep
    for p, model in value_models.items():
        save_model(str(directory / f"{tag}_{p}_{h}.ccef"), model,
                   game=game_id, player=p, timestep=timestep)


@pytest.mark.parametrize("game_id, players", [
    ("matrix:mp", (0, 1)),      # zero-sum: only player 0 owns a network
    ("pursuit", (0,)),          # no symmetry: every player owns one
])
def test_loaders_reject_value_players_against_share_mode(tmp_path, game_id,
                                                         players):
    """A directory whose value networks disagree with the game's share
    mode cannot come from a built agent, so it is written file by file;
    both loaders refuse it, naming the directory and the layer."""
    game = game_from_id(game_id)
    codec = SupportCodec(num_bins=5)
    q = {p: QValueModel(game.observation_size, game.spec.action_counts,
                        codec, trunk_hidden=(4,), rep_size=3,
                        head_hidden=(4,), seed=p) for p in players}
    _write_checkpoints(tmp_path / "policy", game, game_id, q, timestep=0)
    v = {p: ValueModel(game.observation_size, codec, trunk_hidden=(4,),
                       rep_size=3, head_hidden=(4,), seed=p)
         for p in players}
    _write_checkpoints(tmp_path / "smcts", game, game_id, v, timestep=-1)
    for load, name, layer in [(load_policy_agent, "policy", "0"),
                              (load_smcts_agent, "smcts", "all")]:
        directory = str(tmp_path / name)
        with pytest.raises(ValueError) as err:
            load(directory)
        assert str(err.value).startswith(
            f"{directory}: layer {layer}: value networks for players")


def test_save_refuses_tabular_value_sources(tmp_path):
    """A value table has no checkpoint format, so an agent holding one
    is refused before any file is written, even when an earlier layer
    holds networks that could be saved."""
    game = game_from_id("goofspiel:3")
    codec = SupportCodec(num_bins=5)
    q = {0: QValueModel(game.observation_size, game.spec.action_counts,
                        codec, trunk_hidden=(4,), rep_size=3,
                        head_hidden=(4,), seed=0)}
    start = game.start_states()[0][0].key()
    table = fit_tabular([(start, (0, 0), np.array([1.0, 0.0]))])
    agent = TrainedAgent(game, _tiny_policies(game),
                         {0: MlpValueSource(game, q),
                          1: TabularValueSource(table)})
    with pytest.raises(ValueError, match="layer 1 .*tabular"):
        save_trained_agent(agent, str(tmp_path), "goofspiel:3")
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".ccef")]
