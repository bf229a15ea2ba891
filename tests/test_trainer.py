"""Tests for the backward-layer training loop and its pieces."""

import itertools

import numpy as np
import pytest

from equilearn import baseline, trainer
from equilearn.approx import ComposedModel, PolicyModel, QValueModel, \
    SupportCodec, ValueModel, fit_tabular
from equilearn.cce import verify_cce
from equilearn.config import Config
from equilearn.data import GameTree, TreeNode, UniformPolicySource, \
    generate_tree
from equilearn.games import game_from_id
from equilearn.games.matrix import ChainGame, matching_pennies, \
    prisoners_dilemma
from equilearn.trainer import (AgentPolicySource, GateDecision,
                               MlpValueSource, TabularValueSource,
                               TrainedAgent,
                               deepest_layer, frontier_values,
                               grounding_layer, process_layer,
                               share_mode_for, train, validation_gate,
                               value_players)

from _oracles import eager_generate_tree, q_predict

FAST_NET = {
    "net.q_hidden": "8", "net.q_rep": "4", "net.policy_hidden": "8",
    "net.policy_rep": "4", "net.learning_rate": "1e-3",
    "net.q_dropout": "0.0", "net.policy_dropout": "0.0",
    "net.q_epochs": "2", "net.policy_epochs": "2", "net.batch_size": "32",
}


def _chain_tree(sims=2000, seed=0):
    game = ChainGame(seed=1)
    tree = generate_tree(game, UniformPolicySource(), sims,
                         rng=np.random.default_rng(seed))
    return game, tree


def _tabular_cfg(**over):
    return Config({"game": "chain:1", "train.value_backend": "tabular",
                   "cce.rounds": "1500", **over})


def test_share_mode_for():
    assert share_mode_for(matching_pennies()) == "zero_sum"
    assert share_mode_for(prisoners_dilemma()) == "none"


@pytest.mark.parametrize("game_id, players", [
    ("matrix:mp", (0, 1)),      # zero-sum: only player 0 owns a network
    ("pursuit", (0,)),          # no symmetry: every player owns one
    ("pursuit", ()),
])
def test_value_network_holders_check_players_against_share_mode(game_id,
                                                                players):
    """Both holders of value networks, the learner's per-layer source and
    the search agent, are built only for the players that own a network
    under the game's share mode."""
    game = game_from_id(game_id)
    codec = SupportCodec(num_bins=5)
    q = {p: QValueModel(game.observation_size, game.spec.action_counts,
                        codec, trunk_hidden=(4,), rep_size=3,
                        head_hidden=(4,), seed=p) for p in players}
    with pytest.raises(ValueError, match="value networks for players"):
        MlpValueSource(game, q)
    v = {p: ValueModel(game.observation_size, codec, trunk_hidden=(4,),
                       rep_size=3, head_hidden=(4,), seed=p)
         for p in players}
    with pytest.raises(ValueError, match="value networks for players"):
        baseline.SmctsAgent(game, v, _tiny_policies(game))


def _tiny_policies(game):
    return [PolicyModel(game.observation_size, game.spec.action_counts[p],
                        trunk_hidden=(6,), rep_size=4, head_hidden=(6,),
                        dropout_rate=0.0, seed=10 + p)
            for p in range(game.num_players)]


def _mlp_source(game, hidden=(6,)):
    codec = SupportCodec(num_bins=5)
    players = value_players(share_mode_for(game), game.num_players)
    return MlpValueSource(game, {p: QValueModel(
        game.observation_size, game.spec.action_counts, codec,
        trunk_hidden=hidden, rep_size=4, head_hidden=hidden,
        dropout_rate=0.0, seed=p) for p in players})


def _tabular_source(game):
    """A table over some of the joint actions of the layer-0 states; the
    source gives the rest 0.5."""
    rng = np.random.default_rng(5)
    tree = generate_tree(game, UniformPolicySource(), 50, rng=rng)
    counts = game.spec.action_counts
    joints = list(itertools.product(*(range(a) for a in counts)))
    records = [(node.state.key(), j, rng.random(game.num_players))
               for node in tree.layer_of(0) for j in joints[::2]]
    return TabularValueSource(fit_tabular(records))


def _walk(game, steps, seed=0):
    """The states of one uniform random walk, terminal state excluded."""
    rng = np.random.default_rng(seed)
    state = game.sample_start(rng)
    out = []
    while not state.terminal and len(out) < steps:
        out.append(state)
        joint = tuple(int(rng.choice(game.legal_actions(state, p)))
                      for p in range(game.num_players))
        state = game.step(state, joint).next_state
    return out


@pytest.mark.parametrize("game_id, make_source", [
    ("pursuit", _mlp_source),          # 3 players, 125 joint actions
    ("chain:1", _tabular_source),
])
def test_agent_policy_source_is_policy_weighted_joint_value_mean(
        game_id, make_source):
    game = game_from_id(game_id)
    source = make_source(game)
    agent = TrainedAgent(game, _tiny_policies(game),
                         {h: source for h in range(game.horizon)})
    counts = game.spec.action_counts
    joints = list(itertools.product(*(range(a) for a in counts)))
    assert len(joints) == int(np.prod(counts))
    for state in _walk(game, 3):
        values, weights = AgentPolicySource(agent).predict(game, [state])
        value, weights = values[0], weights[0]
        vals = source.joint_values(game, [state])[0]
        assert vals.shape == (len(joints), game.num_players)
        total = 0.0
        expected = np.zeros(game.num_players)
        for row, joint in enumerate(joints):
            w = 1.0
            for p, a in enumerate(joint):
                w *= agent.policy(state, p)[a]
            total += w
            expected += w * vals[row]
        np.testing.assert_allclose(value, expected / total, rtol=1e-12)
        for p, a in enumerate(counts):
            np.testing.assert_array_equal(weights[p, :a],
                                          agent.policy(state, p))
            assert not weights[p, a:].any()


def test_joint_values_rows_follow_product_order():
    game = game_from_id("pursuit")
    source = _mlp_source(game)
    state = game.sample_start(np.random.default_rng(0))
    vals = source.joint_values(game, [state])[0]
    joints = list(itertools.product(*(range(a) for a in
                                      game.spec.action_counts)))
    for row in (0, 7, 64, 124):
        for p in range(game.num_players):
            single = q_predict(source.models[p], game.observe(state, p),
                               [joints[row]])
            assert vals[row, p] == pytest.approx(float(single[0]),
                                                 rel=1e-12)


def _nonterminal_states(game, sims=300):
    tree = generate_tree(game, UniformPolicySource(), sims,
                         rng=np.random.default_rng(0))
    return [node.state for layer in tree.layers for node in layer.values()
            if not node.state.terminal]


@pytest.mark.parametrize("game_id", ["pursuit", "goofspiel:4"])
def test_joint_values_of_a_state_are_the_same_bits_in_any_batch(game_id):
    """Every state's joint values are the same bits in one call on all
    of a tree's states, in batches of 1 to 25 and alone."""
    game = game_from_id(game_id)
    source = _mlp_source(game, (16, 16))
    states = _nonterminal_states(game)
    whole = source.joint_values(game, states)
    sizes, start = itertools.cycle([1, 2, 25, 7]), 0
    while start < len(states):
        batch = states[start:start + next(sizes)]
        got = source.joint_values(game, batch)
        assert got.tobytes() == whole[start:start + len(batch)].tobytes()
        start += len(batch)
    for i, state in enumerate(states):
        assert (source.joint_values(game, [state]).tobytes()
                == whole[i:i + 1].tobytes())


@pytest.mark.parametrize("game_id", ["pursuit", "goofspiel:4"])
def test_factored_joint_values_match_row_by_row_reference(game_id):
    """The factored head gives every (state, joint action) row the value
    of a full trunk and head pass over that row, within rel 1e-12."""
    game = game_from_id(game_id)
    source = _mlp_source(game, (16, 16))
    states = _nonterminal_states(game)[::7]
    joints = list(itertools.product(*(range(a) for a in
                                      game.spec.action_counts)))
    vals = source.joint_values(game, states)
    for p, model in source.models.items():
        obs = np.stack([game.observe(s, p) for s in states])
        want = q_predict(model, np.repeat(obs, len(joints), axis=0),
                         joints * len(states))
        np.testing.assert_allclose(vals[:, :, p].ravel(), want, rtol=1e-12,
                                   atol=0)


def _rollout_sources(game):
    """Prediction sources of every kind that rollouts use: uniform, a
    learner over MLP and over tabular layer values, and the search
    agent's networks."""
    def learner(source):
        return AgentPolicySource(TrainedAgent(
            game, _tiny_policies(game),
            {h: source for h in range(game.horizon)}))

    values = {p: ValueModel(game.observation_size, SupportCodec(num_bins=5),
                            trunk_hidden=(6,), rep_size=4, head_hidden=(6,),
                            dropout_rate=0.0, seed=p)
              for p in value_players(share_mode_for(game),
                                     game.num_players)}
    return {"uniform": UniformPolicySource(),
            "mlp": learner(_mlp_source(game)),
            "tabular": learner(_tabular_source(game)),
            "smcts": baseline.SmctsSource(baseline.SmctsAgent(
                game, values, _tiny_policies(game)))}


def _tree_record(tree):
    """Every node, layer by layer in insertion order: key, visit count,
    value and CDF bytes, and children."""
    return [(key, node.visit_count, np.asarray(node.value).tobytes(),
             None if node.cdf is None else node.cdf.tobytes(),
             [(joint, child.state.key())
              for joint, child in node.children.items()])
            for layer in tree.layers for key, node in layer.items()]


@pytest.mark.parametrize("source_name", ["uniform", "mlp", "tabular",
                                         "smcts"])
@pytest.mark.parametrize("game_id", ["pursuit", "goofspiel:4"])
def test_deferred_tree_matches_eager_tree(game_id, source_name):
    """Deferred predictions build the tree that predicting each node when
    it is made builds, byte for byte, from the same generator stream."""
    game = game_from_id(game_id)
    source = _rollout_sources(game)[source_name]
    rngs = np.random.default_rng(3), np.random.default_rng(3)
    trees = (generate_tree(game, source, 300, randomize=0.5, rng=rngs[0]),
             eager_generate_tree(game, source, 300, randomize=0.5,
                                 rng=rngs[1]))
    assert _tree_record(trees[0]) == _tree_record(trees[1])
    assert trees[0].node_count() > 100
    assert rngs[0].random() == rngs[1].random()


def test_generate_tree_predicts_pending_nodes_together():
    """Rollouts predict their new nodes in fewer ``predict`` calls than
    nodes, and predict each node once."""
    game = game_from_id("pursuit")
    inner = _rollout_sources(game)["mlp"]
    predicted = []
    batches = []

    class Counting:
        def predict(self, game, states):
            batches.append(len(states))
            predicted.extend(id(s) for s in states)
            return inner.predict(game, states)

    tree = generate_tree(game, Counting(), 300, randomize=0.5,
                         rng=np.random.default_rng(0))
    nodes = [id(node.state) for layer in tree.layers
             for node in layer.values() if not node.state.terminal]
    assert sorted(predicted) == sorted(nodes)
    assert len(batches) < len(nodes)


def test_grounding_layer_keeps_saturated_terminal():
    game, tree = _chain_tree()
    assert deepest_layer(tree) == 2
    # 16 terminal nodes against 4 parents: never trimmed
    assert grounding_layer(tree) == 2


def test_grounding_layer_trims_thin_frontier():
    game, tree = _chain_tree()
    # simulate a barely-explored frontier: 1 node under 10% of the
    # 16-node layer above it would sit at layer 3 if the game were longer
    thin = GameTree(game)
    thin.layers = tree.layers + [dict(list(tree.layers[2].items())[:1])]
    assert grounding_layer(thin) == 2


def test_frontier_values_normalize_per_player():
    game, tree = _chain_tree()
    values = frontier_values(game, tree, 2)
    arr = np.stack(list(values.values()))
    assert arr.min() == pytest.approx(0.0)
    assert arr.max() == pytest.approx(1.0)
    # the best terminal return per player maps to value 1
    returns = np.stack([game.terminal_returns(n.state)
                        for n in tree.layer_of(2)])
    for p in range(2):
        best = int(np.argmax(returns[:, p]))
        key = tree.layer_of(2)[best].state.key()
        assert values[key][p] == pytest.approx(1.0)


def test_process_layer_tabular_contract():
    game, tree = _chain_tree()
    cfg = _tabular_cfg()
    child_values = frontier_values(game, tree, 2)
    result = process_layer(game, tree, 1, child_values, cfg, 0,
                           np.random.default_rng(0))
    nodes = tree.layer_of(1)
    assert set(result.values) == {n.state.key() for n in nodes}
    for v in result.values.values():
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert len(result.policy_records) == len(nodes) * game.num_players
    for _, _, policy in result.policy_records:
        assert policy.sum() == pytest.approx(1.0)
    assert result.mean_epsilon is not None and result.mean_epsilon < 0.2


def test_process_layer_epsilon_is_over_legal_deviations():
    """On Goofspiel-3's last decision layer each player holds one card,
    so the only legal deviation is the card played and the logged
    epsilon is exactly 0."""
    game = game_from_id("goofspiel:3")
    tree = generate_tree(game, UniformPolicySource(), 400,
                         rng=np.random.default_rng(0))
    cfg = Config({"game": "goofspiel:3", "train.value_backend": "tabular",
                  "cce.rounds": "500"})
    h = game.horizon - 1
    child_values = frontier_values(game, tree, game.horizon)
    result = process_layer(game, tree, h, child_values, cfg, 0,
                           np.random.default_rng(0))
    assert result.mean_epsilon == 0.0


def test_process_layer_epsilon_covers_every_state(monkeypatch):
    """The logged epsilon is the mean, 95th percentile and maximum, over
    every state of the layer, of the epsilon each state's own solve
    reaches over its legal deviations. On this layer of 54 states the
    first three alone give another mean."""
    game = game_from_id("goofspiel:3")
    tree = generate_tree(game, UniformPolicySource(), 400,
                         rng=np.random.default_rng(0))
    cfg = Config({"game": "goofspiel:3", "train.value_backend": "tabular",
                  "cce.rounds": "200"})
    solves = []
    solve = trainer.ma_exp_ix_batch

    def recording_solve(loss_tensors, *args, **kwargs):
        out = solve(loss_tensors, *args, **kwargs)
        solves.append((loss_tensors, out))
        return out

    monkeypatch.setattr(trainer, "ma_exp_ix_batch", recording_solve)
    child_values = frontier_values(game, tree, game.horizon)
    rng = np.random.default_rng(0)
    for h in (2, 1):
        result = process_layer(game, tree, h, child_values, cfg, 0, rng)
        child_values = result.values
    tensors, out = solves[-1]
    states = [node.state for node in tree.layer_of(1)]
    assert len(states) == len(tensors) > 3
    eps = []
    for b, state in enumerate(states):
        legal = np.zeros((1, 2, 3), dtype=bool)
        for p in range(2):
            legal[0, p, list(game.legal_actions(state, p))] = True
        dist = out.joint_counts[b].reshape(tensors.shape[1:-1]) / out.rounds
        eps.append(verify_cce(tensors[b:b + 1], dist[None], legal)[0])
    assert result.mean_epsilon == pytest.approx(np.mean(eps), abs=1e-12)
    assert result.p95_epsilon == pytest.approx(np.percentile(eps, 95),
                                               abs=1e-12)
    assert result.max_epsilon == max(eps)
    assert abs(np.mean(eps[:3]) - np.mean(eps)) > 1e-3


def test_validation_gate_accepts_first_and_ties():
    game = game_from_id("matrix:mp")

    class FixedAgent:
        name = "fixed"

        def act(self, game, state, player, rng):
            return 0

    agent = FixedAgent()
    first = validation_gate(agent, None, game, n_matches=10, seed=0)
    assert first.accepted and first.improved
    tie = validation_gate(agent, first.score, game, n_matches=10, seed=0)
    assert tie.accepted and not tie.improved
    worse = validation_gate(agent, first.score + 1.0, game, n_matches=10,
                            seed=0)
    assert not worse.accepted


def test_trained_agent_policy_masks_illegal_actions():
    cfg = Config({"game": "goofspiel:3", "train.outer_iters": "1",
                  "train.trajectories": "400", "train.cv_trees": "1",
                  "train.gate_matches": "8", "cce.rounds": "200", **FAST_NET})
    agent = train(cfg)
    game = agent.game
    # play one card, then the agent must put zero mass on it
    state = game.step(game.start_states()[0][0], (1, 1)).next_state
    p = agent.policy(state, 0)
    assert p[1] == 0.0
    assert p.sum() == pytest.approx(1.0)
    a = agent.act(game, state, 0, np.random.default_rng(0))
    assert a in game.legal_actions(state, 0)


def test_train_tabular_smoke_and_logs():
    cfg = Config({"game": "chain:1", "train.value_backend": "tabular",
                  "train.outer_iters": "2", "train.trajectories": "600",
                  "train.cv_trees": "2", "train.gate_matches": "8",
                  "cce.rounds": "400", **FAST_NET})
    agent = train(cfg)
    assert isinstance(agent, TrainedAgent)
    assert agent.gate_score is not None
    layers = {r["layer"] for r in agent.training_log if r["layer"] is not None}
    assert layers == {0, 1}
    gates = [r["gate"] for r in agent.training_log if r["gate"]]
    assert len(gates) == 2 and gates[0].startswith("accept")


def test_train_learns_dominant_action_in_pd():
    """One-shot prisoner's dilemma: the distilled policies defect."""
    cfg = Config({"game": "matrix:pd", "train.outer_iters": "1",
                  "train.trajectories": "200", "train.cv_trees": "1",
                  "train.gate_matches": "8", "cce.rounds": "2000",
                  **dict(FAST_NET, **{"net.policy_epochs": "300",
                                      "net.q_epochs": "80",
                                      "net.learning_rate": "1e-2"})})
    agent = train(cfg)
    state = agent.game.start_states()[0][0]
    for p in range(2):
        assert agent.policy(state, p)[1] > 0.8


def test_tabular_cap_enforced():
    cfg = Config({"game": "chain:1", "train.value_backend": "tabular",
                  "train.outer_iters": "1", "train.trajectories": "600",
                  "train.cv_trees": "1", "train.gate_matches": "4",
                  "train.tabular_cap": "3", "cce.rounds": "100", **FAST_NET})
    with pytest.raises(ValueError):
        train(cfg)


# learner -> (module whose generate_tree it calls, its training function,
# config, first gate seed)
GATED_LEARNERS = {
    "train": (trainer, train, {
        "game": "matrix:mp", "train.outer_iters": "4",
        "train.trajectories": "200", "train.cv_trees": "1",
        "cce.rounds": "100"}, 500_000),
    "smcts": (baseline, baseline.smcts_train, {
        "game": "chain:1", "smcts.iterations": "4",
        "smcts.simulations": "200", "smcts.batches": "3",
        "smcts.eval_simulations": "4"}, 700_000),
}


@pytest.mark.parametrize("learner", sorted(GATED_LEARNERS))
def test_gated_loop_rolls_back_and_stops_on_patience(monkeypatch, learner):
    """Scores 0.4, 0.2, 0.4 under patience 2: the first candidate is
    accepted, the second is rolled back and feeds nothing after it, the
    third ties and is accepted without improving, and the loop stops
    there, a full iteration short of its four."""
    module, fit, settings, gate_base = GATED_LEARNERS[learner]
    scores = iter([0.4, 0.2, 0.4, 0.9])
    gates = []

    def scripted_gate(candidate, previous_score, game, n_matches, seed):
        score = next(scores)
        gates.append((candidate, previous_score, seed))
        if previous_score is None:
            return GateDecision(score, accepted=True, improved=True)
        return GateDecision(score, accepted=score >= previous_score,
                            improved=score > previous_score)

    rollout_agents = []
    generate = module.generate_tree

    def recording_generate(game, source, *args, **kwargs):
        rollout_agents.append(getattr(source, "agent", None))
        return generate(game, source, *args, **kwargs)

    monkeypatch.setattr(trainer, "validation_gate", scripted_gate)
    monkeypatch.setattr(module, "generate_tree", recording_generate)
    agent = fit(Config({**settings, "seed": "3", "train.patience": "2",
                        "train.gate_matches": "4", **FAST_NET}))

    candidates = [c for c, _, _ in gates]
    assert len(gates) == 3
    assert [prev for _, prev, _ in gates] == [None, 0.4, 0.4]
    assert [seed for _, _, seed in gates] == [3 + gate_base + it
                                             for it in range(3)]
    assert agent is candidates[2]
    assert agent.gate_score == 0.4
    rows = [r["gate"] for r in agent.training_log if r["gate"]]
    assert rows == ["accept score=0.4000", "rollback score=0.2000",
                    "accept score=0.4000"]
    # one tree per iteration (one candidate tree for train): the rolled
    # back candidate never becomes the rollout policy
    assert rollout_agents == [None, candidates[0], candidates[0]]


@pytest.mark.parametrize("learner", sorted(GATED_LEARNERS))
def test_agent_networks_are_not_fitted_after_the_agent_is_built(monkeypatch,
                                                               learner):
    """An agent's stacked passes read copies of its networks, so no
    network is fitted once an agent holds it: ``smcts_train`` fits before
    it builds each candidate, and ``train`` warm-starts from deep copies
    of the accepted agent's policy networks."""
    _, fit, settings, _ = GATED_LEARNERS[learner]
    held = {}     # id -> network, kept alive so no id is reused
    fitted_held = []
    build, fit_net = TrainedAgent.__init__, ComposedModel.fit

    def recording_build(self, game, policy_models, value_models, **kwargs):
        build(self, game, policy_models, value_models, **kwargs)
        models = list(policy_models)
        for source in value_models.values():
            models.extend(source.models.values())
        # a search agent sets its networks before this runs
        models.extend(getattr(self, "state_value_models", {}).values())
        held.update((id(m.net), m.net) for m in models)

    def recording_fit(self, *args, **kwargs):
        fitted_held.append(id(self) in held)
        return fit_net(self, *args, **kwargs)

    monkeypatch.setattr(TrainedAgent, "__init__", recording_build)
    monkeypatch.setattr(ComposedModel, "fit", recording_fit)
    fit(Config({**settings, "seed": "3", "train.patience": "4",
                "train.gate_matches": "4", **FAST_NET}))
    assert len(held) > 0 and len(fitted_held) > 0
    assert not any(fitted_held)
