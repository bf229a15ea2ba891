"""Tests for the simultaneous-move search baseline."""

import numpy as np
import pytest

from equilearn import baseline
from equilearn.approx import PolicyModel, SupportCodec, ValueModel
from equilearn.baseline import (SmctsAgent, backup_tree_values, smcts_search,
                                smcts_train, tree_to_replay, visit_policy)
from equilearn.config import Config
from equilearn.data import (GameTree, ReplayBuffer, TreeNode,
                            UniformPolicySource, generate_tree)
from equilearn.games.goofspiel import GoofspielGame
from equilearn.games.matrix import ChainGame, MatrixGame, matching_pennies
from equilearn.games.pursuit import PursuitGame
from equilearn.harness import play_paired, run_match
from equilearn.trainer import share_mode_for

FAST_NET = {
    "net.q_hidden": "8", "net.q_rep": "4", "net.policy_hidden": "8",
    "net.policy_rep": "4", "net.learning_rate": "1e-3",
    "net.q_dropout": "0.0", "net.policy_dropout": "0.0",
    "net.batch_size": "32",
}


def _chain_tree(sims=2000, seed=0):
    game = ChainGame(seed=1)
    tree = generate_tree(game, UniformPolicySource(), sims,
                         rng=np.random.default_rng(seed))
    return game, tree


def test_backup_grounds_terminal_layer():
    game, tree = _chain_tree()
    backup_tree_values(game, tree)
    terminal = np.stack([n.value for n in tree.layer_of(2)])
    assert terminal.min() == pytest.approx(0.0)
    assert terminal.max() == pytest.approx(1.0)


def test_backup_visit_weighted_mean():
    game, tree = _chain_tree()
    backup_tree_values(game, tree)
    for node in tree.layer_of(1):
        kids = list(node.children.values())
        w = np.array([k.visit_count for k in kids], dtype=float)
        expected = (np.stack([k.value for k in kids])
                    * (w / w.sum())[:, None]).sum(axis=0)
        np.testing.assert_allclose(node.value, expected)
    # the root's value is a convex combination of its children's
    root = tree.layer_of(0)[0]
    assert np.all(root.value >= 0.0) and np.all(root.value <= 1.0)


def test_visit_policy_marginalizes_children():
    game, tree = _chain_tree()
    root = tree.layer_of(0)[0]
    for p in range(2):
        policy = visit_policy(game, root, p)
        assert policy.sum() == pytest.approx(1.0)
        counts = np.zeros(2)
        for joint, child in root.children.items():
            counts[joint[p]] += child.visit_count
        np.testing.assert_allclose(policy, counts / counts.sum())


def test_visit_policy_fallback_uniform():
    game, tree = _chain_tree(sims=1)
    childless = [n for n in tree.layer_of(1) if not n.children]
    if childless:
        policy = visit_policy(game, childless[0], 0)
        np.testing.assert_allclose(policy, [0.5, 0.5])


def test_tree_to_replay_entry_counts():
    game, tree = _chain_tree()
    backup_tree_values(game, tree)
    buffer = ReplayBuffer()
    tree_to_replay(game, tree, buffer)
    # (1 root + 4 interior) nodes, 2 players each; terminals excluded
    assert len(buffer) == 10
    assert {e.timestep for e in buffer.entries} == {0, 1}


def _skewed_game():
    payoffs = np.empty((2, 2, 2))
    payoffs[0, 0] = (0.0, 0.0)
    payoffs[0, 1] = (0.0, 1.0)
    payoffs[1, 0] = (1.0, 0.0)
    payoffs[1, 1] = (1.0, 1.0)
    return MatrixGame(payoffs, name="skewed")


class _UniformSource:
    def predict(self, game, state):
        if state.terminal:
            return game.terminal_returns(state), None
        weights = [np.ones(a) for a in game.spec.action_counts]
        return np.full(game.num_players, 0.5), weights


def test_smcts_search_uniform_weights_give_uniform_policy():
    """Descent samples from node weights, so a uniform source must give
    near-uniform root visit policies."""
    game = _skewed_game()
    state = game.start_states()[0][0]
    _, policies = smcts_search(game, state, _UniformSource(),
                               simulations=10_000,
                               rng=np.random.default_rng(0))
    for p in policies:
        assert p.sum() == pytest.approx(1.0)
        assert np.abs(p - 0.5).sum() < 0.05


def test_smcts_search_single_simulation_is_point_mass():
    game = _skewed_game()
    state = game.start_states()[0][0]
    _, policies = smcts_search(game, state, _UniformSource(), simulations=1,
                               rng=np.random.default_rng(0))
    for p in policies:
        assert sorted(p) == [0.0, 1.0]


def test_smcts_search_value_converges_on_one_step_game():
    """Root value approaches the sampled-weight expectation of the
    grounded terminal values."""
    game = _skewed_game()
    state = game.start_states()[0][0]
    value, _ = smcts_search(game, state, _UniformSource(),
                            simulations=10_000,
                            rng=np.random.default_rng(1))
    sig = 1.0 / (1.0 + np.exp(-1.0))
    # uniform joint play: each player's payoff is 1 half the time
    expected = 0.5 * sig + 0.5 * 0.5
    np.testing.assert_allclose(value, [expected, expected], atol=0.02)


def test_smcts_search_requires_simulations():
    game = _skewed_game()
    with pytest.raises(ValueError):
        smcts_search(game, game.start_states()[0][0], _UniformSource(), 0,
                     np.random.default_rng(0))


def test_smcts_train_smoke():
    cfg = Config({"game": "chain:1", "smcts.simulations": "400",
                  "smcts.iterations": "2", "smcts.batches": "10",
                  "smcts.eval_simulations": "10",
                  "train.gate_matches": "8", **FAST_NET})
    agent = smcts_train(cfg)
    assert isinstance(agent, SmctsAgent)
    assert agent.gate_score is not None
    assert len(agent.training_log) == 2
    game = agent.game
    state = game.start_states()[0][0]
    a = agent.act(game, state, 0, np.random.default_rng(0))
    assert a in game.legal_actions(state, 0)
    # distilled-policy play also stays legal
    agent.search_play = False
    a = agent.act(game, state, 1, np.random.default_rng(1))
    assert a in game.legal_actions(state, 1)
    value = agent.state_value(state)
    assert value.shape == (2,)


def _small_agent(game, seed, name, simulations=4):
    """An untrained FAST_NET-sized search agent."""
    share = share_mode_for(game, "mlp")
    players = [0] if share != "none" else range(game.num_players)
    codec = SupportCodec(num_bins=5)
    values = {p: ValueModel(game.observation_size, codec, trunk_hidden=(8, 8),
                            rep_size=4, head_hidden=(8, 8), dropout_rate=0.0,
                            seed=seed + p) for p in players}
    policies = [PolicyModel(game.observation_size, game.spec.action_counts[p],
                            trunk_hidden=(8, 8), rep_size=4,
                            head_hidden=(8, 8), dropout_rate=0.0,
                            seed=seed + 10 + p)
                for p in range(game.num_players)]
    return SmctsAgent(game, values, policies, share,
                      eval_simulations=simulations, name=name)


@pytest.mark.parametrize("shared", [False, True])
def test_smcts_agent_searches_each_state_once(monkeypatch, shared):
    """The two-pursuer side is served from one search per state, and an
    agent playing every side searches each state once."""
    searches = []

    def counting(*args, **kwargs):
        searches.append(args[1])
        return smcts_search(*args, **kwargs)

    monkeypatch.setattr(baseline, "smcts_search", counting)
    game = PursuitGame()
    pursuers = _small_agent(game, 0, "pursuers")
    evader = pursuers if shared else _small_agent(game, 100, "evader")
    record = run_match(game, (pursuers, evader), seed=0)
    assert record.forfeit_by is None
    sides = 1 if shared else 2
    assert len(searches) == sides * game.horizon
    assert len({id(s) for s in searches}) == game.horizon
    # a player asked again on the same state gets a fresh search
    searches.clear()
    state, rng = game.start_states()[0][0], np.random.default_rng(0)
    for p in (0, 1, 0):
        pursuers.act(game, state, p, rng)
    assert len(searches) == 2


class _OneStartPennies(MatrixGame):
    """Matching pennies whose every match starts from one state object."""

    def __init__(self):
        super().__init__(matching_pennies().payoffs, name="pennies")
        self._start = self.start_states()[0][0]

    def sample_start(self, rng):
        return self._start


def test_smcts_matches_do_not_depend_on_earlier_play():
    """Every match of this game starts from the state object the agents
    searched in the previous match, so a search served across matches
    would make a record depend on the matches played before it."""
    game = _OneStartPennies()
    a, b = _small_agent(game, 0, "a"), _small_agent(game, 50, "b")
    assert run_match(game, (a, a), 3) == run_match(game, (a, a), 3)
    records = play_paired(game, a, b, n_pairs=8, base_seed=0)
    assert play_paired(game, a, b, n_pairs=8, base_seed=0) == records
    for i in reversed(range(8)):
        fresh_a, fresh_b = (_small_agent(game, 0, "a"),
                            _small_agent(game, 50, "b"))
        assert run_match(game, (fresh_b, fresh_a), i) == records[2 * i + 1]
        assert run_match(game, (fresh_a, fresh_b), i) == records[2 * i]


class _RecordingGoofspiel(GoofspielGame):
    def __init__(self):
        super().__init__(4, prize_order=(1, 2, 3, 4))
        self.steps = []

    def step(self, state, joint):
        self.steps.append((state, joint))
        return super().step(state, joint)


class _IllegalMassSource:
    """Weights with 50 times more mass on each played card than on
    each card still in hand."""

    def predict(self, game, state):
        if state.terminal:
            return game.terminal_returns(state), None
        weights = []
        for p, k in enumerate(game.spec.action_counts):
            w = np.full(k, 50.0)
            w[list(game.legal_actions(state, p))] = 1.0
            weights.append(w)
        return np.full(game.num_players, 0.5), weights


def test_smcts_search_draws_stay_legal():
    game = _RecordingGoofspiel()
    start = game.start_states()[0][0]
    root = GoofspielGame.step(game, start, (0, 2)).next_state
    _, policies = smcts_search(game, root, _IllegalMassSource(),
                               simulations=300,
                               rng=np.random.default_rng(0))
    assert len(game.steps) > 20
    for state, joint in game.steps:
        for p, a in enumerate(joint):
            assert a in game.legal_actions(state, p)
    assert policies[0][0] == 0.0 and policies[1][2] == 0.0
    for p, policy in enumerate(policies):
        assert policy.sum() == pytest.approx(1.0)
        assert set(np.flatnonzero(policy)) <= set(
            game.legal_actions(root, p))
