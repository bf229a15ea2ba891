"""Tests for the simultaneous-move search baseline."""

import itertools

import numpy as np
import pytest
from _oracles import (PerPlayerSmctsSource, legal_policy,
                      sequential_smcts_search)

from equilearn import baseline
from equilearn.approx import PolicyModel, SupportCodec, ValueModel
from equilearn.baseline import (SmctsAgent, SmctsSource, backup_tree_values,
                                smcts_search, smcts_train, tree_to_replay,
                                visit_policy)
from equilearn.config import Config
from equilearn.data import (GameTree, ReplayBuffer, TreeNode,
                            UniformPolicySource, generate_tree)
from equilearn.games import game_from_id
from equilearn.games.base import legal_masks
from equilearn.games.goofspiel import GoofspielGame
from equilearn.games.matrix import ChainGame, MatrixGame, matching_pennies
from equilearn.games.pursuit import PursuitGame
from equilearn.harness import play_paired, run_match
from equilearn.trainer import AgentPolicySource, TrainedAgent, share_mode_for

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


def _block(game, states, fill, value=0.5):
    """Values and legal policies in the source protocol: every value is
    ``value``, and ``fill(state, p, w)`` sets player ``p``'s weights
    ``w`` (its action count wide) of ``state``, which the frozen one-row
    rule then restricts to the legal actions and normalizes; the rows
    are zero past each player's action count."""
    counts = game.spec.action_counts
    weights = np.zeros((len(states), game.num_players, max(counts)))
    for i, state in enumerate(states):
        for p, k in enumerate(counts):
            fill(state, p, weights[i, p, :k])
            weights[i, p, :k] = legal_policy(weights[i, p, :k],
                                             game.legal_actions(state, p))
    return np.full((len(states), game.num_players), value), weights


class _UniformSource:
    def predict(self, game, states):
        def ones(state, p, w):
            w[:] = 1.0
        return _block(game, states, ones)


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
    share = share_mode_for(game)
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
    """Legal policies of weights with 50 on each illegal action (each
    played card) and 1, 2, 3, ... on the legal ones, so the rows are not
    uniform."""

    def predict(self, game, states):
        def illegal_mass(state, p, w):
            legal = list(game.legal_actions(state, p))
            w[:] = 50.0
            w[legal] = np.arange(1.0, len(legal) + 1.0)
        return _block(game, states, illegal_mass)


def _illegal_mass_agent(game):
    """A state after the players played cards 0 and 2, and an untrained
    agent whose policy networks put mass on those played cards there."""
    start = game.start_states()[0][0]
    root = GoofspielGame.step(game, start, (0, 2)).next_state
    agent = _small_agent(game, 0, "untrained")
    for p, played in enumerate((0, 2)):
        raw = agent.policy_models[p].predict(game.observe(root, p))[0]
        assert raw[played] > 0.0
    return root, agent


def test_smcts_search_draws_stay_legal():
    game = _RecordingGoofspiel()
    root, agent = _illegal_mass_agent(game)
    _, policies = smcts_search(game, root, SmctsSource(agent), 300,
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


def test_rollout_draws_stay_legal():
    game = _RecordingGoofspiel()
    root, agent = _illegal_mass_agent(game)
    source = AgentPolicySource(TrainedAgent(game, agent.policy_models, {}))
    game.sample_start = lambda rng: root
    generate_tree(game, source, 300, rng=np.random.default_rng(0))
    assert len(game.steps) > 20
    for state, joint in game.steps:
        for p, a in enumerate(joint):
            assert a in game.legal_actions(state, p)


def _two_by_three(tmp_path):
    path = tmp_path / "two_by_three.txt"
    path.write_text("2 2 3\n3 0\n0 2\n1 1\n0 3\n2 0\n1 2\n")
    return game_from_id(f"matrix:{path}")


def _nine_by_seventeen(tmp_path):
    """A one-shot game whose players have 9 and 17 actions. numpy sums a
    row of 16 or more entries in 8 partial sums over two blocks of 8, so
    padding the first player's rows to 17 before normalizing would add
    its ninth weight into the first partial sum and move bits."""
    path = tmp_path / "nine_by_seventeen.txt"
    rows = [f"{(7 * i + 3 * j) % 5} {(2 * i + 5 * j) % 4}"
            for i in range(9) for j in range(17)]
    path.write_text("2 9 17\n" + "\n".join(rows) + "\n")
    return game_from_id(f"matrix:{path}")


def _game(tmp_path, game_id):
    if game_id == "two-by-three":
        return _two_by_three(tmp_path)
    if game_id == "nine-by-seventeen":
        return _nine_by_seventeen(tmp_path)
    return game_from_id(game_id)


@pytest.mark.parametrize("game_id", ["goofspiel:4", "pursuit",
                                     "two-by-three", "nine-by-seventeen"])
def test_legal_masks_match_legal_actions(tmp_path, game_id):
    """One mask block for a batch of states marks exactly each state's
    legal actions per player, and nothing past a player's action count
    (two-by-three's first player has 2 actions of 3)."""
    game = _game(tmp_path, game_id)
    tree = generate_tree(game, UniformPolicySource(), 200,
                         rng=np.random.default_rng(0))
    states = [node.state for layer in tree.layers for node in layer.values()
              if not node.state.terminal]
    masks = legal_masks(game, states)
    counts = game.spec.action_counts
    assert masks.shape == (len(states), game.num_players, max(counts))
    legal_sets = set()
    for state, mask in zip(states, masks):
        for p in range(game.num_players):
            legal = tuple(game.legal_actions(state, p))
            legal_sets.add(legal)
            assert np.flatnonzero(mask[p]).tolist() == sorted(legal)
            assert not mask[p, counts[p]:].any()
    if game_id == "goofspiel:4":
        assert len(legal_sets) > 4


@pytest.mark.parametrize("game_id, share, stacks", [
    ("pursuit", "none", 1), ("goofspiel:4", "zero_sum", 1),
    ("two-by-three", "none", 2)])
def test_stacked_predictions_match_per_player_forwards(tmp_path, game_id,
                                                       share, stacks):
    """One stacked pass per network shape, over batches of 1 to 25
    states, gives the same bits as one single-row forward per state,
    player and network, node by node and over whole searches; players
    whose networks differ in shape (2 and 3 actions) form separate
    stacks."""
    game = _game(tmp_path, game_id)
    assert share_mode_for(game) == share
    agent = _small_agent(game, 3, "stacked", simulations=30)
    stacked, oracle = SmctsSource(agent), PerPlayerSmctsSource(agent)
    tree = generate_tree(game, UniformPolicySource(), 200,
                         rng=np.random.default_rng(0))
    states = [node.state for layer in tree.layers for node in layer.values()
              if not node.state.terminal]
    sizes, start = itertools.cycle([1, 2, 25, 7]), 0
    while start < len(states):
        batch = states[start:start + next(sizes)]
        start += len(batch)
        values, weights = stacked.predict(game, batch)
        want_values, want_weights = oracle.predict(game, batch)
        assert values.shape == (len(batch), game.num_players)
        assert weights.shape == (len(batch), game.num_players,
                                 max(game.spec.action_counts))
        assert values.tobytes() == want_values.tobytes()
        assert weights.tobytes() == want_weights.tobytes()
    assert len(agent._policy_stacks) == stacks
    assert len(agent._value_stacks) == 1

    rngs = np.random.default_rng(7), np.random.default_rng(7)
    for i in range(20):
        state = states[i % len(states)]
        (value, policies), (want_value, want_policies) = (
            smcts_search(game, state, source, 30, rng)
            for source, rng in zip((stacked, oracle), rngs))
        assert value.tobytes() == want_value.tobytes()
        for p, want in zip(policies, want_policies):
            assert p.tobytes() == want.tobytes()
    assert rngs[0].random() == rngs[1].random()


class _ZeroLegalSource:
    """Legal policies of weights with no mass on any legal action: the
    frozen rule's uniform fallback over the legal actions."""

    def predict(self, game, states):
        def zero_legal(state, p, w):
            w[:] = 3.0
            w[list(game.legal_actions(state, p))] = 0.0
        return _block(game, states, zero_legal, value=0.25)


SEARCH_SOURCES = {
    "smcts": lambda game: SmctsSource(_small_agent(game, 3, "smcts")),
    "illegal-mass": lambda game: _IllegalMassSource(),
    "zero-legal": lambda game: _ZeroLegalSource(),
}


def _search_states(game, walks=3, seed=0):
    """A start state, a state halfway down and a state one step from the
    horizon (every child terminal) of each of ``walks`` uniform random
    walks."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(walks):
        state, walk = game.sample_start(rng), []
        while not state.terminal:
            walk.append(state)
            joint = tuple(int(rng.choice(game.legal_actions(state, p)))
                          for p in range(game.num_players))
            state = game.step(state, joint).next_state
        out.extend(walk[i] for i in sorted({0, len(walk) // 2,
                                            len(walk) - 1}))
    return out


@pytest.mark.parametrize("simulations", [1, 25, 300])
@pytest.mark.parametrize("source_name", sorted(SEARCH_SOURCES))
@pytest.mark.parametrize("game_id", ["pursuit", "goofspiel:4",
                                     "two-by-three", "nine-by-seventeen"])
def test_batched_search_matches_sequential_search(tmp_path, game_id,
                                                  source_name, simulations):
    """Deferred, batched leaf prediction gives the root value, root
    policies and generator stream of the search that predicts each node
    when it is made and backs up after every simulation."""
    game = _game(tmp_path, game_id)
    source = SEARCH_SOURCES[source_name](game)
    states = _search_states(game)
    assert any(s.timestep == game.horizon - 1 for s in states)
    for i, state in enumerate(states):
        rngs = np.random.default_rng(i), np.random.default_rng(i)
        value, policies = smcts_search(game, state, source, simulations,
                                       rngs[0])
        want_value, want_policies = sequential_smcts_search(
            game, state, source, simulations, rngs[1])
        assert value.tobytes() == want_value.tobytes()
        for p, want in zip(policies, want_policies):
            assert p.tobytes() == want.tobytes()
        assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("source_name", ["agent", "smcts", "uniform"])
@pytest.mark.parametrize("game_id", ["pursuit", "goofspiel:4",
                                     "two-by-three", "nine-by-seventeen"])
def test_sources_return_legal_policies(tmp_path, game_id, source_name):
    """Every prediction source returns each player's row as the frozen
    one-row rule's legal policy of its raw weights (the policy network's
    output, or ones for the uniform source) at the player's action
    count, and zeros past it, for one state alone and for a batch: the
    search and rollouts draw from these rows as they are."""
    game = _game(tmp_path, game_id)
    counts = game.spec.action_counts
    agent = _small_agent(game, 3, "protocol")
    source = {"agent": AgentPolicySource(
                  TrainedAgent(game, agent.policy_models, {})),
              "smcts": SmctsSource(agent),
              "uniform": UniformPolicySource()}[source_name]

    def raw(state, p):
        if source_name == "uniform":
            return np.ones(counts[p])
        return agent.policy_models[p].predict(game.observe(state, p))[0]

    tree = generate_tree(game, UniformPolicySource(), 200,
                         rng=np.random.default_rng(0))
    states = [node.state for layer in tree.layers for node in layer.values()
              if not node.state.terminal]
    for batch in (states[:1], states):
        values, rows = source.predict(game, batch)
        assert values.shape == (len(batch), game.num_players)
        assert rows.shape == (len(batch), game.num_players, max(counts))
        for state, row in zip(batch, rows):
            for p, a in enumerate(counts):
                want = legal_policy(raw(state, p),
                                    game.legal_actions(state, p))
                assert row[p, :a].tobytes() == want.tobytes()
                assert not row[p, a:].any()


def test_search_predicts_pending_nodes_together():
    """The search predicts its new nodes in fewer ``predict`` calls than
    nodes, and predicts each node once."""
    game = game_from_id("pursuit")
    inner = SmctsSource(_small_agent(game, 3, "smcts"))
    batches = []

    class Counting:
        def predict(self, game, states):
            batches.append(len(states))
            return inner.predict(game, states)

    state = game.start_states()[0][0]
    smcts_search(game, state, Counting(), 25, np.random.default_rng(0))
    sequential = []

    class OneByOne:
        def predict(self, game, states):
            sequential.append(len(states))
            return inner.predict(game, states)

    sequential_smcts_search(game, state, OneByOne(), 25,
                            np.random.default_rng(0))
    assert sum(batches) == len(sequential)
    assert len(batches) < len(sequential)
