"""Tests for tree building, tree selection, up-sampling and replay."""

import numpy as np
import pytest
from scipy import stats as sps

from equilearn.data import (GameTree, ReplayBuffer, ReplayEntry, TreeNode,
                            UniformPolicySource, build_q_dataset,
                            export_replay_tsv, generate_tree, replay_sample,
                            select_tree_by_cv, upsample_plan, upsample_values)
from equilearn.games.matrix import ChainGame, matching_pennies


def _full_chain_tree(sims=2000, seed=0):
    game = ChainGame(seed=1)
    rng = np.random.default_rng(seed)
    return game, generate_tree(game, UniformPolicySource(), sims, rng=rng)


def test_tree_saturates_small_game():
    game, tree = _full_chain_tree()
    # 1 root + 4 first-step states + 16 terminal histories
    assert [len(layer) for layer in tree.layers] == [1, 4, 16]
    assert tree.node_count() == 21


def test_tree_dedup_and_edge_consistency():
    game, tree = _full_chain_tree()
    for h, layer in enumerate(tree.layers):
        for key, node in layer.items():
            assert node.state.key() == key
            assert node.timestep == h
            assert node.visit_count >= 1
            for joint, child in node.children.items():
                stepped = game.step(node.state, joint).next_state
                assert child.state.key() == stepped.key()
                # the child is the canonical node of its layer
                assert tree.layers[h + 1][child.state.key()] is child


def test_terminal_nodes_carry_exact_returns():
    game, tree = _full_chain_tree()
    for node in tree.layer_of(2):
        np.testing.assert_allclose(node.value,
                                   game.terminal_returns(node.state))


def test_generate_tree_fixed_randomization():
    game = ChainGame(seed=1)
    tree = generate_tree(game, UniformPolicySource(), 50,
                         randomize=[True, False],
                         rng=np.random.default_rng(3))
    assert tree.node_count() > 1


def test_layer_of_bounds():
    _, tree = _full_chain_tree(sims=5)
    with pytest.raises(ValueError):
        tree.layer_of(3)


def test_select_tree_by_cv_prefers_spread():
    game = ChainGame(seed=1)

    def tree_with_values(values):
        tree = GameTree(game)
        for i, v in enumerate(values):
            state = game.start_states()[0][0]
            node = TreeNode(state=state, value=np.array([v, v]), weights=None)
            tree.layers[1][("fake", i)] = node
        return tree

    # population std 0.40825 over mean 1.0 beats the flat alternative
    spread = tree_with_values([0.5, 1.0, 1.5])
    flat = tree_with_values([1.0, 1.0, 1.0])
    assert select_tree_by_cv([flat, spread]) is spread
    assert select_tree_by_cv([spread, flat]) is spread
    # ties go to the first candidate
    assert select_tree_by_cv([flat, flat]) is flat
    with pytest.raises(ValueError):
        select_tree_by_cv([])


# -- up-sampling -----------------------------------------------------------

def _three_class_targets():
    """5000 low, 400 mid, 300 high values in well-separated ranges."""
    return np.concatenate([np.full(5000, 0.1), np.full(400, 0.5),
                           np.full(300, 0.9)])


def test_upsample_plan_merge_trace():
    y = _three_class_targets()
    plan = upsample_plan(y, num_classes=3, min_count=500)
    # the two smallest classes (400, 300) merge into 700 and merging stops
    assert plan.merge_trace[0] == (5000, 400, 300)
    assert plan.merge_trace[-1] == (5000, 700)
    assert sorted(plan.class_sizes) == [700, 5000]


def test_upsample_plan_stops_when_minimum_met():
    y = np.concatenate([np.full(100, 0.0), np.full(90, 1.0)])
    plan = upsample_plan(y, num_classes=2, min_count=95)
    # all classes but the single smallest already meet the minimum
    assert plan.class_sizes == (100, 90)


def test_upsample_plan_degenerate_targets():
    plan = upsample_plan(np.full(10, 0.3), num_classes=5, min_count=2)
    assert plan.class_sizes == (10,)


def test_upsample_values_equalizes_classes():
    y = _three_class_targets()
    data = [(i, v) for i, v in enumerate(y)]
    rng = np.random.default_rng(0)
    out = upsample_values(data, num_classes=3, min_count=500, rng=rng)
    # both surviving classes are resampled up to the majority size
    assert len(out) == 10_000
    values = np.array([v for _, v in out])
    assert (values < 0.3).sum() == 5000
    assert (values > 0.3).sum() == 5000
    # every original record is still present
    assert set(i for i, _ in out) == set(range(len(y)))


# -- replay ----------------------------------------------------------------

def _entry(t, player=0, value=0.5):
    return ReplayEntry(observations=[np.zeros(2), np.zeros(2)], value=value,
                       policy=np.array([0.5, 0.5]), timestep=t,
                       player=player, visit_count=1)


def test_replay_entry_validates_policy():
    with pytest.raises(ValueError):
        ReplayEntry(observations=[np.zeros(1)], value=0.0,
                    policy=np.array([0.4, 0.4]), timestep=0, player=0,
                    visit_count=1)


def test_replay_sample_two_stage_distribution():
    """Timestep first, then entry: the lone timestep-0 entry must be drawn
    about half the time despite being 1 of 4 entries."""
    buffer = ReplayBuffer()
    buffer.add(_entry(0, value=1.0))
    for _ in range(3):
        buffer.add(_entry(1, value=0.0))
    rng = np.random.default_rng(0)
    draws = 20_000
    hits = sum(e.value == 1.0
               for e in replay_sample(buffer, draws, rng))
    # expected 0.5; a chi-squared test against the two-stage law
    expected = np.array([draws / 2, draws / 2])
    observed = np.array([hits, draws - hits])
    assert sps.chisquare(observed, expected).pvalue > 0.01


def test_replay_sample_empty_buffer():
    with pytest.raises(ValueError):
        replay_sample(ReplayBuffer(), 4, np.random.default_rng(0))


def test_export_replay_tsv_roundtrips(tmp_path):
    buffer = ReplayBuffer()
    buffer.add(_entry(0))
    buffer.add(_entry(1, player=1, value=0.25))
    path = str(tmp_path / "replay.tsv")
    export_replay_tsv(path, buffer.entries)
    lines = [ln.split("\t") for ln in
             open(path).read().strip().splitlines()]
    assert len(lines) == 2
    t, player, visits, value, policy, obs = lines[1]
    assert (int(t), int(player), int(visits)) == (1, 1, 1)
    assert float(value) == pytest.approx(0.25)
    assert [float(x) for x in policy.split(",")] == [0.5, 0.5]
    assert [float(x) for x in obs.split(",")] == [0.0, 0.0]


# -- edge datasets ---------------------------------------------------------

def test_build_q_dataset_covers_every_edge():
    game, tree = _full_chain_tree()
    child_values = {n.state.key(): np.array([0.5, 0.5])
                    for n in tree.layer_of(1)}
    records = build_q_dataset(tree, 0, child_values)
    assert len(records) == 4
    joints = {r.joint for r in records}
    assert joints == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_build_q_dataset_missing_child_raises():
    game, tree = _full_chain_tree()
    with pytest.raises(KeyError):
        build_q_dataset(tree, 0, {})


def test_one_shot_game_tree():
    game = matching_pennies()
    tree = generate_tree(game, UniformPolicySource(), 200,
                         rng=np.random.default_rng(0))
    assert len(tree.layers[0]) == 1
    assert len(tree.layers[1]) == 4
