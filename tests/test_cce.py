"""Tests for multi-agent stage solving, pruning and verification."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilearn.bandit import default_schedule
from equilearn.cce import (StageGame, empirical_to_distribution, ma_exp_ix,
                           ma_exp_ix_batch, normalize_losses, prune_dominated,
                           realized_regret, verify_cce)
from equilearn.games.matrix import matching_pennies, prisoners_dilemma

from _oracles import dense_batch_exp_ix, scalar_exp_ix


def _loss_tensor_from_payoffs(payoffs: np.ndarray) -> np.ndarray:
    """Per-player min-max normalized losses over all joint actions."""
    counts = payoffs.shape[:-1]
    n = payoffs.shape[-1]
    flat = payoffs.reshape(-1, n)
    return normalize_losses(flat).reshape(counts + (n,))


PD_LOSSES = _loss_tensor_from_payoffs(prisoners_dilemma().payoffs)
MP_LOSSES = _loss_tensor_from_payoffs(matching_pennies().payoffs)


def test_normalize_losses_maps_best_to_zero():
    rewards = np.array([[3.0, -1.0], [1.0, 0.0], [-1.0, 2.0]])
    losses = normalize_losses(rewards)
    np.testing.assert_allclose(losses[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(losses[:, 1], [1.0, 2.0 / 3.0, 0.0])


def test_normalize_losses_degenerate_range():
    losses = normalize_losses(np.array([[1.0, 5.0], [1.0, 2.0]]))
    np.testing.assert_allclose(losses[:, 0], [0.5, 0.5])


@given(rewards=st.lists(st.lists(st.floats(-100, 100), min_size=2,
                                 max_size=2), min_size=1, max_size=10))
def test_normalize_losses_in_unit_interval(rewards):
    losses = normalize_losses(np.array(rewards))
    assert np.all(losses >= 0.0) and np.all(losses <= 1.0)


def test_stage_game_validation():
    with pytest.raises(ValueError):
        StageGame(2, (2, 2))
    with pytest.raises(ValueError):
        StageGame(2, (2, 2), loss_tensor=np.full((2, 2, 2), 1.5))
    with pytest.raises(ValueError):
        StageGame(2, (2, 2), loss_tensor=np.zeros((3, 2, 2)))


def test_verify_cce_frozen_oracle():
    # Uniform joint play on the prisoner's dilemma. Normalized losses for
    # player 0 are [[0.4, 1.0], [0.0, 0.8]]: incurred cost 0.55, while
    # always defecting against the uniform opponent marginal costs 0.4,
    # so the best deviation gains 0.15 (symmetric for player 1).
    stage = StageGame(2, (2, 2), loss_tensor=PD_LOSSES)
    uniform = np.full((2, 2), 0.25)
    assert verify_cce(uniform, stage) == pytest.approx(0.15)


def test_verify_cce_zero_for_pure_equilibrium():
    stage = StageGame(2, (2, 2), loss_tensor=PD_LOSSES)
    dist = {(1, 1): 1.0}
    assert verify_cce(dist, stage) == pytest.approx(0.0)


def test_verify_cce_ignores_illegal_deviations():
    # Player 0 plays arm 0 against player 1's even mix. Player 0 incurs
    # (0.6 + 0.2) / 2 = 0.4 and would incur 0 on arm 1, but arm 1 is
    # illegal; player 1 incurs (0.3 + 0.7) / 2 = 0.5 and gains 0.2 by
    # always playing arm 0. Over legal arms epsilon is 0.2, over all 0.4.
    losses = np.empty((2, 2, 2))
    losses[..., 0] = [[0.6, 0.2], [0.0, 0.0]]
    losses[..., 1] = [[0.3, 0.7], [0.5, 0.5]]
    stage = StageGame(2, (2, 2), loss_tensor=losses)
    dist = {(0, 0): 0.5, (0, 1): 0.5}
    legal = [np.array([True, False]), np.array([True, True])]
    assert verify_cce(dist, stage) == pytest.approx(0.4)
    assert verify_cce(dist, stage, legal=legal) == pytest.approx(0.2)


def test_verify_cce_rejects_unnormalized():
    stage = StageGame(2, (2, 2), loss_tensor=PD_LOSSES)
    with pytest.raises(ValueError):
        verify_cce({(0, 0): 0.5}, stage)


def test_prune_dominated_prisoners_dilemma():
    stage = StageGame(2, (2, 2), loss_tensor=PD_LOSSES)
    masks = prune_dominated(stage)
    for m in masks:
        np.testing.assert_array_equal(m, [False, True])


def test_prune_dominated_iterates():
    # Three-stage chain: player 1's arm 2 is dominated by arm 1; with it
    # gone player 0's arm 1 is dominated; with that gone player 1's arm 1
    # is dominated. Only (0, 0) survives.
    losses = np.empty((2, 3, 2))
    losses[0, 0] = (0.3, 0.1)
    losses[0, 1] = (0.3, 0.2)
    losses[0, 2] = (0.9, 0.95)
    losses[1, 0] = (0.5, 0.9)
    losses[1, 1] = (0.5, 0.2)
    losses[1, 2] = (0.1, 0.95)
    stage = StageGame(2, (2, 3), loss_tensor=losses)
    masks = prune_dominated(stage)
    np.testing.assert_array_equal(masks[0], [True, False])
    np.testing.assert_array_equal(masks[1], [True, False, False])


def test_prune_respects_initial_legal_mask():
    stage = StageGame(2, (2, 2), loss_tensor=PD_LOSSES)
    legal = [np.array([True, False]), np.array([True, True])]
    masks = prune_dominated(stage, legal=legal)
    # player 0 is pinned to cooperate; player 1 still prunes to defect
    np.testing.assert_array_equal(masks[0], [True, False])
    np.testing.assert_array_equal(masks[1], [False, True])


def test_ma_exp_ix_basic_contract():
    stage = StageGame(2, (2, 2), loss_tensor=MP_LOSSES)
    rng = np.random.default_rng(0)
    out = ma_exp_ix(stage, rounds=500, rng=rng)
    assert out.rounds == 500
    assert sum(out.empirical_joint.values()) == 500
    for p in out.policies:
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0.0)
    assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)
    dist = empirical_to_distribution(out)
    assert sum(dist.values()) == pytest.approx(1.0)


def test_ma_exp_ix_mask_is_respected():
    stage = StageGame(2, (2, 2), loss_tensor=MP_LOSSES)
    mask = [np.array([True, False]), np.array([True, True])]
    out = ma_exp_ix(stage, rounds=300, mask=mask,
                    rng=np.random.default_rng(1))
    assert out.policies[0][1] == 0.0
    assert all(j[0] == 0 for j in out.empirical_joint)


def test_ma_exp_ix_finds_dominant_action():
    stage = StageGame(2, (2, 2), loss_tensor=PD_LOSSES)
    out = ma_exp_ix(stage, rounds=5000, rng=np.random.default_rng(2))
    for p in out.policies:
        assert p[1] > 0.9


def test_realized_regret_is_small_on_dominance_solvable_game():
    stage = StageGame(2, (2, 2), loss_tensor=PD_LOSSES)
    out = ma_exp_ix(stage, rounds=5000, rng=np.random.default_rng(3))
    for player in range(2):
        # sublinear regret: well under the worst case of one per round
        assert realized_regret(out, stage, player) < 0.05 * out.rounds


def test_batch_solver_matches_single_contract():
    tensors = np.stack([MP_LOSSES, PD_LOSSES])
    out = ma_exp_ix_batch(tensors, rounds=2000,
                          rng=np.random.default_rng(4))
    assert out.policies.shape == (2, 2, 2)
    assert out.values.shape == (2, 2)
    assert np.all(out.joint_counts.sum(axis=1) == 2000)
    # per-batch extraction round-trips counts and masked simplex policies
    for b in range(2):
        single = out.outcome(b)
        assert sum(single.empirical_joint.values()) == 2000
        for p in single.policies:
            assert p.sum() == pytest.approx(1.0)
    # the PD entry of the batch still finds the dominant action
    pd = out.outcome(1)
    assert pd.policies[0][1] > 0.9 and pd.policies[1][1] > 0.9


def test_batch_solver_respects_masks():
    tensors = np.stack([MP_LOSSES])
    masks = np.array([[[True, False], [True, True]]])
    out = ma_exp_ix_batch(tensors, rounds=200, masks=masks,
                          rng=np.random.default_rng(5))
    assert out.policies[0, 0, 1] == 0.0
    dist = out.outcome(0).empirical_joint
    assert all(j[0] == 0 for j in dist)


def test_batch_solver_zero_draw_skips_masked_first_arm():
    masks = np.array([[[False, True], [False, True]]])
    rng = SimpleNamespace(random=lambda shape: np.zeros(shape))
    out = ma_exp_ix_batch(MP_LOSSES[None], rounds=5, masks=masks, rng=rng)
    assert out.joint_counts[0, 3] == 5          # joint action (1, 1)


def test_batch_solver_ragged_action_counts():
    # 2x3 game: the padded arm of player 0 must never be played
    losses = np.zeros((1, 2, 3, 2))
    losses[0, :, :, 0] = [[0.1, 0.5, 0.9], [0.2, 0.4, 0.6]]
    losses[0, :, :, 1] = [[0.9, 0.5, 0.1], [0.8, 0.6, 0.4]]
    out = ma_exp_ix_batch(losses, rounds=300,
                          rng=np.random.default_rng(6))
    assert out.policies.shape == (1, 2, 3)
    assert out.policies[0, 0, 2] == 0.0     # padding of the 2-arm player


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_ma_exp_ix_matches_scalar_reference(seed):
    """Random 2-3 player games with random legal masks: the batch solver
    on one game reproduces the per-round scalar loop exactly."""
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 4))
    counts = tuple(int(a) for a in g.integers(2, 6, size=n))
    mask = [g.random(a) < 0.7 for a in counts]
    for m in mask:
        m[g.integers(len(m))] = True
    stage = StageGame(n, counts, loss_tensor=g.random(counts + (n,)))
    out = ma_exp_ix(stage, 300, mask=mask, rng=np.random.default_rng(seed))
    visits, values, policies = scalar_exp_ix(stage, 300, mask,
                                             np.random.default_rng(seed))
    assert out.empirical_joint == visits
    np.testing.assert_array_equal(out.values, values)
    for p, q in zip(out.policies, policies):
        np.testing.assert_array_equal(p, q)


def _batch_masks(g, counts, batch, forced_share):
    """Random (B, N, A_max) masks; each game is forced (one playable arm
    per player) with probability ``forced_share``, and otherwise leaves
    some player two or more arms."""
    masks = np.zeros((batch, len(counts), max(counts)), dtype=bool)
    wide = [i for i, a in enumerate(counts) if a > 1]
    for b in range(batch):
        live = bool(wide) and g.random() >= forced_share
        for i, a in enumerate(counts):
            m = np.zeros(a, dtype=bool)
            m[g.integers(a)] = True
            if live:
                m |= g.random(a) < 0.5
            masks[b, i, :a] = m
        if live and masks[b].sum(axis=1).max() < 2:
            i = g.choice(wide)
            masks[b, i, :counts[i]] = True
    return masks


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 3),
       batch=st.sampled_from([1, 2, 7, 19]),
       forced_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       rounds=st.integers(1, 150))
@example(seed=1, n=2, batch=19, forced_share=1.0, rounds=60)
@example(seed=2, n=3, batch=7, forced_share=0.0, rounds=60)
@example(seed=3, n=2, batch=1, forced_share=0.5, rounds=60)
def test_batch_solver_matches_dense_reference(seed, n, batch, forced_share,
                                              rounds):
    """Batches mixing forced and live games, all forced, none forced and
    B=1: the solver, which skips sampling on forced games, is byte-equal
    to the reference that samples every game every round, and leaves the
    generator at the same position."""
    g = np.random.default_rng(seed)
    counts = tuple(int(a) for a in g.integers(1, 5, size=n))
    masks = _batch_masks(g, counts, batch, forced_share)
    tensors = g.random((batch, *counts, n))
    params = default_schedule(max(2, max(counts)), rounds)
    rng = np.random.default_rng(seed)
    out = ma_exp_ix_batch(tensors, rounds, params, masks, rng)
    ref_rng = np.random.default_rng(seed)
    ref = dense_batch_exp_ix(tensors, masks, rounds, params, ref_rng)
    for got, want in zip((out.log_weights, out.policies, out.values,
                          out.joint_counts), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 1000))
def test_empirical_cce_epsilon_shrinks(seed):
    """A 2000-round empirical joint on matching pennies is a rough CCE."""
    stage = StageGame(2, (2, 2), loss_tensor=MP_LOSSES)
    out = ma_exp_ix(stage, rounds=2000, rng=np.random.default_rng(seed))
    eps = verify_cce(empirical_to_distribution(out), stage)
    assert eps < 0.25
