"""Tests for multi-agent stage solving, pruning and verification."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilearn.bandit import default_schedule
from equilearn.cce import (ma_exp_ix_batch, normalize_losses, prune_dominated,
                           verify_cce)
from equilearn.games.matrix import matching_pennies, prisoners_dilemma

from _oracles import dense_batch_exp_ix, loop_prune_dominated, scalar_exp_ix


def _loss_tensor_from_payoffs(payoffs: np.ndarray) -> np.ndarray:
    """Per-player min-max normalized losses over all joint actions."""
    counts = payoffs.shape[:-1]
    n = payoffs.shape[-1]
    flat = payoffs.reshape(-1, n)
    return normalize_losses(flat).reshape(counts + (n,))


PD_LOSSES = _loss_tensor_from_payoffs(prisoners_dilemma().payoffs)
MP_LOSSES = _loss_tensor_from_payoffs(matching_pennies().payoffs)


def _dist(counts, probs) -> np.ndarray:
    """A batch of one dense joint distribution from {joint: prob}."""
    dense = np.zeros(counts)
    for joint, prob in probs.items():
        dense[joint] = prob
    return dense[None]


def _empirical(out, tensors) -> np.ndarray:
    """(B, A_1, ..., A_N) joint visit frequencies of a solve of the
    stage games ``tensors``."""
    return out.joint_counts.reshape(tensors.shape[:-1]) / out.rounds


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
    # a missing tensor, losses outside [0, 1], and shapes that do not fit
    # are refused by every stage-game entry point
    ok = np.zeros((1, 2, 2, 2))
    dist = np.full((1, 2, 2), 0.25)
    entry_points = [
        prune_dominated,
        lambda t, m: ma_exp_ix_batch(t, 10, masks=m,
                                     rng=np.random.default_rng(0)),
        lambda t, m: verify_cce(t, dist, m),
    ]
    for call in entry_points:
        with pytest.raises(ValueError):
            call(None, None)
        with pytest.raises(ValueError):
            call(np.full((1, 2, 2, 2), 1.5), None)
        with pytest.raises(ValueError):
            call(np.zeros((1, 2, 2, 3)), None)    # 3 players, 2 action axes
        with pytest.raises(ValueError):
            call(ok, np.ones((1, 3, 2), dtype=bool))      # 3 players' masks
        with pytest.raises(ValueError):
            call(ok, np.ones((1, 2, 3), dtype=bool))      # 3 arms
        with pytest.raises(ValueError, match="no playable action"):
            call(ok, np.array([[[True, True], [False, False]]]))
    with pytest.raises(ValueError):
        verify_cce(np.zeros((1, 3, 2, 2)), dist)          # a 3x2 game
    # a player-0 arm past player 0's two arms is not a playable arm
    ragged = np.zeros((1, 2, 3, 2))
    with pytest.raises(ValueError):
        prune_dominated(ragged, np.ones((1, 2, 3), dtype=bool))


def test_verify_cce_frozen_oracle():
    # Uniform joint play on the prisoner's dilemma. Normalized losses for
    # player 0 are [[0.4, 1.0], [0.0, 0.8]]: incurred cost 0.55, while
    # always defecting against the uniform opponent marginal costs 0.4,
    # so the best deviation gains 0.15 (symmetric for player 1).
    uniform = np.full((1, 2, 2), 0.25)
    assert verify_cce(PD_LOSSES[None], uniform) == pytest.approx([0.15])


def test_verify_cce_zero_for_pure_equilibrium():
    dist = _dist((2, 2), {(1, 1): 1.0})
    assert verify_cce(PD_LOSSES[None], dist) == pytest.approx([0.0])


def test_verify_cce_ignores_illegal_deviations():
    # Player 0 plays arm 0 against player 1's even mix. Player 0 incurs
    # (0.6 + 0.2) / 2 = 0.4 and would incur 0 on arm 1, but arm 1 is
    # illegal; player 1 incurs (0.3 + 0.7) / 2 = 0.5 and gains 0.2 by
    # always playing arm 0. Over legal arms epsilon is 0.2, over all 0.4.
    losses = np.empty((1, 2, 2, 2))
    losses[0, ..., 0] = [[0.6, 0.2], [0.0, 0.0]]
    losses[0, ..., 1] = [[0.3, 0.7], [0.5, 0.5]]
    dist = _dist((2, 2), {(0, 0): 0.5, (0, 1): 0.5})
    legal = np.array([[[True, False], [True, True]]])
    assert verify_cce(losses, dist) == pytest.approx([0.4])
    assert verify_cce(losses, dist, legal) == pytest.approx([0.2])


def test_verify_cce_rejects_unnormalized():
    with pytest.raises(ValueError):
        verify_cce(PD_LOSSES[None], _dist((2, 2), {(0, 0): 0.5}))


def test_prune_dominated_prisoners_dilemma():
    masks = prune_dominated(PD_LOSSES[None])
    assert masks.shape == (1, 2, 2)
    for m in masks[0]:
        np.testing.assert_array_equal(m, [False, True])


# Three-stage chain: player 1's arm 2 is dominated by arm 1; with it
# gone player 0's arm 1 is dominated; with that gone player 1's arm 1
# is dominated. Only (0, 0) survives.
CHAIN_LOSSES = np.empty((2, 3, 2))
CHAIN_LOSSES[0, 0] = (0.3, 0.1)
CHAIN_LOSSES[0, 1] = (0.3, 0.2)
CHAIN_LOSSES[0, 2] = (0.9, 0.95)
CHAIN_LOSSES[1, 0] = (0.5, 0.9)
CHAIN_LOSSES[1, 1] = (0.5, 0.2)
CHAIN_LOSSES[1, 2] = (0.1, 0.95)


def test_prune_dominated_iterates():
    masks = prune_dominated(CHAIN_LOSSES[None])
    np.testing.assert_array_equal(masks[0, 0], [True, False, False])
    np.testing.assert_array_equal(masks[0, 1], [True, False, False])


def test_prune_respects_initial_legal_mask():
    legal = np.array([[[True, False], [True, True]]])
    masks = prune_dominated(PD_LOSSES[None], legal)
    # player 0 is pinned to cooperate; player 1 still prunes to defect
    np.testing.assert_array_equal(masks[0, 0], [True, False])
    np.testing.assert_array_equal(masks[0, 1], [False, True])
    np.testing.assert_array_equal(legal, [[[True, False], [True, True]]])


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 3),
       batch=st.sampled_from([1, 2, 7, 19]),
       levels=st.sampled_from([2, 3, 5, 1000]))
@example(seed=-1, n=2, batch=1, levels=1000)
def test_prune_dominated_matches_pair_loop(seed, n, batch, levels):
    """Whole-batch pruning gives the masks of the per-game pair loop on
    random 2-3 player games with 1-5 arms, random legal masks and
    losses quantized so that ties occur; seed -1 is the iterated chain
    above."""
    if seed < 0:
        tensors = CHAIN_LOSSES[None]
        legal = np.array([[[True, True, False], [True, True, True]]])
    else:
        g = np.random.default_rng(seed)
        counts = tuple(int(a) for a in g.integers(1, 6, size=n))
        tensors = g.integers(0, levels, (batch, *counts, n)) / (levels - 1)
        legal = np.zeros((batch, n, max(counts)), dtype=bool)
        for b in range(batch):
            for i, a in enumerate(counts):
                legal[b, i, :a] = g.random(a) < 0.7
                legal[b, i, g.integers(a)] = True
    counts = tensors.shape[1:-1]
    masks = prune_dominated(tensors, legal)
    for b in range(tensors.shape[0]):
        rows = [legal[b, i, :a] for i, a in enumerate(counts)]
        want = loop_prune_dominated(tensors[b], rows)
        for i, a in enumerate(counts):
            np.testing.assert_array_equal(masks[b, i, :a], want[i])
            assert not masks[b, i, a:].any()


def test_ma_exp_ix_basic_contract():
    rng = np.random.default_rng(0)
    out = ma_exp_ix_batch(MP_LOSSES[None], rounds=500, rng=rng)
    assert out.rounds == 500
    assert out.joint_counts.sum() == 500
    for p in out.policies[0]:
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0.0)
    assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)
    assert _empirical(out, MP_LOSSES[None]).sum() == pytest.approx(1.0)


def test_ma_exp_ix_mask_is_respected():
    masks = np.array([[[True, False], [True, True]]])
    out = ma_exp_ix_batch(MP_LOSSES[None], rounds=300, masks=masks,
                          rng=np.random.default_rng(1))
    assert out.policies[0, 0, 1] == 0.0
    assert _empirical(out, MP_LOSSES[None])[0, 1].sum() == 0.0


def test_ma_exp_ix_finds_dominant_action():
    out = ma_exp_ix_batch(PD_LOSSES[None], rounds=5000,
                          rng=np.random.default_rng(2))
    for p in out.policies[0]:
        assert p[1] > 0.9


def test_realized_regret_is_small_on_dominance_solvable_game():
    out = ma_exp_ix_batch(PD_LOSSES[None], rounds=5000,
                          rng=np.random.default_rng(3))
    # sublinear regret: each player's realized regret is well under the
    # worst case of one per round, so the empirical epsilon (their
    # largest regret per round) is under 0.05
    assert verify_cce(PD_LOSSES[None],
                      _empirical(out, PD_LOSSES[None]))[0] < 0.05


def test_batch_solver_matches_single_contract():
    tensors = np.stack([MP_LOSSES, PD_LOSSES])
    out = ma_exp_ix_batch(tensors, rounds=2000,
                          rng=np.random.default_rng(4))
    assert out.policies.shape == (2, 2, 2)
    assert out.values.shape == (2, 2)
    assert np.all(out.joint_counts.sum(axis=1) == 2000)
    # every game's policies are simplex rows
    np.testing.assert_allclose(out.policies.sum(axis=2), 1.0)
    # the PD entry of the batch still finds the dominant action
    assert out.policies[1, 0, 1] > 0.9 and out.policies[1, 1, 1] > 0.9


def test_batch_solver_respects_masks():
    tensors = np.stack([MP_LOSSES])
    masks = np.array([[[True, False], [True, True]]])
    out = ma_exp_ix_batch(tensors, rounds=200, masks=masks,
                          rng=np.random.default_rng(5))
    assert out.policies[0, 0, 1] == 0.0
    assert _empirical(out, MP_LOSSES[None])[0, 1].sum() == 0.0


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
    tensor = g.random(counts + (n,))
    masks = np.zeros((1, n, max(counts)), dtype=bool)
    for i, m in enumerate(mask):
        masks[0, i, :len(m)] = m
    out = ma_exp_ix_batch(tensor[None], 300, masks=masks,
                          rng=np.random.default_rng(seed))
    visits, values, policies = scalar_exp_ix(tensor, 300, mask,
                                             np.random.default_rng(seed))
    dense = np.zeros(counts, dtype=np.int64)
    for joint, c in visits.items():
        dense[joint] = c
    np.testing.assert_array_equal(out.joint_counts[0], dense.ravel())
    np.testing.assert_array_equal(out.values[0], values)
    for i, q in enumerate(policies):
        np.testing.assert_array_equal(out.policies[0, i, :counts[i]], q)


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
    out = ma_exp_ix_batch(MP_LOSSES[None], rounds=2000,
                          rng=np.random.default_rng(seed))
    eps = verify_cce(MP_LOSSES[None], _empirical(out, MP_LOSSES[None]))[0]
    assert eps < 0.25
