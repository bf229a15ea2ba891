"""Multi-agent EXP-IX stage solving and equilibrium verification.

One stage game lives at a single state: its per-player losses come
either from terminal rewards (normalized into [0, 1]) or from a value
model one layer deeper. Every function here takes a batch of
same-shaped stage games: dense loss tensors of shape
(B, A_1, ..., A_N, N) and boolean masks of shape (B, N, A_max), True =
playable, with the arms past a player's action count False. A single
game is a batch of one. All N players run EXP-IX simultaneously on the
shared loss tensor; the empirical distribution of sampled joint actions
approximates a coarse correlated equilibrium, which the verifier checks
by exhaustive enumeration of legal deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandit import (IxParams, cdf_rows, default_schedule, draw_rows,
                     ix_policies, ix_update_rows)

LOSS_TOL = 1e-9


def _check_losses(loss_tensors) -> np.ndarray:
    """Loss tensors as floats clipped to [0, 1]; their shape must be
    (B, A_1, ..., A_N, N) and their entries lie in [0, 1]."""
    t = np.asarray(loss_tensors, dtype=float)
    if t.ndim < 3 or t.ndim != t.shape[-1] + 2:
        raise ValueError(f"loss tensors of shape {t.shape}; expected "
                         f"(B, A_1, ..., A_N, N)")
    if t.min() < -LOSS_TOL or t.max() > 1 + LOSS_TOL:
        raise ValueError("loss tensor entries must lie in [0, 1]")
    return np.clip(t, 0.0, 1.0)


def _check_masks(masks, t: np.ndarray) -> np.ndarray:
    """Masks for loss tensors ``t`` as a (B, N, A_max) bool array; None
    allows every arm. Each player must keep at least one arm."""
    counts = t.shape[1:-1]
    arms = np.arange(max(counts)) < np.array(counts)[:, None]    # (N, A)
    if masks is None:
        return np.broadcast_to(arms, (t.shape[0], *arms.shape)).copy()
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != (t.shape[0], *arms.shape) or (masks & ~arms).any():
        raise ValueError(f"masks of shape {masks.shape} do not fit loss "
                         f"tensors of shape {t.shape}")
    if not masks.any(axis=2).all():
        raise ValueError("mask leaves a player with no playable action")
    return masks


def _player_losses(t: np.ndarray, i: int) -> np.ndarray:
    """(B, A_i, J_-i) losses of player i, own arm first."""
    li = np.moveaxis(t[..., i], 1 + i, 1)
    return li.reshape(t.shape[0], li.shape[1], -1)


def normalize_losses(rewards: np.ndarray) -> np.ndarray:
    """Map per-player rewards over a node set to losses in [0, 1].

    Per player: loss = 1 - (r - min)/(max - min), so the best reward in
    the set gets loss 0 and the worst loss 1. Degenerate ranges map to
    0.5 everywhere.
    """
    rewards = np.atleast_2d(np.asarray(rewards, dtype=float))
    lo = rewards.min(axis=0)
    hi = rewards.max(axis=0)
    span = hi - lo
    out = np.full_like(rewards, 0.5)
    ok = span > LOSS_TOL
    out[:, ok] = 1.0 - (rewards[:, ok] - lo[ok]) / span[ok]
    return out


@dataclass
class BatchCceOutcome:
    """Stage-solver output for a batch of same-shaped stage games."""

    log_weights: np.ndarray     # (B, N, A_max)
    policies: np.ndarray        # (B, N, A_max), masked arms exactly 0
    values: np.ndarray          # (B, N)
    joint_counts: np.ndarray    # (B, prod(A)) flat joint-action visit counts
    masks: np.ndarray           # (B, N, A_max) bool
    rounds: int


def ma_exp_ix_batch(loss_tensors: np.ndarray, rounds: int,
                    params: IxParams | None = None, masks=None,
                    rng: np.random.Generator | None = None
                    ) -> BatchCceOutcome:
    """Simultaneous EXP-IX for all players over a batch of stage games.

    ``loss_tensors`` has shape (B, A_1, ..., A_N, N) and ``masks``
    (B, N, A_max), True = playable. Every round each player of each game
    draws an arm from its masked policy
    (:func:`~equilearn.bandit.ix_policies`, then
    :func:`~equilearn.bandit.draw_rows`), the joint loss is looked up,
    and each player applies the IX update
    (:func:`~equilearn.bandit.ix_update_rows`) on its own chosen arm. The
    games are independent; the batch dimension only vectorizes them.
    Games that leave every player one playable arm skip the sampling
    and give the same result, and the same generator state after it.
    """
    if rounds < 1:
        raise ValueError("need at least 1 round")
    if rng is None:
        rng = np.random.default_rng()
    t = _check_losses(loss_tensors)
    masks = _check_masks(masks, t)
    b = t.shape[0]
    n = t.shape[-1]
    action_counts = t.shape[1:-1]
    a_max = max(action_counts)
    joint = int(np.prod(action_counts))
    flat_losses = t.reshape(b, joint, n)
    if params is None:
        params = default_schedule(max(2, a_max), rounds)

    # strides map per-player arms to a flat joint-action index
    strides = np.empty(n, dtype=int)
    acc = 1
    for i in range(n - 1, -1, -1):
        strides[i] = acc
        acc *= action_counts[i]

    neg_inf = np.where(masks, 0.0, -np.inf)
    # A forced game leaves every player one playable arm, which every
    # round draws with p_sel exactly 1, so only live games sample. The
    # forced games keep their per-round running adds (rounds * loss can
    # differ in the last bit), and every round still draws the whole
    # batch's uniforms, so the generator ends where it always did.
    forced = (masks.sum(axis=2) == 1).all(axis=1)
    fixed = np.flatnonzero(forced)
    fixed_arm = masks[fixed].argmax(axis=2)                  # (F, N)
    fixed_flat = fixed_arm @ strides
    fixed_loss = flat_losses[fixed, fixed_flat]              # (F, N)
    fixed_step = params.eta * fixed_loss / (1.0 + params.gamma_ix)  # at p = 1
    fixed_sums = np.zeros((len(fixed), n))
    fixed_w = np.zeros((len(fixed), n))

    live = np.flatnonzero(~forced)
    nl = len(live)
    live_losses = flat_losses[live]
    live_neg_inf = neg_inf[live]
    live_w = np.zeros((nl, n, a_max))
    live_sums = np.zeros((nl, n))
    live_counts = np.zeros((nl, joint), dtype=np.int64)
    li = np.arange(nl)
    bi = li[:, None]
    ni = np.arange(n)[None, :]
    for _ in range(rounds):
        u = rng.random((b, n, 1))
        fixed_sums += fixed_loss
        fixed_w -= fixed_step
        if not nl:
            continue
        p = ix_policies(live_w, live_neg_inf)
        chosen = draw_rows(cdf_rows(p), u[live])
        flat = chosen @ strides
        losses = live_losses[li, flat]                   # (L, N)
        live_sums += losses
        np.add.at(live_counts, (li, flat), 1)
        ix_update_rows(live_w, (bi, ni), chosen, losses, p[bi, ni, chosen],
                       params)

    log_w = np.zeros((b, n, a_max))
    log_w[live] = live_w
    log_w[fixed[:, None], ni, fixed_arm] = fixed_w
    loss_sums = np.empty((b, n))
    loss_sums[live] = live_sums
    loss_sums[fixed] = fixed_sums
    counts = np.zeros((b, joint), dtype=np.int64)
    counts[live] = live_counts
    counts[fixed, fixed_flat] = rounds

    policies = ix_policies(log_w, neg_inf)
    values = 1.0 - loss_sums / rounds
    return BatchCceOutcome(log_weights=log_w, policies=policies,
                           values=values, joint_counts=counts, masks=masks,
                           rounds=rounds)


def _opponent_profiles(masks: np.ndarray, counts, i: int) -> np.ndarray:
    """(B, J_-i) flags of opponent profiles whose arms are all playable,
    in the order of :func:`_player_losses`."""
    b = masks.shape[0]
    prof = np.ones((b, 1), dtype=bool)
    for j, a in enumerate(counts):
        if j != i:
            prof = (prof[:, :, None] & masks[:, j, None, :a]).reshape(b, -1)
    return prof


def prune_dominated(loss_tensors: np.ndarray, masks=None) -> np.ndarray:
    """Iterated strict pure-strategy dominance over a batch of stage
    games.

    An arm is masked iff some other playable arm has strictly lower loss
    against every playable joint opponent profile. Each step masks all
    of one player's dominated arms in every game at once, player after
    player, until a sweep changes nothing; the fixed point does not
    depend on the order of elimination (Gilboa, Kalai and Zemel 1990).
    ``masks`` gives the arms playable at the start (default: every arm).
    Returns (B, N, A_max) masks, True = playable.
    """
    t = _check_losses(loss_tensors)
    masks = _check_masks(masks, t).copy()
    counts = t.shape[1:-1]
    # less[i][b, d, x, j]: player i's arm d loses less than arm x
    # against opponent profile j
    less = []
    for i in range(len(counts)):
        li = _player_losses(t, i)                                # (B, A, J)
        less.append(li[:, :, None, :] < li[:, None, :, :])
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(counts):
            prof = _opponent_profiles(masks, counts, i)          # (B, J)
            beats = (less[i] | ~prof[:, None, None, :]).all(axis=3)
            dominated = (beats & masks[:, i, :a, None]).any(axis=1)
            if (dominated & masks[:, i, :a]).any():
                masks[:, i, :a] &= ~dominated
                changed = True
    return masks


def verify_cce(loss_tensors: np.ndarray, joint_dists, legal=None
               ) -> np.ndarray:
    """Exact epsilon of each game's joint distribution: its best
    deviation gain.

    ``joint_dists`` has shape (B, A_1, ..., A_N), each game's entries
    summing to 1; ``legal`` optionally gives (B, N, A_max) masks of the
    arms a player may deviate to (default: every arm). Returns, per
    game, max over players i and legal arms a' of
    [E_sigma c_i(a) - E_sigma c_i(a', a_-i)]^+ by full enumeration.
    """
    t = _check_losses(loss_tensors)
    legal = _check_masks(legal, t)
    d = np.asarray(joint_dists, dtype=float)
    if d.shape != t.shape[:-1]:
        raise ValueError(f"distributions of shape {d.shape}, expected "
                         f"{t.shape[:-1]}")
    b = t.shape[0]
    totals = d.reshape(b, -1).sum(axis=1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"distribution sums to {totals[bad[0]]}, not 1")
    eps = np.zeros(b)
    for i, a in enumerate(t.shape[1:-1]):
        incurred = (d * t[..., i]).reshape(b, -1).sum(axis=1)
        opp = d.sum(axis=1 + i).reshape(b, -1)                   # (B, J)
        dev = np.einsum("baj,bj->ba", _player_losses(t, i), opp)
        dev = np.where(legal[:, i, :a], dev, np.inf)
        eps = np.maximum(eps, incurred - dev.min(axis=1))
    return eps
