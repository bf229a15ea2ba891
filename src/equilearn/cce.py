"""Multi-agent EXP-IX stage solving and equilibrium verification.

One stage game lives at a single state: its per-player losses come
either from terminal rewards (normalized into [0, 1]) or from a value
model one layer deeper. All N players run EXP-IX simultaneously on the
shared dense loss tensor, a batch of same-shaped stage games at a time;
the empirical distribution of sampled joint actions approximates a
coarse correlated equilibrium, which the brute-force verifier checks by
exhaustive enumeration of legal deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandit import IxParams, WeightRow, default_schedule

LOSS_TOL = 1e-9


@dataclass
class StageGame:
    """A one-shot game with losses in [0, 1]^N, held as a dense tensor
    of shape (A_1, ..., A_N, N)."""

    num_players: int
    action_counts: tuple[int, ...]
    loss_tensor: np.ndarray | None = None

    def __post_init__(self):
        if self.loss_tensor is None:
            raise ValueError("need a loss tensor")
        t = np.asarray(self.loss_tensor, dtype=float)
        expected = tuple(self.action_counts) + (self.num_players,)
        if t.shape != expected:
            raise ValueError(f"loss tensor shape {t.shape}, "
                             f"expected {expected}")
        if t.min() < -LOSS_TOL or t.max() > 1 + LOSS_TOL:
            raise ValueError("loss tensor entries must lie in [0, 1]")
        self.loss_tensor = np.clip(t, 0.0, 1.0)


def full_mask(action_counts) -> list[np.ndarray]:
    return [np.ones(a, dtype=bool) for a in action_counts]


def check_mask(mask, action_counts):
    mask = [np.asarray(m, dtype=bool) for m in mask]
    if len(mask) != len(action_counts):
        raise ValueError("mask needs one row per player")
    for m, a in zip(mask, action_counts):
        if len(m) != a:
            raise ValueError("mask row length mismatch")
        if not m.any():
            raise ValueError("mask leaves a player with no playable action")
    return mask


def stack_masks(rows, action_counts) -> np.ndarray:
    """Per-game lists of per-player masks as one (B, N, A_max) array;
    arms past a player's action count are False."""
    out = np.zeros((len(rows), len(action_counts), max(action_counts)),
                   dtype=bool)
    for b, row in enumerate(rows):
        for i, m in enumerate(row):
            out[b, i, :action_counts[i]] = m
    return out


@dataclass
class CceOutcome:
    """Result of a multi-agent EXP-IX run at one state."""

    weights: list[WeightRow]
    policies: list[np.ndarray]
    values: np.ndarray                      # per player, 1 - average loss
    empirical_joint: dict[tuple[int, ...], int]
    rounds: int


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

    action_counts: tuple[int, ...]
    log_weights: np.ndarray     # (B, N, A_max)
    policies: np.ndarray        # (B, N, A_max), masked arms exactly 0
    values: np.ndarray          # (B, N)
    joint_counts: np.ndarray    # (B, prod(A)) flat joint-action visit counts
    masks: np.ndarray           # (B, N, A_max) bool
    rounds: int

    def outcome(self, b: int) -> CceOutcome:
        counts = self.action_counts
        weights = [WeightRow(self.log_weights[b, i, :a].copy())
                   for i, a in enumerate(counts)]
        policies = [self.policies[b, i, :a].copy()
                    for i, a in enumerate(counts)]
        joint = {}
        for flat, c in enumerate(self.joint_counts[b]):
            if c:
                joint[tuple(int(x) for x in
                            np.unravel_index(flat, counts))] = int(c)
        return CceOutcome(weights=weights, policies=policies,
                          values=self.values[b].copy(),
                          empirical_joint=joint, rounds=self.rounds)


def ma_exp_ix_batch(loss_tensors: np.ndarray, rounds: int,
                    params: IxParams | None = None, masks=None,
                    rng: np.random.Generator | None = None
                    ) -> BatchCceOutcome:
    """Simultaneous EXP-IX for all players over a batch of stage games.

    ``loss_tensors`` has shape (B, A_1, ..., A_N, N) and ``masks``
    (B, N, A_max), True = playable. Every round each player of each game
    draws an arm from its masked weight policy by the rule of
    :func:`~equilearn.bandit.sample_index`, the joint loss is looked up,
    and each player applies the IX update on its own chosen arm. The
    games are independent; the batch dimension only vectorizes them.
    Games that leave every player one playable arm skip the sampling
    and give the same result, and the same generator state after it.
    """
    if rounds < 1:
        raise ValueError("need at least 1 round")
    if rng is None:
        rng = np.random.default_rng()
    t = np.asarray(loss_tensors, dtype=float)
    if t.min() < -LOSS_TOL or t.max() > 1 + LOSS_TOL:
        raise ValueError("batch loss tensors must lie in [0, 1]")
    t = np.clip(t, 0.0, 1.0)
    b = t.shape[0]
    n = t.shape[-1]
    action_counts = t.shape[1:-1]
    a_max = max(action_counts)
    joint = int(np.prod(action_counts))
    flat_losses = t.reshape(b, joint, n)

    if masks is None:
        masks = np.zeros((b, n, a_max), dtype=bool)
        for i, a in enumerate(action_counts):
            masks[:, i, :a] = True
    else:
        masks = np.asarray(masks, dtype=bool)
        if not masks.any(axis=2).all():
            raise ValueError("mask leaves a player with no playable action")
    if params is None:
        params = default_schedule(max(2, a_max), rounds)
    eta, gamma = params.eta, params.gamma_ix

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
    fixed_step = eta * fixed_loss / (1.0 + gamma)
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
        lw = live_w + live_neg_inf
        lw -= lw.max(axis=2, keepdims=True)
        w = np.exp(lw)
        p = w / w.sum(axis=2, keepdims=True)
        c = np.cumsum(p, axis=2)
        c /= c[:, :, -1:]
        chosen = (u[live] >= c).sum(axis=2)
        p_sel = p[bi, ni, chosen]
        flat = chosen @ strides
        losses = live_losses[li, flat]                   # (L, N)
        live_sums += losses
        np.add.at(live_counts, (li, flat), 1)
        live_w[bi, ni, chosen] -= eta * losses / (p_sel + gamma)

    log_w = np.zeros((b, n, a_max))
    log_w[live] = live_w
    log_w[fixed[:, None], ni, fixed_arm] = fixed_w
    loss_sums = np.empty((b, n))
    loss_sums[live] = live_sums
    loss_sums[fixed] = fixed_sums
    counts = np.zeros((b, joint), dtype=np.int64)
    counts[live] = live_counts
    counts[fixed, fixed_flat] = rounds

    lw = log_w + neg_inf
    lw -= lw.max(axis=2, keepdims=True)
    w = np.exp(lw)
    policies = w / w.sum(axis=2, keepdims=True)
    values = 1.0 - loss_sums / rounds
    return BatchCceOutcome(action_counts=tuple(action_counts),
                           log_weights=log_w, policies=policies,
                           values=values, joint_counts=counts, masks=masks,
                           rounds=rounds)


def ma_exp_ix(stage: StageGame, rounds: int, params: IxParams | None = None,
              mask=None, rng: np.random.Generator | None = None) -> CceOutcome:
    """Simultaneous EXP-IX over one stage game: :func:`ma_exp_ix_batch`
    on a batch of one."""
    counts = stage.action_counts
    masks = (None if mask is None
             else stack_masks([check_mask(mask, counts)], counts))
    batch = ma_exp_ix_batch(stage.loss_tensor[None], rounds, params, masks,
                            rng)
    return batch.outcome(0)


def prune_dominated(stage: StageGame, legal=None) -> list[np.ndarray]:
    """Iterated strict pure-strategy dominance on a dense stage game.

    An action is masked iff some other playable action has strictly
    lower loss against every playable joint opponent profile; applied
    per player and iterated to a fixed point. Returns per-player
    boolean masks (True = playable).
    """
    counts = stage.action_counts
    n = stage.num_players
    mask = (check_mask(legal, counts) if legal is not None
            else full_mask(counts))
    mask = [m.copy() for m in mask]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            li = np.moveaxis(stage.loss_tensor[..., i], i, 0)
            li = li.reshape(counts[i], -1)
            opp = np.ones(1, dtype=bool)
            for j in range(n):
                if j != i:
                    opp = np.outer(opp, mask[j]).ravel()
            live = np.flatnonzero(mask[i])
            for a in live:
                if mask[i].sum() == 1:
                    break
                for a2 in live:
                    if a2 == a or not mask[i][a2]:
                        continue
                    if np.all(li[a2, opp] < li[a, opp]):
                        mask[i][a] = False
                        changed = True
                        break
    return mask


def _deviation_gains(weights: np.ndarray, stage: StageGame, legal=None
                     ) -> np.ndarray:
    """Per player i: the loss incurred under the joint ``weights`` minus
    that of the best fixed arm a' against the same opponent play, over
    the arms ``legal`` allows (every arm when it is None)."""
    counts = stage.action_counts
    gains = np.empty(stage.num_players)
    for i in range(stage.num_players):
        li = stage.loss_tensor[..., i]
        incurred = float((weights * li).sum())
        li_dev = np.moveaxis(li, i, 0).reshape(counts[i], -1)
        dev = li_dev @ weights.sum(axis=i).ravel()
        if legal is not None:
            dev = dev[legal[i]]
        gains[i] = incurred - float(dev.min())
    return gains


def verify_cce(joint_dist, stage: StageGame, legal=None) -> float:
    """Exact epsilon of a joint distribution: the best deviation gain.

    ``joint_dist`` is a dense array over joint actions or a mapping
    from joint-action tuples to probabilities; ``legal`` optionally
    gives per-player boolean masks of the arms a player may deviate to
    (default: every arm). Returns max over players i and legal arms a'
    of [E_sigma c_i(a) - E_sigma c_i(a', a_-i)]^+ by full enumeration.
    """
    counts = stage.action_counts
    if legal is not None:
        legal = check_mask(legal, counts)
    if isinstance(joint_dist, dict):
        dense = np.zeros(counts)
        for joint, prob in joint_dist.items():
            dense[tuple(joint)] = prob
    else:
        dense = np.asarray(joint_dist, dtype=float)
        if dense.shape != tuple(counts):
            raise ValueError("distribution shape mismatch")
    total = dense.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total}, not 1")
    return max(0.0, float(_deviation_gains(dense, stage, legal).max()))


def empirical_to_distribution(outcome: CceOutcome) -> dict:
    """Joint visit counts divided by the round count."""
    if outcome.rounds < 1:
        raise ValueError("no rounds recorded")
    return {joint: c / outcome.rounds
            for joint, c in outcome.empirical_joint.items()}


def realized_regret(outcome: CceOutcome, stage: StageGame, player: int
                    ) -> float:
    """Player's regret against the empirical opponent play of the run."""
    counts = np.zeros(stage.action_counts)
    for joint, c in outcome.empirical_joint.items():
        counts[tuple(joint)] = c
    return float(_deviation_gains(counts, stage)[player])
