"""Checks of stage solves against properties the method must have.

Every check here is computed from the loss tensors and the solver's
outputs alone; nothing compares against a stored copy of earlier output.

- Policies are distributions with no mass on illegal or pruned arms.
- Joint visit counts sum to the round count.
- Each value equals 1 minus the count-weighted mean loss.
- Every pruned legal arm is strictly dominated by an unpruned arm against
  every unpruned opponent profile.
- The epsilon over legal deviations stays within the EXP-IX
  high-probability regret bound (Neu 2015) divided by the round count.
"""

from __future__ import annotations

import math

import numpy as np

VALUE_TOL = 1e-9
# Failure probability of the regret bound per (stage game, player). With
# up to 1e7 such pairs in one run the bound holds for all of them at
# once with probability at least 1 - 1e-3.
DELTA = 1e-10


class CheckError(AssertionError):
    """A program output broke a property the method guarantees."""


def legal_masks(game, states) -> np.ndarray:
    """(B, N, A_max) legality from ``Game.legal_actions``."""
    counts = game.spec.action_counts
    out = np.zeros((len(states), game.num_players, max(counts)), dtype=bool)
    for b, state in enumerate(states):
        for p in range(game.num_players):
            out[b, p, list(game.legal_actions(state, p))] = True
    return out


def _player_losses(tensors: np.ndarray, i: int) -> np.ndarray:
    """(B, A_i, J_-i) losses of player i, own arm first."""
    b = tensors.shape[0]
    li = np.moveaxis(tensors[..., i], 1 + i, 1)
    return li.reshape(b, li.shape[1], -1)


def _opponent_profiles(masks: np.ndarray, counts, i: int) -> np.ndarray:
    """(B, J_-i) flags of opponent profiles whose arms are all playable."""
    b = masks.shape[0]
    prof = np.ones((b, 1), dtype=bool)
    for j, a in enumerate(counts):
        if j != i:
            prof = (prof[:, :, None] & masks[:, j, None, :a]).reshape(b, -1)
    return prof


def check_pruning(tensors, legal, masks):
    """Each legal arm masked by pruning is strictly dominated by an
    unmasked arm against every unmasked opponent profile."""
    counts = tensors.shape[1:-1]
    if (masks & ~legal).any():
        raise CheckError("solver mask leaves an illegal arm playable")
    for i, a in enumerate(counts):
        li = _player_losses(tensors, i)                     # (B, A, J)
        prof = _opponent_profiles(masks, counts, i)        # (B, J)
        pruned = legal[:, i, :a] & ~masks[:, i, :a]        # (B, A)
        if not pruned.any():
            continue
        # less[b, d, x, j]: arm d beats arm x against profile j
        less = li[:, :, None, :] < li[:, None, :, :]
        dominates = (less | ~prof[:, None, None, :]).all(axis=3)
        dominates &= masks[:, i, :a][:, :, None]
        ok = dominates.any(axis=1)                          # (B, A)
        if (pruned & ~ok).any():
            b, x = np.argwhere(pruned & ~ok)[0]
            raise CheckError(f"pruned arm {x} of player {i} in stage game "
                             f"{b} is not strictly dominated")


def legal_epsilon(tensors, dist, legal) -> np.ndarray:
    """(B, N) best gain of a legal unilateral deviation from ``dist``.

    ``dist`` is (B, J) over flat joint actions. Entry (b, i) is
    ``E[c_i(a)] - min over legal a' of E[c_i(a', a_-i)]``, floored at 0.
    """
    b = tensors.shape[0]
    counts = tensors.shape[1:-1]
    n = tensors.shape[-1]
    d = dist.reshape((b, *counts))
    out = np.zeros((b, n))
    for i, a in enumerate(counts):
        li = tensors[..., i]
        incurred = (d * li).reshape(b, -1).sum(axis=1)
        opp = d.sum(axis=1 + i).reshape(b, -1)              # (B, J_-i)
        dev = np.einsum("baj,bj->ba", _player_losses(tensors, i), opp)
        dev = np.where(legal[:, i, :a], dev, np.inf)
        out[:, i] = np.maximum(incurred - dev.min(axis=1), 0.0)
    return out


def exp_ix_regret_bound(k, rounds: int, eta: float, gamma: float,
                        delta: float = DELTA):
    """High-probability regret bound of EXP-IX with ``k`` playable arms.

    From the proof of Neu (2015, Theorem 1) with general eta and gamma:
    exponential weights give ``ln k / eta + (eta/2 + gamma) * S`` where
    ``S`` sums the IX loss estimates, and Neu's Lemma 1 bounds ``S`` by
    ``k T + ln(2/delta) / (2 gamma)`` and each arm's estimate error by
    ``ln(2k/delta) / (2 gamma)``, each with probability 1 - delta/2.
    The bound holds against adaptive opponents, so it covers every
    player of a simultaneous run. With the default schedule
    (gamma = eta/2) it is at most Neu's stated bound.
    """
    k = np.asarray(k, dtype=float)
    return (np.log(k) / eta
            + (eta / 2 + gamma) * (k * rounds + math.log(2 / delta)
                                   / (2 * gamma))
            + np.log(2 * k / delta) / (2 * gamma))


class StageCheck:
    """Checks one batch of stage solves and keeps the epsilons."""

    def __init__(self):
        self.epsilons: list = []
        self.games = 0
        self.worst_bound_share = 0.0

    def check(self, tensors, rounds: int, masks, legal, result,
              eta: float, gamma: float):
        tensors = np.asarray(tensors, dtype=float)
        masks = np.asarray(masks, dtype=bool)
        b, n = tensors.shape[0], tensors.shape[-1]
        if legal.shape != masks.shape:
            raise CheckError(f"{legal.shape[0]} layer states but "
                             f"{masks.shape[0]} stage games")
        pol = result.policies
        if np.abs(pol.sum(axis=2) - 1.0).max() > VALUE_TOL:
            raise CheckError("stage policy does not sum to 1")
        if (pol[~masks] != 0.0).any() or (pol < 0).any():
            raise CheckError("stage policy puts mass on an illegal or "
                             "pruned arm")
        jc = result.joint_counts
        if (jc.sum(axis=1) != rounds).any():
            raise CheckError("joint counts do not sum to the round count")
        flat = tensors.reshape(b, -1, n)
        expect = 1.0 - np.einsum("bj,bjn->bn", jc, flat) / rounds
        if np.abs(expect - result.values).max() > VALUE_TOL:
            raise CheckError("stage value is not 1 minus the mean loss")
        check_pruning(tensors, legal, masks)
        eps = legal_epsilon(tensors, jc / rounds, legal)
        playable = masks.sum(axis=2)                          # (B, N)
        bound = exp_ix_regret_bound(playable, rounds, eta, gamma) / rounds
        share = eps / bound
        if (share > 1.0).any():
            bi, i = np.argwhere(share > 1.0)[0]
            raise CheckError(f"stage game {bi} player {i}: epsilon "
                             f"{eps[bi, i]:.4f} over the EXP-IX bound "
                             f"{bound[bi, i]:.4f}")
        self.worst_bound_share = max(self.worst_bound_share,
                                     float(share.max()))
        self.epsilons.append(eps.max(axis=1))
        self.games += b

    def epsilon_stats(self) -> tuple:
        if not self.epsilons:
            return float("nan"), float("nan")
        eps = np.concatenate(self.epsilons)
        return float(eps.mean()), float(eps.max())
