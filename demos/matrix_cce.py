"""Coarse correlated equilibria of small matrix games via multi-agent EXP-IX.

Three classics: matching pennies and rock-paper-scissors converge to the
uniform mixed equilibrium, while the prisoner's dilemma shows what
dominance pruning buys — without it the empirical play still leaks a
little mass onto the dominated cooperate action.
"""

import numpy as np

from equilearn.cce import (ma_exp_ix_batch, normalize_losses,
                           prune_dominated, verify_cce)
from equilearn.games import game_from_id


def losses_from_matrix(game_id):
    """The game's loss tensor as a batch of one stage game."""
    game = game_from_id(game_id)
    counts = game.spec.action_counts
    start = game.start_states()[0][0]
    rewards = np.stack([game.terminal_returns(game.step(start, j).next_state)
                        for j in np.ndindex(*counts)])
    tensor = normalize_losses(rewards).reshape(counts + (game.num_players,))
    return tensor[None]


def show(game_id, rounds=50_000, masks=None, label=""):
    losses = losses_from_matrix(game_id)
    counts = losses.shape[1:-1]
    out = ma_exp_ix_batch(losses, rounds, masks=masks,
                          rng=np.random.default_rng(0))
    dist = out.joint_counts.reshape(losses.shape[:-1]) / out.rounds
    eps = verify_cce(losses, dist)[0]
    print(f"{game_id}{label}  ({rounds} rounds)")
    for p in range(len(counts)):
        marginal = dist[0].sum(axis=1 - p)
        joined = ", ".join(f"{x:.3f}" for x in marginal)
        print(f"  player {p} empirical marginal: [{joined}]")
    print(f"  epsilon of empirical joint play: {eps:.4f}\n")


def main():
    show("matrix:mp")
    show("matrix:rps")
    show("matrix:pd")
    masks = prune_dominated(losses_from_matrix("matrix:pd"))
    print("prisoner's dilemma dominance masks:",
          [m.tolist() for m in masks[0]])
    show("matrix:pd", rounds=2_000, masks=masks, label=" [pruned]")


if __name__ == "__main__":
    main()
