"""Independent brute-force oracles used by the acceptance tests.

Everything here enumerates exhaustively and avoids the library's tree
and model machinery on purpose: values come from exact child lookups,
never from fitted approximators.
"""

import itertools

import numpy as np

from equilearn.bandit import default_schedule, sample_index
from equilearn.cce import StageGame, ma_exp_ix, normalize_losses


def enumerate_layers(game):
    """Exhaustive per-timestep state dictionaries, keyed by state key."""
    layers = [dict() for _ in range(game.horizon + 1)]
    for state, _ in game.start_states():
        layers[0][state.key()] = state
    for h in range(game.horizon):
        for state in layers[h].values():
            if state.terminal:
                continue
            legal = [game.legal_actions(state, p)
                     for p in range(game.num_players)]
            for joint in itertools.product(*legal):
                child = game.step(state, joint).next_state
                layers[h + 1][child.key()] = child
    return layers


def backward_cce_values(game, rounds, rng):
    """Exact-child backward stage solving over the full game.

    Terminal values are min-max normalized returns over the terminal
    layer (the same grounding convention the training loop uses); each
    interior state is solved with simultaneous EXP-IX on the exact child
    values. Returns a list of per-layer {state key: value vector} maps.
    """
    layers = enumerate_layers(game)
    values = [dict() for _ in layers]
    terminal = list(layers[game.horizon].values())
    returns = np.stack([game.terminal_returns(s) for s in terminal])
    grounded = 1.0 - normalize_losses(returns)
    for s, v in zip(terminal, grounded):
        values[game.horizon][s.key()] = v
    for h in range(game.horizon - 1, -1, -1):
        child_values = values[h + 1]
        for key, state in layers[h].items():
            counts = game.spec.action_counts
            tensor = np.empty(tuple(counts) + (game.num_players,))
            for joint in itertools.product(*(range(a) for a in counts)):
                child = game.step(state, joint).next_state
                tensor[joint] = child_values[child.key()]
            stage = StageGame(game.num_players, counts,
                              loss_tensor=np.clip(1.0 - tensor, 0.0, 1.0))
            out = ma_exp_ix(stage, rounds, rng=rng)
            values[h][key] = out.values
    return values


def scalar_exp_ix(stage, rounds, mask, rng):
    """Simultaneous EXP-IX on one stage game, one player and one round
    at a time: the reference the vectorized solver must match exactly.

    Returns (joint-action visit counts, per-player values, per-player
    masked policies).
    """
    counts = stage.action_counts
    params = default_schedule(max(2, max(counts)), rounds)

    def policy(lw, m):
        w = np.exp(np.where(m, lw, -np.inf) - lw[m].max())
        return w / w.sum()

    log_w = [np.zeros(a) for a in counts]
    loss_sums = np.zeros(stage.num_players)
    visits = {}
    for _ in range(rounds):
        ps = [policy(lw, m) for lw, m in zip(log_w, mask)]
        joint = tuple(sample_index(p, rng) for p in ps)
        losses = stage.loss_tensor[joint]
        loss_sums += losses
        visits[joint] = visits.get(joint, 0) + 1
        for i, a in enumerate(joint):
            log_w[i][a] -= (params.eta * losses[i]
                            / (ps[i][a] + params.gamma_ix))
    return (visits, 1.0 - loss_sums / rounds,
            [policy(lw, m) for lw, m in zip(log_w, mask)])
