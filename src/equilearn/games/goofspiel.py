"""Goofspiel-N: two players bid hidden cards for a sequence of prizes.

Each player holds bid cards 1..N. Prize cards 1..N are revealed in a
uniformly random order that is fixed at the start and visible in the
state. The higher bid takes the prize's point value; ties discard the
prize. Rewards are reported as a zero-sum pair (+d, -d) of the score
difference gained that step, so accumulated returns are exactly
zero-sum.
"""

from __future__ import annotations

import itertools

import numpy as np

from .base import Game, GameSpec, GameState, StepResult

# payload = (hand0 bitmask, hand1 bitmask, prize order tuple, score diff d)
# where d is player 0's accumulated score minus player 1's.


class GoofspielGame(Game):
    reward_symmetry = "zero_sum"

    def __init__(self, n_cards: int, prize_order: tuple[int, ...] | None = None):
        if n_cards < 2:
            raise ValueError("need at least 2 cards")
        if n_cards > 6:
            raise ValueError("start distribution enumerates prize orders; "
                             "n_cards > 6 is not supported")
        self.n_cards = n_cards
        self.fixed_order = tuple(prize_order) if prize_order else None
        if self.fixed_order is not None:
            if sorted(self.fixed_order) != list(range(1, n_cards + 1)):
                raise ValueError("prize order must be a permutation of 1..N")
        self.spec = GameSpec(num_players=2, horizon=n_cards,
                             action_counts=(n_cards, n_cards),
                             metadata=f"goofspiel:{n_cards}")

    @property
    def observation_size(self) -> int:
        return 4 * self.n_cards + 2

    def start_states(self):
        full = (1 << self.n_cards) - 1
        if self.fixed_order is not None:
            orders = [self.fixed_order]
        else:
            orders = [tuple(p) for p in
                      itertools.permutations(range(1, self.n_cards + 1))]
        prob = 1.0 / len(orders)
        return [(GameState(payload=(full, full, order, 0.0), timestep=0),
                 prob) for order in orders]

    def legal_actions(self, state, player):
        if state.terminal:
            raise ValueError("terminal state has no legal actions")
        hand = state.payload[player]
        return tuple(c for c in range(self.n_cards) if hand & (1 << c))

    def step(self, state, joint):
        self.check_joint(state, joint)
        hand0, hand1, order, diff = state.payload
        a0, a1 = joint
        prize = order[state.timestep]
        if a0 > a1:
            gain = float(prize)
        elif a1 > a0:
            gain = -float(prize)
        else:
            gain = 0.0
        h = state.timestep + 1
        nxt = GameState(payload=(hand0 & ~(1 << a0), hand1 & ~(1 << a1),
                                 order, diff + gain),
                        timestep=h, terminal=h >= self.n_cards)
        return StepResult(nxt, rewards=(gain, -gain))

    def observe(self, state, player):
        hand0, hand1, order, diff = state.payload
        n = self.n_cards
        own, opp = (hand0, hand1) if player == 0 else (hand1, hand0)
        own_bits = [(own >> c) & 1 for c in range(n)]
        opp_bits = [(opp >> c) & 1 for c in range(n)]
        remaining = [0.0] * n
        for p in order[state.timestep:]:
            remaining[p - 1] = 1.0
        current = [0.0] * n
        if not state.terminal:
            current[order[state.timestep] - 1] = 1.0
        signed = diff if player == 0 else -diff
        # normalize score difference by the total prize pool
        pool = n * (n + 1) / 2.0
        return np.array([*own_bits, *opp_bits, *remaining, *current,
                         signed / pool, state.timestep / n], dtype=float)

    def terminal_returns(self, state):
        diff = state.payload[3]
        return np.array([diff, -diff])

    def accumulated_returns(self, state):
        return self.terminal_returns(state)
