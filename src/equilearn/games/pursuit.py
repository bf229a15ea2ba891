"""Grid pursuit: two pursuers chase one evader on a small grid.

All three agents move simultaneously with 5 actions each (up, down,
left, right, stay); moves off the grid resolve to staying in place.
Each step in which at least one pursuer shares the evader's cell pays
the pursuers +1 each and the evader -1. The state carries the
accumulated tag count so terminal returns depend only on the terminal
state.
"""

from __future__ import annotations

import numpy as np

from .base import Game, GameSpec, GameState, StepResult

MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0), (0, 0))  # up, down, left, right, stay

DEFAULT_SPAWNS = (
    ((0, 0), (4, 4), (2, 2)),
    ((0, 4), (4, 0), (2, 2)),
)

# payload = (pos0, pos1, pos_evader, tags) with pos = (x, y)


class PursuitGame(Game):
    def __init__(self, width: int = 5, height: int = 5, horizon: int = 10,
                 spawns=None, spawn_probs=None):
        self.width = width
        self.height = height
        if spawns is None:
            spawns = tuple(tuple((min(x, width - 1), min(y, height - 1))
                                 for x, y in layout)
                           for layout in DEFAULT_SPAWNS)
        self.spawns = tuple(tuple(tuple(p) for p in layout)
                            for layout in spawns)
        if spawn_probs is None:
            spawn_probs = (1.0 / len(self.spawns),) * len(self.spawns)
        self.spawn_probs = tuple(spawn_probs)
        self.spec = GameSpec(num_players=3, horizon=horizon,
                             action_counts=(5, 5, 5),
                             metadata=f"pursuit:{width}x{height}")

    @property
    def teams(self):
        return ((0, 1), (2,))

    @property
    def observation_size(self) -> int:
        return 7

    def start_states(self):
        return [(GameState(payload=(*layout, 0), timestep=0), prob)
                for layout, prob in zip(self.spawns, self.spawn_probs)]

    def _move(self, pos, action):
        dx, dy = MOVES[action]
        x, y = pos[0] + dx, pos[1] + dy
        if 0 <= x < self.width and 0 <= y < self.height:
            return (x, y)
        return tuple(pos)  # off-grid resolves to stay

    def step(self, state, joint):
        self.check_joint(state, joint)
        p0, p1, ev, tags = state.payload
        n0 = self._move(p0, joint[0])
        n1 = self._move(p1, joint[1])
        ne = self._move(ev, joint[2])
        tagged = n0 == ne or n1 == ne
        rewards = (1.0, 1.0, -1.0) if tagged else (0.0, 0.0, 0.0)
        h = state.timestep + 1
        nxt = GameState(payload=(n0, n1, ne, tags + int(tagged)),
                        timestep=h, terminal=h >= self.spec.horizon)
        return StepResult(nxt, rewards)

    def observe(self, state, player):
        p0, p1, ev, _tags = state.payload
        w, h = self.width - 1 or 1, self.height - 1 or 1
        return np.array([p0[0] / w, p0[1] / h, p1[0] / w, p1[1] / h,
                         ev[0] / w, ev[1] / h,
                         state.timestep / self.spec.horizon])

    def terminal_returns(self, state):
        tags = state.payload[3]
        return np.array([float(tags), float(tags), -float(tags)])

    def accumulated_returns(self, state):
        return self.terminal_returns(state)
