"""One-shot and repeated normal-form matrix games.

Matrix games load from a text file: first line ``N A_1 ... A_N``, then
one line per joint action in row-major order carrying N real payoffs.
"""

from __future__ import annotations

import numpy as np

from .base import Game, GameSpec, GameState, StepResult


def load_payoff_file(path: str) -> np.ndarray:
    """Parse a payoff file into a tensor of shape (A_1, ..., A_N, N)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError(f"empty payoff file: {path}")
    header = lines[0].split()
    n = int(header[0])
    if len(header) != n + 1:
        raise ValueError(f"header must be 'N A_1 ... A_N', got {lines[0]!r}")
    counts = tuple(int(x) for x in header[1:])
    joint = int(np.prod(counts))
    if len(lines) - 1 != joint:
        raise ValueError(f"expected {joint} payoff rows, got {len(lines) - 1}")
    tensor = np.empty(counts + (n,), dtype=float)
    for row, line in enumerate(lines[1:]):
        vals = [float(x) for x in line.split()]
        if len(vals) != n:
            raise ValueError(f"row {row} has {len(vals)} payoffs, expected {n}")
        tensor[np.unravel_index(row, counts)] = vals
    return tensor


class MatrixGame(Game):
    """A one-shot simultaneous-move game given by a payoff tensor.

    ``payoffs`` has shape (A_1, ..., A_N, N): trailing axis is the
    per-player payoff of the joint action indexing the leading axes.
    """

    def __init__(self, payoffs: np.ndarray, name: str = "matrix"):
        payoffs = np.asarray(payoffs, dtype=float)
        n = payoffs.shape[-1]
        if payoffs.ndim != n + 1:
            raise ValueError("payoff tensor must have shape (A_1..A_N, N)")
        self.payoffs = payoffs
        counts = payoffs.shape[:-1]
        self.spec = GameSpec(num_players=n, horizon=1, action_counts=counts,
                             metadata=name)
        if n == 2 and np.allclose(payoffs.sum(axis=-1), 0.0):
            self.reward_symmetry = "zero_sum"
        elif np.allclose(payoffs, payoffs[..., :1]):
            self.reward_symmetry = "identical"

    @classmethod
    def from_file(cls, path: str) -> "MatrixGame":
        return cls(load_payoff_file(path), name=f"matrix:{path}")

    @property
    def observation_size(self) -> int:
        return 1

    def start_states(self):
        return [(GameState(payload=(), timestep=0), 1.0)]

    def step(self, state, joint):
        self.check_joint(state, joint)
        rewards = tuple(float(x) for x in self.payoffs[tuple(joint)])
        nxt = GameState(payload=(tuple(joint),), timestep=1, terminal=True)
        return StepResult(next_state=nxt, rewards=rewards)

    def observe(self, state, player):
        return np.array([float(state.timestep)])

    def terminal_returns(self, state):
        (joint,) = state.payload
        return self.payoffs[tuple(joint)].astype(float)


class RepeatedMatrixGame(Game):
    """The same stage payoff tensor played for ``rounds`` steps.

    The state tracks accumulated per-player scores so terminal returns
    are a function of the terminal state alone.
    """

    def __init__(self, payoffs: np.ndarray, rounds: int, name: str = "repeated"):
        base = MatrixGame(payoffs)
        self.payoffs = base.payoffs
        self.reward_symmetry = base.reward_symmetry
        self.spec = GameSpec(num_players=base.spec.num_players, horizon=rounds,
                             action_counts=base.spec.action_counts,
                             metadata=name)

    @property
    def observation_size(self) -> int:
        return 1 + self.spec.num_players

    def start_states(self):
        zero = (0.0,) * self.spec.num_players
        return [(GameState(payload=zero, timestep=0), 1.0)]

    def step(self, state, joint):
        self.check_joint(state, joint)
        rewards = self.payoffs[tuple(joint)]
        scores = tuple(s + float(r) for s, r in zip(state.payload, rewards))
        h = state.timestep + 1
        nxt = GameState(payload=scores, timestep=h,
                        terminal=h >= self.spec.horizon)
        return StepResult(next_state=nxt,
                          rewards=tuple(float(r) for r in rewards))

    def observe(self, state, player):
        h = state.timestep / self.spec.horizon
        return np.array([h, *state.payload], dtype=float)

    def terminal_returns(self, state):
        return np.array(state.payload, dtype=float)

    def accumulated_returns(self, state):
        return self.terminal_returns(state)


class ChainGame(Game):
    """A short game whose terminal payoff depends on the full action history.

    Useful as an exhaustive test fixture: with two players, two actions
    and two steps the complete tree has 21 nodes. Payoffs are drawn once
    from ``seed`` and are a fixed table keyed by the action history.
    """

    def __init__(self, num_players: int = 2, actions: int = 2, rounds: int = 2,
                 seed: int = 0, name: str = "chain"):
        counts = (actions,) * num_players
        self.spec = GameSpec(num_players=num_players, horizon=rounds,
                             action_counts=counts, metadata=name)
        rng = np.random.default_rng(seed)
        shape = counts * rounds + (num_players,)
        self.terminal_payoffs = rng.uniform(-1.0, 1.0, size=shape)

    @property
    def observation_size(self) -> int:
        return 1 + self.spec.num_players * self.spec.horizon

    def start_states(self):
        return [(GameState(payload=(), timestep=0), 1.0)]

    def step(self, state, joint):
        self.check_joint(state, joint)
        history = state.payload + tuple(joint)
        h = state.timestep + 1
        done = h >= self.spec.horizon
        rewards = (0.0,) * self.spec.num_players
        if done:
            rewards = tuple(float(x) for x in self.terminal_payoffs[history])
        return StepResult(GameState(payload=history, timestep=h,
                                    terminal=done), rewards)

    def observe(self, state, player):
        # history padded with -1 for steps not yet taken
        pad = self.spec.num_players * self.spec.horizon - len(state.payload)
        hist = [float(a) for a in state.payload] + [-1.0] * pad
        return np.array([state.timestep / self.spec.horizon, *hist])

    def terminal_returns(self, state):
        return self.terminal_payoffs[state.payload].astype(float)


# Small library of standard 2x2 / 3x3 fixtures used across tests and demos.

def matching_pennies() -> MatrixGame:
    t = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            win = 1.0 if i == j else -1.0
            t[i, j] = (win, -win)
    return MatrixGame(t, name="matching_pennies")


def rock_paper_scissors() -> MatrixGame:
    t = np.zeros((3, 3, 2))
    for i in range(3):
        for j in range(3):
            if i == j:
                w = 0.0
            elif (i - j) % 3 == 1:
                w = 1.0
            else:
                w = -1.0
            t[i, j] = (w, -w)
    return MatrixGame(t, name="rock_paper_scissors")


def prisoners_dilemma() -> MatrixGame:
    # action 0 = cooperate, 1 = defect
    t = np.empty((2, 2, 2))
    t[0, 0] = (3.0, 3.0)
    t[0, 1] = (0.0, 5.0)
    t[1, 0] = (5.0, 0.0)
    t[1, 1] = (1.0, 1.0)
    return MatrixGame(t, name="prisoners_dilemma")
