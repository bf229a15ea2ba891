"""Core interfaces for finite-horizon simultaneous-move stochastic games.

Every game exposes the same surface: a finite categorical start
distribution, a deterministic transition over joint actions, per-player
legal-action sets, fixed-length per-player observation vectors, and the
accumulated per-player returns at terminal states.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field

import numpy as np

from ..bandit import sample_index

START_PROB_TOL = 1e-9


class IllegalActionError(ValueError):
    """A player submitted an action outside its legal set."""

    def __init__(self, player: int, action: int, state=None):
        self.player = player
        self.action = action
        super().__init__(f"illegal action {action} for player {player}"
                         + (f" in state {state}" if state is not None else ""))


@dataclass(frozen=True)
class GameSpec:
    """Static description of a stochastic game."""

    num_players: int
    horizon: int
    action_counts: tuple[int, ...]
    metadata: str = ""

    def __post_init__(self):
        if self.num_players < 2:
            raise ValueError("need at least 2 players")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if len(self.action_counts) != self.num_players:
            raise ValueError("action_counts must have one entry per player")
        if any(a < 1 for a in self.action_counts):
            raise ValueError("every player needs at least one action")


@dataclass(frozen=True)
class GameState:
    """A game state; equality and hashing are on (payload, timestep).

    ``payload`` must be a hashable, canonical encoding so identical
    states reached along different paths merge during tree building.
    """

    payload: tuple
    timestep: int
    terminal: bool = field(default=False, compare=False)

    def key(self) -> tuple:
        return (self.payload, self.timestep)


@dataclass(frozen=True)
class StepResult:
    next_state: GameState
    rewards: tuple[float, ...]


class Game(abc.ABC):
    """A simultaneous-move game. All methods are pure functions."""

    spec: GameSpec
    # 'general', 'zero_sum' or 'identical'; drives value-model sharing.
    reward_symmetry: str = "general"

    @property
    def num_players(self) -> int:
        return self.spec.num_players

    @property
    def horizon(self) -> int:
        return self.spec.horizon

    @property
    def teams(self) -> tuple[tuple[int, ...], ...]:
        """Sides for match play; default one player per side."""
        return tuple((p,) for p in range(self.spec.num_players))

    @abc.abstractmethod
    def start_states(self) -> list[tuple[GameState, float]]:
        """The finite categorical start distribution."""

    @abc.abstractmethod
    def step(self, state: GameState, joint: tuple[int, ...]) -> StepResult:
        """Deterministic transition; raises IllegalActionError on bad input."""

    def legal_actions(self, state: GameState, player: int) -> tuple[int, ...]:
        """Nonempty subset of range(action_counts[player]); by default
        every action, until the game ends."""
        if state.terminal:
            raise ValueError("terminal state has no legal actions")
        return self._all_actions[player]

    @functools.cached_property
    def _all_actions(self) -> tuple[tuple[int, ...], ...]:
        """Each player's full action tuple, built once per game."""
        return tuple(tuple(range(a)) for a in self.spec.action_counts)

    @abc.abstractmethod
    def observe(self, state: GameState, player: int) -> np.ndarray:
        """Fixed-length float observation vector for ``player``."""

    @abc.abstractmethod
    def terminal_returns(self, state: GameState) -> np.ndarray:
        """Accumulated per-player utility at a terminal state."""

    @property
    @abc.abstractmethod
    def observation_size(self) -> int:
        ...

    def accumulated_returns(self, state: GameState) -> np.ndarray:
        """Per-player score accumulated up to ``state``.

        Equals terminal_returns at terminal states. Games whose payload
        carries a running score override this so partially built trees
        can ground value targets mid-episode; the default knows nothing
        before the end of the game.
        """
        if state.terminal:
            return self.terminal_returns(state)
        return np.zeros(self.spec.num_players)

    @functools.cached_property
    def _start_distribution(self) -> tuple[list[GameState], np.ndarray]:
        """The start states and their normalized probabilities, built
        once per game."""
        states = self.start_states()
        probs = np.array([p for _, p in states])
        total = probs.sum()
        if abs(total - 1.0) > START_PROB_TOL:
            raise ValueError(f"start probabilities sum to {total}, not 1")
        return [s for s, _ in states], probs / total

    def sample_start(self, rng: np.random.Generator) -> GameState:
        """A start state drawn by the one action sampler's rule."""
        states, probs = self._start_distribution
        return states[sample_index(probs, rng)]

    def check_joint(self, state: GameState, joint: tuple[int, ...]):
        if len(joint) != self.spec.num_players:
            raise IllegalActionError(-1, -1, state)
        for p, a in enumerate(joint):
            if a not in self.legal_actions(state, p):
                raise IllegalActionError(p, a, state)


def legal_masks(game, states) -> np.ndarray:
    """``(k, N, A_max)`` boolean masks of each of ``states``' legal
    actions, ``masks[i, p, a]`` true when player ``p`` may play ``a`` in
    ``states[i]``; false past each player's action count. Reads only
    ``game.legal_actions``, ``game.num_players`` and
    ``game.spec.action_counts``."""
    n = game.num_players
    a_max = max(game.spec.action_counts)
    legal = [game.legal_actions(s, p) for s in states for p in range(n)]
    masks = np.zeros((len(states), n, a_max), dtype=bool)
    masks.reshape(-1)[[row * a_max + a for row, arms in enumerate(legal)
                       for a in arms]] = True
    return masks
