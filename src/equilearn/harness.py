"""Head-to-head match and tournament harness.

Agents control whole sides (teams of players). Asymmetric games are
always played as role-swapped pairs under mirrored seeds so neither
agent benefits from a stronger side. The winner of one match is the
side with the higher accumulated score; equal scores are draws, which
win-rate computations exclude.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .games.base import Game


class RandomAgent:
    """Uniform over legal actions each step."""

    def __init__(self, name: str = "random"):
        self.name = name

    def act(self, game: Game, state, player: int,
            rng: np.random.Generator) -> int:
        legal = game.legal_actions(state, player)
        return int(legal[rng.integers(len(legal))])


@dataclass
class MatchRecord:
    game: str
    agents: tuple                  # agent name per side
    scores: tuple                  # per-player accumulated score
    side_scores: tuple             # per-side summed score
    winner: str                    # agent name or 'draw'
    seed: int
    forfeit_by: str | None = None


def run_match(game: Game, agents_by_side, seed: int) -> MatchRecord:
    """Play one full episode; illegal actions forfeit, never crash."""
    teams = game.teams
    if len(agents_by_side) != len(teams):
        raise ValueError(f"game has {len(teams)} sides, got "
                         f"{len(agents_by_side)} agents")
    side_of = {}
    for side, members in enumerate(teams):
        for p in members:
            side_of[p] = side
    rng = np.random.default_rng(seed)
    state = game.sample_start(rng)
    scores = np.zeros(game.num_players)
    names = tuple(a.name for a in agents_by_side)
    forfeit_side = None
    while not state.terminal and forfeit_side is None:
        joint = []
        for p in range(game.num_players):
            agent = agents_by_side[side_of[p]]
            try:
                a = int(agent.act(game, state, p, rng))
            except Exception:
                a = -1
            if a not in game.legal_actions(state, p):
                forfeit_side = side_of[p]
                break
            joint.append(a)
        if forfeit_side is not None:
            break
        result = game.step(state, tuple(joint))
        scores += np.asarray(result.rewards)
        state = result.next_state
    side_scores = tuple(float(sum(scores[p] for p in members))
                        for members in teams)
    if forfeit_side is not None:
        winner = names[1 - forfeit_side] if len(names) == 2 else "forfeit"
        return MatchRecord(game=game.spec.metadata, agents=names,
                           scores=tuple(scores), side_scores=side_scores,
                           winner=winner, seed=seed,
                           forfeit_by=names[forfeit_side])
    best = max(side_scores)
    winners = [i for i, s in enumerate(side_scores) if s == best]
    winner = names[winners[0]] if len(winners) == 1 else "draw"
    return MatchRecord(game=game.spec.metadata, agents=names,
                       scores=tuple(scores), side_scores=side_scores,
                       winner=winner, seed=seed)


def play_paired(game: Game, agent_a, agent_b, n_pairs: int, base_seed: int
                ) -> list[MatchRecord]:
    """Role-swapped pairs under mirrored seeds; 2 * n_pairs records."""
    if len(game.teams) != 2:
        raise ValueError("paired play needs a two-sided game")
    records = []
    for i in range(n_pairs):
        seed = base_seed + i
        records.append(run_match(game, (agent_a, agent_b), seed))
        records.append(run_match(game, (agent_b, agent_a), seed))
    return records


def win_stats(records, name: str) -> dict:
    """Wins, losses and draws of ``name`` over a record list."""
    wins = sum(1 for r in records if r.winner == name)
    draws = sum(1 for r in records if r.winner == "draw")
    losses = len(records) - wins - draws
    return {"wins": wins, "losses": losses, "draws": draws,
            "matches": len(records)}


def win_rate(records, name: str) -> float:
    """Win fraction with draws excluded from both sides of the ratio."""
    s = win_stats(records, name)
    decisive = s["wins"] + s["losses"]
    return s["wins"] / decisive if decisive else 0.5


def mean_side_score(records, name: str) -> float:
    """Mean per-match score of the side ``name`` controlled."""
    scores = []
    for r in records:
        for side, agent in enumerate(r.agents):
            if agent == name:
                scores.append(r.side_scores[side])
    return float(np.mean(scores)) if scores else 0.0


def evaluate_vs_random(game: Game, agent, n_pairs: int, base_seed: int
                       ) -> float:
    """Mean side score of ``agent`` over paired matches against the
    uniform-random agent; the validation-gate metric."""
    records = play_paired(game, agent, RandomAgent("__random__"), n_pairs,
                          base_seed)
    return mean_side_score(records, agent.name)


@dataclass
class WinTable:
    rows: list = field(default_factory=list)

    CSV_HEADER = ("agent_a,agent_b,wins,losses,draws,matches,"
                  "mean_score_a,std_score_a,seed")

    def add_pair(self, agent_a: str, agent_b: str, records, seed: int):
        s = win_stats(records, agent_a)
        scores = [r.side_scores[side]
                  for r in records
                  for side, name in enumerate(r.agents) if name == agent_a]
        self.rows.append({
            "agent_a": agent_a, "agent_b": agent_b,
            "wins": s["wins"], "losses": s["losses"], "draws": s["draws"],
            "matches": s["matches"],
            "mean_score_a": float(np.mean(scores)),
            "std_score_a": float(np.std(scores)),
            "seed": seed,
        })

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r['agent_a']},{r['agent_b']},{r['wins']},"
                         f"{r['losses']},{r['draws']},{r['matches']},"
                         f"{r['mean_score_a']:.6f},{r['std_score_a']:.6f},"
                         f"{r['seed']}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "WinTable":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != cls.CSV_HEADER:
            raise ValueError("bad win-table CSV header")
        table = cls()
        for ln in lines[1:]:
            parts = ln.split(",")
            table.rows.append({
                "agent_a": parts[0], "agent_b": parts[1],
                "wins": int(parts[2]), "losses": int(parts[3]),
                "draws": int(parts[4]), "matches": int(parts[5]),
                "mean_score_a": float(parts[6]),
                "std_score_a": float(parts[7]),
                "seed": int(parts[8]),
            })
        return table


def tournament(game: Game, agents, matches_per_pair: int, seed: int
               ) -> WinTable:
    """Round-robin paired matches; deterministic under a fixed seed."""
    if len(agents) < 2:
        raise ValueError("need at least 2 agents")
    names = [a.name for a in agents]
    if len(set(names)) != len(names):
        raise ValueError("agent names must be unique")
    table = WinTable()
    for i in range(len(agents)):
        for j in range(i + 1, len(agents)):
            pair_seed = seed + 10_000 * (i * len(agents) + j)
            records = play_paired(game, agents[i], agents[j],
                                  matches_per_pair, pair_seed)
            table.add_pair(names[i], names[j], records, pair_seed)
    return table


def write_atomic(path: str, content: str | bytes):
    """Write ``content`` (text or binary) to a temp file in the target
    directory, then rename it over ``path``; readers never see a partial
    file, and the temp file is removed if anything fails."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(content, bytes) else "w"
                       ) as fh:
            fh.write(content)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
