"""Workload definitions: which preset each one trains, cut down how far,
and how long its match phase runs.

Every workload trains an equilibrium agent, saves and reloads it, and
plays it in role-swapped pairs against the search baseline loaded from a
checkpoint directory, so each end-to-end and per-layer metric is measured
on each workload. The workloads differ in where the time goes:

- ``train-goofspiel4``: 2 players, 16 joint actions, thousands of small
  stage games at 4000 rounds; tree generation and the batch solver
  dominate, joint-value evaluation is light.
- ``train-pursuit``: 3 players, 125 joint actions; joint-value
  evaluation and dominance pruning dominate and memory is highest.
- ``play-pursuit``: a fixed-seed pursuit training, then match play for
  ``--seconds``; search, single-row network forwards and ``Game.step``
  dominate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Search-baseline checkpoints, one per game, built from the source tree
# under test (see checkpoints.py). Keys override the preset file.
BASELINES = {
    "goofspiel:4": ("smcts_pursuit.cfg", {
        "game": "goofspiel:4", "seed": 0,
        "smcts.simulations": 4000, "smcts.iterations": 2,
        "smcts.batches": 150, "smcts.eval_simulations": 25,
        "train.gate_matches": 20}),
    "pursuit": ("smcts_pursuit.cfg", {"seed": 0}),
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                  # file under configs/
    overrides: dict = field(default_factory=dict)
    rounds: int = 1              # trainings per run, each in a fresh process
    match_pairs: int = 0         # fixed pair count; 0 plays for --seconds
    train_seed: int | None = None   # fixed training seed; None uses the
                                    # workload seed


WORKLOADS = {w.name: w for w in (
    # Cut from 30000 trajectories per candidate tree so that one training
    # fits a run; outer iterations stay at 2 so that iteration 2 rolls out
    # with the trained agent (AgentPolicySource.predict).
    Workload("train-goofspiel4", "goofspiel4.cfg",
             {"train.trajectories": 2000}, match_pairs=150),
    # Cut from 8000 trajectories and 1500 rounds for the same reason, and
    # trained twice from two seeds: one agent's exploitability moves by a
    # fifth from seed to seed here.
    Workload("train-pursuit", "pursuit_fast.cfg",
             {"train.trajectories": 1200, "cce.rounds": 1000}, rounds=2,
             match_pairs=6),
    # train-pursuit's cut, trained once from a fixed seed, the same in
    # every run; the workload seed picks the matches, which then run for
    # --seconds.
    Workload("play-pursuit", "pursuit_fast.cfg",
             {"train.trajectories": 1200, "cce.rounds": 1000},
             train_seed=0),
)}


# run.py imports this module without the program on its path, so the
# config loader is imported where it is used.

def load_workload_config(root: str, workload: Workload, seed: int):
    """The workload's training config, read from the checkout's presets."""
    from equilearn.config import load_config
    cfg = load_config(os.path.join(root, "configs", workload.preset))
    for key, value in workload.overrides.items():
        cfg.set(key, value)
    cfg.set("seed", seed)
    return cfg


def baseline_config(root: str, game_id: str):
    """The search baseline's training config for ``game_id``."""
    from equilearn.config import load_config
    preset, overrides = BASELINES[game_id]
    cfg = load_config(os.path.join(root, "configs", preset))
    for key, value in overrides.items():
        cfg.set(key, value)
    return cfg
