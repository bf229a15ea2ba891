"""Key-value configuration with dotted sections.

Files hold ``section.key = value`` lines; ``#`` starts a comment line.
Every key has a documented default below and unknown keys are hard
errors, so a typo can never silently fall back to a default.
"""

from __future__ import annotations

import os


class ConfigError(ValueError):
    pass


# key -> (default, doc)
DEFAULTS: dict = {
    "game": ("goofspiel:4", "game identifier (see games.registry)"),
    "seed": (0, "master random seed"),

    "train.outer_iters": (3, "outer training iterations"),
    "train.trajectories": (500, "tree simulations per candidate tree"),
    "train.cv_trees": (3, "candidate trees per iteration; the highest "
                          "value-spread tree is kept"),
    "train.randomize_prob": (0.5, "per-trajectory probability that a player "
                                  "acts uniformly at random"),
    "train.value_backend": ("mlp", "'mlp' or 'tabular' value fitting"),
    "train.patience": (5, "consecutive non-improving iterations before the "
                          "loop terminates"),
    "train.gate_matches": (100, "validation matches against the random "
                                "agent per iteration"),

    "cce.rounds": (10000, "bandit rounds per stage solve"),

    "net.q_hidden": (256, "hidden width of the value trunk and head"),
    "net.q_rep": (32, "value representation width"),
    "net.policy_hidden": (1028, "hidden width of the policy trunk and head"),
    "net.policy_rep": (64, "policy representation width"),
    "net.learning_rate": (5e-5, "Adam learning rate"),
    "net.q_dropout": (0.5, "dropout rate, value networks"),
    "net.policy_dropout": (0.6, "dropout rate, policy networks"),
    "net.q_epochs": (30, "training epochs per value fit"),
    "net.policy_epochs": (40, "training epochs per policy fit"),
    "net.batch_size": (64, "minibatch size"),

    "smcts.simulations": (2000, "tree simulations per training iteration"),
    "smcts.iterations": (3, "training iterations"),
    "smcts.batches": (300, "replay minibatches per training iteration"),
    "smcts.eval_simulations": (100, "search simulations per move at "
                                    "evaluation time"),

    "io.out_dir": ("out", "output directory for checkpoints, logs, CSVs"),

    "match.count": (200, "matches (or matches per pair)"),

    "gen.trajectories": (1000, "simulations for gen-data tree building"),
}


class Config:
    def __init__(self, values: dict | None = None):
        self._values = {k: v for k, (v, _) in DEFAULTS.items()}
        if values:
            for k, v in values.items():
                self.set(k, v)

    def set(self, key: str, value):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key!r}")
        default = DEFAULTS[key][0]
        try:
            self._values[key] = _coerce(value, type(default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    def get(self, key: str):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key!r}")
        return self._values[key]

    def __getitem__(self, key):
        return self.get(key)


def _coerce(value, target):
    if isinstance(value, target) and not (target is int
                                          and isinstance(value, bool)):
        return value
    if target is int:
        return int(str(value).strip())
    if target is float:
        return float(str(value).strip())
    if target is str:
        return str(value).strip()
    raise TypeError(f"unsupported config type {target}")


def load_config(path: str) -> Config:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = Config()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            try:
                cfg.set(key.strip(), value.strip())
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return cfg
