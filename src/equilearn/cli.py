"""Command-line entry points.

Subcommands: ``train`` (equilibrium training), ``train-smcts`` (search
baseline), ``head2head`` (paired matches between two agents),
``tournament`` (round-robin win table), ``verify-cce`` (epsilon of a
joint distribution on a one-shot game), ``gen-data`` (tree rollouts
exported as replay TSV). Exit codes: 0 on success, 1 on usage or
configuration errors, 2 on runtime failures (including a verify-cce
epsilon above the requested threshold).

The config file is the optional positional argument; ``--set``
overrides one of its keys. Match commands take their agent specs only
from ``--agent-a``/``--agent-b`` (default ``random``) or ``--agents``:
``random``, ``policy:<dir>`` (a checkpoint directory from ``train``) or
``smcts:<dir>``. The ``CCE_LOG`` environment variable sets the logging
level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import baseline, harness, persist, trainer
from .cce import normalize_losses, verify_cce
from .config import Config, ConfigError, load_config
from .data import UniformPolicySource, generate_tree
from .games import game_from_id

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


def _setup_logging():
    level = os.environ.get("CCE_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(asctime)s %(name)s %(message)s")


def _load_cfg(args) -> Config:
    cfg = load_config(args.config_file) if args.config_file else Config()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg.set(key.strip(), value.strip())
    if args.seed is not None:
        cfg.set("seed", args.seed)
    if getattr(args, "game", None):
        cfg.set("game", args.game)
    if getattr(args, "out_dir", None):
        cfg.set("io.out_dir", args.out_dir)
    return cfg


def _common_options(p: argparse.ArgumentParser):
    p.add_argument("config_file", nargs="?",
                   help="config file of key = value lines")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--game", help="override the game id")
    p.add_argument("--out-dir", help="override the output directory")


def _training_log_tsv(rows) -> str:
    if not rows:
        return ""
    keys = list(rows[0])
    lines = ["\t".join(keys)]
    for r in rows:
        lines.append("\t".join("" if r.get(k) is None else str(r.get(k))
                               for k in keys))
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    agent = trainer.train(cfg)
    out = cfg["io.out_dir"]
    persist.save_trained_agent(agent, out, cfg["game"])
    harness.write_atomic(os.path.join(out, "training_log.tsv"),
                         _training_log_tsv(agent.training_log))
    print(f"trained agent saved to {out} "
          f"(gate score {agent.gate_score:.4f})")
    return EXIT_OK


def cmd_train_smcts(args) -> int:
    cfg = _load_cfg(args)
    agent = baseline.smcts_train(cfg)
    out = cfg["io.out_dir"]
    persist.save_smcts_agent(agent, out, cfg["game"])
    harness.write_atomic(os.path.join(out, "training_log.tsv"),
                         _training_log_tsv(agent.training_log))
    print(f"smcts agent saved to {out} "
          f"(gate score {agent.gate_score:.4f})")
    return EXIT_OK


def _agent_from_spec(spec: str, game, cfg: Config, name: str):
    if spec == "random":
        return harness.RandomAgent(name)
    kind, _, path = spec.partition(":")
    if not path:
        raise ConfigError(f"bad agent spec {spec!r}; expected random, "
                          f"policy:<dir> or smcts:<dir>")
    if kind == "policy":
        return persist.load_policy_agent(path, game, name=name)
    if kind == "smcts":
        return persist.load_smcts_agent(
            path, game, eval_simulations=cfg["smcts.eval_simulations"],
            name=name)
    raise ConfigError(f"unknown agent kind {kind!r}")


def cmd_head2head(args) -> int:
    cfg = _load_cfg(args)
    game = game_from_id(cfg["game"])
    agent_a = _agent_from_spec(args.agent_a, game, cfg, "agent_a")
    agent_b = _agent_from_spec(args.agent_b, game, cfg, "agent_b")
    n_pairs = max(1, cfg["match.count"] // 2)
    records = harness.play_paired(game, agent_a, agent_b, n_pairs,
                                  base_seed=cfg["seed"])
    table = harness.WinTable()
    table.add_pair("agent_a", "agent_b", records, cfg["seed"])
    out = os.path.join(cfg["io.out_dir"], "head2head.csv")
    harness.write_atomic(out, table.to_csv())
    stats = harness.win_stats(records, "agent_a")
    rate = harness.win_rate(records, "agent_a")
    print(f"{args.agent_a} vs {args.agent_b}: {stats['wins']}W "
          f"{stats['losses']}L {stats['draws']}D over {stats['matches']} "
          f"matches, win rate {rate:.3f} (draws excluded); table at {out}")
    return EXIT_OK


def cmd_tournament(args) -> int:
    cfg = _load_cfg(args)
    game = game_from_id(cfg["game"])
    specs = [s.strip() for s in args.agents.split(",") if s.strip()]
    if len(specs) < 2:
        raise ConfigError("tournament needs at least two agent specs "
                          "(comma-separated)")
    agents = [_agent_from_spec(s, game, cfg, f"agent_{i}")
              for i, s in enumerate(specs)]
    table = harness.tournament(game, agents,
                               matches_per_pair=max(1,
                                                    cfg["match.count"] // 2),
                               seed=cfg["seed"])
    out = os.path.join(cfg["io.out_dir"], "tournament.csv")
    harness.write_atomic(out, table.to_csv())
    for i, s in enumerate(specs):
        print(f"agent_{i} = {s}")
    print(table.to_csv(), end="")
    print(f"table written to {out}")
    return EXIT_OK


def _read_distribution(path: str, action_counts) -> np.ndarray:
    """Lines of ``a_1,...,a_N probability`` as a dense array over joint
    actions; repeated joints add up."""
    dist = np.zeros(action_counts)
    seen = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"'a_1,...,a_N probability'")
            joint = tuple(int(x) for x in parts[0].split(","))
            if len(joint) != len(action_counts) or any(
                    not (0 <= a < c) for a, c in zip(joint, action_counts)):
                raise ValueError(f"{path}:{lineno}: bad joint action "
                                 f"{parts[0]}")
            dist[joint] += float(parts[1])
            seen = True
    if not seen:
        raise ValueError(f"{path}: empty distribution")
    return dist


def _matrix_game(spec: str):
    if os.path.exists(spec):
        spec = f"matrix:{spec}"
    game = game_from_id(spec)
    if game.horizon != 1:
        raise ConfigError("verify-cce needs a one-shot game")
    return game


def cmd_verify_cce(args) -> int:
    game = _matrix_game(args.matrix)
    counts = game.spec.action_counts
    rewards = np.stack([game.terminal_returns(
        game.step(game.start_states()[0][0], j).next_state)
        for j in np.ndindex(*counts)])
    losses = normalize_losses(rewards).reshape(
        tuple(counts) + (game.num_players,))
    dist = _read_distribution(args.distribution, counts)
    eps = verify_cce(losses[None], dist[None])[0]
    print(f"epsilon = {eps:.6f}")
    if args.epsilon is not None and eps > args.epsilon:
        return EXIT_FAIL
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    game = game_from_id(cfg["game"])
    rng = np.random.default_rng(cfg["seed"])
    tree = generate_tree(game, UniformPolicySource(),
                         cfg["gen.trajectories"], randomize=0.5, rng=rng)
    baseline.backup_tree_values(game, tree)
    from .data import ReplayBuffer, export_replay_tsv
    buffer = ReplayBuffer()
    baseline.tree_to_replay(game, tree, buffer)
    out = os.path.join(cfg["io.out_dir"], "replay.tsv")
    export_replay_tsv(out, buffer.entries)
    print(f"{tree.node_count()} tree nodes, {len(buffer)} replay entries "
          f"written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equilearn",
        description="equilibrium policy learning for simultaneous-move "
                    "games")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run equilibrium training")
    _common_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-smcts", help="run the search baseline")
    _common_options(p)
    p.set_defaults(func=cmd_train_smcts)

    p = sub.add_parser("head2head", help="paired matches of two agents")
    _common_options(p)
    p.add_argument("--agent-a", default="random",
                   help="random | policy:<dir> | smcts:<dir>")
    p.add_argument("--agent-b", default="random")
    p.set_defaults(func=cmd_head2head)

    p = sub.add_parser("tournament", help="round-robin win table")
    _common_options(p)
    p.add_argument("--agents", default="",
                   help="comma-separated agent specs")
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("verify-cce",
                       help="epsilon of a joint distribution file")
    p.add_argument("matrix", help="payoff file or matrix:<id>")
    p.add_argument("distribution",
                   help="file of 'a_1,...,a_N probability' lines")
    p.add_argument("--epsilon", type=float, default=None,
                   help="optional pass/fail threshold")
    p.set_defaults(func=cmd_verify_cce)

    p = sub.add_parser("gen-data", help="export tree rollouts as TSV")
    _common_options(p)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:                     # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
