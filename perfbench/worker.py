"""One benchmark process: a set-up probe, or one measured round.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py run WORKLOAD --seed N --round R \
        --seconds S --trace 0|1 --out FILE

``setup`` does what a user pays before work starts (imports, config,
game, loading the search-baseline checkpoint) and prints ``ready``.

``run`` trains the workload's agent, saves it and loads it back, then
plays role-swapped pairs against the search baseline; those phases are
timed. Afterwards, untimed, it computes the agent's exact exploitability
and checks the outputs. Stage solves are checked as they happen, on a
clock that stops while the checks run. With ``--trace 1`` the public
functions of each layer are wrapped where their callers resolve them
and the per-layer totals are reported instead.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import shutil
import sys
import tempfile
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import equilearn  # noqa: E402
from equilearn import baseline, harness, persist, trainer  # noqa: E402
from equilearn.approx import PolicyModel, QValueModel  # noqa: E402
from equilearn.bandit import default_schedule  # noqa: E402
from equilearn.games import game_from_id  # noqa: E402
from equilearn.games.base import Game  # noqa: E402

import checkpoints  # noqa: E402
import exploit  # noqa: E402
from checks import CheckError, StageCheck, legal_masks  # noqa: E402
from spans import Clock, Tracer  # noqa: E402
from workloads import (WORKLOADS, baseline_config,  # noqa: E402
                       load_workload_config)

if not os.path.abspath(equilearn.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    raise SystemExit(f"equilearn imported from {equilearn.__file__}, "
                     f"not from this checkout")

MATCH_SEED = 1_000_000
RANDOM_PAIRS = 10
POLICY_SAMPLES = 64


@contextmanager
def recorded(errors: list):
    """Record a failed check and carry on, so one run reports them all.

    The exact evaluators raise ``ValueError`` for a policy that is not a
    distribution over legal actions and ``AssertionError`` (of which
    ``CheckError`` is one) for a game that breaks their reduction.
    """
    try:
        yield
    except (AssertionError, ValueError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def load_baseline(game, game_id: str):
    """The search baseline for ``game_id`` from its checkpoint directory."""
    cfg = baseline_config(ROOT, game_id)
    return persist.load_smcts_agent(
        checkpoints.checkpoint_dir(game_id), game,
        eval_simulations=cfg["smcts.eval_simulations"], name="smcts")


def cmd_setup(name: str) -> int:
    wl = WORKLOADS[name]
    cfg = load_workload_config(ROOT, wl, 0)
    load_baseline(game_from_id(cfg["game"]), cfg["game"])
    print("ready", flush=True)
    return 0


class StageHooks:
    """Wraps ``trainer.process_layer`` and ``trainer.ma_exp_ix_batch`` to
    check every stage solve; the clock stops while checks run."""

    def __init__(self, clock: Clock, tracer: Tracer, errors: list):
        self.check = StageCheck()
        self.legal = None
        pl = trainer.process_layer
        solve = trainer.ma_exp_ix_batch

        def process_layer(*args, **kwargs):
            with clock.paused():
                a = _bound(pl, args, kwargs)
                states = [n.state for n in a["tree"].layer_of(a["h"])]
                self.legal = legal_masks(a["game"], states)
            try:
                return pl(*args, **kwargs)
            finally:
                self.legal = None

        def ma_exp_ix_batch(*args, **kwargs):
            result = solve(*args, **kwargs)
            with clock.paused(), recorded(errors):
                a = _bound(solve, args, kwargs)
                if self.legal is None:
                    raise CheckError("stage solve outside a layer")
                params = a["params"] or default_schedule(
                    max(2, result.masks.shape[2]), a["rounds"])
                self.check.check(a["loss_tensors"], a["rounds"],
                                 result.masks, self.legal, result,
                                 params.eta, params.gamma_ix)
            return result

        tracer.replace(trainer, "process_layer", process_layer)
        tracer.replace(trainer, "ma_exp_ix_batch", ma_exp_ix_batch)


def install_spans(tracer: Tracer):
    """Span each layer's public functions where the callers resolve them."""
    def fit_rows(fn):
        def count(args, kwargs, result):
            a = _bound(fn, args, kwargs)
            return {"fit_rows": len(a["obs"]) * a["epochs"]}
        return count

    def joint_rows(args, kwargs, result):
        source = args[0]
        models = 1 if source.share_mode != "none" else result.shape[2]
        return {"joint_value_rows": result.shape[0] * result.shape[1]
                * models}

    tracer.wrap(trainer, "generate_tree", "data.generate_tree",
                lambda a, k, r: {"nodes": r.node_count()})
    tracer.wrap(trainer, "select_tree_by_cv", "data.select_tree")
    tracer.wrap(Game, "sample_start", "games.sample_start")
    tracer.wrap(trainer.AgentPolicySource, "predict", "trainer.predict")
    tracer.wrap(trainer, "fit_layer_values", "trainer.fit_values")
    tracer.wrap(trainer, "process_layer", "trainer.process_layer")
    tracer.wrap(trainer, "validation_gate", "trainer.gate")
    tracer.wrap(trainer.MlpValueSource, "joint_values",
                "approx.joint_values", joint_rows)
    tracer.wrap(QValueModel, "encode_actions", "approx.encode_actions")
    tracer.wrap(QValueModel, "fit", "approx.q_fit",
                fit_rows(QValueModel.fit))
    tracer.wrap(PolicyModel, "fit", "approx.policy_fit",
                fit_rows(PolicyModel.fit))
    tracer.wrap(trainer, "ma_exp_ix_batch", "cce.solve",
                lambda a, k, r: {"game_rounds": r.values.shape[0]
                                 * r.rounds})
    tracer.wrap(trainer, "prune_dominated", "cce.prune")
    tracer.wrap(trainer, "verify_cce", "cce.verify")
    tracer.wrap(baseline, "smcts_search", "baseline.search",
                lambda a, k, r: {"searches": 1})
    tracer.wrap(baseline.SmctsSource, "predict", "baseline.predict")


def exploitability(agent) -> dict:
    """Exact NashConv of the agent over that of uniform play."""
    game = agent.game
    if game.spec.metadata.startswith("pursuit"):
        model = exploit.PursuitModel(game)
        model.check(np.random.default_rng(0))
        nc = exploit.pursuit_nash_conv(model, exploit.agent_rows(agent))
        uni = exploit.pursuit_nash_conv(model, exploit.uniform_rows(model))
    else:
        layers = exploit.enumerate_layers(game)
        nc = exploit.nash_conv(game, exploit.agent_policy(agent), layers)
        uni = exploit.nash_conv(game, exploit.uniform_policy(game), layers)
    if nc["nash_conv"] < 0.0:
        raise CheckError(f"negative exploitability {nc['nash_conv']}")
    return {"exploitability": nc["nash_conv"] / uni["nash_conv"],
            "nash_conv": nc["nash_conv"], "uniform": uni["nash_conv"],
            "gains": list(nc["gains"])}


def check_agent_policy(agent, candidates, rng):
    """The batched policy the evaluator uses equals ``agent.policy``."""
    game = agent.game
    pick = rng.choice(len(candidates), size=min(POLICY_SAMPLES,
                                                len(candidates)),
                      replace=False)
    states = [candidates[i] for i in pick]
    batched = exploit.agent_policy(agent)
    for p in range(game.num_players):
        rows = batched(states, p)
        for s, row in zip(states, rows):
            if not np.allclose(agent.policy(s, p), row, rtol=0, atol=1e-9):
                raise CheckError(f"batched policy differs from "
                                 f"agent.policy at {s}")


def check_matches(game, records, agent_a, agent_b, seed):
    stats = harness.win_stats(records, agent_a.name)
    if stats["wins"] + stats["losses"] + stats["draws"] != len(records):
        raise CheckError("wins, losses and draws do not add up")
    replay = harness.play_paired(game, agent_a, agent_b, 1, seed)
    if replay != records[:2]:
        raise CheckError("replaying the first pair from its seed gave "
                         "other records")


def cmd_run(args) -> int:
    wl = WORKLOADS[args.workload]
    clock = Clock()
    tracer = Tracer(clock)
    errors: list = []
    hooks = StageHooks(clock, tracer, errors)
    if args.trace:
        install_spans(tracer)
    # successive rounds of one run train from successive seeds
    train_seed = (wl.train_seed if wl.train_seed is not None
                  else 100 * args.seed + args.round)
    cfg = load_workload_config(ROOT, wl, train_seed)
    game = game_from_id(cfg["game"])
    cache = os.path.join(HERE, ".cache")
    os.makedirs(cache, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="agent-", dir=cache)
    try:
        t0 = clock.now()
        with tracer.span("train"):
            agent = trainer.train(cfg, game)
            with tracer.span("persist.save"):
                persist.save_trained_agent(agent, out_dir, cfg["game"])
        train_s = clock.now() - t0
        with tracer.span("persist.load"):
            player = persist.load_policy_agent(out_dir, game, name="nncce")
            opponent = load_baseline(game, cfg["game"])
        records, pair_s = [], []
        seed = MATCH_SEED + 1000 * (100 * args.seed + args.round)
        while True:
            p0 = clock.now()
            with tracer.span("harness.play"):
                records += harness.play_paired(game, player, opponent, 1,
                                               seed + len(pair_s))
            pair_s.append(clock.now() - p0)
            if wl.match_pairs:
                if len(pair_s) >= wl.match_pairs:
                    break
            elif sum(pair_s) >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    tracer.unwrap_all()

    result = {"train_s": train_s, "match_s": sum(pair_s),
              "matches": len(records),
              "matches_per_s": len(records) / sum(pair_s),
              "peak_rss_mb": peak_rss_mb,
              "stage_games": hooks.check.games,
              "forfeits": sum(r.forfeit_by is not None for r in records)}
    eps_mean, eps_max = hooks.check.epsilon_stats()
    result.update(epsilon_mean=eps_mean, epsilon_max=eps_max,
                  bound_share=hooks.check.worst_bound_share)
    rng = np.random.default_rng(args.seed)
    with recorded(errors):
        check_agent_policy(player, _reachable_sample(game, rng), rng)
    with recorded(errors):
        result.update(exploitability(player))
    vs_random = harness.play_paired(game, player,
                                    harness.RandomAgent("random"),
                                    RANDOM_PAIRS, seed)
    if any(r.forfeit_by is not None for r in vs_random):
        errors.append("the trained agent forfeited against random play")
    if result["forfeits"]:
        errors.append(f"{result['forfeits']} matches ended by forfeit")
    with recorded(errors):
        check_matches(game, records, player, opponent, seed)
    result["errors"] = errors
    result["logged_epsilon"] = [row["mean_epsilon"]
                                for row in agent.training_log
                                if row["mean_epsilon"] is not None]
    if args.trace:
        with open(os.path.join(cache, f"spans-{args.workload}-{args.seed}"
                               f".json"), "w") as fh:
            json.dump(tracer.dump(), fh)
        result["layers"] = layer_metrics(tracer, hooks)
        result["train_coverage"] = (tracer.child_total("train")
                                    / tracer.totals()["train"])
        result["searches_per_match"] = (tracer.counts["searches"]
                                        / len(records))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _reachable_sample(game, rng, walks: int = 40):
    """States from uniform random walks through the game."""
    out = []
    for _ in range(walks):
        state = game.sample_start(rng)
        while not state.terminal:
            out.append(state)
            joint = tuple(int(rng.choice(game.legal_actions(state, p)))
                          for p in range(game.num_players))
            state = game.step(state, joint).next_state
    return out


def layer_metrics(tracer: Tracer, hooks: StageHooks) -> dict:
    t = tracer.totals()
    c = tracer.counts
    eps_mean, eps_max = hooks.check.epsilon_stats()
    fits = t["approx.q_fit"] + t["approx.policy_fit"]
    return {
        "data.generate_tree_s": t["data.generate_tree"],
        "data.nodes_per_s": c["nodes"] / t["data.generate_tree"],
        "data.select_tree_s": t["data.select_tree"],
        "games.sample_start_s": t["games.sample_start"],
        "trainer.predict_s": t["trainer.predict"],
        "trainer.fit_values_s": t["trainer.fit_values"],
        "trainer.process_layer_s": t["trainer.process_layer"],
        "trainer.gate_s": t["trainer.gate"],
        "approx.joint_values_s": t["approx.joint_values"],
        "approx.joint_value_rows_per_s":
            c["joint_value_rows"] / t["approx.joint_values"],
        "approx.encode_actions_s": t["approx.encode_actions"],
        "approx.q_fit_s": t["approx.q_fit"],
        "approx.policy_fit_s": t["approx.policy_fit"],
        "approx.fit_rows_per_s": c["fit_rows"] / fits,
        "cce.solve_s": t["cce.solve"],
        "cce.game_rounds_per_s": c["game_rounds"] / t["cce.solve"],
        "cce.prune_s": t["cce.prune"],
        "cce.verify_s": t["cce.verify"],
        "cce.epsilon_mean": eps_mean,
        "cce.epsilon_max": eps_max,
        "baseline.search_s": t["baseline.search"],
        "baseline.searches_per_s": c["searches"] / t["baseline.search"],
        "baseline.predict_s": t["baseline.predict"],
        "harness.play_s": t["harness.play"],
        "persist.load_s": t["persist.load"],
        "persist.save_s": t["persist.save"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark process")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p = sub.add_parser("run")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.cmd == "setup":
        return cmd_setup(args.workload)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
