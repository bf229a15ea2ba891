"""End-to-end acceptance suite.

Each test prints an explicit pass/fail line for its criterion before
asserting, so a transcript of this module doubles as the acceptance
report. The expensive fixtures (full training runs) are module-scoped
and shared.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from equilearn import harness
from equilearn.baseline import smcts_train
from equilearn.bandit import default_schedule, regret, run_exp_ix
from equilearn.cce import (ma_exp_ix_batch, normalize_losses, prune_dominated,
                           verify_cce)
from equilearn.config import Config, load_config
from equilearn.data import UniformPolicySource, generate_tree, replay_sample, \
    ReplayBuffer, ReplayEntry
from equilearn.data import upsample_plan
from equilearn.games import game_from_id
from equilearn.games.matrix import ChainGame
from equilearn.trainer import frontier_values, process_layer, train

from _oracles import backward_cce_values

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion: int, ok: bool, detail: str) -> str:
    line = (f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    print(line)
    return line


def _loss_tensor(game) -> np.ndarray:
    counts = game.spec.action_counts
    rewards = np.stack([game.terminal_returns(
        game.step(game.start_states()[0][0], j).next_state)
        for j in np.ndindex(*counts)])
    return normalize_losses(rewards).reshape(tuple(counts)
                                             + (game.num_players,))


# -- criterion 1: EXP-IX regret --------------------------------------------

def test_criterion_1_exp_ix_regret():
    k, gap_means = 10, np.array([0.4] + [0.6] * 9)

    def loss_fn(t, rng):
        return (rng.random(k) < gap_means).astype(float)

    def mean_regret(rounds):
        out = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            out.append(regret(run_exp_ix(loss_fn, k, rounds, rng)))
        return float(np.mean(out))

    start = time.time()
    r_short = mean_regret(1_000)
    r_long = mean_regret(10_000)
    elapsed = time.time() - start
    bound = 4.0 * math.sqrt(2.0 * k * 10_000 * math.log(k))
    ok = r_long <= bound and r_long < 10.0 * r_short and elapsed < 10.0
    line = _report(1, ok, f"mean regret {r_long:.1f} <= bound {bound:.1f}, "
                          f"sublinear vs {r_short:.1f} at T=1e3 "
                          f"({elapsed:.1f}s)")
    assert ok, line


# -- criterion 2: CCE convergence on matrix games --------------------------

@pytest.mark.parametrize("game_id,counts", [("matrix:mp", (2, 2)),
                                            ("matrix:rps", (3, 3))])
def test_criterion_2_cce_convergence(game_id, counts):
    game = game_from_id(game_id)
    losses = _loss_tensor(game)[None]
    out = ma_exp_ix_batch(losses, rounds=100_000,
                          rng=np.random.default_rng(0))
    dense = out.joint_counts[0].reshape(counts) / out.rounds
    l1 = [float(np.abs(dense.sum(axis=1 - p) - 1.0 / counts[p]).sum())
          for p in range(2)]
    eps = verify_cce(losses, dense[None])[0]
    ok = max(l1) <= 0.05 and eps <= 0.05
    line = _report(2, ok, f"{game_id}: marginal L1 {max(l1):.4f} <= 0.05, "
                          f"epsilon {eps:.4f} <= 0.05")
    assert ok, line


# -- criterion 3: unique CCE under dominance -------------------------------

def test_criterion_3_prisoners_dilemma():
    losses = _loss_tensor(game_from_id("matrix:pd"))[None]
    masks = prune_dominated(losses)
    pruned = ma_exp_ix_batch(losses, rounds=2_000, masks=masks,
                             rng=np.random.default_rng(0))
    exact_zero = all(p[0] == 0.0 for p in pruned.policies[0])
    unpruned = ma_exp_ix_batch(losses, rounds=100_000,
                               rng=np.random.default_rng(1))
    residual = max(float(p[0]) for p in unpruned.policies[0])
    ok = exact_zero and residual <= 0.05
    line = _report(3, ok, f"pruned cooperate mass exactly 0: {exact_zero}; "
                          f"unpruned cooperate mass {residual:.4f} <= 0.05")
    assert ok, line


# -- criterion 4: backward-induction oracle equivalence --------------------

def test_criterion_4_backward_oracle_equivalence():
    game = ChainGame(num_players=2, actions=3, rounds=2, seed=5)
    assert 1 + 9 + 81 <= 100
    cfg = Config({"game": "chain:5", "train.value_backend": "tabular",
                  "cce.rounds": "12000"})
    rng = np.random.default_rng(0)
    tree = generate_tree(game, UniformPolicySource(), 6000, rng=rng)
    assert [len(l) for l in tree.layers] == [1, 9, 81]

    child_values = frontier_values(game, tree, 2)
    learned = {}
    for h in (1, 0):
        result = process_layer(game, tree, h, child_values, cfg, 0, rng)
        child_values = result.values
        learned[h] = result.values

    oracle = backward_cce_values(game, rounds=10 * cfg["cce.rounds"],
                                 rng=np.random.default_rng(99))
    diffs = []
    for h in (1, 0):
        for key, v in learned[h].items():
            diffs.append(float(np.abs(v - oracle[h][key]).max()))
    agree = float(np.mean([d <= 0.05 for d in diffs]))
    ok = agree >= 0.95
    line = _report(4, ok, f"{agree:.0%} of {len(diffs)} node values within "
                          f"0.05 of the brute-force backward oracle "
                          f"(max diff {max(diffs):.4f})")
    assert ok, line


# -- criteria 5-7: full training runs --------------------------------------

@pytest.fixture(scope="module")
def goofspiel_agent():
    cfg = load_config(str(CONFIG_DIR / "goofspiel4.cfg"))
    return train(cfg)


@pytest.fixture(scope="module")
def pursuit_agents():
    nncce = train(load_config(str(CONFIG_DIR / "pursuit.cfg")))
    smcts = smcts_train(load_config(str(CONFIG_DIR / "smcts_pursuit.cfg")))
    return nncce, smcts


def test_criterion_5_goofspiel_vs_random(goofspiel_agent):
    start = time.time()
    game = game_from_id("goofspiel:4")
    records = harness.play_paired(game, goofspiel_agent,
                                  harness.RandomAgent("rnd"),
                                  n_pairs=100, base_seed=50_000)
    rate = harness.win_rate(records, goofspiel_agent.name)
    stats = harness.win_stats(records, goofspiel_agent.name)
    elapsed = time.time() - start
    ok = rate >= 0.90
    line = _report(
        5, ok,
        f"goofspiel-4 vs random: {stats['wins']}W {stats['losses']}L "
        f"{stats['draws']}D, win rate {rate:.3f} (target >= 0.90, "
        f"draws excluded; matches took {elapsed:.0f}s)")
    assert ok, line


def test_criterion_6_beats_search_baseline(pursuit_agents):
    nncce, smcts = pursuit_agents
    game = game_from_id("pursuit")
    records = harness.play_paired(game, nncce, smcts, n_pairs=100,
                                  base_seed=60_000)
    stats = harness.win_stats(records, nncce.name)
    w, l = stats["wins"], stats["losses"]
    p_value = (sps.binomtest(w, w + l, 0.5, alternative="greater").pvalue
               if w + l else 1.0)
    ok = p_value < 0.05
    line = _report(6, ok, f"pursuit vs search baseline: {w}W {l}L "
                          f"{stats['draws']}D, one-sided binomial "
                          f"p={p_value:.4f} (target < 0.05)")
    assert ok, line


def test_criterion_7_rollout_randomization_ablation():
    game = game_from_id("pursuit")
    scores = {0.5: [], 0.0: []}
    for rp in scores:
        for seed in range(5):
            cfg = load_config(str(CONFIG_DIR / "pursuit_fast.cfg"))
            cfg.set("seed", seed)
            cfg.set("train.randomize_prob", rp)
            agent = train(cfg)
            scores[rp].append(harness.evaluate_vs_random(
                game, agent, n_pairs=60, base_seed=70_000))
    mean_rand = float(np.mean(scores[0.5]))
    mean_on = float(np.mean(scores[0.0]))
    # fail only if on-policy is significantly better (one-sided)
    p_value = sps.ttest_ind(scores[0.0], scores[0.5],
                            alternative="greater").pvalue
    ok = mean_rand >= mean_on or p_value >= 0.05
    line = _report(7, ok, f"partial randomization mean {mean_rand:.3f} vs "
                          f"on-policy {mean_on:.3f} over 5 seeds "
                          f"(one-sided p={p_value:.3f})")
    assert ok, line


# -- criterion 8: numerical suite ------------------------------------------

def test_criterion_8_numerical_suite(tmp_path):
    from equilearn.approx.codec import (SupportCodec, scalar_to_support,
                                        support_to_scalar)
    from equilearn.approx.mlp import MlpModel
    start = time.time()

    # gradient check against central finite differences
    rng = np.random.default_rng(0)
    model = MlpModel([6, 12, 7], head_kind="support", l2_coeff=0.0, seed=3)
    x = rng.normal(size=(6, 6))
    raw = rng.random((6, 7))
    targets = raw / raw.sum(axis=1, keepdims=True)
    _, grads, _ = model.loss_grads(x, targets, train_mode=False)
    flat_grads = np.concatenate([g.ravel() for g in grads])
    flat = model.get_flat_params()
    worst = 0.0
    for c in rng.choice(flat.size, size=100, replace=False):
        orig = flat[c]
        for sign in (1.0, -1.0):
            flat[c] = orig + sign * 1e-4
            model.set_flat_params(flat)
            loss, _, _ = model.loss_grads(x, targets, train_mode=False)
            if sign > 0:
                up = loss
            else:
                down = loss
        flat[c] = orig
        model.set_flat_params(flat)
        numeric = (up - down) / 2e-4
        denom = max(abs(numeric), abs(flat_grads[c]), 1e-8)
        worst = max(worst, abs(numeric - flat_grads[c]) / denom)
    grad_ok = worst <= 1e-3

    # support codec roundtrip
    codec = SupportCodec(num_bins=21)
    v = np.random.default_rng(1).random(1000)
    codec_err = float(np.abs(support_to_scalar(
        codec, scalar_to_support(codec, v)) - v).max())
    codec_ok = codec_err <= 1e-9

    # checkpoint save -> load -> save bit-exactness
    from equilearn.approx.checkpoint import load_model, save_model
    from equilearn.approx.models import PolicyModel
    p1, p2 = str(tmp_path / "a.ccef"), str(tmp_path / "b.ccef")
    save_model(p1, PolicyModel(3, 4, trunk_hidden=(4,), rep_size=3,
                               head_hidden=(4,), seed=0), game="matrix:mp",
               player=0)
    restored, _ = load_model(p1)
    save_model(p2, restored, game="matrix:mp", player=0)
    ckpt_ok = open(p1, "rb").read() == open(p2, "rb").read()

    # fixed-seed end-to-end determinism
    def run(out_dir):
        env = dict(os.environ, CCE_LOG="WARNING",
                   PYTHONHASHSEED="0")
        subprocess.run(
            [sys.executable, "-m", "equilearn.cli", "train",
             "--game", "matrix:mp", "--out-dir", out_dir, "--seed", "7",
             "--set", "train.outer_iters=1",
             "--set", "train.trajectories=200",
             "--set", "train.cv_trees=1", "--set", "train.gate_matches=4",
             "--set", "cce.rounds=300", "--set", "net.q_hidden=8",
             "--set", "net.q_rep=4", "--set", "net.policy_hidden=8",
             "--set", "net.policy_rep=4", "--set", "net.q_epochs=2",
             "--set", "net.policy_epochs=2", "--set", "net.q_dropout=0",
             "--set", "net.policy_dropout=0"],
            check=True, env=env, capture_output=True)
        return {f: open(os.path.join(out_dir, f), "rb").read()
                for f in sorted(os.listdir(out_dir))}

    out_a = run(str(tmp_path / "run_a"))
    out_b = run(str(tmp_path / "run_b"))
    determinism_ok = out_a == out_b and len(out_a) >= 4

    elapsed = time.time() - start
    ok = grad_ok and codec_ok and ckpt_ok and determinism_ok
    line = _report(
        8, ok,
        f"gradient rel err {worst:.2e} <= 1e-3: {grad_ok}; codec "
        f"roundtrip {codec_err:.1e} <= 1e-9: {codec_ok}; checkpoint "
        f"bit-exact: {ckpt_ok}; two fixed-seed runs byte-identical: "
        f"{determinism_ok} ({elapsed:.0f}s)")
    assert ok, line


# -- criterion 9: data-layer suite -----------------------------------------

def test_criterion_9_data_suite():
    start = time.time()
    # replay two-stage sampling over 1e5 draws
    buffer = ReplayBuffer()
    obs = [np.zeros(1)]
    buffer.add(ReplayEntry(observations=obs, value=1.0,
                           policy=np.array([1.0]), timestep=0, player=0,
                           visit_count=1))
    for _ in range(3):
        buffer.add(ReplayEntry(observations=obs, value=0.0,
                               policy=np.array([1.0]), timestep=1, player=0,
                               visit_count=1))
    draws = 100_000
    rng = np.random.default_rng(0)
    hits = sum(e.value == 1.0 for e in replay_sample(buffer, draws, rng))
    chi_p = float(sps.chisquare([hits, draws - hits],
                                [draws / 2, draws / 2]).pvalue)
    chi_ok = chi_p > 0.01

    # up-sampling class-merge trace on the (5000, 400, 300) fixture
    y = np.concatenate([np.full(5000, 0.1), np.full(400, 0.5),
                        np.full(300, 0.9)])
    plan = upsample_plan(y, num_classes=3, min_count=500)
    trace_ok = (plan.merge_trace[0] == (5000, 400, 300)
                and plan.merge_trace[-1] == (5000, 700))

    # tree dedup invariant on a 1e4-simulation Goofspiel-4 tree
    game = game_from_id("goofspiel:4")
    tree = generate_tree(game, UniformPolicySource(), 10_000,
                         rng=np.random.default_rng(1))
    dedup_ok = True
    for h, layer in enumerate(tree.layers):
        for key, node in layer.items():
            if node.state.key() != key or node.timestep != h:
                dedup_ok = False
            for joint, child in node.children.items():
                stepped = game.step(node.state, joint).next_state
                if (child.state.key() != stepped.key()
                        or tree.layers[h + 1][child.state.key()]
                        is not child):
                    dedup_ok = False

    elapsed = time.time() - start
    ok = chi_ok and trace_ok and dedup_ok
    line = _report(
        9, ok,
        f"replay chi-squared p={chi_p:.3f} > 0.01: {chi_ok}; upsample "
        f"merge trace (5000,400,300)->(5000,700): {trace_ok}; "
        f"{tree.node_count()}-node tree dedup invariant: {dedup_ok} "
        f"({elapsed:.0f}s)")
    assert ok, line
