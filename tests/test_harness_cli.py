"""Tests for match play, win tables, configuration and the CLI."""

import os
from pathlib import Path

import numpy as np
import pytest

from equilearn import harness
from equilearn.cli import main
from equilearn.config import Config, ConfigError, load_config
from equilearn.games import game_from_id
from equilearn.harness import (RandomAgent, WinTable, play_paired, run_match,
                               tournament, win_rate, win_stats)

PRESETS = sorted((Path(__file__).resolve().parent.parent / "configs")
                 .glob("*.cfg"))


# -- matches ---------------------------------------------------------------

def test_run_match_zero_sum_draw_and_win():
    game = game_from_id("matrix:mp")

    class Fixed:
        def __init__(self, name, action):
            self.name = name
            self.action = action

        def act(self, game, state, player, rng):
            return self.action

    heads = Fixed("heads", 0)
    tails = Fixed("tails", 1)
    rec = run_match(game, (heads, tails), seed=0)
    assert rec.winner == "tails"          # mismatched pennies
    rec = run_match(game, (heads, Fixed("also_heads", 0)), seed=0)
    assert rec.winner == "heads"          # matched pennies
    assert rec.side_scores == (1.0, -1.0)


def test_run_match_forfeits_on_illegal_action():
    game = game_from_id("matrix:mp")

    class Broken:
        name = "broken"

        def act(self, game, state, player, rng):
            raise RuntimeError("boom")

    rec = run_match(game, (Broken(), RandomAgent("ok")), seed=0)
    assert rec.winner == "ok"
    assert rec.forfeit_by == "broken"


def test_play_paired_mirrors_roles_and_seeds():
    game = game_from_id("goofspiel:3")
    records = play_paired(game, RandomAgent("a"), RandomAgent("b"),
                          n_pairs=5, base_seed=7)
    assert len(records) == 10
    # within a pair, both matches share a seed with roles swapped
    for i in range(0, 10, 2):
        assert records[i].seed == records[i + 1].seed
        assert records[i].agents == ("a", "b")
        assert records[i + 1].agents == ("b", "a")


def test_win_stats_and_rate():
    game = game_from_id("matrix:mp")
    records = play_paired(game, RandomAgent("a"), RandomAgent("b"),
                          n_pairs=50, base_seed=0)
    s = win_stats(records, "a")
    assert s["wins"] + s["losses"] + s["draws"] == 100
    rate = win_rate(records, "a")
    assert 0.0 <= rate <= 1.0
    # identical random agents under mirrored seeds are exactly balanced
    assert s["wins"] == s["losses"]
    assert rate == pytest.approx(0.5)


def test_pursuit_match_uses_team_scores():
    game = game_from_id("pursuit")
    rec = run_match(game, (RandomAgent("p"), RandomAgent("e")), seed=3)
    assert len(rec.scores) == 3
    assert rec.side_scores[0] == pytest.approx(rec.scores[0] + rec.scores[1])
    assert rec.side_scores[1] == pytest.approx(rec.scores[2])


# -- win tables ------------------------------------------------------------

def test_win_table_csv_roundtrip():
    game = game_from_id("matrix:rps")
    table = tournament(game, [RandomAgent("a"), RandomAgent("b"),
                              RandomAgent("c")], matches_per_pair=5, seed=1)
    assert len(table.rows) == 3            # every unordered pair
    text = table.to_csv()
    back = WinTable.from_csv(text)
    # scores roundtrip at the CSV's 6-decimal precision
    assert back.to_csv() == text
    for a, b in zip(back.rows, table.rows):
        assert a["wins"] == b["wins"] and a["seed"] == b["seed"]
        assert a["mean_score_a"] == pytest.approx(b["mean_score_a"],
                                                  abs=1e-6)


def test_win_table_rejects_bad_header():
    with pytest.raises(ValueError):
        WinTable.from_csv("nope\n1,2,3\n")


def test_write_atomic_text_bytes_and_failed_write(tmp_path):
    path = tmp_path / "sub" / "out.dat"
    harness.write_atomic(str(path), b"\x00CCEF")
    assert path.read_bytes() == b"\x00CCEF"
    harness.write_atomic(str(path), "a\tb\n")
    assert path.read_text() == "a\tb\n"
    with pytest.raises(TypeError):
        harness.write_atomic(str(path), 3)
    # a failed write keeps the old file and leaves no temp file behind
    assert path.read_text() == "a\tb\n"
    assert os.listdir(path.parent) == ["out.dat"]


def test_tournament_is_deterministic():
    game = game_from_id("matrix:mp")
    agents = lambda: [RandomAgent("a"), RandomAgent("b")]  # noqa: E731
    t1 = tournament(game, agents(), matches_per_pair=10, seed=5)
    t2 = tournament(game, agents(), matches_per_pair=10, seed=5)
    assert t1.to_csv() == t2.to_csv()


# -- configuration ---------------------------------------------------------

def test_config_defaults_and_overrides():
    cfg = Config()
    assert cfg["train.outer_iters"] == 3
    cfg.set("train.outer_iters", "7")
    assert cfg["train.outer_iters"] == 7
    cfg.set("net.learning_rate", "1e-3")
    assert cfg["net.learning_rate"] == pytest.approx(1e-3)


def test_config_unknown_key_is_an_error():
    cfg = Config()
    with pytest.raises(ConfigError):
        cfg.set("train.outer_itrs", 3)
    with pytest.raises(ConfigError):
        cfg.get("not.a.key")
    with pytest.raises(ConfigError):
        cfg.set("train.outer_iters", "many")
    with pytest.raises(ConfigError):
        cfg.set("train.outer_iters", True)
    # keys whose other setting nothing ran are gone
    for key in ("train.warm_start", "cce.prune", "net.dense_actions",
                "upsample.min_count", "match.sequential",
                "smcts.search_play", "net.q_l2", "net.policy_l2",
                "net.support_bins", "upsample.classes", "gen.randomize_prob",
                "match.agent_a", "match.agent_b", "match.agents"):
        with pytest.raises(ConfigError):
            cfg.set(key, "1")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\ngame = matrix:mp\nseed = 9\n"
                    "cce.rounds = 1234\n")
    cfg = load_config(str(path))
    assert cfg["game"] == "matrix:mp"
    assert cfg["seed"] == 9
    assert cfg["cce.rounds"] == 1234
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.name)
def test_preset_loads(path):
    """Every preset names only known keys with values of their type."""
    load_config(str(path))


# -- CLI -------------------------------------------------------------------

def _uniform_dist_file(tmp_path, counts):
    lines = []
    prob = 1.0 / int(np.prod(counts))
    for joint in np.ndindex(*counts):
        lines.append(",".join(str(a) for a in joint) + f" {prob}")
    path = tmp_path / "dist.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_verify_cce_uniform_on_matching_pennies(tmp_path, capsys):
    dist = _uniform_dist_file(tmp_path, (2, 2))
    assert main(["verify-cce", "matrix:mp", dist]) == 0
    out = capsys.readouterr().out
    assert "epsilon = 0.000000" in out


def test_cli_verify_cce_threshold_failure(tmp_path, capsys):
    # all mass on (cooperate, cooperate) in the prisoner's dilemma is far
    # from equilibrium: defecting gains 0.4 in normalized loss
    path = tmp_path / "dist.txt"
    path.write_text("0,0 1.0\n")
    assert main(["verify-cce", "matrix:pd", str(path)]) == 0
    out = capsys.readouterr().out
    assert "epsilon = 0.400000" in out
    assert main(["verify-cce", "matrix:pd", str(path),
                 "--epsilon", "0.05"]) == 2


def test_cli_verify_cce_payoff_file(tmp_path, capsys):
    payoffs = tmp_path / "mp.txt"
    payoffs.write_text("2 2 2\n1 -1\n-1 1\n-1 1\n1 -1\n")
    dist = _uniform_dist_file(tmp_path, (2, 2))
    assert main(["verify-cce", str(payoffs), dist]) == 0
    assert "epsilon = 0.000000" in capsys.readouterr().out


def test_cli_verify_cce_bad_distribution(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("0,0 0.5\n")           # does not sum to 1
    assert main(["verify-cce", "matrix:mp", str(path)]) == 2


def test_cli_usage_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("game = matrix:mp\n")
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train", "--set", "bogus.key=1"]) == 1
    assert main(["train", "/no/such/config.cfg"]) == 1
    assert main(["head2head", "--agent-a", "wat:xyz"]) == 1
    # the config file is the positional argument only
    assert main(["train", "--config", str(path)]) == 1
    # evaluation is sequential only; there is no flag to ask for it
    assert main(["train", "--sequential", str(path)]) == 1
    # a tournament's agents come only from --agents
    assert main(["tournament", "--game", "matrix:mp"]) == 1


def test_cli_head2head_random_agents(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main(["head2head", "--game", "matrix:mp", "--out-dir", out_dir,
                 "--set", "match.count=20", "--seed", "3"])
    assert code == 0
    table = WinTable.from_csv(
        open(os.path.join(out_dir, "head2head.csv")).read())
    assert table.rows[0]["matches"] == 20
    assert "win rate" in capsys.readouterr().out


def test_cli_gen_data(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main(["gen-data", "--game", "chain:0", "--out-dir", out_dir,
                 "--set", "gen.trajectories=300", "--seed", "1"])
    assert code == 0
    path = os.path.join(out_dir, "replay.tsv")
    lines = open(path).read().strip().splitlines()
    # 5 non-terminal nodes x 2 players once the tree saturates
    assert len(lines) == 10
    assert "replay entries" in capsys.readouterr().out


def test_cli_train_and_match_pipeline(tmp_path, capsys):
    """train -> head2head on checkpoints -> tournament, all through main."""
    fast = ["--set", "train.outer_iters=1", "--set",
            "train.trajectories=200", "--set", "train.cv_trees=1",
            "--set", "train.gate_matches=4", "--set", "cce.rounds=200",
            "--set", "net.q_hidden=8", "--set", "net.q_rep=4",
            "--set", "net.policy_hidden=8", "--set", "net.policy_rep=4",
            "--set", "net.q_epochs=2", "--set", "net.policy_epochs=2",
            "--set", "net.q_dropout=0", "--set", "net.policy_dropout=0"]
    train_dir = str(tmp_path / "trained")
    assert main(["train", "--game", "matrix:mp", "--out-dir", train_dir,
                 "--seed", "0", *fast]) == 0
    ccef = sorted(f for f in os.listdir(train_dir) if f.endswith(".ccef"))
    # zero-sum sharing: one value net (player 0, layer 0) plus 2 policies
    assert ccef == ["matrix-mp_0_0.ccef", "matrix-mp_0_policy.ccef",
                    "matrix-mp_1_policy.ccef"]
    with open(os.path.join(train_dir, "training_log.tsv")) as fh:
        header = fh.readline().rstrip("\n").split("\t")
    assert header == ["iteration", "layer", "mean_stage_value",
                      "mean_epsilon", "p95_epsilon", "max_epsilon",
                      "regression_loss", "policy_loss", "gate"]

    out_dir = str(tmp_path / "match")
    assert main(["head2head", "--game", "matrix:mp", "--out-dir", out_dir,
                 "--agent-a", f"policy:{train_dir}", "--agent-b", "random",
                 "--set", "match.count=10", "--seed", "5"]) == 0
    assert os.path.exists(os.path.join(out_dir, "head2head.csv"))

    assert main(["tournament", "--game", "matrix:mp", "--out-dir", out_dir,
                 "--agents", f"policy:{train_dir},random",
                 "--set", "match.count=6", "--seed", "2"]) == 0
    table = WinTable.from_csv(
        open(os.path.join(out_dir, "tournament.csv")).read())
    assert len(table.rows) == 1
    capsys.readouterr()
