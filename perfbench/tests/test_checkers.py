"""The benchmark's own checkers against answers known apart from them.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

import exploit  # noqa: E402
from checks import (CheckError, StageCheck, check_pruning,  # noqa: E402
                    exp_ix_regret_bound, legal_epsilon)
from equilearn.bandit import default_schedule  # noqa: E402
from equilearn.cce import ma_exp_ix_batch  # noqa: E402
from equilearn.games import (GoofspielGame, PursuitGame,  # noqa: E402
                             matching_pennies, rock_paper_scissors)


def fixed(game, action):
    def fn(states, player):
        out = np.zeros((len(states), game.spec.action_counts[player]))
        out[:, action] = 1.0
        return out
    return fn


# -- exploitability --------------------------------------------------------

def test_uniform_matching_pennies_is_unexploitable():
    game = matching_pennies()
    r = exploit.nash_conv(game, exploit.uniform_policy(game))
    assert r["nash_conv"] == pytest.approx(0.0, abs=1e-12)


def test_pure_matching_pennies_by_hand():
    # Both play heads: player 0 wins 1 and cannot do better; player 1
    # loses 1 and gains 2 by switching to tails.
    game = matching_pennies()
    r = exploit.nash_conv(game, fixed(game, 0))
    assert list(r["gains"]) == pytest.approx([0.0, 2.0])
    assert r["nash_conv"] == pytest.approx(2.0)


def test_pure_rock_paper_scissors_by_hand():
    # Rock against rock draws; either side gains 1 by playing paper.
    game = rock_paper_scissors()
    r = exploit.nash_conv(game, fixed(game, 0))
    assert r["nash_conv"] == pytest.approx(2.0)


def test_uniform_goofspiel4_scores_five_points():
    game = GoofspielGame(4)
    r = exploit.nash_conv(game, exploit.uniform_policy(game))
    assert r["nash_conv"] == pytest.approx(5.0, abs=1e-9)


def _random_table(game, states, rng):
    table = {}
    for s in states:
        for p in range(game.num_players):
            row = np.zeros(game.spec.action_counts[p])
            legal = list(game.legal_actions(s, p))
            row[legal] = rng.dirichlet(np.ones(len(legal)))
            table[(s.key(), p)] = row
    return table


def _brute_force_br(game, table, player):
    """Best pure strategy of ``player`` by trying every one of them.

    The game is walked as a tree of histories; a pure strategy maps each
    of the player's decision states to one legal action.
    """
    def walk(state, collect):
        if state.terminal:
            return
        collect.setdefault(state.key(), state)
        for joint in itertools.product(*(game.legal_actions(state, p)
                                         for p in range(game.num_players))):
            walk(game.step(state, joint).next_state, collect)

    decisions = {}
    for s, _ in game.start_states():
        walk(s, decisions)
    keys = sorted(decisions, key=repr)
    choices = [game.legal_actions(decisions[k], player) for k in keys]

    def value(state, strategy):
        if state.terminal:
            return 0.0
        total = 0.0
        own = strategy[state.key()]
        legal = [game.legal_actions(state, p)
                 for p in range(game.num_players)]
        legal[player] = (own,)
        for joint in itertools.product(*legal):
            prob = np.prod([table[(state.key(), p)][a]
                            for p, a in enumerate(joint) if p != player])
            step = game.step(state, joint)
            total += prob * (step.rewards[player]
                             + value(step.next_state, strategy))
        return total

    best = -math.inf
    for combo in itertools.product(*choices):
        strategy = dict(zip(keys, combo))
        v = sum(p * value(s, strategy) for s, p in game.start_states())
        best = max(best, v)
    return best


def test_goofspiel_best_response_matches_brute_force():
    game = GoofspielGame(3, prize_order=(2, 3, 1))
    layers = exploit.enumerate_layers(game)
    states = [s for layer in layers for s in layer if not s.terminal]
    table = _random_table(game, states, np.random.default_rng(3))

    def policy(states, player):
        return np.array([table[(s.key(), player)] for s in states])

    r = exploit.nash_conv(game, policy, layers)
    for p in range(2):
        assert r["br"][p] == pytest.approx(_brute_force_br(game, table, p),
                                           abs=1e-12)


def test_pursuit_reduction_matches_full_enumeration():
    game = PursuitGame(width=3, height=3, horizon=2)
    model = exploit.PursuitModel(game)
    model.check(np.random.default_rng(0), samples=300)
    rng = np.random.default_rng(1)
    tab = rng.dirichlet(np.ones(5), size=(game.horizon, 3, model.n_states))
    nc = len(model.cells)

    def rows(obs, player):
        t = int(round(obs[0, 6] * game.horizon))
        return tab[t, player]

    def policy(states, player):
        out = []
        for s in states:
            c0, c1, ce = (model.index[c] for c in s.payload[:3])
            out.append(tab[s.timestep, player, (c0 * nc + c1) * nc + ce])
        return np.array(out)

    fast = exploit.pursuit_nash_conv(model, rows)
    full = exploit.nash_conv(game, policy)
    assert fast["nash_conv"] == pytest.approx(full["nash_conv"], abs=1e-12)
    assert list(fast["br"]) == pytest.approx(list(full["br"]), abs=1e-12)


def test_policy_with_illegal_mass_is_refused():
    game = GoofspielGame(2)
    with pytest.raises(ValueError):
        exploit.nash_conv(game, lambda states, p: np.tile([0.6, 0.6],
                                                          (len(states), 1)))


# -- stage-solve checks ----------------------------------------------------

def _tensor(l0, l1):
    """(1, A0, A1, 2) losses from per-player (A0, A1) matrices."""
    return np.stack([np.asarray(l0, float), np.asarray(l1, float)],
                    axis=-1)[None]


def test_legal_epsilon_by_hand():
    # Point mass on (0, 0). Player 0 would gain 0.5 by its arm 2, but arm
    # 2 is illegal, so its best legal deviation is arm 1: 0.5 - 0.2.
    l0 = [[0.5, 0.9, 0.9], [0.2, 0.9, 0.9], [0.0, 0.0, 0.0]]
    l1 = [[0.1, 0.3, 0.6], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]
    t = _tensor(l0, l1)
    dist = np.zeros((1, 9))
    dist[0, 0] = 1.0
    legal = np.ones((1, 2, 3), dtype=bool)
    assert legal_epsilon(t, dist, legal)[0] == pytest.approx([0.5, 0.0])
    legal[0, 0, 2] = False
    assert legal_epsilon(t, dist, legal)[0] == pytest.approx([0.3, 0.0])


def test_legal_epsilon_of_mixed_play_by_hand():
    # Matching pennies in losses, uniform joint play: no deviation gains.
    l0 = [[0.0, 1.0], [1.0, 0.0]]
    l1 = [[1.0, 0.0], [0.0, 1.0]]
    dist = np.full((1, 4), 0.25)
    eps = legal_epsilon(_tensor(l0, l1), dist, np.ones((1, 2, 2), bool))
    assert eps[0] == pytest.approx([0.0, 0.0])
    # Correlated play on (0, 0) and (1, 1): player 1 always loses, and
    # either fixed arm would lose only half the time; player 0 always
    # wins.
    dist = np.array([[0.5, 0.0, 0.0, 0.5]])
    eps = legal_epsilon(_tensor(l0, l1), dist, np.ones((1, 2, 2), bool))
    assert eps[0] == pytest.approx([0.0, 0.5])


def test_pruning_check_accepts_dominated_and_refuses_others():
    # Player 0's arm 1 loses more than arm 0 against both columns.
    l0 = [[0.1, 0.2], [0.3, 0.4]]
    l1 = [[0.5, 0.5], [0.5, 0.5]]
    t = _tensor(l0, l1)
    legal = np.ones((1, 2, 2), dtype=bool)
    masks = legal.copy()
    masks[0, 0, 1] = False
    check_pruning(t, legal, masks)
    wrong = legal.copy()
    wrong[0, 0, 0] = False
    with pytest.raises(CheckError):
        check_pruning(t, legal, wrong)
    # Against the unmasked column only, arm 0 strictly dominates arm 1
    # even where it loses against a masked column.
    l0 = [[0.1, 0.9], [0.3, 0.4]]
    masks = legal.copy()
    masks[0, 1, 1] = False
    masks[0, 0, 1] = False
    l1 = [[0.1, 0.5], [0.1, 0.5]]
    check_pruning(_tensor(l0, l1), legal, masks)


def test_regret_bound_by_hand():
    # k = 2, T = 50, eta = 0.1, gamma = 0.05, delta = 0.02:
    # ln 2 / 0.1 + 0.1 * (100 + ln 100 / 0.1) + ln 200 / 0.1
    expect = 6.931472 + 0.1 * (100 + 46.051702) + 52.983174
    assert exp_ix_regret_bound(2, 50, 0.1, 0.05, 0.02) == pytest.approx(
        expect, rel=1e-6)


@pytest.mark.parametrize("k,t", [(2, 1000), (4, 4000), (5, 1500)])
def test_regret_bound_within_neus_theorem(k, t):
    p = default_schedule(k, t)
    delta = 1e-10
    neu = (2 * math.sqrt(2 * k * t * math.log(k))
           + (math.sqrt(2 * k * t / math.log(k)) + 1) * math.log(2 / delta))
    assert exp_ix_regret_bound(k, t, p.eta, p.gamma_ix, delta) <= neu


def _solve(t, masks, rounds, seed):
    return ma_exp_ix_batch(t, rounds, masks=masks,
                           rng=np.random.default_rng(seed))


def test_stage_check_passes_solver_on_matrix_games():
    rounds = 2000
    games = [
        _tensor([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]),
        _tensor([[0.4, 1.0], [0.0, 0.8]], [[0.4, 0.0], [1.0, 0.8]]),
    ]
    for seed, t in enumerate(games):
        masks = np.ones((1, 2, 2), dtype=bool)
        result = _solve(t, masks, rounds, seed)
        p = default_schedule(2, rounds)
        check = StageCheck()
        check.check(t, rounds, masks, masks, result, p.eta, p.gamma_ix)
        assert check.games == 1
        assert 0.0 <= check.worst_bound_share < 1.0


def test_stage_check_refuses_broken_outputs():
    rounds = 500
    t = np.random.default_rng(0).uniform(size=(3, 3, 3, 2))
    legal = np.ones((3, 2, 3), dtype=bool)
    legal[:, 0, 2] = False
    p = default_schedule(3, rounds)

    def run(mutate):
        result = _solve(t, legal, rounds, 1)
        mutate(result)
        StageCheck().check(t, rounds, legal, legal, result, p.eta,
                           p.gamma_ix)

    def illegal_mass(r):
        r.policies[0, 0] = [0.5, 0.3, 0.2]

    def extra_count(r):
        r.joint_counts[1, 0] += 1

    def shifted_value(r):
        r.values[2, 1] += 1e-3

    def unnormalized(r):
        r.policies[0, 1, 0] += 0.1

    run(lambda r: None)
    for mutate, message in [(illegal_mass, "illegal or pruned"),
                            (extra_count, "round count"),
                            (shifted_value, "mean loss"),
                            (unnormalized, "sum to 1")]:
        with pytest.raises(CheckError, match=message):
            run(mutate)


def test_stage_check_refuses_epsilon_over_the_bound():
    # Player 0 always played arm 0, which loses 1 where arm 1 loses 0:
    # its regret is T, far over the bound (about 0.32 T here).
    rounds = 10000
    t = _tensor([[1.0, 1.0], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]])
    counts = np.array([[rounds, 0, 0, 0]])
    fake = SimpleNamespace(policies=np.full((1, 2, 2), 0.5),
                           joint_counts=counts,
                           values=np.array([[0.0, 0.5]]))
    legal = np.ones((1, 2, 2), dtype=bool)
    p = default_schedule(2, rounds)
    with pytest.raises(CheckError, match="EXP-IX bound"):
        StageCheck().check(t, rounds, legal, legal, fake, p.eta, p.gamma_ix)
