"""Tests for the built-in games and the identifier registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilearn.games import game_from_id
from equilearn.games.base import GameState, IllegalActionError
from equilearn.games.goofspiel import GoofspielGame
from equilearn.games.matrix import (ChainGame, MatrixGame,
                                    RepeatedMatrixGame, load_payoff_file,
                                    matching_pennies, prisoners_dilemma,
                                    rock_paper_scissors)
from equilearn.games.pursuit import PursuitGame

ALL_GAME_IDS = ["matrix:mp", "matrix:rps", "matrix:pd", "goofspiel:3",
                "goofspiel:4", "pursuit", "pursuit:5x5", "chain:0", "pd2"]


@pytest.mark.parametrize("game_id", ALL_GAME_IDS)
def test_random_playthrough_contract(game_id):
    """Every game honors the shared surface along random play."""
    game = game_from_id(game_id)
    rng = np.random.default_rng(0)
    probs = [p for _, p in game.start_states()]
    assert sum(probs) == pytest.approx(1.0)
    state = game.sample_start(rng)
    total = np.zeros(game.num_players)
    steps = 0
    while not state.terminal:
        joint = []
        for p in range(game.num_players):
            legal = game.legal_actions(state, p)
            assert legal and all(
                0 <= a < game.spec.action_counts[p] for a in legal)
            obs = game.observe(state, p)
            assert obs.shape == (game.observation_size,)
            joint.append(legal[rng.integers(len(legal))])
        result = game.step(state, tuple(joint))
        total += np.asarray(result.rewards)
        state = result.next_state
        steps += 1
    assert steps <= game.horizon
    returns = game.terminal_returns(state)
    assert returns.shape == (game.num_players,)
    # rewards along the path sum to the terminal returns
    np.testing.assert_allclose(total, returns, atol=1e-9)
    # accumulated returns agree with terminal returns at the end
    np.testing.assert_allclose(game.accumulated_returns(state), returns)


@pytest.mark.parametrize("game_id", ALL_GAME_IDS)
def test_step_is_deterministic(game_id):
    game = game_from_id(game_id)
    state = game.start_states()[0][0]
    joint = tuple(game.legal_actions(state, p)[0]
                  for p in range(game.num_players))
    a = game.step(state, joint)
    b = game.step(state, joint)
    assert a.next_state.key() == b.next_state.key()
    assert a.rewards == b.rewards


START_DRAWS = 10_000

# every action is legal until the game ends
ALL_LEGAL_IDS = ["matrix:mp", "matrix:rps", "matrix:pd", "pd2", "chain:0",
                 "pursuit", "pursuit:5x5"]


@pytest.mark.parametrize("game", [
    *ALL_GAME_IDS,
    PursuitGame(spawns=(((0, 0), (4, 4), (2, 2)), ((0, 4), (4, 0), (2, 2)),
                        ((4, 4), (0, 0), (1, 3))),
                spawn_probs=(0.7, 0.05, 0.25)),
], ids=[*ALL_GAME_IDS, "pursuit-skewed"])
def test_sample_start_is_numpys_weighted_draw(game):
    """A start draw gives the start state and the generator state of
    numpy's weighted ``choice``, draw for draw, so drawing it through the
    action sampler changes no seeded stream."""
    if isinstance(game, str):
        game = game_from_id(game)
    states = [s for s, _ in game.start_states()]
    probs = np.array([p for _, p in game.start_states()])
    probs = probs / probs.sum()
    ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(START_DRAWS):
        assert game.sample_start(ours) == states[numpys.choice(len(states),
                                                               p=probs)]
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("game_id", ALL_GAME_IDS)
def test_legal_actions_until_the_game_ends(game_id):
    """Along a play of each game's first legal actions, a game whose
    actions are all legal returns the same ``tuple(range(A_p))`` object
    at every state, and every game refuses a terminal state."""
    game = game_from_id(game_id)
    state = game.start_states()[0][0]
    seen = {}
    while not state.terminal:
        legal = [game.legal_actions(state, p)
                 for p in range(game.num_players)]
        if game_id in ALL_LEGAL_IDS:
            assert legal == [tuple(range(a))
                             for a in game.spec.action_counts]
            for p, arms in enumerate(legal):
                assert seen.setdefault(p, arms) is arms
        state = game.step(state, tuple(arms[0] for arms in legal)).next_state
    for p in range(game.num_players):
        with pytest.raises(ValueError, match="terminal state"):
            game.legal_actions(state, p)


def test_illegal_joint_raises():
    game = matching_pennies()
    state = game.start_states()[0][0]
    with pytest.raises(IllegalActionError):
        game.step(state, (0, 5))
    with pytest.raises(IllegalActionError):
        game.step(state, (0,))


# -- matrix games ----------------------------------------------------------

def test_matrix_fixture_payoffs():
    mp = matching_pennies()
    assert mp.reward_symmetry == "zero_sum"
    np.testing.assert_allclose(mp.payoffs[0, 0], [1, -1])
    np.testing.assert_allclose(mp.payoffs[0, 1], [-1, 1])
    pd = prisoners_dilemma()
    np.testing.assert_allclose(pd.payoffs[1, 0], [5, 0])
    rps = rock_paper_scissors()
    np.testing.assert_allclose(rps.payoffs[0, 2], [1, -1])  # rock beats scissors
    np.testing.assert_allclose(rps.payoffs.sum(axis=-1), np.zeros((3, 3)))


def test_payoff_file_roundtrip(tmp_path):
    path = tmp_path / "game.txt"
    path.write_text("# a 2x3 game\n2 2 3\n"
                    "1 0\n2 0.5\n3 1\n-1 0\n-2 0.25\n-3 1\n")
    game = MatrixGame.from_file(str(path))
    assert game.spec.action_counts == (2, 3)
    np.testing.assert_allclose(game.payoffs[0, 1], [2, 0.5])
    np.testing.assert_allclose(game.payoffs[1, 2], [-3, 1])


def test_payoff_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 2\n1 0\n")
    with pytest.raises(ValueError):
        load_payoff_file(str(bad))
    bad.write_text("")
    with pytest.raises(ValueError):
        load_payoff_file(str(bad))


def test_repeated_matrix_accumulates_scores():
    game = RepeatedMatrixGame(prisoners_dilemma().payoffs, rounds=2)
    state = game.start_states()[0][0]
    state = game.step(state, (0, 1)).next_state     # (0, 5)
    assert not state.terminal
    np.testing.assert_allclose(game.accumulated_returns(state), [0, 5])
    state = game.step(state, (1, 1)).next_state     # +(1, 1)
    assert state.terminal
    np.testing.assert_allclose(game.terminal_returns(state), [1, 6])


def test_chain_game_payoffs_depend_on_history():
    game = ChainGame(seed=0)
    s0 = game.start_states()[0][0]
    path_a = game.step(game.step(s0, (0, 0)).next_state, (0, 0)).next_state
    path_b = game.step(game.step(s0, (1, 1)).next_state, (0, 0)).next_state
    assert not np.allclose(game.terminal_returns(path_a),
                           game.terminal_returns(path_b))


# -- goofspiel -------------------------------------------------------------

def test_goofspiel_higher_bid_takes_prize():
    game = GoofspielGame(3, prize_order=(2, 1, 3))
    state = game.start_states()[0][0]
    result = game.step(state, (2, 0))    # cards 3 vs 1 for prize 2
    assert result.rewards == (2.0, -2.0)
    # both players lose the played card
    assert game.legal_actions(result.next_state, 0) == (0, 1)
    assert game.legal_actions(result.next_state, 1) == (1, 2)


def test_goofspiel_tie_discards_prize():
    game = GoofspielGame(3, prize_order=(3, 1, 2))
    state = game.start_states()[0][0]
    result = game.step(state, (1, 1))
    assert result.rewards == (0.0, 0.0)


def test_goofspiel_start_distribution_enumerates_orders():
    game = GoofspielGame(3)
    starts = game.start_states()
    assert len(starts) == 6
    orders = {s.payload[2] for s, _ in starts}
    assert len(orders) == 6


def test_goofspiel_rejects_played_card():
    game = GoofspielGame(3, prize_order=(1, 2, 3))
    state = game.step(game.start_states()[0][0], (0, 1)).next_state
    with pytest.raises(IllegalActionError):
        game.step(state, (0, 0))


def test_goofspiel_observation_is_player_relative():
    game = GoofspielGame(3, prize_order=(1, 2, 3))
    state = game.step(game.start_states()[0][0], (2, 0)).next_state
    obs0 = game.observe(state, 0)
    obs1 = game.observe(state, 1)
    n = game.n_cards
    # each player sees its own hand first
    np.testing.assert_allclose(obs0[:n], [1, 1, 0])
    np.testing.assert_allclose(obs1[:n], [0, 1, 1])
    # the signed score difference flips between players
    assert obs0[-2] == -obs1[-2] != 0.0


# -- pursuit ---------------------------------------------------------------

def test_pursuit_tag_pays_pursuers():
    game = PursuitGame()
    state = GameState(payload=((2, 1), (0, 0), (2, 2), 0), timestep=0)
    # pursuer 0 steps down onto the evader who stays put
    result = game.step(state, (1, 4, 4))
    assert result.rewards == (1.0, 1.0, -1.0)
    assert result.next_state.payload[3] == 1


def test_pursuit_off_grid_moves_stay():
    game = PursuitGame()
    state = GameState(payload=((0, 0), (4, 4), (2, 2), 0), timestep=0)
    result = game.step(state, (0, 1, 4))    # up off-grid, down off-grid
    assert result.next_state.payload[0] == (0, 0)
    assert result.next_state.payload[1] == (4, 4)


def test_pursuit_teams_and_horizon():
    game = PursuitGame()
    assert game.teams == ((0, 1), (2,))
    state = game.start_states()[0][0]
    for _ in range(game.horizon):
        assert not state.terminal
        state = game.step(state, (4, 4, 4)).next_state
    assert state.terminal
    np.testing.assert_allclose(game.terminal_returns(state), [0, 0, 0])


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_pursuit_returns_count_tags(seed):
    game = PursuitGame()
    rng = np.random.default_rng(seed)
    state = game.sample_start(rng)
    tags = 0
    while not state.terminal:
        joint = tuple(rng.integers(5) for _ in range(3))
        result = game.step(state, joint)
        tags += int(result.rewards[0] > 0)
        state = result.next_state
    np.testing.assert_allclose(game.terminal_returns(state),
                               [tags, tags, -tags])


# -- registry --------------------------------------------------------------

def test_registry_rejects_unknown_ids():
    with pytest.raises(ValueError):
        game_from_id("nosuchgame")
    with pytest.raises(ValueError):
        game_from_id("matrix:")


def test_registry_loads_payoff_files(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text("2 2 2\n1 -1\n-1 1\n-1 1\n1 -1\n")
    game = game_from_id(f"matrix:{path}")
    assert game.spec.action_counts == (2, 2)
