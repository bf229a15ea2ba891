"""Tests for the EXP-IX rule, its one-player driver and the shared
action sampler."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import legal_policy as frozen_legal_policy
from hypothesis.extra import numpy as hnp

from equilearn.bandit import (IxParams, RegretTrace, default_schedule,
                              ix_policies, ix_update_rows, legal_policy,
                              legal_rows, legal_rows_by_count, regret,
                              run_exp_ix, sample_index)
from equilearn.baseline import SmctsAgent, smcts_search
from equilearn.cce import ma_exp_ix_batch
from equilearn.data import _node_for, _sample_action
from equilearn.trainer import TrainedAgent


def test_uniform_row_gives_uniform_policy():
    np.testing.assert_allclose(ix_policies(np.zeros(4), 0.0),
                               np.full(4, 0.25))


def test_ix_update_frozen_oracle():
    # Hand-computed: l_hat = 0.1 / (0.5 + 0.05) = 0.18181818...;
    # with eta = 1 the chosen arm's log-weight drops by l_hat, so
    # p0 = 1 / (1 + e^{0.181818...}) = 0.454670, p1 = 0.545330.
    params = IxParams(eta=1.0, gamma_ix=0.05)
    log_w = np.zeros(2)
    ix_update_rows(log_w, (), 0, 0.1, 0.5, params)
    p = ix_policies(log_w, 0.0)
    np.testing.assert_allclose(p, [0.454670, 0.545330], atol=1e-5)


def test_ix_update_only_touches_chosen_arm():
    # a (B, N, A) block: each (game, player) row moves its chosen arm by
    # eta * l / (p + gamma) and no other arm
    params = IxParams(eta=0.3, gamma_ix=0.1)
    g = np.random.default_rng(0)
    before = g.normal(size=(4, 3, 5))
    chosen = g.integers(0, 5, size=(4, 3))
    losses = g.uniform(0.1, 1.0, size=(4, 3))
    p_sel = g.uniform(0.1, 1.0, size=(4, 3))
    rows = (np.arange(4)[:, None], np.arange(3)[None, :])
    log_w = before.copy()
    ix_update_rows(log_w, rows, chosen, losses, p_sel, params)
    picked = np.zeros(before.shape, dtype=bool)
    picked[rows + (chosen,)] = True
    np.testing.assert_array_equal(log_w[~picked], before[~picked])
    assert (log_w[picked] < before[picked]).all()
    np.testing.assert_allclose(
        before[rows + (chosen,)] - log_w[rows + (chosen,)],
        0.3 * losses / (p_sel + 0.1), rtol=1e-12)


def test_ix_update_rejects_bad_inputs():
    # the driver's loss vectors come from outside the solver: each must
    # be k values in [0, 1]
    for losses in ([0.5, 1.5, 0.2], [0.5, -0.1, 0.2], [0.5, np.nan, 0.2],
                   [0.5, 0.2]):
        with pytest.raises(ValueError):
            run_exp_ix(lambda t, rng: np.array(losses), 3, 10,
                       np.random.default_rng(0))


def test_params_validation():
    with pytest.raises(ValueError):
        IxParams(eta=0.0, gamma_ix=0.1)
    with pytest.raises(ValueError):
        IxParams(eta=0.1, gamma_ix=-1.0)


def test_default_schedule_frozen_oracle():
    # eta = sqrt(2 ln 10 / (10 * 10^4)) = 0.00678615..., gamma = eta / 2
    params = default_schedule(10, 10_000)
    assert params.eta == pytest.approx(0.006786, abs=1e-6)
    assert params.gamma_ix == pytest.approx(params.eta / 2.0)
    # closed form, independently recomputed
    assert params.eta == pytest.approx(
        math.sqrt(2.0 * math.log(10) / 1e5), rel=1e-12)


def test_masked_policy_zeroes_masked_arms():
    p = ix_policies(np.array([1.0, 0.0, -1.0]),
                    np.array([0.0, -np.inf, 0.0]))
    assert p[1] == 0.0
    assert p.sum() == pytest.approx(1.0)
    assert p[0] > p[2]


@given(lw=hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3,
                                              max_side=6),
                     elements=st.floats(-50, 50)),
       data=st.data())
def test_policy_is_simplex(lw, data):
    """Masked (B, N, A) blocks: every row is a distribution that puts
    exactly 0 on its masked arms."""
    masks = data.draw(hnp.arrays(bool, lw.shape))
    masks[~masks.any(axis=-1), 0] = True
    p = ix_policies(lw, np.where(masks, 0.0, -np.inf))
    assert p.shape == lw.shape
    assert np.all(p >= 0.0) and np.all(p[~masks] == 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0)


@pytest.mark.parametrize("k", [2, 3, 7, 10])
def test_run_exp_ix_is_the_solver_rule(k):
    """Criterion 1's driver runs the stage solver's rule: on a fixed
    loss vector it incurs the solver's one-player value to the byte and
    leaves the generator where the solver leaves it."""
    fixed = np.random.default_rng(100 + k).random(k)
    rounds = 300
    for seed in range(10):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        trace = run_exp_ix(lambda t, rng: fixed, k, rounds, rng_a)
        out = ma_exp_ix_batch(fixed[None, :, None], rounds, rng=rng_b)
        driver = 1.0 - trace.cumulative_loss_incurred / rounds
        assert np.float64(driver).tobytes() == out.values[0, 0].tobytes()
        assert rng_a.random(4).tobytes() == rng_b.random(4).tobytes()


@settings(deadline=None)
@given(seed=st.integers(0, 10_000))
def test_exp_ix_prefers_better_arm(seed):
    """After enough rounds of a clear gap the better arm carries more mass."""
    rng = np.random.default_rng(seed)
    means = np.array([0.2, 0.8])

    def loss_fn(t, r):
        return (r.random(2) < means).astype(float)

    trace = run_exp_ix(loss_fn, k=2, rounds=2000, rng=rng)
    assert trace.rounds == 2000
    assert trace.cumulative_loss_per_arm[0] < trace.cumulative_loss_per_arm[1]


def test_regret_trace_accounting():
    trace = RegretTrace(k=3)
    trace.record(0, np.array([0.5, 0.2, 0.9]))
    trace.record(2, np.array([0.1, 0.3, 0.4]))
    assert trace.cumulative_loss_incurred == pytest.approx(0.9)
    np.testing.assert_allclose(trace.cumulative_loss_per_arm,
                               [0.6, 0.5, 1.3])
    assert regret(trace) == pytest.approx(0.9 - 0.5)
    with pytest.raises(ValueError):
        regret(RegretTrace(k=2))


@given(w=st.lists(st.sampled_from([0.0, 1e-300, 0.1, 0.3, 1.0, 7.0]),
                  min_size=1, max_size=8).filter(lambda w: sum(w) > 0),
       u=st.one_of(st.just(0.0), st.just(float(np.nextafter(1.0, 0.0))),
                   st.floats(0.0, 1.0, exclude_max=True)))
def test_sample_index_never_returns_zero_weight(w, u):
    i = sample_index(np.array(w), SimpleNamespace(random=lambda: u))
    assert 0 <= i < len(w) and w[i] > 0.0


def _weight_block(rng, rows, width):
    """Weight rows mixing negative, zero and tiny (about 1e-300)
    entries, a NaN in about one row in five, with boolean masks of at
    least one legal arm per row; about one row in four puts all its mass
    on illegal arms."""
    values = np.array([-1.0, 0.0, 0.0, 1e-300, 0.3, 2.0, 7.0])
    weights = rng.choice(values, size=(rows, width))
    weights *= rng.uniform(0.5, 2.0, size=(rows, width))
    nan_rows = np.flatnonzero(rng.random(rows) < 0.2)
    weights[nan_rows, rng.integers(0, width, len(nan_rows))] = np.nan
    masks = rng.random((rows, width)) < 0.6
    masks[np.arange(rows), rng.integers(0, width, rows)] = True
    illegal_mass = rng.random(rows) < 0.25
    weights[illegal_mass] = np.where(masks[illegal_mass], 0.0, 5.0)
    return weights, masks


@pytest.mark.parametrize("width", range(1, 34))
def test_legal_rows_match_the_row_rule(width):
    """A block normalizes each row to the bits of the frozen one-row rule:
    a block of many rows, a stacked ``(M, k, A)`` block, its transposed
    view, one player's strided rows of a wider padded block, and single
    rows; no call warns, though some rows have no mass. Blocks whose
    every row has mass are checked too."""
    rng = np.random.default_rng(width)
    weights, masks = _weight_block(rng, 60, width)
    want = np.stack([frozen_legal_policy(w, np.flatnonzero(m))
                     for w, m in zip(weights, masks)])
    padded = np.zeros((60, 3, width + 3))
    padded[:, 1, :width] = weights
    has_mass = np.where(masks, weights, 0.0).clip(0.0).sum(-1) > 0.0
    assert has_mass.any() and not has_mass.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {
            "block": legal_rows(weights, masks),
            "stacked": legal_rows(weights.reshape(3, 20, width),
                                  masks.reshape(3, 20, width)),
            "transposed": legal_rows(
                weights.reshape(20, 3, width).transpose(1, 0, 2),
                masks.reshape(20, 3, width).transpose(1, 0, 2)
            ).transpose(1, 0, 2),
            "strided": legal_rows(padded[:, 1, :width], masks),
            "rows": np.stack([legal_rows(w, m)
                              for w, m in zip(weights, masks)]),
            "one-row": np.stack([legal_policy(w, np.flatnonzero(m))
                                 for w, m in zip(weights, masks)]),
            "with-mass": legal_rows(weights[has_mass], masks[has_mass]),
        }
    for name, block in got.items():
        expected = want[has_mass] if name == "with-mass" else want
        assert block.tobytes() == expected.tobytes(), name
    block = got["block"]
    assert np.all(block[~masks] == 0.0)
    np.testing.assert_allclose(block.sum(axis=-1), 1.0)


@pytest.mark.parametrize("counts", [(3, 3, 3), (2, 3), (9, 17),
                                    (17, 1, 9, 17), (33, 16)])
def test_legal_rows_by_count_match_the_row_rule(counts):
    """Each player's rows come out as the frozen one-row rule on the row
    cut to the player's action count, then zero-padded, whatever the
    block holds past that count; no call warns."""
    rng = np.random.default_rng(len(counts) * 100 + max(counts))
    k, a_max = 40, max(counts)
    weights = rng.uniform(-1.0, 5.0, size=(k, len(counts), a_max))
    masks = np.zeros(weights.shape, dtype=bool)
    for p, a in enumerate(counts):
        weights[:, p, :a], masks[:, p, :a] = _weight_block(rng, k, a)
    want = np.zeros(weights.shape)
    for i in range(k):
        for p, a in enumerate(counts):
            want[i, p, :a] = frozen_legal_policy(
                weights[i, p, :a], np.flatnonzero(masks[i, p, :a]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = legal_rows_by_count(weights, masks, counts)
    assert got.tobytes() == want.tobytes()


class _FixedPolicy:
    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def predict(self, obs):
        return self.row[None]


# (network output or a source's weights before the legal rule, legal
# actions, uniform draw): a draw of exactly 0 with an illegal first arm,
# and the largest draw below 1 against a normalized 6-arm policy whose
# cumulative sum ends 2 ulps short of 1, with the illegal seventh arm
# after it
ZERO_WEIGHT_TRAPS = {
    "zero-draw": ([0.4, 0.3, 0.3], (1, 2), 0.0),
    "short-cumsum": ([0.69, 0.39, 0.14, 0.72, 0.53, 0.31, 0.5],
                     tuple(range(6)), float(np.nextafter(1.0, 0.0))),
}

DRAW_SITES = {
    "trained-agent": lambda game, row, rng: TrainedAgent(
        game, [_FixedPolicy(row)], {}).act(game, None, 0, rng),
    "smcts-policy-play": lambda game, row, rng: SmctsAgent(
        game, {}, [_FixedPolicy(row)], "none",
        search_play=False).act(game, None, 0, rng),
    "tree-rollout": lambda game, row, rng: _sample_action(
        game, _rollout_node(game, row), 0, False, rng),
    "search-descent": lambda game, row, rng: _search_draw(game, row, rng),
}


def _row_source(row):
    """A source that predicts the frozen rule's legal policy of ``row``
    as player 0's row, as the prediction protocol asks."""
    return SimpleNamespace(predict=lambda game, states: (
        np.zeros((len(states), 1)),
        np.stack([frozen_legal_policy(row, game.legal_actions(s, 0))[None]
                  for s in states])))


def _one_player(game, row, **methods):
    """A one-player game over ``len(row)`` actions with ``game``'s legal
    actions and the given further ``methods``."""
    return SimpleNamespace(
        num_players=1, spec=SimpleNamespace(action_counts=(len(row),)),
        legal_actions=game.legal_actions, **methods)


def _rollout_node(game, row):
    """A rollout node built as tree generation builds it."""
    tree = SimpleNamespace(game=_one_player(game, row), layers=[{}])
    state = SimpleNamespace(timestep=0, terminal=False, key=lambda: "s")
    node, created = _node_for(tree, state, _row_source(row))
    assert created
    return node


def _search_draw(game, row, rng):
    """The action of a one-simulation search's one descent step, in a
    one-player game whose every step ends it."""
    joints = []

    def step(state, joint):
        joints.append(joint)
        return SimpleNamespace(next_state=SimpleNamespace(terminal=True))

    game = _one_player(game, row, step=step,
                       terminal_returns=lambda state: np.zeros(1))
    smcts_search(game, SimpleNamespace(terminal=False), _row_source(row), 1,
                 rng)
    [(action,)] = joints
    return action


@pytest.mark.parametrize("site", sorted(DRAW_SITES))
@pytest.mark.parametrize("trap", sorted(ZERO_WEIGHT_TRAPS))
def test_action_draws_stay_legal(site, trap):
    row, legal, u = ZERO_WEIGHT_TRAPS[trap]
    game = SimpleNamespace(observe=lambda state, p: np.zeros(1),
                           legal_actions=lambda state, p: legal)
    rng = SimpleNamespace(
        random=lambda size=None: u if size is None else np.full(size, u))
    assert DRAW_SITES[site](game, row, rng) in legal
