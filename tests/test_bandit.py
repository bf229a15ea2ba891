"""Tests for the EXP-IX rule, its one-player driver and the shared
action sampler."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from equilearn.bandit import (IxParams, RegretTrace, default_schedule,
                              ix_policies, ix_update_rows, regret,
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


class _FixedPolicy:
    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def predict(self, obs):
        return self.row[None]


# (network output or node weights, legal actions, uniform draw): a draw
# of exactly 0 with an illegal first arm, and the largest draw below 1
# against a normalized 6-arm policy whose cumulative sum ends 2 ulps
# short of 1, with the illegal seventh arm after it
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
    """A source that predicts ``row`` as player 0's weights."""
    return SimpleNamespace(predict=lambda game, states: [
        (np.zeros(1), [np.array(row)]) for _ in states])


def _rollout_node(game, row):
    """A rollout node built as tree generation builds it."""
    tree = SimpleNamespace(game=game, layers=[{}])
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

    game = SimpleNamespace(
        num_players=1, spec=SimpleNamespace(action_counts=(len(row),)),
        legal_actions=game.legal_actions, step=step,
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
