"""The one EXP-IX rule and the action sampler.

EXP-IX (Neu 2015) keeps log-weights: the multiplicative update w <- w *
exp(-eta * l_hat) underflows over long runs, so :func:`ix_policies`
normalizes with a max shift. The loss estimator uses implicit
exploration: l_hat = l / (p + gamma_ix) on the chosen arm only
(:func:`ix_update_rows`). The stage solver
(:func:`~equilearn.cce.ma_exp_ix_batch`) and the one-player driver
:func:`run_exp_ix`, whose regret the acceptance tests check, both run
these functions.

The module also holds the one rule by which every learner, agent,
rollout and search draws an action from weights: :func:`legal_rows`
restricts blocks of weight rows to their legal arms and normalizes them
(:func:`legal_rows_by_count` applies it to per-player blocks at each
player's own action count), and :func:`cdf_rows` and
:func:`draw_rows` draw one arm per row (their one-row case is
:func:`sample_index`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IxParams:
    eta: float
    gamma_ix: float

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be finite and positive")
        if not (math.isfinite(self.gamma_ix) and self.gamma_ix >= 0):
            raise ValueError("gamma_ix must be finite and non-negative")


def ix_policies(log_w: np.ndarray, neg_inf) -> np.ndarray:
    """EXP-IX policies from log-weights: a max-shifted softmax along the
    last axis. ``neg_inf`` is 0 on playable arms and -inf on masked
    ones, which get exactly 0; each row needs one playable arm."""
    lw = log_w + neg_inf
    lw -= np.maximum.reduce(lw, axis=-1, keepdims=True)
    w = np.exp(lw)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return w


def ix_update_rows(log_w: np.ndarray, rows: tuple, chosen, losses, p_sel,
                   params: IxParams) -> None:
    """The IX update, in place: each row's ``chosen`` arm (at
    ``log_w[rows + (chosen,)]``) drops by eta * loss / (p + gamma_ix),
    where ``p_sel`` is the probability it was drawn with and ``losses``
    lie in [0, 1]. Every other arm keeps its log-weight."""
    log_w[rows + (chosen,)] -= params.eta * losses / (p_sel + params.gamma_ix)


def legal_rows(weights, masks) -> np.ndarray:
    """Each row of ``weights`` (any ``(..., A)`` block) restricted to the
    arms its boolean row of ``masks`` marks legal, clipped at zero and
    normalized; uniform over the legal arms when a row has no mass (all
    of it on illegal arms, or a NaN on a legal one). Every row needs one
    legal arm.

    Each row gets the float operations of a row alone, so a block gives
    the bits of its rows one at a time: normalize a player's rows at its
    own width, since zeros padded before the sum can regroup it.
    """
    w = np.where(masks, np.maximum(weights, 0.0), 0.0)
    total = np.add.reduce(w, axis=-1, keepdims=True)
    live = total > 0.0
    if live.all():
        w /= total
        return w
    out = masks / np.add.reduce(masks, axis=-1, keepdims=True)
    np.divide(w, total, out=out, where=live)
    return out


def legal_rows_by_count(weights, masks, counts) -> np.ndarray:
    """:func:`legal_rows` of a ``(k, N, A_max)`` block of per-player
    weight rows under their ``(k, N, A_max)`` masks, each player ``p``'s
    rows normalized at its own action count ``counts[p]`` and then
    padded with zeros: the bits of :func:`legal_rows` on each row cut
    to its player's count, one row at a time. Players of one count form
    one block."""
    rows = np.zeros(masks.shape)
    for a in sorted(set(counts)):
        players = [p for p, c in enumerate(counts) if c == a]
        rows[:, players, :a] = legal_rows(weights[:, players, :a],
                                          masks[:, players, :a])
    return rows


def cdf_rows(weights) -> np.ndarray:
    """Cumulative sums of nonnegative ``weights`` along the last axis,
    each row rescaled to end at exactly 1: the form :func:`draw_rows`
    reads. Trailing zero weights pad a row without changing a draw."""
    c = np.add.accumulate(weights, axis=-1, dtype=float)
    c /= c[..., -1:]
    return c


def draw_rows(cdf: np.ndarray, u) -> np.ndarray:
    """One index per row of ``cdf`` (from :func:`cdf_rows`) for uniform
    draws ``u`` in [0, 1), shaped ``cdf.shape[:-1] + (1,)`` or a scalar
    for a single row: the ``k`` with ``cdf[k-1] <= u < cdf[k]``, which
    has positive weight, since each row ends at exactly 1. Returns an
    int array of shape ``cdf.shape[:-1]`` (a ``numpy.int64`` for a
    single row).

    Counting the entries at or below ``u`` gives the index that
    ``searchsorted(side="right")`` gives on a nondecreasing row.
    """
    return np.add.reduce(cdf <= u, axis=-1)


def sample_index(weights, rng: np.random.Generator) -> int:
    """Index drawn in proportion to nonnegative ``weights`` with one
    uniform draw; a zero-weight index is never returned. It is the
    one-row case of :func:`draw_rows`."""
    return int(draw_rows(cdf_rows(weights), rng.random()))


def default_schedule(k: int, rounds: int) -> IxParams:
    """Fixed-horizon schedule: eta = sqrt(2 ln K / (K T)), gamma = eta/2."""
    if k < 2:
        raise ValueError("need at least 2 arms")
    if rounds < 1:
        raise ValueError("need at least 1 round")
    eta = math.sqrt(2.0 * math.log(k) / (k * rounds))
    return IxParams(eta=eta, gamma_ix=eta / 2.0)


@dataclass
class RegretTrace:
    """Realized-loss bookkeeping for regret diagnostics.

    Tracks the incurred loss of played arms and the cumulative loss
    every arm would have suffered (full-information side channel; for
    diagnostics only, never fed back to the learner).
    """

    k: int
    cumulative_loss_incurred: float = 0.0
    cumulative_loss_per_arm: np.ndarray = None
    rounds: int = 0

    def __post_init__(self):
        if self.cumulative_loss_per_arm is None:
            self.cumulative_loss_per_arm = np.zeros(self.k)

    def record(self, chosen: int, losses: np.ndarray):
        self.cumulative_loss_incurred += float(losses[chosen])
        self.cumulative_loss_per_arm += losses
        self.rounds += 1


def regret(trace: RegretTrace) -> float:
    if trace.rounds < 1:
        raise ValueError("no rounds recorded")
    return trace.cumulative_loss_incurred - float(
        trace.cumulative_loss_per_arm.min())


def run_exp_ix(loss_fn, k: int, rounds: int, rng: np.random.Generator,
               params: IxParams | None = None) -> RegretTrace:
    """Play EXP-IX for ``rounds`` against ``loss_fn(t, rng) -> loss vector``
    of shape (k,) with entries in [0, 1].

    It is the stage solver's rule on one game with one player: one
    (k,) row of log-weights through :func:`ix_policies`,
    :func:`sample_index` and :func:`ix_update_rows`. Returns the regret
    trace; tests and demos use it as a simulation driver.
    """
    if params is None:
        params = default_schedule(k, rounds)
    log_w = np.zeros(k)
    trace = RegretTrace(k=k)
    for t in range(rounds):
        p = ix_policies(log_w, 0.0)
        chosen = sample_index(p, rng)
        losses = np.asarray(loss_fn(t, rng), dtype=float)
        if losses.shape != (k,) or not all(0.0 <= x <= 1.0
                                           for x in losses.tolist()):
            raise ValueError(f"loss vector {losses} is not {k} values in "
                             "[0, 1]; normalize losses upstream")
        trace.record(chosen, losses)
        ix_update_rows(log_w, (), chosen, losses[chosen], p[chosen], params)
    return trace
