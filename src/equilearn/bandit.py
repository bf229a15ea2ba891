"""Single-agent EXP-IX adversarial bandit.

Weights live in log-space: the multiplicative update w <- w * exp(-eta
* l_hat) underflows over long runs, so we store log-weights and
normalize with a max shift when converting to a policy. The loss
estimator uses implicit exploration: l_hat = l / (p + gamma_ix) on the
chosen arm only.

The module also holds the one rule by which every agent, rollout and
search draws an action from weights (:func:`legal_policy`,
:func:`cdf_rows` and :func:`draw_rows`, whose one-row case is
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


@dataclass
class WeightRow:
    """Log-domain weights for one player's K arms."""

    log_weights: np.ndarray

    @classmethod
    def uniform(cls, k: int) -> "WeightRow":
        return cls(log_weights=np.zeros(k))

    @property
    def k(self) -> int:
        return len(self.log_weights)

    def copy(self) -> "WeightRow":
        return WeightRow(self.log_weights.copy())


def policy_from_weights(row: WeightRow, mask: np.ndarray | None = None
                        ) -> np.ndarray:
    """Simplex over arms via max-shifted exponentiation of log-weights.

    ``mask`` (boolean, True = playable) zeroes masked arms before
    renormalizing; at least one arm must be playable.
    """
    lw = row.log_weights
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("mask leaves no playable arm")
        lw = np.where(mask, lw, -np.inf)
    shifted = lw - lw.max()
    w = np.exp(shifted)
    return w / w.sum()


def legal_policy(weights, legal) -> np.ndarray:
    """``weights`` restricted to the ``legal`` arms, clipped at zero and
    normalized; uniform over the legal arms when none has mass."""
    w = np.asarray(weights, dtype=float)
    mask = np.zeros(len(w), dtype=bool)
    mask[list(legal)] = True
    w = np.where(mask, np.maximum(w, 0.0), 0.0)
    total = w.sum()
    return w / total if total > 0.0 else mask / mask.sum()


def cdf_rows(weights) -> np.ndarray:
    """Cumulative sums of nonnegative ``weights`` along the last axis,
    each row rescaled to end at exactly 1: the form :func:`draw_rows`
    reads. Trailing zero weights pad a row without changing a draw."""
    c = np.add.accumulate(weights, axis=-1, dtype=float)
    c /= c[..., -1:]
    return c


def draw_rows(cdf: np.ndarray, u) -> np.ndarray:
    """One index per row of ``cdf`` (from :func:`cdf_rows`) for uniform
    draws ``u`` in [0, 1), shaped ``cdf.shape[:-1] + (1,)`` (a float for
    a single row): the ``k`` with ``cdf[k-1] <= u < cdf[k]``, which has
    positive weight, since each row ends at exactly 1.

    Counting the entries at or below ``u`` gives the index that
    ``searchsorted(side="right")`` gives on a nondecreasing row.
    """
    return np.add.reduce(cdf <= u, axis=-1)


def sample_index(weights, rng: np.random.Generator) -> int:
    """Index drawn in proportion to nonnegative ``weights`` with one
    uniform draw; a zero-weight index is never returned. It is the
    one-row case of :func:`draw_rows`."""
    return int(draw_rows(cdf_rows(weights), rng.random()))


def ix_update(row: WeightRow, chosen: int, loss: float, p_chosen: float,
              params: IxParams) -> WeightRow:
    """One EXP-IX update; only the chosen arm's log-weight changes."""
    if not (0.0 <= loss <= 1.0):
        raise ValueError(f"loss {loss} outside [0, 1]; "
                         "normalize losses upstream")
    if not (0.0 < p_chosen <= 1.0):
        raise ValueError(f"p_chosen {p_chosen} outside (0, 1]")
    out = row.copy()
    out.log_weights[chosen] -= params.eta * loss / (p_chosen + params.gamma_ix)
    return out


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
    """Play EXP-IX for ``rounds`` against ``loss_fn(t, rng) -> loss vector``.

    Returns the regret trace; used by tests and demos as a simulation
    driver, not by the stage solver.
    """
    if params is None:
        params = default_schedule(k, rounds)
    row = WeightRow.uniform(k)
    trace = RegretTrace(k=k)
    for t in range(rounds):
        p = policy_from_weights(row)
        chosen = sample_index(p, rng)
        losses = loss_fn(t, rng)
        trace.record(chosen, losses)
        row = ix_update(row, chosen, float(losses[chosen]), float(p[chosen]),
                        params)
    return trace
