"""Exact tabular value oracle for small games.

Replaces the learned value model on games whose reachable (state, joint
action) space is enumerable; lookup keys are (state key, joint action).
"""

from __future__ import annotations

import numpy as np


def fit_tabular(records) -> dict:
    """Average duplicate (state key, joint action) records.

    ``records`` is an iterable of (state_key, joint_action, value); the
    value may be a scalar or a vector and is averaged per key. Returns
    the table ``{(state_key, joint tuple): mean value}``.
    """
    sums: dict = {}
    counts: dict = {}
    for state_key, joint, value in records:
        key = (state_key, tuple(joint))
        value = np.asarray(value, dtype=float)
        if key in sums:
            sums[key] = sums[key] + value
            counts[key] += 1
        else:
            sums[key] = value
            counts[key] = 1
    return {k: sums[k] / counts[k] for k in sums}
