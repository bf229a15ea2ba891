"""Trunk-plus-head models for value and policy prediction.

The value model passes a player observation through a representation
trunk, appends an encoded joint action to the representation, and feeds
the result to a support-head network whose expectation is the scalar
value. The policy model uses the same two-stage shape without the
action concatenation.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import SupportCodec, scalar_to_support
from .mlp import MlpModel, TrainingDivergedError, infer

# Most state × joint rows that one block of QValueModel.joint_values's
# head holds: 8 pursuit states (125 joints), 64 Goofspiel-4 states (16).
JOINT_VALUE_BLOCK_ROWS = 1024


def states_per_block(num_joints) -> int:
    """Whole states in one block of ``QValueModel.joint_values``'s head:
    as many as fit in ``JOINT_VALUE_BLOCK_ROWS`` rows, and at least one."""
    return max(1, JOINT_VALUE_BLOCK_ROWS // num_joints)


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i:i + batch_size]


def joint_actions(action_counts) -> np.ndarray:
    """Every joint action as one row of player actions, in C order (the
    order of ``itertools.product``); shape (prod(A_i), N)."""
    return np.indices(action_counts).reshape(len(action_counts), -1).T


def encode_joint(joints, action_counts) -> np.ndarray:
    """Concatenated per-player one-hots of each joint action; length
    sum(A_i) on the last axis (one row per joint, or one vector for a
    single joint)."""
    counts = np.asarray(action_counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.asarray(joints, dtype=np.intp) + offsets
    out = np.zeros((*idx.shape[:-1], int(counts.sum())))
    np.put_along_axis(out, idx, 1.0, axis=-1)
    return out


class ComposedModel:
    """Representation trunk feeding a head, with optional extra head input.

    ``trunk_dims[-1]`` is the representation width; the head consumes
    representation plus ``extra_dim`` appended features.
    """

    def __init__(self, trunk_dims, head_dims, head_kind, extra_dim=0,
                 dropout_rate=0.0, l2_coeff=0.0, learning_rate=5e-5, seed=0):
        if head_dims[0] != trunk_dims[-1] + extra_dim:
            raise ValueError("head input must equal representation width "
                             "plus extra features")
        self.extra_dim = int(extra_dim)
        self.trunk = MlpModel(trunk_dims, head_kind="linear",
                              dropout_rate=dropout_rate, l2_coeff=l2_coeff,
                              learning_rate=learning_rate, seed=seed)
        self.head = MlpModel(head_dims, head_kind=head_kind,
                             dropout_rate=dropout_rate, l2_coeff=l2_coeff,
                             learning_rate=learning_rate, seed=seed + 1)

    @property
    def head_kind(self):
        return self.head.head_kind

    def _append_extra(self, rep, extra):
        if not self.extra_dim:
            return rep
        if extra is None:
            raise ValueError("model expects appended features")
        return np.concatenate([rep, np.atleast_2d(extra)], axis=1)

    def _head_input(self, obs, extra, train_mode, rng):
        rep, cache = self.trunk._forward_cache(np.atleast_2d(obs),
                                               train_mode, rng)
        return self._append_extra(rep, extra), cache

    def forward(self, obs, extra=None):
        """Inference outputs (no dropout) for a batch of observations."""
        rep = self.trunk.forward(obs)
        return self.head.forward(self._append_extra(rep, extra))

    def train_step(self, obs, extra, targets, rng):
        """One minibatch Adam step on both subnetworks; returns the loss."""
        h_in, trunk_cache = self._head_input(obs, extra, True, rng)
        loss, head_grads, grad_hin = self.head.loss_grads(
            h_in, targets, train_mode=True, rng=rng)
        rep_dim = self.trunk.layer_dims[-1]
        trunk_grads, _ = self.trunk._backward(trunk_cache,
                                              grad_hin[:, :rep_dim])
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss {loss}")
        self.head.adam_step(head_grads)
        self.trunk.adam_step(trunk_grads)
        return loss

    def fit(self, obs, extra, targets, epochs, batch_size,
            rng: np.random.Generator):
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if len(obs) == 0:
            raise ValueError("empty dataset")
        if extra is not None:
            extra = np.atleast_2d(np.asarray(extra, dtype=float))
        last = 0.0
        for _ in range(epochs):
            losses = []
            for idx in _batches(len(obs), batch_size, rng):
                ex = extra[idx] if extra is not None else None
                losses.append(self.train_step(obs[idx], ex, targets[idx],
                                              rng))
            last = float(np.mean(losses))
        return last

    def parameter_arrays(self):
        return self.trunk.params() + self.head.params()


def _signature(net: ComposedModel) -> tuple:
    return (net.head_kind, net.extra_dim,
            tuple(a.shape for a in net.parameter_arrays()))


def _stacked(mlp_nets) -> tuple:
    """Weights ``(M, 1, d_in, d_out)`` and biases ``(M, 1, 1, d_out)``."""
    weights = [np.stack(ws)[:, None]
               for ws in zip(*(m.weights for m in mlp_nets))]
    biases = [np.stack(bs)[:, None, None, :]
              for bs in zip(*(m.biases for m in mlp_nets))]
    return weights, biases


class ModelStack:
    """Composed models of one shape, evaluated in one inference pass.

    Each subnetwork's parameters are stacked along a leading model axis,
    and the pass is :func:`infer` on the stacked arrays, so model ``m``'s
    output on a row is the same bits as ``nets[m].forward`` on that row
    alone. The stack is a copy taken when it is built: a model fitted
    after that is not seen.
    """

    def __init__(self, nets):
        if len({_signature(n) for n in nets}) != 1 or nets[0].extra_dim:
            raise ValueError("a stack needs models of one shape without "
                             "appended features")
        self.head_kind = nets[0].head_kind
        self.trunk = _stacked([n.trunk for n in nets])
        self.head = _stacked([n.head for n in nets])

    def forward(self, observations) -> np.ndarray:
        """Model ``m``'s outputs on each row ``observations[m][i]``:
        ``(M, k, d_out)``.

        Each row is its own single-row product, ``(M, k, 1, d) @ (M, 1,
        d, d')``: a ``(M, k, d)`` product would change last bits for
        ``k >= 2``.
        """
        x = np.array(observations)[:, :, None, :]
        rep = infer(*self.trunk, x, "linear")
        return infer(*self.head, rep, self.head_kind)[:, :, 0]


def stack_by_shape(nets) -> list:
    """One ``(indices, ModelStack)`` per distinct network shape among
    ``nets``, in order of first index."""
    groups: dict = {}
    for i, net in enumerate(nets):
        groups.setdefault(_signature(net), []).append(i)
    return [(ix, ModelStack([nets[i] for i in ix]))
            for ix in groups.values()]


class QValueModel:
    """Scalar value of (observation, joint action) via a support head."""

    def __init__(self, obs_size, action_counts, codec: SupportCodec,
                 trunk_hidden=(256, 256), rep_size=32, head_hidden=(256, 256),
                 dropout_rate=0.5, l2_coeff=1e-4, learning_rate=5e-5,
                 seed=0):
        self.action_counts = tuple(action_counts)
        self.codec = codec
        j = sum(self.action_counts)
        trunk_dims = [obs_size, *trunk_hidden, rep_size]
        head_dims = [rep_size + j, *head_hidden, codec.num_bins]
        self.net = ComposedModel(trunk_dims, head_dims, "support",
                                 extra_dim=j, dropout_rate=dropout_rate,
                                 l2_coeff=l2_coeff,
                                 learning_rate=learning_rate, seed=seed)

    def encode_actions(self, joints) -> np.ndarray:
        return encode_joint(joints, self.action_counts)

    def joint_values(self, obs, joints) -> np.ndarray:
        """Scalar values of each of ``joints`` on each row of ``obs``:
        ``(B, J)``.

        The head's first layer is affine over ``[rep; encoding]``, so it
        splits into a state part, ``rep @ W0[:r]``, and a per-joint
        table, ``encoding @ W0[r:] + b0``. The trunk runs once per state
        as single-row products ``(B, 1, d)`` and the table is built once
        per call. The head then runs over blocks of whole states, at
        most ``JOINT_VALUE_BLOCK_ROWS`` state × joint rows (at least one
        state) each, so a call's memory is bounded whatever B is. Each
        state's rows are their own ``(J, h)`` product in every layer: a
        state's values are the same bits whatever batch or block it
        sits in.
        """
        trunk, head = self.net.trunk, self.net.head
        obs = np.asarray(obs, dtype=float)
        trunk._check_width(obs)
        rep = infer(trunk.weights, trunk.biases, obs[:, None, :], "linear")
        r = trunk.layer_dims[-1]
        w0 = head.weights[0]
        table = self.encode_actions(joints) @ w0[r:] + head.biases[0]
        out = np.empty((len(obs), len(table)))
        step = states_per_block(len(table))
        for lo in range(0, len(obs), step):
            h = rep[lo:lo + step] @ w0[:r] + table
            if len(head.weights) > 1:
                np.maximum(h, 0.0, out=h)
            support = infer(head.weights[1:], head.biases[1:], h,
                            head.head_kind)
            out[lo:lo + step] = support @ self.codec.centers
        return out

    def fit(self, obs, joints, values, epochs, batch_size, rng):
        targets = scalar_to_support(self.codec,
                                    np.asarray(values, dtype=float))
        return self.net.fit(obs, self.encode_actions(joints), targets,
                            epochs, batch_size, rng)


class ValueModel:
    """Scalar state value from a player observation (no action input)."""

    def __init__(self, obs_size, codec: SupportCodec, trunk_hidden=(256, 256),
                 rep_size=32, head_hidden=(256, 256), dropout_rate=0.5,
                 l2_coeff=1e-4, learning_rate=5e-5, seed=0):
        self.codec = codec
        trunk_dims = [obs_size, *trunk_hidden, rep_size]
        head_dims = [rep_size, *head_hidden, codec.num_bins]
        self.net = ComposedModel(trunk_dims, head_dims, "support",
                                 dropout_rate=dropout_rate, l2_coeff=l2_coeff,
                                 learning_rate=learning_rate, seed=seed)

    def predict(self, obs) -> np.ndarray:
        return self.net.forward(obs) @ self.codec.centers

    def fit(self, obs, values, epochs, batch_size, rng):
        targets = scalar_to_support(self.codec,
                                    np.asarray(values, dtype=float))
        return self.net.fit(obs, None, targets, epochs, batch_size, rng)


class PolicyModel:
    """Per-player action distribution from a player observation."""

    def __init__(self, obs_size, num_actions, trunk_hidden=(1028, 1028),
                 rep_size=64, head_hidden=(1028, 1028), dropout_rate=0.6,
                 l2_coeff=2e-4, learning_rate=5e-5, seed=0):
        self.num_actions = int(num_actions)
        trunk_dims = [obs_size, *trunk_hidden, rep_size]
        head_dims = [rep_size, *head_hidden, num_actions]
        self.net = ComposedModel(trunk_dims, head_dims, "policy",
                                 dropout_rate=dropout_rate, l2_coeff=l2_coeff,
                                 learning_rate=learning_rate, seed=seed)

    def predict(self, obs) -> np.ndarray:
        return self.net.forward(obs)

    def fit(self, obs, target_policies, epochs, batch_size, rng):
        return self.net.fit(obs, None, np.asarray(target_policies),
                            epochs, batch_size, rng)
