"""From-scratch fully connected networks with Adam, L2 and dropout.

Everything is plain numpy with manual backprop. Heads:
  'linear'  raw outputs (used for representation trunks)
  'support' softmax over value-support bins, cross-entropy loss
  'policy'  softmax over actions, cross-entropy to a soft target
"""

from __future__ import annotations

import math

import numpy as np

ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8

HEAD_KINDS = ("linear", "support", "policy")


class TrainingDivergedError(RuntimeError):
    """A non-finite value appeared in parameters or loss."""


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed in place in ``logits``,
    which callers pass as a temporary they do not read again."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def infer(weights, biases, x, head_kind) -> np.ndarray:
    """Inference pass, keeping no training caches, of one network or of a
    stack of same-shape networks.

    One network: ``weights[i]`` is ``(d_in, d_out)`` and ``x`` is
    ``(rows, d_in)``. A stack of M networks (``approx.ModelStack``):
    ``weights[i]`` is ``(M, 1, d_in, d_out)``, ``biases[i]`` is
    ``(M, 1, 1, d_out)`` and ``x`` is ``(M, k, 1, d_in)``; each
    (network, row) slice gets the same matmul, adds and softmax as that
    network alone on that one row, so its outputs are the same bits.
    Each layer's bias add, ReLU and softmax run in place in the fresh
    product, so the pass holds one activation array per layer.
    """
    h = x
    last = len(weights) - 1
    for li, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w
        h += b
        if li < last:
            np.maximum(h, 0.0, out=h)
    return h if head_kind == "linear" else _softmax(h)


class MlpModel:
    """ReLU MLP; the final affine layer has no activation of its own
    (softmax heads apply softmax on top of the final logits)."""

    def __init__(self, layer_dims, head_kind="support", dropout_rate=0.0,
                 l2_coeff=0.0, learning_rate=5e-5, seed=0):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        if head_kind not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {head_kind!r}")
        if not (0.0 <= dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        self.layer_dims = list(int(d) for d in layer_dims)
        self.head_kind = head_kind
        self.dropout_rate = float(dropout_rate)
        self.l2_coeff = float(l2_coeff)
        self.learning_rate = float(learning_rate)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.layer_dims, self.layer_dims[1:]):
            bound = math.sqrt(6.0 / fan_in)
            self.weights.append(rng.uniform(-bound, bound,
                                            size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._adam_m = [np.zeros_like(w) for w in self.weights] + \
                       [np.zeros_like(b) for b in self.biases]
        self._adam_v = [np.zeros_like(w) for w in self.weights] + \
                       [np.zeros_like(b) for b in self.biases]
        self._adam_t = 0

    # -- forward -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference outputs (no dropout) for a batch of input rows."""
        x = np.atleast_2d(x)
        self._check_width(x)
        return infer(self.weights, self.biases, x, self.head_kind)

    def _check_width(self, x):
        if x.shape[-1] != self.layer_dims[0]:
            raise ValueError(f"input width {x.shape[-1]} != "
                             f"{self.layer_dims[0]}")

    def _forward_cache(self, x, train_mode, rng):
        """Training forward: final logits plus the activations and
        dropout masks that :meth:`_backward` needs."""
        self._check_width(x)
        acts = [x]
        drop_masks = []
        h = x
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if li < last:
                h = np.maximum(z, 0.0)
                if train_mode and self.dropout_rate > 0.0:
                    if rng is None:
                        raise ValueError("train_mode dropout needs an rng")
                    keep = rng.random(h.shape) >= self.dropout_rate
                    h = h * keep / (1.0 - self.dropout_rate)
                    drop_masks.append(keep)
                else:
                    drop_masks.append(None)
                acts.append(h)
            else:
                h = z
        return h, (acts, drop_masks)

    # -- loss and gradients ------------------------------------------------

    def loss_grads(self, x, targets, train_mode=True, rng=None):
        """Cross-entropy (softmax heads) or MSE (linear head) plus L2.

        Returns (loss, grads, grad_input) where ``grads`` feeds
        :meth:`adam_step` and ``grad_input`` backpropagates further
        (used when this network is the head of a composed model).
        """
        x = np.atleast_2d(x)
        targets = np.atleast_2d(targets)
        logits, cache = self._forward_cache(x, train_mode, rng)
        batch = x.shape[0]
        if self.head_kind == "linear":
            diff = logits - targets
            data_loss = 0.5 * float((diff ** 2).sum()) / batch
            dlogits = diff / batch
        else:
            probs = _softmax(logits)
            eps = 1e-12
            data_loss = -float((targets * np.log(probs + eps)).sum()) / batch
            dlogits = (probs - targets) / batch
        grads, grad_input = self._backward(cache, dlogits)
        loss = data_loss
        if self.l2_coeff > 0.0:
            loss += self.l2_coeff * sum(float((w ** 2).sum())
                                        for w in self.weights)
        return loss, grads, grad_input

    def _backward(self, cache, dlogits):
        acts, drop_masks = cache
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        d = dlogits
        for li in range(len(self.weights) - 1, -1, -1):
            grads_w[li] = acts[li].T @ d
            grads_b[li] = d.sum(axis=0)
            if li > 0:
                d = d @ self.weights[li].T
                # ReLU and dropout gates of the previous hidden layer
                keep = drop_masks[li - 1]
                gate = acts[li] > 0.0
                if keep is not None:
                    d = d * keep / (1.0 - self.dropout_rate)
                d = d * gate
        grad_input = d @ self.weights[0].T
        return grads_w + grads_b, grad_input

    # -- optimization ------------------------------------------------------

    def params(self):
        return self.weights + self.biases

    def adam_step(self, grads):
        """One Adam update; L2 is added to the weight gradients here."""
        self._adam_t += 1
        t = self._adam_t
        params = self.params()
        n_w = len(self.weights)
        for i, (p, g) in enumerate(zip(params, grads)):
            if i < n_w and self.l2_coeff > 0.0:
                g = g + 2.0 * self.l2_coeff * p
            m = self._adam_m[i]
            v = self._adam_v[i]
            m *= ADAM_B1
            m += (1 - ADAM_B1) * g
            v *= ADAM_B2
            v += (1 - ADAM_B2) * g * g
            m_hat = m / (1 - ADAM_B1 ** t)
            v_hat = v / (1 - ADAM_B2 ** t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if not np.isfinite(p).all():
                raise TrainingDivergedError(
                    f"non-finite parameter in tensor {i} after step {t}")

    # -- (de)serialization helpers ----------------------------------------

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params()])

    def set_flat_params(self, flat: np.ndarray):
        off = 0
        for p in self.params():
            p[...] = flat[off:off + p.size].reshape(p.shape)
            off += p.size
        if off != flat.size:
            raise ValueError("flat parameter size mismatch")

