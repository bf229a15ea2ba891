"""Tests for the numpy network stack: codec, MLP gradients, composed
models, tabular values and binary checkpoints."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from _oracles import infer as out_of_place_infer
from hypothesis import strategies as st

from equilearn.approx.checkpoint import (CheckpointMeta, load_checkpoint,
                                         load_model, save_checkpoint,
                                         save_model)
from equilearn.approx.codec import (SupportCodec, scalar_to_support,
                                    support_to_scalar)
from equilearn.approx.mlp import MlpModel, _softmax, infer
from equilearn.approx.models import (ComposedModel, ModelStack, PolicyModel,
                                     QValueModel, ValueModel, encode_joint,
                                     joint_actions, stack_by_shape)
from equilearn.approx.tabular import fit_tabular


# -- support codec ----------------------------------------------------------

def test_codec_frozen_oracle():
    # 3 bins centered at 0, 0.5, 1: v = 0.25 splits evenly between the
    # first two bins.
    codec = SupportCodec(num_bins=3, lo=0.0, hi=1.0)
    np.testing.assert_allclose(scalar_to_support(codec, 0.25),
                               [0.5, 0.5, 0.0])


def test_codec_centers_built_once_and_read_only():
    codec = SupportCodec(num_bins=21, lo=-0.5, hi=2.0)
    centers = codec.centers
    assert codec.centers is centers
    np.testing.assert_array_equal(centers, np.linspace(-0.5, 2.0, 21))
    with pytest.raises(ValueError):
        centers[0] = 1.0
    # equality and hashing still see only the three fields
    twin = SupportCodec(num_bins=21, lo=-0.5, hi=2.0)
    assert twin == codec and hash(twin) == hash(codec) == hash((21, -0.5, 2.0))
    assert SupportCodec(num_bins=20, lo=-0.5, hi=2.0) != codec


def test_codec_clamps_out_of_range():
    codec = SupportCodec(num_bins=5, lo=0.0, hi=1.0)
    np.testing.assert_allclose(scalar_to_support(codec, -3.0),
                               [1, 0, 0, 0, 0])
    np.testing.assert_allclose(scalar_to_support(codec, 7.0),
                               [0, 0, 0, 0, 1])


def test_codec_rejects_bad_support():
    codec = SupportCodec(num_bins=3)
    with pytest.raises(ValueError):
        support_to_scalar(codec, np.array([0.5, 0.1, 0.1]))


@given(v=st.floats(0.0, 1.0), bins=st.integers(2, 40))
def test_codec_roundtrip_exact(v, bins):
    codec = SupportCodec(num_bins=bins, lo=0.0, hi=1.0)
    back = support_to_scalar(codec, scalar_to_support(codec, v))
    assert abs(float(back) - v) <= 1e-9


def test_codec_roundtrip_batched():
    codec = SupportCodec(num_bins=21)
    v = np.linspace(0.0, 1.0, 57)
    back = support_to_scalar(codec, scalar_to_support(codec, v))
    np.testing.assert_allclose(back, v, atol=1e-9)


# -- gradients --------------------------------------------------------------

def _central_difference_check(model, x, targets, coords, step=1e-4):
    """Max relative error of analytic vs central-difference gradients."""
    _, grads, _ = model.loss_grads(x, targets, train_mode=False)
    flat_grads = np.concatenate([g.ravel() for g in grads])
    params = model.params()
    flat = model.get_flat_params()
    worst = 0.0
    for c in coords:
        orig = flat[c]
        flat[c] = orig + step
        model.set_flat_params(flat)
        up, _, _ = model.loss_grads(x, targets, train_mode=False)
        flat[c] = orig - step
        model.set_flat_params(flat)
        down, _, _ = model.loss_grads(x, targets, train_mode=False)
        flat[c] = orig
        model.set_flat_params(flat)
        numeric = (up - down) / (2.0 * step)
        denom = max(abs(numeric), abs(flat_grads[c]), 1e-8)
        worst = max(worst, abs(numeric - flat_grads[c]) / denom)
    return worst


@pytest.mark.parametrize("head_kind,out_dim", [("support", 7),
                                               ("policy", 4),
                                               ("linear", 3)])
def test_mlp_gradient_check(head_kind, out_dim):
    # L2 is applied inside the Adam step, so the data-loss gradients are
    # checked with the coefficient at zero
    rng = np.random.default_rng(0)
    model = MlpModel([6, 12, out_dim], head_kind=head_kind,
                     l2_coeff=0.0, seed=3)
    x = rng.normal(size=(6, 6))
    if head_kind == "linear":
        targets = rng.normal(size=(6, out_dim))
    else:
        raw = rng.random((6, out_dim))
        targets = raw / raw.sum(axis=1, keepdims=True)
    coords = rng.choice(model.get_flat_params().size, size=100, replace=False)
    assert _central_difference_check(model, x, targets, coords) <= 1e-3


@pytest.mark.parametrize("head_kind", ["support", "policy", "linear"])
def test_inference_pass_matches_training_forward(head_kind):
    """The inference loop gives the bits of the training forward with
    dropout off."""
    x = np.random.default_rng(2).normal(size=(7, 5))
    model = MlpModel([5, 9, 9, 4], head_kind=head_kind, dropout_rate=0.5,
                     seed=4)
    logits, _ = model._forward_cache(x, False, None)
    want = logits if head_kind == "linear" else _softmax(logits)
    assert model.forward(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("head_kind", ["support", "policy", "linear"])
def test_inference_pass_matches_out_of_place_pass(head_kind):
    """The in-place pass gives the bits of the frozen out-of-place pass,
    on one network and on a stack ``(M, k, 1, d)``, and leaves its input
    as it was."""
    rng = np.random.default_rng(5)
    for case in range(40):
        dims = rng.integers(1, 12, size=int(rng.integers(2, 5)))
        stacked = case % 2 == 1
        lead = (3, 1) if stacked else ()
        weights = [rng.normal(size=(*lead, d_in, d_out))
                   for d_in, d_out in zip(dims, dims[1:])]
        biases = [rng.normal(size=(*lead, 1, d_out) if stacked else d_out)
                  for d_out in dims[1:]]
        x = rng.normal(size=(3, int(rng.integers(1, 9)), 1, dims[0])
                       if stacked else (int(rng.integers(1, 9)), dims[0]))
        before = x.copy()
        got = infer(weights, biases, x, head_kind)
        assert got.tobytes() == out_of_place_infer(weights, biases, x,
                                                   head_kind).tobytes()
        assert x.tobytes() == before.tobytes()


def test_model_stack_groups_by_shape_and_keeps_bits():
    a = ComposedModel([3, 6, 2], [2, 6, 3], "policy", seed=0)
    b = ComposedModel([3, 6, 2], [2, 6, 5], "policy", seed=2)
    c = ComposedModel([3, 6, 2], [2, 6, 3], "policy", seed=4)
    with pytest.raises(ValueError):
        ModelStack([a, b])
    groups = stack_by_shape([a, b, c])
    assert [ix for ix, _ in groups] == [[0, 2], [1]]
    rng = np.random.default_rng(3)
    for k in (1, 3, 64):
        obs = rng.normal(size=(2, k, 3))
        out = groups[0][1].forward(obs)
        assert out.shape == (2, k, 3)
        for rows, net, model_obs in zip(out, (a, c), obs):
            for row, o in zip(rows, model_obs):
                assert row.tobytes() == net.forward(o).tobytes()


def test_composed_model_gradient_check():
    """End-to-end gradients through head and trunk of a composed model."""
    rng = np.random.default_rng(1)
    model = ComposedModel([4, 6, 3], [3 + 2, 6, 5], "support",
                          extra_dim=2, l2_coeff=1e-4, seed=7)
    obs = rng.normal(size=(5, 4))
    extra = rng.random((5, 2))
    raw = rng.random((5, 5))
    targets = raw / raw.sum(axis=1, keepdims=True)

    def loss_of():
        h_in, _ = model._head_input(obs, extra, False, None)
        loss, _, _ = model.head.loss_grads(h_in, targets, train_mode=False)
        return loss + model.trunk.l2_coeff * sum(
            float((w ** 2).sum()) for w in model.trunk.weights)

    h_in, trunk_cache = model._head_input(obs, extra, False, None)
    _, head_grads, grad_hin = model.head.loss_grads(h_in, targets,
                                                    train_mode=False)
    trunk_grads, _ = model.trunk._backward(trunk_cache, grad_hin[:, :3])
    flat_grads = np.concatenate([g.ravel() for g in trunk_grads])
    flat = model.trunk.get_flat_params()
    step = 1e-4
    coords = rng.choice(flat.size, size=40, replace=False)
    for c in coords:
        orig = flat[c]
        flat[c] = orig + step
        model.trunk.set_flat_params(flat)
        up = loss_of()
        flat[c] = orig - step
        model.trunk.set_flat_params(flat)
        down = loss_of()
        flat[c] = orig
        model.trunk.set_flat_params(flat)
        # trunk L2 is applied in adam_step, so add it to the analytic side
        analytic = flat_grads[c] + 2.0 * model.trunk.l2_coeff * orig
        numeric = (up - down) / (2.0 * step)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom <= 1e-3


def test_training_reduces_loss():
    rng = np.random.default_rng(2)
    model = PolicyModel(obs_size=2, num_actions=3, trunk_hidden=(16,),
                        rep_size=8, head_hidden=(16,), dropout_rate=0.0,
                        l2_coeff=0.0, learning_rate=3e-3, seed=0)
    x = rng.normal(size=(64, 2))
    logits = np.stack([x[:, 0], x[:, 1], -x[:, 0]], axis=1)
    targets = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    first = model.fit(x, targets, epochs=1, batch_size=16, rng=rng)
    last = model.fit(x, targets, epochs=30, batch_size=16, rng=rng)
    # a margin, not just last < first: a model that does not learn also
    # reads a hair lower after 30 more epochs
    assert last < 0.8 * first


def test_q_value_model_fits_simple_function():
    rng = np.random.default_rng(3)
    codec = SupportCodec(num_bins=11)
    model = QValueModel(obs_size=2, action_counts=(2, 2), codec=codec,
                        trunk_hidden=(16,), rep_size=8, head_hidden=(16,),
                        dropout_rate=0.0, l2_coeff=0.0, learning_rate=3e-3,
                        seed=0)
    obs = rng.random((200, 2))
    joints = [tuple(j) for j in rng.integers(0, 2, size=(200, 2))]
    values = np.array([0.8 if j == (1, 1) else 0.2 for j in joints])
    model.fit(obs, joints, values, epochs=60, batch_size=32, rng=rng)
    pred_hi, pred_lo = model.joint_values(obs[:20], [(1, 1), (0, 0)]).T
    assert pred_hi.mean() > pred_lo.mean() + 0.3


def test_encode_joint():
    np.testing.assert_allclose(encode_joint((1, 0), (2, 3)),
                               [0, 1, 1, 0, 0])


def test_joint_actions_follow_product_order():
    counts = (2, 3, 4)
    assert joint_actions(counts).tolist() == [
        list(j) for j in itertools.product(*(range(a) for a in counts))]


def test_encode_joint_matches_per_player_one_hots():
    counts = (2, 3, 4)
    joints = list(itertools.product(*(range(a) for a in counts)))
    expected = np.zeros((len(joints), sum(counts)))
    for row, joint in enumerate(joints):
        off = 0
        for a, count in zip(joint, counts):
            expected[row, off + a] = 1.0
            off += count
    for rows in (joints, np.array(joints, dtype=np.int64)):
        out = encode_joint(rows, counts)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()


# -- tabular ---------------------------------------------------------------

def test_fit_tabular_averages_duplicates():
    table = fit_tabular([("s", (0, 1), np.array([1.0, 0.0])),
                         ("s", (0, 1), np.array([0.0, 1.0])),
                         ("t", (1, 1), 0.25)])
    assert sorted(table) == [("s", (0, 1)), ("t", (1, 1))]
    np.testing.assert_allclose(table["s", (0, 1)], [0.5, 0.5])
    assert table["t", (1, 1)] == pytest.approx(0.25)


# -- checkpoints -----------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    meta = CheckpointMeta(game="matrix:mp", player=1, timestep=3,
                          model_kind="q", codec=SupportCodec(num_bins=5),
                          trunk_dims=[2, 4, 3], head_dims=[8, 4, 5],
                          action_counts=(2, 3))
    arrays = [np.random.default_rng(0).normal(size=(3, 4)).astype("<f4"),
              np.arange(5, dtype="<f4")]
    p1 = tmp_path / "a.ccef"
    p2 = tmp_path / "b.ccef"
    save_checkpoint(str(p1), meta, arrays)
    loaded_meta, loaded_arrays = load_checkpoint(str(p1))
    save_checkpoint(str(p2), loaded_meta, loaded_arrays)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded_meta.game == "matrix:mp"
    assert loaded_meta.action_counts == (2, 3)
    assert loaded_meta.codec == SupportCodec(num_bins=5)
    for a, b in zip(arrays, loaded_arrays):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_rejects_dense_action_encoding(tmp_path):
    """The byte before the array count names the action encoding; only
    0 (per-player one-hots) is read."""
    path = tmp_path / "q.ccef"
    save_checkpoint(str(path), CheckpointMeta(action_counts=(2, 3)), [])
    raw = bytearray(path.read_bytes())
    assert raw[-5] == 0
    raw[-5] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="action encoding"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.ccef"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


# model class -> the metadata block of its checkpoint below:
# (model_kind, head_kind, codec, action_counts, trunk dims, head dims)
CHECKPOINT_META = {
    QValueModel: ("q", "support", SupportCodec(num_bins=5), (2, 2),
                  [3, 4, 3], [3 + 4, 4, 5]),
    PolicyModel: ("policy", "policy", None, (), [3, 4, 3], [3, 4, 4]),
    ValueModel: ("value", "support", SupportCodec(num_bins=5), (),
                 [3, 4, 3], [3, 4, 5]),
}


@pytest.mark.parametrize("build", [
    lambda: QValueModel(3, (2, 2), SupportCodec(num_bins=5),
                        trunk_hidden=(4,), rep_size=3, head_hidden=(4,),
                        seed=1),
    lambda: PolicyModel(3, 4, trunk_hidden=(4,), rep_size=3,
                        head_hidden=(4,), seed=2),
    lambda: ValueModel(3, SupportCodec(num_bins=5), trunk_hidden=(4,),
                       rep_size=3, head_hidden=(4,), seed=3),
])
def test_model_checkpoint_roundtrip(tmp_path, build):
    model = build()
    path = str(tmp_path / "model.ccef")
    save_model(path, model, game="chain:0", player=0, timestep=2)
    restored, meta = load_model(path)
    assert type(restored) is type(model)
    assert (meta.game, meta.player, meta.timestep) == ("chain:0", 0, 2)
    assert (meta.model_kind, meta.head_kind, meta.codec, meta.action_counts,
            meta.trunk_dims, meta.head_dims) == CHECKPOINT_META[type(model)]
    for a, b in zip(model.net.parameter_arrays(),
                    restored.net.parameter_arrays()):
        # parameters survive at float32 precision
        np.testing.assert_allclose(a.astype("<f4"), b.astype("<f4"))
    # a second save of the restored model is byte-identical
    path2 = str(tmp_path / "model2.ccef")
    save_model(path2, restored, game="chain:0", player=0, timestep=2)
    with open(path, "rb") as f1, open(path2, "rb") as f2:
        assert f1.read() == f2.read()


def test_save_model_refuses_a_non_model(tmp_path):
    with pytest.raises(TypeError, match="cannot checkpoint dict"):
        save_model(str(tmp_path / "x.ccef"), {"net": None})
    assert not os.listdir(tmp_path)


def test_load_model_refuses_an_unknown_model_kind(tmp_path):
    path = str(tmp_path / "x.ccef")
    save_checkpoint(path, CheckpointMeta(model_kind="tabular"), [])
    with pytest.raises(ValueError, match="unknown model kind 'tabular'"):
        load_model(path)


def test_checkpoint_write_is_atomic(tmp_path):
    # nothing but the final file remains in the directory after a save
    meta = CheckpointMeta()
    save_checkpoint(str(tmp_path / "x.ccef"), meta, [np.zeros(3)])
    assert sorted(os.listdir(tmp_path)) == ["x.ccef"]
