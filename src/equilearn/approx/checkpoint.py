"""Binary checkpoint format for trained models.

Layout: magic ``CCEF``, format version (u16 LE), a metadata block
(game id, player index, timestep, model/head kind, support codec,
layer dims, action-encoding byte), then each parameter array as raw
little-endian 32-bit floats. The action-encoding byte is always 0
(per-player one-hots); a file with any other value is rejected. Saving
is atomic (temp file + rename) and a save -> load -> save roundtrip is
byte-exact.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from ..harness import write_atomic
from .codec import SupportCodec
from .models import PolicyModel, QValueModel, ValueModel

MAGIC = b"CCEF"
VERSION = 1


@dataclass
class CheckpointMeta:
    game: str = ""
    player: int = -1
    timestep: int = -1
    model_kind: str = "q"       # 'q', 'policy' or 'value'
    head_kind: str = "support"
    codec: SupportCodec | None = None
    trunk_dims: list = field(default_factory=list)
    head_dims: list = field(default_factory=list)
    action_counts: tuple = ()


def _w_str(fh, s: str):
    raw = s.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)


def _r_str(fh) -> str:
    (n,) = struct.unpack("<H", fh.read(2))
    return fh.read(n).decode("utf-8")


def _w_ints(fh, xs):
    fh.write(struct.pack("<H", len(xs)))
    for x in xs:
        fh.write(struct.pack("<i", int(x)))


def _r_ints(fh):
    (n,) = struct.unpack("<H", fh.read(2))
    return [struct.unpack("<i", fh.read(4))[0] for _ in range(n)]


def save_checkpoint(path: str, meta: CheckpointMeta, arrays):
    """Write atomically: temp file in the target directory, then rename."""
    fh = io.BytesIO()
    fh.write(MAGIC)
    fh.write(struct.pack("<H", VERSION))
    _w_str(fh, meta.game)
    fh.write(struct.pack("<i", meta.player))
    fh.write(struct.pack("<i", meta.timestep))
    _w_str(fh, meta.model_kind)
    _w_str(fh, meta.head_kind)
    if meta.codec is not None:
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<i", meta.codec.num_bins))
        fh.write(struct.pack("<d", meta.codec.lo))
        fh.write(struct.pack("<d", meta.codec.hi))
    else:
        fh.write(struct.pack("<B", 0))
    _w_ints(fh, meta.trunk_dims)
    _w_ints(fh, meta.head_dims)
    _w_ints(fh, meta.action_counts)
    fh.write(struct.pack("<B", 0))   # per-player one-hot actions
    fh.write(struct.pack("<I", len(arrays)))
    for arr in arrays:
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        fh.write(struct.pack("<B", arr32.ndim))
        for d in arr32.shape:
            fh.write(struct.pack("<i", d))
        fh.write(arr32.tobytes())
    write_atomic(path, fh.getvalue())


def load_checkpoint(path: str):
    """Returns (CheckpointMeta, list of float32 arrays)."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a CCEF checkpoint")
        (version,) = struct.unpack("<H", fh.read(2))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        meta = CheckpointMeta()
        meta.game = _r_str(fh)
        (meta.player,) = struct.unpack("<i", fh.read(4))
        (meta.timestep,) = struct.unpack("<i", fh.read(4))
        meta.model_kind = _r_str(fh)
        meta.head_kind = _r_str(fh)
        (has_codec,) = struct.unpack("<B", fh.read(1))
        if has_codec:
            (bins,) = struct.unpack("<i", fh.read(4))
            (lo,) = struct.unpack("<d", fh.read(8))
            (hi,) = struct.unpack("<d", fh.read(8))
            meta.codec = SupportCodec(num_bins=bins, lo=lo, hi=hi)
        meta.trunk_dims = _r_ints(fh)
        meta.head_dims = _r_ints(fh)
        meta.action_counts = tuple(_r_ints(fh))
        (encoding,) = struct.unpack("<B", fh.read(1))
        if encoding != 0:
            raise ValueError(f"{path}: unsupported action encoding "
                             f"{encoding}")
        (n_arrays,) = struct.unpack("<I", fh.read(4))
        arrays = []
        for _ in range(n_arrays):
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = tuple(struct.unpack("<i", fh.read(4))[0]
                          for _ in range(ndim))
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(4 * count), dtype="<f4")
            arrays.append(data.reshape(shape).copy())
        return meta, arrays


# model kind -> (class, its constructor's arguments after the observation
# size, read off a checkpoint's metadata)
MODEL_KINDS = {
    "q": (QValueModel, lambda meta: (meta.action_counts, meta.codec)),
    "policy": (PolicyModel, lambda meta: (meta.head_dims[-1],)),
    "value": (ValueModel, lambda meta: (meta.codec,)),
}


def save_model(path: str, model, game: str = "", player: int = -1,
               timestep: int = -1):
    """Persist a model of one of the :data:`MODEL_KINDS`; the metadata
    block is read off the model."""
    kind = next((k for k, (cls, _) in MODEL_KINDS.items()
                 if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    net = model.net
    meta = CheckpointMeta(game=game, player=player, timestep=timestep,
                          model_kind=kind, head_kind=net.head_kind,
                          codec=getattr(model, "codec", None),
                          trunk_dims=net.trunk.layer_dims,
                          head_dims=net.head.layer_dims,
                          action_counts=getattr(model, "action_counts", ()))
    save_checkpoint(path, meta, net.parameter_arrays())


def load_model(path: str):
    """Rebuild the model object saved by :func:`save_model`."""
    meta, arrays = load_checkpoint(path)
    if meta.model_kind not in MODEL_KINDS:
        raise ValueError(f"{path}: unknown model kind {meta.model_kind!r}")
    cls, args = MODEL_KINDS[meta.model_kind]
    model = cls(meta.trunk_dims[0], *args(meta),
                trunk_hidden=meta.trunk_dims[1:-1],
                rep_size=meta.trunk_dims[-1],
                head_hidden=meta.head_dims[1:-1])
    params = model.net.parameter_arrays()
    if [p.shape for p in params] != [a.shape for a in arrays]:
        raise ValueError(f"{path}: parameter shapes do not match the "
                         f"metadata's dims")
    for p, a in zip(params, arrays):
        p[...] = a.astype(np.float64)
    return model, meta
