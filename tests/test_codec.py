"""The tensor-record codec shared by SFPK checkpoints and MCSF messages.

Both containers write the same record bytes after their own header, and
both decoders turn any damaged input into their own error family: mutated
checkpoints raise ``CheckpointError`` and mutated messages or message logs
raise ``WireError``, never ``struct.error``, ``IndexError`` or a bare
``ValueError``.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sfrec import autodiff as ad
from sfrec import exchange as ex
from sfrec.layers import GruCell


def f32(seed, shape):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


MESSAGES = [
    ex.ExchangeMessage(ex.MessageKind.INTEREST_DOWN, 3, 1, {"r_n": f32(0, (1, 4)), "r_t": f32(1, (1, 4))}),
    ex.ExchangeMessage(ex.MessageKind.NEGATIVE_MEMORY_UP, 2**40, 7, {"r2_hat": f32(2, (1, 4))}),
    ex.ExchangeMessage(
        ex.MessageKind.GRU_N_SYNC,
        5,
        2,
        {name: f32(3 + i, (1, 3) if name.startswith("b") else (3, 3)) for i, name in enumerate(GruCell.GATE_NAMES)},
    ),
]
BLOBS = [ex.encode_message(m) for m in MESSAGES]
ARRAYS = {"slow/emb": f32(10, (4, 3)), "slow/b": f32(11, (1, 3)), "scalar": np.float32(0.25), "vec": f32(12, (5,))}
CHECKPOINT = ad._CKPT_HEADER.pack(b"SFPK", 1, len(ARRAYS)) + ad.encode_records(b"", ARRAYS)
DONORS = BLOBS + [CHECKPOINT]


@st.composite
def mutated(draw, originals):
    """A valid blob after one to four flipped bytes, truncations, splices or deletions."""
    out = bytearray(draw(st.sampled_from(originals)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "truncate", "splice", "delete"]))
        if op == "flip" and out:
            at = draw(st.integers(0, len(out) - 1))
            out[at] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            out = out[: draw(st.integers(0, len(out)))]
        elif op == "splice":
            donor = draw(st.sampled_from(DONORS))
            lo = draw(st.integers(0, len(donor)))
            piece = donor[lo : lo + draw(st.integers(0, 24))]
            at = draw(st.integers(0, len(out)))
            out[at : at + draw(st.integers(0, 8))] = piece
        elif op == "delete" and out:
            at = draw(st.integers(0, len(out) - 1))
            del out[at : at + draw(st.integers(1, 8))]
    return bytes(out)


def assert_valid_arrays(arrays):
    for name, arr in arrays.items():
        assert isinstance(name, str)
        assert arr.dtype == np.float32 and np.isfinite(arr).all()


# ---------------------------------------------------------------------------
# one layout


def test_record_bytes_are_the_documented_layout():
    blob = ad.encode_records(b"HDR", {"b": np.array([[1.5, -2.0]]), "a": np.float32(3.0)})
    want = b"HDR"
    want += struct.pack("<H", 1) + b"a" + struct.pack("<B", 0) + struct.pack("<f", 3.0)  # rank 0: no dims
    want += struct.pack("<H", 1) + b"b" + struct.pack("<BII", 2, 1, 2) + struct.pack("<2f", 1.5, -2.0)
    assert blob == want


def test_checkpoints_and_messages_carry_the_same_record_bytes(tmp_path):
    for msg, blob in zip(MESSAGES, BLOBS):
        path = tmp_path / "payload.sfpk"
        ad.save_checkpoint(path, msg.payload)
        assert path.read_bytes()[ad._CKPT_HEADER.size :] == blob[ex._HEADER.size :]


def test_reader_reports_where_a_short_read_started_and_what_it_lacked():
    reader = ad.RecordReader(b"abc")
    assert bytes(reader.take(2)) == b"ab"
    with pytest.raises(ad.RecordError) as err:
        reader.unpack(struct.Struct("<I"))
    assert (err.value.offset, err.value.needed) == (2, 3)
    assert reader.off == 2


# ---------------------------------------------------------------------------
# non-finite values are refused on write and on read, in both containers


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_saving_a_non_finite_array_keeps_the_previous_checkpoint(tmp_path, bad):
    path = tmp_path / "seed0.ckpt"
    ad.save_checkpoint(path, {"w": np.ones((1, 2))})
    before = path.read_bytes()
    with pytest.raises(ad.CheckpointError, match="'w' contains non-finite values"):
        ad.save_checkpoint(path, {"w": np.array([[1.0, bad]])})
    assert path.read_bytes() == before


def test_a_float64_value_beyond_float32_range_is_refused(tmp_path):
    with pytest.raises(ad.CheckpointError, match="non-finite"), np.errstate(over="ignore"):
        ad.save_checkpoint(tmp_path / "big.ckpt", {"w": np.array([[1e39]])})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loading_a_non_finite_checkpoint_is_a_checkpoint_error(tmp_path, bad):
    path = tmp_path / "seed0.ckpt"
    ad.save_checkpoint(path, {"w": np.ones((1, 2))})
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([bad], "<f4").tobytes()  # the last float of the payload
    path.write_bytes(bytes(raw))
    with pytest.raises(ad.CheckpointError, match="non-finite"):
        ad.load_checkpoint(path)


# ---------------------------------------------------------------------------
# shapes no numpy array can have


def records_with_dims(dims):
    """One record named 'w' with the given dims and an empty payload."""
    return struct.pack("<H", 1) + b"w" + struct.pack(f"<B{len(dims)}I", len(dims), *dims)


@pytest.mark.parametrize("dims", [(0,) * 65, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)], ids=["rank-65", "oversized"])
def test_impossible_shapes_are_errors_of_each_container(tmp_path, dims):
    path = tmp_path / "dims.sfpk"
    path.write_bytes(ad._CKPT_HEADER.pack(b"SFPK", 1, 1) + records_with_dims(dims))
    with pytest.raises(ad.CheckpointError, match="no array can have"):
        ad.load_checkpoint(path)
    header = ex._HEADER.pack(b"MCSF", 1, int(ex.MessageKind.NEGATIVE_MEMORY_UP), 0, 1, 1)
    with pytest.raises(ex.SchemaViolation, match="no array can have"):
        ex.decode_message(header + records_with_dims(dims))


# ---------------------------------------------------------------------------
# mutation fuzzing


@given(mutated(BLOBS))
@settings(max_examples=400, deadline=None)
def test_mutated_messages_decode_or_raise_wire_errors(blob):
    try:
        msg = ex.decode_message(blob)
    except ex.WireError:
        return
    assert_valid_arrays(msg.payload)
    assert ex.encode_message(msg) == blob  # the layout is canonical


@given(mutated([CHECKPOINT]))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_checkpoints_load_or_raise_checkpoint_errors(tmp_path, raw):
    path = tmp_path / "fuzz.sfpk"
    path.write_bytes(raw)
    try:
        arrays = ad.load_checkpoint(path)
    except ad.CheckpointError:
        return
    assert_valid_arrays(arrays)
    again = tmp_path / "again.sfpk"
    ad.save_checkpoint(again, arrays)
    assert again.read_bytes() == raw  # the layout is canonical


@given(mutated([b"".join(struct.pack("<I", len(b)) + b for b in BLOBS)]))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_message_logs_read_or_raise_wire_errors(tmp_path, raw):
    path = tmp_path / "fuzz.msgs"
    path.write_bytes(raw)
    try:
        messages = ex.read_message_log(path)
    except ex.WireError:
        return
    for msg in messages:
        assert_valid_arrays(msg.payload)
