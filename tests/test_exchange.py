import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrec import autodiff as ad
from sfrec import exchange as ex
from sfrec.fast import ExposureMemory, FastModel
from sfrec.layers import GruCell
from sfrec.slow import SlowModel


def rng(seed=0):
    return np.random.default_rng(seed)


def f32(r, shape):
    return r.normal(size=shape).astype(np.float32)


def random_message(r):
    kind = ex.MessageKind(int(r.integers(0, 3)))
    d = int(r.integers(1, 7))
    if kind == ex.MessageKind.INTEREST_DOWN:
        payload = {"r_n": f32(r, (1, d)), "r_t": f32(r, (1, d))}
    elif kind == ex.MessageKind.NEGATIVE_MEMORY_UP:
        payload = {"r2_hat": f32(r, (1, d))}
    else:
        payload = {}
        for tag in ex.SCHEMAS[ex.MessageKind.GRU_N_SYNC]:
            shape = (1, d) if tag.startswith("b") else (d, d)
            payload[tag] = f32(r, shape)
    return ex.ExchangeMessage(
        kind=kind,
        user=int(r.integers(0, 2**64, dtype=np.uint64)),
        round=int(r.integers(0, 2**32, dtype=np.uint32)),
        payload=payload,
    )


# ---------------------------------------------------------------------------
# codec


def test_header_is_twenty_bytes():
    assert ex._HEADER.size == 4 + 1 + 1 + 8 + 4 + 2


def test_wire_layout_byte_arithmetic():
    msg = ex.ExchangeMessage(
        kind=ex.MessageKind.INTEREST_DOWN,
        user=7,
        round=3,
        payload={"r_n": np.zeros((1, 32), np.float32), "r_t": np.zeros((1, 32), np.float32)},
    )
    blob = ex.encode_message(msg)
    # per entry: name-len u16 + 3-char name + rank u8 + two u32 dims + 32 floats
    assert len(blob) == 20 + 2 * (2 + 3 + 1 + 8 + 128)
    assert blob[:4] == b"MCSF"
    assert blob[4] == 1
    assert blob[5] == int(ex.MessageKind.INTEREST_DOWN)
    assert int.from_bytes(blob[6:14], "little") == 7
    assert int.from_bytes(blob[14:18], "little") == 3
    assert int.from_bytes(blob[18:20], "little") == 2


def test_round_trip_identity_on_1000_random_messages():
    r = rng(1)
    for _ in range(1000):
        msg = random_message(r)
        assert ex.decode_message(ex.encode_message(msg)) == msg


def test_round_trip_preserves_u64_user_and_u32_round_extremes():
    msg = ex.ExchangeMessage(
        kind=ex.MessageKind.NEGATIVE_MEMORY_UP,
        user=2**64 - 1,
        round=2**32 - 1,
        payload={"r2_hat": np.ones((1, 2), np.float32)},
    )
    back = ex.decode_message(ex.encode_message(msg))
    assert back.user == 2**64 - 1 and back.round == 2**32 - 1


def test_bad_magic():
    blob = bytearray(ex.encode_message(random_message(rng(2))))
    blob[:4] = b"XXXX"
    with pytest.raises(ex.BadMagic):
        ex.decode_message(bytes(blob))


def test_unsupported_version():
    blob = bytearray(ex.encode_message(random_message(rng(3))))
    blob[4] = 9
    with pytest.raises(ex.UnsupportedVersion):
        ex.decode_message(bytes(blob))


def test_truncation_reports_offset():
    blob = ex.encode_message(random_message(rng(4)))
    cut = len(blob) - 5
    with pytest.raises(ex.Truncated) as err:
        ex.decode_message(blob[:cut])
    assert err.value.offset <= cut


def test_truncation_inside_header():
    with pytest.raises(ex.Truncated):
        ex.decode_message(b"MCSF\x01")


def test_trailing_bytes_rejected():
    blob = ex.encode_message(random_message(rng(5)))
    with pytest.raises(ex.SchemaViolation, match="trailing"):
        ex.decode_message(blob + b"\x00")


def test_schema_enforced_on_encode():
    msg = ex.ExchangeMessage(
        kind=ex.MessageKind.INTEREST_DOWN,
        user=0,
        round=0,
        payload={"r_n": np.zeros((1, 2), np.float32)},  # r_t missing
    )
    with pytest.raises(ex.SchemaViolation, match="r_t"):
        ex.encode_message(msg)
    msg.payload["r_t"] = np.zeros((1, 2), np.float32)
    msg.payload["extra"] = np.zeros((1, 2), np.float32)
    with pytest.raises(ex.SchemaViolation, match="extra"):
        ex.encode_message(msg)


def test_schema_enforced_on_decode():
    good = ex.ExchangeMessage(
        kind=ex.MessageKind.NEGATIVE_MEMORY_UP,
        user=1,
        round=1,
        payload={"r2_hat": np.zeros((1, 2), np.float32)},
    )
    blob = bytearray(ex.encode_message(good))
    blob[5] = int(ex.MessageKind.INTEREST_DOWN)  # now the payload set is wrong
    with pytest.raises(ex.SchemaViolation):
        ex.decode_message(bytes(blob))


ROW_CASES = [
    (ex.MessageKind.INTEREST_DOWN, {"r_n": (3, 2), "r_t": (1, 8)}),
    (ex.MessageKind.INTEREST_DOWN, {"r_n": (1, 4), "r_t": (1, 8)}),
    (ex.MessageKind.INTEREST_DOWN, {"r_n": (1, 0), "r_t": (1, 0)}),
    (ex.MessageKind.NEGATIVE_MEMORY_UP, {"r2_hat": (2, 3, 4)}),
    (ex.MessageKind.NEGATIVE_MEMORY_UP, {"r2_hat": (4,)}),
    (ex.MessageKind.NEGATIVE_MEMORY_UP, {"r2_hat": (4, 1)}),
]


def row_error(kind, shapes):
    return re.escape(f"{kind.name} tensors must be (1, d) rows of one width d, got {shapes}")


@pytest.mark.parametrize("kind, shapes", ROW_CASES)
def test_row_kinds_refuse_other_shapes_on_encode(kind, shapes):
    payload = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    with pytest.raises(ex.SchemaViolation, match=row_error(kind, shapes)):
        ex.encode_message(ex.ExchangeMessage(kind, 0, 1, payload))


@pytest.mark.parametrize("kind, shapes", ROW_CASES)
def test_row_kinds_refuse_other_shapes_on_decode(kind, shapes):
    payload = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    blob = ex._HEADER.pack(ex.MAGIC, ex.VERSION, int(kind), 0, 1, len(payload)) + ad.encode_records(b"", payload)
    with pytest.raises(ex.SchemaViolation, match=row_error(kind, shapes)):
        ex.decode_message(blob)


def gru_shapes(**overrides):
    """Gate shapes of a cell with input width 5 and hidden width 3, some replaced."""
    shapes = {tag: {"w": (5, 3), "u": (3, 3), "b": (1, 3)}[tag[0]] for tag in sorted(ex.SCHEMAS[ex.MessageKind.GRU_N_SYNC])}
    return {**shapes, **overrides}


GRU_CASES = [
    gru_shapes(u_z=(3, 4)),  # u not (h, h)
    gru_shapes(b_r=(2, 3)),  # b not one row
    gru_shapes(w_h=(4, 3)),  # two input widths
    gru_shapes(w_r=(5, 2)),  # two hidden widths
    gru_shapes(w_z=(3,)),  # not a matrix
    {tag: (0, 3) if tag[0] == "w" else shape for tag, shape in gru_shapes().items()},  # no input
]


def gru_error(shapes):
    return re.escape(
        f"GRU_N_SYNC tensors must be w_* (in, h), u_* (h, h) and b_* (1, h) of one in and one h, got {shapes}"
    )


@pytest.mark.parametrize("shapes", GRU_CASES)
def test_gru_sync_refuses_misshapen_gates_on_encode(shapes):
    payload = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    with pytest.raises(ex.SchemaViolation, match=gru_error(shapes)):
        ex.encode_message(ex.ExchangeMessage(ex.MessageKind.GRU_N_SYNC, 0, 1, payload))


@pytest.mark.parametrize("shapes", GRU_CASES)
def test_gru_sync_refuses_misshapen_gates_on_decode(shapes):
    payload = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
    kind = int(ex.MessageKind.GRU_N_SYNC)
    blob = ex._HEADER.pack(ex.MAGIC, ex.VERSION, kind, 0, 1, len(payload)) + ad.encode_records(b"", payload)
    with pytest.raises(ex.SchemaViolation, match=gru_error(shapes)):
        ex.decode_message(blob)


def test_gru_sync_with_distinct_input_and_hidden_widths_round_trips():
    payload = {name: f32(rng(7), shape) for name, shape in gru_shapes().items()}
    msg = ex.ExchangeMessage(ex.MessageKind.GRU_N_SYNC, 3, 2, payload)
    assert ex.decode_message(ex.encode_message(msg)) == msg


def test_unknown_kind_byte_rejected():
    blob = bytearray(ex.encode_message(random_message(rng(6))))
    blob[5] = 200
    with pytest.raises(ex.SchemaViolation, match="200"):
        ex.decode_message(bytes(blob))


def test_non_finite_payload_rejected():
    msg = ex.ExchangeMessage(
        kind=ex.MessageKind.NEGATIVE_MEMORY_UP,
        user=0,
        round=0,
        payload={"r2_hat": np.array([[np.nan, 1.0]], np.float32)},
    )
    with pytest.raises(ex.SchemaViolation, match="finite"):
        ex.encode_message(msg)


def _memory_upload_blob(values):
    msg = ex.ExchangeMessage(
        kind=ex.MessageKind.NEGATIVE_MEMORY_UP,
        user=0,
        round=1,
        payload={"r2_hat": np.asarray(values, np.float32)},
    )
    return bytearray(ex.encode_message(msg))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected_on_decode(bad):
    blob = _memory_upload_blob([[0.5, 1.0]])
    blob[-4:] = np.array([bad], "<f4").tobytes()  # last float of the payload
    with pytest.raises(ex.SchemaViolation, match="finite"):
        ex.decode_message(bytes(blob))


def test_non_utf8_payload_name_is_a_wire_error():
    blob = _memory_upload_blob([[0.5, 1.0]])
    start = blob.index(b"r2_hat")
    blob[start : start + 6] = b"\xff" * 6
    with pytest.raises(ex.SchemaViolation, match="UTF-8"):
        ex.decode_message(bytes(blob))


def test_repeated_payload_name_is_a_schema_violation():
    blob = _memory_upload_blob([[0.5, 1.0, -2.0, 3.0]])
    entry = bytes(blob[20:])
    doubled = bytes(blob[:18]) + struct.pack("<H", 2) + entry + entry
    assert (len(blob), len(doubled)) == (53, 86)
    with pytest.raises(ex.SchemaViolation, match="repeated or out of order"):
        ex.decode_message(doubled)


def test_out_of_order_payload_names_are_a_schema_violation():
    msg = ex.ExchangeMessage(
        ex.MessageKind.INTEREST_DOWN, 3, 1, {"r_n": np.ones((1, 4), np.float32), "r_t": np.zeros((1, 4), np.float32)}
    )
    blob = ex.encode_message(msg)
    half = (len(blob) - 20) // 2  # two entries of the same size, r_n then r_t
    swapped = blob[:20] + blob[20 + half :] + blob[20 : 20 + half]
    with pytest.raises(ex.SchemaViolation, match="repeated or out of order"):
        ex.decode_message(swapped)


@pytest.mark.parametrize("field, value", [("user", -1), ("user", 2**64), ("round", -1), ("round", 2**32)])
def test_header_values_outside_their_fields_are_a_schema_violation(field, value):
    msg = ex.ExchangeMessage(ex.MessageKind.NEGATIVE_MEMORY_UP, 0, 0, {"r2_hat": np.zeros((1, 2), np.float32)})
    setattr(msg, field, value)
    with pytest.raises(ex.SchemaViolation, match=field):
        ex.encode_message(msg)


def test_unknown_kind_on_encode_is_a_schema_violation():
    msg = ex.ExchangeMessage(7, 0, 0, {"r2_hat": np.zeros((1, 2), np.float32)})
    with pytest.raises(ex.SchemaViolation, match="kind"):
        ex.encode_message(msg)


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_never_crash_outside_wire_errors(data):
    try:
        ex.decode_message(data)
    except ex.WireError:
        pass


def _memory_export():
    device = FastModel(12, 4, rng(63), interactive=False)
    device.sync_rows(np.arange(12), rng(64).normal(size=(12, 4)))
    return ExposureMemory(4).export(device, [[1, 5, 9]])


PRODUCERS = {
    "export_interest": (
        ex.MessageKind.INTEREST_DOWN,
        lambda: SlowModel(12, 4, rng(60), interactive=True).export_interest([1, 2, 3], rng(61).normal(size=(1, 4))),
    ),
    "memory_export": (ex.MessageKind.NEGATIVE_MEMORY_UP, _memory_export),
    "export_gates": (ex.MessageKind.GRU_N_SYNC, lambda: GruCell(4, 4, rng(62)).export_gates()),
}


@pytest.mark.parametrize("kind, produce", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_each_exchange_producer_returns_its_kinds_wire_payload(kind, produce):
    payload = produce()
    assert set(payload) == ex.SCHEMAS[kind]
    decoded = ex.decode_message(ex.encode_message(ex.ExchangeMessage(kind, 3, 1, payload)))
    assert decoded == ex.ExchangeMessage(kind, 3, 1, {k: np.asarray(v, np.float32) for k, v in payload.items()})


# ---------------------------------------------------------------------------
# scheduler


def test_threshold_one_uploads_every_event():
    s = ex.UploadScheduler(threshold=1)
    assert [s.tick(7) for _ in range(4)] == [1, 2, 3, 4]


def test_threshold_five_counts_up_and_resets():
    s = ex.UploadScheduler(threshold=5)
    assert [s.tick(1) for _ in range(10)] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 2]


def test_seventeen_events_upload_at_5_10_15():
    s = ex.UploadScheduler(threshold=5)
    positions = [i + 1 for i in range(17) if s.tick(3)]
    assert positions == [5, 10, 15]


def test_counters_are_per_user():
    s = ex.UploadScheduler(threshold=2)
    assert s.tick("a") == 0
    assert s.tick("b") == 0
    assert s.tick("a") == 1
    assert s.tick("b") == 1


def test_invalid_threshold_rejected():
    with pytest.raises(ValueError):
        ex.UploadScheduler(threshold=0)


@given(st.integers(1, 7), st.lists(st.integers(0, 3), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_exactly_threshold_minus_one_accumulates_between_uploads(threshold, users):
    s = ex.UploadScheduler(threshold=threshold)
    gaps = {}
    for u in users:
        if s.tick(u):
            assert gaps.get(u, 0) == threshold - 1
            gaps[u] = 0
        else:
            gaps[u] = gaps.get(u, 0) + 1


def test_rounds_strictly_increase_per_user():
    s = ex.UploadScheduler(threshold=1)
    assert [s.tick(4) for _ in range(3)] == [1, 2, 3]
    assert s.tick(9) == 1


def test_round_tracker_rejects_stale_rounds():
    t = ex.RoundTracker()
    t.accept(1, 1)
    t.accept(1, 2)
    t.accept(2, 1)
    with pytest.raises(ex.StaleRoundError):
        t.accept(1, 2)
    with pytest.raises(ex.StaleRoundError):
        t.accept(1, 1)
    t.accept(1, 5)


# ---------------------------------------------------------------------------
# message logs


def test_message_log_round_trip(tmp_path):
    r = rng(7)
    messages = [random_message(r) for _ in range(25)]
    path = tmp_path / "log.bin"
    ex.write_message_log(path, messages)
    assert ex.read_message_log(path) == messages


def test_empty_message_log(tmp_path):
    path = tmp_path / "empty.bin"
    ex.write_message_log(path, [])
    assert ex.read_message_log(path) == []


def test_truncated_message_log(tmp_path):
    path = tmp_path / "cut.bin"
    ex.write_message_log(path, [random_message(rng(8))])
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(ex.Truncated):
        ex.read_message_log(path)


def test_log_record_framing_is_u32_length_prefixed(tmp_path):
    msg = random_message(rng(9))
    path = tmp_path / "one.bin"
    ex.write_message_log(path, [msg])
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 0)
    assert length == len(raw) - 4
    assert ex.decode_message(raw[4:]) == msg
