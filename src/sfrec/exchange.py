"""Typed slow/fast messages, their binary wire format, and upload cadence.

Wire layout (little-endian throughout):

    magic "MCSF" | version u8 | kind u8 | user u64 | round u32 | count u16
    then per payload entry, sorted by name:
    name-len u16 | name utf-8 | rank u8 | dims u32 each | float32 data

Each message kind carries a fixed payload schema; both encode and decode
enforce it.  Message logs on disk are a sequence of u32-length-prefixed
records in the same format.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .layers import GruCell

__all__ = [
    "MessageKind",
    "ExchangeMessage",
    "WireError",
    "BadMagic",
    "UnsupportedVersion",
    "Truncated",
    "SchemaViolation",
    "encode_message",
    "decode_message",
    "Decision",
    "UploadScheduler",
    "StaleRoundError",
    "RoundTracker",
    "write_message_log",
    "read_message_log",
]

MAGIC = b"MCSF"
VERSION = 1
_HEADER = struct.Struct("<4sBBQIH")


class MessageKind(enum.IntEnum):
    INTEREST_DOWN = 0
    NEGATIVE_MEMORY_UP = 1
    GRU_N_SYNC = 2


SCHEMAS = {
    MessageKind.INTEREST_DOWN: frozenset({"r_n", "r_t"}),
    MessageKind.NEGATIVE_MEMORY_UP: frozenset({"r2_hat"}),
    MessageKind.GRU_N_SYNC: frozenset(GruCell.GATE_NAMES),
}


class WireError(ValueError):
    pass


class BadMagic(WireError):
    pass


class UnsupportedVersion(WireError):
    pass


class Truncated(WireError):
    def __init__(self, offset, needed):
        super().__init__(f"buffer ends at byte {offset}, needed {needed} more")
        self.offset = offset


class SchemaViolation(WireError):
    pass


@dataclass
class ExchangeMessage:
    kind: MessageKind
    user: int
    round: int
    payload: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, ExchangeMessage):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.user == other.user
            and self.round == other.round
            and set(self.payload) == set(other.payload)
            and all(np.array_equal(self.payload[k], other.payload[k]) for k in self.payload)
        )


def _check_schema(kind, payload):
    expected = SCHEMAS[MessageKind(kind)]
    got = set(payload)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise SchemaViolation(
            f"{MessageKind(kind).name} payload mismatch: missing {missing}, unexpected {extra}"
        )


def encode_message(msg):
    _check_schema(msg.kind, msg.payload)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, int(msg.kind), msg.user, msg.round, len(msg.payload)))
    for name in sorted(msg.payload):
        arr = np.asarray(msg.payload[name], dtype="<f4")
        if not np.all(np.isfinite(arr)):
            raise SchemaViolation(f"payload {name!r} contains non-finite values")
        raw_name = name.encode("utf-8")
        out += struct.pack("<H", len(raw_name))
        out += raw_name
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += arr.tobytes()
    return bytes(out)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.data):
            raise Truncated(self.off, self.off + n - len(self.data))
        chunk = self.data[self.off : self.off + n]
        self.off += n
        return chunk

    def unpack(self, st):
        return st.unpack(self.take(st.size))


def decode_message(data):
    r = _Reader(data)
    magic, version, kind, user, round_no, count = r.unpack(_HEADER)
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version} not supported (only {VERSION})")
    try:
        kind = MessageKind(kind)
    except ValueError:
        raise SchemaViolation(f"unknown message kind {kind}") from None
    payload = {}
    for _ in range(count):
        (name_len,) = r.unpack(struct.Struct("<H"))
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise SchemaViolation(f"payload name ending at byte {r.off} is not UTF-8") from None
        (rank,) = r.unpack(struct.Struct("<B"))
        dims = r.unpack(struct.Struct(f"<{rank}I")) if rank else ()
        n = math.prod(dims)
        arr = np.frombuffer(r.take(4 * n), dtype="<f4").reshape(dims)
        if not np.all(np.isfinite(arr)):
            raise SchemaViolation(f"payload {name!r} contains non-finite values")
        payload[name] = arr.copy()
    if r.off != len(data):
        raise SchemaViolation(f"{len(data) - r.off} trailing bytes after message")
    _check_schema(kind, payload)
    return ExchangeMessage(kind=kind, user=user, round=round_no, payload=payload)


# ---------------------------------------------------------------------------
# upload cadence


class Decision(enum.Enum):
    ACCUMULATE = "accumulate"
    UPLOAD_NOW = "upload_now"


class UploadScheduler:
    """Count-based upload trigger: every ``threshold``-th event per user.

    Also hands out the per-user round number stamped on each upload, so
    rounds are strictly increasing by construction.
    """

    def __init__(self, threshold=5):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.counters = {}
        self.rounds = {}

    def tick(self, user):
        count = self.counters.get(user, 0) + 1
        if count >= self.threshold:
            self.counters[user] = 0
            return Decision.UPLOAD_NOW
        self.counters[user] = count
        return Decision.ACCUMULATE

    def next_round(self, user):
        round_no = self.rounds.get(user, 0) + 1
        self.rounds[user] = round_no
        return round_no


class StaleRoundError(ValueError):
    pass


class RoundTracker:
    """Receiver-side guard: rejects any round not newer than the last seen."""

    def __init__(self):
        self.last_seen = {}

    def accept(self, user, round_no):
        last = self.last_seen.get(user, 0)
        if round_no <= last:
            raise StaleRoundError(f"user {user}: round {round_no} <= last seen {last}")
        self.last_seen[user] = round_no


# ---------------------------------------------------------------------------
# message logs


def write_message_log(path, messages):
    """Length-prefixed encoded messages; every message is encoded before the
    file is replaced, so one that fails to encode leaves the old log intact."""
    out = bytearray()
    for msg in messages:
        blob = encode_message(msg)
        out += struct.pack("<I", len(blob))
        out += blob
    write_atomic(path, bytes(out))


def read_message_log(path):
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    out = []
    while r.off < len(data):
        (length,) = r.unpack(struct.Struct("<I"))
        out.append(decode_message(r.take(length)))
    return out
