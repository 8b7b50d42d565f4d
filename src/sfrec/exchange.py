"""Typed slow/fast messages, their binary wire format, and upload cadence.

Wire layout (little-endian throughout):

    magic "MCSF" | version u8 | kind u8 | user u64 | round u32 | count u16

then ``count`` payload tensors as the records of
:func:`sfrec.autodiff.encode_records`, which documents their layout.

Each message kind carries a fixed payload schema: (1, d) rows of one width
d for the interest and negative-memory kinds, and the nine gate tensors of
one GRU cell for the sync; both encode and decode enforce it.  Message logs
on disk are a sequence of u32-length-prefixed encoded messages.

The upload cadence is one count of serving events per user:
``UploadScheduler.tick`` counts an event and returns the round of the
upload it triggers (0: none), and the receiver's ``RoundTracker`` refuses
a round not newer than the user's last.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
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
    "UploadScheduler",
    "StaleRoundError",
    "RoundTracker",
    "write_message_log",
    "read_message_log",
]

MAGIC = b"MCSF"
VERSION = 1
_HEADER = struct.Struct("<4sBBQIH")
_LENGTH = struct.Struct("<I")


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
    try:
        expected = SCHEMAS[MessageKind(kind)]
    except ValueError:
        raise SchemaViolation(f"unknown message kind {kind!r}") from None
    got = set(payload)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise SchemaViolation(
            f"{MessageKind(kind).name} payload mismatch: missing {missing}, unexpected {extra}"
        )
    shapes = {name: np.shape(payload[name]) for name in sorted(payload)}
    if kind == MessageKind.GRU_N_SYNC:  # the nine gate tensors of one (in, h) cell
        n_in, h = shapes["w_z"] if len(shapes["w_z"]) == 2 else (0, 0)
        want = {name: {"w": (n_in, h), "u": (h, h), "b": (1, h)}[name[0]] for name in shapes}
        if n_in < 1 or h < 1 or shapes != want:
            raise SchemaViolation(
                f"{MessageKind(kind).name} tensors must be w_* (in, h), u_* (h, h) and b_* (1, h) "
                f"of one in and one h, got {shapes}"
            )
    elif len(set(shapes.values())) != 1 or any(len(s) != 2 or s[0] != 1 or s[1] < 1 for s in shapes.values()):
        raise SchemaViolation(f"{MessageKind(kind).name} tensors must be (1, d) rows of one width d, got {shapes}")


def _check_header_field(name, value, bits):
    if not isinstance(value, (int, np.integer)) or not 0 <= value < 1 << bits:
        raise SchemaViolation(f"{name} {value!r} does not fit the wire's unsigned {bits}-bit field")


def _wire_error(err):
    """The wire's own error for a record-codec failure."""
    if err.needed is not None:
        return Truncated(err.offset, err.needed)
    return SchemaViolation(str(err))


def encode_message(msg):
    _check_schema(msg.kind, msg.payload)
    _check_header_field("user", msg.user, 64)
    _check_header_field("round", msg.round, 32)
    header = _HEADER.pack(MAGIC, VERSION, int(msg.kind), msg.user, msg.round, len(msg.payload))
    try:
        return ad.encode_records(header, msg.payload)
    except ad.RecordError as err:
        raise _wire_error(err) from None


def decode_message(data):
    reader = ad.RecordReader(data)
    try:
        magic, version, kind, user, round_no, count = reader.unpack(_HEADER)
        if magic != MAGIC:
            raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
        if version != VERSION:
            raise UnsupportedVersion(f"version {version} not supported (only {VERSION})")
        try:
            kind = MessageKind(kind)
        except ValueError:
            raise SchemaViolation(f"unknown message kind {kind}") from None
        payload = ad.decode_records(reader, count)
    except ad.RecordError as err:
        raise _wire_error(err) from None
    _check_schema(kind, payload)
    return ExchangeMessage(kind=kind, user=user, round=round_no, payload=payload)


# ---------------------------------------------------------------------------
# upload cadence


class UploadScheduler:
    """Count-based upload trigger: every ``threshold``-th serving event per user.

    ``tick`` counts one event and returns the round of the upload it
    triggers, or 0 for none, so each user's rounds are 1, 2, ... by
    construction.
    """

    def __init__(self, threshold=5):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.events = {}

    def tick(self, user):
        events = self.events[user] = self.events.get(user, 0) + 1
        round_no, rest = divmod(events, self.threshold)
        return 0 if rest else round_no


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
    parts = []
    for msg in messages:
        blob = encode_message(msg)
        parts += (_LENGTH.pack(len(blob)), blob)
    write_atomic(path, b"".join(parts))


def read_message_log(path):
    with open(path, "rb") as fh:
        reader = ad.RecordReader(fh.read())
    out = []
    try:
        while reader.off < len(reader.data):
            (length,) = reader.unpack(_LENGTH)
            out.append(decode_message(reader.take(length)))
    except ad.RecordError as err:
        raise _wire_error(err) from None
    return out
