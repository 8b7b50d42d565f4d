"""The wire protocol between cloud and device, byte by byte.

Messages carry named float32 tensors behind a fixed 20-byte header
(magic, version, kind, user, round, payload count).  This script encodes a
message, dissects the header, shows the error taxonomy on corrupted bytes,
then simulates the upload scheduler's cadence and the stale-round guard.

Run:  python3 demos/03_exchange_protocol.py
"""

import os
import struct
import tempfile

import numpy as np

from sfrec.exchange import (
    BadMagic,
    ExchangeMessage,
    MessageKind,
    RoundTracker,
    StaleRoundError,
    Truncated,
    UploadScheduler,
    decode_message,
    encode_message,
    read_message_log,
    write_message_log,
)


def section(title):
    print(f"\n--- {title} ---")


section("encode and dissect")
rng = np.random.default_rng(0)
msg = ExchangeMessage(
    kind=MessageKind.INTEREST_DOWN,
    user=42,
    round=7,
    payload={
        "r_n": rng.normal(size=(1, 8)).astype(np.float32),
        "r_t": rng.normal(size=(1, 8)).astype(np.float32),
    },
)
blob = encode_message(msg)
magic, version, kind, user, round_no, count = struct.unpack_from("<4sBBQIH", blob)
print(f"{len(blob)} bytes; header: magic={magic} v{version} kind={MessageKind(kind).name} "
      f"user={user} round={round_no} payloads={count}")
print("round trip equal:", decode_message(blob) == msg)

section("corruption is named, never silent")
for label, mutant in [
    ("flipped magic", b"XXXX" + blob[4:]),
    ("missing tail", blob[:-3]),
]:
    try:
        decode_message(mutant)
    except (BadMagic, Truncated) as err:
        print(f"{label}: {type(err).__name__}: {err}")

section("the scheduler uploads every N events")
scheduler = UploadScheduler(threshold=4)
uploads = {}  # event -> the round tick returned
for event in range(1, 13):
    if round_no := scheduler.tick(user=1):
        uploads[event] = round_no
print(f"12 events at threshold 4 uploaded after events {list(uploads)}")
print(f"rounds issued to user 1: {list(uploads.values())}")

section("stale rounds bounce")
tracker = RoundTracker()
tracker.accept(user=1, round_no=2)
try:
    tracker.accept(user=1, round_no=2)
except StaleRoundError as err:
    print(f"replayed round 2: {type(err).__name__}: {err}")

section("message logs are length-prefixed files")
path = os.path.join(tempfile.mkdtemp(), "exchange.log")
write_message_log(path, [msg, msg])
back = read_message_log(path)
print(f"wrote 2 messages ({os.path.getsize(path)} bytes), read back {len(back)}, equal: {back == [msg, msg]}")
