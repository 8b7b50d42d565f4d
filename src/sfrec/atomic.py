"""Atomic file replacement for the files sfrec writes: results, checkpoints,
message logs and exposure streams.

The bytes go to a fresh temporary file in the target's directory, which then
replaces the target with ``os.replace``.  A reader sees the old file or the
whole new one, never a part, and a write that fails leaves the old file as it
was and no temporary file behind.  The replace is atomic against failures of
the writing process; there is no ``fsync``, so it does not promise
durability across a power loss.
"""

from __future__ import annotations

import os

__all__ = ["write_atomic"]


def write_atomic(path, data):
    """Replace ``path`` with ``data`` (bytes) in one step."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
