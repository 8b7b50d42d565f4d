"""Atomic state writes: a failed write leaves the previous file byte-identical
and no temporary file behind."""

import os

import numpy as np
import pytest

from sfrec import autodiff as ad
from sfrec import exchange as ex
from sfrec.atomic import write_atomic
from sfrec.cli import write_exposures
from sfrec.harness import RunRecord, write_results


def message(user, value=0.5):
    return ex.ExchangeMessage(
        kind=ex.MessageKind.NEGATIVE_MEMORY_UP,
        user=user,
        round=1,
        payload={"r2_hat": np.full((1, 4), value, dtype=np.float32)},
    )


def record(value):
    return RunRecord("cluster", "f2s", "fast", "hr", 5, value, 0, 0.0)


def assert_unchanged(path, before):
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == [path.name]


def test_write_replaces_content_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "state.bin"
    write_atomic(path, b"old")
    write_atomic(path, b"new contents")
    assert path.read_bytes() == b"new contents"
    assert os.listdir(tmp_path) == ["state.bin"]


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "state.bin"
    write_atomic(path, b"old")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_atomic(path, b"new")
    assert_unchanged(path, b"old")


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "state.bin"
    write_atomic(path, b"old")
    with pytest.raises(TypeError):
        write_atomic(path, 12345)  # not bytes: the temporary file's write fails
    assert_unchanged(path, b"old")


def test_message_log_with_an_unencodable_message_keeps_the_old_log(tmp_path):
    path = tmp_path / "seed0.msgs"
    ex.write_message_log(path, [message(1), message(2), message(3)])
    before = path.read_bytes()
    with pytest.raises(ex.SchemaViolation):
        ex.write_message_log(path, [message(4), message(5, value=np.nan)])
    assert_unchanged(path, before)
    assert [m.user for m in ex.read_message_log(path)] == [1, 2, 3]


def test_checkpoint_with_an_unencodable_name_keeps_the_old_checkpoint(tmp_path):
    path = tmp_path / "seed0.ckpt"
    ad.save_checkpoint(path, {"w": np.ones((2, 2))})
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        ad.save_checkpoint(path, {"w": np.zeros((2, 2)), "bad\ud800": np.zeros(1)})
    assert_unchanged(path, before)


def test_results_with_an_unformattable_value_keep_the_old_file(tmp_path):
    path = tmp_path / "results.csv"
    write_results([record(0.5)], path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_results([record(0.25), record("not a number")], path)
    assert_unchanged(path, before)


def test_exposures_that_are_not_json_keep_the_old_file(tmp_path):
    path = tmp_path / "seed0_exposures.json"
    write_exposures(path, {0: [[1, 2]]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_exposures(path, {0: [[1, 2]], 1: [{3}]})
    assert_unchanged(path, before)
    assert before == b'{"0": [[1, 2]]}'
