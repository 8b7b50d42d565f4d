"""End-to-end tests of the command line, driven in-process via main(argv)."""

import json
import shutil

import pytest

from sfrec.autodiff import load_checkpoint
from sfrec.cli import main
from sfrec.harness import read_results

TINY = [
    "--data-format", "cluster",
    "--variant", "s2f_full",
    "--dim", "8",
    "--lr", "5e-3",
    "--batch-size", "64",
    "--slow-epochs", "1",
    "--fast-epochs", "1",
    "--patience", "0",
    "--seeds", "1",
    "--n-eval-neg", "20",
    "--max-users", "6",
    "--max-positions-per-user", "4",
    "--record-timing", "false",
]


def test_train_writes_results_csv(tmp_path, capsys):
    results = tmp_path / "out.csv"
    assert main(["train", "--results", str(results), *TINY]) == 0
    assert "wrote" in capsys.readouterr().out
    records = read_results(results)
    assert {r.component for r in records} == {"slow", "fast"}


def test_eval_reproduces_training_time_metrics(tmp_path):
    results = tmp_path / "train.csv"
    state = tmp_path / "state"
    assert main(["train", "--results", str(results), "--state-dir", str(state), *TINY]) == 0
    assert (state / "seed0.ckpt").exists()
    assert (state / "seed0.msgs").exists()
    redone = tmp_path / "eval.csv"
    assert main(["eval", "--state-dir", str(state), "--results", str(redone), *TINY]) == 0
    trained = {(r.component, r.metric, r.k): r.value for r in read_results(results)}
    evaled = {(r.component, r.metric, r.k): r.value for r in read_results(redone)}
    assert evaled == trained


def test_eval_prints_a_table_without_results_flag(tmp_path, capsys):
    state = tmp_path / "state"
    main(["train", "--results", str(tmp_path / "r.csv"), "--state-dir", str(state), *TINY])
    capsys.readouterr()
    assert main(["eval", "--state-dir", str(state), *TINY]) == 0
    out = capsys.readouterr().out
    assert "hr@5" in out and "mrr" in out


def test_gradcheck_passes_and_reports_each_graph(capsys):
    assert main(["gradcheck", "--dim", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert all(line.startswith("PASS") for line in out)
    names = {line.split()[1].rstrip(":") for line in out}
    fast = {f"fast-{graph}{wiring}" for graph in ("", "segment-") for wiring in ("plain", "interactive")}
    assert names == {"slow-plain", "slow-interactive", *fast}


def test_inspect_split_emits_machine_readable_stats(capsys):
    assert main(["inspect-split", "--data-format", "cluster"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["users"] == 200
    assert stats["items"] == 100
    assert stats["interactions"] == 200 * 25
    assert stats["fast_phase_len"] == 5 and stats["test_phase_len"] == 5


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("data_format = cluster\nmax_users = 5\n")
    assert main(["inspect-split", "--config", str(cfg), "--max-users", "3"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["subsampled_users"] == 3


def test_dataset_resolves_through_data_dir_env(tmp_path, capsys, monkeypatch):
    rows = []
    for user in range(25):
        for t in range(20):
            rows.append(f"{user}\t{t}\t{t}")
    data = tmp_path / "toy.tsv"
    data.write_text("\n".join(rows) + "\n")
    monkeypatch.setenv("SFREC_DATA_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path / "..")
    assert main(["inspect-split", "--data-format", "tsv", "--dataset", "toy.tsv"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["users"] == 25


@pytest.mark.parametrize("command", ["inspect-split", "train"])
def test_a_split_no_user_survives_is_a_lifecycle_error(tmp_path, capsys, command):
    data = tmp_path / "tiny.tsv"
    data.write_text("1\t1\t1\n1\t2\t2\n2\t1\t3\n")  # far shorter than min_seq_len
    extra = ["--results", str(tmp_path / "r.csv")] if command == "train" else []
    assert main([command, "--data-format", "tsv", "--dataset", str(data), *extra]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "LifecycleError", "detail": "no users survived the split; nothing to run"}
    assert not (tmp_path / "r.csv").exists()


def test_errors_are_one_json_line_on_stderr(capsys):
    assert main(["train", "--lr", "-1", "--data-format", "cluster"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert "lr" in payload["detail"]


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag", "1"])
    assert exc.value.code != 0


def test_missing_state_dir_is_reported(tmp_path, capsys):
    assert main(["eval", "--state-dir", str(tmp_path / "absent"), *TINY]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "FileNotFoundError"


def _rekey(text):
    return json.dumps({f"user{u}": log for u, log in json.loads(text).items()})


def _scalar_step(text):
    return json.dumps({u: [7, *log] for u, log in json.loads(text).items()})


def _top_level_list(text):
    return json.dumps(list(json.loads(text).values()))


@pytest.fixture(scope="module")
def trained_state(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    assert main(["train", "--results", str(root / "r.csv"), "--state-dir", str(root / "state"), *TINY]) == 0
    return root / "state"


@pytest.mark.parametrize(
    "corrupt",
    [lambda text: text[:-5], _rekey, _scalar_step, _top_level_list],
    ids=["truncated", "non-integer-user", "step-not-a-list", "top-level-not-an-object"],
)
def test_eval_names_a_malformed_exposures_file(trained_state, tmp_path, capsys, corrupt):
    state = tmp_path / "state"
    shutil.copytree(trained_state, state)
    expo = state / "seed0_exposures.json"
    expo.write_text(corrupt(expo.read_text()))
    capsys.readouterr()
    assert main(["eval", "--state-dir", str(state), *TINY]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "LifecycleError"
    assert str(expo) in payload["detail"]


@pytest.mark.parametrize("stray", [-1, "vocab", 10**30], ids=["negative", "vocab-size", "huge"])
def test_eval_names_an_exposed_item_outside_the_vocabulary(trained_state, tmp_path, capsys, stray):
    state = tmp_path / "state"
    shutil.copytree(trained_state, state)
    expo = state / "seed0_exposures.json"
    streams = json.loads(expo.read_text())
    user = next(iter(streams))
    if stray == "vocab":
        stray = load_checkpoint(state / "seed0.ckpt")["slow/emb"].shape[0]
    streams[user].append([stray])
    expo.write_text(json.dumps(streams))
    capsys.readouterr()
    assert main(["eval", "--state-dir", str(state), *TINY]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "LifecycleError"
    assert f"user {user}'s exposures hold item {stray}," in payload["detail"]


@pytest.mark.parametrize(
    "twin",
    [str, lambda user: "0" + user, lambda user: "".join(chr(ord("\uff10") + int(d)) for d in user)],
    ids=["repeated-key", "leading-zero", "full-width-digits"],
)
def test_eval_refuses_two_exposure_streams_for_one_user(trained_state, tmp_path, capsys, twin):
    state = tmp_path / "state"
    shutil.copytree(trained_state, state)
    expo = state / "seed0_exposures.json"
    streams = json.loads(expo.read_text())
    user, other = list(streams)[:2]
    # a valid stream of another user, under a second key that names ``user``
    expo.write_text(expo.read_text()[:-1] + f", {json.dumps(twin(user))}: {json.dumps(streams[other])}}}")
    capsys.readouterr()
    assert main(["eval", "--state-dir", str(state), *TINY]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "LifecycleError"
    assert f"{expo}: user {user} has two exposure streams" in payload["detail"]


def test_eval_names_a_user_the_exposures_file_lacks(trained_state, tmp_path, capsys):
    state = tmp_path / "state"
    shutil.copytree(trained_state, state)
    expo = state / "seed0_exposures.json"
    streams = json.loads(expo.read_text())
    dropped = next(iter(streams))
    del streams[dropped]
    expo.write_text(json.dumps(streams))
    capsys.readouterr()
    assert main(["eval", "--state-dir", str(state), *TINY]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "LifecycleError"
    assert f"user {dropped}" in payload["detail"]
