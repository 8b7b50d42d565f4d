import re

import pytest

from sfrec.config import ConfigError, ExperimentConfig, load_config


def write(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_file_yields_all_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg == ExperimentConfig()
    assert (cfg.dim, cfg.batch_size, cfg.lr, cfg.l2) == (32, 256, 5e-4, 1e-4)
    assert (cfg.mlp_layers, cfg.threshold, cfg.seeds) == (3, 5, 3)


def test_no_file_at_all_is_fine():
    assert load_config() == ExperimentConfig()


def test_file_values_parse_with_comments_and_blanks(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            """
            # experiment knobs
            lr = 0.001
            variant = f2s   # ablation
            eval_ks = 5,10,20
            record_timing = false
            dataset = /data/ratings.dat
            """,
        )
    )
    assert cfg.lr == 0.001
    assert cfg.variant == "f2s"
    assert cfg.eval_ks == [5, 10, 20]
    assert cfg.record_timing is False
    assert cfg.dataset == "/data/ratings.dat"


def test_cli_override_beats_file_value(tmp_path):
    path = write(tmp_path, "threshold = 5\n")
    assert load_config(path, {"threshold": "3"}).threshold == 3
    assert load_config(path, {"threshold": 7}).threshold == 7


@pytest.mark.parametrize(
    "overrides, field",
    [({"dim": 3.5}, "dim"), ({"threshold": True}, "threshold"), ({"eval_ks": [5, "ten"]}, "eval_ks"),
     ({"record_timing": 2}, "record_timing")],
)
def test_override_of_the_wrong_type_is_named(overrides, field):
    with pytest.raises(ConfigError, match=field):
        load_config(None, overrides)


def test_overrides_parse_from_their_text():
    cfg = load_config(None, {"lr": 5e-3, "l2": 1e-4, "dim": 16, "record_timing": False, "variant": "f2s"})
    assert (cfg.lr, cfg.l2, cfg.dim, cfg.record_timing, cfg.variant) == (5e-3, 1e-4, 16, False, "f2s")
    assert load_config(None, {"eval_ks": [5, "10"]}).eval_ks == [5, 10]
    assert load_config(None, {"eval_ks": 5}).eval_ks == [5]


def test_negative_lr_rejected(tmp_path):
    with pytest.raises(ConfigError, match="lr"):
        load_config(write(tmp_path, "lr = -1\n"))


@pytest.mark.parametrize("key, raw", [("lr", "nan"), ("lr", "inf"), ("l2", "nan"), ("l2", "inf")])
def test_a_rate_that_cannot_train_is_named(key, raw):
    with pytest.raises(ConfigError, match=f"{key} must be positive and finite, got {raw}"):
        load_config(None, {key: raw})


def test_a_repeated_eval_k_is_named():
    # each k would write its rows twice, and (component, metric, k, seed) would no longer key the results
    with pytest.raises(ConfigError, match=r"eval_ks .*\[5, 5\]"):
        load_config(None, {"eval_ks": "5,5"})


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(write(tmp_path, "learning_rate = 0.01\n"))
    with pytest.raises(ConfigError, match="nope"):
        load_config(None, {"nope": "1"})


def test_unparsable_value_is_named(tmp_path):
    with pytest.raises(ConfigError, match="dim"):
        load_config(write(tmp_path, "dim = large\n"))
    with pytest.raises(ConfigError, match="record_timing"):
        load_config(write(tmp_path, "record_timing = maybe\n"))


def test_missing_equals_sign_reports_line(tmp_path):
    with pytest.raises(ConfigError, match=":2:"):
        load_config(write(tmp_path, "lr = 0.01\nthreshold 5\n"))


@pytest.mark.parametrize("body", [b"lr = 0.01\n\xff\xfe = 3\n", b"lr = 0.01\n# caf\xe9\n"], ids=["key", "comment"])
def test_non_utf8_line_is_a_config_error_naming_path_and_line(tmp_path, body):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(body)
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:2: not UTF-8"):
        load_config(path)


def test_constraint_violations_are_named():
    with pytest.raises(ConfigError, match="variant"):
        load_config(None, {"variant": "both_ways"})
    with pytest.raises(ConfigError, match="precision"):
        load_config(None, {"precision": "float16"})
    with pytest.raises(ConfigError, match="eval_ks"):
        load_config(None, {"eval_ks": "0,5"})
    with pytest.raises(ConfigError, match="min_seq_len"):
        load_config(None, {"min_seq_len": "10"})
    with pytest.raises(ConfigError, match="threshold"):
        load_config(None, {"threshold": "0"})


def test_mlp_hidden_ladder_tracks_layer_count():
    assert ExperimentConfig(mlp_layers=3).mlp_hidden() == (64, 32)
    assert ExperimentConfig(mlp_layers=1).mlp_hidden() == ()
    assert ExperimentConfig(mlp_layers=4).mlp_hidden() == (64, 32, 16)
