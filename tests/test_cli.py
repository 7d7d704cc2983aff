import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import use_mini_sizes
from sentigan import arima, cli, config
from sentigan.config import RunConfig, load_config
from sentigan.data import CLOSE_COLUMN, load_aligned, make_windows
from sentigan.errors import DataError, UsageError
from sentigan.eval import SPLITS, ForecastReport, MetricSet
from sentigan.gan import GanSchedule
from sentigan.lstm import LstmModel, TrainSchedule

FLEET = Path(__file__).parent / "fixtures" / "fleet"
LEXICON = Path(__file__).parent / "fixtures" / "sample_lexicon.txt"


def write_ohlcv(path, closes):
    from datetime import date, timedelta

    lines = ["date,open,high,low,close,adj_close,volume"]
    for day, c in enumerate(closes):
        d = date(2021, 1, 4) + timedelta(days=day)
        lines.append(
            f"{d.isoformat()},{c:.4f},{c * 1.01:.4f},{c * 0.99:.4f},"
            f"{c:.4f},{c:.4f},1000000"
        )
    path.write_text("\n".join(lines) + "\n")


def src_env():
    """The environment of a child Python that imports this checkout's sentigan."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def mini_config(tmp_path, n=120):
    """Two-asset config small enough for fast end-to-end CLI tests, which
    run it under the `mini_sizes` fixture."""
    rng = np.random.default_rng(0)
    write_ohlcv(tmp_path / "AAA.csv", 50 + np.cumsum(rng.normal(0.05, 0.5, n)))
    write_ohlcv(tmp_path / "BBB.csv", 80 + np.cumsum(rng.normal(0.0, 0.8, n)))
    (tmp_path / "AAA_tweets.csv").write_text(
        "timestamp,text\n"
        "2021-01-04T09:00:00,Great quarter with strong gains\n"
        "2021-01-04T15:00:00,Terrible risky outlook\n"
        "2021-01-05T10:00:00,Solid momentum and profits\n"
    )
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 3\n"
        "window_length: 10\n"
        f"lexicon: {LEXICON}\n"
        "output_dir: out\n"
        "assets:\n"
        f"  - {{symbol: AAA, ohlcv: AAA.csv, tweets: AAA_tweets.csv}}\n"
        f"  - {{symbol: BBB, ohlcv: BBB.csv}}\n"
        "lstm:\n"
        "  max_epochs: 3\n"
        "gan:\n"
        "  epochs: 3\n"
        "  gen_hidden: [8]\n"
        "  disc_hidden: [8]\n"
    )
    return config


@pytest.fixture()
def pipeline(tmp_path, monkeypatch, mini_sizes):
    monkeypatch.chdir(tmp_path)
    return mini_config(tmp_path)


# ---------------------------------------------------------------- config


def test_load_fleet_config_defaults():
    cfg = load_config(FLEET / "config.yaml")
    assert len(cfg.assets) == 7
    assert cfg.seed == 7
    assert cfg.window_length == 20
    assert cfg.lstm.max_epochs == 60  # file override on top of defaults
    assert cfg.gan.batch_size == 5


def test_config_requires_seed(tmp_path, mini_sizes):
    config = mini_config(tmp_path)
    text = config.read_text().replace("seed: 3\n", "")
    config.write_text(text)
    with pytest.raises(UsageError):
        load_config(config)
    assert load_config(config, seed_override=9).seed == 9


def test_config_rejects_unknown_hyperparameter(tmp_path, mini_sizes):
    config = mini_config(tmp_path)
    config.write_text(config.read_text() + "  dropout: 0.5\n")
    with pytest.raises(UsageError):
        load_config(config)


@pytest.mark.parametrize("section, key, value", [
    (None, "window_length", "abc"),
    (None, "seed", "x"),
    (None, "seed", -1),
    (None, "seed", 2 ** 31),
    (None, "assets", 5),
    (None, "assets", []),
    ("assets", "symbol", "BBB"),
    (None, "gan", 5),
    (None, "output_dir", 5),
    (None, "output_dir", None),
    ("assets", "ohlcv", None),
    ("assets", "ohlcv", "AAA\0.csv"),
    ("gan", "batch_size", "5"),
    ("gan", "epochs", 1.5),
    ("gan", "gen_hidden", 5),
    ("gan", "gen_hidden", [0]),
    ("gan", "batch_size", 0),
    ("lstm", "max_epochs", True),
    ("lstm", "max_epochs", -1),
    pytest.param("gan", "epochs", 10 ** 400, id="'gan'-'epochs'-10**400"),
], ids=lambda v: repr(v))
def test_malformed_config_value_is_data_error_naming_file_and_key(
        pipeline, capsys, section, key, value):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    raw = yaml.safe_load(pipeline.read_text())
    node = raw if section is None else raw.setdefault(section, {})
    (node[0] if section == "assets" else node)[key] = value
    pipeline.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(pipeline) in err
    assert (key if section is None else f"{section}.{key}") in err


@pytest.mark.parametrize("depth", [100, 5000])
def test_deeply_nested_config_value_is_data_error_naming_file(pipeline, capsys, depth):
    # 100 nested lists parse and fail the seed's rule; 5,000 exceed the
    # parser's recursion limit
    pipeline.write_text(pipeline.read_text().replace(
        "seed: 3", "seed: " + "[" * depth + "]" * depth))
    assert cli.main(["train", "--config", str(pipeline)]) == cli.EXIT_DATA
    assert str(pipeline) in capsys.readouterr().err


@pytest.mark.parametrize("section, keys", [
    ("lstm", {1: 2, "dropout": 0.5}),  # keys of two types, which do not sort
    (None, {"windw_length": 5}),  # a typo, which would run with the default of 20
    (None, {"workers": 4}),  # retired: assets are always processed one after another
    (None, {"split_policies": {"lstm": "fraction_70_30"}}),  # retired: each model's is fixed
    # retired: the LSTM always validates on 15% and halves its rate on a plateau
    ("lstm", {"validation_fraction": 0.2}),
    ("lstm", {"plateau_factor": 0.3}),
    # retired: the LSTM trains at Adam's default rate, the GAN at DCGAN's
    ("lstm", {"learning_rate": 0.002}),
    ("gan", {"learning_rate": 0.0001}),
    # a typo of `tweets`, which would set the asset's sentiment to zero
    ("assets", {"tweet": "AAA_tweets.csv"}),
], ids=["lstm", "top_level", "retired_workers", "retired_split_policies",
        "retired_validation_fraction", "retired_plateau_factor",
        "retired_lstm_learning_rate", "retired_gan_learning_rate", "asset_entry"])
def test_unknown_key_is_usage_error_naming_it(pipeline, capsys, section, keys):
    raw = yaml.safe_load(pipeline.read_text())
    node = raw if section is None else raw.setdefault(section, {})
    (node[0] if section == "assets" else node).update(keys)
    pipeline.write_text(yaml.safe_dump(raw, sort_keys=False))
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(pipeline) in err and all(str(key) in err for key in keys)


def setting_defaults():
    """section -> key -> the default of every setting of a config section."""
    return {
        "lstm": {f.name: f.default for f in fields(TrainSchedule)},
        "gan": {f.name: f.default for f in fields(GanSchedule)},
    }


def test_rule_table_matches_the_settings_and_their_defaults():
    # a setting without a rule would be refused as an unknown key (exit 64),
    # a rule without a setting would fail as a TypeError (exit 70)
    for section, defaults in setting_defaults().items():
        assert set(config._RULES[section]) == set(defaults), section
        for key, default in defaults.items():
            test, _ = config._RULES[section][key]
            assert test(default), (section, key, default)


@pytest.mark.parametrize("section, key", [
    ("lstm", "early_stop_patience"), ("gan", "batch_size")])
def test_config_that_writes_out_a_default_evaluates(pipeline, section, key):
    # a setting written out at its default is the same config, so the
    # artifacts trained without it are current
    raw = yaml.safe_load(pipeline.read_text())
    raw[section].pop(key, None)
    pipeline.write_text(yaml.safe_dump(raw))
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    raw[section][key] = setting_defaults()[section][key]
    pipeline.write_text(yaml.safe_dump(raw))
    assert cli.main(["evaluate", "--config", str(pipeline)]) == 0


@pytest.mark.parametrize("symbol",
                         ["../../escaped", "", ".", "..", "a/b", "a\\b", "a\0b", "a\ud800"])
def test_symbol_that_is_not_a_plain_file_name_is_refused(pipeline, tmp_path, capsys, symbol):
    raw = yaml.safe_load(pipeline.read_text())
    raw["assets"][0]["symbol"] = symbol
    pipeline.write_text(yaml.safe_dump(raw))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(pipeline) in err and "assets.symbol" in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("text", ["0700", "", "yes", "0x1A"],
                         ids=["octal", "empty", "boolean", "hex"])
def test_symbol_that_yaml_does_not_read_as_a_string_is_refused(pipeline, capsys, text):
    # unquoted, these would load as the asset 448, None, True and 26
    pipeline.write_text(pipeline.read_text().replace("symbol: AAA,", f"symbol: {text},"))
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(pipeline) in err and "assets.symbol" in err and "quote it" in err


def test_quoted_numeric_symbol_loads_as_written(pipeline):
    pipeline.write_text(pipeline.read_text().replace("symbol: AAA,", 'symbol: "0700",'))
    assert load_config(pipeline).assets[0].symbol == "0700"


def test_negative_seed_override_is_usage_error(pipeline):
    assert cli.main(["ingest", "--config", str(pipeline), "--seed", "-1"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("seed", [2 ** 31, 2 ** 70])
def test_seed_override_past_the_file_rule_is_usage_error(pipeline, capsys, seed):
    # --seed passes the rule that `seed:` in the file passes
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline), "--seed", str(seed)]) \
        == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    with pytest.raises(UsageError, match="--seed"):
        load_config(pipeline, seed_override=seed)
    assert load_config(pipeline, seed_override=config.INT_MAX).seed == config.INT_MAX


def test_config_missing_data_file_is_data_error(tmp_path, mini_sizes):
    config = mini_config(tmp_path)
    (tmp_path / "BBB.csv").unlink()
    assert cli.main(["ingest", "--config", str(config)]) == cli.EXIT_DATA


@pytest.mark.parametrize("command", ["ingest", "train"])
def test_tweets_without_a_lexicon_are_refused_naming_the_config(pipeline, capsys, command):
    pipeline.write_text(pipeline.read_text().replace(f"lexicon: {LEXICON}\n", ""))
    assert cli.main([command, "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(pipeline) in err and "lexicon" in err


# ---------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["forecast"]) == cli.EXIT_USAGE


def test_missing_config_flag_is_usage_error():
    assert cli.main(["train"]) == cli.EXIT_USAGE


def test_nonexistent_config_is_data_error(tmp_path, capsys):
    path = tmp_path / "nope.yaml"
    assert cli.main(["ingest", "--config", str(path)]) == cli.EXIT_DATA
    assert f"{path}: cannot read" in capsys.readouterr().err


def test_unknown_model_is_usage_error(pipeline):
    assert cli.main(["train", "--config", str(pipeline), "--model", "prophet"]) \
        == cli.EXIT_USAGE


def test_unknown_asset_is_usage_error(pipeline):
    assert cli.main(["ingest", "--config", str(pipeline), "--asset", "ZZZ"]) \
        == cli.EXIT_USAGE


def test_corrupt_csv_exits_2_with_line_number(pipeline, tmp_path, capsys):
    bad = tmp_path / "AAA.csv"
    lines = bad.read_text().splitlines()
    lines[5] = lines[5].replace(",", ";", 1)
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    assert "line" in capsys.readouterr().err


# ---------------------------------------------------------------- ingest


def test_ingest_writes_aligned_and_sentiment(pipeline, tmp_path, capsys):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    out = tmp_path / "out"
    assert (out / "aligned" / "AAA.json").exists()
    assert (out / "aligned" / "BBB.json").exists()
    assert (out / "repair" / "AAA.jsonl").exists()
    # the tweetless asset gets an all-zero sentiment column and a warning
    err = capsys.readouterr().err
    assert "BBB" in err
    bbb = json.loads((out / "aligned" / "BBB.json").read_text())
    assert all(v == 0.0 for v in bbb["sentiment"])
    aaa = json.loads((out / "aligned" / "AAA.json").read_text())
    assert any(v != 0.0 for v in aaa["sentiment"])


def test_missing_tweet_file_is_data_error_naming_it(pipeline, tmp_path, capsys):
    # a named tweet file that is not there (a typo, say) is refused, not read
    # as a day-by-day sentiment of zero, which would drop the model's input
    pipeline.write_text(pipeline.read_text().replace("AAA_tweets.csv", "AAA_tweetz.csv"))
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{tmp_path / 'AAA_tweetz.csv'}: cannot read" in err
    assert not (tmp_path / "out" / "aligned" / "AAA.json").exists()


@pytest.mark.parametrize("where", ["output_dir", "aligned_file"])
def test_unwritable_output_path_is_data_error_naming_it(pipeline, tmp_path, capsys, where):
    # a regular file where the output directory should be, or a directory
    # where an aligned file should go
    if where == "output_dir":
        blocker = tmp_path / "out"
        blocker.write_text("not a directory\n")
        path = blocker / "aligned" / "AAA.json"
    else:
        path = blocker = tmp_path / "out" / "aligned" / "AAA.json"
        blocker.mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path}: cannot write" in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_ingest_aligns_sentiment_on_the_ohlcv_dates_and_counts_late_tweets(
        pipeline, tmp_path, capsys):
    tweets = tmp_path / "AAA_tweets.csv"
    tweets.write_text(tweets.read_text() + "2030-01-01T09:00:00,Great news far too late\n")
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline), "--asset", "AAA"]) == 0
    assert capsys.readouterr().out \
        == "AAA: 120 rows, 0 repairs, 1 tweets dated after the last day\n"
    aligned = json.loads((tmp_path / "out" / "aligned" / "AAA.json").read_text())
    with open(tmp_path / "AAA.csv", newline="") as fh:
        assert aligned["dates"] == [row["date"] for row in csv.DictReader(fh)]
    # the tweets fall on the first two days; every other day is neutral
    assert aligned["sentiment"][0] != 0.0 and aligned["sentiment"][1] != 0.0
    assert all(v == 0.0 for v in aligned["sentiment"][2:])
    sentiment_csv = (tmp_path / "out" / "sentiment" / "AAA.csv").read_text().splitlines()
    assert len(sentiment_csv) == 1 + 120
    assert sum(int(row.split(",")[2]) for row in sentiment_csv[1:]) == 3


@pytest.mark.parametrize("damage", ["empty open column", "no complete price row"])
def test_ohlcv_that_repair_cannot_fill_is_refused_naming_file(pipeline, tmp_path, capsys,
                                                              damage):
    path = tmp_path / "AAA.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        fields[1 if damage == "empty open column" else 1 + i % 5] = ""
        lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {path}: " in err
    assert ("column open is entirely missing" if damage == "empty open column"
            else "no row has every price field") in err
    assert not (tmp_path / "out" / "aligned" / "AAA.json").exists()


def test_ingest_emits_daily_sentiment_csv(pipeline, tmp_path):
    assert cli.main(["ingest", "--config", str(pipeline), "--asset", "AAA"]) == 0
    rows = (tmp_path / "out" / "sentiment" / "AAA.csv").read_text().splitlines()
    assert rows[0] == "date,compound,sample_count"
    assert rows[1].startswith("2021-01-04,")
    assert rows[1].endswith(",2")


# ---------------------------------------------------------------- train/evaluate


def test_full_artifact_grid_and_reports(pipeline, tmp_path):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    assert cli.main(["train", "--config", str(pipeline)]) == 0
    out = tmp_path / "out"
    artifacts = sorted(p.name for p in (out / "models").glob("*.json"))
    assert artifacts == [
        "AAA_arima.json", "AAA_gan.json", "AAA_lstm.json",
        "BBB_arima.json", "BBB_gan.json", "BBB_lstm.json",
    ]
    assert (out / "logs" / "AAA_lstm.csv").read_text().startswith(
        "epoch,train_loss,val_loss,lr"
    )
    assert (out / "logs" / "AAA_gan.csv").read_text().startswith("step,d_loss,g_loss")

    assert cli.main(["evaluate", "--config", str(pipeline)]) == 0
    reports = sorted(p.name for p in (out / "reports").glob("*.json"))
    assert len(reports) == 6
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "model,mean_rmse,median_rmse,wins"
    assert len(agg) == 4


def test_evaluate_output_does_not_depend_on_the_order_of_assets(pipeline, tmp_path, capsys):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    assert cli.main(["train", "--config", str(pipeline)]) == 0

    def evaluate():
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(pipeline)]) == 0
        return capsys.readouterr().out, (tmp_path / "out" / "aggregate.csv").read_bytes()

    first = evaluate()
    # the stamp does not hash the order of assets: the artifacts stay current
    aaa = "  - {symbol: AAA, ohlcv: AAA.csv, tweets: AAA_tweets.csv}\n"
    bbb = "  - {symbol: BBB, ohlcv: BBB.csv}\n"
    text = pipeline.read_text()
    assert aaa + bbb in text
    pipeline.write_text(text.replace(aaa + bbb, bbb + aaa))
    assert evaluate() == first


def test_evaluate_of_one_asset_leaves_the_fleet_table(pipeline, tmp_path, capsys):
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    out = tmp_path / "out"
    table = (out / "aggregate.csv").read_bytes()
    report = out / "reports" / "AAA_gan.json"
    report.unlink()
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(pipeline), "--asset", "AAA"]) == 0
    printed = capsys.readouterr().out
    assert "AAA" in printed and "BBB" not in printed
    assert report.exists()
    assert (out / "aggregate.csv").read_bytes() == table


def test_lockstep_gan_outputs_equal_per_asset_training(pipeline, tmp_path):
    # AAA and BBB share a length and train in one lockstep group; CCC is
    # shorter and trains alone. Each matches training that asset by itself.
    rng = np.random.default_rng(1)
    write_ohlcv(tmp_path / "CCC.csv", 60 + np.cumsum(rng.normal(0.0, 0.6, 100)))
    text = pipeline.read_text().replace(
        "  - {symbol: BBB, ohlcv: BBB.csv}\n",
        "  - {symbol: BBB, ohlcv: BBB.csv}\n  - {symbol: CCC, ohlcv: CCC.csv}\n")
    pipeline.write_text(text)
    solo = tmp_path / "solo.yaml"
    solo.write_text(text.replace("output_dir: out", "output_dir: solo"))
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    assert cli.main(["train", "--config", str(pipeline), "--model", "gan"]) == 0
    assert cli.main(["ingest", "--config", str(solo)]) == 0
    for symbol in ("AAA", "BBB", "CCC"):
        assert cli.main(["train", "--config", str(solo), "--model", "gan",
                         "--asset", symbol]) == 0
    for symbol in ("AAA", "BBB", "CCC"):
        for rel in (f"models/{symbol}_gan.json", f"logs/{symbol}_gan.csv"):
            assert (tmp_path / "out" / rel).read_bytes() == (tmp_path / "solo" / rel).read_bytes()
        log = (tmp_path / "out" / "logs" / f"{symbol}_gan.csv").read_text()
        assert "np." not in log  # Python float reprs, not numpy scalar reprs
    assert (tmp_path / "out" / "models" / "AAA_gan.json").read_bytes() != \
        (tmp_path / "out" / "models" / "BBB_gan.json").read_bytes()


def test_diverging_group_member_is_named(pipeline, capsys, monkeypatch):
    # a non-finite gradient in BBB, the second member of the AAA+BBB group
    from sentigan import gan

    real_backward = gan.backward

    def diverging(layers, caches, grad_out, grads=None):
        grad_in = real_backward(layers, caches, grad_out, grads)
        if grads is not None:
            grads[0][1, 0, 0] = np.nan
        return grad_in

    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    monkeypatch.setattr(gan, "backward", diverging)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(pipeline), "--model", "gan"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "BBB/gan: non-finite gradient" in err and "AAA" not in err


def test_diverging_lstm_is_named_and_writes_no_artifact(pipeline, capsys, monkeypatch):
    # measured on this pipeline: the float32 LSTM trains at a learning rate
    # of 1e16 and its loss overflows at 1e18; a float64 one trained at 1e38
    from sentigan import lstm

    monkeypatch.setattr(lstm, "LEARNING_RATE", 1e30)
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(pipeline), "--model", "lstm"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "AAA/lstm: training diverged (non-finite loss) at epoch 0" in err
    assert not (pipeline.parent / "out" / "models" / "AAA_lstm.json").exists()


def test_overflowing_closes_fail_arima_stationarity_by_name(pipeline, capfd):
    # one bar at 1.7e308: the differences of the differenced closes
    # overflow, and LAPACK's least squares cannot solve them, so d = 1 and
    # d = 2 have a NaN statistic; the closes themselves, scaled onto [0, 1],
    # pass at d = 0, but every cell's residual sum of squares overflows
    csv_path = pipeline.parent / "AAA.csv"
    lines = csv_path.read_text().splitlines()
    day, *_, volume = lines[60].split(",")
    lines[60] = ",".join([day, *["1.7e308"] * 5, volume])
    csv_path.write_text("\n".join(lines) + "\n")
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    capfd.readouterr()
    assert cli.main(["train", "--config", str(pipeline), "--model", "arima"]) == cli.EXIT_INTERNAL
    out, err = capfd.readouterr()
    assert "AAA/arima: order selection failed on the whole (p, q) grid" in err
    assert "LinAlgError" not in err and "DLASCL" not in out


def test_gan_artifact_has_no_discriminator_and_old_ones_still_load(pipeline, tmp_path):
    from sentigan import gan

    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / "models" / "AAA_gan.json"
    payload = json.loads(path.read_text())
    assert set(payload) == {"model", "artifact", "stamp"}
    report = tmp_path / "out" / "reports" / "AAA_gan.json"
    before = report.read_bytes()
    # a `discriminator` key beside the artifact, as files written before it
    # was dropped carried, is ignored
    disc = gan.build_discriminator(np.random.default_rng(0), 10, hidden=(8,))
    payload["discriminator"] = {"window_length": 10, "layers": [
        {"weights": w.tolist(), "bias": b.tolist(), "activation": a}
        for w, b, a in zip(disc.weights, disc.biases, disc.activations)]}
    path.write_text(json.dumps(payload))
    report.unlink()
    assert cli.main(["evaluate", "--config", str(pipeline)]) == 0
    assert report.read_bytes() == before


def test_evaluate_predicts_once_per_asset_and_model(pipeline, monkeypatch):
    from sentigan import gan, lstm

    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    assert cli.main(["train", "--config", str(pipeline)]) == 0
    calls = []
    for module in (lstm, gan):
        def counted(model, windows, module=module, predict=module.predict):
            calls.append((module.__name__, len(windows)))
            return predict(model, windows)

        monkeypatch.setattr(module, "predict", counted)
    assert cli.main(["evaluate", "--config", str(pipeline)]) == 0
    # AAA and BBB: 110 windows each, 30% and 20 of them held out
    assert calls == [("sentigan.lstm", 33), ("sentigan.gan", 20)] * 2


def test_train_rerun_byte_identical(pipeline, tmp_path):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    assert cli.main(["train", "--config", str(pipeline), "--model", "lstm",
                     "--asset", "AAA"]) == 0
    artifact = tmp_path / "out" / "models" / "AAA_lstm.json"
    first = artifact.read_bytes()
    assert cli.main(["train", "--config", str(pipeline), "--model", "lstm",
                     "--asset", "AAA"]) == 0
    assert artifact.read_bytes() == first


def test_asset_too_short_for_the_gan_split_is_refused_naming_it(tmp_path, monkeypatch, capsys,
                                                                 mini_sizes):
    # 25 rows at window length 10 are 15 windows: the LSTM holds out the last
    # 5 of them and trains on 10, fewer than two of the mini pipeline's
    # batches of 16 but enough for batches of 4, and the GAN's 20 held-out
    # windows leave none to train on
    from sentigan import lstm

    monkeypatch.chdir(tmp_path)
    path = mini_config(tmp_path, n=25)
    config = str(path)
    assert cli.main(["ingest", "--config", config, "--asset", "AAA"]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", config, "--model", "lstm",
                     "--asset", "AAA"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "AAA/lstm" in err and "need at least 32 samples, got 10" in err
    assert not (tmp_path / "out" / "models" / "AAA_lstm.json").exists()
    monkeypatch.setattr(lstm, "BATCH_SIZE", 4)
    assert cli.main(["train", "--config", config, "--model", "gan",
                     "--asset", "AAA"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "AAA/gan" in err and "empty partition" in err
    assert not (tmp_path / "out" / "models" / "AAA_gan.json").exists()
    assert cli.main(["train", "--config", config, "--model", "lstm", "--asset", "AAA"]) == 0


def test_every_partition_is_checked_before_any_model_trains(tmp_path, monkeypatch, capsys,
                                                            mini_sizes):
    # BBB's 11 rows are one window at window length 10, which leaves the LSTM
    # no train window; AAA's LSTM comes first in the config but is not trained
    monkeypatch.chdir(tmp_path)
    config = str(mini_config(tmp_path))
    lines = (tmp_path / "BBB.csv").read_text().splitlines(keepends=True)
    (tmp_path / "BBB.csv").write_text("".join(lines[:12]))
    assert cli.main(["ingest", "--config", config]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", config, "--model", "lstm"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "BBB/lstm" in err and "empty partition" in err
    assert not (tmp_path / "out" / "models" / "AAA_lstm.json").exists()


def test_evaluate_missing_artifact_names_cell(pipeline, tmp_path, capsys):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    assert cli.main(["evaluate", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "AAA" in err and "arima" in err


@pytest.mark.parametrize("old, new, flags, model", [
    (None, None, ["--seed", "99"], "lstm"),
    ("  max_epochs: 3\n", "  max_epochs: 1\n", [], "lstm"),
    ("  epochs: 3\n", "  epochs: 1\n", [], "gan"),
    ("window_length: 10\n", "window_length: 8\n", [], "lstm"),
], ids=["seed", "lstm_max_epochs", "gan_epochs", "window_length"])
def test_evaluate_refuses_artifact_of_another_config_before_any_report(
        pipeline, tmp_path, capsys, old, new, flags, model):
    # the first of the asset's artifacts whose training read the changed
    # setting is refused; ARIMA reads no setting
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    reports = sorted((tmp_path / "out" / "reports").glob("*.json"))
    before = [(path.read_bytes(), path.stat().st_mtime_ns) for path in reports]
    if old is not None:
        assert pipeline.read_text().count(old) == 1
        pipeline.write_text(pipeline.read_text().replace(old, new))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(pipeline), *flags]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "not trained on this train partition" in err and "train again" in err
    assert str(tmp_path / "out" / "models" / f"AAA_{model}.json") in err
    assert str(tmp_path / "out" / "aligned" / "AAA.json") in err
    assert [(path.read_bytes(), path.stat().st_mtime_ns) for path in reports] == before


def stale_in_evaluate(pipeline, tmp_path, capsys, model,
                      message="not trained on this train partition"):
    """Evaluate AAA, which must fail: `model`'s artifact is stale, named with
    the aligned file."""
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(pipeline), "--asset", "AAA"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert message in err
    assert str(tmp_path / "out" / "models" / f"AAA_{model}.json") in err
    assert str(tmp_path / "out" / "aligned" / "AAA.json") in err


@pytest.mark.parametrize("model, keys", [
    ("arima", ("features", CLOSE_COLUMN)),
    ("lstm", ("features", 0)),  # the open
    ("gan", ("sentiment",)),
])
def test_stale_artifact_names_artifact_and_aligned_dataset(
        pipeline, tmp_path, capsys, model, keys):
    # the stamp covers the dates, features and sentiment of every row that
    # `model` trained on: a change to the value at `keys` in the last such
    # row makes its artifact stale; the same change to the next row, which
    # it never read, does not. The other two models are trained again after
    # each change, so only `model` can be stale.
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    cfg = load_config(pipeline)
    path = tmp_path / "out" / "aligned" / "AAA.json"
    aligned = load_aligned(path)
    if model == "arima":
        last = SPLITS[model](len(aligned.dates)) - 1
    else:  # the target row of the last train window: window i's is row i + L
        windows = make_windows(aligned, cfg.window_length)
        last = SPLITS[model](len(windows)) - 1 + cfg.window_length

    def change_value_and_train_the_others(row):
        payload = json.loads(path.read_text())
        *inner, leaf = (keys[0], row, *keys[1:])
        node = payload
        for key in inner:
            node = node[key]
        node[leaf] += 1.0
        path.write_text(json.dumps(payload))
        for other in cli.MODEL_NAMES:
            if other != model:
                assert cli.main(["train", "--config", str(pipeline), "--model", other,
                                 "--asset", "AAA"]) == 0

    change_value_and_train_the_others(last + 1)
    assert cli.main(["evaluate", "--config", str(pipeline), "--asset", "AAA"]) == 0
    change_value_and_train_the_others(last)
    stale_in_evaluate(pipeline, tmp_path, capsys, model)


def test_arima_artifact_longer_than_the_train_partition_is_stale(pipeline, tmp_path, capsys):
    # AAA is ingested again from its first 60 days: a train partition of 54
    # rows, shorter than the 108 the artifacts were trained on
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    lines = (tmp_path / "AAA.csv").read_text().splitlines(keepends=True)
    (tmp_path / "AAA.csv").write_text("".join(lines[:61]))
    assert cli.main(["ingest", "--config", str(pipeline), "--asset", "AAA"]) == 0
    stale_in_evaluate(pipeline, tmp_path, capsys, "arima")


def test_arima_artifact_of_a_too_short_train_partition_is_stale(pipeline, tmp_path, capsys):
    # a (100, 1, 10) forecast needs 100 + 1 + 10 values, more than the train
    # partition's 108, so no fit on it wrote this artifact; stamped as if one
    # had, it is refused by ARIMA's history check
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    cfg = load_config(pipeline)
    aligned = load_aligned(tmp_path / "out" / "aligned" / "AAA.json")
    model = arima.ArimaModel(arima.ArimaOrder(100, 1, 10), np.zeros(111))
    (tmp_path / "out" / "models" / "AAA_arima.json").write_text(json.dumps(
        {"model": "arima", "artifact": model.to_dict(),
         "stamp": cli._stamp(cfg, aligned, "arima")}))
    stale_in_evaluate(pipeline, tmp_path, capsys, "arima",
                      "order (100, 1, 10) needs 111 values before its first forecast, got 108")


@pytest.mark.parametrize("model", ["lstm", "gan"], ids=["lstm_null", "gan_null"])
def test_windowed_artifact_without_its_scaler_is_refused_naming_it(
        pipeline, tmp_path, capsys, model):
    # a missing scaler is a corrupt artifact, not a stale one
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / "models" / f"AAA_{model}.json"
    payload = json.loads(path.read_text())
    payload["artifact"]["scaler"] = None
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err
    assert "no fitted scaler" in err
    assert "not trained on this train partition" not in err


@pytest.mark.parametrize("model", ["lstm", "gan"])
def test_non_finite_forecasts_are_refused_before_the_report(pipeline, tmp_path, capsys, model):
    # weights of float32's largest magnitude, the dtype both networks load
    # in, pass the artifact's checks, but the forecasts they make overflow.
    # evaluate runs in this process, where numpy's warnings are errors, and
    # as the command, where they are warnings. One check, on the forecasts,
    # refuses both models alike.
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / "models" / f"AAA_{model}.json"
    payload = json.loads(path.read_text())
    # of both signs, so that sums of overflowed terms are NaN
    largest = float(np.finfo(np.float32).max)
    payload["artifact"]["theta"] = [(-1) ** i * largest
                                    for i in range(len(payload["artifact"]["theta"]))]
    path.write_text(json.dumps(payload))
    report = tmp_path / "out" / "reports" / f"AAA_{model}.json"
    report.unlink()
    capsys.readouterr()
    args = ["evaluate", "--config", str(pipeline), "--asset", "AAA"]
    in_process = cli.main(args), capsys.readouterr().err
    done = subprocess.run([sys.executable, "-m", "sentigan.cli", *args], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    for code, err in (in_process, (done.returncode, done.stderr)):
        assert code == cli.EXIT_DATA, err
        assert f"{model}: forecasts or their squared errors are not finite" in err
        assert str(path) in err
        assert str(tmp_path / "out" / "aligned" / "AAA.json") in err
        assert "RuntimeWarning" not in err
    assert not report.exists()


@pytest.mark.parametrize(("relpath", "damage"), [
    (relpath, damage)
    for relpath in ("aligned/AAA.json", "models/AAA_arima.json")
    for damage in ("drop_key", "truncate", "not_object")
] + [("models/AAA_arima.json", "artifact_not_object"),
     ("models/AAA_arima.json", "huge_intercept"),
     ("models/AAA_gan.json", "nested_wrong_type"),
     ("models/AAA_gan.json", "zero_width_hidden"),
     ("models/AAA_gan.json", "scaler_short"),
     ("models/AAA_lstm.json", "misshapen_gate"),
     ("models/AAA_lstm.json", "wider_hidden"),
     ("models/AAA_lstm.json", "scaler_short")
] + [(f"models/AAA_{model}.json", "parent_format") for model in ("arima", "lstm", "gan")
] + [(relpath, "deep_nesting")
     for relpath in ("models/AAA_lstm.json", "aligned/AAA.json", "reports/AAA_gan.json")])
def test_evaluate_corrupt_json_names_file(pipeline, tmp_path, capsys, relpath, damage):
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / relpath
    text = path.read_text()
    if damage == "truncate":
        path.write_text(text[: len(text) // 2])
    elif damage == "not_object":
        path.write_text("[]")
    elif damage == "artifact_not_object":
        path.write_text(json.dumps({"model": "arima", "artifact": []}))
    elif damage == "huge_intercept":
        payload = json.loads(text)
        payload["artifact"]["params"][0] = 10 ** 400
        path.write_text(json.dumps(payload))
    elif damage == "nested_wrong_type":
        # a (1, P) list would carve as a stack of one network
        payload = json.loads(text)
        payload["artifact"]["theta"] = [payload["artifact"]["theta"]]
        path.write_text(json.dumps(payload))
    elif damage == "zero_width_hidden":
        payload = json.loads(text)
        payload["artifact"]["hidden"] = [0]
        path.write_text(json.dumps(payload))
    elif damage == "misshapen_gate":
        payload = json.loads(text)
        payload["artifact"]["theta"].pop()
        path.write_text(json.dumps(payload))
    elif damage == "wider_hidden":
        payload = json.loads(text)
        payload["artifact"]["hidden_size"] += 1
        path.write_text(json.dumps(payload))
    elif damage == "parent_format":
        # the nested format written before each artifact became one flat
        # vector, under a valid stamp
        payload = json.loads(text)
        payload["artifact"] = nested_format(payload["model"], payload["artifact"])
        path.write_text(json.dumps(payload))
        for report in (tmp_path / "out" / "reports").iterdir():
            report.unlink()
    elif damage == "deep_nesting":
        path.write_text("[" * 200_000 + "]" * 200_000)
    elif damage == "scaler_short":
        payload = json.loads(text)
        for key in ("per_feature_min", "per_feature_max"):
            payload["artifact"]["scaler"][key].pop()
        path.write_text(json.dumps(payload))
    else:
        payload = json.loads(text)
        payload.pop("artifact" if "models" in relpath else "features")
        path.write_text(json.dumps(payload))
    capsys.readouterr()
    command = (["plot", "--asset", "AAA"] if relpath.startswith("reports")
               else ["evaluate"])
    assert cli.main([command[0], "--config", str(pipeline), *command[1:]]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err
    if damage == "parent_format":
        assert not any((tmp_path / "out" / "reports").iterdir())


def nested_format(model, artifact):
    """`artifact` in the nested format of the code before flat vectors: one
    entry per ARIMA coefficient kind, LSTM gate or generator layer."""
    from sentigan import gan, lstm

    if model == "arima":
        (p, _, _), params = artifact["order"], artifact["params"]
        return {"order": artifact["order"], "intercept": params[0],
                "ar_coeffs": params[1 : 1 + p], "ma_coeffs": params[1 + p :]}
    if model == "lstm":
        m = LstmModel.from_dict(artifact)
        w, u, b = (np.split(a, len(lstm.GATES)) for a in (m.w, m.u, m.b))
        return {"hidden_size": m.hidden_size, "input_size": m.input_size,
                "gates": {name: {"w": w[j].tolist(), "u": u[j].tolist(), "b": b[j].tolist()}
                          for j, name in enumerate(lstm.GATES)},
                "head_weights": m.head_weights.tolist(), "head_bias": m.head_bias.tolist(),
                "scaler": artifact["scaler"]}
    g = gan.Generator.from_dict(artifact)
    return {"window_length": g.window_length, "scaler": artifact["scaler"],
            "layers": [{"weights": w.tolist(), "bias": b.tolist(), "activation": a}
                       for w, b, a in zip(g.weights, g.biases, g.activations)]}


@pytest.mark.parametrize(("command", "relpath", "keys", "value"), [
    ("evaluate", "aligned/AAA.json", ("features", -1, 3), float("nan")),
    ("train", "aligned/AAA.json", ("features", -1, 3), float("nan")),
    ("evaluate", "models/AAA_arima.json", ("artifact", "params", 0), float("nan")),
    ("evaluate", "models/AAA_lstm.json", ("artifact", "theta", -1), float("inf")),
    ("evaluate", "models/AAA_gan.json", ("artifact", "theta", 0), float("nan")),
    ("plot", "reports/AAA_gan.json", ("rows", 0, "predicted"), float("nan")),
    ("evaluate", "models/AAA_arima.json", ("artifact", "order", 0), 3),
    ("evaluate", "models/AAA_arima.json", ("artifact", "order", 1), 5),
    ("evaluate", "models/AAA_arima.json", ("artifact", "order", 1), 1.0),
    ("train_gan", "aligned/AAA.json", ("sentiment", 0), True),
    # hidden size 8: theta ends in b (4·8), the head's 8 weights and its bias,
    # so the forget gate's block of b starts 4·8 + 1 from the end
    ("evaluate", "models/AAA_lstm.json", ("artifact", "theta", -(4 * 8 + 1)), False),
    ("plot", "reports/AAA_gan.json", ("rows", 0, "predicted"), True),
    ("plot", "reports/AAA_gan.json", ("rows", 0, "predicted"), "101.5"),
    # finite as read, but past float32's range, the dtype both networks load in
    ("evaluate", "models/AAA_gan.json", ("artifact", "theta", -1), 1e39),
    ("evaluate", "models/AAA_lstm.json", ("artifact", "theta", -1), 1e39),
    # a sign ingest refuses: a price <= 0 or a negative volume
    ("train", "aligned/AAA.json", ("features", 50, 3), -1.0),
    ("train", "aligned/AAA.json", ("features", 50, 5), -1.0),
], ids=["aligned_nan_close", "train_aligned_nan_close", "arima_nan_intercept",
        "lstm_inf_head_bias", "gan_nan_weight", "report_nan_prediction",
        "arima_p_past_its_coefficients", "arima_d5", "arima_float_d", "aligned_true_sentiment",
        "lstm_false_gate_bias", "report_true_prediction", "report_string_prediction",
        "gan_float32_overflow_bias", "lstm_float32_overflow_head_bias",
        "aligned_negative_close", "aligned_negative_volume"])
def test_read_back_value_that_cannot_be_used_names_file(
        pipeline, tmp_path, capsys, command, relpath, keys, value):
    # json.loads reads NaN and Infinity; the order's p must match the AR
    # coefficients (p = 3 with fewer of them indexed past their end) and its
    # d must be an integer, as np.diff takes; numpy would read a bool among
    # numbers as 0 or 1
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / relpath
    payload = json.loads(path.read_text())
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    command, *args = {"evaluate": ["evaluate"], "train": ["train", "--model", "arima"],
                      "train_gan": ["train", "--model", "gan"],
                      "plot": ["plot", "--asset", "AAA"]}[command]
    assert cli.main([command, "--config", str(pipeline), *args]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


def test_aligned_dates_out_of_order_are_refused_at_load(pipeline, tmp_path, capsys):
    # the aligned file is at fault, not the artifacts trained on it
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / "aligned" / "AAA.json"
    payload = json.loads(path.read_text())
    dates = payload["dates"]
    dates[40], dates[41] = dates[41], dates[40]
    path.write_text(json.dumps(payload))
    for command in (["train", "--model", "lstm"], ["evaluate"]):
        capsys.readouterr()
        assert cli.main([command[0], "--config", str(pipeline), *command[1:]]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and "not strictly increasing" in err
        assert str(tmp_path / "out" / "models") not in err


def test_aligned_file_of_another_asset_is_refused(pipeline, tmp_path, capsys):
    # an aligned file is found by its symbol; one that holds another asset
    # would train, and label reports of, that asset under this one's name
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / "aligned" / "AAA.json"
    path.write_text(path.read_text().replace('"symbol": "AAA"', '"symbol": "BBB"'))
    for command in (["train", "--model", "arima"], ["evaluate", "--asset", "AAA"]):
        capsys.readouterr()
        assert cli.main([command[0], "--config", str(pipeline), *command[1:]]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and "holds asset 'BBB'" in err


@pytest.mark.parametrize("command, relpath", [
    (["train"], "aligned/AAA.json"),
    (["evaluate"], "models/AAA_arima.json"),
    # the first of the asset's reports that plot reads
    (["plot", "--asset", "AAA"], "reports/AAA_arima.json"),
], ids=["aligned", "artifact", "report"])
def test_missing_read_back_file_is_data_error_naming_it(
        pipeline, tmp_path, capsys, command, relpath):
    if command[0] == "evaluate":
        assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    capsys.readouterr()
    assert cli.main([command[0], "--config", str(pipeline), *command[1:]]) == cli.EXIT_DATA
    assert str(tmp_path / "out" / relpath) in capsys.readouterr().err


MUTATED = "<mutated>"


def mutation_sites(node, path=()):
    """Where one mutation can go in parsed JSON: ("number", path) for each
    number, ("string", path) for each string, ("list", path) for each
    non-empty list and ("key", path) for each object key. A list longer than 8
    contributes its first and last element."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield "key", (*path, key)
            yield from mutation_sites(child, (*path, key))
    elif isinstance(node, list):
        if node:
            yield "list", path
        for i in range(len(node)) if len(node) <= 8 else (0, len(node) - 1):
            yield from mutation_sites(node[i], (*path, i))
    elif isinstance(node, str):
        yield "string", path
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield "number", path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A finished mini run, and each aligned and model file's text and
    mutation sites."""
    root = tmp_path_factory.mktemp("tiny_run")
    config = mini_config(root)
    config.write_text(config.read_text().replace("output_dir: out",
                                                 f"output_dir: {root / 'out'}"))
    with pytest.MonkeyPatch.context() as monkeypatch, \
            contextlib.redirect_stdout(io.StringIO()):
        use_mini_sizes(monkeypatch)
        assert cli.main(["run", "--config", str(config)]) == 0
    paths = sorted((root / "out").glob("aligned/*.json")) + sorted(
        (root / "out").glob("models/*.json"))
    texts = {path: path.read_text() for path in paths}
    sites = {}
    for path, text in texts.items():
        for kind, where in mutation_sites(json.loads(text)):
            sites.setdefault((path, kind), []).append(where)
    return config, texts, sites


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_mutation_of_a_read_back_file_never_exits_70(tiny_run, data):
    # the kind is drawn before the site, so the few keys, strings and lists
    # of a file are mutated as often as its many numbers. A model file's
    # stamp, changed or dropped, is refused as stale.
    config, texts, sites = tiny_run
    path, kind = data.draw(st.sampled_from(sorted(sites)), label="file and kind")
    where = data.draw(st.sampled_from(sites[path, kind]), label="site")
    payload = json.loads(texts[path])
    *parents, last = where
    node = payload
    for key in parents:
        node = node[key]
    if kind == "number":
        node[last] = MUTATED
        replacement = data.draw(st.sampled_from(["NaN", "Infinity", "1e400", '"x"', "null"]),
                                label="replacement")
    elif kind == "string":
        node[last] = data.draw(st.one_of(
            st.sampled_from(["", MUTATED, "2021-01-05", "signed", "tanh", "gan"]),
            st.text(max_size=8)).filter(lambda s: s != node[last]), label="replacement")
    elif kind == "list":
        node[last].pop()
    else:
        del node[last]
    text = json.dumps(payload)
    if kind == "number":
        text = text.replace(json.dumps(MUTATED), replacement)
    err = io.StringIO()
    try:
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["evaluate", "--config", str(config),
                             "--asset", path.stem.split("_")[0]])
    finally:
        path.write_text(texts[path])
    assert code in (cli.EXIT_OK, cli.EXIT_DATA), err.getvalue()
    if code == cli.EXIT_DATA:
        assert str(path) in err.getvalue()
    if where == ("stamp",):
        assert code == cli.EXIT_DATA and "train again" in err.getvalue()


def get_in(node, keys):
    for key in keys:
        node = node[key]
    return node


def config_sites(node, path=()):
    """The key path of every mapping value and list item of a parsed config."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield (*path, key)
        yield from config_sites(child, (*path, key))


@pytest.fixture(scope="module")
def fleet_config(tmp_path_factory):
    """The fleet fixture's config with absolute data paths, written to a
    scratch directory, and its parsed form."""
    raw = yaml.safe_load((FLEET / "config.yaml").read_text())
    raw["lexicon"] = str((FLEET / raw["lexicon"]).resolve())
    for entry in raw["assets"]:
        for key in ("ohlcv", "tweets"):
            if key in entry:
                entry[key] = str(FLEET / entry[key])
    path = tmp_path_factory.mktemp("fleet_config") / "config.yaml"
    raw["output_dir"] = str(path.parent / "out")
    return path, raw


CONFIG_VALUES = st.one_of(
    st.none(), st.text(max_size=8), st.integers(), st.floats(), st.booleans(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_mutation_of_the_config_loads_or_is_refused(fleet_config, data):
    # loading only: nothing trains, so no mutated size allocates anything
    path, raw = fleet_config
    raw = copy.deepcopy(raw)
    kind = data.draw(st.sampled_from(["replace", "drop", "add", "truncate"]), label="kind")
    if kind == "add":
        where = data.draw(st.sampled_from(
            [()] + [s for s in config_sites(raw) if isinstance(get_in(raw, s), dict)]),
            label="mapping")
        get_in(raw, where)[data.draw(st.text(min_size=1, max_size=8), label="key")] = \
            data.draw(CONFIG_VALUES, label="value")
    elif kind in ("replace", "drop"):
        *parents, last = data.draw(st.sampled_from(list(config_sites(raw))), label="site")
        if kind == "drop":
            del get_in(raw, parents)[last]
        else:
            get_in(raw, parents)[last] = data.draw(CONFIG_VALUES, label="value")
    text = yaml.safe_dump(raw, sort_keys=False)
    if kind == "truncate":
        text = text[:data.draw(st.integers(0, len(text)), label="length")]
    path.write_text(text)
    try:
        assert isinstance(load_config(path), RunConfig)
    except (DataError, UsageError):
        pass


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """A mini config whose lexicon is a copy, and the bytes of its OHLCV,
    tweet and lexicon files."""
    root = tmp_path_factory.mktemp("input_files")
    config = mini_config(root)
    lexicon = root / "lexicon.txt"
    lexicon.write_bytes(LEXICON.read_bytes())
    config.write_text(config.read_text().replace(str(LEXICON), str(lexicon)).replace(
        "output_dir: out", f"output_dir: {root / 'out'}"))
    paths = [root / "AAA.csv", root / "AAA_tweets.csv", lexicon]
    return config, {path: path.read_bytes() for path in paths}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_byte_mutation_of_an_input_file_never_exits_70(input_files, data):
    config, originals = input_files
    path = data.draw(st.sampled_from(sorted(originals)), label="file")
    good = originals[path]
    at = data.draw(st.integers(0, len(good) - 1), label="offset")
    kind = data.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]), label="kind")
    byte = bytes([data.draw(st.integers(0, 255), label="byte")])
    bad = {"replace": good[:at] + byte + good[at + 1:], "insert": good[:at] + byte + good[at:],
           "delete": good[:at] + good[at + 1:], "truncate": good[:at]}[kind]
    err = io.StringIO()
    try:
        path.write_bytes(bad)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["ingest", "--config", str(config)])
    finally:
        path.write_bytes(good)
    assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_USAGE), err.getvalue()
    if code == cli.EXIT_DATA:
        assert str(path) in err.getvalue()


@pytest.mark.parametrize("which", ["ohlcv", "tweets", "config", "lexicon"])
def test_non_utf8_input_names_file_and_offset(pipeline, tmp_path, capsys, which):
    if which == "lexicon":
        path = tmp_path / "lexicon.txt"
        path.write_bytes(LEXICON.read_bytes())
        pipeline.write_text(pipeline.read_text().replace(str(LEXICON), str(path)))
    else:
        path = {"ohlcv": tmp_path / "AAA.csv", "tweets": tmp_path / "AAA_tweets.csv",
                "config": pipeline}[which]
    good = path.read_bytes()
    path.write_bytes(good[:40] + b"\xff\xfe" + good[40:])
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(path) in err and "offset 40" in err


@pytest.mark.parametrize("which", ["ohlcv", "tweets", "lexicon"])
def test_an_input_with_a_byte_order_mark_ingests_as_without_one(pipeline, tmp_path, capsys,
                                                                 which):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_bytes(LEXICON.read_bytes())
    pipeline.write_text(pipeline.read_text().replace(str(LEXICON), str(lexicon)))
    tweets = tmp_path / "AAA_tweets.csv"
    # "good" is the lexicon's first entry, the one a byte-order mark would hide
    tweets.write_text(tweets.read_text() + "2021-01-06T10:00:00,good call\n")
    path = {"ohlcv": tmp_path / "AAA.csv", "tweets": tweets, "lexicon": lexicon}[which]

    def ingest():
        capsys.readouterr()
        assert cli.main(["ingest", "--config", str(pipeline), "--asset", "AAA"]) == 0
        out = tmp_path / "out"
        written = {name: (out / name).read_bytes()
                   for name in ("aligned/AAA.json", "sentiment/AAA.csv", "repair/AAA.jsonl")}
        return capsys.readouterr(), written

    plain = ingest()
    assert json.loads(plain[1]["aligned/AAA.json"])["sentiment"][2] > 0
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert ingest() == plain


@pytest.mark.parametrize("which", ["config", "ohlcv", "tweets", "lexicon"])
def test_directory_input_is_data_error_naming_it(pipeline, tmp_path, capsys, which):
    folder = (tmp_path / "folder").resolve()
    folder.mkdir()
    config = pipeline
    if which == "config":
        config = folder
    else:
        old = {"ohlcv": "ohlcv: AAA.csv", "tweets": "tweets: AAA_tweets.csv",
               "lexicon": f"lexicon: {LEXICON}"}[which]
        pipeline.write_text(pipeline.read_text().replace(old, f"{which}: {folder}"))
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(folder) in err and "directory" in err


@pytest.mark.parametrize("which", ["ohlcv", "tweets"])
def test_oversized_csv_field_names_file_and_line(pipeline, tmp_path, capsys, which):
    path = tmp_path / {"ohlcv": "AAA.csv", "tweets": "AAA_tweets.csv"}[which]
    lines = path.read_text().splitlines()
    lines[2] += "x" * (csv.field_size_limit() + 1)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["ingest", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path} line 3" in err and "field limit" in err


@pytest.mark.parametrize("section, key, value", [
    pytest.param("gan", "d_steps", 1, id="d_steps-1"),
    pytest.param("gan", "supervised_weight", 0.0, id="supervised_weight-0.0"),
    ("lstm", "hidden_size", 32),
    ("lstm", "batch_size", 32),
    ("lstm", "plateau_patience", 5),
    pytest.param(None, "arima", {"p_max": 3, "q_max": 3}, id="arima_block-3-3"),
    ("lstm", "hidden_size", 0),
    ("lstm", "batch_size", 0),
    pytest.param("lstm", "hidden_size", 10 ** 400, id="'lstm'-'hidden_size'-10**400"),
    pytest.param(None, "arima", {"p_max": -1}, id="arima_block-p_max--1"),
], ids=lambda v: repr(v))
def test_removed_gan_key_is_refused_as_unknown(pipeline, capsys, section, key, value):
    # the GAN takes one discriminator and one generator update per step, with
    # no supervised term; ARIMA's order grid and the LSTM's sizes and plateau
    # patience are constants. A config that still sets one of these keys,
    # even to the value that was its default, is refused rather than
    # silently ignored, and so is a value that was out of its range.
    raw = yaml.safe_load(pipeline.read_text())
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    pipeline.write_text(yaml.safe_dump(raw))
    assert cli.main(["train", "--config", str(pipeline)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(pipeline) in err and key in err


def test_cli_import_leaves_scipy_signal_and_stats_unloaded():
    # each of them costs start-up time that nothing in the harness needs
    code = ("import sys, sentigan.cli; "
            "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------- plot


def run_mini_pipeline(config):
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["evaluate", "--config", str(config)]) == 0


def test_plot_missing_report_is_data_error(pipeline):
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA"]) == cli.EXIT_DATA


@pytest.mark.parametrize("flags", [["--model", "gan"], ["--asset", "AAA"]])
def test_plot_without_asset_or_model_is_usage_error(pipeline, tmp_path, flags):
    # plot draws every model of an asset, so it takes no --model; --asset
    # restricts it to one asset
    if flags[0] == "--model":
        assert cli.main(["plot", "--config", str(pipeline), *flags]) == cli.EXIT_USAGE
        return
    run_mini_pipeline(pipeline)
    assert cli.main(["plot", "--config", str(pipeline), *flags]) == 0
    assert [p.name for p in (tmp_path / "out" / "plots").iterdir()] == ["AAA.svg"]


def polylines(svg_path):
    return ET.parse(svg_path).getroot().findall("{http://www.w3.org/2000/svg}polyline")


def test_plot_outputs(pipeline, tmp_path):
    run_mini_pipeline(pipeline)
    assert cli.main(["plot", "--config", str(pipeline)]) == 0
    plots = tmp_path / "out" / "plots"
    assert sorted(p.name for p in plots.iterdir()) == ["AAA.svg", "BBB.svg"]
    svg_path = plots / "AAA.svg"
    # the actual close over the longest holdout, then each model's forecasts
    # over its own, all ending on the last held-out date
    rows = [len(json.loads((tmp_path / "out" / "reports" / f"AAA_{model}.json").read_text())
                ["rows"]) for model in cli.MODEL_NAMES]
    points = [line.get("points").split() for line in polylines(svg_path)]
    assert [len(p) for p in points] == [max(rows), *rows]
    assert len({p[-1].split(",")[0] for p in points}) == 1

    first = svg_path.read_bytes()
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA"]) == 0
    assert svg_path.read_bytes() == first


def test_plot_title_escapes_markup_in_the_symbol():
    days = [date(2021, 1, 4), date(2021, 1, 5), date(2021, 1, 6)]
    reports = [ForecastReport("AT&T<1>", model, days[k:], np.array([1.0, 2.0, 3.0][k:]),
                              np.array([1.5, 2.5, 2.0][k:]), MetricSet(0.5, 0.25, 0.5, 0.3))
               for k, model in enumerate(cli.MODEL_NAMES)]
    root = ET.fromstring(cli.render_plot_svg(reports))
    title = root.find("{http://www.w3.org/2000/svg}text").text
    assert title == "AT&T<1>: forecasts vs actual close"


def test_plot_takes_a_report_cut_at_the_front_but_not_one_shifted(pipeline, tmp_path, capsys):
    run_mini_pipeline(pipeline)
    reports = tmp_path / "out" / "reports"
    svg_path = tmp_path / "out" / "plots" / "AAA.svg"
    # still a tail of the longest report's dates
    path = reports / "AAA_lstm.json"
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "rows": payload["rows"][5:]}))
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA"]) == 0
    assert len(polylines(svg_path)[2].get("points").split()) == len(payload["rows"]) - 5
    svg_path.unlink()
    # each of the GAN's dates one day earlier
    dates = json.loads((tmp_path / "out" / "aligned" / "AAA.json").read_text())["dates"]
    path = reports / "AAA_gan.json"
    payload = json.loads(path.read_text())
    for row, day in zip(payload["rows"], dates[-len(payload["rows"]) - 1 : -1]):
        row["date"] = day
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and "do not end" in err
    assert not svg_path.exists()


def test_plot_truncated_report_names_file(pipeline, tmp_path, capsys):
    run_mini_pipeline(pipeline)
    path = tmp_path / "out" / "reports" / "AAA_gan.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    capsys.readouterr()
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA"]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("symbol, model", [("BBB", "gan"), ("AAA", "lstm"), ("AAA", "prophet")],
                         ids=["other_symbol", "other_model", "prophet"])
def test_plot_of_another_report_is_data_error_naming_it(pipeline, tmp_path, capsys,
                                                         symbol, model):
    # a report copied over AAA_gan.json is not plotted under AAA gan
    run_mini_pipeline(pipeline)
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA"]) == 0
    plots = sorted((tmp_path / "out" / "plots").iterdir())
    before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in plots]
    path = tmp_path / "out" / "reports" / "AAA_gan.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "symbol": symbol,
                                "model": model}))
    capsys.readouterr()
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and repr(symbol) in err and repr(model) in err
    assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in plots] == before
