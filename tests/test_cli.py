import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigan import cli
from sentigan.config import load_config
from sentigan.errors import UsageError

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


def mini_config(tmp_path, n=120):
    """Two-asset config small enough for fast end-to-end CLI tests."""
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
        "  batch_size: 16\n"
        "  hidden_size: 8\n"
        "gan:\n"
        "  epochs: 3\n"
        "  gen_hidden: [8]\n"
        "  disc_hidden: [8]\n"
        "arima:\n"
        "  p_max: 1\n"
        "  q_max: 1\n"
    )
    return config


@pytest.fixture()
def pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return mini_config(tmp_path)


# ---------------------------------------------------------------- config


def test_load_fleet_config_defaults():
    cfg = load_config(FLEET / "config.yaml")
    assert len(cfg.assets) == 7
    assert cfg.seed == 7
    assert cfg.window_length == 20
    assert cfg.split_policies == {
        "arima": "fraction_90_10", "lstm": "fraction_70_30", "gan": "holdout_last_20",
    }
    assert cfg.lstm["learning_rate"] == 0.001
    assert cfg.lstm["max_epochs"] == 60  # file override on top of defaults
    assert cfg.gan["learning_rate"] == 0.0002
    assert cfg.gan["batch_size"] == 5


def test_config_requires_seed(tmp_path):
    config = mini_config(tmp_path)
    text = config.read_text().replace("seed: 3\n", "")
    config.write_text(text)
    with pytest.raises(UsageError):
        load_config(config)
    assert load_config(config, seed_override=9).seed == 9


def test_config_rejects_unknown_hyperparameter(tmp_path):
    config = mini_config(tmp_path)
    config.write_text(config.read_text() + "  dropout: 0.5\n")
    with pytest.raises(UsageError):
        load_config(config)


@pytest.mark.parametrize("section, key, value", [
    (None, "window_length", "abc"),
    (None, "seed", "x"),
    (None, "seed", -1),
    (None, "assets", 5),
    (None, "gan", 5),
    (None, "output_dir", 5),
    ("gan", "batch_size", "5"),
    ("gan", "epochs", 1.5),
    ("gan", "gen_hidden", 5),
    ("gan", "gen_hidden", [0]),
    ("gan", "learning_rate", float("nan")),
    pytest.param("gan", "learning_rate", 10 ** 400, id="'gan'-'learning_rate'-10**400"),
    ("lstm", "hidden_size", 0),
    ("lstm", "batch_size", 0),
    ("lstm", "max_epochs", True),
    ("lstm", "plateau_factor", 1.5),
    ("arima", "p_max", -1),
    pytest.param("gan", "epochs", 10 ** 400, id="'gan'-'epochs'-10**400"),
    pytest.param("lstm", "hidden_size", 10 ** 400, id="'lstm'-'hidden_size'-10**400"),
], ids=lambda v: repr(v))
def test_malformed_config_value_is_data_error_naming_file_and_key(
        pipeline, capsys, section, key, value):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    raw = yaml.safe_load(pipeline.read_text())
    (raw if section is None else raw[section])[key] = value
    pipeline.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(pipeline) in err
    assert (key if section is None else f"{section}.{key}") in err


@pytest.mark.parametrize("symbol", ["../../escaped", "", ".", "..", "a/b", "a\\b", "a\0b"])
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


def test_negative_seed_override_is_usage_error(pipeline):
    assert cli.main(["ingest", "--config", str(pipeline), "--seed", "-1"]) == cli.EXIT_USAGE


def test_config_missing_data_file_is_data_error(tmp_path):
    config = mini_config(tmp_path)
    (tmp_path / "BBB.csv").unlink()
    assert cli.main(["ingest", "--config", str(config)]) == cli.EXIT_DATA


# ---------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["forecast"]) == cli.EXIT_USAGE


def test_missing_config_flag_is_usage_error():
    assert cli.main(["train"]) == cli.EXIT_USAGE


def test_nonexistent_config_is_data_error(tmp_path):
    assert cli.main(["ingest", "--config", str(tmp_path / "nope.yaml")]) == cli.EXIT_DATA


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


def test_sentiment_command_emits_daily_csv(pipeline, tmp_path):
    assert cli.main(["sentiment", "--config", str(pipeline), "--asset", "AAA"]) == 0
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


def test_validation_split_leaving_no_training_window_is_named(pipeline, capsys):
    pipeline.write_text(pipeline.read_text().replace(
        "lstm:\n", "lstm:\n  validation_fraction: 0.999\n"))
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(pipeline), "--model", "lstm",
                     "--asset", "AAA"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "AAA/lstm: the validation split takes 77 of 77 windows" in err
    assert not (pipeline.parent / "out" / "models" / "AAA_lstm.json").exists()


def test_gan_artifact_has_no_discriminator_and_old_ones_still_load(pipeline, tmp_path):
    from sentigan import gan

    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / "models" / "AAA_gan.json"
    payload = json.loads(path.read_text())
    assert set(payload) == {"model", "artifact"}
    report = tmp_path / "out" / "reports" / "AAA_gan.json"
    before = report.read_bytes()
    # artifacts written before the discriminator was dropped carry it
    disc = gan.build_discriminator(np.random.default_rng(0), 10, hidden=(8,))
    payload["discriminator"] = disc.to_dict()
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


def test_evaluate_missing_artifact_names_cell(pipeline, tmp_path, capsys):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    assert cli.main(["evaluate", "--config", str(pipeline)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "AAA" in err and "arima" in err


@pytest.mark.parametrize(("relpath", "damage"), [
    (relpath, damage)
    for relpath in ("aligned/AAA.json", "models/AAA_arima.json")
    for damage in ("drop_key", "truncate", "not_object")
] + [("models/AAA_arima.json", "artifact_not_object"),
     ("models/AAA_arima.json", "huge_intercept"),
     ("models/AAA_gan.json", "nested_wrong_type"),
     ("models/AAA_gan.json", "unknown_activation"),
     ("models/AAA_gan.json", "scaler_short"),
     ("models/AAA_lstm.json", "misshapen_gate"),
     ("models/AAA_lstm.json", "scaler_short")])
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
        payload["artifact"]["intercept"] = 10 ** 400
        path.write_text(json.dumps(payload))
    elif damage == "nested_wrong_type":
        payload = json.loads(text)
        payload["artifact"]["layers"] = [5]
        path.write_text(json.dumps(payload))
    elif damage == "unknown_activation":
        payload = json.loads(text)
        payload["artifact"]["layers"][0]["activation"] = "swish"
        path.write_text(json.dumps(payload))
    elif damage == "misshapen_gate":
        payload = json.loads(text)
        payload["artifact"]["gates"]["forget"]["u"].pop()
        path.write_text(json.dumps(payload))
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
    assert cli.main(["evaluate", "--config", str(pipeline)]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(("command", "relpath", "keys", "value"), [
    ("evaluate", "aligned/AAA.json", ("features", -1, 3), float("nan")),
    ("train", "aligned/AAA.json", ("features", -1, 3), float("nan")),
    ("evaluate", "models/AAA_arima.json", ("artifact", "intercept"), float("nan")),
    ("evaluate", "models/AAA_lstm.json", ("artifact", "head_bias", 0), float("inf")),
    ("evaluate", "models/AAA_gan.json", ("artifact", "layers", 0, "weights", 0, 0),
     float("nan")),
    ("plot", "reports/AAA_gan.json", ("rows", 0, "predicted"), float("nan")),
    ("evaluate", "models/AAA_arima.json", ("artifact", "order", 0), 3),
    ("evaluate", "models/AAA_arima.json", ("artifact", "order", 1), 5),
], ids=["aligned_nan_close", "train_aligned_nan_close", "arima_nan_intercept",
        "lstm_inf_head_bias", "gan_nan_weight", "report_nan_prediction",
        "arima_p_past_its_coefficients", "arima_d5"])
def test_read_back_value_that_cannot_be_used_names_file(
        pipeline, tmp_path, capsys, command, relpath, keys, value):
    # json.loads reads NaN and Infinity; the order's p must match the AR
    # coefficients (p = 3 with fewer of them indexed past their end)
    assert cli.main(["run", "--config", str(pipeline)]) == 0
    path = tmp_path / "out" / relpath
    payload = json.loads(path.read_text())
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    args = {"evaluate": [], "train": ["--model", "arima"],
            "plot": ["--asset", "AAA", "--model", "gan"]}[command]
    assert cli.main([command, "--config", str(pipeline), *args]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


MUTATED = "<mutated>"


def mutation_sites(node, path=()):
    """Where one mutation can go in parsed JSON: ("number", path) for each
    number, ("list", path) for each non-empty list and ("key", path) for each
    object key. A list longer than 8 contributes its first and last element."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield "key", (*path, key)
            yield from mutation_sites(child, (*path, key))
    elif isinstance(node, list):
        if node:
            yield "list", path
        for i in range(len(node)) if len(node) <= 8 else (0, len(node) - 1):
            yield from mutation_sites(node[i], (*path, i))
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
    with contextlib.redirect_stdout(io.StringIO()):
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
    # the kind is drawn before the site, so the few keys and lists of a file
    # are mutated as often as its many numbers
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


@pytest.mark.parametrize("key, value", [("d_steps", 1), ("supervised_weight", 0.0)])
def test_removed_gan_key_is_refused_as_unknown(pipeline, capsys, key, value):
    # the GAN takes one discriminator and one generator update per step, with
    # no supervised term; a config that still sets either key, even to the
    # value that was its default, is refused rather than silently ignored
    raw = yaml.safe_load(pipeline.read_text())
    raw["gan"][key] = value
    pipeline.write_text(yaml.safe_dump(raw))
    assert cli.main(["train", "--config", str(pipeline)]) == cli.EXIT_USAGE
    assert key in capsys.readouterr().err


def test_cli_import_leaves_scipy_signal_and_stats_unloaded():
    # each of them costs start-up time that nothing in the harness needs
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, sentigan.cli; "
            "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------- plot


def run_mini_pipeline(config):
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["evaluate", "--config", str(config)]) == 0


def test_plot_missing_report_is_data_error(pipeline):
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA",
                     "--model", "gan"]) == cli.EXIT_DATA


def test_plot_outputs(pipeline, tmp_path):
    run_mini_pipeline(pipeline)
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA",
                     "--model", "gan"]) == 0
    svg_path = tmp_path / "out" / "plots" / "AAA_gan.svg"
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2
    report = json.loads((tmp_path / "out" / "reports" / "AAA_gan.json").read_text())
    n = len(report["rows"])
    for chunk in svg.split("<polyline")[1:]:
        points = chunk.split('points="')[1].split('"')[0].split()
        assert len(points) == n

    with open(tmp_path / "out" / "plots" / "AAA_gan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["date", "actual", "predicted"]
    assert len(rows) == n + 1
    for csv_row, rep_row in zip(rows[1:], report["rows"]):
        assert csv_row[0] == rep_row["date"]
        assert float(csv_row[1]) == rep_row["actual"]
        assert float(csv_row[2]) == rep_row["predicted"]

    first = svg_path.read_bytes()
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA",
                     "--model", "gan"]) == 0
    assert svg_path.read_bytes() == first


def test_plot_truncated_report_names_file(pipeline, tmp_path, capsys):
    run_mini_pipeline(pipeline)
    path = tmp_path / "out" / "reports" / "AAA_gan.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    capsys.readouterr()
    assert cli.main(["plot", "--config", str(pipeline), "--asset", "AAA",
                     "--model", "gan"]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


# ---------------------------------------------------------------- workers


def test_legacy_workers_key_is_ignored(pipeline, tmp_path):
    assert cli.main(["ingest", "--config", str(pipeline)]) == 0
    before = (tmp_path / "out" / "aligned" / "AAA.json").read_bytes()
    legacy_cfg = tmp_path / "config_workers.yaml"
    legacy_cfg.write_text(pipeline.read_text() + "workers: 4\n")
    assert cli.main(["ingest", "--config", str(legacy_cfg)]) == 0
    assert (tmp_path / "out" / "aligned" / "AAA.json").read_bytes() == before
