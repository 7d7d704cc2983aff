import csv
import json
from pathlib import Path

import numpy as np
import pytest

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
     ("models/AAA_gan.json", "nested_wrong_type"),
     ("models/AAA_gan.json", "unknown_activation"),
     ("models/AAA_lstm.json", "misshapen_gate")])
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
    else:
        payload = json.loads(text)
        payload.pop("artifact" if "models" in relpath else "features")
        path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(pipeline)]) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


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


def test_evaluate_from_metrics_reproduces_published_aggregate(pipeline, tmp_path, capsys):
    rows = [
        ("Google", 16.62, 6.97, 13.42), ("Amazon", 20.87, 3.35, 7.05),
        ("Apple", 11.83, 6.24, 7.02), ("Meta", 146.11, 11.21, 8.24),
        ("Microsoft", 41.22, 14.76, 27.07), ("Nvidia", 182.04, 118.30, 13.39),
        ("Tesla", 30.70, 13.21, 9.33),
    ]
    metrics = tmp_path / "table3.csv"
    lines = ["symbol,model,rmse"]
    for symbol, a, l, g in rows:
        lines += [f"{symbol},arima,{a}", f"{symbol},lstm,{l}", f"{symbol},gan,{g}"]
    metrics.write_text("\n".join(lines) + "\n")
    assert cli.main(["evaluate", "--config", str(pipeline),
                     "--from-metrics", str(metrics)]) == 0
    agg = dict()
    for line in (tmp_path / "out" / "aggregate.csv").read_text().splitlines()[1:]:
        model, mean, median, wins = line.split(",")
        agg[model] = (float(mean), float(median), int(wins))
    assert agg["arima"][0] == pytest.approx(64.20, abs=0.005)
    assert agg["arima"][1:] == (30.70, 0)
    assert agg["lstm"][0] == pytest.approx(24.86, abs=0.005)
    assert agg["lstm"][1:] == (11.21, 4)
    assert agg["gan"][0] == pytest.approx(12.22, abs=0.005)
    assert agg["gan"][1:] == (9.33, 3)


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
