"""Acceptance suite: one test per top-level criterion, with the stated
tolerances and runtime budgets. Each test is self-contained and seeded."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import aligned_from_close, holdout_split
from gradcheck import finite_difference_check, numerical_gradient, relative_error
from sentigan import arima, cli, gan, lstm
from sentigan.arima import ArimaOrder
from sentigan.data import CLOSE_COLUMN, make_windows, split_boundary
from sentigan.eval import ForecastReport, MetricSet, aggregate
from sentigan.gan import GanSchedule, build_discriminator, build_generator
from sentigan.lstm import LstmModel, TrainSchedule
from sentigan.nn import build_mlp, forward
from sentigan.scaling import scaler_fit, scaler_transform
from sentigan.sentiment import load_lexicon, score_text

FIXTURES = Path(__file__).parent / "fixtures"

PUBLISHED_RMSE = {
    "arima": [16.62, 20.87, 11.83, 146.11, 41.22, 182.04, 30.70],
    "lstm": [6.97, 3.35, 6.24, 11.21, 14.76, 118.30, 13.21],
    "gan": [13.42, 7.05, 7.02, 8.24, 27.07, 13.39, 9.33],
}
SYMBOLS = ["Google", "Amazon", "Apple", "Meta", "Microsoft", "Nvidia", "Tesla"]

# published (RMSE, MSE) pairs for the neural rows
PUBLISHED_RMSE_MSE = [
    (6.97, 48.58), (13.42, 180.10),
    (3.35, 11.22), (7.05, 49.70),
    (6.24, 38.94), (7.02, 49.28),
    (11.21, 125.66), (8.24, 67.90),
    (14.76, 217.86), (27.07, 732.78),
    (118.30, 13994.89), (13.39, 179.29),
    (13.21, 174.50), (9.33, 87.05),
]


def stub_report(symbol, model, rmse):
    return ForecastReport(
        symbol, model, rows=[],
        metrics=MetricSet(mae=rmse, mse=rmse * rmse, rmse=rmse, mape=None,
                          mape_omitted=True),
    )


def test_criterion_1_aggregate_table_reproduction():
    reports = [
        stub_report(s, model, r)
        for model, rmses in PUBLISHED_RMSE.items()
        for s, r in zip(SYMBOLS, rmses)
    ]
    agg = aggregate(reports)
    assert round(agg.mean_rmse["arima"], 2) == 64.20
    assert round(agg.median_rmse["arima"], 2) == 30.70
    assert agg.wins["arima"] == 0
    assert round(agg.mean_rmse["lstm"], 2) == 24.86
    assert round(agg.median_rmse["lstm"], 2) == 11.21
    assert agg.wins["lstm"] == 4
    assert round(agg.mean_rmse["gan"], 2) == 12.22
    assert round(agg.median_rmse["gan"], 2) == 9.33
    assert agg.wins["gan"] == 3
    assert sum(agg.wins.values()) == 7


def test_criterion_2_rmse_mse_coherence():
    for rmse, mse in PUBLISHED_RMSE_MSE:
        assert abs(rmse**2 - mse) < 0.05, (rmse, mse)


def test_criterion_3_gradient_suite():
    # dense stacks
    for seed in range(10):
        rng = np.random.default_rng(seed)
        layers = build_mlp(rng, 4, (6, 5), 3, "leaky_relu", "identity")
        report = finite_difference_check(
            layers, rng.normal(size=(3, 4)), rng.normal(size=(3, 3))
        )
        assert report.passed, report.max_rel_err

    # LSTM cell unrolled through 8 steps
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        model = LstmModel.initialize(rng, 4, 3)
        xs = rng.normal(size=(2, 8, 3))
        targets = rng.normal(size=2)
        workspace = lstm.Workspace(2, 8, 4)
        _, err = lstm.sequence_loss(model, xs, targets, workspace)
        analytic = lstm._backward_sequence(model, xs, workspace, 2.0 * err / len(err))
        numeric = numerical_gradient(
            lambda: lstm.sequence_loss(model, xs, targets)[0], model.theta
        )
        assert relative_error(analytic, numeric) < 1e-4

    # generator, discriminator, and both adversarial losses
    from sentigan.gan import d_loss_value, g_loss_value

    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        length = 3
        g = build_generator(rng, length, hidden=(4,))
        d = build_discriminator(rng, length, hidden=(4,))
        histories = rng.uniform(-0.9, 0.9, size=(2, length, 6))
        sentiments = rng.uniform(-1, 1, size=2)
        targets = rng.uniform(-0.9, 0.9, size=(2, 6))
        gen_in = gan._gen_inputs(g, histories, sentiments)
        real_in = np.concatenate([targets, gen_in], axis=1)
        fake, gen_caches = forward(g.layers, gen_in)
        fake_in = np.concatenate([fake, gen_in], axis=1)

        gan._discriminator_grads(d, real_in, fake_in)
        analytic_d = d.grad.copy()

        def d_loss():
            f, _ = forward(g.layers, gen_in)
            fi = np.concatenate([f, gen_in], axis=1)
            return d_loss_value(forward(d.layers, real_in)[0], forward(d.layers, fi)[0])

        numeric_d = numerical_gradient(d_loss, d.theta)
        assert relative_error(analytic_d, numeric_d) < 1e-4

        gan._generator_grads(g, d, fake_in, gen_caches)
        analytic_g = g.grad.copy()

        def g_loss():
            f, _ = forward(g.layers, gen_in)
            fi = np.concatenate([f, gen_in], axis=1)
            return g_loss_value(forward(d.layers, fi)[0])

        numeric_g = numerical_gradient(g_loss, g.theta)
        assert relative_error(analytic_g, numeric_g) < 1e-4


def sentiment_jump_asset(seed, n=500, phi=0.9, sigma=1.0, jump_scale=3.0):
    """AR(1) close path; a +3 sigma jump lands the day after sentiment
    exceeds 0.5, so the jump is forecastable from the conditioning input."""
    rng = np.random.default_rng(seed)
    sentiment = np.where(rng.uniform(size=n) < 0.5, 0.8, -0.8)
    z = np.zeros(n)
    for t in range(1, n):
        z[t] = phi * z[t - 1] + rng.normal(0, sigma)
    jumps = np.zeros(n)
    jumps[1:] = jump_scale * sigma * (sentiment[:-1] > 0.5)
    return aligned_from_close(100.0 + z + jumps, sentiment=sentiment)


def test_criterion_4_gan_synthetic_convergence():
    length = 10
    schedule = GanSchedule(learning_rate=0.0002, batch_size=5, epochs=200)
    wins = 0
    sensitivities = []
    for seed in range(10):
        aligned = sentiment_jump_asset(seed)
        windows = make_windows(aligned, length)
        train_part, test_part = holdout_split(windows)
        [(g, _, _)] = gan.train([train_part], schedule, seed=seed,
                            gen_hidden=(64, 32), disc_hidden=(32, 16))
        preds = gan.predict(g, test_part)
        actual = test_part.targets[:, CLOSE_COLUMN]
        persistence = test_part.histories[:, -1, CLOSE_COLUMN]
        rmse = np.sqrt(np.mean((preds - actual) ** 2))
        rmse_persistence = np.sqrt(np.mean((persistence - actual) ** 2))
        if rmse < rmse_persistence:
            wins += 1
        flipped = gan.predict(g, replace(test_part, sentiments=-test_part.sentiments))
        sensitivities.append(float(np.mean(np.abs(preds - flipped))))
    assert wins >= 8, f"beat persistence in only {wins}/10 seeds"
    assert np.mean(sensitivities) > 0.0


def test_criterion_5_lstm_synthetic_competence():
    t = np.arange(300.0)
    close = 60.0 + 0.05 * t + 8.0 * np.sin(2 * np.pi * t / 25.0)
    windows = make_windows(aligned_from_close(close), 20)
    train_part, test_part = holdout_split(windows)
    schedule = TrainSchedule(max_epochs=400, early_stop_patience=40, plateau_patience=15)
    model, log = lstm.train(train_part, schedule, seed=0, hidden_size=16)

    preds = lstm.predict(model, test_part)
    actual = test_part.targets[:, CLOSE_COLUMN]
    persistence = test_part.histories[:, -1, CLOSE_COLUMN]
    rmse = np.sqrt(np.mean((preds - actual) ** 2))
    rmse_persistence = np.sqrt(np.mean((persistence - actual) ** 2))
    assert rmse < 0.25 * rmse_persistence, (rmse, rmse_persistence)

    # the returned weights reproduce the minimum validation loss in the log
    n_val = max(1, int(round(schedule.validation_fraction * len(train_part))))
    val_part = train_part[-n_val:]
    xs_val = scaler_transform(model.scaler, val_part.histories)
    y_val = scaler_transform(model.scaler, val_part.targets)[:, CLOSE_COLUMN]
    final_val = lstm.sequence_loss(model, xs_val, y_val)[0]
    assert final_val == pytest.approx(min(row["val_loss"] for row in log))


def test_criterion_6_arima_recovery():
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = np.zeros(2000)
        for t in range(1, 2000):
            y[t] = 0.8 * y[t - 1] + rng.normal()
        model = arima.fit(y, ArimaOrder(1, 0, 0))
        errors.append(abs(model.ar_coeffs[0] - 0.8))
    assert np.median(errors) <= 0.05, np.median(errors)

    d_hits = sum(
        arima.select_order(np.cumsum(np.random.default_rng(s).normal(size=500))).order.d == 1
        for s in range(20)
    )
    assert d_hits >= 18, d_hits


def test_criterion_7_sentiment_oracle_equivalence():
    golden = json.loads((FIXTURES / "sentiment_golden.json").read_text())
    with open(FIXTURES / "sample_lexicon.txt") as fh:
        lexicon, _ = load_lexicon(fh)
    assert len(golden) == 50
    worst = max(
        abs(score_text(lexicon, entry["text"]) - entry["compound"]) for entry in golden
    )
    assert worst < 1e-4, worst


def test_criterion_8_protocol_audits(tmp_path, monkeypatch):
    # split boundary arithmetic
    for total in (100, 101, 137, 40):
        assert split_boundary(total, "fraction_90_10") == int(np.floor(0.9 * total))
        assert split_boundary(total, "fraction_70_30") == int(np.floor(0.7 * total))
        assert split_boundary(total, "holdout_last_20") == total - 20

    # scaler parameters never depend on the test partition
    # (windows are read-only views of the aligned rows, so the rows that only
    # the test windows' targets see are scaled at the source)
    rng = np.random.default_rng(0)
    aligned = aligned_from_close(100 + np.cumsum(rng.normal(0, 1, 150)))
    train_part, test_part = holdout_split(make_windows(aligned, 10))
    before = scaler_fit(train_part.histories, "unit")
    aligned.features = aligned.features * np.where(np.arange(150) >= 130, 100.0, 1.0)[:, None]
    train_part, test_part = holdout_split(make_windows(aligned, 10))
    assert np.all(test_part.targets[:, CLOSE_COLUMN] > 1000.0)
    after = scaler_fit(train_part.histories, "unit")
    assert np.array_equal(before.per_feature_min, after.per_feature_min)
    assert np.array_equal(before.per_feature_max, after.per_feature_max)

    # the causality audit runs (and passes) on every report the CLI emits
    monkeypatch.chdir(tmp_path)
    from test_cli import mini_config

    config = mini_config(tmp_path)
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["evaluate", "--config", str(config)]) == 0
    reports = list((tmp_path / "out" / "reports").glob("*.json"))
    assert len(reports) == 6  # audit failures would have aborted evaluate


def test_criterion_9_end_to_end_determinism(tmp_path, monkeypatch):
    config = str(FIXTURES / "fleet" / "config.yaml")
    outputs = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli.main(["run", "--config", config]) == 0
        outputs.append(workdir / "out")
    first, second = outputs
    report_names = sorted(p.name for p in (first / "reports").glob("*.json"))
    assert len(report_names) == 21
    for name in report_names:
        assert (first / "reports" / name).read_bytes() == \
            (second / "reports" / name).read_bytes()
    assert (first / "aggregate.csv").read_bytes() == (second / "aggregate.csv").read_bytes()
