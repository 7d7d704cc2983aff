from datetime import date, timedelta

import numpy as np
import pytest

from sentigan import arima, lstm
from sentigan.data import AlignedDataset
from sentigan.eval import SPLITS
from sentigan.scaling import ScalerParams


def aligned_from_close(close, symbol="SYN", sentiment=None):
    """Build a structurally valid six-column dataset from a close path."""
    close = np.asarray(close, dtype=float)
    assert np.all(close > 0), "synthetic close paths must stay positive"
    t = len(close)
    features = np.column_stack(
        [
            close,  # open
            close * 1.01,  # high
            close * 0.99,  # low
            close,  # close
            close,  # adj_close
            np.full(t, 1000.0),  # volume
        ]
    )
    start = date(2020, 1, 1)
    dates = [start + timedelta(days=i) for i in range(t)]
    if sentiment is None:
        sentiment = np.zeros(t)
    return AlignedDataset(symbol, dates, features, np.asarray(sentiment, dtype=float))


def scaler_over(width=6):
    """A scaler of `width` features, each over [0, 1], for a model built by hand."""
    return ScalerParams(np.zeros(width), np.ones(width))


def gen_rows(histories, sentiments):
    """The generator's rows (N, L*6 + 1) of scaled histories (N, L, 6) and
    sentiments (N,), laid out as gan._conditioning lays them out."""
    return np.concatenate([np.reshape(histories, (len(histories), -1)),
                           np.asarray(sentiments)[:, None]], axis=1)


def holdout_split(windows):
    """The (train, held-out) windows of the GAN's split."""
    boundary = SPLITS["gan"](len(windows))
    return windows[:boundary], windows[boundary:]


def use_mini_sizes(monkeypatch):
    """Shrink ARIMA's order grid to (1, 1) and the LSTM to hidden size 8 and
    batches of 16, the sizes that keep the mini pipeline's runs fast."""
    monkeypatch.setattr(arima, "P_MAX", 1)
    monkeypatch.setattr(arima, "Q_MAX", 1)
    monkeypatch.setattr(lstm, "HIDDEN_SIZE", 8)
    monkeypatch.setattr(lstm, "BATCH_SIZE", 16)


@pytest.fixture()
def mini_sizes(monkeypatch):
    use_mini_sizes(monkeypatch)
