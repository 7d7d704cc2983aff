from datetime import date, timedelta

import numpy as np

from sentigan.data import AlignedDataset, split_boundary


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


def holdout_split(windows):
    """The (train, held-out) windows of the holdout_last_20 policy."""
    boundary = split_boundary(len(windows), "holdout_last_20")
    return windows[:boundary], windows[boundary:]
