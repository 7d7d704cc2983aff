"""Single-layer LSTM baseline over scaled feature windows with a linear head.

Numeric-only: consumes the six scaled market attributes, predicts the next
scaled close. The four gates are stacked into one input matrix, one
recurrent matrix and one bias, so a time step is one product of each.
Trained by truncated backpropagation through time with Adam, chronological
validation split, early stopping and plateau learning-rate decay.
Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CLOSE_COLUMN, WindowSample
from .errors import DimensionError, TrainingError, UsageError
from .nn import carve
from .optim import AdamState, adam_step
from .scaling import ScalerParams, scaler_fit, scaler_transform

GATES = ("input", "forget", "output", "candidate")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class LstmModel:
    """All parameters live in the flat vector `theta`: the stacked input
    weights w (4H, D), recurrent weights u (4H, H) and bias b (4H,), whose
    row blocks are the gates in GATES order, then the head's (1, H) weights
    and (1,) bias. `w`, `u`, `b`, `head_weights` and `head_bias` are views
    into `theta`. The artifact keeps one {w, u, b} entry per gate."""

    hidden_size: int
    input_size: int
    w: np.ndarray
    u: np.ndarray
    b: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray
    scaler: ScalerParams | None = None
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        given = [self.w, self.u, self.b, self.head_weights, self.head_bias]
        shapes = [np.shape(a) for a in given]
        if shapes != self._shapes():
            raise DimensionError("LSTM parameter shapes", self._shapes(), shapes)
        self.theta = np.concatenate([np.ravel(a) for a in given], dtype=float)
        self.w, self.u, self.b, self.head_weights, self.head_bias = carve(
            self.theta, self._shapes())

    def _shapes(self):
        h, d = self.hidden_size, self.input_size
        return [(4 * h, d), (4 * h, h), (4 * h,), (1, h), (1,)]

    @classmethod
    def initialize(cls, rng, hidden_size: int, input_size: int) -> "LstmModel":
        def glorot(rows, cols):
            bound = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-bound, bound, size=(rows, cols))

        # this draw order (per gate in GATES order: w, then u) fixes a seed's
        # initial values
        blocks = [(glorot(hidden_size, input_size), glorot(hidden_size, hidden_size))
                  for _ in GATES]
        w, u = (np.vstack(stack) for stack in zip(*blocks))
        return cls(
            hidden_size=hidden_size, input_size=input_size,
            w=w, u=u, b=np.zeros(4 * hidden_size),
            head_weights=glorot(1, hidden_size),
            head_bias=np.zeros(1),
        )

    def to_dict(self):
        w, u, b = (np.split(a, len(GATES)) for a in (self.w, self.u, self.b))
        return {
            "hidden_size": self.hidden_size,
            "input_size": self.input_size,
            "gates": {name: {"w": w[j].tolist(), "u": u[j].tolist(), "b": b[j].tolist()}
                      for j, name in enumerate(GATES)},
            "head_weights": self.head_weights.tolist(),
            "head_bias": self.head_bias.tolist(),
            "scaler": self.scaler.to_dict() if self.scaler else None,
        }

    @classmethod
    def from_dict(cls, d):
        h, n = d["hidden_size"], d["input_size"]
        gates = [d["gates"][name] for name in GATES]
        for name, g in zip(GATES, gates):
            for key, shape in (("w", (h, n)), ("u", (h, h)), ("b", (h,))):
                if np.shape(g[key]) != shape:
                    raise DimensionError(f"LSTM {name} gate {key}", shape, np.shape(g[key]))
        w, u, b = (np.concatenate([g[key] for g in gates]) for key in "wub")
        return cls(
            hidden_size=h, input_size=n, w=w, u=u, b=b,
            head_weights=d["head_weights"],
            head_bias=d["head_bias"],
            scaler=ScalerParams.from_dict(d["scaler"]) if d.get("scaler") else None,
        )


@dataclass
class TrainSchedule:
    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 200
    early_stop_patience: int = 10
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    validation_fraction: float = 0.15

    def __post_init__(self):
        if not (0.0 < self.plateau_factor < 1.0):
            raise UsageError("plateau_factor must lie in (0, 1)")
        if self.early_stop_patience < 1 or self.plateau_patience < 1:
            raise UsageError("patience values must be >= 1")


def _step(model, x, h, c):
    """The gate equations for one time step, all four gates in one product.

    Returns the gate activations (i, f, o, cand) and the new (c, h)."""
    z = x @ model.w.T + h @ model.u.T + model.b
    hs = model.hidden_size
    z[..., : 3 * hs] = _sigmoid(z[..., : 3 * hs])
    z[..., 3 * hs :] = np.tanh(z[..., 3 * hs :])
    i, f, o, cand = z[..., :hs], z[..., hs : 2 * hs], z[..., 2 * hs : 3 * hs], z[..., 3 * hs :]
    c_new = f * c + i * cand
    h_new = o * np.tanh(c_new)
    return i, f, o, cand, c_new, h_new


def cell_forward(model: LstmModel, x, state):
    """One LSTM step. x: (D,) or (B, D); state: (h, c) of matching shape."""
    h, c = state
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.input_size:
        raise DimensionError("LSTM input size", model.input_size, x.shape[-1])
    *_, c_new, h_new = _step(model, x, h, c)
    return h_new, c_new


def _forward_sequence(model, xs):
    """xs: (B, L, D). Returns per-step caches and the head output (B,)."""
    b, length, _ = xs.shape
    h = np.zeros((b, model.hidden_size))
    c = np.zeros((b, model.hidden_size))
    caches = []
    for t in range(length):
        x = xs[:, t, :]
        *gates, c_new, h_new = _step(model, x, h, c)
        caches.append((x, h, c, *gates, c_new))
        h, c = h_new, c_new
    out = (h @ model.head_weights.T + model.head_bias)[:, 0]
    return out, h, caches


def _backward_sequence(model, caches, final_h, grad_out):
    """BPTT through the cached sequence; grad_out is dL/d(head output), (B,).

    Returns dL/d(theta), one flat vector in theta's layout."""
    grad = np.zeros_like(model.theta)
    dw, du, db, d_head_w, d_head_b = carve(grad, model._shapes())
    d_head_w[...] = grad_out[:, None].T @ final_h
    d_head_b[0] = grad_out.sum()
    dh = grad_out[:, None] * model.head_weights  # (B, H)
    dc = np.zeros_like(dh)
    for x, h_prev, c_prev, i, f, o, cand, c in reversed(caches):
        tc = np.tanh(c)
        dc = dc + dh * o * (1.0 - tc * tc)
        # d(loss)/d(pre-activations) of the stacked gates, in GATES order
        dz = np.concatenate([dc * cand * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dh * tc * o * (1.0 - o), dc * i * (1.0 - cand * cand)], axis=1)
        dw += dz.T @ x
        du += dz.T @ h_prev
        db += dz.sum(axis=0)
        dh = dz @ model.u
        dc = dc * f
    return grad


def sequence_loss(model, xs, targets):
    """MSE of the head output against scaled close targets; also returns the
    pieces needed for the gradient."""
    out, final_h, caches = _forward_sequence(model, xs)
    err = out - targets
    return float(np.mean(err * err)), out, final_h, caches, err


def _scale_windows(scaler, samples):
    xs = np.stack([scaler_transform(scaler, s.history) for s in samples])
    targets = np.array(
        [scaler_transform(scaler, s.target[None, :])[0, CLOSE_COLUMN] for s in samples]
    )
    return xs, targets


def train(samples: list[WindowSample], schedule: TrainSchedule, seed: int,
          hidden_size: int = 32):
    """Fit on the chronologically earlier part of `samples`, early-stop on the
    trailing validation_fraction, return (model, log rows).

    Log rows are dicts: epoch, train_loss, val_loss, lr."""
    if schedule.max_epochs > 0 and len(samples) < 2 * schedule.batch_size:
        raise TrainingError(
            f"need at least {2 * schedule.batch_size} samples, got {len(samples)}"
        )
    rng = np.random.default_rng(seed)
    input_size = samples[0].history.shape[1]
    model = LstmModel.initialize(rng, hidden_size, input_size)
    feature_rows = np.vstack([s.history for s in samples] + [s.target[None, :] for s in samples])
    model.scaler = scaler_fit(feature_rows, "unit", fitted_on="train")
    log: list[dict] = []
    if schedule.max_epochs == 0:
        return model, log

    n_val = max(1, int(round(schedule.validation_fraction * len(samples))))
    train_samples = samples[:-n_val]
    val_samples = samples[-n_val:]
    xs_train, y_train = _scale_windows(model.scaler, train_samples)
    xs_val, y_val = _scale_windows(model.scaler, val_samples)

    adam = AdamState(learning_rate=schedule.learning_rate)
    lr = schedule.learning_rate
    best_val = np.inf
    best_theta = None
    epochs_since_improvement = 0
    epochs_since_plateau_reset = 0
    for epoch in range(schedule.max_epochs):
        adam.learning_rate = lr
        batch_losses = []
        for start in range(0, len(train_samples), schedule.batch_size):
            xb = xs_train[start : start + schedule.batch_size]
            yb = y_train[start : start + schedule.batch_size]
            loss, out, final_h, caches, err = sequence_loss(model, xb, yb)
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged (NaN loss) at epoch {epoch}")
            grad_out = 2.0 * err / len(yb)
            adam_step(adam, model.theta, _backward_sequence(model, caches, final_h, grad_out))
            batch_losses.append(loss)
        val_loss = sequence_loss(model, xs_val, y_val)[0]
        log.append(
            {"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
             "val_loss": val_loss, "lr": lr}
        )
        if val_loss < best_val:
            best_val = val_loss
            best_theta = model.theta.copy()
            epochs_since_improvement = 0
            epochs_since_plateau_reset = 0
        else:
            epochs_since_improvement += 1
            epochs_since_plateau_reset += 1
            if epochs_since_improvement >= schedule.early_stop_patience:
                break
            if epochs_since_plateau_reset >= schedule.plateau_patience:
                lr *= schedule.plateau_factor
                epochs_since_plateau_reset = 0
    if best_theta is not None:
        model.theta[...] = best_theta
    return model, log


def predict(model: LstmModel, window: WindowSample) -> float:
    """One-step close forecast on the original price scale."""
    if model.scaler is None:
        raise UsageError("model has no fitted scaler; train first")
    xs = scaler_transform(model.scaler, window.history)[None, :, :]
    out, _, _ = _forward_sequence(model, xs)
    lo = model.scaler.per_feature_min[CLOSE_COLUMN]
    hi = model.scaler.per_feature_max[CLOSE_COLUMN]
    return float(lo + out[0] * (hi - lo))
