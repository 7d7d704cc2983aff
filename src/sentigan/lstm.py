"""Single-layer LSTM baseline over scaled feature windows with a linear head.

Numeric-only: consumes the six scaled market attributes, predicts the next
scaled close. Trained by truncated backpropagation through time with Adam,
chronological validation split, early stopping and plateau learning-rate
decay. Everything is seeded and deterministic.
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
GATE_KEYS = ("w", "u", "b")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class LstmModel:
    """All parameters live in the flat vector `theta`: per gate, in GATES
    order, input weights w (H, D), recurrent weights u (H, H) and bias b (H,),
    then the head's (1, H) weights and (1,) bias. `gates[name][key]`,
    `head_weights` and `head_bias` are views into `theta` (see `views_of`)."""

    hidden_size: int
    input_size: int
    gates: dict
    head_weights: np.ndarray
    head_bias: np.ndarray
    scaler: ScalerParams | None = None
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        given = [self.gates[n][k] for n in GATES for k in GATE_KEYS]
        given += [self.head_weights, self.head_bias]
        shapes = [np.shape(a) for a in given]
        if shapes != self._shapes():
            raise DimensionError("LSTM parameter shapes", self._shapes(), shapes)
        self.theta = np.concatenate([np.ravel(a) for a in given], dtype=float)
        self.gates, self.head_weights, self.head_bias = self.views_of(self.theta)

    def _shapes(self):
        h, d = self.hidden_size, self.input_size
        return [(h, d), (h, h), (h,)] * len(GATES) + [(1, h), (1,)]

    def views_of(self, flat):
        """(gates, head_weights, head_bias) views of theta or of its gradient."""
        views = carve(flat, self._shapes())
        gates = {name: dict(zip(GATE_KEYS, views[3 * j : 3 * j + 3]))
                 for j, name in enumerate(GATES)}
        return gates, views[-2], views[-1]

    @classmethod
    def initialize(cls, rng, hidden_size: int, input_size: int) -> "LstmModel":
        def glorot(rows, cols):
            bound = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-bound, bound, size=(rows, cols))

        gates = {name: {"w": glorot(hidden_size, input_size),
                        "u": glorot(hidden_size, hidden_size),
                        "b": np.zeros(hidden_size)} for name in GATES}
        return cls(
            hidden_size=hidden_size,
            input_size=input_size,
            gates=gates,
            head_weights=glorot(1, hidden_size),
            head_bias=np.zeros(1),
        )

    def to_dict(self):
        return {
            "hidden_size": self.hidden_size,
            "input_size": self.input_size,
            "gates": {
                name: {k: v.tolist() for k, v in g.items()}
                for name, g in self.gates.items()
            },
            "head_weights": self.head_weights.tolist(),
            "head_bias": self.head_bias.tolist(),
            "scaler": self.scaler.to_dict() if self.scaler else None,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            hidden_size=d["hidden_size"],
            input_size=d["input_size"],
            gates=d["gates"],
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


def _step(g, x, h, c):
    """The gate equations for one time step; g is LstmModel.gates.

    Returns the gate activations (i, f, o, cand) and the new (c, h)."""
    i = _sigmoid(x @ g["input"]["w"].T + h @ g["input"]["u"].T + g["input"]["b"])
    f = _sigmoid(x @ g["forget"]["w"].T + h @ g["forget"]["u"].T + g["forget"]["b"])
    o = _sigmoid(x @ g["output"]["w"].T + h @ g["output"]["u"].T + g["output"]["b"])
    cand = np.tanh(
        x @ g["candidate"]["w"].T + h @ g["candidate"]["u"].T + g["candidate"]["b"]
    )
    c_new = f * c + i * cand
    h_new = o * np.tanh(c_new)
    return i, f, o, cand, c_new, h_new


def cell_forward(model: LstmModel, x, state):
    """One LSTM step. x: (D,) or (B, D); state: (h, c) of matching shape."""
    h, c = state
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.input_size:
        raise DimensionError("LSTM input size", model.input_size, x.shape[-1])
    *_, c_new, h_new = _step(model.gates, x, h, c)
    return h_new, c_new


def _forward_sequence(model, xs):
    """xs: (B, L, D). Returns per-step caches and the head output (B,)."""
    b, length, _ = xs.shape
    h = np.zeros((b, model.hidden_size))
    c = np.zeros((b, model.hidden_size))
    caches = []
    for t in range(length):
        x = xs[:, t, :]
        i, f, o, cand, c_new, h_new = _step(model.gates, x, h, c)
        caches.append({"x": x, "h_prev": h, "c_prev": c, "i": i, "f": f, "o": o,
                       "cand": cand, "c": c_new})
        h, c = h_new, c_new
    out = (h @ model.head_weights.T + model.head_bias)[:, 0]
    return out, h, caches


def _backward_sequence(model, caches, final_h, grad_out):
    """BPTT through the cached sequence; grad_out is dL/d(head output), (B,).

    Returns dL/d(theta), one flat vector in theta's layout."""
    g = model.gates
    grad = np.zeros_like(model.theta)
    grads, d_head_w, d_head_b = model.views_of(grad)
    d_head_w[...] = grad_out[:, None].T @ final_h
    d_head_b[0] = grad_out.sum()
    dh = grad_out[:, None] * model.head_weights  # (B, H)
    dc = np.zeros_like(dh)
    for cache in reversed(caches):
        i, f, o, cand, c = cache["i"], cache["f"], cache["o"], cache["cand"], cache["c"]
        tc = np.tanh(c)
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        df = dc * cache["c_prev"]
        di = dc * cand
        dcand = dc * i
        dzi = di * i * (1.0 - i)
        dzf = df * f * (1.0 - f)
        dzo = do * o * (1.0 - o)
        dzc = dcand * (1.0 - cand * cand)
        for name, dz in (("input", dzi), ("forget", dzf), ("output", dzo),
                         ("candidate", dzc)):
            grads[name]["w"] += dz.T @ cache["x"]
            grads[name]["u"] += dz.T @ cache["h_prev"]
            grads[name]["b"] += dz.sum(axis=0)
        dh = (dzi @ g["input"]["u"] + dzf @ g["forget"]["u"]
              + dzo @ g["output"]["u"] + dzc @ g["candidate"]["u"])
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
