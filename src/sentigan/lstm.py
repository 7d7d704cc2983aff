"""Single-layer LSTM baseline over scaled feature windows with a linear head.

Numeric-only: consumes the six scaled market attributes of a Windows stack's
histories, predicts the next scaled close. The four gates are stacked into
one input matrix, one recurrent matrix and one bias in `theta`.

The kernel is gate-major: each gate's data is one contiguous block.
`_signed_weights` makes transposed (4, D, H) and (4, H, H) copies per
forward pass, with the sigmoid gates negated, and `_step` computes one time
step's (4, B, H) pre-activations, gates and state for both passes. The
training forward writes every step into a `Workspace`: gates (4, L, B, H),
c and h (L+1, B, H) and tanh c (L, B, H). BPTT forms the recurrence-free
factors of the gate derivatives over those blocks in bulk, keeps only the
recurrence in its time loop, and makes dW, dU and db one product or sum
each over all L·B rows. Validation and `predict` keep one step of state.

Trained by truncated backpropagation through time with Adam, chronological
validation split, early stopping and plateau learning-rate decay.
Everything is seeded and deterministic.

The kernel, its Workspace and Adam run in the dtype of `theta`. `train`
draws the seeded weights in float64 and builds the model in float32
(DTYPE), rounding them once, with the scaled windows and targets, so a
trained model, and one loaded from its artifact, predicts in float32.
`initialize` builds float64 by default, as the gradient checks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CLOSE_COLUMN, FEATURE_COLUMNS, Windows, flat_floats, positive_ints
from .errors import TrainingError
from .nn import carve
from .optim import AdamState, adam_step
from .scaling import ScalerParams, close_inverse, scaler_fit_windows, scaler_transform

GATES = ("input", "forget", "output", "candidate")
# the dtype train trains in and a loaded model predicts in
DTYPE = np.float32
# the sign each gate's block takes in _signed_weights: -1 for the sigmoids;
# float32, so that a product keeps theta's dtype, float32 or float64
_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0], dtype=np.float32)[:, None, None]


class LstmModel:
    """All parameters live in the flat vector `theta`: the stacked input
    weights w (4H, D), recurrent weights u (4H, H) and bias b (4H,), whose
    row blocks are the gates in GATES order, then the head's (1, H) weights
    and (1,) bias. `w`, `u`, `b`, `head_weights` and `head_bias` are views
    of `theta`, and `grads` views of the gradient `grad` in the same layout,
    all carved once. `scaler` was fitted on the training windows. The
    artifact is `hidden_size`, `theta` and the scaler: the input size is
    always the 6 features."""

    def __init__(self, hidden_size: int, input_size: int, theta: np.ndarray,
                 scaler: ScalerParams):
        self.hidden_size, self.input_size = hidden_size, input_size
        self.theta, self.scaler = theta, scaler
        h, d = hidden_size, input_size
        shapes = [(4 * h, d), (4 * h, h), (4 * h,), (1, h), (1,)]
        self.w, self.u, self.b, self.head_weights, self.head_bias = carve(theta, shapes)
        self.grad = np.zeros_like(theta)
        self.grads = carve(self.grad, shapes)

    @classmethod
    def initialize(cls, rng, hidden_size: int, input_size: int,
                   scaler: ScalerParams, dtype=np.float64) -> "LstmModel":
        """Glorot-uniform weights and zero biases in `dtype`, drawn in
        float64: writing into a float32 theta rounds them as a cast would."""
        def glorot(w):
            bound = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-bound, bound, size=w.shape)

        h = hidden_size
        theta = np.zeros(4 * h * (input_size + h + 1) + h + 1, dtype=dtype)
        model = cls(h, input_size, theta, scaler)
        # this draw order (per gate in GATES order: w, then u; then the
        # head) fixes a seed's initial values
        for w, u in zip(np.split(model.w, len(GATES)), np.split(model.u, len(GATES))):
            glorot(w)
            glorot(u)
        glorot(model.head_weights)
        return model

    def to_dict(self):
        return {"hidden_size": self.hidden_size, "theta": self.theta.tolist(),
                "scaler": self.scaler.to_dict()}

    @classmethod
    def from_dict(cls, d):
        [h] = positive_ints([d["hidden_size"]], "LSTM hidden_size")
        return cls(h, len(FEATURE_COLUMNS), flat_floats(d["theta"], "LSTM theta", DTYPE),
                   ScalerParams.from_dict(d["scaler"]))


@dataclass
class TrainSchedule:
    """The LSTM's settings: the config's `lstm` section, checked by config._RULES."""

    hidden_size: int = 32
    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 200
    early_stop_patience: int = 10
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    validation_fraction: float = 0.15


def _signed_weights(model):
    """The stacked weights regrouped gate-major for one forward pass:
    transposed copies wt (4, D, H) and ut (4, H, H), and bt (4, 1, H). The
    three sigmoid gates' blocks are negated, so their pre-activation comes
    out exactly negated and σ is 1/(1 + exp(z))."""
    hs = model.hidden_size
    wt = (model.w.reshape(4, hs, -1) * _SIGNS).transpose(0, 2, 1).copy()
    ut = (model.u.reshape(4, hs, hs) * _SIGNS).transpose(0, 2, 1).copy()
    return wt, ut, model.b.reshape(4, 1, hs) * _SIGNS


def _step(weights, x, h, c, z, gates, c_out, tanh_c, h_out):
    """One time step of a batch, written into the given buffers: z (4, B, H)
    = x·Wᵀ + h·Uᵀ + b in the signed weights, then the gates (4, B, H) in
    GATES order, the new cell state c_out, tanh(c_out) and h_out. gates may
    be z, c_out may be c and h_out may be h. z is contiguous scratch: its
    bias add and exp run at full speed even where `gates` is a strided
    slice of a Workspace."""
    wt, ut, bt = weights
    np.matmul(x, wt, out=z)
    z += h @ ut
    z += bt
    sig = z[:3]
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=gates[:3])
    np.tanh(z[3], out=gates[3])
    i, f, o, cand = gates
    np.multiply(f, c, out=c_out)
    np.multiply(i, cand, out=tanh_c)
    c_out += tanh_c
    np.tanh(c_out, out=tanh_c)
    np.multiply(o, tanh_c, out=h_out)


class Workspace:
    """The training forward's record of one batch shape, reused by every
    batch of that shape, in the dtype of the model it serves. Each gate is
    one contiguous block: gates (4, L, B, H) in GATES order; c and h
    (L+1, B, H), whose index 0 is the zero initial state; tanh c (L, B, H);
    `z`, one step's (4, B, H) pre-activation scratch. The backward turns
    `dz` (4, L, B, H) and `dc_factor` (L, B, H) from the recurrence-free
    parts of the gate derivatives into dL/d(pre-activations), in place, and
    copies each step's dz batch-major into `dz_rows` (B, 4, H) for one
    product with u."""

    def __init__(self, batch: int, length: int, hidden: int, dtype=np.float64):
        self.z = np.empty((4, batch, hidden), dtype)
        self.gates = np.empty((4, length, batch, hidden), dtype)
        self.c = np.zeros((length + 1, batch, hidden), dtype)
        self.h = np.zeros((length + 1, batch, hidden), dtype)
        self.tanh_c = np.empty((length, batch, hidden), dtype)
        self.dz = np.empty((4, length, batch, hidden), dtype)
        self.dc_factor = np.empty((length, batch, hidden), dtype)
        self.dz_rows = np.empty((batch, 4, hidden), dtype)


def _forward_sequence(model, xs, ws=None):
    """xs: (B, L, D). Returns the head output (B,). Every step is kept in
    the Workspace `ws` if one is given, for _backward_sequence; otherwise
    only one step's state is. Both run the same _step arithmetic, so their outputs
    are bitwise equal. xs is cast to the dtype of model.theta."""
    xs = np.asarray(xs, dtype=model.theta.dtype)
    b, length, _ = xs.shape
    weights = _signed_weights(model)
    if ws is None:
        z = np.empty((4, b, model.hidden_size), xs.dtype)
        h, c, tanh_c = (np.zeros((b, model.hidden_size), xs.dtype) for _ in range(3))
        for t in range(length):
            _step(weights, xs[:, t], h, c, z, z, c, tanh_c, h)
    else:
        ws.h[0] = 0.0
        ws.c[0] = 0.0
        for t in range(length):
            _step(weights, xs[:, t], ws.h[t], ws.c[t], ws.z, ws.gates[:, t], ws.c[t + 1],
                  ws.tanh_c[t], ws.h[t + 1])
        h = ws.h[length]
    return (h @ model.head_weights.T + model.head_bias)[:, 0]


def _backward_sequence(model, xs, ws, grad_out):
    """BPTT through the sequence that _forward_sequence kept in the
    Workspace `ws` for the input xs (B, L, D); grad_out is dL/d(head
    output), (B,). Both are cast to the dtype of model.theta.

    Writes every element of dL/d(theta) into model.grads and returns
    model.grad, the flat vector they view."""
    dtype = model.theta.dtype
    xs, grad_out = np.asarray(xs, dtype), np.asarray(grad_out, dtype)
    length, b, hs = ws.tanh_c.shape
    dw, du, db, d_head_w, d_head_b = model.grads
    i, f, o, cand = ws.gates
    dz, dc_factor, dz_rows = ws.dz, ws.dc_factor, ws.dz_rows
    # dz first holds the recurrence-free factors of dL/dz, made in bulk; the
    # time loop multiplies them in place by (dc, dc, dh, dc) in GATES order
    np.subtract(1.0, ws.gates[:3], out=dz[:3])
    dz[:3] *= ws.gates[:3]
    dz[0] *= cand
    dz[1] *= ws.c[:-1]
    dz[2] *= ws.tanh_c
    np.multiply(cand, cand, out=dz[3])
    np.subtract(1.0, dz[3], out=dz[3])
    dz[3] *= i
    np.multiply(ws.tanh_c, ws.tanh_c, out=dc_factor)
    np.subtract(1.0, dc_factor, out=dc_factor)
    dc_factor *= o

    d_head_w[0] = grad_out @ ws.h[length]
    d_head_b[0] = grad_out.sum()
    dh = grad_out[:, None] * model.head_weights  # (B, H)
    dc = np.zeros_like(dh)
    scratch = np.empty_like(dh)
    for t in range(length - 1, -1, -1):
        np.multiply(dh, dc_factor[t], out=scratch)
        dc += scratch
        dz[:2, t] *= dc
        dz[3, t] *= dc
        dz[2, t] *= dh
        if t:
            dz_rows[...] = dz[:, t].transpose(1, 0, 2)
            np.matmul(dz_rows.reshape(b, 4 * hs), model.u, out=dh)
            dc *= f[t]
    rows = dz.reshape(4, length * b, hs)
    np.matmul(rows.transpose(0, 2, 1), xs.transpose(1, 0, 2).reshape(length * b, -1),
              out=dw.reshape(4, hs, -1))
    np.matmul(rows.transpose(0, 2, 1), ws.h[:-1].reshape(length * b, hs),
              out=du.reshape(4, hs, hs))
    # a product with ones: numpy's sum over the middle axis is several times slower
    np.matmul(np.ones(length * b, dtype), rows, out=db.reshape(4, hs))
    return model.grad


def sequence_loss(model, xs, targets, workspace=None):
    """MSE of the head output against scaled close targets, and the error,
    in the dtype of model.theta. A caller that backpropagates passes a
    Workspace for the forward to keep every step in."""
    err = _forward_sequence(model, xs, workspace) - np.asarray(targets, model.theta.dtype)
    return float(np.mean(err * err)), err


def train(windows: Windows, schedule: TrainSchedule, seed: int):
    """Fit on the chronologically earlier part of `windows`, early-stop on the
    trailing validation_fraction, return (model, log rows).

    Log rows are dicts: epoch, train_loss, val_loss, lr."""
    if schedule.max_epochs > 0 and len(windows) < 2 * schedule.batch_size:
        raise TrainingError(
            f"need at least {2 * schedule.batch_size} samples, got {len(windows)}"
        )
    rng = np.random.default_rng(seed)
    histories, targets = windows.histories, windows.targets
    # the scaler draws nothing from rng, so the seed's weights do not depend on it
    scaler = scaler_fit_windows(histories, targets)
    model = LstmModel.initialize(rng, schedule.hidden_size, histories.shape[-1], scaler, DTYPE)
    log: list[dict] = []
    if schedule.max_epochs == 0:
        return model, log

    n_val = max(1, int(round(schedule.validation_fraction * len(windows))))
    if len(windows) - n_val < 1:
        raise TrainingError(
            f"the validation split takes {n_val} of {len(windows)} windows, "
            "leaving none to train on"
        )
    xs = scaler_transform(model.scaler, histories).astype(DTYPE)
    ys = scaler_transform(model.scaler, targets)[:, CLOSE_COLUMN].astype(DTYPE)
    xs_train, y_train = xs[:-n_val], ys[:-n_val]
    xs_val, y_val = xs[-n_val:], ys[-n_val:]

    adam = AdamState(learning_rate=schedule.learning_rate)
    best_val = np.inf
    best_theta = None
    epochs_since_improvement = 0
    workspaces: dict[int, Workspace] = {}  # one per batch size
    # a saturating gate overflows np.exp, and a diverging run overflows on its
    # way to the non-finite loss or gradient that is refused as a TrainingError
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(schedule.max_epochs):
            batch_losses = []
            for start in range(0, len(xs_train), schedule.batch_size):
                xb = xs_train[start : start + schedule.batch_size]
                yb = y_train[start : start + schedule.batch_size]
                ws = workspaces.get(len(xb))
                if ws is None:
                    ws = workspaces[len(xb)] = Workspace(len(xb), xb.shape[1], model.hidden_size,
                                                         DTYPE)
                loss, err = sequence_loss(model, xb, yb, ws)
                if not np.isfinite(loss):
                    raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
                adam_step(adam, model.theta, _backward_sequence(model, xb, ws, 2.0 * err / len(yb)))
                batch_losses.append(loss)
            val_loss = sequence_loss(model, xs_val, y_val)[0]
            log.append(
                {"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                 "val_loss": val_loss, "lr": adam.learning_rate}
            )
            if val_loss < best_val:
                best_val = val_loss
                best_theta = model.theta.copy()
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
                if epochs_since_improvement >= schedule.early_stop_patience:
                    break
                if epochs_since_improvement % schedule.plateau_patience == 0:
                    adam.learning_rate *= schedule.plateau_factor
    if best_theta is not None:
        model.theta[...] = best_theta
    return model, log


def predict(model: LstmModel, windows: Windows) -> np.ndarray:
    """One-step close forecasts (N,) on the original price scale, one per
    window, from one batched forward pass."""
    out = _forward_sequence(model, scaler_transform(model.scaler, windows.histories))
    return close_inverse(model.scaler, out)
