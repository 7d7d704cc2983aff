"""Sentiment-conditioned GAN over signed-scaled windows.

The generator maps a flattened L-day window plus the day's sentiment score
to the next-day six-attribute observation; the discriminator scores
(candidate, window, sentiment) triples. Training alternates discriminator
and generator Adam updates on the standard minimax objective, with the
non-saturating generator form. There is no latent noise input, so the
trained generator is a deterministic conditional forecaster. Each network's
parameters live in one flat vector `theta`, of which its layers' weights
and biases are views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CLOSE_COLUMN, WindowSample
from .errors import DataError, DimensionError, TrainingError, UsageError
from .nn import DenseLayer, backward, build_mlp, forward, pack
from .optim import AdamState, adam_step
from .scaling import ScalerParams, scaler_fit, scaler_inverse, scaler_transform

N_FEATURES = 6
SCALE_TOLERANCE = 1e-9
LOG_EPS = 1e-12

GEN_HIDDEN = (128, 64)
DISC_HIDDEN = (64, 32)


@dataclass
class _DenseNet:
    window_length: int
    layers: list
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.theta = pack(self.layers)

    def to_dict(self):
        layers = [{"weights": l.weights.tolist(), "bias": l.bias.tolist(),
                   "activation": l.activation} for l in self.layers]
        return {"window_length": self.window_length, "layers": layers}

    @classmethod
    def from_dict(cls, d):
        layers = [DenseLayer(e["weights"], e["bias"], e["activation"]) for e in d["layers"]]
        return cls(window_length=d["window_length"], layers=layers)


class Discriminator(_DenseNet):
    pass


@dataclass
class Generator(_DenseNet):
    scaler: ScalerParams | None = None

    def to_dict(self):
        return {**super().to_dict(),
                "scaler": self.scaler.to_dict() if self.scaler else None}

    @classmethod
    def from_dict(cls, d):
        # older artifacts also carry the size of a since-removed noise input
        # (always 0), which is ignored
        gen = super().from_dict(d)
        gen.scaler = ScalerParams.from_dict(d["scaler"]) if d.get("scaler") else None
        return gen


@dataclass
class GanSchedule:
    learning_rate: float = 0.0002
    batch_size: int = 5
    epochs: int = 300
    d_steps: int = 1
    supervised_weight: float = 0.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.epochs < 0 or self.d_steps < 1:
            raise UsageError("epochs must be >= 0 and d_steps >= 1")
        if self.learning_rate < 0 or self.supervised_weight < 0:
            raise UsageError("learning_rate and supervised_weight must be >= 0")


def build_generator(rng, window_length: int, hidden=GEN_HIDDEN) -> Generator:
    in_size = window_length * N_FEATURES + 1
    layers = build_mlp(rng, in_size, hidden, N_FEATURES, "relu", "tanh")
    return Generator(window_length=window_length, layers=layers)


def build_discriminator(rng, window_length: int, hidden=DISC_HIDDEN) -> Discriminator:
    in_size = N_FEATURES + window_length * N_FEATURES + 1
    layers = build_mlp(rng, in_size, hidden, 1, "leaky_relu", "sigmoid")
    return Discriminator(window_length=window_length, layers=layers)


def _check_scaled(values, what):
    if np.max(np.abs(values)) > 1.0 + SCALE_TOLERANCE:
        raise DataError(f"{what} exceeds the (-1, 1) scaled range")


def _gen_inputs(gen: Generator, histories, sentiments):
    """Flattened conditioning matrix (B, L*6 + 1); inputs scaled."""
    histories = np.asarray(histories, dtype=float)
    sentiments = np.asarray(sentiments, dtype=float)
    if histories.ndim != 3 or histories.shape[1:] != (gen.window_length, N_FEATURES):
        raise DimensionError(
            "generator history shape", (gen.window_length, N_FEATURES),
            histories.shape[1:],
        )
    _check_scaled(histories, "window history")
    _check_scaled(sentiments, "sentiment")
    return np.concatenate([histories.reshape(len(histories), -1), sentiments[:, None]],
                          axis=1)


def generator_forward(gen: Generator, window: WindowSample):
    """Next-day scaled observation (6,) for one already-scaled window."""
    x = _gen_inputs(gen, window.history[None, :, :], [window.sentiment])
    out, _ = forward(gen.layers, x)
    return out[0]


def discriminator_forward(disc: Discriminator, candidate, window: WindowSample) -> float:
    """Plausibility of the candidate next-day observation given the window."""
    candidate = np.asarray(candidate, dtype=float)
    if candidate.shape != (N_FEATURES,):
        raise DimensionError("discriminator candidate", (N_FEATURES,), candidate.shape)
    if window.history.shape != (disc.window_length, N_FEATURES):
        raise DimensionError(
            "discriminator window", (disc.window_length, N_FEATURES),
            window.history.shape,
        )
    x = np.concatenate([candidate, window.history.ravel(), [window.sentiment]])
    out, _ = forward(disc.layers, x[None, :])
    return float(out[0, 0])


def d_loss_value(real_scores, fake_scores) -> float:
    r = np.clip(real_scores, LOG_EPS, 1.0 - LOG_EPS)
    f = np.clip(fake_scores, LOG_EPS, 1.0 - LOG_EPS)
    return float(-np.mean(np.log(r)) - np.mean(np.log(1.0 - f)))


def g_loss_value(fake_scores) -> float:
    f = np.clip(fake_scores, LOG_EPS, 1.0 - LOG_EPS)
    return float(-np.mean(np.log(f)))


def _discriminator_grads(disc, real_in, fake_in):
    """Gradients of the discriminator loss
    -E[log D(real)] - E[log(1 - D(fake))] w.r.t. disc.theta."""
    b = len(real_in)
    real_out, real_caches = forward(disc.layers, real_in)
    fake_out, fake_caches = forward(disc.layers, fake_in)
    r = np.clip(real_out, LOG_EPS, 1.0 - LOG_EPS)
    f = np.clip(fake_out, LOG_EPS, 1.0 - LOG_EPS)
    g_real, _ = backward(disc.layers, real_caches, -1.0 / (b * r))
    g_fake, _ = backward(disc.layers, fake_caches, 1.0 / (b * (1.0 - f)))
    return d_loss_value(real_out, fake_out), g_real + g_fake


def _generator_grads(gen, disc, gen_in, real_targets=None, supervised_weight=0.0):
    """Non-saturating generator loss -E[log D(G(cond), cond)] and its
    gradient w.r.t. gen.theta; disc parameters are left untouched."""
    b = len(gen_in)
    fake, gen_caches = forward(gen.layers, gen_in)
    disc_in = np.concatenate([fake, gen_in], axis=1)
    score, disc_caches = forward(disc.layers, disc_in)
    s = np.clip(score, LOG_EPS, 1.0 - LOG_EPS)
    _, grad_disc_in = backward(disc.layers, disc_caches, -1.0 / (b * s))
    grad_fake = grad_disc_in[:, :N_FEATURES]
    loss = g_loss_value(score)
    if supervised_weight > 0.0 and real_targets is not None:
        err = fake - real_targets
        loss += supervised_weight * float(np.mean(err * err))
        grad_fake = grad_fake + supervised_weight * 2.0 * err / err.size
    grad, _ = backward(gen.layers, gen_caches, grad_fake)
    return loss, grad, fake


def train_step(gen, disc, batch, gen_adam, disc_adam, schedule: GanSchedule,
               step_index: int | None = None):
    """One alternating update on a pre-scaled batch: d_steps discriminator
    ascents, then one generator ascent. Returns (d_loss, g_loss)."""
    histories = np.stack([s.history for s in batch])
    sentiments = np.array([s.sentiment for s in batch])
    targets = np.stack([s.target for s in batch])
    _check_scaled(targets, "target observation")
    gen_in = _gen_inputs(gen, histories, sentiments)
    real_in = np.concatenate([targets, gen_in], axis=1)

    d_loss = g_loss = float("nan")
    for _ in range(schedule.d_steps):
        fake, _ = forward(gen.layers, gen_in)
        fake_in = np.concatenate([fake, gen_in], axis=1)
        d_loss, d_grad = _discriminator_grads(disc, real_in, fake_in)
        adam_step(disc_adam, disc.theta, d_grad)
    g_loss, g_grad, _ = _generator_grads(
        gen, disc, gen_in, real_targets=targets,
        supervised_weight=schedule.supervised_weight,
    )
    adam_step(gen_adam, gen.theta, g_grad)
    if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
        where = "" if step_index is None else f" at step {step_index}"
        raise TrainingError(f"adversarial training diverged (NaN loss){where}")
    return d_loss, g_loss


def _scaled_samples(scaler, samples):
    return [
        WindowSample(
            history=scaler_transform(scaler, s.history),
            sentiment=float(np.clip(s.sentiment, -1.0, 1.0)),
            target=scaler_transform(scaler, s.target[None, :])[0],
            target_date=s.target_date,
        )
        for s in samples
    ]


def train(samples: list[WindowSample], schedule: GanSchedule, seed: int,
          gen_hidden=GEN_HIDDEN, disc_hidden=DISC_HIDDEN):
    """Fixed-epoch adversarial training over contiguous batches; the batch
    order within each epoch is shuffled by the seed, the rows inside each
    batch stay chronological. Returns (generator, discriminator, log rows).

    Log rows are dicts: step, d_loss, g_loss."""
    if not samples:
        raise TrainingError("cannot train a GAN on an empty sample list")
    rng = np.random.default_rng(seed)
    window_length = samples[0].history.shape[0]
    gen = build_generator(rng, window_length, hidden=gen_hidden)
    disc = build_discriminator(rng, window_length, hidden=disc_hidden)
    feature_rows = np.vstack(
        [s.history for s in samples] + [s.target[None, :] for s in samples]
    )
    gen.scaler = scaler_fit(feature_rows, "signed", fitted_on="train")
    scaled = _scaled_samples(gen.scaler, samples)

    batches = [
        scaled[start : start + schedule.batch_size]
        for start in range(0, len(scaled), schedule.batch_size)
    ]
    gen_adam = AdamState(learning_rate=schedule.learning_rate)
    disc_adam = AdamState(learning_rate=schedule.learning_rate)
    log: list[dict] = []
    step = 0
    for _ in range(schedule.epochs):
        for batch_index in rng.permutation(len(batches)):
            d_loss, g_loss = train_step(
                gen, disc, batches[batch_index], gen_adam, disc_adam, schedule,
                step_index=step,
            )
            log.append({"step": step, "d_loss": d_loss, "g_loss": g_loss})
            step += 1
    return gen, disc, log


def predict(gen: Generator, window: WindowSample) -> float:
    """One-step close forecast on the original price scale from a raw
    (unscaled) window."""
    if gen.scaler is None:
        raise UsageError("generator has no fitted scaler; train first")
    # holdout context can drift past the train-fitted range; saturate at the
    # scale boundary instead of refusing to forecast
    scaled = WindowSample(
        history=np.clip(scaler_transform(gen.scaler, window.history), -1.0, 1.0),
        sentiment=float(np.clip(window.sentiment, -1.0, 1.0)),
        target=window.target,
        target_date=window.target_date,
    )
    out = generator_forward(gen, scaled)
    return float(scaler_inverse(gen.scaler, out[None, :])[0, CLOSE_COLUMN])
