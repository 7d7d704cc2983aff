"""Sentiment-conditioned GAN over signed-scaled windows.

The generator maps a flattened L-day window plus the day's sentiment score
to the next-day six-attribute observation; the discriminator scores
(candidate, window, sentiment) triples. Training alternates discriminator
and generator Adam updates on the standard minimax objective, with the
non-saturating generator form. A step runs the generator forward once and
scores real and fake rows in one stacked discriminator pass. There is no
latent noise input, so the trained generator is a deterministic conditional
forecaster. Each network's parameters live in one flat vector `theta`, of
which its layers' weights and biases are views, and its gradient in `grad`,
laid out alike; backward() fills `grad` through views carved once.

`train` fits K members (one asset's training windows each) in lockstep: the
networks carry a leading member axis, so a step is one pass per job for all
members.
Every member starts from the same seeded weights and sees the same batch
order, so each result equals training that member alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CLOSE_COLUMN, Windows, finite_floats
from .errors import DataError, DimensionError, SentiganError, TrainingError, UsageError
from .nn import DenseLayer, backward, build_mlp, carve, forward, layer_shapes, pack
from .optim import AdamState, adam_step
from .scaling import ScalerParams, scaler_fit_windows, scaler_inverse, scaler_transform

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
    grad: np.ndarray = field(init=False, repr=False)
    grads: list = field(init=False, repr=False)  # per-array views of grad

    def __post_init__(self):
        self.theta = pack(self.layers)
        self.grad = np.zeros_like(self.theta)
        self.grads = carve(self.grad, layer_shapes(self.layers))

    def stacked(self, count: int):
        """`count` copies of this network along a leading member axis."""
        layers = [DenseLayer(np.repeat(l.weights[None], count, axis=0),
                             np.repeat(l.bias[None], count, axis=0), l.activation)
                  for l in self.layers]
        return type(self)(self.window_length, layers)

    def member(self, k: int):
        """A copy of member k of a stacked network."""
        layers = [DenseLayer(l.weights[k], l.bias[k], l.activation) for l in self.layers]
        return type(self)(self.window_length, layers)

    def to_dict(self):
        layers = [{"weights": l.weights.tolist(), "bias": l.bias.tolist(),
                   "activation": l.activation} for l in self.layers]
        return {"window_length": self.window_length, "layers": layers}

    @classmethod
    def from_dict(cls, d):
        layers = [DenseLayer(finite_floats(e["weights"], "layer weights"),
                             finite_floats(e["bias"], "layer bias"), e["activation"])
                  for e in d["layers"]]
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
        sizes = [gen.window_length * N_FEATURES + 1, *(len(l.bias) for l in gen.layers)]
        expected = list(zip(sizes[1:], sizes[:-1]))
        shapes = [l.weights.shape for l in gen.layers]
        if shapes != expected or sizes[-1] != N_FEATURES:
            raise DimensionError("generator layer shapes, ending in "
                                 f"{N_FEATURES} outputs", expected, shapes)
        gen.scaler = ScalerParams.from_dict(d["scaler"]) if d.get("scaler") else None
        if gen.scaler is not None and len(gen.scaler.per_feature_min) != N_FEATURES:
            raise DimensionError("generator scaler length", N_FEATURES,
                                 len(gen.scaler.per_feature_min))
        return gen


@dataclass
class GanSchedule:
    learning_rate: float = 0.0002
    batch_size: int = 5
    epochs: int = 300

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0 or self.learning_rate < 0:
            raise UsageError("batch_size must be >= 1, epochs and learning_rate >= 0")


def build_generator(rng, window_length: int, hidden=GEN_HIDDEN) -> Generator:
    in_size = window_length * N_FEATURES + 1
    layers = build_mlp(rng, in_size, hidden, N_FEATURES, "relu", "tanh")
    return Generator(window_length=window_length, layers=layers)


def build_discriminator(rng, window_length: int, hidden=DISC_HIDDEN) -> Discriminator:
    in_size = N_FEATURES + window_length * N_FEATURES + 1
    layers = build_mlp(rng, in_size, hidden, 1, "leaky_relu", "sigmoid")
    return Discriminator(window_length=window_length, layers=layers)


def _check_scaled(values, what):
    if not np.all(np.abs(values) <= 1.0 + SCALE_TOLERANCE):
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


def _batch_mean(x):
    """Mean over the last two (batch, column) axes, one value per member."""
    return np.mean(x, axis=(-2, -1))


def d_loss_value(real_scores, fake_scores):
    """-E[log D(real)] - E[log(1 - D(fake))] of (..., B, 1) scores."""
    r = np.clip(real_scores, LOG_EPS, 1.0 - LOG_EPS)
    f = np.clip(fake_scores, LOG_EPS, 1.0 - LOG_EPS)
    return -_batch_mean(np.log(r)) - _batch_mean(np.log(1.0 - f))


def g_loss_value(fake_scores):
    """-E[log D(fake)] of (..., B, 1) scores."""
    f = np.clip(fake_scores, LOG_EPS, 1.0 - LOG_EPS)
    return -_batch_mean(np.log(f))


def _discriminator_grads(disc, real_in, fake_in):
    """The discriminator loss -E[log D(real)] - E[log(1 - D(fake))], from one
    forward and one backward pass over the real rows stacked on the fake;
    its gradient w.r.t. disc.theta lands in disc.grad."""
    b = real_in.shape[-2]
    out, caches = forward(disc.layers, np.concatenate([real_in, fake_in], axis=-2))
    s = np.clip(out, LOG_EPS, 1.0 - LOG_EPS)
    grad_out = np.concatenate([-1.0 / (b * s[..., :b, :]), 1.0 / (b * (1.0 - s[..., b:, :]))],
                              axis=-2)
    backward(disc.layers, caches, grad_out, disc.grads)
    return d_loss_value(out[..., :b, :], out[..., b:, :])


def _generator_grads(gen, disc, fake_in, gen_caches):
    """Non-saturating generator loss -E[log D(G(cond), cond)], given the
    discriminator's input fake_in = (G(cond), cond) and the generator's
    caches; its gradient w.r.t. gen.theta lands in gen.grad, and disc
    parameters and gradient are left untouched."""
    b = fake_in.shape[-2]
    score, disc_caches = forward(disc.layers, fake_in)
    s = np.clip(score, LOG_EPS, 1.0 - LOG_EPS)
    grad_fake = backward(disc.layers, disc_caches, -1.0 / (b * s))[..., :N_FEATURES]
    backward(gen.layers, gen_caches, grad_fake, gen.grads)
    return g_loss_value(score)


def train_step(gen, disc, gen_in, targets, gen_adam, disc_adam):
    """One alternating update on a pre-scaled batch of conditioning rows
    gen_in (K, B, L*6 + 1) and targets (K, B, 6) of stacked networks, or
    without the member axis for one network pair: one discriminator ascent
    on one generator forward pass, then one generator ascent on the same
    pass. Returns (d_loss, g_loss), one per member."""
    real_in = np.concatenate([targets, gen_in], axis=-1)
    fake, gen_caches = forward(gen.layers, gen_in)
    fake_in = np.concatenate([fake, gen_in], axis=-1)
    d_loss = _discriminator_grads(disc, real_in, fake_in)
    adam_step(disc_adam, disc.theta, disc.grad)
    g_loss = _generator_grads(gen, disc, fake_in, gen_caches)
    adam_step(gen_adam, gen.theta, gen.grad)
    return d_loss, g_loss


def _member_inputs(gen, windows: Windows):
    """A member's scaler, fitted on its windows, and its scaled conditioning
    rows (N, L*6 + 1) and targets (N, 6), range-checked once."""
    scaler = scaler_fit_windows(windows.histories, windows.targets, "signed")
    gen_in = _gen_inputs(gen, scaler_transform(scaler, windows.histories),
                         np.clip(windows.sentiments, -1.0, 1.0))
    targets = scaler_transform(scaler, windows.targets)
    _check_scaled(targets, "target observation")
    return scaler, gen_in, targets


def _setup(members, rng, gen_hidden, disc_hidden):
    """The seeded (generator, discriminator) pair, and each member's scaler,
    conditioning rows and targets, the last two stacked (K, N, ...)."""
    inputs = []
    for k, windows in enumerate(members):
        if not windows:
            raise TrainingError("cannot train a GAN on an empty sample list", member=k)
        if not inputs:
            n = len(windows)
            window_length = windows.histories.shape[1]
            gen = build_generator(rng, window_length, hidden=gen_hidden)
            disc = build_discriminator(rng, window_length, hidden=disc_hidden)
        elif len(windows) != n:
            raise UsageError(f"lockstep members need equal sample counts, got "
                             f"{n} and {len(windows)}")
        try:
            inputs.append(_member_inputs(gen, windows))
        except SentiganError as e:
            e.member = k
            raise
    if not inputs:
        raise UsageError("gan.train needs at least one member")
    scalers, gen_ins, targets = zip(*inputs)
    return gen, disc, scalers, np.stack(gen_ins), np.stack(targets)


def _fit(gen, disc, gen_in, targets, schedule: GanSchedule, rng):
    """Run the epochs on the stacked pair in place; returns the losses
    (steps, 2, K)."""
    gen_adam = AdamState(learning_rate=schedule.learning_rate)
    disc_adam = AdamState(learning_rate=schedule.learning_rate)
    starts = range(0, gen_in.shape[1], schedule.batch_size)
    losses = np.empty((schedule.epochs * len(starts), 2, len(gen_in)))
    step = 0
    for _ in range(schedule.epochs):
        for batch_index in rng.permutation(len(starts)):
            batch = slice(starts[batch_index], starts[batch_index] + schedule.batch_size)
            losses[step] = train_step(gen, disc, gen_in[:, batch], targets[:, batch],
                                      gen_adam, disc_adam)
            finite = np.isfinite(losses[step]).all(axis=0)
            if not finite.all():
                raise TrainingError(f"adversarial training diverged (NaN loss) at step {step}",
                                    member=int(np.argmin(finite)))
            step += 1
    return losses


def train(members, schedule: GanSchedule, seed: int,
          gen_hidden=GEN_HIDDEN, disc_hidden=DISC_HIDDEN):
    """Fixed-epoch adversarial training of every member, the training
    Windows of one asset each, all of one length, in lockstep over
    contiguous batches; the batch order within each epoch is shuffled by the
    seed, the rows inside each batch stay chronological. `members` is read
    once, in order.

    Returns one (generator, discriminator, log) per member; the log is a
    (steps, 2) array of each step's discriminator and generator loss. An
    error of one member carries its index as `member`."""
    rng = np.random.default_rng(seed)
    gen, disc, scalers, gen_in, targets = _setup(members, rng, gen_hidden, disc_hidden)
    gen, disc = gen.stacked(len(scalers)), disc.stacked(len(scalers))
    losses = _fit(gen, disc, gen_in, targets, schedule, rng)
    results = []
    for k, scaler in enumerate(scalers):
        member_gen = gen.member(k)
        member_gen.scaler = scaler
        results.append((member_gen, disc.member(k), losses[..., k]))
    return results


def predict(gen: Generator, windows: Windows) -> np.ndarray:
    """One-step close forecasts (N,) on the original price scale, one per raw
    (unscaled) window of `windows`, from one batched generator pass."""
    if gen.scaler is None:
        raise UsageError("generator has no fitted scaler; train first")
    # holdout context can drift past the train-fitted range; saturate at the
    # scale boundary instead of refusing to forecast
    histories = np.clip(scaler_transform(gen.scaler, windows.histories), -1.0, 1.0)
    x = _gen_inputs(gen, histories, np.clip(windows.sentiments, -1.0, 1.0))
    out, _ = forward(gen.layers, x)
    return scaler_inverse(gen.scaler, out)[:, CLOSE_COLUMN]
