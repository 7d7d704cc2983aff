"""Sentiment-conditioned GAN over windows scaled to [-1, 1], its tanh range.

The generator maps a flattened L-day window plus the day's sentiment score
to the next-day six-attribute observation; the discriminator scores
(candidate, window, sentiment) triples. Training alternates discriminator
and generator Adam updates on the standard minimax objective, with the
non-saturating generator form. A step runs the generator forward once and
scores real and fake rows in one stacked discriminator pass. There is no
latent noise input, so the trained generator is a deterministic conditional
forecaster. One function, _conditioning, builds the generator's rows for
training and for forecasting: scaled histories clipped to [-1, 1], then
sentiment. Each network's parameters live in one flat vector `theta`, of
which its layers' weights and biases are views, and its gradient in `grad`,
laid out alike; backward() fills `grad` through views carved once.

`train` fits K members (one asset's training windows each) in lockstep: the
networks carry a leading member axis, so a step is one pass per job for all
members.
Every member starts from the same seeded weights and sees the same batch
order, so each result equals training that member alone.

`train` runs in float32 (DTYPE): _setup rounds the seeded float64 weights,
the conditioning rows and the targets to it once, and nn and optim keep the
dtype of theta, so a trained generator, and one loaded from its artifact,
predicts in float32. build_generator and build_discriminator stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CLOSE_COLUMN, Windows, flat_floats, positive_ints
from .errors import DimensionError, SentiganError, TrainingError, UsageError
from .nn import Dense, backward, build_mlp, forward
from .optim import AdamState, adam_step
from .scaling import ScalerParams, close_inverse, scaler_fit_windows, scaler_transform

N_FEATURES = 6
LOG_EPS = 1e-12
# the dtype gan.train trains in and a loaded generator predicts in
DTYPE = np.float32
# the generator's hidden and output activations
GEN_ACTIVATIONS = ("relu", "tanh")
# both networks' Adam learning rate, the DCGAN rate (Radford et al. 2016)
LEARNING_RATE = 0.0002


class Generator(Dense):
    """A trained generator: the network, the scaler fitted on its training
    windows and its artifact format."""

    def __init__(self, sizes, activations, theta, scaler: ScalerParams):
        super().__init__(sizes, activations, theta)
        # its input is a flattened (window_length, 6) window and the day's sentiment
        self.window_length = (self.sizes[0] - 1) // N_FEATURES
        self.scaler = scaler

    def to_dict(self):
        return {"window_length": self.window_length, "hidden": list(self.sizes[1:-1]),
                "theta": self.theta.tolist(), "scaler": self.scaler.to_dict()}

    @classmethod
    def from_dict(cls, d):
        window_length, *hidden = positive_ints([d["window_length"], *d["hidden"]],
                                               "generator window_length and hidden widths")
        return cls([window_length * N_FEATURES + 1, *hidden, N_FEATURES],
                   [GEN_ACTIVATIONS[0]] * len(hidden) + [GEN_ACTIVATIONS[1]],
                   flat_floats(d["theta"], "generator theta", DTYPE),
                   ScalerParams.from_dict(d["scaler"]))


@dataclass
class GanSchedule:
    """The GAN's settings: the config's `gan` section, checked by config._RULES."""

    batch_size: int = 5
    epochs: int = 300
    gen_hidden: tuple = (128, 64)
    disc_hidden: tuple = (64, 32)


def build_generator(rng, window_length: int, hidden) -> Dense:
    return build_mlp(rng, window_length * N_FEATURES + 1, hidden, N_FEATURES, *GEN_ACTIVATIONS)


def build_discriminator(rng, window_length: int, hidden) -> Dense:
    in_size = N_FEATURES + window_length * N_FEATURES + 1
    return build_mlp(rng, in_size, hidden, 1, "leaky_relu", "sigmoid")


def _to_tanh_range(unit):
    """Min-max scaled [0, 1] values mapped to [-1, 1], the range of the
    generator's tanh output."""
    return 2.0 * unit - 1.0


def _gen_inputs(histories, sentiments):
    """Flattened conditioning matrix (B, L*6 + 1); inputs scaled. The
    generator's first layer checks L."""
    histories = np.asarray(histories, dtype=float)
    sentiments = np.asarray(sentiments, dtype=float)
    if histories.ndim != 3 or histories.shape[2] != N_FEATURES:
        raise DimensionError("generator history shape", ("L", N_FEATURES), histories.shape[1:])
    return np.concatenate([histories.reshape(len(histories), -1), sentiments[:, None]],
                          axis=1)


def _batch_mean(x):
    """Mean over the last two (batch, column) axes, one value per member."""
    return np.mean(x, axis=(-2, -1))


def _clip_scores(scores):
    """Scores clipped to [LOG_EPS, 1 - LOG_EPS], or below 1 by the dtype's
    spacing where 1 - LOG_EPS rounds to 1 (float32), so that log(s),
    log(1 - s), 1/s and 1/(1 - s) stay finite."""
    return np.clip(scores, LOG_EPS, 1.0 - max(LOG_EPS, np.finfo(scores.dtype).epsneg))


def d_loss_value(real_scores, fake_scores):
    """-E[log D(real)] - E[log(1 - D(fake))] of (..., B, 1) scores."""
    r = _clip_scores(real_scores)
    f = _clip_scores(fake_scores)
    return -_batch_mean(np.log(r)) - _batch_mean(np.log(1.0 - f))


def g_loss_value(fake_scores):
    """-E[log D(fake)] of (..., B, 1) scores."""
    return -_batch_mean(np.log(_clip_scores(fake_scores)))


def _discriminator_grads(disc, real_in, fake_in):
    """The discriminator loss -E[log D(real)] - E[log(1 - D(fake))], from one
    forward and one backward pass over the real rows stacked on the fake;
    its gradient w.r.t. disc.theta lands in disc.grad."""
    b = real_in.shape[-2]
    out, caches = forward(disc, np.concatenate([real_in, fake_in], axis=-2))
    s = _clip_scores(out)
    grad_out = np.concatenate([-1.0 / (b * s[..., :b, :]), 1.0 / (b * (1.0 - s[..., b:, :]))],
                              axis=-2)
    backward(disc, caches, grad_out, disc.grads)
    return d_loss_value(out[..., :b, :], out[..., b:, :])


def _generator_grads(gen, disc, fake_in, gen_caches):
    """Non-saturating generator loss -E[log D(G(cond), cond)], given the
    discriminator's input fake_in = (G(cond), cond) and the generator's
    caches; its gradient w.r.t. gen.theta lands in gen.grad, and disc
    parameters and gradient are left untouched."""
    b = fake_in.shape[-2]
    score, disc_caches = forward(disc, fake_in)
    s = _clip_scores(score)
    grad_fake = backward(disc, disc_caches, -1.0 / (b * s))[..., :N_FEATURES]
    backward(gen, gen_caches, grad_fake, gen.grads)
    return g_loss_value(score)


def train_step(gen, disc, gen_in, targets, gen_adam, disc_adam):
    """One alternating update on a pre-scaled batch of conditioning rows
    gen_in (K, B, L*6 + 1) and targets (K, B, 6) of stacked networks, or
    without the member axis for one network pair: one discriminator ascent
    on one generator forward pass, then one generator ascent on the same
    pass. Returns (d_loss, g_loss), one per member."""
    real_in = np.concatenate([targets, gen_in], axis=-1)
    fake, gen_caches = forward(gen, gen_in)
    fake_in = np.concatenate([fake, gen_in], axis=-1)
    d_loss = _discriminator_grads(disc, real_in, fake_in)
    adam_step(disc_adam, disc.theta, disc.grad)
    g_loss = _generator_grads(gen, disc, fake_in, gen_caches)
    adam_step(gen_adam, gen.theta, gen.grad)
    return d_loss, g_loss


def _conditioning(scaler: ScalerParams, windows: Windows):
    """The generator's rows (N, L*6 + 1) of raw windows: histories scaled by
    `scaler` and mapped to the tanh range, then sentiment. Training rows lie
    in the range already; forecast windows can drift past the train-fitted
    range, and saturate at its boundary instead of being refused."""
    histories = np.clip(_to_tanh_range(scaler_transform(scaler, windows.histories)), -1.0, 1.0)
    return _gen_inputs(histories, np.clip(windows.sentiments, -1.0, 1.0))


def _setup(members, rng, schedule: GanSchedule):
    """The seeded (generator, discriminator) pair stacked K times, and each
    member's scaler, conditioning rows and targets, the last two stacked
    (K, N, ...); networks, rows and targets rounded to DTYPE."""
    members = list(members)
    if not members:
        raise UsageError("gan.train needs at least one member")
    n, window_length = members[0].histories.shape[:2]
    scalers, gen_ins, targets = [], [], []
    for k, windows in enumerate(members):
        if not windows:
            raise TrainingError("cannot train a GAN on an empty sample list", member=k)
        if windows.histories.shape[:2] != (n, window_length):
            raise UsageError("lockstep members need equal sample counts and window lengths, "
                             f"got {(n, window_length)} and {windows.histories.shape[:2]}")
        try:
            scaler = scaler_fit_windows(windows.histories, windows.targets)
            gen_ins.append(_conditioning(scaler, windows))
            targets.append(_to_tanh_range(scaler_transform(scaler, windows.targets)))
        except SentiganError as e:
            e.member = k
            raise
        scalers.append(scaler)
    gen = build_generator(rng, window_length, schedule.gen_hidden)
    disc = build_discriminator(rng, window_length, schedule.disc_hidden)
    gen, disc = (Dense(net.sizes, net.activations, net.theta.astype(DTYPE)).stacked(len(members))
                 for net in (gen, disc))
    return gen, disc, scalers, np.stack(gen_ins).astype(DTYPE), np.stack(targets).astype(DTYPE)


def _fit(gen, disc, gen_in, targets, schedule: GanSchedule, rng):
    """Run the epochs on the stacked pair in place; returns the losses
    (steps, 2, K)."""
    gen_adam = AdamState(learning_rate=LEARNING_RATE)
    disc_adam = AdamState(learning_rate=LEARNING_RATE)
    starts = range(0, gen_in.shape[1], schedule.batch_size)
    losses = np.empty((schedule.epochs * len(starts), 2, len(gen_in)))
    step = 0
    # a diverging run overflows on its way to the non-finite gradient that
    # adam_step refuses as a TrainingError naming the member
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(schedule.epochs):
            for batch_index in rng.permutation(len(starts)):
                batch = slice(starts[batch_index], starts[batch_index] + schedule.batch_size)
                losses[step] = train_step(gen, disc, gen_in[:, batch], targets[:, batch],
                                          gen_adam, disc_adam)
                step += 1
    return losses


def train(members, schedule: GanSchedule, seed: int):
    """Fixed-epoch adversarial training of every member, the training
    Windows of one asset each, all of one length, in lockstep over
    contiguous batches; the batch order within each epoch is shuffled by the
    seed, the rows inside each batch stay chronological. `members` is read
    once, in order.

    Returns one (generator, log) per member; the log is a (steps, 2) array
    of each step's discriminator and generator loss. An error of one member
    carries its index as `member`."""
    rng = np.random.default_rng(seed)
    gen, disc, scalers, gen_in, targets = _setup(members, rng, schedule)
    losses = _fit(gen, disc, gen_in, targets, schedule, rng)
    return [(Generator(gen.sizes, gen.activations, gen.theta[k].copy(), scaler), losses[..., k])
            for k, scaler in enumerate(scalers)]


def predict(gen: Generator, windows: Windows) -> np.ndarray:
    """One-step close forecasts (N,) on the original price scale, one per raw
    (unscaled) window of `windows`, from one batched generator pass."""
    out, _ = forward(gen, _conditioning(gen.scaler, windows))
    return close_inverse(gen.scaler, (out[:, CLOSE_COLUMN] + 1.0) / 2.0)
