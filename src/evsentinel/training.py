"""Offline training: warm-up, cluster bootstrap, and the main loop.

The pipeline is unsupervised.  A short reconstruction warm-up gives the
encoder non-degenerate embeddings, k-means++ over those embeddings seeds
K clusters, and the argmax cluster of each sequence becomes its
pseudo-label.  The main loop then minimizes expected cross-entropy
against the pseudo-labels plus an annealed KL regularizer, refreshing
the labels every refresh_period epochs.  Each loss is one tape op with a
hand-derived backward (taped_reconstruction_loss here, the evidential
loss in evidential).

Checkpoints serialize every parameter array bit-for-bit together with
the config, feature scaler, and window duration: what detection and
evaluation read.  Nothing resumes training from a checkpoint, so the
optimizer and RNG state are not kept.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .arrayio import check_schema_version, check_shapes, read_blob, write_blob
from .data import Corpus, FeatureScaler, check_window_duration
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    NumericError,
)
from .evidential import anneal_lambda, taped_evidential_loss
from .model import (
    DropoutSpec,
    EncoderParams,
    EvidentialHeadParams,
    encode_batch,
    head as apply_head,
    init_encoder,
    init_head,
    taped_encode,
    taped_head,
)
from .numerics import AdamState, Node, SeededRng, Tape, adam_step, backward

# stream ids for the trainer's independent RNG streams
_STREAM_INIT = 1
_STREAM_WARMUP = 2
_STREAM_SHUFFLE = 3
_STREAM_DROPOUT = 4
_STREAM_KMEANS = 5

SCHEMA_VERSION = 2  # checkpoint layout: each GRU layer's w, u, b stacked [r | z | c]


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the reference setup."""

    epochs: int = 200
    learning_rate: float = 0.001
    batch_size: int = 128
    dropout_p: float = 0.3
    n_clusters: int = 5
    hidden: int = 64
    t_len: int = 100
    input_dim: int = 12
    n_layers: int = 2
    lambda_max: float = 0.1
    anneal_epochs: int = 10
    warmup_epochs: int = 5
    refresh_period: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "n_clusters", "hidden", "t_len",
                     "input_dim", "n_layers", "anneal_epochs", "refresh_period"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be non-negative")
        if not (0.0 < self.learning_rate < np.inf):
            raise ConfigError("learning_rate must be positive and finite")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ConfigError("dropout_p must be in [0, 1)")
        if not (0.0 <= self.lambda_max < np.inf):
            raise ConfigError("lambda_max must be non-negative and finite")


def check_config(values, defaults: dict, what: str) -> dict:
    """values, a parsed JSON config, must be an object of keys in defaults,
    each value of its default's type; an int may stand for a float.

    Anything else is a ConfigError; what names the config in the message.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{what} is not an object")
    unknown = set(values) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for key, value in values.items():
        default = defaults[key]
        if isinstance(value, bool) or not isinstance(
                value, int if isinstance(default, int) else (int, float)):
            raise ConfigError(f"config key {key!r} must be a "
                              f"{type(default).__name__}, got {value!r}")
    return values


@dataclass
class EpochMetrics:
    epoch: int
    total_loss: float
    ce_loss: float
    kl_loss: float
    lam: float
    pseudo_accuracy: float


@dataclass
class ClusterInit:
    centroids: np.ndarray  # (K, k)
    assignments: np.ndarray  # (n,)


@dataclass
class Checkpoint:
    encoder: EncoderParams
    head: EvidentialHeadParams
    config: TrainConfig
    scaler: FeatureScaler
    window_duration: float = 86400.0
    digest: str = ""

    def save(self, path: Path | str) -> str:
        arrays = {**self.encoder.to_flat(), **self.head.to_flat(),
                  "scaler.mean": self.scaler.mean, "scaler.std": self.scaler.std}
        header = {
            "schema": "checkpoint",
            "schema_version": SCHEMA_VERSION,
            "config": asdict(self.config),
            "window_duration": self.window_duration,
        }
        self.digest = write_blob(path, header, arrays)
        return self.digest

    @classmethod
    def load(cls, path: Path | str) -> "Checkpoint":
        """A schema_version other than SCHEMA_VERSION, a missing header key
        or array, a config that check_config or TrainConfig rejects, an
        array whose shape does not fit the config, or a window_duration that
        is not finite and > 0 is a DataError naming the file.
        """
        header, arrays, digest = read_blob(path)
        if header.get("schema") != "checkpoint":
            raise DataError(f"{path}: not a checkpoint file")
        check_schema_version(path, header, "checkpoint", SCHEMA_VERSION)
        try:
            defaults = {f.name: f.default for f in fields(TrainConfig)}
            config = TrainConfig(**check_config(header["config"], defaults,
                                                "checkpoint config"))
            check_shapes(path, arrays, _array_shapes(config))
            encoder = EncoderParams.from_flat(arrays, config.n_layers)
            head = EvidentialHeadParams.from_flat(arrays)
            scaler = FeatureScaler(mean=arrays["scaler.mean"], std=arrays["scaler.std"])
            window_duration = header["window_duration"]
            check_window_duration(path, window_duration)
        except KeyError as exc:
            raise DataError(f"{path}: checkpoint has no {exc}") from None
        except ConfigError as exc:
            raise DataError(f"{path}: {exc}") from None
        return cls(encoder=encoder, head=head, config=config, scaler=scaler,
                   window_duration=window_duration, digest=digest)


def _array_shapes(config: TrainConfig):
    """(name, shape) of every checkpoint array under config."""
    d, k, n_clusters = config.input_dim, config.hidden, config.n_clusters
    yield from (("scaler.mean", (d,)), ("scaler.std", (d,)),
                ("head.w", (k, n_clusters)), ("head.b", (n_clusters,)))
    for i in range(config.n_layers):
        yield from ((f"enc.l{i}.w", (d if i == 0 else k, 3 * k)),
                    (f"enc.l{i}.u", (k, 3 * k)), (f"enc.l{i}.b", (3 * k,)))


# -- cluster bootstrap ---------------------------------------------------------


def init_clusters(embeddings: np.ndarray, n_clusters: int, rng: SeededRng,
                  max_iter: int = 100) -> ClusterInit:
    """k-means++ seeding followed by Lloyd iterations to a fixpoint."""
    points = np.asarray(embeddings, dtype=np.float64)
    n = points.shape[0]
    # distinct rows as numpy's unique(axis=0) counts them, without the
    # numpy.ma import it costs: -0.0 equals 0.0 and NaN equals nothing, so
    # once sorted a row is new when it differs from the one before
    rows = points[np.lexsort(points.T[::-1])]
    if (n > 0) + np.any(rows[1:] != rows[:-1], axis=1).sum() < n_clusters:
        raise DegenerateInputError(
            f"need at least {n_clusters} distinct embeddings, got fewer")

    centroids = [points[rng.index_below(n)]]
    for _ in range(n_clusters - 1):
        diffs = points[:, None, :] - np.stack(centroids)[None, :, :]
        d2 = np.min((diffs * diffs).sum(axis=2), axis=1)
        total = d2.sum()
        target = rng.uniform() * total
        idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
        centroids.append(points[min(idx, n - 1)])
    centroids = np.stack(centroids)

    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        diffs = points[:, None, :] - centroids[None, :, :]
        d2 = (diffs * diffs).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)  # ties resolve to the lowest index
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(n_clusters):
            members = points[assignments == j]
            if members.shape[0] > 0:
                centroids[j] = members.mean(axis=0)
    return ClusterInit(centroids=centroids, assignments=assignments)


# -- dataset plumbing ----------------------------------------------------------


def corpus_features(corpus: Corpus, scaler: FeatureScaler) -> np.ndarray:
    """The (n, T, d) standardized features of every sequence, pad rows included:
    they are standardized and encoded like everything else."""
    return np.stack([scaler.transform(s.features) for s in corpus.sequences])


def _adam_epoch(config: TrainConfig, params: dict[str, np.ndarray], adam: AdamState,
                features: np.ndarray, rngs: tuple[SeededRng, SeededRng], batch_loss,
                where: str) -> tuple[dict[str, np.ndarray], AdamState]:
    """One shuffled pass of mini-batch Adam steps; returns the new params and state.

    rngs are the (shuffle, dropout) streams.  For each batch of indices,
    batch_loss(tape, pnodes, z, batch) puts the loss of the batch's taped
    embeddings z on the tape and returns it.  Non-finite embeddings or a
    non-finite loss are a NumericError naming where (the epoch) and the batch.
    """
    shuffle_rng, dropout_rng = rngs
    dropout = DropoutSpec(p=config.dropout_p, active=True)
    order = shuffle_rng.permutation(features.shape[0])
    for n_batch, start in enumerate(range(0, len(order), config.batch_size)):
        batch = order[start:start + config.batch_size]
        tape = Tape()
        pnodes = {name: tape.leaf(arr) for name, arr in params.items()}
        z = taped_encode(tape, pnodes, features[batch], config.n_layers, dropout, dropout_rng)
        if not np.all(np.isfinite(z.value)):
            raise NumericError(f"non-finite embeddings at {where}, batch {n_batch}")
        loss = batch_loss(tape, pnodes, z, batch)
        if not np.isfinite(float(loss.value)):
            raise NumericError(f"non-finite loss at {where}, batch {n_batch}")
        grads = backward(tape, loss)
        params, adam = adam_step(params, {name: grads[node] for name, node in pnodes.items()},
                                 adam, config.learning_rate)
    return params, adam


def refresh_pseudo_labels(encoder: EncoderParams, head: EvidentialHeadParams,
                          features: np.ndarray) -> np.ndarray:
    """argmax expected assignment per sequence; ties go to the lowest index."""
    return np.argmax(apply_head(head, encode_batch(encoder, features)), axis=1)


# -- warm-up -------------------------------------------------------------------


def taped_reconstruction_loss(tape: Tape, pnodes: dict[str, Node], z: Node,
                              targets: np.ndarray) -> Node:
    """Warm-up loss, one tape op: the mean squared error of the affine
    decoder z W + b (dec.w, dec.b) against an (n, d) stack of targets."""
    w, b = pnodes["dec.w"], pnodes["dec.b"]
    err = (z.value @ w.value + b.value) - targets
    scale = 1.0 / err.size

    def backward(g):
        g_err = (g * scale) * err
        g_pred = g_err + g_err  # d(err * err) / d(err), one adjoint per factor
        return g_pred @ w.value.T, z.value.T @ g_pred, g_pred.sum(axis=0)

    return tape.record((err * err).sum() * scale, (z, w, b), backward)


def _warmup_arrays(config: TrainConfig, features: np.ndarray, n_pads: list[int],
                   encoder: EncoderParams, rng: SeededRng) -> tuple[EncoderParams, list[float]]:
    """Reconstruction warm-up; returns updated encoder and per-epoch losses."""
    n, _, d = features.shape
    warm_rng = rng.derive(_STREAM_WARMUP)
    rngs = (rng.derive(_STREAM_SHUFFLE + 100), rng.derive(_STREAM_DROPOUT + 100))

    # mean real (unpadded) feature vector per sequence is the target
    targets = np.stack([features[i, n_pads[i]:].mean(axis=0) for i in range(n)])

    decoder = {
        "dec.w": (warm_rng.uniform((config.hidden, d)) * 2.0 - 1.0) / np.sqrt(config.hidden),
        "dec.b": np.zeros(d),
    }
    params = {**encoder.to_flat(), **decoder}
    adam = AdamState.for_params(params)

    def reconstruction(tape, pnodes, z, batch):
        nonlocal epoch_loss, n_batches
        loss = taped_reconstruction_loss(tape, pnodes, z, targets[batch])
        epoch_loss += float(loss.value)
        n_batches += 1
        return loss

    losses = []
    for epoch in range(config.warmup_epochs):
        epoch_loss, n_batches = 0.0, 0
        params, adam = _adam_epoch(config, params, adam, features, rngs, reconstruction,
                                   f"warm-up epoch {epoch}")
        losses.append(epoch_loss / n_batches)
    return EncoderParams.from_flat(params, config.n_layers), losses


# -- main loop -----------------------------------------------------------------


def train(config: TrainConfig, corpus: Corpus) -> tuple[Checkpoint, list[EpochMetrics]]:
    """Full training run; returns the final checkpoint and per-epoch metrics."""
    seqs = corpus.sequences
    n = len(seqs)
    if n < config.batch_size:
        raise ContractError(
            f"dataset has {n} sequences, fewer than batch size {config.batch_size}")

    d = seqs[0].features.shape[1]
    if d != config.input_dim:
        raise ConfigError(f"corpus feature width {d} != config input_dim {config.input_dim}")
    if seqs[0].t_len != config.t_len:
        raise ConfigError(f"corpus t_len {seqs[0].t_len} != config t_len {config.t_len}")

    rng = SeededRng(config.seed)
    scaler = FeatureScaler.fit(seqs)
    features = corpus_features(corpus, scaler)

    encoder = init_encoder(config.input_dim, config.hidden, config.n_layers,
                           rng.derive(_STREAM_INIT))
    encoder, _ = _warmup_arrays(config, features, [s.n_pad for s in seqs], encoder, rng)

    embeddings = encode_batch(encoder, features)
    clusters = init_clusters(embeddings, config.n_clusters, rng.derive(_STREAM_KMEANS))
    labels = clusters.assignments

    head = init_head(config.hidden, config.n_clusters, rng.derive(_STREAM_INIT + 50))
    params = {**encoder.to_flat(), **head.to_flat()}
    adam = AdamState.for_params(params)
    rngs = (rng.derive(_STREAM_SHUFFLE), rng.derive(_STREAM_DROPOUT))

    def evidential(tape, pnodes, z, batch):
        nonlocal sum_ce, sum_kl, correct
        alpha = taped_head(tape, pnodes, z)
        y = np.eye(config.n_clusters)[labels[batch]]
        total, ce, kl = taped_evidential_loss(tape, alpha, y, lam)
        sum_ce += float(ce.value) * len(batch)
        sum_kl += float(kl.value) * len(batch)
        correct += int((np.argmax(alpha.value, axis=1) == labels[batch]).sum())
        return total

    metrics: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        lam = anneal_lambda(epoch, config.anneal_epochs, config.lambda_max)
        sum_ce = sum_kl = 0.0
        correct = 0
        params, adam = _adam_epoch(config, params, adam, features, rngs, evidential,
                                   f"epoch {epoch}")

        encoder = EncoderParams.from_flat(params, config.n_layers)
        head = EvidentialHeadParams.from_flat(params)
        mean_ce = sum_ce / n
        mean_kl = sum_kl / n
        metrics.append(EpochMetrics(
            epoch=epoch, total_loss=mean_ce + lam * mean_kl, ce_loss=mean_ce,
            kl_loss=mean_kl, lam=lam, pseudo_accuracy=correct / n))

        refresh_due = (epoch + 1) % config.refresh_period == 0
        if refresh_due and epoch + 1 < config.epochs:
            labels = refresh_pseudo_labels(encoder, head, features)

    checkpoint = Checkpoint(encoder=encoder, head=head, config=config, scaler=scaler,
                            window_duration=seqs[0].window_duration)
    return checkpoint, metrics


def write_epoch_log(metrics: list[EpochMetrics], path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "total_loss", "ce_loss", "kl_loss", "lambda",
                         "pseudo_accuracy"])
        for m in metrics:
            writer.writerow([m.epoch, repr(m.total_loss), repr(m.ce_loss),
                             repr(m.kl_loss), repr(m.lam), repr(m.pseudo_accuracy)])
