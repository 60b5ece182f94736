"""Offline training: warm-up, cluster bootstrap, and the main loop.

The pipeline is unsupervised.  A short reconstruction warm-up gives the
encoder non-degenerate embeddings, k-means++ over those embeddings seeds
K clusters, and the argmax cluster of each sequence becomes its
pseudo-label.  The main loop then minimizes expected cross-entropy
against the pseudo-labels plus an annealed KL regularizer, refreshing
the labels every refresh_period epochs.

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

from .arrayio import read_blob, write_blob
from .data import Corpus, BehaviorSequence, FeatureScaler
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
    init_encoder,
    init_head,
    taped_encode,
    taped_head,
)
from .numerics import AdamState, SeededRng, Tape, adam_step, backward

# stream ids for the trainer's independent RNG streams
_STREAM_INIT = 1
_STREAM_WARMUP = 2
_STREAM_SHUFFLE = 3
_STREAM_DROPOUT = 4
_STREAM_KMEANS = 5


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ConfigError("dropout_p must be in [0, 1)")
        if self.lambda_max < 0:
            raise ConfigError("lambda_max must be non-negative")


def fits_type(value, default) -> bool:
    """Whether a config value has its default's type; an int may stand for a float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int if isinstance(default, int) else (int, float))


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
        arrays: dict[str, np.ndarray] = {}
        arrays.update(self.encoder.to_flat())
        arrays.update(self.head.to_flat())
        arrays["scaler.mean"] = self.scaler.mean
        arrays["scaler.std"] = self.scaler.std
        header = {
            "schema": "checkpoint",
            "schema_version": 1,
            "config": asdict(self.config),
            "window_duration": self.window_duration,
        }
        self.digest = write_blob(path, header, arrays)
        return self.digest

    @classmethod
    def load(cls, path: Path | str) -> "Checkpoint":
        """A missing header key or array, or a config that is not an object of
        known keys with values of their defaults' types and ranges, is a DataError.
        """
        header, arrays, digest = read_blob(path)
        if header.get("schema") != "checkpoint":
            raise DataError(f"{path}: not a checkpoint file")
        try:
            values = header["config"]
            if not isinstance(values, dict):
                raise DataError(f"{path}: checkpoint config is not an object")
            defaults = {f.name: f.default for f in fields(TrainConfig)}
            unknown = set(values) - set(defaults)
            if unknown:
                raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
            for key, value in values.items():
                if not fits_type(value, defaults[key]):
                    raise DataError(f"{path}: config key {key!r} must be a "
                                    f"{type(defaults[key]).__name__}, got {value!r}")
            try:
                config = TrainConfig(**values)
            except ConfigError as exc:
                raise DataError(f"{path}: {exc}") from None
            encoder = EncoderParams.from_flat(arrays, config.n_layers)
            head = EvidentialHeadParams.from_flat(arrays)
            scaler = FeatureScaler(mean=arrays["scaler.mean"], std=arrays["scaler.std"])
            window_duration = header["window_duration"]
        except KeyError as exc:
            raise DataError(f"{path}: checkpoint has no {exc}") from None
        return cls(encoder=encoder, head=head, config=config, scaler=scaler,
                   window_duration=window_duration, digest=digest)


# -- cluster bootstrap ---------------------------------------------------------


def init_clusters(embeddings: np.ndarray, n_clusters: int, rng: SeededRng,
                  max_iter: int = 100) -> ClusterInit:
    """k-means++ seeding followed by Lloyd iterations to a fixpoint."""
    points = np.asarray(embeddings, dtype=np.float64)
    n = points.shape[0]
    if np.unique(points, axis=0).shape[0] < n_clusters:
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


def _as_sequences(dataset) -> list[BehaviorSequence]:
    seqs = dataset.sequences if isinstance(dataset, Corpus) else list(dataset)
    if not seqs:
        raise ContractError("dataset is empty")
    return seqs


def _stack(seqs: list[BehaviorSequence], scaler: FeatureScaler) -> tuple[np.ndarray, np.ndarray]:
    # pad rows are standardized and encoded like everything else
    feats = np.stack([scaler.transform(s.features) for s in seqs])
    n_pads = np.array([s.n_pad for s in seqs], dtype=np.int64)
    return feats, n_pads


def _collect_grads(pnodes, grads_by_node) -> dict[str, np.ndarray]:
    grads = {}
    for name, node in pnodes.items():
        if node not in grads_by_node:
            raise NumericError(f"parameter {name!r} never reached the gradient tape")
        grads[name] = grads_by_node[node]
    return grads


def _one_hot(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], n_clusters))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def refresh_pseudo_labels(encoder: EncoderParams, head: EvidentialHeadParams,
                          features: np.ndarray) -> np.ndarray:
    """argmax expected assignment per sequence; ties go to the lowest index."""
    from .evidential import alpha_from_raw

    z = encode_batch(encoder, features)
    alpha = alpha_from_raw(z @ head.w + head.b)
    return np.argmax(alpha, axis=1)


# -- warm-up -------------------------------------------------------------------


def _warmup_arrays(config: TrainConfig, features: np.ndarray, n_pads: np.ndarray,
                   encoder: EncoderParams, rng: SeededRng) -> tuple[EncoderParams, list[float]]:
    """Reconstruction warm-up; returns updated encoder and per-epoch losses."""
    if config.warmup_epochs == 0:
        return encoder, []
    n, t_len, d = features.shape
    warm_rng = rng.derive(_STREAM_WARMUP)
    dropout_rng = rng.derive(_STREAM_DROPOUT + 100)
    shuffle_rng = rng.derive(_STREAM_SHUFFLE + 100)

    # mean real (unpadded) feature vector per sequence is the target
    targets = np.stack([
        features[i, n_pads[i]:].mean(axis=0) for i in range(n)
    ])

    decoder = {
        "dec.w": (warm_rng.uniform((config.hidden, d)) * 2.0 - 1.0) / np.sqrt(config.hidden),
        "dec.b": np.zeros(d),
    }
    params = {**encoder.to_flat(), **decoder}
    adam = AdamState.for_params(params)
    dropout = DropoutSpec(p=config.dropout_p, active=True)
    losses = []
    for epoch in range(config.warmup_epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            tape = Tape()
            pnodes = {name: tape.leaf(arr) for name, arr in params.items()}
            z = taped_encode(tape, pnodes, features[batch], config.n_layers,
                             dropout, dropout_rng)
            pred = tape.add(tape.matmul(z, pnodes["dec.w"]), pnodes["dec.b"])
            err = tape.sub(pred, tape.const(targets[batch]))
            loss = tape.scale(tape.sum(tape.mul(err, err)), 1.0 / (len(batch) * d))
            value = float(loss.value)
            if not np.isfinite(value):
                raise NumericError(f"non-finite warm-up loss at epoch {epoch}, "
                                   f"batch {n_batches}")
            grads_by_node = backward(tape, loss)
            grads = _collect_grads(pnodes, grads_by_node)
            params, adam = adam_step(params, grads, adam, config.learning_rate)
            epoch_loss += value
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    return EncoderParams.from_flat(params, config.n_layers), losses


# -- main loop -----------------------------------------------------------------


def train(config: TrainConfig, dataset) -> tuple[Checkpoint, list[EpochMetrics]]:
    """Full training run; returns the final checkpoint and per-epoch metrics."""
    seqs = _as_sequences(dataset)
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
    features, n_pads = _stack(seqs, scaler)

    encoder = init_encoder(config.input_dim, config.hidden, config.n_layers,
                           rng.derive(_STREAM_INIT))
    encoder, _ = _warmup_arrays(config, features, n_pads, encoder, rng)

    embeddings = encode_batch(encoder, features)
    clusters = init_clusters(embeddings, config.n_clusters, rng.derive(_STREAM_KMEANS))
    labels = clusters.assignments

    head = init_head(config.hidden, config.n_clusters, rng.derive(_STREAM_INIT + 50))
    params = {**encoder.to_flat(), **head.to_flat()}
    adam = AdamState.for_params(params)
    dropout = DropoutSpec(p=config.dropout_p, active=True)
    shuffle_rng = rng.derive(_STREAM_SHUFFLE)
    dropout_rng = rng.derive(_STREAM_DROPOUT)

    metrics: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        lam = anneal_lambda(epoch, config.anneal_epochs, config.lambda_max)
        order = shuffle_rng.permutation(n)
        sum_ce = sum_kl = 0.0
        correct = 0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            y = _one_hot(labels[batch], config.n_clusters)
            tape = Tape()
            pnodes = {name: tape.leaf(arr) for name, arr in params.items()}
            z = taped_encode(tape, pnodes, features[batch], config.n_layers,
                             dropout, dropout_rng)
            alpha = taped_head(tape, pnodes, z)
            total, ce, kl = taped_evidential_loss(tape, alpha, y, lam)
            if not np.isfinite(float(total.value)):
                raise NumericError(f"non-finite loss at epoch {epoch}, "
                                   f"batch {n_batches}")
            grads_by_node = backward(tape, total)
            grads = _collect_grads(pnodes, grads_by_node)
            params, adam = adam_step(params, grads, adam, config.learning_rate)
            sum_ce += float(ce.value) * len(batch)
            sum_kl += float(kl.value) * len(batch)
            correct += int((np.argmax(alpha.value, axis=1) == labels[batch]).sum())
            n_batches += 1

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
