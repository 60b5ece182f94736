"""Real-time per-user detection over window streams.

Each user's standardized windows run through the GRU as one continuous
sequence, warm-started on the user's first window: the encoder sees the
first window repeated for a training length, then every window in order,
and the final-layer state at each real window is that window's embedding
(the trailing sequence is never re-encoded per window).  Users are
encoded BLOCK_USERS at a time, each block one encoder call and one head
product.  The engine assesses each embedding's concentrations and
updates the user's EWMA baseline.  Drift is the Euclidean distance
between the new embedding and the baseline, the anomaly score is
uncertainty times drift, and an alert fires when either strict
threshold is crossed:

    d = ||z - baseline_prev||        (drift)
    baseline = beta * z + (1 - beta) * baseline_prev
    s = u * d
    alert  iff  u > tau_u  or  d > tau_d

Users are fully isolated: a block always has BLOCK_USERS rows, and the
state at step t depends only on a row's own inputs up to t, so which
other users share a block, or how long their histories are, cannot
change any per-user output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import Corpus, EventTable, csv_read_errors, window_series
from .errors import ConfigError, ContractError, DataError
from .model import LatentEmbedding, encode_states, head
from .evidential import DirichletAssessment, assess
from .training import Checkpoint


@dataclass(frozen=True)
class DetectorConfig:
    tau_u: float = 0.4
    tau_d: float = 1.5
    beta: float = 0.7

    def __post_init__(self):
        # tau_u = 0 is allowed as a boundary probe: u > 0 always, so every
        # window alerts
        if not (0.0 <= self.tau_u <= 1.0):
            raise ConfigError(f"tau_u must be in [0, 1], got {self.tau_u}")
        if not self.tau_d > 0.0:  # also rejects NaN, which would disable the drift branch
            raise ConfigError(f"tau_d must be positive, got {self.tau_d}")
        if not (0.0 < self.beta <= 1.0):
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")


@dataclass
class UserState:
    user: str
    baseline: np.ndarray
    last_drift: float = 0.0


@dataclass(frozen=True)
class Alert:
    user: str
    window_end: float
    s: float
    u: float
    d: float
    triggered_by: str  # "uncertainty" | "drift" | "both"
    p: tuple[float, ...]

    def to_json(self) -> str:
        return json.dumps({
            "user": self.user, "window_end": self.window_end,
            "s": self.s, "u": self.u, "d": self.d,
            "triggered_by": self.triggered_by, "p": list(self.p),
        }, sort_keys=True)


@dataclass(frozen=True)
class WindowScore:
    user: str
    window_end: float
    u: float
    d: float
    s: float
    alert: bool
    trigger: str  # "", "uncertainty", "drift", "both"
    cluster: int


# scores.csv holds one row per WindowScore, its fields in order
SCORE_COLUMNS = tuple(f.name for f in fields(WindowScore))
# the values of its alert column, and of its trigger column ("" when no alert)
_ALERT = {"0": False, "1": True}
_TRIGGERS = ("", "uncertainty", "drift", "both")


def observe(state: UserState | None, z: LatentEmbedding,
            assessment: DirichletAssessment, config: DetectorConfig,
            ) -> tuple[UserState, float, Alert | None]:
    """Fold one embedding into a user's state; maybe emit an alert.

    The first window seeds the baseline and has zero drift by definition,
    so only the uncertainty branch can fire there.  Drift is computed
    before the EWMA update.
    """
    values = np.asarray(z.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError(f"non-finite embedding for user {z.user!r}")
    u = assessment.uncertainty

    if state is None:
        drift = 0.0
        baseline = values.copy()
    else:
        drift = float(np.sqrt(np.sum((values - state.baseline) ** 2)))
        baseline = config.beta * values + (1.0 - config.beta) * state.baseline
    new_state = UserState(user=z.user, baseline=baseline, last_drift=drift)
    score = u * drift

    over_u = u > config.tau_u
    over_d = drift > config.tau_d
    alert = None
    if over_u or over_d:
        trigger = "both" if (over_u and over_d) else ("uncertainty" if over_u else "drift")
        alert = Alert(user=z.user, window_end=z.window_end, s=score, u=u,
                      d=drift, triggered_by=trigger, p=tuple(assessment.p))
    return new_state, score, alert


def rank_alerts(alerts) -> list[Alert]:
    """Descending score; ties by higher u, then earlier time, then user id."""
    return sorted(alerts, key=lambda a: (-a.s, -a.u, a.window_end, a.user))


@dataclass
class DetectionResult:
    window_scores: list[WindowScore]
    alerts: list[Alert]

    @property
    def windows_processed(self) -> int:
        return len(self.window_scores)

    @property
    def mean_uncertainty(self) -> float:
        if not self.window_scores:
            return 0.0
        return float(np.mean([w.u for w in self.window_scores]))


def _user_window_series(checkpoint: Checkpoint, source: Corpus | EventTable,
                        ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Raw per-user window features (history only, no pads) plus end times."""
    d = checkpoint.config.input_dim
    if isinstance(source, Corpus):
        if source.sequences and source.sequences[0].features.shape[1] != d:
            raise ConfigError(
                f"corpus feature width {source.sequences[0].features.shape[1]} "
                f"!= checkpoint input_dim {d}")
        if source.t_len != checkpoint.config.t_len:
            raise ConfigError(
                f"corpus t_len {source.t_len} != checkpoint t_len {checkpoint.config.t_len}")
        if source.window_duration != checkpoint.window_duration:
            raise ConfigError(
                f"corpus window_duration {source.window_duration:g} s != checkpoint "
                f"window_duration {checkpoint.window_duration:g} s")
        out = {}
        for seq in source.sequences:
            feats = seq.features[seq.n_pad:]
            if feats.shape[0] == 0:
                continue
            dur = seq.window_duration
            ends = seq.window_end - dur * np.arange(feats.shape[0] - 1, -1, -1)
            out[seq.user] = (feats, ends)
        return out
    return window_series(source, checkpoint.window_duration)


# Users per encoder block.  A block is always this many rows, zero rows
# filling a short one, because a row's arithmetic must not depend on the
# other rows.  With OpenBLAS 0.3.31 on an AVX-512 x86-64 CPU a one-row
# product takes another kernel (gemv) than a multi-row one: a row of
# (1, 64) @ (64, 128) differs from the same row inside a 32-row product in
# its last bits (by 7.1e-15 for standard-normal inputs), while products of
# 2 to 3,200 rows, and input GEMMs of 2 to 1,280 rows, agree bit for bit.
# A fixed height gives every user the same arithmetic whoever else is in
# the input; test_block_rows_do_not_depend_on_the_other_rows fails on a
# BLAS where that does not hold.
BLOCK_USERS = 32


def stream_embeddings(encoder, streams: list[np.ndarray], warm_steps: int) -> np.ndarray:
    """Per-window embeddings of up to BLOCK_USERS users' standardized windows.

    streams holds each user's (W_i, d) windows.  Each stream is
    warm-started by prefixing the user's first window warm_steps times,
    as if the user had always produced it, so the first embedding is
    already near that behavior's fixed point and drift measures
    behavioral change rather than the encoder's cold-start ramp.  The
    streams are encoded as one (BLOCK_USERS, warm_steps + W_max, d) stack:
    zero rows fill a short block and zero windows the end of a short
    stream.  Returns the (BLOCK_USERS, W_max, k) last-layer states from
    index warm_steps on; row i's first W_i are stream i's embeddings, and
    the padding after them cannot reach them, as the state at step t
    depends only on steps up to t.  Re-encoding a sliding padded sequence
    per window is deliberately avoided: consecutive re-encodes start from
    minutely different states, and a trained recurrence amplifies those
    differences chaotically into spurious drift.
    """
    if not 0 < len(streams) <= BLOCK_USERS:
        raise ContractError(f"a block holds 1 to {BLOCK_USERS} streams, got {len(streams)}")
    w_max = max(len(windows) for windows in streams)
    block = np.zeros((BLOCK_USERS, warm_steps + w_max, streams[0].shape[1]))
    for i, windows in enumerate(streams):
        block[i, :warm_steps] = windows[0]
        block[i, warm_steps:warm_steps + len(windows)] = windows
    return encode_states(encoder, block)[:, warm_steps:]


def detect_stream(checkpoint: Checkpoint, source: Corpus | EventTable,
                  config: DetectorConfig) -> DetectionResult:
    """Run the full detection loop over a corpus or an event table.

    Users' standardized windows are encoded by stream_embeddings, one
    block of BLOCK_USERS users at a time in sorted order, and each block's
    concentrations are one head product.  Every window then yields an
    assessment and an EWMA update through observe.  Emits one WindowScore
    per (user, window) and an Alert whenever the rule fires.
    """
    series = _user_window_series(checkpoint, source)
    users = sorted(series)

    scores: list[WindowScore] = []
    alerts: list[Alert] = []
    for lo in range(0, len(users), BLOCK_USERS):
        block = users[lo:lo + BLOCK_USERS]
        states = stream_embeddings(
            checkpoint.encoder, [checkpoint.scaler.transform(series[u][0]) for u in block],
            checkpoint.config.t_len)
        n, w_max, k = states.shape
        alphas = head(checkpoint.head, states.reshape(n * w_max, k)).reshape(n, w_max, -1)
        for user, embeddings, alpha in zip(block, states, alphas):
            state = None
            for w, end in enumerate(series[user][1]):
                z = LatentEmbedding(values=embeddings[w], user=user, window_end=float(end))
                assessment = assess(alpha[w])
                state, score, alert = observe(state, z, assessment, config)
                if alert is not None:
                    alerts.append(alert)
                scores.append(WindowScore(
                    user=user, window_end=float(end), u=assessment.uncertainty,
                    d=state.last_drift, s=score, alert=alert is not None,
                    trigger=alert.triggered_by if alert else "",
                    cluster=assessment.argmax_cluster()))
    return DetectionResult(window_scores=scores, alerts=alerts)


def write_scores_csv(result: DetectionResult, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_COLUMNS)
        for w in result.window_scores:
            writer.writerow([w.user, repr(w.window_end), repr(w.u), repr(w.d),
                             repr(w.s), int(w.alert), w.trigger, w.cluster])


def read_scores_csv(path: Path | str) -> list[WindowScore]:
    """The window scores write_scores_csv wrote.  A missing column, a value
    that does not parse, an alert other than 0 or 1, a trigger other than
    "", uncertainty, drift or both, and a trigger set on a row without an
    alert or missing on one with it are DataErrors naming the file and line,
    as is what csv cannot read (see data.csv_read_errors)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        with csv_read_errors(path, reader.reader):
            missing = [c for c in SCORE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}, line 1: missing column(s) {', '.join(missing)}")
            for row in reader:
                try:
                    alert, trigger = _ALERT.get(row["alert"]), row["trigger"]
                    if alert is None:
                        raise ValueError(f"alert {row['alert']!r} is not 0 or 1")
                    if trigger not in _TRIGGERS or (trigger != "") != alert:
                        raise ValueError(f"trigger {trigger!r} does not fit alert "
                                         f"{row['alert']}")
                    rows.append(WindowScore(
                        user=row["user"], window_end=float(row["window_end"]),
                        u=float(row["u"]), d=float(row["d"]), s=float(row["s"]),
                        alert=alert, trigger=trigger, cluster=int(row["cluster"])))
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return rows


def write_alerts_jsonl(alerts: list[Alert], path: Path | str) -> None:
    with open(path, "w") as fh:
        for alert in rank_alerts(alerts):
            fh.write(alert.to_json() + "\n")
