"""Real-time per-user detection over window streams.

Each user's standardized windows run through the GRU as one continuous
sequence, warm-started on the user's first window: the encoder sees the
first window repeated for a training length, then every window in order,
and the final-layer state at each real window is that window's embedding
(the trailing sequence is never re-encoded per window).  Users are
encoded BLOCK_USERS at a time, each block one encoder call and one head
product.  Drift is the Euclidean distance between a window's embedding
and the user's EWMA baseline, the anomaly score is uncertainty times
drift, and an alert fires when either strict threshold is crossed:

    d = ||z - baseline_prev||        (drift)
    baseline = beta * z + (1 - beta) * baseline_prev
    s = u * d
    alert  iff  u > tau_u  or  d > tau_d

A block's windows are scored as array operations (score_windows), the
EWMA as one loop over windows, into a DetectionResult's columns: both
output files are written from them, eval reads scores.csv back into
them, and the bytes are those of a per-window loop.

Users are fully isolated: a block always has BLOCK_USERS rows, and the
state at step t depends only on a row's own inputs up to t, so which
other users share a block, or how long their histories are, cannot
change any per-user output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import Corpus, EventTable, _check, _csv_field, _parsed, csv_chunks, window_series
from .errors import ConfigError, ContractError, DataError, DomainError
from .model import LatentEmbedding, encode_states, head
from .evidential import DirichletAssessment
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


def score_windows(users: list[str], ends: list, alpha: np.ndarray, z: np.ndarray,
                  baseline: np.ndarray | None, config: DetectorConfig):
    """The alert rule over a block, row i the windows of users[i] that end
    at ends[i] (later columns are padding): alpha (rows, W, K), embeddings
    z (rows, W, k) and baseline (rows, k) before window 0, or None to seed
    it from window 0, whose drift is then 0.  The first bad window in row
    order is a DomainError for an alpha not positive and finite (as
    evidential.assess raises), else a DataError for a non-finite z.
    Returns the windows' u, d, s, trigger (an index into _TRIGGERS),
    cluster and p columns, and the last baselines.
    """
    valid = np.arange(z.shape[1]) < np.array([len(e) for e in ends])[:, None]
    bad_alpha = ~np.all((alpha > 0.0) & np.isfinite(alpha), axis=-1)
    bad = valid & (bad_alpha | ~np.all(np.isfinite(z), axis=-1))
    if bad.any():
        i, w = np.argwhere(bad)[0]
        if bad_alpha[i, w]:
            raise DomainError("alpha entries must be positive and finite")
        raise DataError(f"non-finite embedding for user {users[i]!r}")
    belief = alpha.sum(axis=-1)
    p, u = alpha / belief[..., None], alpha.shape[-1] / belief
    d, first = np.zeros(u.shape), int(baseline is None)
    baseline = z[:, 0].copy() if first else baseline
    for w in range(first, z.shape[1]):
        d[:, w] = np.sqrt(np.sum((z[:, w] - baseline) ** 2, axis=-1))
        baseline = config.beta * z[:, w] + (1.0 - config.beta) * baseline
    s = u * d
    trigger = (u > config.tau_u) + 2 * (d > config.tau_d)
    return [c[valid] for c in (u, d, s, trigger, np.argmax(p, axis=-1), p)], baseline


def observe(state: UserState | None, z: LatentEmbedding,
            assessment: DirichletAssessment, config: DetectorConfig,
            ) -> tuple[UserState, float, Alert | None]:
    """Fold one embedding into a user's state; maybe emit an alert: the
    one-window case of score_windows.  The first window (state None) seeds
    the baseline and has zero drift, so only the uncertainty branch can
    fire there."""
    columns, baseline = score_windows(
        [z.user], [[z.window_end]], assessment.alpha[None, None],
        np.asarray(z.values, dtype=np.float64)[None, None],
        None if state is None else state.baseline[None], config)
    scored = DetectionResult([z.user], np.ones(1, dtype=np.intp),
                             np.array([z.window_end], dtype=np.float64), *columns)
    return (UserState(z.user, baseline[0], float(scored.d[0])), float(scored.s[0]),
            next(iter(scored.alerts), None))


@dataclass
class DetectionResult:
    """The scored windows as columns: the windows[i] rows of users[i], in
    window order, follow those of users[i - 1] (a name may head several
    runs).  trigger indexes _TRIGGERS (0: no alert); p holds each row's
    cluster probabilities, None when read from scores.csv, which has none."""

    users: list[str]
    windows: np.ndarray
    window_end: np.ndarray
    u: np.ndarray
    d: np.ndarray
    s: np.ndarray
    trigger: np.ndarray
    cluster: np.ndarray
    p: np.ndarray | None

    @property
    def windows_processed(self) -> int:
        return len(self.u)

    @property
    def mean_uncertainty(self) -> float:
        return float(np.mean(self.u)) if len(self.u) else 0.0

    def rows(self, names: list[str]):
        """Each row's SCORE_COLUMNS as Python values, names[i] for users[i]."""
        return zip(np.repeat(np.array(names, dtype=object), self.windows).tolist(),
                   self.window_end.tolist(), self.u.tolist(), self.d.tolist(),
                   self.s.tolist(), (self.trigger > 0).tolist(),
                   [_TRIGGERS[t] for t in self.trigger.tolist()], self.cluster.tolist())

    def alert_rows(self, rows: np.ndarray):
        """Each of the given alert rows' Alert fields as Python values, p a list."""
        names = np.repeat(np.array(self.users, dtype=object), self.windows)[rows]
        return zip(names.tolist(), self.window_end[rows].tolist(), self.s[rows].tolist(),
                   self.u[rows].tolist(), self.d[rows].tolist(),
                   [_TRIGGERS[t] for t in self.trigger[rows].tolist()], self.p[rows].tolist())

    @property
    def window_scores(self) -> list[WindowScore]:
        """The rows as WindowScores, built on each access."""
        return [WindowScore(*row) for row in self.rows(self.users)]

    @property
    def alerts(self) -> list[Alert]:
        """An Alert per alert row, in row order, built on each access."""
        return [Alert(*row[:-1], tuple(row[-1]))
                for row in self.alert_rows(np.flatnonzero(self.trigger))]


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
    concentrations are one head product.  score_windows then scores the
    block's windows together.  Returns one row per (user, window).
    """
    series = _user_window_series(checkpoint, source)
    del source  # the events are freed before encoding, unless the caller holds them
    users = sorted(series)
    # per block, its windows' end, u, d, s, trigger, cluster and p (an empty block first)
    columns = [[np.zeros(0)] * 4 + [np.zeros(0, dtype=np.intp)] * 2
               + [np.zeros((0, checkpoint.config.n_clusters))]]
    for lo in range(0, len(users), BLOCK_USERS):
        block = users[lo:lo + BLOCK_USERS]
        ends = [series[user][1] for user in block]
        states = stream_embeddings(
            checkpoint.encoder, [checkpoint.scaler.transform(series[u][0]) for u in block],
            checkpoint.config.t_len)
        n, w_max, k = states.shape
        alphas = head(checkpoint.head, states.reshape(n * w_max, k)).reshape(n, w_max, -1)
        scored, _ = score_windows(
            block, ends, alphas[:len(block)], states[:len(block)], None, config)
        columns.append([np.concatenate(ends), *scored])
    windows = np.array([len(series[user][1]) for user in users], dtype=np.intp)
    return DetectionResult(users, windows, *map(np.concatenate, zip(*columns)))


def write_scores_csv(result: DetectionResult, path: Path | str) -> None:
    """scores.csv from the result's columns, byte for byte as csv.writer
    writes them: floats as repr, names quoted as csv quotes them."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SCORE_COLUMNS) + "\r\n")
        fh.writelines("{},{!r},{!r},{!r},{!r},{:d},{},{:d}\r\n".format(*row)
                      for row in result.rows([_csv_field(name) for name in result.users]))


def read_scores_csv(path: Path | str) -> DetectionResult:
    """The window scores write_scores_csv wrote, in file order, with users
    holding each row's name.  A missing column, a row without a user, a
    value that does not parse, a u outside (0, 1], a d or s that is negative or not finite, an
    alert other than 0 or 1, a trigger other than "", uncertainty, drift or
    both, a trigger set on a row without an alert or missing on one with
    it, and a window_end that is not finite are DataErrors naming the file
    and line, as is what csv cannot read (see data.csv_chunks)."""
    users, clusters = [], []
    # per chunk: window_end, u, d, s and trigger, after an empty one
    columns = [[np.zeros(0)] * 4 + [np.zeros(0, dtype=np.intp)]]
    for values, error in csv_chunks(path, SCORE_COLUMNS):
        text = dict(zip(SCORE_COLUMNS, values))
        user, alert, trigger = text["user"], text["alert"], text["trigger"]
        parsed = {name: _parsed(float, text[name]) for name in ("window_end", "u", "d", "s")}
        end, u, d, s = (np.array(column, dtype=np.float64) for column, _ in parsed.values())
        cluster, bad_cluster = _parsed(int, text["cluster"])
        code = np.array([_TRIGGERS.index(t) if t in _TRIGGERS else -1 for t in trigger], np.intp)

        def flaw(name: str, ok: np.ndarray, words: str):
            return ~ok, lambda i: f"{name} {text[name][i]!r} {words}"

        _check(error,
               ([name is None for name in user], lambda i: "no user"),
               ([flag not in _ALERT for flag in alert],
                lambda i: f"alert {alert[i]!r} is not 0 or 1"),
               ((code < 0) | ((code > 0) != np.array([flag == "1" for flag in alert])),
                lambda i: f"trigger {trigger[i]!r} does not fit alert {alert[i]}"),
               parsed["u"][1], parsed["d"][1], parsed["s"][1],
               flaw("u", (u > 0.0) & (u <= 1.0), "is not in (0, 1]"),
               flaw("d", (d >= 0.0) & (d < math.inf), "is negative or not finite"),
               flaw("s", (s >= 0.0) & (s < math.inf), "is negative or not finite"),
               parsed["window_end"][1], bad_cluster,
               flaw("window_end", np.isfinite(end), "is not finite"))
        users += user
        clusters += cluster
        columns.append([end, u, d, s, code])
    # cluster, which eval does not read, keeps the ints as written, whatever their size
    return DetectionResult(users, np.ones(len(users), dtype=np.intp),
                           *map(np.concatenate, zip(*columns)),
                           np.array(clusters, dtype=object), None)


def write_alerts_jsonl(result: DetectionResult, path: Path | str) -> None:
    """One JSON object of Alert fields per alert row, as json.dumps(...,
    sort_keys=True) writes it: highest s first, ties by higher u, then
    earlier window_end, then user name."""
    keys = [f.name for f in fields(Alert)]
    rows = np.flatnonzero(result.trigger)
    # names as objects sort as Python sorts them; a numpy 'U' array drops trailing NULs
    names = np.repeat(np.array(result.users, dtype=object), result.windows)[rows]
    order = rows[np.lexsort((names, result.window_end[rows], -result.u[rows], -result.s[rows]))]
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        fh.writelines(encode(dict(zip(keys, row))) + "\n"
                      for row in result.alert_rows(order))
