"""Ground-truth scoring, ROC/AUC, baseline comparison, and report export.

User-level truth: an insider counts as detected when any alert fires in a
window at or after the scenario onset; any alert on a benign user is a
false positive.  Per-user continuous scores aggregate windows by maximum,
which preserves the peak-anomaly signal the ranking rule sorts on.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, DegenerateInputError
from .numerics import SeededRng
from .training import ClusterInit, init_clusters

REPORT_SCHEMA_VERSION = 1
BASELINE_QUANTILE = 0.95  # the k-means baseline flags the farthest 5% of users
POWER_MAX_ITER, POWER_TOL = 1000, 1e-13  # project_2d's step cap and fixpoint tolerance


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predicted: dict[str, bool], truth: dict[str, bool],
              ) -> tuple[ConfusionCounts, dict[str, float | None]]:
    """Standard confusion metrics; undefined ratios come back as None."""
    if set(predicted) != set(truth):
        missing = sorted(set(predicted) ^ set(truth))
        raise ContractError(f"predicted/truth key mismatch: {missing[:5]}")
    n = Counter((bool(truth[user]), bool(pred)) for user, pred in predicted.items())
    tp, fp, tn, fn = n[True, True], n[False, True], n[False, False], n[True, False]
    counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)

    def ratio(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    metrics = {
        "accuracy": ratio(tp + tn, counts.total),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "fpr": ratio(fp, fp + tn),
    }
    return counts, metrics


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]  # (fpr, tpr), anchored at (0,0) and (1,1)
    thresholds: tuple[float, ...]
    auc: float


def roc_auc(scores: dict[str, float], truth: dict[str, bool]) -> RocCurve:
    """Threshold sweep over distinct scores with trapezoidal AUC."""
    if set(scores) != set(truth):
        raise ContractError("scores/truth key mismatch")
    users = sorted(scores)
    y = np.array([truth[u] for u in users], dtype=bool)
    s = np.array([scores[u] for u in users], dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = len(users) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("ROC needs at least one positive and one negative")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    starts = np.flatnonzero(np.append(True, s_sorted[1:] != s_sorted[:-1]))
    ends = np.append(starts[1:], len(users)) - 1  # the last index of each tie group
    tp = np.cumsum(y[order])[ends]
    points = [(0.0, 0.0), *zip(((ends + 1 - tp) / n_neg).tolist(), (tp / n_pos).tolist())]
    thresholds = [float("inf"), *s_sorted[starts].tolist()]
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(points), thresholds=tuple(thresholds), auc=auc)


def baseline_kmeans_detector(points: np.ndarray, n_clusters: int,
                             rng: SeededRng) -> tuple[np.ndarray, float]:
    """Hard-clustering baseline: flag users far from every centroid.

    points holds one (k,) embedding per row.  Distances are measured to
    the nearest k-means centroid; the cut is the BASELINE_QUANTILE of those
    distances.  Returns one flag per row and the cut value.
    """
    clusters: ClusterInit = init_clusters(points, n_clusters, rng)
    diffs = points - clusters.centroids[clusters.assignments]
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    cut = quantile(dists, BASELINE_QUANTILE)
    return dists > cut, cut


def quantile(values: np.ndarray, q: float) -> float:
    """The q-quantile of a non-empty 1-D array of values that are NaN or
    finite and >= +0, such as distances, by numpy's default (linear) rule
    on the sorted values, to the bit; NaN if any value is.  numpy's own
    quantile imports numpy.ma, about 9 ms of a CLI stage's start."""
    ranked = np.sort(values)  # any NaN last
    if np.isnan(ranked[-1]):
        return math.nan
    v = (len(ranked) - 1) * q
    lo = math.floor(v)
    a, b, t = ranked[lo], ranked[min(lo + 1, len(ranked) - 1)], v - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


@dataclass(frozen=True)
class Projection2D:
    coords: np.ndarray  # (n, 2)
    components: np.ndarray  # (2, k), unit norm, mutually orthogonal
    variances: tuple[float, float]  # explained variance, descending


def project_2d(embeddings: np.ndarray) -> Projection2D:
    """Top-2 principal components by deterministic power iteration."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ContractError(f"need at least 2 embeddings of width >= 2, got {x.shape}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    if float(np.abs(cov).max()) < 1e-15:
        raise DegenerateInputError("embeddings are all identical; nothing to project")

    start_rng = SeededRng(0x9E37)
    components = []
    variances = []
    work = cov.copy()
    for comp in range(2):
        v = start_rng.normal((x.shape[1],))
        for prev in components:
            v -= (v @ prev) * prev
        norm = np.sqrt(v @ v)
        v = v / norm
        for _ in range(POWER_MAX_ITER):
            w = work @ v
            for prev in components:
                w -= (w @ prev) * prev
            norm = float(np.sqrt(w @ w))
            if norm < 1e-300:
                raise DegenerateInputError("covariance is rank deficient below 2")
            w = w / norm
            if np.abs(w - v).max() < POWER_TOL or np.abs(w + v).max() < POWER_TOL:
                v = w
                break
            v = w
        lam = float(v @ (work @ v))
        components.append(v)
        variances.append(lam)
        work = work - lam * np.outer(v, v)
    comps = np.stack(components)
    return Projection2D(coords=centered @ comps.T, components=comps,
                        variances=(variances[0], variances[1]))


# -- run-level evaluation -------------------------------------------------------


@dataclass
class EvaluationReport:
    users: list[str]  # sorted; the per-user columns below follow it
    truth: np.ndarray  # insider?
    predicted: np.ndarray  # alert per the user-level mapping
    peaks: np.ndarray  # (users, 3): the highest u, d and s over the user's windows
    counts: ConfusionCounts
    metrics: dict[str, float | None]
    roc: RocCurve
    baseline_fpr: float | None
    projection: Projection2D  # of embeddings, one row per user
    seed: int
    config_digest: str


def evaluate_run(result, sequences, embeddings: dict[str, np.ndarray],
                 n_clusters: int, seed: int, config_digest: str) -> EvaluationReport:
    """Score a finished detection run against corpus ground truth.

    result: the detector's scored windows (a detector.DetectionResult), in
    any row order; a user's rows may be split into several runs.
    sequences: labeled BehaviorSequences establishing truth and onsets;
    scores that miss one of their users, or name a user they lack, are a
    DataError.
    embeddings: per-user full-sequence embeddings for the baseline
    detector and the latent projection; it must hold every corpus user.
    """
    seq_by_user = {s.user: s for s in sequences}
    users = sorted(seq_by_user)
    score_users = set(result.users)
    missing = [u for u in users if u not in score_users]
    if missing:
        raise DataError(f"scores cover {len(score_users)} users but corpus has "
                        f"{len(users)}; missing {missing[:5]}")
    unknown = sorted(score_users - set(users))
    if unknown:
        raise DataError(f"scores name {len(unknown)} user(s) the corpus lacks: {unknown[:5]}")

    code = {user: i for i, user in enumerate(users)}
    row_user = np.repeat([code[name] for name in result.users], result.windows).astype(np.intp)
    seqs = [seq_by_user[u] for u in users]
    truth = np.array([s.label != "benign" for s in seqs], dtype=bool)
    # window_end timestamp of each insider's onset window; NaN (never reached) otherwise
    onset_end = np.array([s.window_end - (s.t_len - 1 - s.onset) * s.window_duration
                          if s.label != "benign" and s.onset is not None else np.nan
                          for s in seqs], dtype=np.float64)
    hit = (result.trigger > 0) & (~truth[row_user]
                                  | (result.window_end >= onset_end[row_user] - 1e-9))
    predicted = np.zeros(len(users), dtype=bool)
    predicted[row_user[hit]] = True
    peaks = np.zeros((len(users), 3))
    np.maximum.at(peaks, row_user, np.column_stack((result.u, result.d, result.s)))
    peaks += 0.0  # a -0.0 peak reads 0.0, as a fold from 0.0 keeps it

    truth_of = dict(zip(users, truth.tolist()))
    counts, metrics = confusion(dict(zip(users, predicted.tolist())), truth_of)
    roc = roc_auc(dict(zip(users, peaks[:, 2].tolist())), truth_of)

    points = np.stack([embeddings[u] for u in users])
    flags, _ = baseline_kmeans_detector(points, n_clusters, SeededRng(seed, stream=777))
    n_benign = len(users) - int(truth.sum())
    baseline_fpr = int(flags[~truth].sum()) / n_benign if n_benign else None

    return EvaluationReport(users, truth, predicted, peaks, counts=counts,
                            metrics={**metrics, "auc": roc.auc},
                            roc=roc, baseline_fpr=baseline_fpr, projection=project_2d(points),
                            seed=seed, config_digest=config_digest)


def export_report(report: EvaluationReport, directory: Path | str) -> dict:
    """Write metrics.json, roc.csv, scores.csv, projection.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        **report.metrics,  # accuracy, precision, recall, f1, fpr and auc
        "baseline_fpr": report.baseline_fpr,
        "n_users": len(report.users),
        "n_insiders": int(report.truth.sum()),
        "seed": report.seed,
        "config_digest": report.config_digest,
    }
    (directory / "metrics.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    _write_csv(directory / "roc.csv", ["fpr", "tpr", "threshold"],
               ([repr(fpr), repr(tpr), repr(thr)]
                for (fpr, tpr), thr in zip(report.roc.points, report.roc.thresholds)))
    _write_csv(directory / "scores.csv", ["user", "u", "d", "s", "truth"],
               ([user, *map(repr, peaks), int(truth)] for user, peaks, truth
                in zip(report.users, report.peaks.tolist(), report.truth.tolist())))
    _write_csv(directory / "projection.csv", ["user", "x", "y"],
               ([user, repr(px), repr(py)]
                for user, (px, py) in zip(report.users, report.projection.coords.tolist())))
    return payload


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
