"""Ground-truth scoring, ROC/AUC, baseline comparison, and report export.

User-level truth: an insider counts as detected when any alert fires in a
window at or after the scenario onset; any alert on a benign user is a
false positive.  Per-user continuous scores aggregate windows by maximum,
which preserves the peak-anomaly signal the ranking rule sorts on.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, DegenerateInputError
from .numerics import SeededRng
from .training import ClusterInit, init_clusters

REPORT_SCHEMA_VERSION = 1
BASELINE_QUANTILE = 0.95  # the k-means baseline flags the farthest 5% of users


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
    tp = fp = tn = fn = 0
    for user, pred in predicted.items():
        if truth[user]:
            tp, fn = (tp + 1, fn) if pred else (tp, fn + 1)
        else:
            fp, tn = (fp + 1, tn) if pred else (fp, tn + 1)
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
    y_sorted = y[order]
    points = [(0.0, 0.0)]
    thresholds = [float("inf")]
    tp = fp = 0
    i = 0
    n = len(users)
    while i < n:
        j = i
        while j < n and s_sorted[j] == s_sorted[i]:
            j += 1
        tp += int(y_sorted[i:j].sum())
        fp += (j - i) - int(y_sorted[i:j].sum())
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(float(s_sorted[i]))
        i = j
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(points), thresholds=tuple(thresholds), auc=auc)


def baseline_kmeans_detector(embeddings: dict[str, np.ndarray], n_clusters: int,
                             rng: SeededRng) -> tuple[dict[str, bool], float]:
    """Hard-clustering baseline: flag users far from every centroid.

    Distances are measured to the nearest k-means centroid; the cut is
    the BASELINE_QUANTILE of the training-set distances.  Returns the flags
    and the cut value.
    """
    users = sorted(embeddings)
    points = np.stack([embeddings[u] for u in users])
    clusters: ClusterInit = init_clusters(points, n_clusters, rng)
    diffs = points - clusters.centroids[clusters.assignments]
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    cut = float(np.quantile(dists, BASELINE_QUANTILE))
    flags = {u: bool(dists[i] > cut) for i, u in enumerate(users)}
    return flags, cut


@dataclass(frozen=True)
class Projection2D:
    coords: np.ndarray  # (n, 2)
    components: np.ndarray  # (2, k), unit norm, mutually orthogonal
    variances: tuple[float, float]  # explained variance, descending


def project_2d(embeddings: np.ndarray, max_iter: int = 1000,
               tol: float = 1e-13) -> Projection2D:
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
        for _ in range(max_iter):
            w = work @ v
            for prev in components:
                w -= (w @ prev) * prev
            norm = float(np.sqrt(w @ w))
            if norm < 1e-300:
                raise DegenerateInputError("covariance is rank deficient below 2")
            w = w / norm
            if float(np.abs(w - v).max()) < tol or float(np.abs(w + v).max()) < tol:
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
    projection: Projection2D
    projection_users: list[str]
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
    detector and the latent projection.
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

    flags, _ = baseline_kmeans_detector(embeddings, n_clusters,
                                        SeededRng(seed, stream=777))
    benign = [u for u, t in truth_of.items() if not t]
    baseline_fpr = (sum(flags[u] for u in benign) / len(benign)) if benign else None

    users_sorted = sorted(embeddings)
    projection = project_2d(np.stack([embeddings[u] for u in users_sorted]))

    all_metrics = dict(metrics)
    all_metrics["auc"] = roc.auc
    return EvaluationReport(users, truth, predicted, peaks, counts=counts, metrics=all_metrics,
                            roc=roc, baseline_fpr=baseline_fpr, projection=projection,
                            projection_users=users_sorted, seed=seed,
                            config_digest=config_digest)


def export_report(report: EvaluationReport, directory: Path | str) -> dict:
    """Write metrics.json, roc.csv, scores.csv, projection.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "accuracy": report.metrics["accuracy"],
        "precision": report.metrics["precision"],
        "recall": report.metrics["recall"],
        "f1": report.metrics["f1"],
        "fpr": report.metrics["fpr"],
        "auc": report.metrics["auc"],
        "baseline_fpr": report.baseline_fpr,
        "n_users": len(report.users),
        "n_insiders": int(report.truth.sum()),
        "seed": report.seed,
        "config_digest": report.config_digest,
    }
    (directory / "metrics.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    with open(directory / "roc.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr", "threshold"])
        for (fpr, tpr), thr in zip(report.roc.points, report.roc.thresholds):
            writer.writerow([repr(fpr), repr(tpr), repr(thr)])

    with open(directory / "scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "u", "d", "s", "truth"])
        for user, peaks, truth in zip(report.users, report.peaks.tolist(),
                                      report.truth.tolist()):
            writer.writerow([user, *map(repr, peaks), int(truth)])

    write_projection_csv(report.projection_users, report.projection,
                         directory / "projection.csv")
    return payload


def write_projection_csv(users: list[str], projection: Projection2D,
                         path: Path | str) -> None:
    """One user,x,y row per user, coordinates as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "x", "y"])
        for user, (px, py) in zip(users, projection.coords):
            writer.writerow([user, repr(float(px)), repr(float(py))])
