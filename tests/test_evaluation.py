import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsentinel import detector as detector_mod
from evsentinel.data import generate
from evsentinel.detector import DetectionResult, WindowScore
from evsentinel.errors import ContractError, DegenerateInputError
from evsentinel.evaluation import (
    BASELINE_QUANTILE,
    baseline_kmeans_detector,
    confusion,
    evaluate_run,
    export_report,
    project_2d,
    quantile,
    roc_auc,
)
from evsentinel.numerics import SeededRng


# -- confusion ---------------------------------------------------------------------


def test_all_correct_ten_users():
    truth = {f"u{i}": i < 3 for i in range(10)}
    counts, metrics = confusion(truth.copy(), truth)
    assert metrics["accuracy"] == 1.0
    assert metrics["fpr"] == 0.0
    assert counts.tp == 3 and counts.tn == 7


def test_fpr_two_of_twenty():
    truth = {f"b{i}": False for i in range(20)}
    truth["x"] = True
    predicted = {u: False for u in truth}
    predicted["b0"] = predicted["b1"] = True
    predicted["x"] = True
    _, metrics = confusion(predicted, truth)
    assert metrics["fpr"] == pytest.approx(0.1)


def test_hand_arithmetic_precision_recall_f1():
    # tp=3, fp=1, fn=2, tn=4
    truth, predicted = {}, {}
    for i in range(3):
        truth[f"tp{i}"] = True
        predicted[f"tp{i}"] = True
    truth["fp0"] = False
    predicted["fp0"] = True
    for i in range(2):
        truth[f"fn{i}"] = True
        predicted[f"fn{i}"] = False
    for i in range(4):
        truth[f"tn{i}"] = False
        predicted[f"tn{i}"] = False
    counts, metrics = confusion(predicted, truth)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (3, 1, 2, 4)
    assert metrics["precision"] == pytest.approx(0.75)
    assert metrics["recall"] == pytest.approx(0.6)
    assert metrics["f1"] == pytest.approx(2 * 0.75 * 0.6 / 1.35)
    assert metrics["accuracy"] == 1.0 - (counts.fp + counts.fn) / counts.total


def test_undefined_metrics_reported_absent():
    truth = {"a": False, "b": False}
    predicted = {"a": False, "b": False}
    _, metrics = confusion(predicted, truth)
    assert metrics["recall"] is None    # no positives
    assert metrics["precision"] is None  # no predicted positives
    assert metrics["fpr"] == 0.0


def test_key_mismatch_rejected():
    with pytest.raises(ContractError):
        confusion({"a": True}, {"a": True, "b": False})


# -- ROC / AUC ---------------------------------------------------------------------


def test_perfect_separation_auc_one():
    scores = {"p0": 0.9, "p1": 0.8, "n0": 0.2, "n1": 0.1}
    truth = {"p0": True, "p1": True, "n0": False, "n1": False}
    curve = roc_auc(scores, truth)
    assert curve.auc == pytest.approx(1.0)
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)


def test_all_tied_scores_auc_half():
    scores = {f"u{i}": 0.5 for i in range(10)}
    truth = {f"u{i}": i < 4 for i in range(10)}
    assert roc_auc(scores, truth).auc == pytest.approx(0.5)


def brute_pairwise(scores, truth):
    pos = [v for u, v in scores.items() if truth[u]]
    neg = [v for u, v in scores.items() if not truth[u]]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def pairwise_auc(scores, truth):
    """Probability a random positive outscores a random negative (ties 0.5)."""
    pos = np.array([v for u, v in scores.items() if truth[u]])
    neg = np.array([v for u, v in scores.items() if not truth[u]])
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def test_trapezoid_matches_pairwise_with_ties():
    rng = SeededRng(71)
    # quantized scores force plenty of ties
    scores = {f"u{i}": round(float(rng.uniform()), 1) for i in range(200)}
    truth = {f"u{i}": rng.uniform() < 0.3 for i in range(200)}
    if not any(truth.values()) or all(truth.values()):
        truth["u0"] = True
        truth["u1"] = False
    curve = roc_auc(scores, truth)
    assert curve.auc == pytest.approx(brute_pairwise(scores, truth), abs=1e-9)
    assert curve.auc == pytest.approx(pairwise_auc(scores, truth), abs=1e-12)


def test_roc_monotone_points():
    rng = SeededRng(73)
    scores = {f"u{i}": float(rng.uniform()) for i in range(50)}
    truth = {f"u{i}": rng.uniform() < 0.4 for i in range(50)}
    curve = roc_auc(scores, truth)
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    assert xs == sorted(xs)
    assert ys == sorted(ys)
    assert 0.0 <= curve.auc <= 1.0


def oracle_roc(scores, truth):
    """roc_auc's curve, one tie group at a time."""
    users = sorted(scores)
    y = np.array([truth[u] for u in users], dtype=bool)
    s = np.array([scores[u] for u in users], dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = len(users) - n_pos
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    points, thresholds = [(0.0, 0.0)], [float("inf")]
    tp = fp = i = 0
    while i < len(users):
        j = i
        while j < len(users) and s_sorted[j] == s_sorted[i]:
            j += 1
        tp += int(y_sorted[i:j].sum())
        fp += (j - i) - int(y_sorted[i:j].sum())
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(float(s_sorted[i]))
        i = j
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return tuple(points), tuple(thresholds), auc


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 1e-300, 3.0)),
                          st.booleans()), min_size=2, max_size=40)
       .filter(lambda rows: len({label for _, label in rows}) == 2))
def test_roc_matches_tie_group_oracle(rows):
    """Heavy ties, signed zeros and both classes: every point, threshold
    and the auc equal the oracle's bit for bit."""
    scores = {f"u{i:02d}": score for i, (score, _) in enumerate(rows)}
    truth = {f"u{i:02d}": label for i, (_, label) in enumerate(rows)}
    curve = roc_auc(scores, truth)
    points, thresholds, auc = oracle_roc(scores, truth)
    assert curve.points == points
    assert list(map(repr, curve.thresholds)) == list(map(repr, thresholds))
    assert curve.auc == auc and repr(curve.auc) == repr(auc)


def test_single_class_rejected():
    with pytest.raises(DegenerateInputError):
        roc_auc({"a": 1.0, "b": 0.5}, {"a": True, "b": True})


# -- baseline detector ---------------------------------------------------------------


def test_baseline_flags_match_distance_definition():
    from evsentinel.training import init_clusters

    rng = SeededRng(77)
    blob_a = rng.normal((15, 4)) * 0.5
    blob_b = rng.normal((15, 4)) * 0.5 + 10.0
    points = np.vstack([blob_a, blob_b])
    flags, cut = baseline_kmeans_detector(points, 2, SeededRng(78))

    # independent recompute of the rule: distance to nearest centroid > cut
    clusters = init_clusters(points, 2, SeededRng(78))
    diffs = points - clusters.centroids[clusters.assignments]
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    assert cut == np.quantile(dists, BASELINE_QUANTILE)
    assert flags.dtype == bool and flags.shape == (30,)
    for row, dist in enumerate(dists):
        assert flags[row] == (dist > cut)
    # the 95% cut of 30 distances leaves the top two above it; the nearest never is
    assert flags.sum() == 2
    assert not flags[int(np.argmin(dists))]


def test_quantile_matches_numpy_to_the_bit():
    rng = SeededRng(95)
    for case in range(5000):
        n = 1 + rng.index_below(60)
        values = np.abs(rng.normal((n,))) * 10.0 ** (rng.index_below(7) - 3)
        if case % 3 == 0:
            values = np.round(values, 1)  # ties and zeros
        if case % 50 == 0:
            values[rng.index_below(n)] = np.nan
        for q in (BASELINE_QUANTILE, 0.0, 0.5, 1.0, rng.uniform()):
            assert np.float64(quantile(values, q)).tobytes() == \
                np.float64(np.quantile(values, q)).tobytes(), (values, q)


# -- 2-D projection -------------------------------------------------------------------


def test_projection_recovers_axis_aligned_data():
    # crafted so the empirical covariance is exactly diagonal
    x = np.tile([3.0, -3.0, 1.0, -1.0], 10)
    y = np.tile([0.5, 0.5, -0.5, -0.5], 10)
    data = np.column_stack([x, y])
    assert abs((x * y).sum()) < 1e-12
    proj = project_2d(data)
    for j in range(2):
        same = np.allclose(proj.coords[:, j], data[:, j], atol=1e-8)
        flipped = np.allclose(proj.coords[:, j], -data[:, j], atol=1e-8)
        assert same or flipped
    assert proj.variances[0] >= proj.variances[1]


def test_projection_components_orthonormal():
    data = SeededRng(83).normal((60, 6))
    proj = project_2d(data)
    c1, c2 = proj.components
    assert abs(np.dot(c1, c2)) <= 1e-8
    assert np.sqrt(c1 @ c1) == pytest.approx(1.0, abs=1e-12)
    assert np.sqrt(c2 @ c2) == pytest.approx(1.0, abs=1e-12)


def test_projection_variance_matches_dense_eigensolver():
    data = SeededRng(89).normal((100, 8)) @ np.diag([4.0, 2.5, 1.5, 1, 1, 0.5, 0.3, 0.2])
    proj = project_2d(data)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / data.shape[0]
    eigvals = np.linalg.eigh(cov)[0]
    assert proj.variances[0] == pytest.approx(eigvals[-1], abs=1e-6)
    assert proj.variances[1] == pytest.approx(eigvals[-2], abs=1e-6)


def test_projection_rejects_identical_points():
    with pytest.raises(DegenerateInputError):
        project_2d(np.ones((10, 4)))


def test_projection_rejects_tiny_inputs():
    with pytest.raises(ContractError):
        project_2d(np.ones((1, 4)))


# -- run evaluation and export ---------------------------------------------------------


def result_of(scores, p=None):
    """A DetectionResult holding the WindowScores scores, one run per row."""
    return DetectionResult(
        [w.user for w in scores], np.ones(len(scores), dtype=np.intp),
        *(np.array([getattr(w, c) for w in scores], dtype=np.float64)
          for c in ("window_end", "u", "d", "s")),
        np.array([detector_mod._TRIGGERS.index(w.trigger) for w in scores], dtype=np.intp),
        np.array([w.cluster for w in scores], dtype=np.intp), p)


def oracle_evaluate(window_scores, sequences):
    """Per user, by name: (truth, predicted, max u, max d, max s), folded one
    WindowScore at a time, as evaluate_run did before it kept columns."""
    onset_end = {}
    for s in sequences:
        if s.label != "benign" and s.onset is not None:
            onset_end[s.user] = s.window_end - (s.t_len - 1 - s.onset) * s.window_duration
    agg = {s.user: [s.label != "benign", False, 0.0, 0.0, 0.0] for s in sequences}
    for w in window_scores:
        o = agg[w.user]
        o[2:] = max(o[2], w.u), max(o[3], w.d), max(o[4], w.s)
        if w.alert and (not o[0] or (w.user in onset_end
                                     and w.window_end >= onset_end[w.user] - 1e-9)):
            o[1] = True
    return repr({user: tuple(agg[user]) for user in sorted(agg)})


def per_user(report):
    """The report's per-user columns in oracle_evaluate's form."""
    return repr({user: (truth, predicted, *peaks) for user, truth, predicted, peaks in zip(
        report.users, report.truth.tolist(), report.predicted.tolist(), report.peaks.tolist())})


def synthetic_run(seed=91):
    corpus = generate(20, 0.1, SeededRng(seed), t_len=10, window_duration=3600.0)
    rng = SeededRng(seed + 1)
    rows = []
    embeddings = {}
    for seq in corpus.sequences:
        insider = seq.label != "benign"
        embeddings[seq.user] = rng.normal((6,)) + (5.0 if insider else 0.0)
        for w in range(seq.t_len):
            end = seq.window_end - (seq.t_len - 1 - w) * seq.window_duration
            drift = 2.0 if (insider and seq.onset is not None and w >= seq.onset) else 0.2
            u = 0.3
            rows.append(WindowScore(user=seq.user, window_end=end, u=u, d=drift,
                                    s=u * drift, alert=drift > 1.5,
                                    trigger="drift" if drift > 1.5 else "",
                                    cluster=0))
    return corpus, result_of(rows), embeddings


def test_evaluate_run_end_to_end(tmp_path):
    corpus, rows, embeddings = synthetic_run()
    report = evaluate_run(rows, corpus.sequences, embeddings, n_clusters=2,
                          seed=91, config_digest="abc123")
    assert report.metrics["accuracy"] == 1.0
    assert report.metrics["fpr"] == 0.0
    assert report.metrics["auc"] == 1.0
    assert report.baseline_fpr is not None

    payload = export_report(report, tmp_path / "report")
    for name in ("metrics.json", "roc.csv", "scores.csv", "projection.csv"):
        assert (tmp_path / "report" / name).exists()
    # epochs.csv has one writer, training; eval only copies it on request
    assert not (tmp_path / "report" / "epochs.csv").exists()

    loaded = json.loads((tmp_path / "report" / "metrics.json").read_text())
    assert loaded == payload
    for key in ("accuracy", "precision", "recall", "f1", "fpr", "auc",
                "baseline_fpr", "n_users", "n_insiders", "seed", "config_digest"):
        assert key in loaded


def test_metrics_auc_matches_roc_csv_recomputation(tmp_path):
    corpus, rows, embeddings = synthetic_run(seed=93)
    report = evaluate_run(rows, corpus.sequences, embeddings, n_clusters=2,
                          seed=93, config_digest="d")
    export_report(report, tmp_path / "r")
    lines = (tmp_path / "r" / "roc.csv").read_text().strip().splitlines()[1:]
    pts = [(float(a), float(b)) for a, b, _ in (line.split(",") for line in lines)]
    auc = sum((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
    loaded = json.loads((tmp_path / "r" / "metrics.json").read_text())
    assert loaded["auc"] == pytest.approx(auc, abs=1e-12)


def test_re_export_is_byte_identical(tmp_path):
    corpus, rows, embeddings = synthetic_run(seed=97)
    report = evaluate_run(rows, corpus.sequences, embeddings, n_clusters=2,
                          seed=97, config_digest="x")
    export_report(report, tmp_path / "a")
    export_report(report, tmp_path / "b")
    for name in ("metrics.json", "roc.csv", "scores.csv", "projection.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_insider_alert_before_onset_does_not_count():
    corpus = generate(20, 0.1, SeededRng(99), t_len=10, window_duration=3600.0)
    rows = []
    embeddings = {}
    rng = SeededRng(100)
    for seq in corpus.sequences:
        insider = seq.label != "benign"
        embeddings[seq.user] = rng.normal((4,)) + (3.0 if insider else 0.0)
        for w in range(seq.t_len):
            end = seq.window_end - (seq.t_len - 1 - w) * seq.window_duration
            # insiders alert only before their onset; benign users never alert
            alert = insider and seq.onset is not None and w < seq.onset
            rows.append(WindowScore(user=seq.user, window_end=end, u=0.3, d=0.1,
                                    s=0.03, alert=alert,
                                    trigger="drift" if alert else "", cluster=0))
    report = evaluate_run(result_of(rows), corpus.sequences, embeddings, n_clusters=2,
                          seed=99, config_digest="y")
    assert report.counts.tp == 0
    assert report.counts.fn == 2
    assert report.metrics["fpr"] == 0.0
