"""Output checks.  Each recomputes a result apart from the program, or
tests a property the method must have; none compares with a stored copy
of an earlier output.  A failed check raises CheckFailed naming the check
and the file it read.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# feature column -> event kind it counts, per data.FEATURE_NAMES
COUNT_FEATURES = {
    0: "logon",  # logon_count
    3: "file-access",  # file_access_count
    5: "removable-device",  # removable_device_events
    6: "process-exec",  # process_exec_count
    8: "email",  # email_count
    10: "http",  # http_count
}


class CheckFailed(Exception):
    def __init__(self, check: str, path: Path, detail: str):
        super().__init__(f"check {check} failed on {path}: {detail}")
        self.check = check
        self.path = path


def _require(ok: bool, check: str, path: Path, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, path, detail)


def read_corpus(corpus_dir: Path) -> dict:
    """sequences.bin (digest verified by the program's reader) and labels.csv."""
    from evsentinel.arrayio import read_blob

    header, arrays, _ = read_blob(corpus_dir / "sequences.bin")
    labels = {}
    with open(corpus_dir / "labels.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            labels[row["user"]] = (row["label"], int(row["onset"]) if row["onset"] else None)
    return {"users": header["users"], "t_len": header["t_len"],
            "dur": header["window_duration"], "features": arrays["features"],
            "n_pad": arrays["n_pad"].astype(int), "window_end": arrays["window_end"],
            "labels": labels}


def read_scores(path: Path) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({"user": row["user"], "window_end": float(row["window_end"]),
                         "u": float(row["u"]), "d": float(row["d"]), "s": float(row["s"]),
                         "alert": row["alert"] == "1", "trigger": row["trigger"]})
    return rows


# -- every workload -----------------------------------------------------------


def check_scores(scores_csv: Path, alerts_jsonl: Path, tau_u: float, tau_d: float) -> None:
    """The detector's per-window algebra and the alert ranking."""
    rows = read_scores(scores_csv)
    _require(bool(rows), "scores-nonempty", scores_csv, "no rows")
    seen = set()
    for i, r in enumerate(rows):
        where = f"row {i + 2} ({r['user']}, {r['window_end']!r})"
        _require(0.0 < r["u"] <= 1.0, "u-range", scores_csv, f"{where}: u={r['u']!r}")
        _require(r["s"] == r["u"] * r["d"], "s-equals-u-times-d", scores_csv,
                 f"{where}: s={r['s']!r}, u*d={r['u'] * r['d']!r}")
        if r["user"] not in seen:
            _require(r["d"] == 0.0, "first-window-zero-drift", scores_csv,
                     f"{where}: d={r['d']!r}")
            seen.add(r["user"])
        over_u, over_d = r["u"] > tau_u, r["d"] > tau_d
        trigger = ("both" if over_u and over_d else "uncertainty" if over_u
                   else "drift" if over_d else "")
        _require(r["alert"] == (over_u or over_d), "alert-rule", scores_csv,
                 f"{where}: alert={r['alert']} with u={r['u']!r}, d={r['d']!r}")
        _require(r["trigger"] == trigger, "alert-trigger", scores_csv,
                 f"{where}: trigger {r['trigger']!r}, expected {trigger!r}")
    expected = sorted((r for r in rows if r["alert"]),
                      key=lambda r: (-r["s"], -r["u"], r["window_end"], r["user"]))
    with open(alerts_jsonl) as fh:
        alerts = [json.loads(line) for line in fh]
    _require(len(alerts) == len(expected), "alerts-match-scores", alerts_jsonl,
             f"{len(alerts)} alerts, {len(expected)} alert rows in {scores_csv.name}")
    for rank, (a, r) in enumerate(zip(alerts, expected)):
        got = (a["user"], a["window_end"], a["s"], a["u"], a["d"], a["triggered_by"])
        want = (r["user"], r["window_end"], r["s"], r["u"], r["d"], r["trigger"])
        _require(got == want, "alerts-rank-order", alerts_jsonl,
                 f"rank {rank}: {got} != {want}")


def check_eval(report_dir: Path, scores_csv: Path, corpus: dict) -> dict:
    """auc against a pairwise Mann-Whitney AUC, recall against an own count."""
    metrics_path = report_dir / "metrics.json"
    metrics = json.loads(metrics_path.read_text())
    truth = {u: lab != "benign" for u, (lab, _) in corpus["labels"].items()}

    report_scores = report_dir / "scores.csv"
    per_user = {}
    with open(report_scores, newline="") as fh:
        for row in csv.DictReader(fh):
            per_user[row["user"]] = float(row["s"])
    _require(set(per_user) == set(truth), "report-users", report_scores,
             f"{len(per_user)} users, labels.csv has {len(truth)}")
    pos = np.array([s for u, s in per_user.items() if truth[u]])
    neg = np.array([s for u, s in per_user.items() if not truth[u]])
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    auc = float(wins / (len(pos) * len(neg)))
    _require(abs(metrics["auc"] - auc) <= 1e-9, "auc-mann-whitney", metrics_path,
             f"auc {metrics['auc']!r}, Mann-Whitney {auc!r}")

    t_len, dur = corpus["t_len"], corpus["dur"]
    onset_end = {}
    for i, user in enumerate(corpus["users"]):
        label, onset = corpus["labels"][user]
        if label != "benign":
            onset_end[user] = corpus["window_end"][i] - (t_len - 1 - onset) * dur
    caught = {r["user"] for r in read_scores(scores_csv)
              if r["alert"] and r["user"] in onset_end and r["window_end"] >= onset_end[r["user"]]}
    recall = len(caught) / len(onset_end)
    _require(abs(metrics["recall"] - recall) <= 1e-12, "recall-own-count", metrics_path,
             f"recall {metrics['recall']!r}, {len(caught)} of {len(onset_end)} insiders "
             f"alerted at or after onset = {recall!r}")
    return {"auc": metrics["auc"], "recall": metrics["recall"], "insiders": len(onset_end)}


def check_identical(path: Path, reference: Path, check: str) -> None:
    _require(path.read_bytes() == reference.read_bytes(), check, path,
             f"differs from {reference}")


# -- desk-pipeline -------------------------------------------------------------


def check_window_counts(corpus_dir: Path, corpus: dict) -> None:
    """Per-kind daily counts in sequences.bin, recounted from events.csv."""
    users = {u: i for i, u in enumerate(corpus["users"])}
    t_len, dur = corpus["t_len"], corpus["dur"]
    kinds = {kind: j for j, kind in enumerate(COUNT_FEATURES.values())}
    counts = np.zeros((len(users), t_len, len(kinds)))
    events_csv = corpus_dir / "events.csv"
    with open(events_csv, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for user, ts, kind, _ in reader:
            j = kinds.get(kind)
            if j is None:
                continue
            i = users[user]
            window_end = (math.floor(float(ts) / dur) + 1) * dur
            t = t_len - 1 - round((corpus["window_end"][i] - window_end) / dur)
            _require(0 <= t < t_len, "events-inside-sequence", events_csv,
                     f"{user} event at {ts} falls outside its {t_len} windows")
            counts[i, t, j] += 1
    stored = corpus["features"][:, :, list(COUNT_FEATURES)]
    bad = np.argwhere(stored != counts)
    if bad.size:
        i, t, j = bad[0]
        raise CheckFailed(
            "daily-counts-from-events", corpus_dir / "sequences.bin",
            f"{len(bad)} cells differ; first {corpus['users'][i]} window {t} "
            f"{list(COUNT_FEATURES.values())[j]}: stored {stored[i, t, j]}, "
            f"recounted {counts[i, t, j]}")


def check_score_rows(scores_csv: Path, corpus: dict) -> None:
    """One scores.csv row per (user, real window), in window order."""
    by_user: dict[str, list[float]] = {}
    for r in read_scores(scores_csv):
        by_user.setdefault(r["user"], []).append(r["window_end"])
    t_len, dur = corpus["t_len"], corpus["dur"]
    for i, user in enumerate(corpus["users"]):
        n_pad = corpus["n_pad"][i]
        want = [corpus["window_end"][i] - dur * (t_len - 1 - t) for t in range(n_pad, t_len)]
        got = by_user.pop(user, [])
        _require(got == want, "one-row-per-real-window", scores_csv,
                 f"{user}: {len(got)} rows, {len(want)} real windows")
    _require(not by_user, "one-row-per-real-window", scores_csv,
             f"rows for users not in the corpus: {sorted(by_user)[:3]}")


def check_training(run_dir: Path, train_stdout: str, epochs: int) -> None:
    """The checkpoint loads with its digest verified; one finite epochs.csv row per epoch."""
    from evsentinel.training import Checkpoint

    ckpt_path = run_dir / "checkpoint.ckpt"
    checkpoint = Checkpoint.load(ckpt_path)
    printed = re.search(r"checkpoint digest ([0-9a-f]+)", train_stdout)
    _require(printed is not None and checkpoint.digest.startswith(printed.group(1)),
             "checkpoint-digest", ckpt_path,
             f"loaded digest {checkpoint.digest[:16]}, train printed "
             f"{printed.group(1) if printed else 'none'}")
    epochs_csv = run_dir / "epochs.csv"
    with open(epochs_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require([int(r["epoch"]) for r in rows] == list(range(epochs)), "epochs-one-row-each",
             epochs_csv, f"{len(rows)} rows for {epochs} epochs")
    for r in rows:
        _require(all(math.isfinite(float(v)) for v in r.values()), "epochs-finite",
                 epochs_csv, f"epoch {r['epoch']}: {r}")


# -- detect-cert ---------------------------------------------------------------


def check_cert_ingest(cert_dir: Path, detect_stderr: str, malformed: int,
                      records: int) -> None:
    """The malformed count detect reports, and the records ingest yields."""
    from evsentinel.data import ingest_cert

    reported = re.search(r"skipped (\d+) malformed CERT rows", detect_stderr)
    _require(reported is not None and int(reported.group(1)) == malformed,
             "cert-malformed-count", cert_dir,
             f"detect reported {reported.group(1) if reported else 'none'}, "
             f"{malformed} injected")
    ingested, skipped = ingest_cert(cert_dir)
    _require(len(ingested) == records and skipped == malformed, "cert-records-ingested",
             cert_dir, f"{len(ingested)} records and {skipped} skipped; "
             f"{records} rows written minus {malformed} malformed expected")
