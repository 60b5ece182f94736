import csv
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evsentinel import data as data_mod
from evsentinel import detector as detector_mod
from evsentinel.data import _COLUMNS as COLUMNS
from evsentinel.data import (BehaviorSequence, Corpus, FeatureScaler, generate, load_raw_log,
                             save_corpus)
from evsentinel.detector import (
    BLOCK_USERS,
    SCORE_COLUMNS,
    Alert,
    DetectionResult,
    DetectorConfig,
    UserState,
    WindowScore,
    detect_stream,
    observe,
    read_scores_csv,
    stream_embeddings,
    write_alerts_jsonl,
    write_scores_csv,
)
from evsentinel.errors import ConfigError, DataError, DomainError
from evsentinel.evaluation import evaluate_run
from evsentinel.evidential import assess
from evsentinel.model import LatentEmbedding, head, init_encoder, init_head
from evsentinel.numerics import SeededRng
from evsentinel.training import Checkpoint, TrainConfig
from tests.test_evaluation import oracle_evaluate, per_user


def assessment_with_u(u: float, k: int = 5):
    # alpha = [k/u / k] * k gives S = k/u hence uncertainty exactly K/S
    return assess(np.full(k, 1.0 / u))


def fresh_state(baseline, user="u1"):
    return UserState(user=user, baseline=np.array(baseline, dtype=np.float64))


def make_checkpoint(t_len=12, d=12, hidden=6, K=3, seed=5, window_duration=3600.0,
                    n_layers=2):
    config = TrainConfig(epochs=1, batch_size=1, hidden=hidden, t_len=t_len,
                         input_dim=d, n_clusters=K, warmup_epochs=0, seed=seed,
                         n_layers=n_layers)
    rng = SeededRng(seed)
    return Checkpoint(
        encoder=init_encoder(d, hidden, n_layers, rng),
        head=init_head(hidden, K, rng),
        config=config,
        scaler=FeatureScaler(mean=np.zeros(d), std=np.ones(d)),
        window_duration=window_duration,
    )


# -- config -----------------------------------------------------------------------


def test_defaults_match_reference_thresholds():
    c = DetectorConfig()
    assert (c.tau_u, c.tau_d, c.beta) == (0.4, 1.5, 0.7)


@pytest.mark.parametrize("bad", [
    dict(tau_u=-0.1), dict(tau_u=1.5), dict(tau_d=0.0), dict(beta=0.0),
    dict(beta=1.5), dict(tau_d=float("nan")),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        DetectorConfig(**bad)


# -- observe ------------------------------------------------------------------------


def test_zero_drift_when_embedding_equals_baseline():
    state = fresh_state([1.0, 2.0])
    z = LatentEmbedding(values=np.array([1.0, 2.0]), user="u1", window_end=10.0)
    low_u = assessment_with_u(0.2)
    new_state, score, alert = observe(state, z, low_u, DetectorConfig())
    assert new_state.last_drift == 0.0
    assert score == 0.0
    assert alert is None

    high_u = assessment_with_u(0.9)
    _, score, alert = observe(state, z, high_u, DetectorConfig())
    assert score == 0.0
    assert alert is not None
    assert alert.triggered_by == "uncertainty"


def test_ewma_update_arithmetic():
    state = fresh_state([1.0, 1.0])
    z = LatentEmbedding(values=np.array([2.0, 2.0]), user="u1", window_end=10.0)
    new_state, _, _ = observe(state, z, assessment_with_u(0.2), DetectorConfig(beta=0.7))
    assert np.allclose(new_state.baseline, [1.7, 1.7], atol=1e-15)


def test_reference_threshold_example():
    # u=0.35, d=1.6 at thresholds (0.4, 1.5): drift-only alert, s=0.56
    state = fresh_state(np.zeros(4))
    z = LatentEmbedding(values=np.array([1.6, 0.0, 0.0, 0.0]), user="u1", window_end=9.0)
    new_state, score, alert = observe(state, z, assessment_with_u(0.35), DetectorConfig())
    assert new_state.last_drift == pytest.approx(1.6, abs=1e-12)
    assert alert is not None
    assert alert.triggered_by == "drift"
    assert score == pytest.approx(0.56, abs=1e-12)
    assert alert.s == score


def test_first_window_seeds_baseline_and_evaluates_uncertainty():
    z = LatentEmbedding(values=np.array([3.0, 4.0]), user="u9", window_end=1.0)
    state, score, alert = observe(None, z, assessment_with_u(0.5), DetectorConfig())
    assert np.array_equal(state.baseline, [3.0, 4.0])
    assert state.last_drift == 0.0
    assert score == 0.0
    assert alert is not None and alert.triggered_by == "uncertainty"

    _, _, alert2 = observe(None, z, assessment_with_u(0.2), DetectorConfig())
    assert alert2 is None


def test_ewma_closed_form_over_fifty_steps():
    beta = 0.7
    b0 = np.array([2.0, -1.0, 0.5])
    v = np.array([-0.3, 0.4, 1.2])
    state = fresh_state(b0)
    config = DetectorConfig(beta=beta)
    for t in range(1, 51):
        z = LatentEmbedding(values=v, user="u1", window_end=float(t))
        state, _, _ = observe(state, z, assessment_with_u(0.1), config)
        expected = v + (1.0 - beta) ** t * (b0 - v)
        assert np.max(np.abs(state.baseline - expected)) < 1e-9


def test_alert_predicate_exhaustive_grid():
    eps = 1e-6
    tau_u, tau_d = 0.4, 1.5
    config = DetectorConfig()
    for u in (tau_u - eps, tau_u + eps):
        for d in (tau_d - eps, tau_d + eps):
            state = fresh_state(np.zeros(3))
            z = LatentEmbedding(values=np.array([d, 0.0, 0.0]), user="u", window_end=1.0)
            _, _, alert = observe(state, z, assessment_with_u(u), config)
            assert (alert is not None) == ((u > tau_u) or (d > tau_d))


def test_equality_does_not_alert():
    config = DetectorConfig()
    state = fresh_state(np.zeros(2))
    z = LatentEmbedding(values=np.array([1.5, 0.0]), user="u", window_end=1.0)
    _, _, alert = observe(state, z, assessment_with_u(0.4), config)
    assert alert is None


def test_non_finite_embedding_rejected_without_state_change():
    state = fresh_state([1.0, 1.0])
    before = state.baseline.copy()
    z = LatentEmbedding(values=np.array([np.nan, 0.0]), user="u", window_end=1.0)
    with pytest.raises(DataError):
        observe(state, z, assessment_with_u(0.2), DetectorConfig())
    assert np.array_equal(state.baseline, before)


# -- ranking ------------------------------------------------------------------------


def alert_result(runs):
    """A DetectionResult of runs [(user, [(s, u, window_end), ...]), ...], each
    row a drift alert unless its u is 0.1, which marks a row without one."""
    rows = [w for _, windows in runs for w in windows]
    s, u, end = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    return DetectionResult([user for user, _ in runs],
                           np.array([len(windows) for _, windows in runs], dtype=np.intp),
                           end, u, s / u, s, np.where(u == 0.1, 0, 2),
                           np.zeros(len(s), dtype=np.intp), np.full((len(s), 2), 0.5))


def ranked(result, tmp_path):
    """(user, s, u, window_end) of each alerts.jsonl line write_alerts_jsonl writes."""
    write_alerts_jsonl(result, tmp_path / "alerts.jsonl")
    lines = (tmp_path / "alerts.jsonl").read_text().splitlines()
    return [(a["user"], a["s"], a["u"], a["window_end"]) for a in map(json.loads, lines)]


def test_write_alerts_jsonl_descending_score(tmp_path):
    result = alert_result([("u1", [(0.2, 0.5, 0.0), (0.9, 0.5, 1.0)]),
                           ("u0", [(0.95, 0.1, 2.0), (0.5, 0.5, 0.0)])])
    assert [s for _, s, _, _ in ranked(result, tmp_path)] == [0.9, 0.5, 0.2]


def test_write_alerts_jsonl_tie_rules(tmp_path):
    # runs out of name order; "b\x00" and "b" differ by a trailing NUL, which a
    # numpy 'U' array drops, so only Python's string order puts "b" first
    result = alert_result([("ub", [(0.5, 0.3, 5.0)]), ("uz", [(0.5, 0.3, 1.0)]),
                           ("ua", [(0.5, 0.3, 5.0), (0.5, 0.8, 9.0), (0.9, 0.1, 10.0)]),
                           ("b\x00", [(0.5, 0.3, 5.0)]), ("b", [(0.5, 0.3, 5.0)])])
    assert ranked(result, tmp_path) == [
        ("ua", 0.5, 0.8, 9.0),  # higher u first
        ("uz", 0.5, 0.3, 1.0),  # then earlier window_end
        ("b", 0.5, 0.3, 5.0), ("b\x00", 0.5, 0.3, 5.0),  # then user name
        ("ua", 0.5, 0.3, 5.0), ("ub", 0.5, 0.3, 5.0)]


def test_write_alerts_jsonl_empty(tmp_path):
    assert ranked(alert_result([("u1", [(0.9, 0.1, 0.0)])]), tmp_path) == []
    assert ranked(alert_result([]), tmp_path) == []
    assert (tmp_path / "alerts.jsonl").read_bytes() == b""


# -- full stream --------------------------------------------------------------------


def test_detect_stream_over_corpus_replays_identically(tmp_path):
    corpus = generate(6, 0.0, SeededRng(41), t_len=12, window_duration=3600.0)
    ckpt = make_checkpoint()
    ckpt.scaler = FeatureScaler.fit(corpus.sequences)
    config = DetectorConfig()
    r1 = detect_stream(ckpt, corpus, config)
    r2 = detect_stream(ckpt, corpus, config)
    assert r1.windows_processed == sum(s.t_len - s.n_pad for s in corpus.sequences)
    assert [(w.user, w.window_end, w.u, w.d, w.s) for w in r1.window_scores] == \
           [(w.user, w.window_end, w.u, w.d, w.s) for w in r2.window_scores]
    write_scores_csv(r1, tmp_path / "a.csv")
    write_scores_csv(r2, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert read_scores_csv(tmp_path / "a.csv").window_scores == r1.window_scores


def rows(events, kept):
    """The rows of events where kept holds, as a new table."""
    return replace(events, **{name: getattr(events, name)[kept] for name in COLUMNS})


def isolation_input(case):
    """A detector input and, per user, the same input holding that user alone."""
    n_users = {"lone": 1, "four-users": 4, "full-block": BLOCK_USERS}.get(case, BLOCK_USERS + 8)
    corpus = generate(n_users, 0.0, SeededRng(43), t_len=10, window_duration=3600.0)
    if case == "raw-log-gaps":
        # users start 0-3 windows late, and every third has no events in windows 4-5
        events = corpus.records
        window, user = events.timestamp // 3600.0, events.user
        kept = (window >= user % 4) & ~((user % 3 == 0) & (window >= 4) & (window < 6))
        events = rows(events, kept)
        return corpus.sequences, events, {
            name: rows(events, events.user == i) for i, name in enumerate(events.users)}
    if case == "ragged-pads":
        for i, seq in enumerate(corpus.sequences):
            seq.n_pad = i % 7
    return corpus.sequences, corpus, {
        seq.user: replace(corpus, sequences=[seq]) for seq in corpus.sequences}


@pytest.mark.parametrize("case", ["lone", "four-users", "full-block", "two-blocks",
                                  "ragged-pads", "raw-log-gaps"])
def test_per_user_isolation_under_interleaving(case):
    sequences, combined_input, solo_inputs = isolation_input(case)
    ckpt = make_checkpoint(t_len=10, window_duration=3600.0)
    ckpt.scaler = FeatureScaler.fit(sequences)
    config = DetectorConfig()

    combined = detect_stream(ckpt, combined_input, config)
    lengths = []
    for user, solo_input in solo_inputs.items():
        solo = detect_stream(ckpt, solo_input, config)
        assert solo.window_scores
        assert solo.window_scores == [w for w in combined.window_scores if w.user == user]
        lengths.append(len(solo.window_scores))
    assert len(combined.window_scores) == sum(lengths)
    if case in ("ragged-pads", "raw-log-gaps"):
        assert len(set(lengths)) > 1


def test_detect_stream_from_raw_records_matches_corpus_path():
    corpus = generate(5, 0.2, SeededRng(47), t_len=12, window_duration=3600.0)
    ckpt = make_checkpoint()
    ckpt.scaler = FeatureScaler.fit(corpus.sequences)
    config = DetectorConfig()
    from_corpus = detect_stream(ckpt, corpus, config)
    from_records = detect_stream(ckpt, corpus.records, config)
    assert from_corpus.windows_processed == from_records.windows_processed
    for a, b in zip(from_corpus.window_scores, from_records.window_scores):
        assert a.user == b.user
        assert a.u == pytest.approx(b.u, abs=1e-12)
        assert a.s == pytest.approx(b.s, abs=1e-12)


@pytest.mark.parametrize("n_layers", [1, 3])
def test_stream_embeddings_match_warm_started_step_oracle(n_layers):
    from tests.test_model import oracle_step

    corpus = generate(4, 0.25, SeededRng(51), t_len=12, window_duration=3600.0)
    ckpt = make_checkpoint(n_layers=n_layers)
    ckpt.scaler = FeatureScaler.fit(corpus.sequences)
    result = detect_stream(ckpt, corpus, DetectorConfig())
    rows = {}
    for w in result.window_scores:
        rows.setdefault(w.user, []).append(w)

    streams = [ckpt.scaler.transform(seq.features[seq.n_pad:]) for seq in corpus.sequences]
    block = stream_embeddings(ckpt.encoder, streams, ckpt.config.t_len)
    assert block.shape == (BLOCK_USERS, max(map(len, streams)), ckpt.config.hidden)
    for seq, windows, got in zip(corpus.sequences, streams, block):
        # one state per layer, stepped t_len times on the first window, then
        # once per window
        hs = [np.zeros(layer.hidden) for layer in ckpt.encoder.layers]
        expected = []
        for x in [windows[0]] * ckpt.config.t_len + list(windows):
            for i, layer in enumerate(ckpt.encoder.layers):
                hs[i] = oracle_step(layer, x, hs[i])
                x = hs[i]
            expected.append(hs[-1])
        expected = np.array(expected[ckpt.config.t_len:])

        assert np.allclose(got[:len(windows)], expected, atol=1e-12, rtol=0)
        assert len(rows[seq.user]) == len(expected)
        for row, emb in zip(rows[seq.user], expected):
            assert row.u == pytest.approx(assess(head(ckpt.head, emb[None])[0]).uncertainty,
                                          abs=1e-12)


@pytest.mark.parametrize("hidden", [6, 64])
def test_block_rows_do_not_depend_on_the_other_rows(hidden):
    # BLOCK_USERS rests on this: with a fixed block height, the BLAS gives a
    # row the same bits whichever rows and history lengths share its block
    rng = SeededRng(67)
    ckpt = make_checkpoint(hidden=hidden)
    warm = ckpt.config.t_len
    streams = [rng.normal((w, 12)) for w in (5, 9, 1, 14)]
    lone = stream_embeddings(ckpt.encoder, streams[2:3], warm)  # W_max 1
    pair = stream_embeddings(ckpt.encoder, streams[:2], warm)  # W_max 9
    full = stream_embeddings(ckpt.encoder, [streams[3], streams[1], streams[2], streams[0]] * 8,
                             warm)  # W_max 14
    assert full.shape == (BLOCK_USERS, 14, hidden)
    assert np.array_equal(lone[0, :1], full[2, :1])
    assert np.array_equal(pair[0, :5], full[3, :5])
    assert np.array_equal(pair[1, :9], full[1, :9])
    assert np.array_equal(full[:4], full[4:8])

    def alpha(states):
        return head(ckpt.head, states.reshape(-1, hidden)).reshape(*states.shape[:2], -1)

    assert np.array_equal(alpha(lone)[0, :1], alpha(full)[2, :1])
    assert np.array_equal(alpha(pair)[1, :9], alpha(full)[1, :9])


def test_detect_stream_mismatched_width_fails_before_processing():
    corpus = generate(4, 0.0, SeededRng(53), t_len=12, window_duration=3600.0)
    ckpt = make_checkpoint(d=7)
    with pytest.raises(ConfigError):
        detect_stream(ckpt, corpus, DetectorConfig())


def test_detect_stream_mismatched_t_len_fails():
    corpus = generate(4, 0.0, SeededRng(53), t_len=9, window_duration=3600.0)
    ckpt = make_checkpoint(t_len=12, window_duration=3600.0)
    with pytest.raises(ConfigError):
        detect_stream(ckpt, corpus, DetectorConfig())


def test_out_of_order_record_rejected(tmp_path):
    corpus = generate(3, 0.0, SeededRng(59), t_len=8, window_duration=3600.0)
    save_corpus(corpus, tmp_path)
    header, *rows = (tmp_path / "events.csv").read_text().splitlines()
    # move the last record of some user to the front of the raw log
    target_user = rows[len(rows) // 2].split(",")[0]
    moved = max(i for i, row in enumerate(rows) if row.startswith(target_user + ","))
    rows.insert(0, rows.pop(moved))
    (tmp_path / "events.csv").write_text("\n".join([header] + rows) + "\n")

    with pytest.raises(DataError, match=f"out-of-order record for user '{target_user}'"):
        load_raw_log(tmp_path / "events.csv")


def test_history_longer_than_t_len_still_emits_every_window():
    from evsentinel.data import window_series

    corpus = generate(2, 0.0, SeededRng(61), t_len=16, window_duration=3600.0)
    ckpt = make_checkpoint(t_len=8, window_duration=3600.0)  # context shorter than history
    ckpt.scaler = FeatureScaler.fit(corpus.sequences)
    result = detect_stream(ckpt, corpus.records, DetectorConfig())
    series = window_series(corpus.records, 3600.0)
    per_user = {}
    for w in result.window_scores:
        per_user.setdefault(w.user, []).append(w)
    for user, rows in per_user.items():
        assert len(rows) == series[user][0].shape[0]
        assert len(rows) > 8


def test_alerts_jsonl_round_trip(tmp_path):
    write_alerts_jsonl(alert_result([("u1", [(0.1, 0.5, 1.0), (0.9, 0.6, 3.0)])]),
                       tmp_path / "alerts.jsonl")
    lines = (tmp_path / "alerts.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert set(first) == {"user", "window_end", "s", "u", "d", "triggered_by", "p"}
    assert first["s"] == 0.9


# -- the block kernel against the per-window loop -------------------------------------


def oracle_observe(state, z, assessment, config):
    """The alert rule one window at a time, as the detector ran it before it
    scored a block's windows as arrays."""
    values = np.asarray(z.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError(f"non-finite embedding for user {z.user!r}")
    u = assessment.uncertainty
    if state is None:
        drift, baseline = 0.0, values.copy()
    else:
        drift = float(np.sqrt(np.sum((values - state.baseline) ** 2)))
        baseline = config.beta * values + (1.0 - config.beta) * state.baseline
    score = u * drift
    over_u, over_d = u > config.tau_u, drift > config.tau_d
    alert = None
    if over_u or over_d:
        trigger = "both" if over_u and over_d else "uncertainty" if over_u else "drift"
        alert = Alert(user=z.user, window_end=z.window_end, s=score, u=u, d=drift,
                      triggered_by=trigger, p=tuple(assessment.p))
    return UserState(user=z.user, baseline=baseline, last_drift=drift), score, alert


def oracle_detect(ckpt, source, config):
    """(window scores, alerts) of a per-window loop through assess and
    oracle_observe, over the block embeddings and concentrations that
    detect_stream scores."""
    series = detector_mod._user_window_series(ckpt, source)
    users = sorted(series)
    scores, alerts = [], []
    for lo in range(0, len(users), BLOCK_USERS):
        block = users[lo:lo + BLOCK_USERS]
        states = stream_embeddings(
            ckpt.encoder, [ckpt.scaler.transform(series[u][0]) for u in block], ckpt.config.t_len)
        n, w_max, k = states.shape
        alphas = detector_mod.head(ckpt.head, states.reshape(n * w_max, k)).reshape(n, w_max, -1)
        for user, embeddings, alpha in zip(block, states, alphas):
            state = None
            for w, end in enumerate(series[user][1]):
                z = LatentEmbedding(values=embeddings[w], user=user, window_end=float(end))
                assessment = assess(alpha[w])
                state, score, alert = oracle_observe(state, z, assessment, config)
                if alert is not None:
                    alerts.append(alert)
                scores.append(WindowScore(
                    user=user, window_end=float(end), u=assessment.uncertainty,
                    d=state.last_drift, s=score, alert=alert is not None,
                    trigger=alert.triggered_by if alert else "",
                    cluster=int(np.argmax(assessment.p))))
    return scores, alerts


def oracle_write_scores(scores, path):
    """scores.csv through csv.writer, one WindowScore a row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_COLUMNS)
        for w in scores:
            writer.writerow([w.user, repr(w.window_end), repr(w.u), repr(w.d), repr(w.s),
                             int(w.alert), w.trigger, w.cluster])


def oracle_write_alerts(alerts, path):
    """alerts.jsonl: highest s first, ties by higher u, earlier end, user."""
    with open(path, "w") as fh:
        for a in sorted(alerts, key=lambda a: (-a.s, -a.u, a.window_end, a.user)):
            fh.write(json.dumps({"user": a.user, "window_end": a.window_end, "s": a.s,
                                 "u": a.u, "d": a.d, "triggered_by": a.triggered_by,
                                 "p": list(a.p)}, sort_keys=True) + "\n")


# name suffixes csv must quote, and one it need not
NAME_SUFFIXES = ("", ",", '"', "\r", "\n", ' a,"b"\r\n')
T_LEN = 15


def ragged_corpus(names, histories, rng):
    """A corpus whose user names[i] has histories[i] windows; ends differ by user.
    Every odd user is an insider, most with an onset anywhere in the sequence."""
    return Corpus(sequences=[
        BehaviorSequence(user=name, features=3.0 * rng.normal((T_LEN, 12)),
                         window_duration=3600.0, window_end=3600.0 * (T_LEN + i % 4),
                         n_pad=T_LEN - history, label="benign" if i % 2 == 0 else "theft",
                         onset=None if i % 5 == 1 else (history + 3 * i) % T_LEN)
        for i, (name, history) in enumerate(zip(names, histories))],
        t_len=T_LEN, window_duration=3600.0, seed=0)


@st.composite
def detector_inputs(draw):
    """1-70 users (one to three blocks) with ragged histories, names csv may
    quote, and thresholds that fire always, never or sometimes."""
    n_users = draw(st.integers(1, 70))
    names = [f"u{i:02d}{draw(st.sampled_from(NAME_SUFFIXES))}" for i in range(n_users)]
    histories = draw(st.lists(st.integers(1, T_LEN), min_size=n_users, max_size=n_users))
    config = DetectorConfig(tau_u=draw(st.sampled_from((0.0, 0.4, 1.0))),
                            tau_d=draw(st.sampled_from((1e-12, 0.3, 1e12))),
                            beta=draw(st.sampled_from((0.3, 1.0))))
    return names, histories, draw(st.integers(0, 2**16)), config


@settings(max_examples=60, deadline=None)
@given(detector_inputs())
@example(([f"u{i:02d}{NAME_SUFFIXES[i % 6]}" for i in range(70)],
          [1 + i * 7 % T_LEN for i in range(70)], 3, DetectorConfig(tau_d=0.3)))
def test_block_scoring_matches_the_per_window_oracle(case):
    names, histories, seed, config = case
    ckpt = make_checkpoint(t_len=T_LEN, hidden=4, seed=seed, n_layers=1)
    corpus = ragged_corpus(names, histories, SeededRng(seed))
    result = detect_stream(ckpt, corpus, config)
    scores, alerts = oracle_detect(ckpt, corpus, config)
    assert result.windows_processed == len(scores) == sum(histories)
    assert result.window_scores == scores
    assert result.alerts == alerts
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_scores_csv(result, tmp / "scores.csv")
        oracle_write_scores(scores, tmp / "oracle.csv")
        assert (tmp / "scores.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
        write_alerts_jsonl(result, tmp / "alerts.jsonl")
        oracle_write_alerts(alerts, tmp / "oracle.jsonl")
        assert (tmp / "alerts.jsonl").read_bytes() == (tmp / "oracle.jsonl").read_bytes()
        read = read_scores_csv(tmp / "scores.csv")
    assert read.window_scores == scores
    if len(names) >= 3:  # the 2-D projection needs three users
        embeddings = dict(zip(names, SeededRng(seed).normal((len(names), 4))))
        report = evaluate_run(read, corpus.sequences, embeddings, 2, seed, "")
        assert per_user(report) == oracle_evaluate(scores, corpus.sequences)


def outcome(run):
    try:
        run()
    except (DataError, DomainError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("alphas", ["head", "constant"])
@settings(max_examples=30, deadline=None)
@given(n_users=st.integers(1, 40), seed=st.integers(0, 2**16), data=st.data())
def test_bad_windows_raise_what_the_per_window_oracle_raises(alphas, n_users, seed, data):
    # NaN features make the embedding NaN from that window on.  Through the
    # head its alpha is NaN too, a DomainError; with constant alphas the
    # embedding is the first bad value, a DataError naming the user.  A NaN
    # in a dropped pad window raises nothing.
    names = [f"u{i:02d}{NAME_SUFFIXES[i % len(NAME_SUFFIXES)]}" for i in range(n_users)]
    histories = data.draw(st.lists(st.integers(1, T_LEN), min_size=n_users, max_size=n_users))
    poisoned = data.draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, T_LEN - 1)),
                                  min_size=1, max_size=3))
    ckpt = make_checkpoint(t_len=T_LEN, hidden=4, seed=seed, n_layers=1)
    corpus = ragged_corpus(names, histories, SeededRng(seed))
    for i, row in poisoned:
        corpus.sequences[i].features[row, row % 12] = np.nan
    fake = {"head": head, "constant": lambda params, z: np.full((len(z), 3), 2.0)}[alphas]
    with mock.patch.object(detector_mod, "head", fake):
        got = outcome(lambda: detect_stream(ckpt, corpus, DetectorConfig()))
        expected = outcome(lambda: oracle_detect(ckpt, corpus, DetectorConfig()))
    assert got == expected
    if any(row >= T_LEN - histories[i] for i, row in poisoned):
        assert expected is not None
        assert expected[0] is (DomainError if alphas == "head" else DataError)


# -- the scores.csv reader against a row-by-row oracle ------------------------------


def oracle_read_scores(path):
    """scores.csv as WindowScores, one csv.DictReader row at a time, with the
    reader's checks and messages, in its order."""
    scores = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in SCORE_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}, line 1: missing column(s) {', '.join(missing)}")
        for row in reader:
            try:
                if row["user"] is None:
                    raise ValueError("no user")
                if row["alert"] not in ("0", "1"):
                    raise ValueError(f"alert {row['alert']!r} is not 0 or 1")
                alert, trigger = row["alert"] == "1", row["trigger"]
                if trigger not in ("", "uncertainty", "drift", "both") or bool(trigger) != alert:
                    raise ValueError(f"trigger {trigger!r} does not fit alert {row['alert']}")
                u, d, s = (float(row[c]) for c in ("u", "d", "s"))
                if not 0.0 < u <= 1.0:
                    raise ValueError(f"u {row['u']!r} is not in (0, 1]")
                for name, value in (("d", d), ("s", s)):
                    if not (value >= 0.0 and math.isfinite(value)):
                        raise ValueError(f"{name} {row[name]!r} is negative or not finite")
                end, cluster = float(row["window_end"]), int(row["cluster"])
                if not math.isfinite(end):
                    raise ValueError(f"window_end {row['window_end']!r} is not finite")
                scores.append(WindowScore(row["user"], end, u, d, s, alert, trigger, cluster))
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return scores


# per column, values the reader accepts and values it rejects
GOOD_VALUES = {"user": ("u1", "u2", 'a,"b"\r\nc', "x\ry", ""),
               "window_end": ("3600.0", "-7200.5", "1e300"),
               "u": ("0.5", "1.0", "1e-300"), "d": ("0.0", "-0.0", "1.5"),
               "s": ("0.0", "-0.0", "0.75"), "cluster": ("0", "3", "-1", "9" * 25)}
BAD_VALUES = {"user": (), "window_end": ("nan", "-inf", "1e400", "x"),
              "u": ("0.0", "nan", "1.5", ""), "d": ("-1", "inf", "x"), "s": ("nan", "-1e-9"),
              "cluster": ("1.5", "x", "")}
GOOD_ALERTS = (("0", ""), ("1", "uncertainty"), ("1", "drift"), ("1", "both"))
BAD_ALERTS = (("2", ""), ("1", ""), ("0", "drift"), ("1", "sometimes"))


@st.composite
def edited_scores_csv(draw):
    """The text of a scores.csv, maybe with bad values, short rows, extra
    fields, a repeated column, blank lines and \\n line ends."""
    faulty = draw(st.booleans())

    def value(column):
        return draw(st.sampled_from(GOOD_VALUES[column] + BAD_VALUES[column] * faulty))

    repeated = draw(st.sampled_from(((),) + tuple((c,) for c in GOOD_VALUES)))
    header = list(SCORE_COLUMNS) + list(repeated)
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        alert = draw(st.sampled_from(GOOD_ALERTS + BAD_ALERTS * faulty))
        row = [value(c) for c in SCORE_COLUMNS[:5]] + list(alert) + [value("cluster")]
        row += [value(c) for c in repeated]
        if faulty and draw(st.booleans()):
            row = row[:draw(st.integers(1, len(row)))] + ["extra"] * draw(st.integers(0, 2))
        rows += [[]] * draw(st.integers(0, 1)) + [row]  # [] is a blank line
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(("\r\n", "\n")))).writerows(rows)
    return out.getvalue()


def read_or_message(read, path):
    try:
        return repr(read(path))
    except DataError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(edited_scores_csv(), st.integers(1, 4))
def test_scores_reader_matches_the_row_by_row_oracle(text, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_mod, "_CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "scores.csv"
        path.write_text(text, newline="")
        assert read_or_message(lambda p: read_scores_csv(p).window_scores, path) == \
               read_or_message(oracle_read_scores, path)
