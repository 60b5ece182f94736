import csv
import hashlib
import io
import math
import tempfile
import tracemalloc
from collections import namedtuple
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evsentinel import data as data_mod
from evsentinel.data import (
    EVENT_KINDS,
    FEATURE_NAMES,
    MODES,
    OFF_HOURS_END,
    SCENARIOS,
    EventTable,
    FeatureScaler,
    ScenarioSpec,
    _sample_profile,
    _scenario_rates,
    _stream_events,
    default_scenario,
    extract_features,
    generate,
    ingest_cert,
    load_corpus,
    load_raw_log,
    save_corpus,
    window_series,
)
from evsentinel.arrayio import write_blob
from evsentinel.errors import ContractError, DataError
from evsentinel.numerics import SeededRng

F = {name: i for i, name in enumerate(FEATURE_NAMES)}
BYTES_LOC = {"file-access": 9.0, "removable-device": 13.0, "http": 7.0, "email": 10.0}

# one event as the per-event oracle sees it: attributes is a dict of strings
Event = namedtuple("Event", "user timestamp kind attributes", defaults=((),))


def make_table(events) -> EventTable:
    """An EventTable of Events, coded as the raw-log reader codes them."""
    attrs = [dict(e.attributes) for e in events]
    users = sorted({e.user for e in events})
    hosts = sorted({a["host"] for a in attrs if "host" in a})
    commands = sorted({a["cmd"] for a in attrs if "cmd" in a})

    def codes(key, names):
        return np.array([names.index(a[key]) if key in a else -1 for a in attrs], dtype=np.intp)

    return EventTable(
        users=users, hosts=hosts, commands=commands,
        user=np.array([users.index(e.user) for e in events], dtype=np.intp),
        timestamp=np.array([e.timestamp for e in events], dtype=np.float64),
        kind=np.array([EVENT_KINDS.index(e.kind) for e in events], dtype=np.int8),
        host=codes("host", hosts), cmd=codes("cmd", commands),
        bytes=np.array([float(a.get("bytes", "nan")) for a in attrs], dtype=np.float64),
        mode=np.array([MODES.index(a["mode"]) if a.get("mode") in MODES else -1
                       for a in attrs], dtype=np.int8),
        external=np.array([int(a["external"] == "1") if "external" in a else -1
                           for a in attrs], dtype=np.int8))


def events_of(table: EventTable) -> list[Event]:
    """The table's rows as Events, attribute values written as events.csv writes them."""
    out = []
    for i in range(len(table)):
        attrs = {}
        if table.host[i] >= 0:
            attrs["host"] = table.hosts[table.host[i]]
        if table.cmd[i] >= 0:
            attrs["cmd"] = table.commands[table.cmd[i]]
        b = float(table.bytes[i])
        if not math.isnan(b):
            attrs["bytes"] = str(int(b)) if b.is_integer() else repr(b)
        if table.mode[i] >= 0:
            attrs["mode"] = MODES[table.mode[i]]
        if table.external[i] >= 0:
            attrs["external"] = str(table.external[i])
        out.append(Event(table.users[table.user[i]], float(table.timestamp[i]),
                         EVENT_KINDS[table.kind[i]], attrs))
    return out


def window_features(events) -> np.ndarray:
    """Reduce the events of one (user, window) bucket to the 12 features (the oracle)."""
    logons = offhours = files = reads = writes = device = procs = 0
    emails = external = https = 0
    hosts: set[str] = set()
    commands: set[str] = set()
    total_bytes = 0.0
    for ev in events:
        attrs = dict(ev.attributes)
        if "host" in attrs:
            hosts.add(attrs["host"])
        if "bytes" in attrs:
            total_bytes += float(attrs["bytes"])
        if ev.kind == "logon":
            logons += 1
            if int((ev.timestamp % 86400.0) // 3600.0) < OFF_HOURS_END:
                offhours += 1
        elif ev.kind == "file-access":
            files += 1
            mode = attrs.get("mode")
            if mode == "read":
                reads += 1
            elif mode == "write":
                writes += 1
        elif ev.kind == "removable-device":
            device += 1
        elif ev.kind == "process-exec":
            procs += 1
        elif ev.kind == "command":
            if "cmd" in attrs:
                commands.add(attrs["cmd"])
        elif ev.kind == "email":
            emails += 1
            if attrs.get("external") == "1":
                external += 1
        elif ev.kind == "http":
            https += 1
    rw_total = reads + writes
    return np.array([
        logons,
        offhours,
        len(hosts),
        files,
        reads / rw_total if rw_total else 0.0,
        device,
        procs,
        len(commands),
        emails,
        external / emails if emails else 0.0,
        https,
        math.log1p(total_bytes),
    ], dtype=np.float64)


def oracle_window_series(events, window_duration, start_time=None):
    """window_series by bucketing Events in dicts, one window_features call each."""
    t0 = start_time if start_time is not None else min(e.timestamp for e in events)
    t0 = math.floor(t0 / window_duration) * window_duration
    buckets = {}
    for ev in events:
        idx = int((ev.timestamp - t0) // window_duration)
        buckets.setdefault(ev.user, {}).setdefault(idx, []).append(ev)
    out = {}
    for user, by_window in buckets.items():
        lo, hi = min(by_window), max(by_window)
        feats = np.zeros((hi - lo + 1, len(FEATURE_NAMES)))
        ends = np.empty(hi - lo + 1)
        for w in range(lo, hi + 1):
            if w in by_window:
                feats[w - lo] = window_features(by_window[w])
            ends[w - lo] = t0 + (w + 1) * window_duration
        out[user] = (feats, ends)
    return out


def assert_series_equal(got, expected):
    assert sorted(got) == sorted(expected)
    for user, (feats, ends) in expected.items():
        assert np.array_equal(got[user][0], feats), user
        assert np.array_equal(got[user][1], ends), user


# -- feature extraction --------------------------------------------------------


def test_empty_window_is_zero_vector():
    assert np.array_equal(window_features([]), np.zeros(12))
    table = make_table([Event("u", 10.0, "logon"), Event("u", 2 * 3600.0 + 10.0, "http")])
    feats, ends = window_series(table, 3600.0)["u"]
    assert np.array_equal(feats[1], np.zeros(12))
    assert list(ends) == [3600.0, 7200.0, 10800.0]


def test_distinct_counts_match_np_unique():
    """distinct_hosts and distinct_commands count each (user, window)'s
    codes as np.unique does, leaving out absent codes (-1) and, for
    commands, events of other kinds."""
    rng = SeededRng(41)
    n = 3000
    users, hosts, commands = ["u0", "u1", "u2"], [f"h{i}" for i in range(6)], ["ls", "rm", "cp"]
    table = EventTable(
        users=users, hosts=hosts, commands=commands,
        user=(rng.uniform((n,)) * 3).astype(np.intp),
        timestamp=rng.uniform((n,)) * 5 * 3600.0,
        kind=(rng.uniform((n,)) * len(EVENT_KINDS)).astype(np.int8),
        host=(rng.uniform((n,)) * 7).astype(np.intp) - 1,
        cmd=(rng.uniform((n,)) * 4).astype(np.intp) - 1,
        bytes=np.full(n, np.nan), mode=np.full(n, -1), external=np.full(n, -1))
    window = (table.timestamp // 3600.0).astype(np.intp)
    command = table.kind == EVENT_KINDS.index("command")
    series = window_series(table, 3600.0, start_time=0.0)
    for u, user in enumerate(users):
        feats, ends = series[user]
        for w in range(len(ends)):
            rows = (table.user == u) & (window == int(ends[w] // 3600.0) - 1)
            assert feats[w, F["distinct_hosts"]] == \
                np.unique(table.host[rows & (table.host >= 0)]).size
            assert feats[w, F["distinct_commands"]] == \
                np.unique(table.cmd[rows & command & (table.cmd >= 0)]).size


def test_three_am_logon_counts_as_off_hours():
    table = make_table([Event("u", 3 * 3600.0, "logon", {"host": "pc1"})])
    v = window_series(table, 86400.0)["u"][0][0]
    assert v[F["logon_count"]] == 1
    assert v[F["offhours_logon_count"]] == 1
    assert v[F["distinct_hosts"]] == 1


def test_daytime_logon_is_not_off_hours():
    table = make_table([Event("u", 10 * 3600.0, "logon")])
    v = window_series(table, 86400.0)["u"][0][0]
    assert v[F["logon_count"]] == 1
    assert v[F["offhours_logon_count"]] == 0


def test_hand_tallied_five_event_fixture():
    t0 = 3 * 3600.0
    events = [
        Event("u", t0 + 60, "logon", {"host": "pc1"}),
        Event("u", t0 + 120, "file-access", {"host": "pc1", "mode": "read", "bytes": "100"}),
        Event("u", t0 + 180, "file-access", {"host": "pc2", "mode": "write", "bytes": "200"}),
        Event("u", t0 + 240, "email", {"external": "1"}),
        Event("u", t0 + 300, "http", {"bytes": "50"}),
    ]
    expected = np.zeros(12)
    expected[F["logon_count"]] = 1
    expected[F["offhours_logon_count"]] = 1
    expected[F["distinct_hosts"]] = 2
    expected[F["file_access_count"]] = 2
    expected[F["file_read_write_ratio"]] = 0.5
    expected[F["email_count"]] = 1
    expected[F["email_external_ratio"]] = 1.0
    expected[F["http_count"]] = 1
    expected[F["bytes_moved_log"]] = math.log1p(350.0)
    assert np.allclose(window_features(events), expected, atol=1e-12)
    (feats, _), = window_series(make_table(events), 86400.0).values()
    assert np.allclose(feats, expected[None], atol=1e-12)


def test_window_partition_preserves_event_counts():
    rng = SeededRng(31)
    records = []
    for i in range(500):
        user = f"u{rng.index_below(4)}"
        ts = rng.uniform() * 20 * 3600.0
        records.append(Event(user, ts, "logon"))
    series = window_series(make_table(records), 3600.0)
    total_logons = sum(feats[:, F["logon_count"]].sum() for feats, _ in series.values())
    assert total_logons == 500


def test_extract_features_pads_short_histories_at_front():
    records = make_table([Event("u1", 3600.0 * w + 10.0, "logon") for w in range(10)])
    seqs = extract_features(records, 3600.0, 20)
    assert len(seqs) == 1
    seq = seqs[0]
    assert seq.t_len == 20
    assert seq.n_pad == 10
    assert np.array_equal(seq.features[:10], np.zeros((10, 12)))
    assert seq.features[10:, F["logon_count"]].sum() == 10


def test_extract_features_keeps_most_recent_windows():
    records = make_table([Event("u1", 3600.0 * w + 10.0, "logon") for w in range(30)])
    seqs = extract_features(records, 3600.0, 20)
    assert seqs[0].n_pad == 0
    assert seqs[0].t_len == 20
    assert seqs[0].window_end == 30 * 3600.0


@pytest.mark.parametrize("last", [1, 5, 40])
def test_window_series_last_is_the_tail_of_the_full_series(last):
    corpus = generate(6, 0.5, SeededRng(37), t_len=20, window_duration=3600.0)
    events = corpus.records
    # every third user has no events in windows 12-17, so a tail may begin in a gap
    window = events.timestamp // 3600.0
    events.permute(np.flatnonzero(~((events.user % 3 == 0) & (window >= 12) & (window < 18))))
    full = window_series(events, 3600.0)
    tail = window_series(events, 3600.0, last=last)
    assert list(tail) == list(full)
    for user, (feats, ends) in full.items():
        assert np.array_equal(tail[user][0], feats[-last:])
        assert np.array_equal(tail[user][1], ends[-last:])


def test_generate_allocates_only_the_windows_it_keeps():
    # 0.01 s windows: the hour of events spans 360,000 windows per user, of
    # which the corpus keeps 3.  Building all of them peaked at 58 MB here;
    # keeping 3 peaks at 17 kB after a warm-up call.
    generate(2, 0.0, SeededRng(5), t_len=3, window_duration=1.0)
    tracemalloc.start()
    try:
        corpus = generate(2, 0.0, SeededRng(5), t_len=3, window_duration=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.features.shape for s in corpus.sequences] == [(3, len(FEATURE_NAMES))] * 2
    assert peak < 1_000_000, peak


def test_extract_features_no_records_gives_empty():
    assert extract_features(EventTable.empty(), 3600.0, 10) == []


def test_invalid_window_duration():
    with pytest.raises(ContractError):
        window_series(make_table([Event("u", 0.0, "logon")]), 0.0)


def test_window_span_beyond_an_array_is_data_error():
    """A user with events at 0 s and 4e23 s: numpy refuses so long an array."""
    table = make_table([Event("v", 0.0, "logon"), Event("u", 0.0, "logon"),
                        Event("u", 4e23, "logoff")])
    with pytest.raises(DataError, match=f"user 'u': its events span {int(4e23 // 86400) + 1} "):
        window_series(table, 86400.0)


def write_raw_log(path, text):
    path.write_text("user,timestamp,kind,attributes\n" + text)
    return path


def oracle_raw_log(path):
    """The raw CSV's rows as Events, every attribute kept."""
    with open(path, newline="") as fh:
        return [Event(row["user"], float(row["timestamp"]), row["kind"],
                      dict(pair.partition("=")[::2] for pair in row["attributes"].split(";"))
                      if row["attributes"] else {})
                for row in csv.DictReader(fh)]


# Rows with no attributes, keys the table does not keep (path, url, foo),
# a repeated key, an empty host and command, a mode that is neither read
# nor write, an external value that is not 0 or 1, and fractional bytes.
RAW_LOG_ROWS = """u1,100.0,logon,
u1,200.5,file-access,host=pc1;mode=append;bytes=1.25;path=/x/y
u2,300.0,http,url=http://a/b;bytes=1e3;foo=bar
u1,400.0,email,external=yes;bytes=7;bytes=9
u2,500.0,command,cmd=
u2,600.0,command,cmd=ls;host=
u1,90000.0,file-access,mode=write;host=pc1;host=pc2
u2,90001.0,logon,host=pc9
u1,180000.0,email,external=1
u2,180001.0,command,
"""


@pytest.mark.parametrize("source,window_duration,start_time", [
    ("generated-1", 86400.0, None), ("generated-2", 3600.0, None),
    ("generated-3", 86400.0, 1.3e9 + 5417.25), ("cert", 3600.0, None),
    ("raw-log", 86400.0, None), ("raw-log", 3600.0, None),
], ids=["generated-daily", "generated-hourly", "generated-offset-start", "cert",
        "raw-log-daily", "raw-log-hourly"])
def test_window_series_matches_per_event_oracle(tmp_path, source, window_duration,
                                                start_time):
    if source.startswith("generated"):
        seed = int(source[-1])
        table = generate(32, 0.5, SeededRng(seed), t_len=20, window_duration=window_duration,
                         start_time=start_time or 0.0).records
        events = events_of(table)
    elif source == "cert":
        write_cert_fixture(tmp_path / "cert", device=True, file_=True, malformed=True)
        (tmp_path / "cert" / "email.csv").write_text(EMAIL_ROWS.format(size="big"))
        table, _ = ingest_cert(tmp_path / "cert")
        events = events_of(table)
    else:
        log = write_raw_log(tmp_path / "events.csv", RAW_LOG_ROWS)
        table = load_raw_log(log)
        events = oracle_raw_log(log)
    assert len(table) == len(events)
    assert_series_equal(window_series(table, window_duration, start_time),
                        oracle_window_series(events, window_duration, start_time))


# -- standardization -------------------------------------------------------------


def test_scaler_standardizes_to_unit_moments_excluding_pads():
    corpus = generate(30, 0.1, SeededRng(41), t_len=30, window_duration=3600.0)
    scaler = FeatureScaler.fit(corpus.sequences)
    rows = np.concatenate([scaler.transform(s.features)[s.n_pad:] for s in corpus.sequences])
    assert np.all(np.abs(rows.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(rows.var(axis=0) - 1.0) < 1e-6)


# -- generator -------------------------------------------------------------------


def test_zero_fraction_all_benign():
    corpus = generate(20, 0.0, SeededRng(47), t_len=15, window_duration=3600.0)
    assert all(s.label == "benign" for s in corpus.sequences)


def test_insider_count_is_floor_of_fraction():
    corpus = generate(100, 0.05, SeededRng(53), t_len=15, window_duration=3600.0)
    insiders = [s for s in corpus.sequences if s.label != "benign"]
    assert len(insiders) == 5


def test_invalid_fraction_rejected():
    with pytest.raises(ContractError):
        generate(10, 1.5, SeededRng(1))
    with pytest.raises(ContractError):
        generate(0, 0.5, SeededRng(1))


def test_generator_deterministic_same_seed():
    a = generate(10, 0.2, SeededRng(59), t_len=20, window_duration=3600.0)
    b = generate(10, 0.2, SeededRng(59), t_len=20, window_duration=3600.0)
    assert len(a.records) == len(b.records) > 0
    feats_a = np.stack([s.features for s in a.sequences])
    feats_b = np.stack([s.features for s in b.sequences])
    assert feats_a.tobytes() == feats_b.tobytes()


def test_data_theft_spikes_removable_device_feature():
    corpus = generate(60, 0.1, SeededRng(61), t_len=60, window_duration=3600.0)
    theft = [s for s in corpus.sequences if s.label == "data-theft"]
    assert theft
    for seq in theft:
        attack = seq.features[seq.onset:seq.onset + seq.duration, F["removable_device_events"]]
        pre = seq.features[:seq.onset, F["removable_device_events"]]
        assert attack.mean() > 3.0 * max(pre.mean(), 1e-9)


def test_scenario_label_soundness():
    corpus = generate(40, 0.25, SeededRng(67), t_len=50, window_duration=3600.0)
    for seq in corpus.sequences:
        if seq.label == "benign":
            assert seq.onset is None
        else:
            assert 0 <= seq.onset < seq.t_len
            assert seq.onset + seq.duration <= seq.t_len
            assert seq.duration >= 1


def test_sequences_reproducible_from_raw_log():
    corpus = generate(8, 0.25, SeededRng(71), t_len=25, window_duration=3600.0)
    rebuilt = extract_features(corpus.records, corpus.window_duration, corpus.t_len,
                               start_time=8 * 3600.0)
    by_user = {s.user: s for s in rebuilt}
    for seq in corpus.sequences:
        assert np.array_equal(seq.features, by_user[seq.user].features)


def test_scenario_spec_validation():
    with pytest.raises(ContractError):
        ScenarioSpec("data-theft", onset=-1, duration=5, intensity={})
    with pytest.raises(ContractError):
        ScenarioSpec("data-theft", onset=0, duration=5, intensity={"bytes_moved": 0.5})
    with pytest.raises(ContractError):
        ScenarioSpec("nonsense", onset=0, duration=5, intensity={})


def test_intensity_scale_zero_collapses_to_benign_rates():
    base = generate(10, 0.3, SeededRng(73), t_len=30, window_duration=3600.0, intensity_scale=0.0)
    plain = generate(10, 0.0, SeededRng(73), t_len=30, window_duration=3600.0)
    fa = np.stack([s.features for s in base.sequences])
    fb = np.stack([s.features for s in plain.sequences])
    assert np.array_equal(fa, fb)


# -- event synthesis against the scalar loop ---------------------------------------


def scalar_index_below(rng, bound):
    """The high 64 bits of one draw times bound, in Python ints."""
    return (int(rng.raw(1)[0]) * bound) >> 64


def scalar_make_events(profile, kind, count, w_start, window_duration, rng, intensity):
    """The per-event loop the generator once ran, one draw call per field (the oracle)."""
    out = []
    for _ in range(count):
        ts = w_start + rng.uniform() * window_duration
        attrs: dict[str, str] = {}
        if kind in ("logon", "logoff", "file-access", "process-exec"):
            hosts = profile.hosts
            extra_hosts = int(round(intensity.get("distinct_hosts", 1.0))) - 1
            if extra_hosts > 0:
                hosts = hosts + [f"srv-{j:03d}" for j in range(extra_hosts)]
            attrs["host"] = hosts[scalar_index_below(rng, len(hosts))]
        if kind in BYTES_LOC:
            scale = intensity.get("bytes_moved", 1.0)
            attrs["bytes"] = str(int(scale * math.exp(BYTES_LOC[kind] + rng.normal())))
        if kind == "file-access":
            write_share = 1.0 - profile.read_share
            if "file_write_share" in intensity:
                write_share = min(0.95, write_share * intensity["file_write_share"])
            attrs["mode"] = "write" if rng.uniform() < write_share else "read"
        if kind == "command":
            cmds = profile.commands
            extra_cmds = int(2 * (intensity.get("distinct_commands", 1.0) - 1.0))
            if extra_cmds > 0:
                cmds = cmds + [f"cmd{(199 - j) % 200:03d}" for j in range(extra_cmds)]
            attrs["cmd"] = cmds[scalar_index_below(rng, len(cmds))]
        if kind == "email":
            attrs["external"] = "1" if rng.uniform() < profile.external_share else "0"
        out.append(Event(profile.user, ts, kind, attrs))
    return out


def scalar_stream_events(profile, counts, hours, start_time, rng, intensity):
    """_stream_events by the scalar loop, cell by cell in np.nonzero order."""
    events = []
    for row, j in zip(*np.nonzero(counts)):
        h_start = start_time + float(hours[row]) * 3600.0
        events.extend(scalar_make_events(profile, EVENT_KINDS[j], int(counts[row, j]),
                                         h_start, 3600.0, rng, intensity))
    return events


def user_events_via(monkeypatch, stream_events, profile, idx, spec, t_len,
                    window_duration, start_time):
    """_user_events with stream_events making each stream's events.

    Returns the events, timestamps as float.hex, and per stream the
    counter before and after and the number of events.
    """
    streams = []

    def spy(profile, counts, hours, start_time, rng, intensity):
        before = rng.counter
        out = stream_events(profile, counts, hours, start_time, rng, intensity)
        streams.append((before, rng.counter, int(counts.sum())))
        return out if isinstance(out, EventTable) else make_table(out)

    monkeypatch.setattr(data_mod, "_stream_events", spy)
    table = data_mod._user_events(profile, idx, spec, t_len, window_duration,
                                  start_time, SeededRng(89))
    return [(e.user, e.timestamp.hex(), e.kind, e.attributes) for e in events_of(table)], \
        streams


@pytest.mark.parametrize("t_len,window_duration,start_time", [
    (10, 86400.0, 0.0), (30, 3600.0, 0.0), (10, 86400.0, 1.3e9 + 5417.25),
], ids=["daily", "hourly", "offset-start"])
@pytest.mark.parametrize("scenario,scale", [(None, 1.0)] + [
    (scenario, scale) for scenario in SCENARIOS for scale in (0.0, 1.0, 3.0)])
def test_stream_events_match_scalar_oracle(monkeypatch, scenario, scale, t_len,
                                           window_duration, start_time):
    idx = 3 + (SCENARIOS.index(scenario) if scenario else 3)  # admin, support, dev, analyst
    profile = _sample_profile(f"u{idx:04d}", idx, SeededRng(89).derive(10_000 + idx))
    spec = None if scenario is None else default_scenario(
        scenario, t_len, SeededRng(89).derive(30_000 + idx), intensity_scale=scale)
    args = (profile, idx, spec, t_len, window_duration, start_time)
    got, streams = user_events_via(monkeypatch, _stream_events, *args)
    expected, oracle_streams = user_events_via(monkeypatch, scalar_stream_events, *args)
    assert got == expected
    assert streams == oracle_streams
    assert streams[0][2] > 0
    if spec is not None:
        (before, after, n_events), = streams[1:]
        assert (n_events > 0) == (scale > 0)
        if n_events == 0:
            assert after == before


def test_stream_without_events_draws_nothing():
    profile = _sample_profile("u0000", 0, SeededRng(97))
    rng = SeededRng(97, 5)
    empty = np.zeros((48, len(EVENT_KINDS)), dtype=np.int64)
    assert len(_stream_events(profile, empty, np.arange(48), 0.0, rng, {})) == 0
    assert rng.counter == 0


def oracle_sample_profile(user, idx, rng):
    """_sample_profile with one draw call per draw (the oracle)."""
    role = data_mod.ROLES[idx % len(data_mod.ROLES)]
    mult = data_mod._ROLE_RATE_MULT[role]
    rates = {}
    for kind, base in data_mod._BASE_RATES.items():
        jitter = 0.7 + 0.6 * rng.uniform()
        rates[kind] = base * mult[kind] * jitter
    h_lo, h_hi = data_mod._ROLE_HOSTS[role]
    n_hosts = h_lo + rng.index_below(h_hi - h_lo + 1)
    c_lo, c_hi = data_mod._ROLE_CMDS[role]
    n_cmds = c_lo + rng.index_below(c_hi - c_lo + 1)
    r_lo, r_hi = data_mod._ROLE_READ_SHARE[role]
    e_lo, e_hi = data_mod._ROLE_EXTERNAL_SHARE[role]
    return data_mod.UserProfile(
        user=user, day_rates=[rates[kind] for kind in EVENT_KINDS],
        hosts=[f"pc-{idx:04d}-{j}" for j in range(n_hosts)],
        commands=[f"cmd{(idx * 13 + j) % 200:03d}" for j in range(n_cmds)],
        read_share=r_lo + (r_hi - r_lo) * rng.uniform(),
        external_share=e_lo + (e_hi - e_lo) * rng.uniform())


@pytest.mark.parametrize("seed", [89, 2**64 - 1])
@pytest.mark.parametrize("idx", range(10))
def test_sample_profile_matches_scalar_draw_oracle(monkeypatch, idx, seed):
    calls = []
    raw = SeededRng.raw
    monkeypatch.setattr(SeededRng, "raw", lambda self, n: calls.append(n) or raw(self, n))
    rng = SeededRng(seed).derive(10_000 + idx)
    got = _sample_profile(f"u{idx:04d}", idx, rng)
    assert calls == [12]
    monkeypatch.undo()
    oracle = SeededRng(seed).derive(10_000 + idx)
    expected = oracle_sample_profile(f"u{idx:04d}", idx, oracle)
    assert np.array_equal(got.day_rates, expected.day_rates)
    assert replace(got, day_rates=None) == replace(expected, day_rates=None)
    assert rng.state == oracle.state


def oracle_rate(profile, kind, hour):
    """The benign rate of kind at an hour: the peak-hour rate times a sine
    bump over 07:00-23:00 that logons nearly vanish outside."""
    h = hour % 24
    bump = math.sin(math.pi * (h - 7.0) / 16.0) if 7 <= h < 23 else 0.0
    diurnal = 0.06 + 0.94 * bump if kind in ("logon", "logoff") else 0.5 + 0.5 * bump
    return profile.day_rates[EVENT_KINDS.index(kind)] * diurnal


def oracle_scenario_rates(profile, spec, hour):
    """The scenario's rates at one hour of day, as kind -> rate."""
    base_rates, intensity = data_mod._BASE_RATES, spec.intensity
    rates = {kind: oracle_rate(profile, kind, hour) for kind in EVENT_KINDS}

    def boost(kind, key):
        gain = intensity.get(key, 1.0) - 1.0
        if gain > 0.0:
            rates[kind] += gain * base_rates[kind]

    if "removable_device" in intensity:
        gain = intensity["removable_device"] - 1.0
        rates["removable-device"] += gain * (rates["removable-device"] + 0.2)
    if "offhours_logon" in intensity and hour < OFF_HOURS_END:
        gain = intensity["offhours_logon"] - 1.0
        rates["logon"] += 0.08 * gain
        rates["file-access"] += 0.1 * gain * base_rates["file-access"]
    boost("file-access", "file_access")
    boost("process-exec", "process_exec")
    boost("command", "distinct_commands")
    boost("http", "http")
    if "distinct_hosts" in intensity:
        rates["logon"] += min(intensity["distinct_hosts"] - 1.0, 2.0) * base_rates["logon"]
    return rates


@pytest.mark.parametrize("start_time", [0.0, 1.3e9 + 5417.25], ids=["midnight", "offset-start"])
@pytest.mark.parametrize("scale", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_stream_rates_match_per_hour_oracle(monkeypatch, scenario, scale, start_time):
    """The benign rates are oracle_rate at each hour's hour of day, and the
    attack rates max(0, oracle_scenario_rates - benign), hour by hour."""
    idx, t_len = 3 + SCENARIOS.index(scenario), 10
    profile = _sample_profile(f"u{idx:04d}", idx, SeededRng(89).derive(10_000 + idx))
    spec = default_scenario(scenario, t_len, SeededRng(89).derive(30_000 + idx),
                            intensity_scale=scale)
    rates = []
    poisson = SeededRng.poisson
    monkeypatch.setattr(SeededRng, "poisson",
                        lambda self, lam: rates.append(np.array(lam)) or poisson(self, lam))
    data_mod._user_events(profile, idx, spec, t_len, 86400.0, start_time, SeededRng(89))
    base, extra = rates
    hours = np.arange(len(base))
    window = hours * 3600.0 // 86400.0
    attack_hours = hours[(window >= spec.onset) & (window < spec.onset + spec.duration)]
    hod = ((start_time + hours * 3600.0) % 86400.0 // 3600.0).astype(int).tolist()
    assert {hod[h] for h in attack_hours} == set(range(24))
    assert np.array_equal(base, [[oracle_rate(profile, kind, hod[h]) for kind in EVENT_KINDS]
                                 for h in hours])
    assert np.array_equal(_scenario_rates(profile, spec), [
        list(oracle_scenario_rates(profile, spec, hour).values()) for hour in range(24)])
    expected = []
    for h in attack_hours:
        perturbed = oracle_scenario_rates(profile, spec, hod[h])
        expected.append([max(0.0, perturbed[kind] - base[h, j])
                         for j, kind in enumerate(EVENT_KINDS)])
    assert np.array_equal(extra, expected)


# -- persistence -----------------------------------------------------------------


# sha256 of events.csv and the save_corpus digest for generate(10, 0.3,
# SeededRng(73), t_len=30, window_duration=3600.0) at each intensity scale,
# frozen so that any byte drift in generation fails here.  The bytes
# attribute goes through numpy's log and cos, so a numpy whose kernels
# round differently changes these digests too.
FROZEN_CORPUS = {
    0.0: ("9c1aef2a112c7ca2dc862b2f99fa4906429d37ba3757f85fa2d3a503ccc8b0be",
          "35c7912935d26e32de312c4750279924bb1861eefc60702a070b22ae2c04de62"),
    1.0: ("b2bd12ade5ed41087c2a66b354ce1cebd53a4007f8265e3e010d4a3514cb5e5d",
          "c7768b03ed6f660839631c6b89ec879578fa4586ab08e5b59dee7792d930dc06"),
    3.0: ("d0b583b23bf7425b7f2e97d60ffb0a6305061fa46bda38c05c23dc0ddb0c6fb9",
          "3d4e69c3d1b0d90dcabe600275820a9b476a81adb76becdc05e1ca0dfeca54ca"),
}


@pytest.mark.parametrize("scale", sorted(FROZEN_CORPUS))
def test_generated_corpus_bytes_are_frozen(tmp_path, scale):
    corpus = generate(10, 0.3, SeededRng(73), t_len=30, window_duration=3600.0,
                      intensity_scale=scale)
    digest = save_corpus(corpus, tmp_path)
    events = hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest()
    assert (events, digest) == FROZEN_CORPUS[scale]


# the same for generate(32, 0.5, SeededRng(1), t_len=20): a corpus of the
# benchmark's shape, with one-day windows
FROZEN_BENCH_CORPUS = ("5dcdf4badc85d14d98796f71cb009d2825d8fef7fcc82868284fa9299d5e76d9",
                       "ffef7be6fcec120a119efd7e8ab7180adbbadfd2ee241cb3c6de809f688734ca")


def test_bench_shaped_corpus_bytes_are_frozen(tmp_path):
    digest = save_corpus(generate(32, 0.5, SeededRng(1), t_len=20), tmp_path)
    events = hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest()
    assert (events, digest) == FROZEN_BENCH_CORPUS


def test_corpus_round_trip(tmp_path):
    corpus = generate(12, 0.25, SeededRng(79), t_len=15, window_duration=3600.0)
    digest1 = save_corpus(corpus, tmp_path / "c")
    loaded = load_corpus(tmp_path / "c")
    assert loaded.users == corpus.users
    for a, b in zip(corpus.sequences, loaded.sequences):
        assert np.array_equal(a.features, b.features)
        assert (a.label, a.onset, a.duration, a.n_pad) == (b.label, b.onset, b.duration, b.n_pad)
    assert len(loaded.records) == 0  # events.csv is read by load_raw_log, not load_corpus
    digest2 = save_corpus(corpus, tmp_path / "c2")
    assert digest1 == digest2
    bytes1 = (tmp_path / "c" / "sequences.bin").read_bytes()
    bytes2 = (tmp_path / "c2" / "sequences.bin").read_bytes()
    assert bytes1 == bytes2


def test_raw_log_round_trip(tmp_path):
    corpus = generate(5, 0.2, SeededRng(83), t_len=10, window_duration=3600.0)
    save_corpus(corpus, tmp_path / "c")
    records = load_raw_log(tmp_path / "c" / "events.csv")
    assert len(records) == len(corpus.records) > 0
    assert events_of(records) == events_of(corpus.records)


# -- labels.csv reader against the row-by-row oracle --------------------------------


def oracle_read_labels(directory, users, t_len):
    """The row-by-row labels.csv loop load_corpus once ran (the oracle):
    each user's (label, onset, duration), None for a user without a row."""
    path = directory / "sequences.bin"
    labels_path = directory / "labels.csv"
    labels = dict.fromkeys(users)
    with open(labels_path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in data_mod.LABEL_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{labels_path}, line 1: missing column(s) {', '.join(missing)}")
        for row in reader:
            user, label = row["user"], row["label"]
            try:
                if user is None or label is None:
                    raise ValueError("a row needs a user and a label")
                if user not in labels:
                    raise ValueError(f"user {user!r} is not in {path.name}")
                if labels[user] is not None:
                    raise ValueError(f"a second row for user {user!r}")
                if label != "benign" and label not in SCENARIOS:
                    raise ValueError(f"label {label!r} is not benign or a scenario")
                onset = int(row["onset"]) if row["onset"] else None
                duration = int(row["duration"]) if row["duration"] else None
                if label == "benign" and (onset, duration) != (None, None):
                    raise ValueError("a benign row gives no onset or duration")
                if label != "benign" and not (onset is not None and 0 <= onset < t_len
                                              and duration is not None and duration >= 1):
                    raise ValueError(f"a {label} row needs an onset in [0, {t_len}) and a "
                                     f"duration >= 1, got {onset!r} and {duration!r}")
            except ValueError as exc:
                raise DataError(f"{labels_path}, line {reader.line_num}: {exc}") from None
            labels[user] = (label, onset, duration)
    return labels


LABEL_USERS = ["u1", "u2", "a\nb", 'c,"d"\r\ne', "u3"]
LABEL_T_LEN = 6
GOOD_LABELS = {"user": LABEL_USERS, "label": ["benign", *SCENARIOS],
               "onset": ["", "0", "5", " 3 ", "+2"], "duration": ["", "1", "4", "1_0"]}
BAD_LABELS = {"user": ["nobody", "", "u1\r"], "label": ["bogus", "", "Benign"],
              "onset": ["6", "-1", "x", "1.5"], "duration": ["0", "x", "-2"]}


@st.composite
def edited_labels_csv(draw):
    """The text of a labels.csv for LABEL_USERS, with a repeated column,
    blank lines and \\n line ends maybe; names hold quoted line breaks.
    In about half the files a user may have a second row, and about one
    row in four is bad: bad values, short rows and extra fields."""
    flawed = draw(st.booleans())
    repeated = draw(st.sampled_from(((),) + tuple((c,) for c in data_mod.LABEL_COLUMNS)))
    rows = [list(data_mod.LABEL_COLUMNS) + list(repeated)]
    for user in draw(st.lists(st.sampled_from(LABEL_USERS), max_size=6, unique=not flawed)):
        bad = flawed and draw(st.integers(0, 3)) == 0
        label = draw(st.sampled_from(GOOD_LABELS["label"] + BAD_LABELS["label"] * bad))
        row = [draw(st.sampled_from([user] + BAD_LABELS["user"] * bad)), label]
        for c in ("onset", "duration"):
            given = GOOD_LABELS[c][1:]  # a good row: "" for benign, a number for a scenario
            good = [""] if label == "benign" else given
            row.append(draw(st.sampled_from([""] + given + BAD_LABELS[c] if bad else good)))
        # a repeated column is read from its last copy, which a good row repeats
        row += [draw(st.sampled_from(GOOD_LABELS[c] + BAD_LABELS[c])) if bad else
                row[data_mod.LABEL_COLUMNS.index(c)] for c in repeated]
        if bad and draw(st.booleans()):
            row = row[:draw(st.integers(1, len(row)))] + ["extra"] * draw(st.integers(0, 2))
        rows += [[]] * draw(st.integers(0, 1)) + [row]  # [] is a blank line
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(("\r\n", "\n")))).writerows(rows)
    return out.getvalue()


@pytest.fixture(scope="module")
def labels_corpus(tmp_path_factory):
    """A corpus directory of LABEL_USERS without a labels.csv."""
    directory = tmp_path_factory.mktemp("labels")
    n = len(LABEL_USERS)
    write_blob(directory / "sequences.bin",
               {"schema": "corpus", "schema_version": data_mod.SCHEMA_VERSION,
                "users": LABEL_USERS, "t_len": LABEL_T_LEN, "n_features": len(FEATURE_NAMES),
                "window_duration": 3600.0, "seed": 0},
               {"features": np.zeros((n, LABEL_T_LEN, len(FEATURE_NAMES))),
                "n_pad": np.zeros(n), "window_end": np.zeros(n)})
    return directory


def corpus_labels(directory):
    return [(s.user, s.label, s.onset, s.duration) for s in load_corpus(directory).sequences]


def oracle_corpus_labels(directory):
    labels = oracle_read_labels(directory, LABEL_USERS, LABEL_T_LEN)
    return [(user, *(labels[user] or ("benign", None, None))) for user in LABEL_USERS]


@settings(max_examples=300, deadline=None)
@given(edited_labels_csv(), st.integers(1, 4))
def test_labels_reader_matches_the_row_by_row_oracle(labels_corpus, text, chunk_rows):
    (labels_corpus / "labels.csv").write_text(text, newline="")
    with mock.patch.object(data_mod, "_CHUNK_ROWS", chunk_rows):
        assert table_or_error(corpus_labels, labels_corpus) == \
               table_or_error(oracle_corpus_labels, labels_corpus)


# -- raw-log reader and writer against the row-by-row oracles ---------------------


def parse_bytes(text):
    """A bytes attribute or CERT size as the row-by-row readers parsed one:
    a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"bytes {text!r} is not a number") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise DataError(f"bytes {text!r} must be finite and at least 0")
    return value


def oracle_load_raw_log(path):
    """The row-by-row loop load_raw_log once ran (the oracle)."""
    columns = [[] for _ in range(8)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in data_mod.RAW_LOG_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}, line 1: missing column(s) {', '.join(missing)}")
        at = [header.index(c) for c in data_mod.RAW_LOG_COLUMNS]
        for row in filter(None, reader):  # blank lines are skipped
            user, timestamp, kind, attributes = (row[i] if i < len(row) else "" for i in at)
            attrs = dict(pair.partition("=")[::2] for pair in attributes.split(";"))
            try:
                ts = float(timestamp)
                if kind not in EVENT_KINDS:
                    raise DataError(f"unknown event kind {kind!r}")
                if not math.isfinite(ts):
                    raise DataError("timestamp must be finite")
                nbytes = parse_bytes(attrs["bytes"]) if "bytes" in attrs else math.nan
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
            values = (user, ts, EVENT_KINDS.index(kind), attrs.get("host"), attrs.get("cmd"),
                      nbytes, MODES.index(attrs["mode"]) if attrs.get("mode") in MODES else -1,
                      int(attrs["external"] == "1") if "external" in attrs else -1)
            for column, value in zip(columns, values):
                column.append(value)
    if not columns[0]:
        raise DataError(f"{path}: no event rows")
    user, ts, kind, host, cmd, *rest = columns
    every = np.arange(len(user))
    events = EventTable(user, host, cmd, every, ts, kind, every, every, *rest)
    order = np.argsort(events.user, kind="stable")
    user, ts = events.user[order], events.timestamp[order]
    back = np.flatnonzero((user[1:] == user[:-1]) & (ts[1:] < ts[:-1]))
    if back.size:
        i = back[np.argmin(order[back + 1])]
        raise DataError(f"{path}: out-of-order record for user {events.users[user[i]]!r} at "
                        f"{float(ts[i + 1])} (previous {float(ts[i])})")
    return events


def oracle_write_events_csv(events, path):
    """The row-by-row csv.writer loop save_corpus once ran for events.csv (the oracle)."""
    def labels(prefix, names, codes):
        return np.array([prefix + name for name in names] + [""], dtype=object)[codes].tolist()

    attributes = zip(["" if math.isnan(b) else f"bytes={int(b)}" for b in events.bytes.tolist()],
                     labels("cmd=", events.commands, events.cmd),
                     labels("external=", ("0", "1"), events.external),
                     labels("host=", events.hosts, events.host),
                     labels("mode=", MODES, events.mode))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data_mod.RAW_LOG_COLUMNS)
        writer.writerows(zip(labels("", events.users, events.user),
                             map(repr, events.timestamp.tolist()),
                             labels("", EVENT_KINDS, events.kind),
                             (";".join(filter(None, pairs)) for pairs in attributes)))


def table_or_error(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert_tables_identical(got, expected)


# text with every character csv quotes, attribute separators and a NUL
TRICKY = st.text(alphabet=st.sampled_from(list('ab,;="\r\n\x00 é')), max_size=5)
NAMES = st.one_of(st.sampled_from(["u1", "u2", "pc1", "", "u1\x00", "a,b", 'q"t', "l\nb",
                                   "c\r\nr", "a=b"]), TRICKY)
WORDS = st.sampled_from(["read", "write", "append", "0", "1", "yes", "a=b"])
GOOD_BYTES, BAD_BYTES = ["7", "1.5", "1e3", " 8 ", "0"], ["-5", "nan", "inf", "-inf", "lots", ""]


def attribute_pairs(bad_bytes: bool):
    """key=value pairs: kept and unknown keys, keys ending in NUL, keys
    without "=", and bytes values that parse, or also ones that do not."""
    return st.one_of(
        st.builds("{}={}".format, st.sampled_from(["host", "cmd", "mode", "external", "path",
                                                   "host\x00", "bytes\x00", ""]),
                  st.one_of(NAMES, WORDS)),
        st.builds("bytes={}".format, st.sampled_from(GOOD_BYTES + BAD_BYTES * bad_bytes)),
        st.sampled_from(["host", "cmd", "mode", "external", "foo"] + ["bytes"] * bad_bytes))


@st.composite
def raw_logs(draw):
    """The text of a raw event CSV, with every kind of row the reader must
    treat as the row-by-row reader did; about one row in six is bad, in
    about half the files."""
    header = list(draw(st.permutations(data_mod.RAW_LOG_COLUMNS)))
    for name in draw(st.lists(st.sampled_from(["x", *data_mod.RAW_LOG_COLUMNS]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)  # a repeat: the first is used
    first = {name: header.index(name) for name in data_mod.RAW_LOG_COLUMNS}
    flawed = draw(st.booleans())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n", "\r"])))
    writer.writerow(header)
    clock = 0.0
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 9)) == 0:
            out.write(draw(st.sampled_from(["\r\n", "\n"])))  # a blank line
            continue
        clock += draw(st.sampled_from([1.0, 0.5, 0.0, -0.5]))  # -0.5: maybe out of order
        bad = flawed and draw(st.integers(0, 5)) == 0
        values = {
            "user": draw(st.one_of(st.sampled_from(["u1", "u2", "u3"]), NAMES)),
            "timestamp": draw(st.sampled_from(["nan", "inf", "-inf", "x", "", " 7 ", "1e400",
                                               "1_0"]) if bad else st.just(repr(clock))),
            "kind": draw(st.sampled_from([*EVENT_KINDS] + ["bogus", "", "logon\x00"] * bad)),
            "attributes": ";".join(draw(st.lists(attribute_pairs(bad), max_size=4))),
        }
        row = [draw(TRICKY) for _ in header]
        for name, i in first.items():
            row[i] = values[name]
        # a short row (a good one keeps its timestamp and kind), or extra fields
        shortest = 0 if bad else max(first["timestamp"], first["kind"]) + 1
        cut = draw(st.one_of(st.just(len(row)), st.integers(shortest, len(row) + 2)))
        row = row[:cut] if cut < len(row) else row + [draw(TRICKY) for _ in range(cut - len(row))]
        writer.writerow(row)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(raw_logs(), st.integers(1, 4))
@example("user,timestamp,kind,attributes\r\nu1,1.0,logon,\r\n", 1)
@example('user,timestamp,kind,attributes\nu1,1.0,logon,"host=a\nb\r\nc"\n'
         "u1,2.0,logon,\nu1,3.0,logon,bytes=-1\n", 2)  # later chunk, after a quoted break
@example('user,timestamp,kind,attributes\n"u\r1",1.0,logon,host=a;host=b;host\n', 1)
def test_load_raw_log_matches_row_by_row_oracle(text, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_mod, "_CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / "events.csv"
        path.write_bytes(text.encode())
        assert_same_outcome(table_or_error(load_raw_log, path),
                            table_or_error(oracle_load_raw_log, path))


def test_bad_row_in_a_later_chunk_reports_its_line(tmp_path):
    """At the module's chunk size: quoted line breaks in the first chunk,
    the bad row in the second."""
    rows = [f'u{i % 7},{float(i)!r},logon,"host=a\nb"' if i % 1000 == 0 else
            f"u{i % 7},{float(i)!r},file-access,bytes={i};host=pc{i % 5};mode=read"
            for i in range(data_mod._CHUNK_ROWS + 50)]
    bad = data_mod._CHUNK_ROWS + 40
    rows[bad] = rows[bad].replace("bytes=", "bytes=-")
    path = tmp_path / "events.csv"
    path.write_text("user,timestamp,kind,attributes\n" + "\n".join(rows) + "\n")
    message = table_or_error(load_raw_log, path)
    assert message == table_or_error(oracle_load_raw_log, path)
    breaks = len(range(0, bad, 1000))
    assert message.startswith(f"{path}, line {bad + 2 + breaks}: bytes '-")  # after the header


def test_load_raw_log_matches_oracle_on_generated_logs(tmp_path):
    corpus = generate(16, 0.5, SeededRng(97), t_len=12, window_duration=86400.0)
    save_corpus(corpus, tmp_path)
    assert_tables_identical(load_raw_log(tmp_path / "events.csv"),
                            oracle_load_raw_log(tmp_path / "events.csv"))


@settings(max_examples=150, deadline=None)
@given(st.lists(NAMES, min_size=1, max_size=4, unique=True),
       st.lists(NAMES, max_size=4, unique=True), st.lists(NAMES, max_size=4, unique=True),
       st.integers(0, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(["a,b", 'q"t'], ["c\r\nr", ";", "="], ["l\nb", "x;y=z"], 30, 4, 1)
def test_events_csv_writer_matches_row_by_row_oracle(users, hosts, commands, n, chunk_rows,
                                                      seed):
    rng = np.random.default_rng(seed)
    nbytes = np.floor(rng.uniform(0, 2.0**53, n))
    big = rng.uniform(size=n) < 0.2
    nbytes[big] = 2.0 ** rng.uniform(53, 1023, n)[big]  # past int64 too
    nbytes[rng.uniform(size=n) < 0.3] = np.nan
    table = EventTable(users, hosts, commands, rng.integers(0, len(users), n),
                       rng.uniform(-1e9, 1e9, n), rng.integers(0, len(EVENT_KINDS), n),
                       rng.integers(-1, len(hosts), n), rng.integers(-1, len(commands), n),
                       nbytes, rng.integers(-1, 2, n), rng.integers(-1, 2, n))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_mod, "_CHUNK_ROWS", chunk_rows):
        data_mod._write_events_csv(table, Path(tmp) / "new.csv")
        oracle_write_events_csv(table, Path(tmp) / "old.csv")
        assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "old.csv").read_bytes()


def test_events_csv_writer_refuses_infinite_bytes_as_the_oracle_does(tmp_path):
    table = EventTable(["u"], [], [], [0], [0.0], [0], [-1], [-1], [np.inf], [-1], [-1])
    for write in (data_mod._write_events_csv, oracle_write_events_csv):
        with pytest.raises(OverflowError):
            write(table, tmp_path / "events.csv")


def test_load_raw_log_peak_memory_is_below_half_the_oracles(tmp_path):
    n = 200_000
    rng = np.random.default_rng(3)
    nbytes = np.floor(rng.uniform(0, 1e6, n))
    nbytes[rng.uniform(size=n) < 0.4] = np.nan
    table = EventTable([f"u{i:04d}" for i in range(200)], [f"pc-{i}" for i in range(300)],
                       [f"cmd{i}" for i in range(50)], rng.integers(0, 200, n),
                       np.sort(rng.uniform(0, 1e7, n)), rng.integers(0, len(EVENT_KINDS), n),
                       rng.integers(-1, 300, n), rng.integers(-1, 50, n), nbytes,
                       rng.integers(-1, 2, n), rng.integers(-1, 2, n))
    data_mod._write_events_csv(table, tmp_path / "events.csv")

    def peak(read):
        tracemalloc.start()
        try:
            read(tmp_path / "events.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    new, old = peak(load_raw_log), peak(oracle_load_raw_log)
    assert new < old / 2, (new, old)


# -- CERT ingestion ----------------------------------------------------------------


LOGON_ROWS = """id,date,user,pc,activity
{A1},01/02/2010 07:21:14,ACM2278,PC-1234,Logon
{A2},01/02/2010 09:45:00,ACM2278,PC-1234,Logoff
{A3},01/02/2010 03:12:55,CDE1846,PC-5678,Logon
"""


def write_cert_fixture(root, logon=True, device=False, file_=False, malformed=False):
    root.mkdir(parents=True, exist_ok=True)
    if logon:
        text = LOGON_ROWS.format(A1="{L1}", A2="{L2}", A3="{L3}").format(
            L1="id1", L2="id2", L3="id3")
        if malformed:
            text += "id4,NOT-A-DATE,ACM2278,PC-1234,Logon\n"
        (root / "logon.csv").write_text(text)
    if device:
        (root / "device.csv").write_text(
            "id,date,user,pc,file_tree,activity\n"
            "d1,01/02/2010 10:00:00,ACM2278,PC-1234,R:\\,Connect\n"
            "d2,01/02/2010 10:30:00,ACM2278,PC-1234,R:\\,Disconnect\n")
    if file_:
        (root / "file.csv").write_text(
            "id,date,user,pc,filename,activity,to_removable_media,from_removable_media\n"
            "f1,01/02/2010 11:00:00,ACM2278,PC-1234,doc.pdf,File Open,False,False\n"
            "f2,01/02/2010 11:05:00,ACM2278,PC-1234,out.zip,File Write,True,False\n"
            "f3,01/02/2010 11:10:00,CDE1846,PC-5678,rpt.doc,File Open,False,False\n"
            "f4,01/02/2010 11:20:00,CDE1846,PC-5678,rpt.doc,File Copy,False,False\n"
            "f5,01/02/2010 11:25:00,CDE1846,PC-5678,x.txt,File Open,False,False\n")


def test_ingest_three_row_logon_fixture(tmp_path):
    write_cert_fixture(tmp_path / "cert")
    records, malformed = ingest_cert(tmp_path / "cert")
    assert malformed == 0
    assert len(records) == 3
    kinds = sorted(r.kind for r in events_of(records))
    assert kinds == ["logoff", "logon", "logon"]
    assert all(r.timestamp > 1.2e9 for r in events_of(records))  # parsed into epoch seconds


def test_ingest_orders_rows_by_time_then_user(tmp_path):
    (tmp_path / "cert").mkdir()
    (tmp_path / "cert" / "logon.csv").write_text(
        "id,date,user,pc,activity\n"
        "a,01/02/2010 09:00:00,ZED1,PC-1,Logon\n"
        "b,01/02/2010 08:00:00,YAN2,PC-2,Logon\n"
        "c,01/02/2010 09:00:00,ABE3,PC-3,Logon\n"
        "d,01/02/2010 09:00:00,ZED1,PC-1,Logoff\n")
    records, _ = ingest_cert(tmp_path / "cert")
    assert [(e.user, e.kind) for e in events_of(records)] == [
        ("YAN2", "logon"), ("ABE3", "logon"), ("ZED1", "logon"), ("ZED1", "logoff")]


def test_ingest_counts_malformed_rows(tmp_path):
    write_cert_fixture(tmp_path / "cert", malformed=True)
    records, malformed = ingest_cert(tmp_path / "cert")
    assert malformed == 1
    assert len(records) == 3


EMAIL_ROWS = (
    "id,date,user,pc,to,cc,bcc,from,activity,size,attachments,content\n"
    "e1,01/02/2010 12:00:00,ACM2278,PC-1234,x@dtaa.com,,,a@dtaa.com,Send,2048,,hi\n"
    "e2,01/02/2010 12:05:00,ACM2278,PC-1234,x@y.org,,,a@dtaa.com,Send,{size},,hi\n")


def test_ingest_counts_non_numeric_email_size_as_malformed(tmp_path):
    write_cert_fixture(tmp_path / "cert")
    # a size that is not a number, negative, infinite or NaN: one malformed row each
    (tmp_path / "cert" / "email.csv").write_text(EMAIL_ROWS.format(size="big") + "".join(
        f"e{i},01/02/2010 12:1{i}:00,ACM2278,PC-1234,x@y.org,,,a@dtaa.com,Send,{size},,hi\n"
        for i, size in enumerate(("-5", "inf", "nan"), start=3)))
    records, malformed = ingest_cert(tmp_path / "cert")
    assert malformed == 4
    assert [r.attributes["bytes"] for r in events_of(records) if r.kind == "email"] == ["2048"]
    window_series(records, 3600.0)


def test_ingest_mixed_sources(tmp_path):
    write_cert_fixture(tmp_path / "cert", logon=True, device=True, file_=True)
    records, malformed = ingest_cert(tmp_path / "cert")
    assert malformed == 0
    assert len(records) == 10
    by_kind = {}
    for r in events_of(records):
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
    assert by_kind == {"logon": 2, "logoff": 1, "removable-device": 2, "file-access": 5}
    modes = [r.attributes["mode"] for r in events_of(records) if r.kind == "file-access"]
    assert modes.count("write") == 2  # File Write + File Copy


def test_ingest_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_cert(tmp_path / "nope")


def test_ingest_no_source_files(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError):
        ingest_cert(tmp_path / "empty")


# -- CERT dates and rows against the strptime / DictReader oracles ---------------


def strptime_cert_date(text):
    """The strptime parse ingest_cert once made of every CERT date (the oracle)."""
    return datetime.strptime(text, "%m/%d/%Y %H:%M:%S").replace(tzinfo=timezone.utc).timestamp()


def oracle_ingest_cert(directory):
    """The csv.DictReader loop ingest_cert once ran, dates parsed by strptime (the oracle)."""
    columns = [[] for _ in range(8)]
    malformed = 0
    for filename in data_mod.CERT_SOURCES:
        if not (directory / filename).exists():
            continue
        with open(directory / filename, newline="") as fh:
            for row in csv.DictReader(fh):
                try:
                    ts = strptime_cert_date(row["date"])
                    if not row["user"]:
                        raise ValueError("empty user")
                    size = row.get("size") if filename == "email.csv" else None
                    nbytes = parse_bytes(size) if size else math.nan
                except (KeyError, ValueError, TypeError, DataError):
                    malformed += 1
                    continue
                kind, mode, external = data_mod.CERT_SOURCES[filename], -1, -1
                activity = (row.get("activity") or "").strip().lower()
                if filename == "logon.csv" and activity == "logoff":
                    kind = "logoff"
                if filename == "file.csv":
                    written = any(w in activity for w in ("write", "copy", "delete")) or \
                        (row.get("to_removable_media") or "").lower() == "true"
                    mode = MODES.index("write" if written else "read")
                if filename == "email.csv":
                    external = int(any(addr and "@dtaa.com" not in addr
                                       for addr in (row.get("to") or "").split(";")))
                values = (row["user"], ts, EVENT_KINDS.index(kind), row.get("pc") or None,
                          None, nbytes, mode, external)
                for column, value in zip(columns, values):
                    column.append(value)
    user, ts, kind, host, cmd, *rest = columns
    every = np.arange(len(user))
    events = EventTable(user, host, cmd, every, ts, kind, every, every, *rest)
    order = np.lexsort((events.user, events.timestamp))
    return replace(events, **{name: getattr(events, name)[order]
                              for name in data_mod._COLUMNS}), malformed


def assert_tables_identical(table, expected):
    assert (table.users, table.hosts, table.commands) == \
        (expected.users, expected.hosts, expected.commands)
    for name in ("user", "timestamp", "kind", "host", "cmd", "bytes", "mode", "external"):
        column, want = getattr(table, name), getattr(expected, name)
        assert column.dtype == want.dtype and column.tobytes() == want.tobytes(), name


def date_or_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def array_cert_date(text):
    """The array date parser on one date: its seconds, or a ValueError for NaN."""
    seconds = float(data_mod._cert_seconds([text])[0])
    if math.isnan(seconds):
        raise ValueError(f"{text!r} is not a CERT date")
    return seconds


TWO_DIGITS = st.integers(0, 99).map("{:02d}".format)
FIXED_WIDTH_DATES = st.builds("{}/{}/{} {}:{}:{}".format, TWO_DIGITS, TWO_DIGITS,
                              st.integers(0, 9999).map("{:04d}".format),
                              TWO_DIGITS, TWO_DIGITS, TWO_DIGITS)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    FIXED_WIDTH_DATES,
    st.builds(str.__add__, FIXED_WIDTH_DATES, st.text(min_size=1)),  # trailing junk
    st.text(alphabet="0123456789/: \t\u0663\uff11", max_size=22),  # near-forms
    st.text(max_size=22)))
@example("02/29/1900 00:00:00")  # 1900 is no leap year
@example("02/29/2000 12:00:00")
@example("02/29/2004 23:59:59")
@example("04/31/2010 10:00:00")
@example("01/02/2010 10:00:60")
@example("01/02/2010 10:00:61")
@example("00/02/2010 10:00:00")
@example("13/02/2010 10:00:00")
@example("01/00/2010 10:00:00")
@example("01/02/0000 10:00:00")
@example("01/02/2010 24:00:00")
@example("01/02/2010 10:60:00")
@example("01/01/0001 00:00:00")
@example("12/31/9999 23:59:59")
@example("1/2/2010 7:05:09")  # strptime accepts unpadded fields
@example("1/02/2010 07:05:09")
@example("01/ 2/2010 07:05:09")
@example("01/02/2010  07:05:09")  # and a run of whitespace
@example("01/02/2010\t07:05:09")
@example("\uff10\uff11/02/2010 07:05:09")  # and non-ASCII digits
@example("01/02/\u0662\u0660\u0661\u0660 07:05:09")
@example("01/02/2010 07:05:09 ")
@example("01/02/2010 07:05:09\n")
@example("01/02/2010 07:05:09x")
@example("")
def test_cert_date_matches_strptime(text):
    assert date_or_error(array_cert_date, text) == date_or_error(strptime_cert_date, text)


# fixed-width dates strptime accepts, over its whole range of years
VALID_DATES = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda d: f"{d.month:02d}/{d.day:02d}/{d.year:04d} {d.hour:02d}:{d.minute:02d}:{d.second:02d}")
ASCII_DATES = st.one_of(
    VALID_DATES, FIXED_WIDTH_DATES,
    st.builds(str.__add__, VALID_DATES, st.text(alphabet="0123456789 x\t\n", min_size=1)),
    st.text(alphabet="0123456789/: \t", max_size=22))  # loose forms and junk


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(ASCII_DATES, max_size=12),  # every date ASCII: the array path
    st.lists(st.one_of(ASCII_DATES, st.none(), st.text(max_size=22), st.sampled_from(
        ["\uff10\uff11/02/2010 07:05:09", "01/02/2010 07:05:0\u0669"])), max_size=12)))
@example(["01/02/2010 07:05:09", "1/2/2010 7:05:09", "12/31/1999 23:59:59"])  # lengths differ
@example(["01/02/2010 07:05:09", None, "02/29/2004 23:59:59"])
@example(["01/02/2010 07:05:09", "\uff10\uff11/02/2010 07:05:09", "13/45/2010 99:99:99"])
@example(["01/02/2010 07:05:0", "901/02/2010 07:05:09"])  # 18 + 20 characters: 2 x 19
@example([])
def test_cert_dates_match_strptime_element_by_element(dates):
    got = data_mod._cert_seconds(dates)
    assert got.dtype == np.float64 and got.shape == (len(dates),)
    assert [ValueError if math.isnan(s) else s for s in got.tolist()] == \
        [ValueError if d is None else date_or_error(strptime_cert_date, d) for d in dates]


def test_fixed_width_cert_dates_skip_strptime(tmp_path, monkeypatch):
    calls = []
    fallback = data_mod._strptime_cert_date
    monkeypatch.setattr(data_mod, "_strptime_cert_date",
                        lambda text: calls.append(text) or fallback(text))
    write_cert_fixture(tmp_path / "cert", device=True, file_=True)
    (tmp_path / "cert" / "email.csv").write_text(EMAIL_ROWS.format(size="1"))
    records, malformed = ingest_cert(tmp_path / "cert")
    assert (len(records), malformed, calls) == (12, 0, [])
    assert array_cert_date("1/2/2010 7:05:09") == strptime_cert_date("01/02/2010 07:05:09")
    assert calls == ["1/2/2010 7:05:09"]  # the counter sees the fallback


LOGON_HEADER = "id,date,user,pc,activity\n"

CERT_EDGE_CASES = {
    "short-rows": {
        "logon.csv": LOGON_HEADER + "a,01/02/2010 07:00:00,ACM2278,PC-1,Logon\n"
        "b,01/02/2010 08:00:00,ACM2278\nc,01/02/2010 09:00:00\nd\n",
        "file.csv": "id,date,user,pc,filename,activity,to_removable_media\n"
        "f1,01/02/2010 11:00:00,ACM2278,PC-1,doc.pdf,File Write\n"
        "f2,01/02/2010 11:05:00,ACM2278,PC-1,doc.pdf\n",
        "email.csv": "id,date,user,pc,to,size\ne1,01/02/2010 12:00:00,ACM2278,PC-1\n"
        "e2,01/02/2010 12:05:00,ACM2278,PC-1,x@y.org\n"},
    "blank-lines": {
        "logon.csv": LOGON_HEADER + "\na,01/02/2010 07:00:00,ACM2278,PC-1,Logon\n\n\n"
        "b,01/02/2010 08:00:00,CDE1846,PC-2,Logoff\n\n",
        "device.csv": "\nid,date,user,pc,activity\nd1,01/02/2010 10:00:00,ACM2278,PC-1,Connect\n"},
    "extra-trailing-fields": {
        "logon.csv": LOGON_HEADER + "a,01/02/2010 07:00:00,ACM2278,PC-1,Logon,x,y\n"
        "b,01/02/2010 08:00:00,CDE1846,PC-2,Logoff,\n",
        "email.csv": "id,date,user,pc,to,size\n"
        "e1,01/02/2010 12:00:00,ACM2278,PC-1,x@dtaa.com,99,big,a@b.org\n"},
    "repeated-user-header": {
        "logon.csv": "id,date,user,pc,user,activity\n"
        "a,01/02/2010 07:00:00,FIRST1,PC-1,LAST1,Logon\n"
        "b,01/02/2010 08:00:00,FIRST2,PC-2,,Logoff\n"
        "c,01/02/2010 09:00:00,FIRST3,PC-3\n"
        "d,01/02/2010 10:00:00,,PC-4,LAST4,Logoff\n"},
    "logon-without-date": {
        "logon.csv": "id,user,pc,activity\na,ACM2278,PC-1,Logon\nb,CDE1846,PC-2,Logoff\n",
        "http.csv": "id,date,user,pc,url\nh1,01/02/2010 13:00:00,ACM2278,PC-1,http://a/b\n"},
    "email-without-size": {
        "email.csv": "id,date,user,pc,to,cc\n"
        "e1,01/02/2010 12:00:00,ACM2278,PC-1,x@dtaa.com;y@z.org,\n"
        "e2,01/02/2010 12:05:00,ACM2278,PC-1,x@dtaa.com,\n"},
    "quoted-fields": {
        "email.csv": 'id,date,user,pc,to,size\n'
        'e1,01/02/2010 12:00:00,ACM2278,"PC-1,2","x@dtaa.com;\ny@z.org",7\n'
        'e2,"01/02/2010 12:05:00",ACM2278,PC-1,x@dtaa.com,"8"\n'},
    "loose-dates": {
        "logon.csv": LOGON_HEADER + "a,1/2/2010 7:00:00,ACM2278,PC-1,Logon\n"
        "b,01/02/2010  08:00:00,ACM2278,PC-1,Logoff\nc,02/29/2010 08:00:00,ACM2278,PC-1,Logon\n"
        "d,01/02/2010 08:00:60,ACM2278,PC-1,Logon\ne,01/02/2010 08:00:00 ,ACM2278,PC-1,Logon\n"},
}


@pytest.mark.parametrize("files", CERT_EDGE_CASES.values(), ids=CERT_EDGE_CASES.keys())
def test_ingest_cert_matches_dictreader_oracle(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    table, malformed = ingest_cert(tmp_path)
    expected, expected_malformed = oracle_ingest_cert(tmp_path)
    assert malformed == expected_malformed
    assert_tables_identical(table, expected)


def test_ingest_cert_matches_dictreader_oracle_on_generated_events(tmp_path):
    """Every event of a generated corpus written as CERT rows, malformed ones mixed in."""
    events = events_of(generate(12, 0.5, SeededRng(5), t_len=6, window_duration=86400.0,
                                start_time=1.26e9).records)
    sources = {"logon": "logon.csv", "logoff": "logon.csv", "removable-device": "device.csv",
               "file-access": "file.csv", "email": "email.csv", "http": "http.csv"}
    rows = {name: ["id,date,user,pc,activity,to_removable_media,to,size"]
            for name in set(sources.values())}
    for n, e in enumerate(events):
        if e.kind not in sources:
            continue
        date = datetime.fromtimestamp(math.floor(e.timestamp), timezone.utc)
        a = e.attributes
        user = "" if n % 97 == 0 else e.user
        rows[sources[e.kind]].append(",".join([
            f"r{n}", "13/45/2010 99:99:99" if n % 89 == 0 else date.strftime("%m/%d/%Y %H:%M:%S"),
            user, a.get("host", ""), "Logoff" if e.kind == "logoff" else
            "File Write" if a.get("mode") == "write" else "Logon",
            "True" if n % 5 == 0 else "False",
            "x@y.org" if a.get("external") == "1" else "x@dtaa.com", a.get("bytes", "")]))
    for name, lines in rows.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    table, malformed = ingest_cert(tmp_path)
    expected, expected_malformed = oracle_ingest_cert(tmp_path)
    assert malformed == expected_malformed > 0
    assert len(table) > 1000
    assert_tables_identical(table, expected)


CERT_COLUMNS = ["date", "user", "pc", "activity", "to_removable_media", "to", "size"]
CERT_VALUES = {
    "date": st.one_of(VALID_DATES, st.sampled_from(
        ["01/02/2010 07:05:09", "1/2/2010 7:05:09", "13/45/2010 99:99:99", "02/29/2010 08:00:00",
         "NOT-A-DATE", "", "０１/02/2010 07:05:09", "01/02/2010 07:05:09 "])),
    "user": st.sampled_from(["ACM2278", "CDE1846", "", "a,b", "l\nb", "ACM2278 "]),
    "pc": st.sampled_from(["PC-1", "PC-2", "", "PC-1,2", 'q"t', "c\r\nr"]),
    "activity": st.sampled_from(["Logon", "Logoff", " logoff ", "File Write", "File Open",
                                 "File Copy", "delete", "Connect", ""]),
    "to_removable_media": st.sampled_from(["True", "False", "true", ""]),
    "to": st.sampled_from(["x@dtaa.com", "x@y.org", "x@dtaa.com;\ny@z.org", "", ";"]),
    "size": st.sampled_from(["7", "1.5", "-0", " 8 ", "1e3", "", "nan", "inf", "-inf", "-5",
                             "big"]),
}


@st.composite
def cert_directories(draw):
    """The files of a CERT directory: each header a subset of the columns
    ingest reads, in any order, with unread and repeated names; rows short
    or long, blank lines, the header again as a row, quoted fields with
    line breaks, bad dates, empty users and sizes that are not sizes."""
    files = {}
    for name in draw(st.lists(st.sampled_from(list(data_mod.CERT_SOURCES)), min_size=1,
                              max_size=3, unique=True)):
        header = draw(st.lists(st.sampled_from(CERT_COLUMNS + ["id"]), unique=True))
        header = draw(st.permutations(header))
        for repeat in draw(st.lists(st.sampled_from(CERT_COLUMNS), max_size=2)):
            header.insert(draw(st.integers(0, len(header))), repeat)
        out = io.StringIO()
        if draw(st.integers(0, 9)) == 0:
            out.write("\n")  # a blank line before the header
        writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
        writer.writerow(header)
        for _ in range(draw(st.integers(0, 12))):
            shape = draw(st.integers(0, 9))
            if shape == 0:
                out.write("\n")
            elif shape == 1:
                writer.writerow(header)
            else:
                row = [draw(CERT_VALUES[c]) if c in CERT_VALUES else "x" for c in header]
                cut = draw(st.one_of(st.just(len(row)), st.integers(1, len(row) + 2)))
                writer.writerow(row[:cut] + ["extra"] * (cut - len(row)))
        files[name] = out.getvalue()
    return files


@settings(max_examples=400, deadline=None)
@given(cert_directories(), st.integers(1, 4))
@example({"email.csv": "date,user,pc,to,size\n01/02/2010 12:00:00,ACM2278,PC-1,x@y.org,7\n"
                       '01/02/2010 12:00:01,CDE1846,"PC\n2",x@dtaa.com,nan\n\n'
                       "date,user,pc,to,size\n01/02/2010 12:00:02,,PC-3,x@y.org,-5\n"
                       "01/02/2010 12:00:03,ACM2278\n"}, 1)
def test_ingest_cert_matches_dictreader_oracle_across_chunks(files, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_mod, "_CHUNK_ROWS", chunk_rows):
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        expected, expected_malformed = oracle_ingest_cert(Path(tmp))
        try:
            table, malformed = ingest_cert(tmp)
        except DataError as exc:
            assert str(exc) == f"zero parseable rows in {tmp}" and not len(expected)
            return
        assert malformed == expected_malformed
        assert_tables_identical(table, expected)


BIG_CERT_ROWS = 200_000


@pytest.fixture(scope="module")
def big_cert_directory(tmp_path_factory):
    """A CERT directory of one logon.csv of BIG_CERT_ROWS good rows."""
    directory = tmp_path_factory.mktemp("big_cert")
    n = BIG_CERT_ROWS
    rng = np.random.default_rng(11)
    stamps = np.sort(rng.integers(1_262_304_000, 1_293_840_000, n)).astype("datetime64[s]")
    users, hosts = rng.integers(0, 1000, n).tolist(), rng.integers(0, 1500, n).tolist()
    rows = [f"{d[5:7]}/{d[8:10]}/{d[:4]} {d[11:]},U{u:04d},PC-{h},{('Logon', 'Logoff')[h % 2]}"
            for d, u, h in zip(np.datetime_as_string(stamps).tolist(), users, hosts)]
    (directory / "logon.csv").write_text("date,user,pc,activity\n" + "\n".join(rows) + "\n")
    return directory


def peak_memory(read, directory):
    """The peak bytes tracemalloc sees while read(directory) runs, and its result."""
    tracemalloc.start()
    try:
        result = read(directory)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_ingest_cert_peak_memory_is_below_half_the_oracles(big_cert_directory):
    (new, (table, malformed)), (old, _) = (peak_memory(read, big_cert_directory)
                                           for read in (ingest_cert, oracle_ingest_cert))
    assert (len(table), malformed) == (BIG_CERT_ROWS, 0)
    assert new < old / 2, (new, old)


def test_ingest_cert_peak_memory_is_near_its_result(big_cert_directory):
    # the table and its three name columns twice, while the build recodes
    # them: measured at 1.64 times the table's columns (14.1 MB against
    # 8.6 MB) with chunks of 1,024 rows, and at 1.77 with chunks of 4,096
    peak, (table, _) = peak_memory(ingest_cert, big_cert_directory)
    size = sum(getattr(table, name).nbytes for name in data_mod._COLUMNS)
    assert peak < 1.75 * size, (peak, size)


def test_window_series_peak_memory_is_near_its_table():
    # the sort order, the sorted user and window columns and the event
    # buckets, never a whole-table (user, window) key: measured at 0.97
    # times the table's columns (8.4 MB against 8.6 MB), where the (N, 2)
    # key and its sorted copy took 1.78 times
    n = 200_000
    rng = np.random.default_rng(3)
    nbytes = np.floor(rng.uniform(0, 1e6, n))
    nbytes[rng.uniform(size=n) < 0.4] = np.nan
    table = EventTable([f"u{i:04d}" for i in range(200)], [f"pc-{i}" for i in range(300)],
                       [f"cmd{i}" for i in range(50)], rng.integers(0, 200, n),
                       np.sort(rng.uniform(0, 1e7, n)), rng.integers(0, len(EVENT_KINDS), n),
                       rng.integers(-1, 300, n), rng.integers(-1, 50, n), nbytes,
                       rng.integers(-1, 2, n), rng.integers(-1, 2, n))
    peak, series = peak_memory(lambda events: window_series(events, 86400.0), table)
    size = sum(getattr(table, name).nbytes for name in data_mod._COLUMNS)
    assert len(series) == 200
    assert peak < 1.3 * size, (peak, size)
