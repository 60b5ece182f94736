"""Synthetic activity generation, CERT-style ingestion, and windowed features.

Every event source (the generator, a raw event CSV, CERT r6.2 CSVs)
yields one EventTable: parallel arrays with one row per event.

    user       index into `users`, the sorted user names
    timestamp  float64 seconds since the epoch, always finite
    kind       index into EVENT_KINDS
    host       index into `hosts`; -1 when the event names no host
    cmd        index into `commands`; -1 when it names no command
    bytes      float64, finite and >= 0; NaN when it moves no bytes
    mode       index into MODES ("read", "write"); -1 when absent or
               any other value
    external   1 for "1", 0 for any other value; -1 when absent

Only these attributes feed a feature; any other raw-log key, and the
CERT path and url, are not kept.

Events are bucketed into contiguous fixed-duration windows (default one
day) on a grid anchored at a global start time.  Each (user, window)
pair reduces to a 12-dimensional feature vector; per-user sequences of T
windows feed the encoder.  Users with fewer than T windows are padded at
the front with explicit all-zero windows and carry the pad count.  The
encoder encodes those pads like any other window; the pad count keeps
them out of the scaler fit, the warm-up targets and the detector stream.

Timestamps are interpreted as local time; off-hours means 00:00-06:00.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .arrayio import check_schema_version, check_shapes, read_blob, write_blob
from .errors import ContractError, DataError
from .numerics import SeededRng, below, box_muller, unit_floats

EVENT_KINDS = (
    "logon", "logoff", "file-access", "removable-device",
    "process-exec", "command", "email", "http",
)
_KIND = {kind: code for code, kind in enumerate(EVENT_KINDS)}
MODES = ("read", "write")
_MODE = {mode: code for code, mode in enumerate(MODES)}

FEATURE_NAMES = (
    "logon_count",
    "offhours_logon_count",
    "distinct_hosts",
    "file_access_count",
    "file_read_write_ratio",
    "removable_device_events",
    "process_exec_count",
    "distinct_commands",
    "email_count",
    "email_external_ratio",
    "http_count",
    "bytes_moved_log",
)

N_FEATURES = len(FEATURE_NAMES)
DEFAULT_WINDOW_SECONDS = 86400.0  # one-day windows; T=100 spans ~3 months
OFF_HOURS_END = 6  # off-hours = [00:00, 06:00)

SCENARIOS = ("data-theft", "privilege-abuse", "sabotage")

# Per-scenario intensity multipliers (>= 1) keyed by the mechanism they
# drive.  Scenarios deliberately touch several feature families at once:
# exfiltration involves staging reads and web uploads, privilege abuse
# spills into odd hours, sabotage moves data around.
DEFAULT_INTENSITIES = {
    "data-theft": {"removable_device": 8.0, "bytes_moved": 8.0, "offhours_logon": 6.0,
                   "file_access": 4.0, "http": 3.0},
    "privilege-abuse": {"distinct_hosts": 5.0, "process_exec": 6.0,
                        "distinct_commands": 5.0, "file_access": 3.0,
                        "offhours_logon": 3.0},
    "sabotage": {"file_access": 6.0, "file_write_share": 5.0, "process_exec": 5.0,
                 "bytes_moved": 4.0, "http": 3.0},
}

# the columns of an EventTable, and their dtypes
_COLUMNS = {"user": np.intp, "timestamp": np.float64, "kind": np.int8, "host": np.intp,
            "cmd": np.intp, "bytes": np.float64, "mode": np.int8, "external": np.int8}
_NAMED = (("users", "user"), ("hosts", "host"), ("commands", "cmd"))  # name list, its column
# rows of a table recoded, or folded into WindowCells, at a time: a fold
# costs mostly per call
_FOLD_ROWS = 1 << 12


@dataclass(eq=False)
class EventTable:
    """Activity events as parallel columns (see the module docstring).

    The name lists given may come in any order, repeat a name, and hold
    None for an absent name: the table keeps each list sorted and
    distinct, and recodes its column to match.  A user, host or cmd
    column given as an intp array is recoded in place, so that no second
    copy of it lives on: the table takes it over.
    """

    users: list[str]
    hosts: list[str]
    commands: list[str]
    user: np.ndarray
    timestamp: np.ndarray
    kind: np.ndarray
    host: np.ndarray
    cmd: np.ndarray
    bytes: np.ndarray
    mode: np.ndarray
    external: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        for names, column in _NAMED:
            listed = getattr(self, names)
            distinct = sorted(set(listed) - {None})
            setattr(self, names, distinct)
            index = {name: code for code, name in enumerate(distinct)}
            recode = np.array([index.get(name, -1) for name in listed] + [-1], dtype=np.intp)
            codes = getattr(self, column)
            for lo in range(0, len(codes), _FOLD_ROWS):
                rows = slice(lo, lo + _FOLD_ROWS)
                codes[rows] = recode[codes[rows]]  # -1 stays -1

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def empty(cls) -> EventTable:
        return cls([], [], [], *[[]] * len(_COLUMNS))

    def permute(self, index: np.ndarray) -> None:
        """Put the rows in index order, in place and a column at a time, so
        that memory holds the table, index and one more column."""
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[index])


def _concat(tables: list[EventTable]) -> EventTable:
    """The rows of tables, in order, as one table.  The tables give up their
    columns, each released as it is joined, so that memory holds the result
    and one column more."""
    merged = {}
    for names, column in _NAMED:
        offset = 0
        for t in tables:  # codes into the joined name list; -1 stays -1
            codes = getattr(t, column)
            setattr(t, column, np.where(codes < 0, -1, codes + offset))
            offset += len(getattr(t, names))
        merged[names] = [name for t in tables for name in getattr(t, names)]
    for name in _COLUMNS:
        parts = [getattr(t, name) for t in tables]
        for t in tables:
            setattr(t, name, None)
        merged[name] = np.concatenate(parts)
    return EventTable(**merged)


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str
    onset: int
    duration: int
    intensity: dict[str, float]

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ContractError(f"unknown scenario {self.scenario!r}")
        if self.onset < 0 or self.duration < 1:
            raise ContractError("onset must be >= 0 and duration >= 1")
        if any(v < 1.0 for v in self.intensity.values()):
            raise ContractError("intensity multipliers must be >= 1")


@dataclass
class BehaviorSequence:
    user: str
    features: np.ndarray  # (T, d), raw
    window_duration: float
    window_end: float
    n_pad: int = 0
    label: str = "benign"
    onset: int | None = None
    duration: int | None = None

    @property
    def t_len(self) -> int:
        return self.features.shape[0]


@dataclass
class FeatureScaler:
    """Per-feature standardization statistics, fit on training data only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, sequences: list[BehaviorSequence]) -> "FeatureScaler":
        rows = [s.features[s.n_pad:] for s in sequences]
        if not rows:
            raise ContractError("cannot fit a scaler on an empty corpus")
        stacked = np.concatenate(rows, axis=0)
        mean = stacked.mean(axis=0)
        std = np.sqrt(stacked.var(axis=0))
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


# -- feature extraction -------------------------------------------------------


# the most windows one user's (W, d) feature array can hold: numpy refuses
# an array of more than the largest intp bytes
_MAX_WINDOWS = np.iinfo(np.intp).max // (N_FEATURES * np.dtype(np.float64).itemsize)


# A window cell's sums: the count of each count feature at its feature's
# column, the reads and external emails of the two ratios at theirs, the
# bytes moved at bytes_moved_log's, then the file writes.
_SUMS = N_FEATURES + 1
_READS, _EXTERNAL, _BYTES, _WRITES = (FEATURE_NAMES.index("file_read_write_ratio"),
                                      FEATURE_NAMES.index("email_external_ratio"),
                                      FEATURE_NAMES.index("bytes_moved_log"), N_FEATURES)
_HOSTS, _COMMANDS, _EMAILS = (FEATURE_NAMES.index(name) for name in (
    "distinct_hosts", "distinct_commands", "email_count"))
# host and command codes are below 2**_CODE_BITS, and window cells below
# 2**(62 - _CODE_BITS)
_CODE_BITS = 31
# the sum each event kind counts in, -1 for none
_KIND_SUM = np.array([FEATURE_NAMES.index(feature) if feature else -1 for feature in (
    "logon_count", "", "file_access_count", "removable_device_events", "process_exec_count", "",
    "email_count", "http_count")])


class WindowCells:
    """Events folded a chunk at a time into per-(user, window) cells, then
    closed into window_series' {user: (features, ends)}.

    A cell holds its window's sums (_SUMS), each event's bytes added in the
    order fed, and counts its distinct host codes and command codes.  The
    codes of a user's open cell, its latest window, are kept until a later
    window of the user opens; so memory holds the cells, the open cells'
    codes and one chunk, whatever the number of events.  That needs each
    user's events fed in window order: in_order turns False for good once
    a user's window steps back, and the cells are then no longer those of
    one (user, window) each.

    With start_time, the grid starts at t0 = floor(start_time / wd) * wd
    and an event's window is (ts - t0) // wd, as window_series computes
    it.  Without, the window is keyed as ts // wd, and close rebases it
    onto the grid of the least timestamp fed: the two agree whenever
    ts - t0 and t0 are exact in float64.
    """

    def __init__(self, window_duration: float, start_time: float | None = None):
        if window_duration <= 0:
            raise ContractError("window duration must be positive")
        self.window_duration = window_duration
        self.anchored = start_time is not None
        self.origin = (math.floor(start_time / window_duration) * window_duration
                       if self.anchored else 0.0)
        self.least = math.inf  # the least timestamp fed
        self.in_order = True
        self.open = np.zeros(0, np.intp)  # each user code's open cell, -1 before its first
        self.n = 0  # cells; the arrays below hold room for more
        self.user, self.key, self.first = np.zeros(0, np.intp), np.zeros(0), np.zeros(0)
        self.sums = np.zeros((0, _SUMS))
        # the open cells' distinct host and command codes, each as
        # (cell * 2 + family) << _CODE_BITS | code, family 0 for a host and
        # 1 for a command
        self.codes = np.zeros(0, np.intp)

    def feed(self, user, timestamp, kind, host, cmd, nbytes, mode, external) -> None:
        """Fold in a chunk of events, given as EventTable columns in feed order."""
        n = len(user)
        if not n:
            return
        key = (timestamp - self.origin) // self.window_duration
        self.least = min(self.least, float(timestamp.min()))
        if user.max() >= len(self.open):
            self.open = np.concatenate([self.open, np.full(user.max() + 1 - len(self.open), -1)])
        # the chunk's (user, window) groups, each user's in chunk order; a
        # stable sort of 16-bit codes is a radix sort
        order = np.argsort(user.astype(np.uint16) if len(self.open) <= 1 << 16 else user,
                           kind="stable")
        u, k = user[order], key[order]
        same_user = u[1:] == u[:-1]
        start = np.ones(n, bool)
        start[1:] = ~same_user | (k[1:] != k[:-1])
        g_user, g_key, g_first = u[start], k[start], order[start]
        group = np.empty(n, np.intp)
        group[order] = np.cumsum(start) - 1
        # a group goes on in its user's open cell, or opens a cell; cells
        # are numbered in the order of their first event
        cell = self.open[g_user]
        known = np.flatnonzero(cell >= 0)
        open_key = self.key[cell[known]]
        self.in_order = self.in_order and not (np.any(k[1:][same_user] < k[:-1][same_user])
                                               or np.any(g_key[known] < open_key))
        cell[known[g_key[known] != open_key]] = -1
        new = np.flatnonzero(cell < 0)
        new = new[np.argsort(g_first[new], kind="stable")]
        cell[new] = self._add_cells(g_user[new], g_key[new], timestamp[g_first[new]])
        last = np.ones(len(g_user), bool)
        last[:-1] = g_user[1:] != g_user[:-1]
        self.open[g_user[last]] = cell[last]  # each user's latest window stays open

        # each event counts in its kind's sum and in at most one other
        index = np.empty(2 * n, np.intp)
        index[:n] = _KIND_SUM[kind]
        other = index[n:]
        other.fill(-1)
        files, logon = kind == _KIND["file-access"], np.flatnonzero(kind == _KIND["logon"])
        other[logon[(timestamp[logon] % 86400.0) // 3600.0 < OFF_HOURS_END]] = \
            FEATURE_NAMES.index("offhours_logon_count")
        other[files & (mode == _MODE["read"])] = _READS
        other[files & (mode == _MODE["write"])] = _WRITES
        other[(kind == _KIND["email"]) & (external == 1)] = _EXTERNAL
        counted = np.flatnonzero(index >= 0)
        self.sums[cell] += np.bincount(group[counted % n] * _SUMS + index[counted],
                                       minlength=len(cell) * _SUMS).reshape(-1, _SUMS)
        row_cell = cell[group]
        moved = ~np.isnan(nbytes)
        np.add.at(self.sums[:, _BYTES], row_cell[moved], nbytes[moved])  # in feed order
        has_host, has_cmd = host >= 0, (kind == _KIND["command"]) & (cmd >= 0)
        hosts = (row_cell[has_host] * 2) << _CODE_BITS | host[has_host]
        commands = (row_cell[has_cmd] * 2 + 1) << _CODE_BITS | cmd[has_cmd]
        self._count_codes(np.concatenate([hosts, commands]))

    def _add_cells(self, user, key, first) -> np.ndarray:
        """Numbers of new cells for these users' windows, keys and first
        timestamps, the arrays grown by half when full."""
        n = self.n + len(user)
        if n > len(self.user):
            size = max(n, len(self.user) * 3 // 2)
            self.user, self.key, self.first, self.sums = (
                np.concatenate([a[:self.n], np.zeros((size - self.n, *a.shape[1:]), a.dtype)])
                for a in (self.user, self.key, self.first, self.sums))
        cells = np.arange(self.n, n)
        self.user[cells], self.key[cells], self.first[cells] = user, key, first
        self.n = n
        return cells

    def _count_codes(self, codes) -> None:
        """Add the codes (see self.codes) to the open cells' distinct codes,
        then count those of cells no longer open into their sums."""
        codes = np.concatenate([self.codes, codes])
        codes.sort()
        distinct = np.ones(len(codes), bool)
        distinct[1:] = codes[1:] != codes[:-1]
        codes = codes[distinct]
        family_cell = codes >> _CODE_BITS
        cell = family_cell // 2
        is_open = self.open[self.user[cell]] == cell
        done = ~is_open
        np.add.at(self.sums, (cell[done], np.where(family_cell[done] % 2, _COMMANDS, _HOSTS)), 1)
        self.codes = codes[is_open]

    def windows(self, users: list[str]) -> tuple[float, np.ndarray]:
        """The grid's t0, and each cell's window index on it.  A cell whose
        index is beyond int64 (or NaN, from an inf difference) is a DataError
        naming users[c] for its user code c and the timestamp of its first
        event: that of the first cell is the first such event fed."""
        wd = self.window_duration
        shift = 0.0 if self.anchored else float(math.floor(self.least / wd))
        index = self.key[:self.n] - shift
        beyond = np.flatnonzero(~(np.abs(index) < 2.0**63))
        if beyond.size:
            i = beyond[0]
            raise DataError(f"user {users[self.user[i]]!r}: the window of timestamp "
                            f"{float(self.first[i])!r} is beyond an int64 index")
        return (self.origin if self.anchored else shift * wd), index.astype(np.int64)

    def close(self, users: list[str], last: int | None = None,
              ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """window_series' result from the cells, users[c] naming user code
        c; the cells' sums become the features in place, so cells close
        once."""
        self.open[:] = -1
        self._count_codes(np.zeros(0, np.intp))
        if not self.n:
            return {}
        wd = self.window_duration
        t0, index = self.windows(users)
        features = self.sums[:self.n]

        def ratio(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
            return np.divide(part, whole, out=np.zeros(len(part)), where=whole > 0)

        reads, writes = features[:, _READS], features[:, _WRITES]
        features[:, _READS] = ratio(reads, reads + writes)
        features[:, _EXTERNAL] = ratio(features[:, _EXTERNAL], features[:, _EMAILS])
        # math.log1p per window: numpy's log1p need not round as libm does
        features[:, _BYTES] = [math.log1p(b) for b in features[:, _BYTES].tolist()]

        out = {}
        order = np.lexsort((index, self.user[:self.n]))  # by user code, then window
        edges = np.searchsorted(self.user[order], np.arange(len(users) + 1))
        for code in sorted(range(len(users)), key=users.__getitem__):
            cells = order[edges[code]:edges[code + 1]]
            if not cells.size:
                continue  # no events
            windows = index[cells]
            lo, hi = int(windows[0]), int(windows[-1])
            if last is not None and hi - lo + 1 > last:
                lo = hi - last + 1
                cells = cells[int(np.searchsorted(windows, lo)):]
            if hi - lo + 1 > _MAX_WINDOWS:
                raise DataError(f"user {users[code]!r}: its events span {hi - lo + 1} windows, "
                                f"more than an array of their features can hold ({_MAX_WINDOWS})")
            feats = np.zeros((hi - lo + 1, N_FEATURES))
            feats[index[cells] - lo] = features[cells, :N_FEATURES]
            out[users[code]] = (feats, t0 + np.arange(lo + 1, hi + 2) * wd)
        return out


def _feed_table(cells: WindowCells, events: EventTable, rows=None) -> WindowCells:
    """cells fed the table's rows, or the given rows of it, in order, a chunk at a time."""
    for lo in range(0, len(events) if rows is None else len(rows), _FOLD_ROWS):
        chunk = slice(lo, lo + _FOLD_ROWS) if rows is None else rows[lo:lo + _FOLD_ROWS]
        cells.feed(*(getattr(events, name)[chunk] for name in _COLUMNS))
    return cells


def window_series(events: EventTable, window_duration: float,
                  start_time: float | None = None, last: int | None = None,
                  ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-user contiguous window features spanning each user's activity.

    Returns {user: (features (W, d), window_end_times (W,))} in user order,
    where W covers the user's first through last active window on the
    shared grid, or only the last `last` of those windows when given.  The
    grid starts at t0 = floor(start / wd) * wd, start being start_time or
    else the least timestamp, and an event's window is (ts - t0) // wd.
    Every event lands in exactly one window; bytes are summed in table
    order.  A window index beyond int64, or a span of windows more than
    one array can hold, is a DataError naming the user.

    The table is fed to a WindowCells a chunk at a time and closed, so
    memory holds the table, the cells and one chunk.  A table in which a
    user's windows step back is fed again in (user, window) order, table
    order kept within a window.
    """
    if start_time is None and len(events):
        start_time = float(events.timestamp.min())
    cells = _feed_table(WindowCells(window_duration, start_time), events)
    if not cells.in_order:
        cells.windows(events.users)  # a window beyond int64 is named in table order
        window = (events.timestamp - cells.origin) // window_duration
        cells = _feed_table(WindowCells(window_duration, start_time), events,
                            np.lexsort((window, events.user)))
    return cells.close(events.users, last)


def extract_features(records: EventTable, window_duration: float,
                     t_len: int, start_time: float | None = None,
                     ) -> list[BehaviorSequence]:
    """Per-user raw (unstandardized) sequences of exactly t_len windows.

    Users with a longer history keep their most recent t_len windows;
    shorter histories are front-padded with zero windows and flagged via
    n_pad.  Returns sequences ordered by user id.
    """
    sequences = []
    for user, (feats, ends) in window_series(records, window_duration, start_time,
                                             last=t_len).items():
        n_pad = t_len - feats.shape[0]
        sequences.append(BehaviorSequence(
            user=user, features=np.vstack([np.zeros((n_pad, N_FEATURES)), feats]),
            window_duration=window_duration, window_end=float(ends[-1]), n_pad=n_pad))
    return sequences


# -- synthetic generation -----------------------------------------------------

# Smooth diurnal curve, (hour of day, kind): a sine bump over the
# 07:00-23:00 span so adjacent hours differ gradually instead of
# stepping.  Session-driven kinds (logons) nearly vanish at night;
# background activity (automation, sync jobs, queued mail) keeps a
# substantial night floor.
_BUMP = np.array([[math.sin(math.pi * (h - 7.0) / 16.0) if 7 <= h < 23 else 0.0]
                  for h in range(24)])
_DIURNAL = np.where(np.isin(EVENT_KINDS, ("logon", "logoff")),
                    0.06 + 0.94 * _BUMP, 0.5 + 0.5 * _BUMP)


@dataclass
class UserProfile:
    """Per-user benign rate parameters, sampled once and then fixed."""

    user: str
    day_rates: np.ndarray  # peak-hour rate of each kind, in EVENT_KINDS order
    hosts: list[str]
    commands: list[str]
    read_share: float
    external_share: float


# Peak-hour event rates per hour.  Wide ranges give users distinctive
# profiles (between-user spread dominates the per-feature variance), and
# high absolute rates keep relative Poisson noise per window small.
# Peak-hour base rates; each user's rate is the base times a role
# multiplier times a mild personal jitter, so the population forms
# distinct job-function clusters with individual variation inside each.
# Events are generated on an hourly grid regardless of window duration.
_BASE_RATES = {
    "logon": 0.2,
    "logoff": 0.2,
    "file-access": 0.65,
    "removable-device": 0.015,
    "process-exec": 0.45,
    "command": 0.3,
    "email": 0.22,
    "http": 0.9,
}

ROLES = ("dev", "analyst", "sales", "admin", "support")

_ROLE_RATE_MULT = {
    "dev": {"logon": 1.0, "logoff": 1.0, "file-access": 1.2, "removable-device": 1.0,
            "process-exec": 2.0, "command": 2.2, "email": 0.5, "http": 0.8},
    "analyst": {"logon": 1.0, "logoff": 1.0, "file-access": 2.2, "removable-device": 1.0,
                "process-exec": 0.8, "command": 0.7, "email": 1.0, "http": 1.8},
    "sales": {"logon": 1.6, "logoff": 1.6, "file-access": 0.5, "removable-device": 1.0,
              "process-exec": 0.4, "command": 0.3, "email": 2.2, "http": 1.6},
    "admin": {"logon": 1.3, "logoff": 1.3, "file-access": 0.9, "removable-device": 2.0,
              "process-exec": 1.7, "command": 1.8, "email": 0.6, "http": 0.6},
    "support": {"logon": 1.8, "logoff": 1.8, "file-access": 0.7, "removable-device": 1.0,
                "process-exec": 0.6, "command": 0.5, "email": 1.8, "http": 1.1},
}

_ROLE_READ_SHARE = {"dev": (0.55, 0.75), "analyst": (0.8, 0.95), "sales": (0.7, 0.9),
                    "admin": (0.5, 0.7), "support": (0.65, 0.85)}
_ROLE_EXTERNAL_SHARE = {"dev": (0.05, 0.15), "analyst": (0.1, 0.25), "sales": (0.4, 0.6),
                        "admin": (0.02, 0.1), "support": (0.25, 0.45)}
_ROLE_HOSTS = {"dev": (1, 3), "analyst": (1, 2), "sales": (1, 2), "admin": (5, 9),
               "support": (2, 4)}
_ROLE_CMDS = {"dev": (8, 14), "analyst": (3, 6), "sales": (2, 4), "admin": (9, 15),
              "support": (3, 6)}


def _role_of(idx: int) -> str:
    return ROLES[idx % len(ROLES)]


def _sample_profile(user: str, idx: int, rng: SeededRng) -> UserProfile:
    """A user's profile from one raw(12) call: a uniform jitter per kind,
    the host count, the command count, then the read and external shares."""
    role = _role_of(idx)
    mult = _ROLE_RATE_MULT[role]
    base = np.array([_BASE_RATES[kind] * mult[kind] for kind in EVENT_KINDS])
    raw = rng.raw(12)
    u = unit_floats(raw)
    (h_lo, h_hi), (c_lo, c_hi) = _ROLE_HOSTS[role], _ROLE_CMDS[role]
    n_hosts, n_cmds = below(raw[8:10], [h_hi - h_lo + 1, c_hi - c_lo + 1]).tolist()
    hosts = [f"pc-{idx:04d}-{j}" for j in range(h_lo + n_hosts)]
    commands = [f"cmd{(idx * 13 + j) % 200:03d}" for j in range(c_lo + n_cmds)]
    r_lo, r_hi = _ROLE_READ_SHARE[role]
    e_lo, e_hi = _ROLE_EXTERNAL_SHARE[role]
    return UserProfile(
        user=user, day_rates=base * (0.7 + 0.6 * u[:8]), hosts=hosts, commands=commands,
        read_share=r_lo + (r_hi - r_lo) * float(u[10]),
        external_share=e_lo + (e_hi - e_lo) * float(u[11]),
    )


def default_scenario(scenario: str, t_len: int, rng: SeededRng,
                     intensity_scale: float = 1.0) -> ScenarioSpec:
    """Draw onset/duration for a scenario; intensities scaled from defaults.

    intensity_scale=1 gives the default multipliers; 0 collapses every
    multiplier to 1 (no behavioral change), >1 amplifies.
    """
    duration = min(8 + rng.index_below(9), max(1, t_len // 2))  # 8..16 windows
    lo = min(int(t_len * 0.3), t_len - duration)
    hi = t_len - duration
    onset = lo + rng.index_below(hi - lo + 1)
    base = DEFAULT_INTENSITIES[scenario]
    intensity = {k: 1.0 + (v - 1.0) * intensity_scale for k, v in base.items()}
    return ScenarioSpec(scenario=scenario, onset=onset, duration=duration,
                        intensity=intensity)


def _scenario_rates(profile: UserProfile, spec: ScenarioSpec) -> np.ndarray:
    """Benign rates perturbed by the active scenario: (hour of day, kind).

    Boosts are additive in population-base units so the anomaly is the
    same absolute size no matter how quiet the user's own role is, and
    every perturbation vanishes at intensity 1.
    """
    rates = profile.day_rates * _DIURNAL
    intensity = spec.intensity
    logon, files, device = _KIND["logon"], _KIND["file-access"], _KIND["removable-device"]

    def boost(kind: str, key: str) -> None:
        gain = intensity.get(key, 1.0) - 1.0
        if gain > 0.0:
            rates[:, _KIND[kind]] += gain * _BASE_RATES[kind]

    if "removable_device" in intensity:
        gain = intensity["removable_device"] - 1.0
        rates[:, device] += gain * (rates[:, device] + 0.2)
    if "offhours_logon" in intensity:
        gain = intensity["offhours_logon"] - 1.0
        rates[:OFF_HOURS_END, logon] += 0.08 * gain
        rates[:OFF_HOURS_END, files] += 0.1 * gain * _BASE_RATES["file-access"]
    boost("file-access", "file_access")
    boost("process-exec", "process_exec")
    boost("command", "distinct_commands")
    boost("http", "http")
    if "distinct_hosts" in intensity:
        rates[:, logon] += min(intensity["distinct_hosts"] - 1.0, 2.0) * _BASE_RATES["logon"]
    return rates


@dataclass
class Corpus:
    """Labeled per-user sequences plus `records`, the log `generate` produced.

    `save_corpus` writes `records` to events.csv; `load_corpus` leaves
    the table empty, as no stage that loads a corpus reads its events.
    """

    sequences: list[BehaviorSequence]
    t_len: int
    window_duration: float
    seed: int
    records: EventTable = field(default_factory=EventTable.empty)

    @property
    def users(self) -> list[str]:
        return [s.user for s in self.sequences]


# hours a generated stream may span: one (hours, kinds) float64 array holds them
_MAX_HOURS = np.iinfo(np.intp).max // (len(EVENT_KINDS) * np.dtype(np.float64).itemsize)


def generate(population: int, insider_fraction: float, rng: SeededRng,
             t_len: int = 100, window_duration: float = DEFAULT_WINDOW_SECONDS,
             start_time: float = 0.0, intensity_scale: float = 1.0,
             ) -> Corpus:
    """Labeled synthetic corpus plus the raw event log that reproduces it.

    The first floor(insider_fraction * population) users (by index) become
    insiders; each is assigned a scenario round-robin and a seeded
    onset/duration.  Benign behavior for a given user is identical across
    intensity scales because attack perturbations draw from separate
    streams.
    """
    if not (0.0 <= insider_fraction <= 1.0):
        raise ContractError(f"insider_fraction must be in [0, 1], got {insider_fraction}")
    if population < 1:
        raise ContractError("population must be at least 1")
    if t_len < 1:
        raise ContractError(f"t_len must be at least 1, got {t_len}")
    if not (math.isfinite(window_duration) and window_duration > 0):
        raise ContractError(f"window_duration must be finite and positive, got {window_duration}")
    if t_len > _MAX_HOURS or not t_len * window_duration / 3600.0 <= _MAX_HOURS:
        raise ContractError(f"t_len {t_len} windows of window_duration {window_duration} s "
                            f"span more hours than one array can hold")
    if not math.ceil(t_len * window_duration / 3600.0) * 3600.0 / window_duration < _MAX_WINDOWS:
        raise ContractError(f"t_len {t_len} windows of window_duration {window_duration} s: "
                            f"the hours of events span more windows than an array can hold")
    if not (math.isfinite(intensity_scale) and intensity_scale >= 0):
        raise ContractError(f"intensity_scale must be finite and >= 0, got {intensity_scale}")

    n_insiders = int(math.floor(insider_fraction * population))
    streams: list[EventTable] = []
    labeled: list[tuple[str, str, int | None, int | None]] = []

    for idx in range(population):
        user = f"u{idx:04d}"
        profile = _sample_profile(user, idx, rng.derive(10_000 + idx))
        spec = None
        if idx < n_insiders:
            scenario = SCENARIOS[idx % len(SCENARIOS)]
            spec = default_scenario(scenario, t_len, rng.derive(30_000 + idx),
                                    intensity_scale=intensity_scale)
        streams.append(_user_events(profile, idx, spec, t_len, window_duration,
                                    start_time, rng))
        if spec is None:
            labeled.append((user, "benign", None, None))
        else:
            labeled.append((user, spec.scenario, spec.onset, spec.duration))

    records = _concat(streams)
    del streams  # freed before the sort copies a column
    # one stable sort on (timestamp, user, kind name)
    records.permute(np.lexsort((_KIND_NAME_RANK[records.kind], records.user,
                                records.timestamp)))
    sequences = extract_features(records, window_duration, t_len, start_time=start_time)
    by_user = {s.user: s for s in sequences}
    out = []
    for user, label, onset, duration in labeled:
        if user not in by_user:
            # a user with zero events still needs a (fully padded) sequence
            by_user[user] = BehaviorSequence(
                user=user, features=np.zeros((t_len, N_FEATURES)),
                window_duration=window_duration,
                window_end=start_time + t_len * window_duration, n_pad=t_len)
        seq = by_user[user]
        seq.label, seq.onset, seq.duration = label, onset, duration
        out.append(seq)
    return Corpus(sequences=out, records=records,
                  t_len=t_len, window_duration=window_duration, seed=rng.seed)


def _user_events(profile: UserProfile, idx: int, spec: ScenarioSpec | None,
                 t_len: int, window_duration: float, start_time: float,
                 rng: SeededRng) -> EventTable:
    """Hourly Poisson event generation spanning t_len windows.

    Each stream draws the counts of all its (hour, kind) cells in one
    vectorized pass, then the attributes of all its events in one raw()
    call (see _stream_events).  Attack perturbations draw from a separate
    stream, so a user's benign activity is bitwise identical whether or
    not a scenario is active.
    """
    benign_rng = rng.derive(20_000 + idx)
    attack_rng = rng.derive(40_000 + idx)
    total_hours = math.ceil(t_len * window_duration / 3600.0)

    hours = np.arange(total_hours)
    hod = ((start_time + hours * 3600.0) % 86400.0 // 3600.0).astype(np.int64)
    base = profile.day_rates * _DIURNAL[hod]
    counts = benign_rng.poisson(base)
    events = _stream_events(profile, counts, hours, start_time, benign_rng, {})

    if spec is not None:
        in_attack = (hours * 3600.0 // window_duration >= spec.onset) & \
                    (hours * 3600.0 // window_duration < spec.onset + spec.duration)
        attack_hours = hours[in_attack]
        extra = np.maximum(0.0, _scenario_rates(profile, spec)[hod[attack_hours]]
                           - base[attack_hours])
        extra_counts = attack_rng.poisson(extra)
        events = _concat([events, _stream_events(profile, extra_counts, attack_hours,
                                                 start_time, attack_rng, spec.intensity)])
    return events


_BYTES_LOC = {"file-access": 9.0, "removable-device": 13.0, "http": 7.0, "email": 10.0}

# After its timestamp, an event draws each field its kind has, in this
# order: (field, draws, kinds).  bytes takes a Box-Muller pair.
_EVENT_FIELDS = (
    ("host", 1, ("logon", "logoff", "file-access", "process-exec")),
    ("bytes", 2, tuple(_BYTES_LOC)),
    ("mode", 1, ("file-access",)),
    ("cmd", 1, ("command",)),
    ("external", 1, ("email",)),
)


def _draw_layout() -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Draws per event of each kind, and where each field's draws start (-1: none)."""
    width = np.ones(len(EVENT_KINDS), dtype=np.int64)  # the timestamp
    start = {}
    for name, n_draws, kinds in _EVENT_FIELDS:
        has = np.array([kind in kinds for kind in EVENT_KINDS])
        start[name] = np.where(has, width, -1)
        width = width + n_draws * has
    return width, start


_DRAW_WIDTH, _FIELD_START = _draw_layout()
_KIND_BYTES_LOC = np.array([_BYTES_LOC.get(kind, 0.0) for kind in EVENT_KINDS])
# kind code -> rank of its name
_KIND_NAME_RANK = np.argsort(np.argsort(EVENT_KINDS)).astype(np.int8)


def _stream_events(profile: UserProfile, counts: np.ndarray, hours: np.ndarray,
                   start_time: float, rng: SeededRng,
                   intensity: dict[str, float]) -> EventTable:
    """The events of one stream's (row, kind) counts, drawn in one raw() call.

    Row r of counts is the hour that starts at start_time + hours[r] * 3600.
    Events follow the cells in np.nonzero order, and each takes the next
    _DRAW_WIDTH[kind] draws of the stream: first a uniform that places its
    timestamp in the hour, then per _EVENT_FIELDS
      host      an index into the user's hosts (logon, logoff,
                file-access, process-exec);
      bytes     a Box-Muller pair whose cosine output z gives
                floor(scale * exp(loc + z)), loc set per kind (file-access,
                removable-device, email, http);
      mode      write when a uniform falls below the write share
                (file-access);
      cmd       an index into the user's commands (command);
      external  1 when a uniform falls below the external share (email).
    The cumulative sum of these widths places every event's draws.  A
    stream with no events draws nothing.
    """
    rows, kinds = np.nonzero(counts)
    per_cell = counts[rows, kinds]
    kind = np.repeat(kinds, per_cell)
    extra_hosts = int(round(intensity.get("distinct_hosts", 1.0))) - 1
    hosts = profile.hosts + [f"srv-{j:03d}" for j in range(extra_hosts)]
    extra_cmds = int(2 * (intensity.get("distinct_commands", 1.0) - 1.0))
    cmds = profile.commands + [f"cmd{(199 - j) % 200:03d}" for j in range(extra_cmds)]
    if kind.size == 0:
        return EventTable.empty()
    width = _DRAW_WIDTH[kind]
    first = np.cumsum(width) - width
    raw = rng.raw(int(first[-1] + width[-1]))
    u = unit_floats(raw)

    def field(name: str, absent=-1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A column of absent values, the events whose kind has the field,
        and the field's first draw for each."""
        at = _FIELD_START[name][kind]
        has = np.flatnonzero(at >= 0)
        return np.full(kind.size, absent), has, first[has] + at[has]

    write_share = 1.0 - profile.read_share
    if "file_write_share" in intensity:
        write_share = min(0.95, write_share * intensity["file_write_share"])
    scale = intensity.get("bytes_moved", 1.0)

    host, has, at = field("host")
    host[has] = below(raw[at], len(hosts))
    nbytes, has, at = field("bytes", np.nan)
    r, theta = box_muller(u[at], u[at + 1])
    log_bytes = _KIND_BYTES_LOC[kind[has]] + r * np.cos(theta)
    # math.exp per event: numpy's vectorised exp need not round as libm does
    nbytes[has] = np.trunc(scale * np.fromiter(map(math.exp, log_bytes.tolist()),
                                               np.float64, has.size))
    mode, has, at = field("mode")
    mode[has] = u[at] < write_share  # MODES: 0 read, 1 write
    cmd, has, at = field("cmd")
    cmd[has] = below(raw[at], len(cmds))  # cmds may repeat a name; the table merges them
    external, has, at = field("external")
    external[has] = u[at] < profile.external_share

    hour_start = start_time + hours[rows].astype(np.float64) * 3600.0
    timestamps = np.repeat(hour_start, per_cell) + u[first] * 3600.0
    return EventTable([profile.user], hosts, cmds, np.zeros(kind.size, dtype=np.intp),
                      timestamps, kind, host, cmd, nbytes, mode, external)


# -- corpus persistence -------------------------------------------------------


RAW_LOG_COLUMNS = ("user", "timestamp", "kind", "attributes")
LABEL_COLUMNS = ("user", "label", "onset", "duration")
# the raw-log attributes an EventTable keeps
_ATTRIBUTES = {key: code for code, key in enumerate(("host", "cmd", "bytes", "mode", "external"))}
# rows of a raw event CSV read, or written, at a time
_CHUNK_ROWS = 1 << 10
SCHEMA_VERSION = 1  # sequences.bin layout


def save_corpus(corpus: Corpus, directory: Path | str) -> str:
    """Write sequences.bin, labels.csv, and events.csv; returns the digest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    t_len = corpus.t_len
    feats = np.stack([s.features for s in corpus.sequences])
    n_pad = np.array([float(s.n_pad) for s in corpus.sequences])
    ends = np.array([s.window_end for s in corpus.sequences])
    header = {
        "schema": "corpus",
        "schema_version": SCHEMA_VERSION,
        "users": corpus.users,
        "t_len": t_len,
        "n_features": N_FEATURES,
        "window_duration": corpus.window_duration,
        "seed": corpus.seed,
    }
    digest = write_blob(directory / "sequences.bin", header,
                        {"features": feats, "n_pad": n_pad, "window_end": ends})
    with open(directory / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for s in corpus.sequences:
            writer.writerow([s.user, s.label,
                             "" if s.onset is None else s.onset,
                             "" if s.duration is None else s.duration])
    _write_events_csv(corpus.records, directory / "events.csv")
    return digest


def _csv_field(text: str) -> str:
    """text as csv.writer writes one field: quoted, inner quotes doubled,
    when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_events_csv(events: EventTable, path: Path) -> None:
    """The raw event CSV of events, byte for byte as csv.writer writes it
    one row at a time, built a column at a time for _CHUNK_ROWS rows at a
    time.  Attributes are key=value pairs in key order; generated byte
    counts are integers below 2**53.  Quoting is decided once per name."""
    users = np.array([_csv_field(name) for name in events.users], dtype=object)
    kinds = np.array(EVENT_KINDS, dtype=object)
    # per attribute after bytes: ";key=value" by code, "" for an absent code (-1)
    attributes = [(np.array([f";{key}={name}" for name in names] + [""], dtype=object), codes)
                  for key, names, codes in (("cmd", events.commands, events.cmd),
                                            ("external", ("0", "1"), events.external),
                                            ("host", events.hosts, events.host),
                                            ("mode", MODES, events.mode))]
    # the names that make csv quote the whole attributes field
    quoted = [np.array([_csv_field(name) != name for name in names] + [False])
              for names in (events.commands, events.hosts)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RAW_LOG_COLUMNS) + "\r\n")
        for lo in range(0, len(events), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            nbytes = events.bytes[rows]
            moved = ~np.isnan(nbytes)
            text = np.full(len(nbytes), "", dtype=object)
            text[moved] = list(map(";bytes={}".format, map(int, nbytes[moved].tolist())))
            for table, codes in attributes:
                text += table[codes[rows]]
            text = [pairs[1:] for pairs in text.tolist()]  # less the first ";"
            for i in np.flatnonzero(quoted[0][events.cmd[rows]] |
                                    quoted[1][events.host[rows]]).tolist():
                text[i] = _csv_field(text[i])
            fh.write("\r\n".join(map(",".join, zip(
                users[events.user[rows]].tolist(), map(repr, events.timestamp[rows].tolist()),
                kinds[events.kind[rows]].tolist(), text))) + "\r\n")


def check_window_duration(path, value) -> None:
    """A DataError naming path unless value, a header's window_duration, is finite and > 0."""
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise DataError(f"{path}: window_duration must be finite and > 0, got {value!r}")


def load_corpus(directory: Path | str) -> Corpus:
    """Read sequences.bin and labels.csv; events.csv is not opened.

    A sequences.bin of a schema_version other than SCHEMA_VERSION, that
    lacks a header key or array, whose users are not distinct strings,
    t_len not an int >= 1 or window_duration not finite and > 0, or whose
    arrays are not features (users, t_len, N_FEATURES),
    n_pad (users,) integers in [0, t_len] and window_end (users,) finite, is
    a DataError naming the file.  A labels.csv that lacks one of
    LABEL_COLUMNS, or has a row without a user or a label, for a user
    sequences.bin lacks or one labeled before, with a label other than
    benign or a scenario, or whose onset or duration is not an integer, is
    a DataError naming the file and line; so is a benign row that gives an
    onset or a duration, a scenario row without an onset in [0, t_len) and
    a duration >= 1, and a file csv cannot read (see csv_chunks).
    """
    directory = Path(directory)
    path = directory / "sequences.bin"
    header, arrays, _ = read_blob(path)
    if header.get("schema") != "corpus":
        raise DataError(f"{directory}: sequences.bin is not a corpus file")
    check_schema_version(path, header, "corpus", SCHEMA_VERSION)
    try:
        users, t_len, window_duration = header["users"], header["t_len"], header["window_duration"]
        if not (isinstance(users, list) and all(isinstance(u, str) for u in users)
                and len(set(users)) == len(users)):
            raise DataError(f"{path}: users must be distinct strings")
        if type(t_len) is not int or t_len < 1:
            raise DataError(f"{path}: t_len must be an int >= 1, got {t_len!r}")
        check_window_duration(path, window_duration)
        check_shapes(path, arrays, (("features", (len(users), t_len, N_FEATURES)),
                                    ("n_pad", (len(users),)), ("window_end", (len(users),))))
    except KeyError as exc:
        raise DataError(f"{path}: corpus has no {exc}") from None
    n_pad, ends = arrays["n_pad"], arrays["window_end"]
    if not (n_pad == np.clip(np.round(n_pad), 0, t_len)).all():
        raise DataError(f"{path}: n_pad must be integers in [0, {t_len}]")
    if not np.isfinite(ends).all():
        raise DataError(f"{path}: window_end must be finite")
    # each user's (label, onset, duration), None until its labels.csv row
    labels: dict[str, tuple[str, int | None, int | None] | None] = dict.fromkeys(users)
    labels_path = directory / "labels.csv"
    if labels_path.exists():
        for (user, label, onset, duration), error in csv_chunks(labels_path, LABEL_COLUMNS):
            earlier: dict = {}  # each user's first row in the chunk
            (onset, bad_onset), (duration, bad_duration) = (
                _parsed(lambda text: int(text) if text else None, column)
                for column in (onset, duration))
            benign = [name == "benign" for name in label]
            _check(error,
                   ([None in pair for pair in zip(user, label)],
                    lambda i: "a row needs a user and a label"),
                   ([name not in labels for name in user],
                    lambda i: f"user {user[i]!r} is not in {path.name}"),
                   ([labels.get(name) is not None or earlier.setdefault(name, i) != i
                     for i, name in enumerate(user)],
                    lambda i: f"a second row for user {user[i]!r}"),
                   ([name != "benign" and name not in SCENARIOS for name in label],
                    lambda i: f"label {label[i]!r} is not benign or a scenario"),
                   bad_onset, bad_duration,
                   ([b and (o, d) != (None, None) for b, o, d in zip(benign, onset, duration)],
                    lambda i: "a benign row gives no onset or duration"),
                   ([not b and not (o is not None and 0 <= o < t_len and d is not None and d >= 1)
                     for b, o, d in zip(benign, onset, duration)],
                    lambda i: f"a {label[i]} row needs an onset in [0, {t_len}) and a "
                              f"duration >= 1, got {onset[i]!r} and {duration[i]!r}"))
            labels.update(zip(user, zip(label, onset, duration)))
    sequences = []
    for i, user in enumerate(users):
        label, onset, duration = labels[user] or ("benign", None, None)
        sequences.append(BehaviorSequence(
            user=user, features=arrays["features"][i], window_duration=window_duration,
            window_end=float(ends[i]), n_pad=int(n_pad[i]),
            label=label, onset=onset, duration=duration))
    return Corpus(sequences=sequences, t_len=t_len, window_duration=window_duration,
                  seed=header.get("seed", 0))


def load_raw_log(path: Path | str) -> EventTable:
    """Parse the raw event CSV (user,timestamp,kind,attributes).

    Attributes are ';'-separated key=value pairs; a repeated key keeps its
    last value, and keys other than host, cmd, bytes, mode and external
    are dropped.  A missing column or a row that does not parse (an
    unknown kind, a timestamp that is not a finite number, a bytes value
    that is not a finite number >= 0) is a DataError naming the file and
    line; so are bytes that are not text and a field csv refuses (see
    csv_chunks).  One user's records going back in time are a
    DataError naming the user, and a file with no event rows one naming
    the file.

    The file is read a chunk at a time (csv_chunks), and each chunk becomes
    arrays a column at a time, so memory holds the table's columns and one
    chunk of text.  Checks run as if row by row: the first bad row in the
    file is reported, with the first check it fails in the order above;
    only a file without one reports the first record out of order.
    detect does not build this table: raw_log_series folds the same
    chunks straight into window cells.
    """
    names: tuple[dict, dict, dict] = ({}, {}, {})  # user, host, cmd: name -> code
    parts: list[list[np.ndarray]] = [[] for _ in _COLUMNS]  # each column's chunks
    for columns in _raw_log_columns(path, names):
        for part, column in zip(parts, columns):
            part.append(column)
    # each column's chunks are joined in turn, and freed as they are
    return EventTable(*map(list, names), *(np.concatenate(parts.pop(0)) for _ in _COLUMNS))


def raw_log_series(path: Path | str, window_duration: float,
                   ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """window_series(load_raw_log(path), window_duration), with the same
    DataErrors in the same order, without the table: the parsed chunks are
    folded into WindowCells _FOLD_ROWS rows at a time, so memory holds
    one fold's rows and the cells, whatever the number of events.  The
    file is read once, before its least timestamp is known, so the cells
    are keyed by ts // window_duration and rebased onto window_series'
    grid at close.  That gives window_series' windows whenever ts - t0
    and t0 are exact in float64, as for whole-second window durations and
    timestamps in [0, 2**53) (see WindowCells)."""
    names: tuple[dict, dict, dict] = ({}, {}, {})
    cells, batch, rows = WindowCells(window_duration), [], 0
    for columns in _raw_log_columns(path, names):
        batch.append(columns)
        rows += len(columns[0])
        if rows >= _FOLD_ROWS:
            cells.feed(*map(np.concatenate, zip(*batch)))
            batch, rows = [], 0
    if batch:
        cells.feed(*map(np.concatenate, zip(*batch)))
    return cells.close(list(names[0]))


def _raw_log_columns(path, names: tuple[dict, dict, dict]):
    """The EventTable columns of each chunk of the raw event CSV path, as
    _raw_log_chunk gives them, names coded by `names`; once the file is
    read, the DataError of a file with no event rows, else that of its
    first record out of order."""
    latest = np.zeros(0)  # each user code's last timestamp so far
    back = None  # the first record out of order: (user code, timestamp, previous)
    rows = 0
    for values, error in csv_chunks(path, RAW_LOG_COLUMNS, like_dict_reader=False):
        columns = _raw_log_chunk(values, error, names)
        if back is None:
            latest = np.r_[latest, np.full(len(names[0]) - len(latest), -np.inf)]
            back = _first_step_back(columns[0], columns[1], latest)
        rows += len(columns[0])
        yield columns
    if not rows:
        raise DataError(f"{path}: no event rows")
    if back is not None:
        user, ts, previous = back
        raise DataError(f"{path}: out-of-order record for user {list(names[0])[user]!r} at "
                        f"{ts} (previous {previous})")


def _first_step_back(user: np.ndarray, ts: np.ndarray,
                     latest: np.ndarray) -> tuple[int, float, float] | None:
    """(user code, timestamp, previous timestamp) of the first of a chunk's
    records whose timestamp falls below its user's one before it, or None.
    latest holds each user code's last timestamp before the chunk (-inf
    for none), and is brought up to the chunk's end."""
    order = np.argsort(user, kind="stable")
    user, ts = user[order], ts[order]
    first = np.r_[True, user[1:] != user[:-1]]  # each user's first record in the chunk
    last = np.r_[first[1:], True]
    previous = np.r_[np.nan, ts[:-1]]
    previous[first] = latest[user[first]]
    latest[user[last]] = ts[last]
    back = np.flatnonzero(ts < previous)
    if not back.size:
        return None
    i = back[np.argmin(order[back])]  # the first such record in the file
    return int(user[i]), float(ts[i]), float(previous[i])


def _raw_log_chunk(values: list[list[str]], error, names: tuple[dict, dict, dict]
                   ) -> list[np.ndarray]:
    """The EventTable columns of a chunk of raw-log values (user,
    timestamp, kind and attributes, as csv_chunks yields them), names
    coded by `names`, which gains the chunk's new names.  A bad row raises
    error's DataError for it."""
    user, stamp, kind_name, attributes = values
    n = len(user)
    kind = np.fromiter(map(_KIND.get, kind_name, itertools.repeat(-1)), np.int8, n)
    # every key=value pair of the chunk, the row it is in, and its key's code
    pairs = [pair.partition("=") for pair in ";".join(attributes).split(";")]
    row_of = np.repeat(np.arange(n), np.fromiter(
        map(str.count, attributes, itertools.repeat(";")), np.intp, n) + 1)
    key = np.fromiter(map(_ATTRIBUTES.get, map(operator.itemgetter(0), pairs),
                          itertools.repeat(-1)), np.int8, len(pairs))

    def attribute(name: str, absent, dtype, convert) -> np.ndarray:
        """A column of absent, holding convert(values) in the rows that set
        attribute name, values being the last one each row sets."""
        pair = np.flatnonzero(key == _ATTRIBUTES[name])
        row = row_of[pair]
        last = np.diff(row, append=-1) != 0
        column = np.full(n, absent, dtype=dtype)
        column[row[last]] = convert([pairs[i][2] for i in pair[last].tolist()])
        return column

    timestamp, unparsed = _parsed(float, stamp)
    timestamp = np.array(timestamp, np.float64)
    text = attribute("bytes", None, object, list)  # None where a row gives no bytes
    given = np.not_equal(text, None)
    nbytes, not_a_number = np.full(n, np.nan), np.zeros(n, bool)
    nbytes[given], (not_a_number[given], _) = _parsed(float, text[given].tolist())
    _check(error, unparsed,
           (kind < 0, lambda i: f"unknown event kind {kind_name[i]!r}"),
           (~np.isfinite(timestamp), lambda i: "timestamp must be finite"),
           (not_a_number, lambda i: f"bytes {text[i]!r} is not a number"),
           (given & ~((nbytes >= 0.0) & (nbytes < math.inf)),
            lambda i: f"bytes {text[i]!r} must be finite and at least 0"))
    return [_codes(names[0], user), timestamp, kind,
            attribute("host", -1, np.intp, functools.partial(_codes, names[1])),
            attribute("cmd", -1, np.intp, functools.partial(_codes, names[2])),
            nbytes,
            attribute("mode", -1, np.int8, lambda values: [_MODE.get(v, -1) for v in values]),
            attribute("external", -1, np.int8, lambda values: [v == "1" for v in values])]


def _codes(index: dict, names) -> np.ndarray:
    """The code of each name in index, which first gains the names it lacks
    in order of arrival."""
    for name in dict.fromkeys(names):
        index.setdefault(name, len(index))
    return np.fromiter(map(index.__getitem__, names), np.intp, len(names))


def _parsed(convert, values: list) -> tuple[list, tuple]:
    """convert(value) for each of values, None for each one it refuses
    with a TypeError or ValueError, and the check of a refusal for _check:
    a mask of the refused values, and the message each refusal gave."""
    messages: dict[int, str] = {}
    try:
        parsed = list(map(convert, values))
    except (TypeError, ValueError):  # some are refused, so each is read alone
        parsed = []
        for i, value in enumerate(values):
            try:
                parsed.append(convert(value))
            except (TypeError, ValueError) as exc:
                parsed.append(None)
                messages[i] = str(exc)
    refused = np.zeros(len(values), bool)
    refused[list(messages)] = True
    return parsed, (refused, messages.__getitem__)


def _check(error, *checks) -> None:
    """Raise error(i, message(i)) for the first row i that fails one of
    checks, (mask, message) pairs in the order a row is checked, mask
    marking the rows that fail; message is that of the first it fails."""
    failed = [(np.argmax(mask), k) for k, (mask, _) in enumerate(checks)
              if np.count_nonzero(mask)]
    if failed:
        i, k = min(failed)
        raise error(i, checks[k][1](i))


def csv_chunks(path, columns, like_dict_reader=True, required=True):
    """Each chunk of up to _CHUNK_ROWS rows of the CSV file path that holds
    a row, as (values, error): values holds each of columns' values in the
    chunk's rows, and error(i, message) is the DataError naming the file
    and the line (the last, as csv counts) of the chunk's row i.  Blank
    rows are skipped and fields past the header's end ignored.  Like
    csv.DictReader (the default), a repeated header name reads its last
    column and a short row's missing field None; else its first and "".
    A column the header lacks is a DataError at line 1 if required, else
    None.  What csv cannot read (a row holding bytes that are not text in
    the file's encoding, a field over csv.field_size_limit()) is a
    DataError naming the file and line, raised after the chunk of the
    rows read before it, so that a bad row among them is reported in its
    place."""
    with open(path, newline="", errors="surrogateescape") as fh:
        escaped: list[int] = []  # the first line holding bytes that do not decode, once read
        reader = csv.reader(_lines(fh, escaped))
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
        if escaped and escaped[0] <= reader.line_num:
            raise _undecodable(path, fh.encoding)
        position = {name: i for i, name in enumerate(header)}  # a repeat: its last column
        if not like_dict_reader:  # a repeat: its first column
            position = {name: header.index(name) for name in position}
        missing = [c for c in columns if c not in position]
        if required and missing:
            raise DataError(f"{path}, line 1: missing column(s) {', '.join(missing)}")
        at = [position.get(c) for c in columns]
        need = max((i for i in at if i is not None), default=0) + 1  # >= 1, so blank rows go
        fill = None if like_dict_reader else ""
        while True:
            first_line, rows, failure = reader.line_num, [], None
            try:
                rows.extend(itertools.islice(reader, _CHUNK_ROWS))
            except csv.Error as exc:
                failure = DataError(f"{path}, line {reader.line_num}: {exc}")
            if escaped and escaped[0] <= reader.line_num:  # a row read holds them
                ends = _row_ends(rows, first_line)
                rows = rows[:sum(end < escaped[0] for end in ends)]
                failure = _undecodable(path, fh.encoding)
            full = rows
            if min(map(len, rows), default=need) < need:
                full = [row + [fill] * (need - len(row)) for row in rows if row]
            if full:
                yield ([list(map(operator.itemgetter(i), full)) if i is not None
                        else [None] * len(full) for i in at],
                       functools.partial(_row_error, path, rows, first_line))
            if failure is not None:
                raise failure
            if len(rows) < _CHUNK_ROWS:
                return


# a character that stands for a byte the encoding could not decode
_ESCAPED = re.compile("[\udc80-\udcff]")


def _lines(fh, escaped: list[int]):
    """The lines of fh, opened with errors="surrogateescape", read a block
    at a time; once the block is read, escaped gains the number of the
    first line that holds a byte that did not decode."""
    def blocks():
        number = 0
        while lines := fh.readlines(1 << 14):
            text = "".join(lines)
            if not escaped and not text.isascii() and _ESCAPED.search(text):
                escaped.append(number + next(i for i, line in enumerate(lines, 1)
                                             if _ESCAPED.search(line)))
            number += len(lines)
            yield lines

    return itertools.chain.from_iterable(blocks())


def _row_ends(rows: list[list[str]], line: int):
    """The line each of rows ends on, csv having read `line` lines before them."""
    for row in rows:
        # a row ends one line on, plus the line breaks inside its quoted fields
        line += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
        yield line


def _row_error(path, rows: list[list[str]], line: int, i: int, message: str) -> DataError:
    """The DataError of row i, blank rows not counted, of the rows csv read
    after line `line`, naming the row's last line."""
    ends = [end for row, end in zip(rows, _row_ends(rows, line)) if row]
    return DataError(f"{path}, line {ends[i]}: {message}")


def _undecodable(path, encoding: str) -> DataError:
    """The DataError of the first line of path that does not decode in encoding."""
    decoder = codecs.getincrementaldecoder(encoding)()
    # latin-1 maps each byte to one character, and newline="" splits lines as
    # csv's source does; an ASCII-compatible encoding never has \r or \n
    # inside a character
    with open(path, encoding="latin-1", newline="") as fh:
        number = 0
        try:
            for number, line in enumerate(fh, 1):
                decoder.decode(line.encode("latin-1"))
            decoder.decode(b"", final=True)  # the file may end inside a character
        except UnicodeDecodeError as exc:
            return DataError(f"{path}, line {number}: not {exc.encoding} text ({exc.reason})")
    return DataError(f"{path}: not {encoding} text")


# -- CERT r6.2 ingestion ------------------------------------------------------

# The CERT r6.2 per-source CSVs read, and the event kind of each.  Columns
# are found by header name, and the ones not read are ignored.
CERT_SOURCES = {
    "logon.csv": "logon",
    "device.csv": "removable-device",
    "file.csv": "file-access",
    "email.csv": "email",
    "http.csv": "http",
}

_INTERNAL_DOMAIN = "@dtaa.com"
# the CERT columns read, in the order _cert_chunk takes them
_CERT_COLUMNS = ("date", "user", "pc", "activity", "to_removable_media", "to", "size")

_CERT_DATE_FORMAT = "%m/%d/%Y %H:%M:%S"
# the fixed-width form of nearly every CERT date, a 0 for each digit, and
# the offsets of its digits and of its separators
_FIXED_WIDTH_DATE = np.frombuffer(b"00/00/0000 00:00:00", np.uint8)
_DATE_DIGITS = np.flatnonzero(_FIXED_WIDTH_DATE == ord("0"))
_DATE_SEPARATORS = np.flatnonzero(_FIXED_WIDTH_DATE != ord("0"))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # by month, 1-12


def _strptime_cert_date(text: str) -> datetime:
    """A CERT date not in the fixed-width form, which strptime may still
    accept: an unpadded field, a run of whitespace, non-ASCII digits."""
    return datetime.strptime(text, _CERT_DATE_FORMAT)


def _cert_seconds(dates: list) -> np.ndarray:
    """Epoch seconds of each CERT date read as UTC, exactly as strptime
    reads it with _CERT_DATE_FORMAT; NaN for a date strptime rejects, or None.

    Fixed-width dates are checked as one (n, 19) array of ASCII bytes (digits
    and separators in place, month 1-12, day within the month, leap years
    counted, year >= 1, hour < 24, minute and second < 60), and their
    seconds, integers below 2**53, are datetime's.  Other dates, and all of
    a list holding None or a non-ASCII date, go to strptime one by one."""
    n = len(dates)
    seconds = np.full(n, np.nan)
    try:
        text = np.frombuffer("".join(dates).encode("ascii"), np.uint8)
        lengths = np.fromiter(map(len, dates), np.intp, n)
    except (TypeError, UnicodeEncodeError):  # a None or a non-ASCII date
        lengths = np.zeros(n, np.intp)
    fixed = np.flatnonzero(lengths == 19)
    if fixed.size:
        b = text[(np.cumsum(lengths)[fixed] - 19)[:, None] + np.arange(19)]
        digit = b[:, _DATE_DIGITS].astype(np.int64) - ord("0")
        month, day, hour, minute, second = (digit[:, i] * 10 + digit[:, i + 1]
                                            for i in (0, 2, 8, 10, 12))
        year = digit[:, 4:8] @ np.array([1000, 100, 10, 1])
        leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
        good = ((digit >= 0) & (digit <= 9)).all(axis=1) & \
            (b[:, _DATE_SEPARATORS] == _FIXED_WIDTH_DATE[_DATE_SEPARATORS]).all(axis=1) & \
            (month >= 1) & (month <= 12) & (year >= 1) & (day >= 1) & \
            (day <= _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))) & \
            (hour < 24) & (minute < 60) & (second < 60)
        # days since 1970-01-01 of the proleptic Gregorian date, counted
        # from 1 March so that a leap day ends its year
        y = year - (month <= 2)
        era = y // 400
        yoe = y - era * 400
        doe = yoe * 365 + yoe // 4 - yoe // 100 + (153 * ((month + 9) % 12) + 2) // 5 + day - 1
        days = era * 146097 + doe - 719468
        seconds[fixed[good]] = (days * 86400 + hour * 3600 + minute * 60 + second)[good]
    for i in np.flatnonzero(np.isnan(seconds)).tolist():
        with contextlib.suppress(TypeError, ValueError):
            seconds[i] = _strptime_cert_date(dates[i]).replace(tzinfo=timezone.utc).timestamp()
    return seconds


def _decided(values: list, decide) -> np.ndarray:
    """decide(value) for each of values as a bool array, called once per
    distinct value."""
    decision = {value: decide(value) for value in set(values)}
    return np.fromiter(map(decision.__getitem__, values), bool, len(values))


def ingest_cert(directory: Path | str) -> tuple[EventTable, int]:
    """Read CERT r6.2 CSVs into one EventTable, ordered by (timestamp, user).

    Rows are read as csv.DictReader reads them: blank lines are skipped, a
    name the header repeats reads its last column, a name the header lacks
    or a field past a short row's end reads None, and fields past the
    header's end are ignored; what csv cannot read is a DataError (see
    csv_chunks).  Malformed rows (no date or one that does not parse,
    an empty user, an email size that is not a finite number >= 0) are
    skipped and counted, never fatal.  Returns (events, malformed_count).
    Each file is read a chunk at a time (csv_chunks), a column at a time,
    so memory holds the table's columns and one chunk of text.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"CERT directory not found: {directory}")
    sources = [name for name in CERT_SOURCES if (directory / name).exists()]
    if not sources:
        raise DataError(f"no CERT source files in {directory} "
                        f"(expected any of {', '.join(CERT_SOURCES)})")
    parts: list[list[np.ndarray]] = [[] for _ in _COLUMNS]  # each column's chunks
    names: tuple[dict, dict] = ({}, {})  # user, host: name -> code
    malformed = 0
    for filename in sources:
        for values, _ in csv_chunks(directory / filename, _CERT_COLUMNS, required=False):
            columns, bad = _cert_chunk(filename, values, names)
            for part, column in zip(parts, columns):
                part.append(column)
            malformed += bad
    if not sum(map(len, parts[0])):
        raise DataError(f"zero parseable rows in {directory}")
    users, hosts = names
    # each column's chunks are joined in turn, and freed as they are
    events = EventTable(list(users), [host or None for host in hosts], [],
                        *(np.concatenate(parts.pop(0)) for _ in _COLUMNS))
    events.permute(np.lexsort((events.user, events.timestamp)))
    return events, malformed


def _cert_chunk(filename: str, values: list[list], names: tuple[dict, dict]
                ) -> tuple[list[np.ndarray], int]:
    """The EventTable columns of the good rows among a chunk of rows of
    the CERT file filename, given as the _CERT_COLUMNS values csv_chunks
    yields, and the number of malformed rows.  User and host names are
    coded by `names`, which gains the chunk's new names; an empty host is
    coded as "" and an absent one as None, both no host."""
    date, user, host, activity, to_removable_media, to, size = values
    n = len(date)
    seconds = _cert_seconds(date)
    good = ~np.isnan(seconds) & np.fromiter(map(bool, user), bool, n)
    kind = np.full(n, _KIND[CERT_SOURCES[filename]], np.int8)
    nbytes = np.full(n, np.nan)
    mode, external = np.full(n, -1, np.int8), np.full(n, -1, np.int8)
    if filename == "logon.csv":
        kind[_decided(activity, lambda a: (a or "").strip().lower() == "logoff")] = _KIND["logoff"]
    elif filename == "file.csv":
        written = _decided(activity, lambda a: any(
            w in (a or "").strip().lower() for w in ("write", "copy", "delete"))) | \
            _decided(to_removable_media, lambda r: (r or "").lower() == "true")
        mode = np.where(written, _MODE["write"], _MODE["read"]).astype(np.int8)
    elif filename == "email.csv":
        external = _decided(to, lambda to: any(
            addr and _INTERNAL_DOMAIN not in addr for addr in (to or "").split(";")))
        external = external.astype(np.int8)
        given = np.fromiter(map(bool, size), bool, n)
        nbytes[given] = _parsed(float, list(itertools.compress(size, given.tolist())))[0]
        good &= ~given | (nbytes >= 0.0) & (nbytes < math.inf)  # a size must count bytes
    keep = np.flatnonzero(good)
    if keep.size < n:
        user, host = (list(itertools.compress(c, good.tolist())) for c in (user, host))
    return [_codes(names[0], user), seconds[keep], kind[keep], _codes(names[1], host),
            np.full(keep.size, -1, np.intp), nbytes[keep], mode[keep], external[keep]], \
        n - keep.size
