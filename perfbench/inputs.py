"""Detect inputs derived from a generated corpus's raw event log.

`write_cert` rewrites `events.csv` (user,timestamp,kind,attributes) in
the CERT r6.2 layout (Glasser & Lindauer 2013): one CSV per source
(logon, device, file, email, http) with second-resolution
`%m/%d/%Y %H:%M:%S` dates.  process-exec and command events have no CERT
source and are dropped, as are attributes no CERT row carries (bytes on
devices, files and web visits).  A fixed number of malformed rows, half
with an unparseable date and half with an empty user, is placed in every
file at positions drawn from the seed.

It also writes the same surviving events as a raw event CSV, in the order
CERT ingest yields them, so a CERT detect run can be compared byte for
byte with a raw-log detect run over the same events.
"""

from __future__ import annotations

import csv
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

MALFORMED_PER_FILE = 20
INTERNAL_DOMAIN = "@dtaa.com"

# file name -> header; ingest reads the columns it knows and ignores the rest
CERT_HEADERS = {
    "logon.csv": ["id", "date", "user", "pc", "activity"],
    "device.csv": ["id", "date", "user", "pc", "file_tree", "activity"],
    "file.csv": ["id", "date", "user", "pc", "filename", "activity",
                 "to_removable_media", "from_removable_media"],
    "email.csv": ["id", "date", "user", "pc", "to", "cc", "bcc", "from", "activity",
                  "size", "attachments"],
    "http.csv": ["id", "date", "user", "pc", "url", "activity"],
}
CERT_ORDER = list(CERT_HEADERS)  # the order ingest reads the files in


@dataclass
class CertInput:
    rows_written: int  # data rows over all five files, malformed included
    malformed: int

    @property
    def records(self) -> int:
        return self.rows_written - self.malformed


def read_events(path: Path):
    """Rows of a raw event CSV as (user, timestamp, kind, attributes dict)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for user, ts, kind, attrs in reader:
            parsed = dict(pair.split("=", 1) for pair in attrs.split(";")) if attrs else {}
            yield user, float(ts), kind, parsed


def _cert_row(n: int, date: str, user: str, kind: str, attrs: dict):
    """(file, CERT row, attributes ingest derives from it), or None if no source."""
    rid = f"{{R{n:08d}}}"
    host = attrs.get("host", "")
    derived = {"host": host} if host else {}  # ingest keeps a non-empty pc as host
    if kind in ("logon", "logoff"):
        return "logon.csv", [rid, date, user, host, kind.capitalize()], derived
    if kind == "removable-device":
        return "device.csv", [rid, date, user, host, "", "Connect"], derived
    if kind == "file-access":
        mode = attrs.get("mode", "read")
        filename = f"/share/{user}/doc{n % 97}.txt"
        activity = "File Write" if mode == "write" else "File Open"
        derived.update(mode=mode, path=filename)
        return "file.csv", [rid, date, user, host, filename, activity, "False", "False"], \
            derived
    if kind == "email":
        external = attrs.get("external") == "1"
        to = "contact@example.com" if external else f"peer{n % 13}{INTERNAL_DOMAIN}"
        size = attrs.get("bytes", "")
        derived["external"] = "1" if external else "0"
        if size:
            derived["bytes"] = size
        return "email.csv", [rid, date, user, host, to, "", "", f"{user}{INTERNAL_DOMAIN}",
                             "Send", size, ""], derived
    if kind == "http":
        url = f"http://intranet.example.com/{user}/{n % 31}"
        derived["url"] = url
        return "http.csv", [rid, date, user, host, url, "WWW Visit"], derived
    return None


def _malformed_row(n: int, file: str, user: str, bad_date: bool) -> list[str]:
    width = len(CERT_HEADERS[file])
    row = [f"{{M{n:08d}}}", "13/45/2010 99:99:99" if bad_date else "01/02/2010 03:04:05",
           user if bad_date else ""]
    return row + [""] * (width - len(row))


def write_cert(events_csv: Path, cert_dir: Path, raw_csv: Path, seed: int) -> CertInput:
    """Write the CERT directory and its raw-CSV twin; returns the row counts."""
    cert_dir.mkdir(parents=True, exist_ok=True)
    rows: dict[str, list[list[str]]] = {f: [] for f in CERT_HEADERS}
    records: dict[str, list[tuple]] = {f: [] for f in CERT_HEADERS}
    for n, (user, ts, kind, attrs) in enumerate(read_events(events_csv)):
        sec = math.floor(ts)
        date = time.strftime("%m/%d/%Y %H:%M:%S", time.gmtime(sec))
        mapped = _cert_row(n, date, user, kind, attrs)
        if mapped is None:
            continue
        file, row, derived = mapped
        rows[file].append(row)
        records[file].append((float(sec), user, kind, derived))

    rng = random.Random(seed)
    malformed = 0
    for file in CERT_ORDER:
        good = rows[file]
        positions = sorted(rng.sample(range(len(good) + MALFORMED_PER_FILE),
                                      MALFORMED_PER_FILE))
        out = list(good)
        for j, pos in enumerate(positions):
            out.insert(pos, _malformed_row(malformed + j, file, "u0000", bad_date=j % 2 == 0))
        malformed += len(positions)
        with open(cert_dir / file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CERT_HEADERS[file])
            writer.writerows(out)

    # ingest reads the files in order, then stable-sorts on (timestamp, user)
    merged = [rec for file in CERT_ORDER for rec in records[file]]
    merged.sort(key=lambda r: (r[0], r[1]))
    with open(raw_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "timestamp", "kind", "attributes"])
        for ts, user, kind, derived in merged:
            attrs = ";".join(f"{k}={v}" for k, v in sorted(derived.items()))
            writer.writerow([user, repr(ts), kind, attrs])
    total = sum(len(r) for r in rows.values()) + malformed
    return CertInput(rows_written=total, malformed=malformed)
