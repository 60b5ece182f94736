"""Self-test of the benchmark at a tiny input size (about two minutes).

    python3 perfbench/selftest.py

For every workload it runs one set-up and round at a tiny scale, checks
that every end-to-end and per-layer metric BENCHMARK.json names is
reported, then corrupts outputs one at a time and checks that the
matching output check fails and names its check.  It is not part of the
repository's pytest run.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys

from stages import ROOT, SRC

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(population=12, insider_fraction=0.5, t_len=8, epochs=2, batch_size=4)


def _edit_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _flip_alert(rows) -> None:
    rows[1][5] = "0" if rows[1][5] == "1" else "1"


def _bump_cluster(rows) -> None:
    rows[1][7] = str(int(rows[1][7]) + 1)


def _drop_first_logon(rows) -> None:
    rows.remove(next(r for r in rows if r[2] == "logon"))


def _bump_auc(report) -> None:
    path = report / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["auc"] = metrics["auc"] * 0.5
    path.write_text(json.dumps(metrics))


def _expect_failure(run, check: str, corrupt, target) -> None:
    backup = target.with_name(target.name + ".orig")
    shutil.copyfile(target, backup)
    corrupt(target)
    try:
        workloads.check_outputs(run)
    except checks.CheckFailed as exc:
        assert exc.check == check, f"expected {check}, got: {exc}"
        print(f"    corrupted {target.name}: {exc}")
    else:
        raise AssertionError(f"corrupting {target} did not fail {check}")
    finally:
        shutil.move(backup, target)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, full in workloads.WORKLOADS.items():
        workload = dataclasses.replace(full, scale=TINY)
        print(f"{name}: tiny set-up and round")
        run = workloads.new_run(workload, seed=3)
        metrics = workloads.measure(run, seconds=0)
        missing = end_to_end - set(metrics)
        assert not missing, f"{name}: end-to-end metrics not reported: {sorted(missing)}"
        assert all(v != 0 for v, _ in metrics.values()), f"{name}: a zero metric: {metrics}"
        layers, _ = workloads.trace(run, metrics)
        missing = per_layer - set(layers)
        assert not missing, f"{name}: per-layer metrics not reported: {sorted(missing)}"

        scores = run.outs[0] / "detect" / "scores.csv"
        _expect_failure(run, "alert-rule",
                        lambda p: _edit_csv(p, _flip_alert), scores)
        _expect_failure(run, "auc-mann-whitney",
                        lambda p: _bump_auc(p.parent), run.outs[0] / "report" / "metrics.json")
        if workload.detect_input == "corpus":
            _expect_failure(run, "daily-counts-from-events",
                            lambda p: _edit_csv(p, _drop_first_logon),
                            run.prepared[0].corpus / "events.csv")
        else:
            check = ("log-matches-corpus" if workload.detect_input == "log"
                     else "cert-matches-raw-csv")
            _expect_failure(run, check,
                            lambda p: _edit_csv(p, _bump_cluster), scores)
    print("selftest: every metric reported, every corruption caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
