"""Paired benchmark of two checkouts, a parent (OLD) and a change (NEW).

    python3 tools/pairs.py OLD NEW [--workload NAME]

For each seed 901 to 910 this runs `python3 perfbench/run.py --seed S`
(with `--workload NAME` when given) in each checkout, OLD first on odd
seeds and NEW first on even ones, with PYTHONDONTWRITEBYTECODE=1.  It
refuses to start while either checkout's src/ holds a __pycache__: a
bytecode cache that is current on one side and stale on the other skews
every pair.  Each checkout runs its own perfbench/.

For each workload and end-to-end metric of OLD's BENCHMARK.json it then
prints the two medians, NEW's wins out of the pairs (a win is a better
value in the metric's `better` direction; ties count for neither side),
the interquartile range of OLD's runs, and each side's operations
attempted and failed in all.  Progress goes to stderr.  It writes
nothing but what perfbench/run.py writes in each checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(901, 911)


def run_bench(root: Path, seed: int, workload: str) -> dict[str, dict]:
    """One perfbench/run.py run in root: each workload's result object."""
    args = [sys.executable, "perfbench/run.py", "--seed", str(seed)]
    if workload != "all":
        args += ["--workload", workload]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(args, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if workload != "all":
        results = {workload: json.loads(lines[-1])} if lines else {}
    else:
        results = {}
        for line in lines:
            name, sep, rest = line.partition(": ")
            if sep and rest.startswith("{") and " " not in name:
                results[name] = json.loads(rest)
    if not results:
        sys.exit(f"{root}: perfbench/run.py --seed {seed} printed no results "
                 f"(exit {proc.returncode}):\n{proc.stderr}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the parent's checkout")
    parser.add_argument("new", type=Path, help="the change's checkout")
    parser.add_argument("--workload", default="all", help="one workload (default: all)")
    args = parser.parse_args()
    roots = {"old": args.old.resolve(), "new": args.new.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            sys.exit(f"{root}: not a checkout with perfbench/run.py")
        caches = sorted((root / "src").rglob("__pycache__"))
        if caches:
            sys.exit(f"{caches[0]}: remove every __pycache__ under {root / 'src'} first")
    bench = json.loads((roots["old"] / "BENCHMARK.json").read_text())

    runs: dict[str, list[dict]] = {"old": [], "new": []}
    for seed in SEEDS:
        for side in ("old", "new") if seed % 2 else ("new", "old"):
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_bench(roots[side], seed, args.workload))

    print(f"{len(SEEDS)} pairs, seeds {SEEDS[0]}-{SEEDS[-1]}")
    print(f"{'workload':<14} {'metric':<13} {'old median':>12} {'new median':>12} "
          f"{'change':>8} {'wins':>6} {'old IQR':>10}")
    for workload in runs["old"][0]:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            old, new = ([run[workload]["metrics"].get(name, {}).get("value")
                         for run in runs[side]] for side in ("old", "new"))
            if None in old or None in new:
                print(f"{workload:<14} {name:<13} missing in some run")
                continue
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            q1, _, q3 = statistics.quantiles(old, n=4)
            m_old, m_new = statistics.median(old), statistics.median(new)
            change = (m_new - m_old) / m_old if m_old else 0.0
            print(f"{workload:<14} {name:<13} {m_old:>12.6g} {m_new:>12.6g} "
                  f"{change:>+8.2%} {wins:>3}/{len(old):<2} {q3 - q1:>10.4g}")
        for side in ("old", "new"):
            attempted = sum(run[workload]["attempted"] for run in runs[side])
            failed = sum(run[workload]["failed"] for run in runs[side])
            print(f"{workload:<14} {side} operations: {attempted} attempted, {failed} failed")


if __name__ == "__main__":
    main()
