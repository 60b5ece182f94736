"""evsentinel benchmark: one command, every workload, every metric.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The program is driven only through
its CLI (`python3 -m evsentinel.cli`, with the checkout's src/ on the
path) and, for checks, its public functions.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a further set-up and round run under
perfbench/tracer.py.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from stages import SRC, StageFailed


def _print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g} {unit}")


def _print_tree(tree: dict) -> None:
    print("  span tree (calls, total s, self s):")
    for path in sorted(tree):
        calls, total, own = tree[path]
        depth = path.count("/")
        print(f"  {'  ' * depth}{path.rsplit('/', 1)[-1]:<{44 - 2 * depth}} "
              f"{calls:>8d} {total:>10.4f} {own:>10.4f}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workloads

    workload = workloads.WORKLOADS[name]
    print(f"workload {name} (seed {seed}, {seconds:g} s)")
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    run = workloads.new_run(workload, seed)
    try:
        metrics = workloads.measure(run, seconds)
        result["correct"] = True
        if trace:
            metrics, tree = workloads.trace(run, metrics)
            _print_tree(tree)
    except (checks.CheckFailed, StageFailed) as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        print(f"FAILED {exc}")
        metrics = {}
    result["attempted"], result["failed"] = run.attempted, run.failed
    print(f"  {len(run.rounds)} rounds, {run.attempted} operations attempted, "
          f"{run.failed} failed")
    if metrics:
        _print_metrics(metrics)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    workloads.RESULTS.mkdir(exist_ok=True)
    out = workloads.RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    stages = [[phase, r.stage, r.wall_s, r.reference_s, r.peak_rss_mb]
              for phase, r in run.stages]
    out.write_text(json.dumps({**result, "stages": stages}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evsentinel" / "cli.py").is_file():
        print(f"error: no evsentinel sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The harness and every stage it starts share one core, so the
    # reference loop (stages.py) times the core the stages run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    if args.workload == "all":
        for n, r in results.items():
            print(f"{n}: {json.dumps(r)}")
        print(json.dumps({"correct": ok, "workloads": list(results)}))
    else:
        print(json.dumps(results[names[0]]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
