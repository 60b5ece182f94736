"""Print the sha256 of every file the CLI pipeline writes, one seed at a time.

For each seed this runs gen, train, detect on the corpus directory and on
its events.csv, then eval of each detect run, every stage as its own
`python3 -m evsentinel.cli` process with one BLAS thread.  Each output
file is printed as `<relative path> <sha256>` on stdout, in path order;
each stage's own summary line (with the checkpoint digest) goes to
stderr.  Two checkouts made the same bytes when their stdout is equal:

    python3 tools/digests.py --root OLD_CHECKOUT 1 2 3 4 > old.txt
    python3 tools/digests.py 1 2 3 4 > new.txt
    diff old.txt new.txt

The default scale is the benchmark's (32 users, half of them insiders,
T=20, 30 epochs in batches of 8); --gate runs the acceptance gate's
(200 users, 5% insiders, T=100, 50 epochs).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = (["--population", "32", "--insider-fraction", "0.5", "--t-len", "20"],
         ["--epochs", "30", "--batch-size", "8"])
GATE = (["--population", "200", "--insider-fraction", "0.05", "--t-len", "100"],
        ["--epochs", "50"])


def run_stage(src: Path, stage: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "evsentinel.cli", stage, *args],
                          env=env, capture_output=True, text=True)
    sys.stderr.write(done.stdout + done.stderr)
    if done.returncode != 0:
        sys.exit(f"{stage} {' '.join(args)}: exit {done.returncode}")


def pipeline(src: Path, out: Path, seed: str, gen_flags: list[str],
             train_flags: list[str]) -> None:
    ckpt = str(out / "train" / "checkpoint.ckpt")
    run_stage(src, "gen", *gen_flags, "--seed", seed, "--out", str(out / "corpus"))
    run_stage(src, "train", "--corpus", str(out / "corpus"), *train_flags,
              "--seed", seed, "--out", str(out / "train"))
    for name, source in (("corpus", out / "corpus"), ("log", out / "corpus" / "events.csv")):
        run_stage(src, "detect", "--checkpoint", ckpt, "--input", str(source),
                  "--seed", seed, "--out", str(out / f"detect-{name}"))
        run_stage(src, "eval", "--scores", str(out / f"detect-{name}" / "scores.csv"),
                  "--corpus", str(out / "corpus"), "--checkpoint", ckpt,
                  "--seed", seed, "--out", str(out / f"eval-{name}"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", help="seeds to run the pipeline at")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ runs (default: this one)")
    parser.add_argument("--gate", action="store_true",
                        help="the acceptance gate's scale instead of the benchmark's")
    args = parser.parse_args()
    gen_flags, train_flags = GATE if args.gate else BENCH
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            pipeline(args.root.resolve() / "src", work / f"seed-{seed}", seed,
                     gen_flags, train_flags)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(path.relative_to(work).as_posix(), digest)


if __name__ == "__main__":
    main()
