"""Print the sha256 of every file the CLI pipeline writes, one seed at a time.

For each seed this runs gen, train, then detect on the corpus directory, on
its events.csv and on its CERT rewrite (`perfbench/inputs.write_cert`, which
also writes the rewrite's raw-CSV twin), then eval of each detect run, every
stage as its own `python3 -m evsentinel.cli` process with one BLAS thread.
The `--help` text of every subcommand is saved under help/.  Each output
file is printed as `<relative path> <sha256>` on stdout, in path order;
each stage's own summary line (with the checkpoint digest) goes to stderr,
followed by the stage's wall time and its peak resident memory
(`ru_maxrss` from wait4(2), as `perfbench/stages.py` reads it).  The CERT rewrite runs in a process
of its own, so that no later stage starts with this tool's high-water
mark: Linux carries it into a child's `ru_maxrss`.  Two checkouts made
the same bytes when their stdout is equal:

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
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH = (["--population", "32", "--insider-fraction", "0.5", "--t-len", "20"],
         ["--epochs", "30", "--batch-size", "8"])
GATE = (["--population", "200", "--insider-fraction", "0.05", "--t-len", "100"],
        ["--epochs", "50"])
SUBCOMMANDS = ("gen", "train", "detect", "eval")


def run_cli(src: Path, *args: str) -> tuple[str, float, float]:
    """The stdout of one CLI process, its wall time in seconds and its peak
    RSS in MB; its stderr is passed on to ours."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", COLUMNS="80")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "evsentinel.cli", *args],
                                env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        sys.stderr.write(err.read().decode())
        if proc.returncode != 0:
            sys.exit(f"{' '.join(args)}: exit {proc.returncode}")
        return out.read().decode(), wall_s, usage.ru_maxrss / 1024.0


def run_stage(src: Path, *args: str) -> None:
    stdout, wall_s, peak_mb = run_cli(src, *args)
    sys.stderr.write(stdout.rstrip("\n") + f"  [wall {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB]\n")


def write_cert_apart(events_csv: Path, cert_dir: Path, raw_csv: Path, seed: str) -> None:
    """perfbench/inputs.write_cert, run in a child process."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); from pathlib import Path; "
                    "from inputs import write_cert; "
                    "write_cert(*map(Path, sys.argv[2:5]), int(sys.argv[5]))",
                    str(PERFBENCH), str(events_csv), str(cert_dir), str(raw_csv), seed],
                   check=True)


def pipeline(src: Path, out: Path, seed: str, gen_flags: list[str],
             train_flags: list[str]) -> None:
    ckpt = str(out / "train" / "checkpoint.ckpt")
    run_stage(src, "gen", *gen_flags, "--seed", seed, "--out", str(out / "corpus"))
    run_stage(src, "train", "--corpus", str(out / "corpus"), *train_flags,
              "--seed", seed, "--out", str(out / "train"))
    write_cert_apart(out / "corpus" / "events.csv", out / "cert", out / "cert-twin.csv", seed)
    for name, source in (("corpus", out / "corpus"), ("log", out / "corpus" / "events.csv"),
                         ("cert", out / "cert")):
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
    src = args.root.resolve() / "src"
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        work = Path(tmp)
        (work / "help").mkdir()
        for stage in SUBCOMMANDS:
            (work / "help" / f"{stage}.txt").write_text(run_cli(src, stage, "--help")[0])
        for seed in args.seeds:
            pipeline(src, work / f"seed-{seed}", seed, gen_flags, train_flags)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(path.relative_to(work).as_posix(), digest)


if __name__ == "__main__":
    main()
