"""Run one evsentinel CLI stage as its own process and measure it.

Every stage is started the way a user starts it, `python3 -m
evsentinel.cli <stage> ...`, with the checkout's `src/` as the only
package path.  The harness waits for the child with wait4(2), so each
stage's own peak resident memory is known, not the maximum over all
children so far.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# One BLAS thread: stages run one at a time on a 2-core machine, and a
# pinned thread count keeps matmul summation order, and so every output
# byte, the same from run to run.
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

STAGE_TIMEOUT_S = 150.0

# A fixed pure-Python loop, timed in the harness just before and just
# after every stage, on the core the stage runs on.  This host's cores run
# at two speeds about 1.46x apart, in stretches of seconds to minutes, so
# wall times move with the slow share of a run.  The stages are
# Python-bound as the loop is, so a stage's wall time over the loop's time
# around it moves far less; the benchmark reports stage times scaled by
# REFERENCE_S over that time (see workloads.py).
REFERENCE_STEPS = 350_000  # each side of a stage
REFERENCE_S = 0.041  # both sides' time at the fast speed of the reference machine


class StageFailed(RuntimeError):
    """A CLI stage exited non-zero or was killed."""


@dataclass
class StageRun:
    stage: str
    wall_s: float
    reference_s: float  # the reference loop, before plus after the stage
    peak_rss_mb: float
    stdout: str

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference speed."""
        return self.wall_s * REFERENCE_S / self.reference_s


def reference_s() -> float:
    """Time one run of the reference loop."""
    start = time.perf_counter()
    total = 0
    for step in range(REFERENCE_STEPS):
        total += step * step
    return time.perf_counter() - start


def run_stage(stage: str, args: list[str], log_dir: Path,
              spans_path: Path | None = None) -> StageRun:
    """Run `evsentinel <stage> <args>`; with spans_path, under the tracer."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "evsentinel.cli", stage, *args]
    else:
        cmd = [sys.executable, str(TRACER), str(spans_path), stage, *args]
    env = dict(os.environ, **CHILD_ENV)
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / f"{stage}.out", log_dir / f"{stage}.err"
    before = reference_s()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise StageFailed(f"evsentinel {stage} exited {proc.returncode}: "
                          f"{err_path.read_text(errors='replace').strip()[-400:]}")
    return StageRun(stage=stage, wall_s=wall, reference_s=before + reference_s(),
                    peak_rss_mb=usage.ru_maxrss / 1024.0,
                    stdout=out_path.read_text(errors="replace"))
