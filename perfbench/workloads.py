"""The benchmark's workloads: set-up, measured rounds, checks and metrics.

desk-pipeline  every round runs gen -> train -> detect -> eval, each stage
               as its own CLI process, on one corpus made from the seed.
               Set-up only checks, three times, that the CLI starts.
detect-log     set-up makes three corpora and a checkpoint for each
               (gen, train); every round streams each corpus's raw
               events.csv through detect, then evaluates the scores.
detect-cert    as detect-log, but each events.csv is first rewritten in
               the CERT r6.2 layout with injected malformed rows, and
               detect reads that directory.

Every stage of every round is one operation.  Rounds repeat the same
operations on the same inputs until the measured time is used up, so
their outputs must be byte-identical; the checks run on the last round.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from inputs import CertInput, write_cert
from stages import REFERENCE_S, ROOT, StageFailed, StageRun, run_stage

WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

N_SETUPS = 3
TAU_U, TAU_D = 0.4, 1.5  # the CLI defaults detect runs with


@dataclass(frozen=True)
class Scale:
    """Corpus and training size of every corpus the benchmark makes."""

    population: int
    insider_fraction: float
    t_len: int
    epochs: int
    batch_size: int


@dataclass(frozen=True)
class Workload:
    name: str
    detect_input: str  # "corpus", "log" or "cert"
    scale: Scale


# The acceptance gate's run (200 users, T=100, 50 epochs) takes about 150 s,
# longer than a whole benchmark run may.  This scale keeps its stage
# shares (generation and training over 80%) at about 9 s per pipeline.
# Half the users are insiders, so that auc ranks 16 insiders against 16
# benign users, not one or two against thirty.
SCALE = Scale(population=32, insider_fraction=0.5, t_len=20, epochs=30, batch_size=8)

# why each workload is there: BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("desk-pipeline", "corpus", SCALE),
    Workload("detect-log", "log", SCALE),
    Workload("detect-cert", "cert", SCALE),
)}


@dataclass
class Prepared:
    """One corpus, its checkpoint and the input detect reads."""

    seed: int
    corpus: Path
    run: Path
    detect_input: Path
    events: int  # input events detect ingests
    train_stdout: str
    cert: CertInput | None = None
    cert_twin: Path | None = None


@dataclass
class Run:
    workload: Workload
    seed: int
    work: Path
    trace_dir: Path | None = None  # set: every stage runs under the tracer
    stages: list[tuple[str, StageRun]] = field(default_factory=list)  # (phase, run)
    setup_s: list[float] = field(default_factory=list)  # at the reference speed
    rounds: list[list[StageRun]] = field(default_factory=list)
    prepared: list[Prepared] = field(default_factory=list)  # the inputs
    outs: list[Path] = field(default_factory=list)  # detect/eval output per input
    quality: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def stage(self, phase: str, stage: str, args: list[str], log_dir: Path) -> StageRun:
        spans = None
        if self.trace_dir is not None:
            spans = self.trace_dir / f"spans-{len(self.stages)}-{stage}.json"
        if phase == "round":
            self.attempted += 1
        try:
            result = run_stage(stage, args, log_dir, spans)
        except StageFailed:
            if phase == "round":
                self.failed += 1
            raise
        self.stages.append((phase, result))
        return result


def prepare(run: Run, phase: str, index: int) -> Prepared:
    """gen + train one corpus, then write the input detect reads.

    desk-pipeline has one corpus per seed; the detect workloads' three
    set-ups each make their own."""
    wl = run.workload
    seed = run.seed if wl.detect_input == "corpus" else run.seed * 1000 + index
    base = run.work / f"input{index}"
    corpus, train_dir, logs = base / "corpus", base / "run", base / "logs"
    gen = run.stage(phase, "gen", [
        "--population", str(wl.scale.population),
        "--insider-fraction", str(wl.scale.insider_fraction),
        "--t-len", str(wl.scale.t_len), "--seed", str(seed), "--out", str(corpus)], logs)
    train = run.stage(phase, "train", [
        "--corpus", str(corpus), "--epochs", str(wl.scale.epochs),
        "--batch-size", str(wl.scale.batch_size), "--seed", str(seed),
        "--out", str(train_dir)], logs)
    p = Prepared(seed=seed, corpus=corpus, run=train_dir, detect_input=corpus,
                 events=int(re.search(r"(\d+) events", gen.stdout).group(1)),
                 train_stdout=train.stdout)
    if wl.detect_input == "log":
        p.detect_input = corpus / "events.csv"
    elif wl.detect_input == "cert":
        p.detect_input, p.cert_twin = base / "cert", base / "cert_twin.csv"
        p.cert = write_cert(corpus / "events.csv", p.detect_input, p.cert_twin, seed)
        p.events = p.cert.records
    return p


def detect_eval(run: Run, phase: str, p: Prepared, out: Path) -> None:
    ckpt = str(p.run / "checkpoint.ckpt")
    run.stage(phase, "detect", [
        "--checkpoint", ckpt, "--input", str(p.detect_input), "--out", str(out / "detect")],
        out / "logs")
    run.stage(phase, "eval", [
        "--scores", str(out / "detect" / "scores.csv"), "--corpus", str(p.corpus),
        "--checkpoint", ckpt, "--epochs-log", str(p.run / "epochs.csv"),
        "--seed", str(p.seed), "--out", str(out / "report")], out / "logs")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup(run: Run) -> list[Prepared]:
    """N_SETUPS timed set-ups; detect workloads keep one input from each."""
    prepared = []
    for index in range(N_SETUPS):
        first, start = len(run.stages), time.perf_counter()
        if run.workload.detect_input == "corpus":
            run.stage("setup", "--help", [], run.work / "setup")
        else:
            prepared.append(prepare(run, "setup", index))
        references = [r.reference_s for _, r in run.stages[first:]]
        wall = time.perf_counter() - start - sum(references)
        run.setup_s.append(wall * REFERENCE_S / statistics.fmean(references))
    return prepared


def one_round(run: Run) -> None:
    """One round of the workload's operations."""
    if run.workload.detect_input == "corpus":
        run.prepared = [prepare(run, "round", 0)]
    run.outs = [run.work / f"round-input{index}" for index in range(len(run.prepared))]
    for p, out in zip(run.prepared, run.outs):
        detect_eval(run, "round", p, out)


def check_outputs(run: Run) -> dict:
    """All output checks; returns the quality pooled over the inputs."""
    wl = run.workload
    quality = []
    for index, (p, out) in enumerate(zip(run.prepared, run.outs)):
        scores, alerts = out / "detect" / "scores.csv", out / "detect" / "alerts.jsonl"
        corpus = checks.read_corpus(p.corpus)
        checks.check_window_counts(p.corpus, corpus)
        checks.check_training(p.run, p.train_stdout, wl.scale.epochs)
        checks.check_scores(scores, alerts, TAU_U, TAU_D)
        quality.append(checks.check_eval(out / "report", scores, corpus))
        if wl.detect_input == "corpus":
            checks.check_score_rows(scores, corpus)
            continue
        ref = run.work / f"reference{index}"
        ref_input = p.corpus if wl.detect_input == "log" else p.cert_twin
        run_stage("detect", ["--checkpoint", str(p.run / "checkpoint.ckpt"),
                             "--input", str(ref_input), "--out", str(ref)], ref / "logs")
        check = "log-matches-corpus" if wl.detect_input == "log" else "cert-matches-raw-csv"
        checks.check_identical(scores, ref / "scores.csv", check)
        checks.check_identical(alerts, ref / "alerts.jsonl", check)
        if wl.detect_input == "cert":
            detect_err = (out / "logs" / "detect.err").read_text()
            checks.check_cert_ingest(p.detect_input, detect_err, p.cert.malformed,
                                     p.cert.records)
    insiders = sum(q["insiders"] for q in quality)
    return {"auc": statistics.fmean(q["auc"] for q in quality),
            "recall": sum(q["recall"] * q["insiders"] for q in quality) / insiders}


def _scaled_s(runs: list[StageRun]) -> float:
    """Mean time of these stage runs at the reference speed: their summed
    wall time scaled by REFERENCE_S over the summed reference times taken
    next to them (see stages.py)."""
    return REFERENCE_S * sum(r.wall_s for r in runs) / sum(r.reference_s for r in runs)


def _runs(run: Run, stage: str) -> list[StageRun]:
    return [r for _, r in run.stages if r.stage == stage]


def end_to_end(run: Run) -> dict:
    stage_s = {s: _scaled_s(_runs(run, s)) for s in ("gen", "train", "detect", "eval")}
    # every round runs detect once on each input, and only rounds run detect
    events = statistics.fmean(p.events for p in run.prepared)
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "pipeline_s": (sum(stage_s.values()), "s"),
        "gen_s": (stage_s["gen"], "s"),
        "train_s": (stage_s["train"], "s"),
        "detect_s": (stage_s["detect"], "s"),
        "eval_s": (stage_s["eval"], "s"),
        "events_per_s": (events / stage_s["detect"], "1/s"),
        "peak_rss_mb": (max(r.peak_rss_mb for _, r in run.stages), "MB"),
        "auc": (run.quality["auc"], "ratio"),
    }


def new_run(workload: Workload, seed: int) -> Run:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return Run(workload=workload, seed=seed, work=work)


def measure(run: Run, seconds: float) -> dict:
    """Set up, run rounds for `seconds`, check; returns the end-to-end metrics."""
    run.prepared = setup(run)

    digests = []
    start = time.perf_counter()
    while not run.rounds or time.perf_counter() - start < seconds:
        before = len(run.stages)
        one_round(run)
        run.rounds.append([r for _, r in run.stages[before:]])
        digests.append([_digest(o / "detect" / "scores.csv") for o in run.outs]
                       + [_digest(o / "report" / "metrics.json") for o in run.outs])
    if any(d != digests[0] for d in digests):
        raise checks.CheckFailed("rounds-identical", run.outs[0] / "detect" / "scores.csv",
                                 "outputs differ between rounds on the same inputs")
    run.quality = check_outputs(run)
    return end_to_end(run)


def trace(run: Run, metrics: dict) -> tuple[dict, dict]:
    """One more set-up and round on the first input, every stage under the
    tracer; returns per-layer metrics and the span tree.  The untraced
    figures come from the measured run."""
    import tracer

    traced = Run(workload=run.workload, seed=run.seed, work=run.work / "trace")
    traced.trace_dir = traced.work / "spans"
    traced.trace_dir.mkdir(parents=True)
    p = prepare(traced, "trace", 0)
    detect_eval(traced, "trace", p, traced.work / "out")
    layers, tree = tracer.layer_metrics(sorted(traced.trace_dir.glob("spans-*.json")))
    for stage in ("gen", "train", "detect", "eval"):
        runs = _runs(run, stage)
        layers[f"cli.{stage}.wall_s"] = (statistics.fmean(r.wall_s for r in runs), "s")
        layers[f"cli.{stage}.peak_rss_mb"] = (max(r.peak_rss_mb for r in runs), "MB")
    layers["host.reference_s"] = (statistics.fmean(r.reference_s for _, r in run.stages), "s")
    layers["evaluation.recall"] = (run.quality["recall"], "ratio")
    traced_s = sum(r.scaled_s for _, r in traced.stages)
    layers["trace.pipeline_s"] = (traced_s, "s")
    layers["trace.overhead_s"] = (traced_s - metrics["pipeline_s"][0], "s")
    return layers, tree
