"""Run one evsentinel CLI stage with spans recorded around layer calls.

    python3 perfbench/tracer.py <spans.json> <stage> [stage arguments...]

The tracer wraps module attributes of the program from outside, before
`evsentinel.cli.main` runs: every name bound to a traced function in any
evsentinel module is rebound to a wrapper, so calls through `from . import`
copies are seen too.  A wrapper records a span (name, parent, start, end)
and the counts its layer exposes at that boundary.  SeededRng.raw is
called millions of times per corpus, so it is counted, not spanned: its
calls, draws and time are summed per enclosing span and subtracted from
that span's self time like a child's.  Spans stay in memory and are
written as JSON when the stage ends.

`layer_metrics` folds the span files of a run into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name)
TRACED = [
    ("evsentinel.data", "generate", "data.generate"),
    ("evsentinel.data", "extract_features", "data.extract_features"),
    ("evsentinel.data", "save_corpus", "data.save_corpus"),
    ("evsentinel.data", "load_corpus", "data.load_corpus"),
    ("evsentinel.data", "load_raw_log", "data.load_raw_log"),
    ("evsentinel.data", "window_series", "data.window_series"),
    ("evsentinel.data", "ingest_cert", "data.ingest_cert"),
    ("evsentinel.arrayio", "read_blob", "arrayio.read_blob"),
    ("evsentinel.arrayio", "write_blob", "arrayio.write_blob"),
    ("evsentinel.model", "taped_encode", "model.taped_encode"),
    ("evsentinel.model", "encode_batch", "model.encode_batch"),
    ("evsentinel.model", "head", "model.head"),
    ("evsentinel.numerics.autodiff", "backward", "autodiff.backward"),
    ("evsentinel.numerics.optim", "adam_step", "optim.adam_step"),
    ("evsentinel.evidential", "taped_evidential_loss", "evidential.loss"),
    ("evsentinel.training", "train", "training.train"),
    ("evsentinel.training", "init_clusters", "training.init_clusters"),
    ("evsentinel.training", "refresh_pseudo_labels", "training.refresh"),
    ("evsentinel.detector", "detect_stream", "detector.detect_stream"),
    ("evsentinel.detector", "observe", "detector.observe"),
    ("evsentinel.detector", "write_scores_csv", "detector.write_scores_csv"),
    ("evsentinel.detector", "write_alerts_jsonl", "detector.write_alerts_jsonl"),
    ("evsentinel.evaluation", "evaluate_run", "evaluation.evaluate_run"),
    ("evsentinel.evaluation", "export_report", "evaluation.export_report"),
]


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _counts_at_return(name: str, counts: dict, args: tuple, kwargs: dict, result) -> None:
    """Counts taken where the work happens, from a call's arguments and result."""
    if name == "data.generate":
        counts["events_generated"] += len(result.records)
    elif name == "data.save_corpus":
        directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
        counts["corpus_bytes_written"] += sum(
            _file_size(directory / f) for f in ("sequences.bin", "labels.csv", "events.csv"))
    elif name == "data.load_raw_log":
        counts["records_parsed"] += len(result)
    elif name == "data.ingest_cert":
        records, malformed = result
        counts["records_parsed"] += len(records)
        counts["cert_rows"] += len(records) + malformed
        counts["cert_malformed"] += malformed
    elif name == "arrayio.read_blob":
        counts["blob_bytes_read"] += _file_size(args[0] if args else kwargs["path"])
    elif name == "arrayio.write_blob":
        counts["blob_bytes_written"] += _file_size(args[0] if args else kwargs["path"])
    elif name == "autodiff.backward":
        counts["tape_records"] += len(args[0])
    elif name == "training.train":
        counts["epochs"] += args[0].epochs
    elif name == "detector.detect_stream":
        counts["windows"] += len(result.window_scores)
        counts["alerts"] += len(result.alerts)
        source = args[1] if len(args) > 1 else kwargs["source"]
        if isinstance(source, list):
            counts["records_used"] += len(source)


class Recorder:
    def __init__(self):
        self.spans: list = []  # [name, parent, start, end]
        self.stack = [-1]
        self.counts: dict = defaultdict(int)
        self.leaf: dict = defaultdict(lambda: [0, 0, 0.0])  # parent -> calls, draws, seconds

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            record = [name, self.stack[-1], time.perf_counter(), None]
            self.spans.append(record)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            _counts_at_return(name, self.counts, args, kwargs, result)
            return result
        return traced

    def rng_raw(self, fn):
        def counted(rng, n):
            start = time.perf_counter()
            out = fn(rng, n)
            cell = self.leaf[self.stack[-1]]
            cell[0] += 1
            cell[1] += n
            cell[2] += time.perf_counter() - start
            return out
        return counted

    def dump(self, path: Path, stage: str) -> None:
        path.write_text(json.dumps({
            "stage": stage, "spans": self.spans, "counts": dict(self.counts),
            "rng": [[parent, *cell] for parent, cell in self.leaf.items()],
        }))


def install(recorder: Recorder) -> None:
    import importlib

    import evsentinel.cli  # noqa: F401  (loads every module the CLI uses)
    from evsentinel.numerics.rng import SeededRng

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "evsentinel" or n.startswith("evsentinel.")]
    for module_name, attr, span_name in TRACED:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = recorder.span(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    SeededRng.raw = recorder.rng_raw(SeededRng.raw)


def main(argv: list[str]) -> int:
    spans_path, stage_args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    recorder = Recorder()
    install(recorder)
    from evsentinel.cli import main as cli_main

    root = recorder.span(f"cli.{stage_args[0]}", cli_main)
    try:
        return root(stage_args)
    finally:
        recorder.dump(spans_path, stage_args[0])


# -- folding span files into per-layer metrics ---------------------------------


def _self_times(spans: list, rng_by_parent: dict) -> list[float]:
    own = [end - start for _, _, start, end in spans]
    for name, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    for parent, seconds in rng_by_parent.items():
        if parent >= 0:
            own[parent] -= seconds
    return own


def layer_metrics(span_files: list[Path]) -> tuple[dict, dict]:
    """Per-layer metrics over the given stages, and the aggregated span tree.

    The tree maps a call path ("cli.train/training.train/...") to
    [calls, total seconds, self seconds].
    """
    total = defaultdict(float)
    count = defaultdict(int)
    counts = defaultdict(int)
    rng = [0, 0, 0.0]
    tree: dict = defaultdict(lambda: [0, 0.0, 0.0])
    extra = defaultdict(float)
    for path in span_files:
        doc = json.loads(path.read_text())
        spans = doc["spans"]
        for key, value in doc["counts"].items():
            counts[key] += value
        rng_by_parent = {}
        for parent, calls, draws, seconds in doc["rng"]:
            rng[0] += calls
            rng[1] += draws
            rng[2] += seconds
            rng_by_parent[int(parent)] = seconds
        own = _self_times(spans, rng_by_parent)
        paths = []
        for idx, (name, parent, start, end) in enumerate(spans):
            paths.append(name if parent < 0 else f"{paths[parent]}/{name}")
            node = tree[paths[idx]]
            node[0] += 1
            node[1] += end - start
            node[2] += own[idx]
            total[name] += end - start
            count[name] += 1
            if name == "detector.detect_stream":
                extra["detect_self_s"] += own[idx]
            if name == "training.init_clusters" and parent >= 0 \
                    and spans[parent][0] == "training.train":
                extra["train_init_clusters_s"] += end - start
                # the epoch loop starts once the clusters are seeded
                train_end = spans[parent][3]
                extra["epoch_s_sum"] += (train_end - end) / doc["counts"]["epochs"]
                extra["train_runs"] += 1
    batches = count["autodiff.backward"]
    metrics = {
        "rng.raw_calls": (rng[0], "count"),
        "rng.draws": (rng[1], "count"),
        "rng.raw_s": (rng[2], "s"),
        "data.generate_s": (total["data.generate"], "s"),
        "data.events_generated": (counts["events_generated"], "count"),
        "data.extract_features_s": (total["data.extract_features"], "s"),
        "data.save_corpus_s": (total["data.save_corpus"], "s"),
        "data.bytes_written": (counts["corpus_bytes_written"], "bytes"),
        "data.load_corpus_calls": (count["data.load_corpus"], "count"),
        "data.load_corpus_s": (total["data.load_corpus"], "s"),
        "data.load_raw_log_s": (total["data.load_raw_log"], "s"),
        "data.records_parsed": (counts["records_parsed"], "count"),
        "data.records_used": (counts["records_used"], "count"),
        "data.window_series_s": (total["data.window_series"], "s"),
        "data.ingest_cert_s": (total["data.ingest_cert"], "s"),
        "data.cert_rows": (counts["cert_rows"], "count"),
        "data.cert_malformed": (counts["cert_malformed"], "count"),
        "arrayio.read_blob_s": (total["arrayio.read_blob"], "s"),
        "arrayio.read_blob_bytes": (counts["blob_bytes_read"], "bytes"),
        "arrayio.write_blob_s": (total["arrayio.write_blob"], "s"),
        "arrayio.write_blob_bytes": (counts["blob_bytes_written"], "bytes"),
        "model.taped_encode_s": (total["model.taped_encode"], "s"),
        "model.encode_batch_s": (total["model.encode_batch"], "s"),
        "model.head_s": (total["model.head"], "s"),
        "model.head_calls": (count["model.head"], "count"),
        "autodiff.backward_s": (total["autodiff.backward"], "s"),
        "autodiff.tape_records_per_batch": (
            counts["tape_records"] / batches if batches else 0.0, "count"),
        "optim.adam_step_s": (total["optim.adam_step"], "s"),
        "evidential.loss_s": (total["evidential.loss"], "s"),
        "training.train_s": (total["training.train"], "s"),
        "training.epoch_s": (
            extra["epoch_s_sum"] / extra["train_runs"] if extra["train_runs"] else 0.0, "s"),
        "training.batches": (batches, "count"),
        "training.init_clusters_s": (extra["train_init_clusters_s"], "s"),
        "training.refresh_s": (total["training.refresh"], "s"),
        "detector.detect_stream_s": (total["detector.detect_stream"], "s"),
        "detector.windows": (counts["windows"], "count"),
        "detector.alerts": (counts["alerts"], "count"),
        "detector.observe_s": (total["detector.observe"], "s"),
        "detector.self_s": (extra["detect_self_s"], "s"),
        "detector.write_s": (total["detector.write_scores_csv"]
                             + total["detector.write_alerts_jsonl"], "s"),
        "evaluation.evaluate_run_s": (total["evaluation.evaluate_run"], "s"),
        "evaluation.export_report_s": (total["evaluation.export_report"], "s"),
    }
    return metrics, dict(tree)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
