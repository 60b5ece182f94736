"""What the benchmark in perfbench/ takes from the program.

perfbench/tracer.py rebinds the functions its TRACED list names and takes
len() of what the event readers return; perfbench/checks.py takes len()
of ingest_cert's events.  These tests load those files without running
them: tracer.install is never called here, since it would rebind the
program's functions for the rest of the test run.  The tracer itself
runs only in a child process.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from evsentinel.data import generate, ingest_cert, load_raw_log, save_corpus
from evsentinel.numerics import SeededRng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def child_env() -> dict:
    """The environment of a child process that runs the program under test
    with one BLAS thread."""
    import evsentinel

    return {"PYTHONPATH": str(Path(evsentinel.__file__).parents[1]), "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_every_traced_name_resolves():
    traced = load_perfbench("tracer").TRACED
    assert traced
    for module_name, attr, _ in traced:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_event_sources_report_their_event_count(tmp_path):
    corpus = generate(6, 0.5, SeededRng(5), t_len=4)
    save_corpus(corpus, tmp_path / "corpus")
    events_csv = tmp_path / "corpus" / "events.csv"
    n_events = len(events_csv.read_text().splitlines()) - 1
    assert n_events > 0
    assert len(corpus.records) == n_events
    assert len(load_raw_log(events_csv)) == n_events

    cert = load_perfbench("inputs").write_cert(events_csv, tmp_path / "cert",
                                               tmp_path / "twin.csv", seed=5)
    events, malformed = ingest_cert(tmp_path / "cert")
    assert malformed == cert.malformed > 0
    assert len(events) == cert.records == len(load_raw_log(tmp_path / "twin.csv"))


def test_tracer_counts_the_rows_detect_writes(tmp_path):
    from collections import defaultdict

    from evsentinel.data import FeatureScaler
    from evsentinel.detector import (DetectorConfig, detect_stream, write_alerts_jsonl,
                                     write_scores_csv)
    from tests.test_detector import make_checkpoint

    corpus = generate(6, 0.5, SeededRng(5), t_len=4)
    ckpt = make_checkpoint(t_len=4, window_duration=corpus.window_duration)
    ckpt.scaler = FeatureScaler.fit(corpus.sequences)
    config = DetectorConfig(tau_u=0.3)
    result = detect_stream(ckpt, corpus, config)
    write_scores_csv(result, tmp_path / "scores.csv")
    write_alerts_jsonl(result, tmp_path / "alerts.jsonl")

    counts = defaultdict(int)
    load_perfbench("tracer")._counts_at_return("detector.detect_stream", counts,
                                                (ckpt, corpus, config), {}, result)
    rows = (tmp_path / "scores.csv").read_text().splitlines()[1:]
    alerts = (tmp_path / "alerts.jsonl").read_text().splitlines()
    assert counts["windows"] == len(result.window_scores) == len(rows) > 0
    assert counts["alerts"] == len(result.alerts) == len(alerts) > 0


def test_checks_read_what_gen_and_train_write(tmp_path, capsys):
    """perfbench/checks.py reads a corpus and a checkpoint through the
    program's own readers; a layout either cannot read fails here."""
    from evsentinel.cli import main

    corpus, train = tmp_path / "corpus", tmp_path / "train"
    assert main(["gen", "--population", "12", "--insider-fraction", "0.25", "--t-len", "6",
                 "--window-duration", "3600", "--seed", "3", "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus), "--epochs", "3", "--batch-size", "4",
                 "--hidden", "4", "--n-clusters", "2", "--warmup-epochs", "1",
                 "--seed", "3", "--out", str(train)]) == 0
    train_stdout = capsys.readouterr().out

    checks = load_perfbench("checks")
    read = checks.read_corpus(corpus)
    assert read["features"].shape == (12, 6, 12)
    assert set(read["labels"]) == set(read["users"])
    checks.check_training(train, train_stdout, 3)


def test_tracer_sees_the_layers_of_a_traced_gen_and_train(tmp_path):
    """perfbench/tracer.py rebinds functions in the evsentinel modules that
    are loaded once `evsentinel.cli` is imported; a layer loaded later
    would run unseen, and its spans would vanish from the benchmark."""
    import json
    import subprocess

    corpus = tmp_path / "corpus"
    stages = {
        "gen": ["--population", "8", "--insider-fraction", "0.25", "--t-len", "4",
                "--window-duration", "3600", "--seed", "3", "--out", str(corpus)],
        "train": ["--corpus", str(corpus), "--epochs", "2", "--batch-size", "4",
                  "--hidden", "4", "--n-clusters", "2", "--warmup-epochs", "1",
                  "--seed", "3", "--out", str(tmp_path / "train")],
    }
    names, counts = set(), {}
    for stage, args in stages.items():
        spans = tmp_path / f"{stage}.json"
        subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans), stage, *args],
                       env=child_env(), check=True, capture_output=True, timeout=300)
        doc = json.loads(spans.read_text())
        names.update(name for name, *_ in doc["spans"])
        counts.update(doc["counts"])
    assert {"data.generate", "training.train", "model.taped_encode", "evidential.loss",
            "autodiff.backward", "optim.adam_step"} <= names
    assert counts["tape_records"] > 0
