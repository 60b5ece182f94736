import hashlib
import json
import math
import random
import re
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evsentinel import data as data_mod
from evsentinel.arrayio import read_blob, write_blob
from evsentinel.cli import (DEFAULTS, EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_NUMERIC,
                            _load_detect_source, build_parser, main)
from evsentinel.data import generate, save_corpus
from evsentinel.detector import SCORE_COLUMNS
from evsentinel.numerics import SeededRng


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small end-to-end run shared by the read-only CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus"
    train = base / "train"
    detect = base / "detect"
    report = base / "report"
    common = ["--seed", "7"]
    assert main(["gen", "--population", "40", "--insider-fraction", "0.1",
                 "--t-len", "16", "--window-duration", "3600",
                 "--out", str(corpus)] + common) == 0
    assert main(["train", "--corpus", str(corpus), "--epochs", "4",
                 "--batch-size", "20", "--hidden", "8", "--n-clusters", "3",
                 "--warmup-epochs", "1", "--out", str(train)] + common) == 0
    assert main(["detect", "--checkpoint", str(train / "checkpoint.ckpt"),
                 "--input", str(corpus), "--out", str(detect)] + common) == 0
    assert main(["eval", "--scores", str(detect / "scores.csv"),
                 "--corpus", str(corpus),
                 "--checkpoint", str(train / "checkpoint.ckpt"),
                 "--epochs-log", str(train / "epochs.csv"),
                 "--out", str(report)] + common) == 0
    return {"base": base, "corpus": corpus, "train": train,
            "detect": detect, "report": report}


def test_gen_insider_floor_rule(tmp_path):
    out = tmp_path / "c"
    assert main(["gen", "--population", "100", "--insider-fraction", "0.05",
                 "--t-len", "8", "--window-duration", "3600", "--seed", "3",
                 "--out", str(out)]) == 0
    labels = (out / "labels.csv").read_text().strip().splitlines()[1:]
    insiders = [line for line in labels if ",benign," not in line + ","
                and not line.endswith(",benign,,")]
    insiders = [line for line in labels if line.split(",")[1] != "benign"]
    assert len(insiders) == 5


def test_gen_rerun_identical_digest(tmp_path):
    args = ["gen", "--population", "12", "--insider-fraction", "0.25",
            "--t-len", "8", "--window-duration", "3600", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "sequences.bin").read_bytes() == \
           (tmp_path / "b" / "sequences.bin").read_bytes()


def test_gen_invalid_fraction_exit_code(tmp_path, capsys):
    rc = main(["gen", "--population", "10", "--insider-fraction", "1.5",
               "--seed", "1", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    assert "insider_fraction" in capsys.readouterr().err


def test_defaults_match_reference_table():
    assert DEFAULTS["learning_rate"] == 0.001
    assert DEFAULTS["batch_size"] == 128
    assert DEFAULTS["epochs"] == 200
    assert DEFAULTS["n_clusters"] == 5
    assert DEFAULTS["t_len"] == 100
    assert DEFAULTS["dropout_p"] == 0.3
    assert DEFAULTS["hidden"] == 64
    assert DEFAULTS["tau_u"] == 0.4
    assert DEFAULTS["tau_d"] == 1.5
    assert DEFAULTS["beta"] == 0.7


@pytest.mark.parametrize("flag,value", [
    ("--learning-rate", "nan"), ("--learning-rate", "inf"),
    ("--lambda-max", "nan"), ("--lambda-max", "inf"),
], ids=["learning-rate-nan", "learning-rate-inf", "lambda-max-nan", "lambda-max-inf"])
def test_train_non_finite_rate_is_config_error(small_run, tmp_path, capsys, flag, value):
    """Checked with the rest of the config, not found as a non-finite
    loss once training has started."""
    rc = main(["train", "--corpus", str(small_run["corpus"]), flag, value, "--seed", "7",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{flag[2:].replace('-', '_')} must be" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_missing_corpus_distinct_exit(tmp_path):
    rc = main(["train", "--corpus", str(tmp_path / "nope"), "--epochs", "1",
               "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO


def test_config_file_and_flag_precedence(tmp_path, small_run):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": 5, "t_len": 6, "window_duration": 3600.0}))
    out = tmp_path / "from_file"
    assert main(["gen", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["population"] == 5
    out2 = tmp_path / "flag_wins"
    assert main(["gen", "--config", str(cfg), "--population", "7", "--seed", "2",
                 "--out", str(out2)]) == 0
    echoed2 = json.loads((out2 / "config.json").read_text())
    assert echoed2["population"] == 7
    assert "config_digest" in echoed2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_knob": 1}))
    rc = main(["gen", "--config", str(cfg), "--seed", "1",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("removed", [{"input_dim": 7}, {"order_policy": "reorder"},
                                     {"drift_reference": "previous"},
                                     {"baseline_quantile": 0.9}])
def test_removed_config_key_is_config_error(tmp_path, capsys, removed):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps(removed))
    rc = main(["gen", "--config", str(cfg), "--population", "2", "--t-len", "4",
               "--window-duration", "3600", "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert next(iter(removed)) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", '[["epochs", 3]]', '"abc"'],
                         ids=["number", "null", "pairs", "string"])
def test_config_file_not_an_object_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(["gen", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}: config file is not an object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("blob", [b'{"epochs": 3', b'\xff\xfe{"epochs": 3}',
                                  b"[" * 200_000 + b"]" * 200_000],
                         ids=["truncated", "not-utf-8", "nested-200k-deep"])
def test_config_file_not_readable_json_is_config_error(tmp_path, capsys, blob):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(blob)
    rc = main(["gen", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config file {cfg} is not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value,setting", [
    ("--t-len", "-5", "t_len"), ("--t-len", "0", "t_len"),
    ("--window-duration", "nan", "window_duration"),
    ("--window-duration", "inf", "window_duration"),
    ("--window-duration", "0", "window_duration"),
], ids=["t-len-negative", "t-len-zero", "window-nan", "window-inf", "window-zero"])
def test_gen_out_of_range_is_config_error(tmp_path, capsys, flag, value, setting):
    rc = main(["gen", "--population", "2", flag, value, "--seed", "1",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert setting in err and "Traceback" not in err


@pytest.mark.parametrize("flags,settings", [
    (["--intensity-scale", "nan"], ["intensity_scale"]),
    (["--intensity-scale", "inf"], ["intensity_scale"]),
    (["--intensity-scale", "-1"], ["intensity_scale"]),
    # spans that fail before anything is allocated
    (["--window-duration", "1e308", "--t-len", "3"], ["t_len", "window_duration"]),
    (["--window-duration", "1e300", "--t-len", "3"], ["t_len", "window_duration"]),
    (["--t-len", str(10**400)], ["t_len", "window_duration"]),  # beyond a float
    # one hour of events, whose windows are beyond an int64 index
    (["--window-duration", "1e-300", "--t-len", "100"], ["t_len", "window_duration"]),
    (["--window-duration", "1e-20", "--t-len", "3"], ["t_len", "window_duration"]),
    # one hour of events, more windows than a feature array can hold
    (["--window-duration", "1e-15", "--t-len", "3"], ["t_len", "window_duration"]),
], ids=["intensity-nan", "intensity-inf", "intensity-negative", "span-1e308", "span-1e300",
        "span-t-len-1e400", "windows-1e-300", "windows-1e-20", "windows-1e-15"])
@pytest.mark.parametrize("insider_fraction", ["0", "0.5"], ids=["no-insiders", "insiders"])
def test_gen_unusable_setting_is_config_error(tmp_path, capsys, flags, settings,
                                              insider_fraction):
    rc = main(["gen", "--population", "2", "--insider-fraction", insider_fraction, *flags,
               "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(setting in err for setting in settings) and "Traceback" not in err


def test_detect_tau_u_zero_alerts_everywhere(small_run, tmp_path):
    out = tmp_path / "all_alerts"
    assert main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
                 "--input", str(small_run["corpus"]), "--tau-u", "0.0",
                 "--seed", "7", "--out", str(out)]) == 0
    rows = (out / "scores.csv").read_text().strip().splitlines()[1:]
    assert rows
    assert all(row.split(",")[5] == "1" for row in rows)


def test_detect_rerun_identical_scores(small_run, tmp_path):
    out = tmp_path / "again"
    assert main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
                 "--input", str(small_run["corpus"]), "--seed", "7",
                 "--out", str(out)]) == 0
    assert (out / "scores.csv").read_bytes() == \
           (small_run["detect"] / "scores.csv").read_bytes()


def test_detect_mismatched_checkpoint_is_config_error(small_run, tmp_path):
    mism = tmp_path / "mism"
    assert main(["gen", "--population", "6", "--insider-fraction", "0.0",
                 "--t-len", "9", "--window-duration", "3600", "--seed", "4",
                 "--out", str(mism)]) == 0
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(mism), "--seed", "4", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_detect_window_duration_mismatch_is_config_error(small_run, tmp_path, capsys):
    daily = tmp_path / "daily"  # small_run's checkpoint has 3600 s windows
    assert main(["gen", "--population", "6", "--insider-fraction", "0.0",
                 "--t-len", "16", "--window-duration", "86400", "--seed", "4",
                 "--out", str(daily)]) == 0
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(daily), "--seed", "4", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "window_duration 86400 s != checkpoint window_duration 3600 s" in err
    assert not (tmp_path / "o").exists()


def test_eval_outputs_parse_and_recompute(small_run):
    report = small_run["report"]
    for name in ("metrics.json", "roc.csv", "scores.csv", "projection.csv",
                 "epochs.csv", "config.json"):
        assert (report / name).exists()
    metrics = json.loads((report / "metrics.json").read_text())
    lines = (report / "roc.csv").read_text().strip().splitlines()[1:]
    pts = [(float(a), float(b)) for a, b, _ in (line.split(",") for line in lines)]
    auc = sum((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
    assert metrics["auc"] == pytest.approx(auc, abs=1e-12)
    projection = (report / "projection.csv").read_text().strip().splitlines()
    assert projection[0] == "user,x,y"
    assert len(projection) == 41  # one row per corpus user


def test_eval_missing_users_is_data_error(small_run, tmp_path):
    crippled = tmp_path / "short.csv"
    lines = (small_run["detect"] / "scores.csv").read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    first_user = rows[0].split(",")[0]
    kept = [r for r in rows if not r.startswith(first_user + ",")]
    crippled.write_text("\n".join([header] + kept) + "\n")
    rc = main(["eval", "--scores", str(crippled), "--corpus", str(small_run["corpus"]),
               "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("events", ["malformed-row", "absent"])
def test_corpus_stages_do_not_read_events_csv(small_run, tmp_path, events):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_run["corpus"], corpus)
    if events == "absent":
        (corpus / "events.csv").unlink()
    else:
        with open(corpus / "events.csv", "a") as fh:
            fh.write("u0000,notanumber,logon,\n")
    ckpt, common = str(small_run["train"] / "checkpoint.ckpt"), ["--seed", "7"]
    assert main(["train", "--corpus", str(corpus), "--epochs", "1", "--batch-size", "20",
                 "--hidden", "8", "--n-clusters", "3", "--warmup-epochs", "0",
                 "--out", str(tmp_path / "train")] + common) == 0
    assert main(["eval", "--scores", str(small_run["detect"] / "scores.csv"),
                 "--corpus", str(corpus), "--checkpoint", ckpt,
                 "--out", str(tmp_path / "report")] + common) == 0


@pytest.mark.parametrize("text,line", [
    ("user,timestamp,kind,attributes\nu0000,3600.0,logon,\nu0000,notanumber,logon,\n", 3),
    ("user,kind,attributes\nu0000,logon,\n", 1),
    ("user,timestamp,kind,attributes\nu0000,3600.0,email,bytes=lots;external=1\n", 2),
    ("user,timestamp,kind,attributes\nu0000,3600.0,email,bytes=-5\n", 2),
    ("user,timestamp,kind,attributes\nu0000,3600.0,email,\nu0000,7200.0,http,bytes=inf\n", 3),
    ("user,timestamp,kind,attributes\nu0000,3600.0,email,bytes=nan\n", 2),
], ids=["non-numeric-timestamp", "no-timestamp-column", "non-numeric-bytes", "negative-bytes",
        "infinite-bytes", "nan-bytes"])
def test_malformed_raw_log_is_data_error(small_run, tmp_path, capsys, text, line):
    log = tmp_path / "events.csv"
    log.write_text(text)
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(log), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{log}, line {line}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["user,timestamp,kind,attributes\n",
                                  "user,timestamp,kind,attributes\n\n\n"],
                         ids=["header-only", "blank-lines"])
def test_raw_log_without_events_is_data_error(small_run, tmp_path, capsys, text):
    log = tmp_path / "events.csv"
    log.write_text(text)
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(log), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{log}: no event rows" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_out_of_order_raw_log_is_data_error(small_run, tmp_path, capsys):
    log = tmp_path / "events.csv"
    log.write_text("user,timestamp,kind,attributes\n"
                   "u0000,7200.0,logon,\nu0001,3600.0,logon,\nu0000,3600.0,logoff,\n")
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(log), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "out-of-order record for user 'u0000'" in err
    assert "Traceback" not in err


def test_window_index_beyond_int64_is_data_error(small_run, tmp_path, capsys):
    log = tmp_path / "events.csv"
    log.write_text("user,timestamp,kind,attributes\n"
                   "u0001,0.0,logon,\nu0000,0.0,logon,\nu0000,1e300,logoff,\n")
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(log), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "user 'u0000'" in err and "beyond an int64 index" in err
    assert "Traceback" not in err


def test_events_too_far_apart_are_data_error(small_run, tmp_path, capsys):
    log = tmp_path / "events.csv"  # window index 2.8e17: an int64, but no array that long
    log.write_text("user,timestamp,kind,attributes\nu0000,0.0,logon,\nu0000,1e21,logoff,\n")
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(log), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"user 'u0000': its events span {int(1e21 // 3600) + 1} windows" in err
    assert "Traceback" not in err


# a last line csv cannot read: bytes that are not UTF-8, or a field over csv's size limit
UNREADABLE_LINES = {"not-utf-8": (b"u0000,\xff\xfe,x\n", "not utf-8 text"),
                    "over-field-limit": (b'u0000,"' + b"x" * 140_000 + b'"\n',
                                         "field larger than field limit"),
                    "bad-row-then-over-field-limit": (b'u0000,x,x\nu0000,"' + b"x" * 140_000
                                                      + b'"\n', "field larger than field limit"),
                    "bad-row-then-not-utf-8": (b"u0000,x,x\nu0000,\xff\xfe,x\n",
                                               "not utf-8 text")}
# the message of the bad row read ahead of it, reported in place of csv's
# error, in the same chunk; a CERT file skips the row as malformed
BAD_ROW_MESSAGES = {"raw-log": "could not convert string to float: 'x'",
                    "labels": "a second row for user 'u0000'",
                    "scores": "alert None is not 0 or 1"}


@pytest.mark.parametrize("flaw", UNREADABLE_LINES)
@pytest.mark.parametrize("reader", ["raw-log", "cert-logon", "labels", "scores"])
def test_unreadable_csv_is_data_error(small_run, tmp_path, capsys, reader, flaw):
    tail, message = UNREADABLE_LINES[flaw]
    ckpt = str(small_run["train"] / "checkpoint.ckpt")
    if reader == "raw-log":
        path = tmp_path / "events.csv"
        path.write_bytes(b"user,timestamp,kind,attributes\nu0000,3600.0,logon,\n" + tail)
        args = ["detect", "--input", str(path)]
    elif reader == "cert-logon":
        path = tmp_path / "cert" / "logon.csv"
        path.parent.mkdir()
        path.write_bytes(b"id,date,user,pc,activity\n"
                         b"a,01/02/2010 07:00:00,ACM2278,PC-1,Logon\n" + tail)
        args = ["detect", "--input", str(path.parent)]
    elif reader == "labels":
        shutil.copytree(small_run["corpus"], tmp_path / "corpus")
        path = tmp_path / "corpus" / "labels.csv"
        path.write_bytes(path.read_bytes() + tail)
        args = ["detect", "--input", str(path.parent)]
    else:
        path = tmp_path / "scores.csv"
        path.write_bytes((small_run["detect"] / "scores.csv").read_bytes() + tail)
        args = ["eval", "--scores", str(path), "--corpus", str(small_run["corpus"])]
    rc = main(args + ["--checkpoint", ckpt, "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    last_line = path.read_bytes().count(b"\n")
    if flaw.startswith("bad-row") and reader in BAD_ROW_MESSAGES:
        last_line, message = last_line - 1, BAD_ROW_MESSAGES[reader]
    assert f"{path}, line {last_line}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("part,key", [
    ("header", "window_duration"), ("header", "config"), ("arrays", "scaler.std"),
    ("arrays", "head.w"), ("config", "no_such_field"),
], ids=["no-window-duration", "no-config", "no-scaler-std", "no-head-w",
        "unknown-config-key"])
def test_incomplete_checkpoint_is_data_error(small_run, tmp_path, capsys, part, key):
    header, arrays, _ = read_blob(small_run["train"] / "checkpoint.ckpt")
    if part == "config":
        header["config"][key] = 1
    else:
        del (header if part == "header" else arrays)[key]
    ckpt = tmp_path / "edited.ckpt"
    write_blob(ckpt, header, arrays)
    rc = main(["detect", "--checkpoint", str(ckpt), "--input", str(small_run["corpus"]),
               "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and key in err
    assert "Traceback" not in err


def test_non_integer_label_onset_is_data_error(small_run, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_run["corpus"], corpus)
    lines = (corpus / "labels.csv").read_text().splitlines()
    user, label, _, duration = lines[1].split(",")  # user,label,onset,duration
    lines[1] = f"{user},{label},x,{duration}"
    (corpus / "labels.csv").write_text("\n".join(lines) + "\n")
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(corpus), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{corpus / 'labels.csv'}, line 2:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rotate", [0, 1], ids=["no-label", "no-user"])
def test_short_labels_row_is_data_error(small_run, tmp_path, capsys, rotate):
    """A labels.csv row cut short of its label, or of its user, stops eval;
    it does not turn a benign user into an insider."""
    corpus = tmp_path / "corpus"
    shutil.copytree(small_run["corpus"], corpus)
    rows = [line.split(",") for line in (corpus / "labels.csv").read_text().splitlines()]
    rows = [row[rotate:] + row[:rotate] for row in rows]  # rotate 1: the user column last
    benign = next(i for i, row in enumerate(rows) if "benign" in row)
    rows[benign] = rows[benign][:1 + 2 * rotate]  # the user alone, or all but the user
    (corpus / "labels.csv").write_text("\n".join(map(",".join, rows)) + "\n")
    rc = main(["eval", "--scores", str(small_run["detect"] / "scores.csv"), "--corpus",
               str(corpus), "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--seed", "7", "--out", str(tmp_path / "report")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{corpus / 'labels.csv'}, line {benign + 1}: a row needs a user and a label" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("header,missing", [
    ("user,label,start,duration", "onset"), ("name,label,onset,duration", "user"),
    ("user,label", "onset, duration"),
], ids=["no-onset", "no-user", "no-onset-no-duration"])
def test_labels_missing_column_is_data_error(small_run, tmp_path, capsys, header, missing):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_run["corpus"], corpus)
    lines = (corpus / "labels.csv").read_text().splitlines()
    (corpus / "labels.csv").write_text("\n".join([header] + lines[1:]) + "\n")
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(corpus), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{corpus / 'labels.csv'}, line 1: missing column(s) {missing}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("appended,row,message", [
    (True, "{benign},data-theft,1,2", "a second row for user '{benign}'"),
    (True, "u9999,data-theft,1,2", "user 'u9999' is not in sequences.bin"),
    (False, "{benign},bogus,,", "label 'bogus' is not benign or a scenario"),
    (False, "{benign},data-theft,,",
     "a data-theft row needs an onset in [0, 16) and a duration >= 1, got None and None"),
    (False, "{benign},data-theft,16,2",
     "a data-theft row needs an onset in [0, 16) and a duration >= 1, got 16 and 2"),
    (False, "{benign},data-theft,-1,2",
     "a data-theft row needs an onset in [0, 16) and a duration >= 1, got -1 and 2"),
    (False, "{benign},data-theft,3,0",
     "a data-theft row needs an onset in [0, 16) and a duration >= 1, got 3 and 0"),
    (False, "{benign},benign,-7,", "a benign row gives no onset or duration"),
    (False, "{benign},benign,,4", "a benign row gives no onset or duration"),
], ids=["second-row", "unknown-user", "unknown-label", "scenario-no-onset",
        "onset-at-t_len", "onset-negative", "duration-zero", "benign-onset",
        "benign-duration"])
def test_contradicting_labels_row_is_data_error(small_run, tmp_path, capsys, appended, row,
                                                message):
    """A labels.csv row that relabels a user, names one sequences.bin lacks,
    gives a label that is not a scenario, or an onset and duration its
    label cannot have stops the run; it does not replace, drop or invent
    an insider silently, nor make one that can never be detected."""
    corpus = tmp_path / "corpus"
    shutil.copytree(small_run["corpus"], corpus)
    lines = (corpus / "labels.csv").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if ",benign," in line)
    benign = lines[at].split(",")[0]
    if appended:
        at = len(lines)
        lines.append("")
    lines[at] = row.format(benign=benign)
    (corpus / "labels.csv").write_text("\n".join(lines) + "\n")
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(corpus), "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{corpus / 'labels.csv'}, line {at + 1}: {message.format(benign=benign)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("part,key,value,message", [
    ("header", "users", None, "corpus has no 'users'"),
    ("header", "users", ["u0000"] * 40, "users must be distinct strings"),
    ("header", "t_len", "x", "t_len must be an int >= 1, got 'x'"),
    ("header", "window_duration", 0, "window_duration must be finite and > 0, got 0"),
    ("arrays", "features", np.zeros((4, 16, 12)), "array 'features' has shape (4, 16, 12)"),
    ("arrays", "features", None, "corpus has no 'features'"),
    ("arrays", "n_pad", np.full(40, 17.0), "n_pad must be integers in [0, 16]"),
    ("arrays", "n_pad", np.full(40, 0.5), "n_pad must be integers in [0, 16]"),
    ("arrays", "window_end", np.full(40, math.nan), "window_end must be finite"),
    ("header", "schema_version", 99, "corpus schema_version 99 is not 1"),
    ("header", "schema_version", None, "corpus schema_version None is not 1"),
    ("header", "schema_version", "1", "corpus schema_version '1' is not 1"),
    ("header", "schema_version", True, "corpus schema_version True is not 1"),
    ("header", "schema_version", 1.0, "corpus schema_version 1.0 is not 1"),
], ids=["no-users", "repeated-user", "t_len-text", "zero-window-duration", "short-features",
        "no-features", "n_pad-beyond-t_len", "n_pad-fraction", "window_end-nan",
        "schema_version-99", "no-schema_version", "schema_version-text",
        "schema_version-true", "schema_version-float"])
def test_malformed_corpus_file_is_data_error(small_run, tmp_path, capsys, part, key, value,
                                             message):
    """A digest-valid sequences.bin whose header or arrays do not describe
    a corpus stops train with a message, never a traceback or a run."""
    corpus = tmp_path / "corpus"
    shutil.copytree(small_run["corpus"], corpus)
    header, arrays, _ = read_blob(corpus / "sequences.bin")
    table = {"header": header, "arrays": arrays}[part]
    if value is None:
        del table[key]
    else:
        table[key] = value
    write_blob(corpus / "sequences.bin", header, arrays)
    rc = main(["train", "--corpus", str(corpus), "--epochs", "1", "--batch-size", "20",
               "--hidden", "4", "--n-clusters", "2", "--warmup-epochs", "1",
               "--seed", "7", "--out", str(tmp_path / "t")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{corpus / 'sequences.bin'}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config,message", [
    ({"hidden": "4"}, "config key 'hidden' must be a int, got '4'"),
    ({"n_layers": 2.0}, "config key 'n_layers' must be a int, got 2.0"),
    ({"learning_rate": None}, "config key 'learning_rate' must be a float, got None"),
    ({"hidden": 0}, "hidden must be at least 1"),
    ("oops", "checkpoint config is not an object"),
    ({"learning_rate": math.nan}, "learning_rate must be positive and finite"),
], ids=["string-int", "float-int", "null-float", "out-of-range", "not-an-object",
        "nan-float"])
def test_malformed_checkpoint_config_is_data_error(small_run, tmp_path, capsys, config,
                                                   message):
    header, arrays, _ = read_blob(small_run["train"] / "checkpoint.ckpt")
    header["config"] = {**header["config"], **config} if isinstance(config, dict) else config
    ckpt = tmp_path / "edited.ckpt"
    write_blob(ckpt, header, arrays)
    rc = main(["detect", "--checkpoint", str(ckpt), "--input", str(small_run["corpus"]),
               "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{ckpt}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name,shape", [
    ("enc.l0.w", (12, 8)), ("head.w", (8, 4)), ("head.b", (6,)), ("enc.l1.u", (3,)),
    ("scaler.mean", (11,)),
], ids=["enc.l0.w", "head.w", "head.b", "enc.l1.u", "scaler.mean"])
def test_checkpoint_array_of_wrong_shape_is_data_error(small_run, tmp_path, capsys, name,
                                                       shape):
    header, arrays, _ = read_blob(small_run["train"] / "checkpoint.ckpt")
    arrays[name] = np.zeros(shape)
    ckpt = tmp_path / "edited.ckpt"
    write_blob(ckpt, header, arrays)
    rc = main(["detect", "--checkpoint", str(ckpt), "--input", str(small_run["corpus"]),
               "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{ckpt}: array {name!r} has shape {shape}" in err
    assert "Traceback" not in err


def per_gate(arrays):
    """arrays with each GRU array split into the per-gate arrays of
    schema_version 1: enc.l{i}.w_r, enc.l{i}.w_z, enc.l{i}.w_c and so on."""
    out = {}
    for name, arr in arrays.items():
        k = arr.shape[-1] // 3
        out.update({f"{name}_{g}": arr[..., i * k:(i + 1) * k] for i, g in enumerate("rzc")}
                   if name.startswith("enc.") else {name: arr})
    return out


@pytest.mark.parametrize("version", [1, 3, "2", None, 2.0],
                         ids=["per-gate-v1", "v3", "string", "absent", "float"])
def test_checkpoint_of_another_schema_version_is_data_error(small_run, tmp_path, capsys,
                                                            version):
    header, arrays, _ = read_blob(small_run["train"] / "checkpoint.ckpt")
    assert header["schema_version"] == 2
    if version is None:
        del header["schema_version"]
    else:
        header["schema_version"] = version
    ckpt = tmp_path / "old.ckpt"
    write_blob(ckpt, header, per_gate(arrays) if version == 1 else arrays)
    rc = main(["detect", "--checkpoint", str(ckpt), "--input", str(small_run["corpus"]),
               "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{ckpt}: checkpoint schema_version {version!r} is not 2" in err
    assert "Traceback" not in err


def blob_body(header: bytes, count: int, rest: bytes = b"") -> bytes:
    """What follows an EVSN container's format version: header, array count, rest."""
    return struct.pack("<I", len(header)) + header + struct.pack("<I", count) + rest


@pytest.mark.parametrize("body,message", [
    (lambda real: blob_body(b"{}", 3), "unpack_from requires a buffer"),
    (lambda real: blob_body(b"[]", 0), "header is not a JSON object"),
    (lambda real: blob_body(b'{"a": "\xff"}', 0), "can't decode byte 0xff"),
    (lambda real: blob_body(b'{"schema": ', 0), "Expecting value"),
    (lambda real: blob_body(b"{}", 1, struct.pack("<I", 1) + b"a"
                            + struct.pack("<II", 1, 1000) + bytes(8)),
     "buffer is smaller than requested size"),
    (lambda real: real + bytes(8), "8 bytes after the last array"),
], ids=["count-past-payload", "header-not-an-object", "header-not-utf8",
        "header-not-json", "array-past-payload", "bytes-after-last-array"])
def test_malformed_container_with_a_valid_digest_is_data_error(small_run, tmp_path, capsys,
                                                                body, message):
    """Each container's SHA-256 is right; its contents are not an EVSN layout."""
    real = (small_run["train"] / "checkpoint.ckpt").read_bytes()[8:-32]
    payload = b"EVSN" + struct.pack("<I", 1) + body(real)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(payload + hashlib.sha256(payload).digest())
    rc = main(["detect", "--checkpoint", str(ckpt), "--input", str(small_run["corpus"]),
               "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{ckpt}: malformed EVSN container: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["x", math.nan, math.inf, 0, -3600.0, True],
                         ids=["string", "nan", "inf", "zero", "negative", "bool"])
def test_checkpoint_window_duration_not_finite_and_positive_is_data_error(
        small_run, tmp_path, capsys, value):
    header, arrays, _ = read_blob(small_run["train"] / "checkpoint.ckpt")
    header["window_duration"] = value
    ckpt = tmp_path / "edited.ckpt"
    write_blob(ckpt, header, arrays)
    rc = main(["detect", "--checkpoint", str(ckpt),
               "--input", str(small_run["corpus"] / "events.csv"),
               "--seed", "7", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{ckpt}: window_duration must be finite and > 0, got {value!r}" in err
    assert "Traceback" not in err


def user_last_one_short(lines):
    """scores.csv lines with the user column moved last, the first row cut
    short of its user and the second row's user renamed zzz."""
    rows = [line.split(",") for line in lines]  # no scores.csv field holds a comma
    rows = [row[1:] + row[:1] for row in rows]
    rows[1].pop()
    rows[2][-1] = "zzz"
    return [",".join(row) for row in rows]


@pytest.mark.parametrize("edit,message", [
    (lambda lines: [lines[0].replace(",u,", ",uncertainty,")] + lines[1:],
     "line 1: missing column(s) u"),
    (lambda lines: [lines[0], re.sub(r"^([^,]*,[^,]*),[^,]*,", r"\1,abc,", lines[1])]
     + lines[2:], "line 2: could not convert string to float: 'abc'"),
    (user_last_one_short, "line 2: no user"),
], ids=["renamed-u", "u-not-a-number", "row-without-user"])
def test_malformed_scores_csv_is_data_error(small_run, tmp_path, capsys, edit, message):
    scores = tmp_path / "scores.csv"
    lines = (small_run["detect"] / "scores.csv").read_text().splitlines()
    scores.write_text("\n".join(edit(lines)) + "\n")
    rc = main(["eval", "--scores", str(scores), "--corpus", str(small_run["corpus"]),
               "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--seed", "7", "--out", str(tmp_path / "report")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{scores}, {message}" in err
    assert "Traceback" not in err


def eval_edited_scores(small_run, tmp_path, capsys, edit):
    """eval over small_run's scores.csv with edit applied to its data rows' fields;
    returns the exit code, the edited file and stderr."""
    scores = tmp_path / "scores.csv"
    header, *rows = (small_run["detect"] / "scores.csv").read_text().splitlines()
    rows = [row.split(",") for row in rows]  # no scores.csv field holds a comma
    edit(rows)
    scores.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    rc = main(["eval", "--scores", str(scores), "--corpus", str(small_run["corpus"]),
               "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--seed", "7", "--out", str(tmp_path / "report")])
    return rc, scores, capsys.readouterr().err


@pytest.mark.parametrize("alert,trigger,message", [
    ("yes", "", "alert 'yes' is not 0 or 1"),
    ("1", "", "trigger '' does not fit alert 1"),
    ("0", "drift", "trigger 'drift' does not fit alert 0"),
    ("1", "sometimes", "trigger 'sometimes' does not fit alert 1"),
], ids=["alert-yes", "alert-without-trigger", "trigger-without-alert", "unknown-trigger"])
def test_scores_csv_alert_and_trigger_are_checked(small_run, tmp_path, capsys, alert, trigger,
                                                  message):
    def edit(rows):
        rows[0][5:7] = [alert, trigger]

    rc, scores, err = eval_edited_scores(small_run, tmp_path, capsys, edit)
    assert rc == EXIT_DATA
    assert f"{scores}, line 2: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column,value,message", [
    ("u", "nan", "u 'nan' is not in (0, 1]"),
    ("u", "0.0", "u '0.0' is not in (0, 1]"),
    ("u", "1.5", "u '1.5' is not in (0, 1]"),
    ("d", "inf", "d 'inf' is negative or not finite"),
    ("d", "-0.5", "d '-0.5' is negative or not finite"),
    ("s", "nan", "s 'nan' is negative or not finite"),
    ("s", "-1e-09", "s '-1e-09' is negative or not finite"),
    ("window_end", "nan", "window_end 'nan' is not finite"),
    ("window_end", "inf", "window_end 'inf' is not finite"),
    ("window_end", "-inf", "window_end '-inf' is not finite"),
], ids=["u-nan", "u-zero", "u-above-one", "d-inf", "d-negative", "s-nan", "s-negative",
        "window_end-nan", "window_end-inf", "window_end-minus-inf"])
def test_scores_csv_impossible_scores_are_checked(small_run, tmp_path, capsys, column, value,
                                                  message):
    def edit(rows):
        rows[0][SCORE_COLUMNS.index(column)] = value

    rc, scores, err = eval_edited_scores(small_run, tmp_path, capsys, edit)
    assert rc == EXIT_DATA
    assert f"{scores}, line 2: {message}" in err
    assert "Traceback" not in err


REPORT_FILES = ("metrics.json", "roc.csv", "scores.csv", "projection.csv")


@pytest.mark.parametrize("order", ["split-run", "shuffled"])
def test_eval_reads_scores_rows_in_any_order(small_run, tmp_path, capsys, order):
    def edit(rows):
        if order == "split-run":  # the first user's first row moves to the end
            rows.append(rows.pop(0))
        else:
            random.Random(11).shuffle(rows)

    rc, _, err = eval_edited_scores(small_run, tmp_path, capsys, edit)
    assert rc == 0, err
    for name in REPORT_FILES:
        assert (tmp_path / "report" / name).read_bytes() == \
               (small_run["report"] / name).read_bytes()


def test_eval_peak_of_negative_zero_scores_is_zero(small_run, tmp_path, capsys):
    # a hand-written -0.0 passes the checks (0.0 <= -0.0); a user's peaks start
    # at 0.0, so one whose every d and s is -0.0 peaks at 0.0
    def edit(rows):
        for row in rows:
            if row[0] == rows[0][0]:
                row[3:5] = ["-0.0", "-0.0"]

    rc, scores, err = eval_edited_scores(small_run, tmp_path, capsys, edit)
    assert rc == 0, err
    user = scores.read_text().splitlines()[1].split(",")[0]
    peaks = [line.split(",") for line in (tmp_path / "report" / "scores.csv").read_text()
             .splitlines() if line.startswith(user + ",")]
    assert len(peaks) == 1 and peaks[0][2:4] == ["0.0", "0.0"]


def test_eval_scores_for_a_user_the_corpus_lacks_is_data_error(small_run, tmp_path, capsys):
    def edit(rows):
        rows[0][0] = "u9999"  # the user keeps its other rows, so none is missing

    rc, _, err = eval_edited_scores(small_run, tmp_path, capsys, edit)
    assert rc == EXIT_DATA
    assert "scores name 1 user(s) the corpus lacks: ['u9999']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("warmup,epoch", [("1", "warm-up epoch 0"), ("0", "epoch 0")],
                         ids=["warm-up", "no-warm-up"])
def test_non_finite_feature_stops_training_naming_epoch_and_batch(tmp_path, capsys, warmup,
                                                                  epoch):
    corpus = generate(12, 0.25, SeededRng(5), t_len=8, window_duration=3600.0)
    corpus.sequences[3].features[-1, 0] = math.nan
    save_corpus(corpus, tmp_path / "corpus")
    rc = main(["train", "--corpus", str(tmp_path / "corpus"), "--epochs", "2",
               "--batch-size", "4", "--hidden", "4", "--n-clusters", "2",
               "--warmup-epochs", warmup, "--seed", "5", "--out", str(tmp_path / "t")])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.search(rf"non-finite \w+ at {epoch}, batch \d+", err)
    assert "Traceback" not in err


def test_every_subcommand_documents_every_flag(capsys):
    parser = build_parser()
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subparsers = sub_actions[0].choices
    assert set(subparsers) == {"gen", "train", "detect", "eval"}
    for name, sp in subparsers.items():
        text = sp.format_help()
        for action in sp._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in text, f"{name}: {opt} missing from help"
            assert action.help, f"{name}: {action.option_strings} lacks help text"


def test_every_flag_is_typed_as_its_config_default():
    """A config key's flag is the key with - for _, parsed as its default's
    type, so a flag takes what the config file takes."""
    subparsers = next(a for a in build_parser()._actions if a.choices).choices
    keyed = [(name, action) for name, sp in subparsers.items() for action in sp._actions
             if action.dest in DEFAULTS]
    assert {action.dest for _, action in keyed} == set(DEFAULTS) - {"n_layers"}
    for name, action in keyed:
        assert action.option_strings == ["--" + action.dest.replace("_", "-")], name
        assert action.type is type(DEFAULTS[action.dest]), (name, action.dest)


def test_run_directory_contains_reproduction_config(small_run):
    for stage in ("corpus", "train", "detect", "report"):
        cfg = json.loads((small_run[stage] / "config.json").read_text())
        assert "config_digest" in cfg
        assert cfg["seed"] == 7


@pytest.mark.parametrize("bad", [{"epochs": "3"}, {"learning_rate": "0.01"},
                                 {"n_layers": 1.5}, {"seed": True},
                                 {"beta": [0.7]}])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, bad):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(bad))
    rc = main(["train", "--corpus", str(tmp_path / "unused"), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    key = next(iter(bad))
    assert key in capsys.readouterr().err


def test_int_config_value_accepted_for_float_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window_duration": 3600, "population": 5, "t_len": 6}))
    assert main(["gen", "--config", str(cfg), "--seed", "2",
                 "--out", str(tmp_path / "c")]) == 0


@pytest.mark.parametrize("n_layers", [1, 3])
def test_any_depth_trains_detects_and_evaluates(tmp_path, n_layers):
    corpus, train, common = tmp_path / "corpus", tmp_path / "train", ["--seed", "5"]
    cfg = tmp_path / "depth.json"
    cfg.write_text(json.dumps({"n_layers": n_layers}))
    assert main(["gen", "--population", "12", "--insider-fraction", "0.25",
                 "--t-len", "8", "--window-duration", "3600",
                 "--out", str(corpus)] + common) == 0
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--epochs", "2", "--batch-size", "4", "--hidden", "4",
                 "--n-clusters", "2", "--warmup-epochs", "1",
                 "--out", str(train)] + common) == 0
    ckpt = str(train / "checkpoint.ckpt")
    assert main(["detect", "--checkpoint", ckpt, "--input", str(corpus),
                 "--out", str(tmp_path / "detect")] + common) == 0
    assert main(["eval", "--scores", str(tmp_path / "detect" / "scores.csv"),
                 "--corpus", str(corpus), "--checkpoint", ckpt,
                 "--out", str(tmp_path / "report")] + common) == 0
    echoed = json.loads((train / "config.json").read_text())
    assert echoed["n_layers"] == n_layers


def test_no_stage_imports_numpy_ma(tmp_path):
    """np.unique and np.quantile import numpy.ma, about 9 ms of start-up;
    each stage runs in a fresh process and none of them may load it."""
    import subprocess
    import sys

    from tests.test_perfbench_contract import child_env, load_perfbench

    corpus, ckpt = tmp_path / "corpus", tmp_path / "train" / "checkpoint.ckpt"
    probe = ("import sys\nfrom evsentinel.cli import main\nrc = main(sys.argv[1:])\n"
             "print('numpy.ma' in sys.modules)\nsys.exit(rc)")

    def stage(*args):
        done = subprocess.run([sys.executable, "-c", probe, *args, "--seed", "5"],
                              env=child_env(), capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False", args[0]

    stage("gen", "--population", "12", "--insider-fraction", "0.25", "--t-len", "6",
          "--window-duration", "3600", "--out", str(corpus))
    stage("train", "--corpus", str(corpus), "--epochs", "2", "--batch-size", "4",
          "--hidden", "4", "--n-clusters", "2", "--warmup-epochs", "1",
          "--out", str(ckpt.parent))
    load_perfbench("inputs").write_cert(corpus / "events.csv", tmp_path / "cert",
                                        tmp_path / "twin.csv", seed=5)
    for name, source in (("corpus", corpus), ("log", corpus / "events.csv"),
                         ("cert", tmp_path / "cert")):
        stage("detect", "--checkpoint", str(ckpt), "--input", str(source),
              "--out", str(tmp_path / f"detect-{name}"))
    stage("eval", "--scores", str(tmp_path / "detect-log" / "scores.csv"),
          "--corpus", str(corpus), "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"))


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4])
def test_streaming_detect_on_events_csv_matches_detect_on_its_corpus(small_run, tmp_path,
                                                                     monkeypatch, chunk_rows):
    """detect folds a raw log into window cells a few rows at a time and
    writes the bytes that detect on the log's corpus writes."""
    monkeypatch.setattr(data_mod, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(data_mod, "_FOLD_ROWS", 2 * chunk_rows)
    assert main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
                 "--input", str(small_run["corpus"] / "events.csv"), "--seed", "7",
                 "--out", str(tmp_path / "o")]) == 0
    for name in ("scores.csv", "alerts.jsonl"):
        assert (tmp_path / "o" / name).read_bytes() == \
            (small_run["detect"] / name).read_bytes(), name


def test_raw_log_windowing_memory_does_not_grow_with_the_events(tmp_path):
    """detect's raw-log windowing holds one chunk and the window cells: on
    a log of four times the events over the same users and windows, its
    traced peak stays within 1.2 times that of the log (1.02 times when
    written).  Building the event table first, as detect once did, peaked
    at 3.8 times."""
    save_corpus(generate(32, 0.5, SeededRng(3), t_len=20), tmp_path / "corpus")
    lines = (tmp_path / "corpus" / "events.csv").read_text().splitlines(keepends=True)
    assert len(lines) > 2 * data_mod._FOLD_ROWS
    (tmp_path / "four.csv").write_text(lines[0] + "".join(line * 4 for line in lines[1:]))

    def peak(path):
        """The traced peak of windowing path, and its series."""
        tracemalloc.start()
        try:
            series = _load_detect_source(path, data_mod.DEFAULT_WINDOW_SECONDS)
            return tracemalloc.get_traced_memory()[1], series
        finally:
            tracemalloc.stop()

    (one, series), (four, series4) = peak(tmp_path / "corpus" / "events.csv"), \
        peak(tmp_path / "four.csv")
    assert [ends.tolist() for _, ends in series.values()] == \
        [ends.tolist() for _, ends in series4.values()]
    assert four <= 1.2 * one, (one, four)


def test_detect_reports_a_bad_input_before_a_bad_detector_setting(small_run, tmp_path,
                                                                  capsys):
    log = tmp_path / "events.csv"
    log.write_text("user,timestamp,kind,attributes\nu1,x,logon,\n")
    rc = main(["detect", "--checkpoint", str(small_run["train"] / "checkpoint.ckpt"),
               "--input", str(log), "--beta", "0", "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    assert f"{log}, line 2:" in capsys.readouterr().err
