"""Command-line entry point: gen, train, detect, eval.

Configuration resolution: package defaults, overridden by a flat JSON
config file (--config), overridden by explicit command-line flags.  The
fully resolved configuration is echoed into every output directory as
config.json together with its digest so any run can be reproduced
bit-for-bit.

Exit codes: 0 success, 2 configuration, 3 data, 4 I/O, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from dataclasses import fields
from pathlib import Path

from . import data as data_mod
from .detector import (DetectorConfig, detect_stream, read_scores_csv, write_alerts_jsonl,
                       write_scores_csv)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    DomainError,
    NumericError,
    ShapeError,
)
from .evaluation import evaluate_run, export_report
from .model import encode_batch
from .numerics import SeededRng
from .training import (Checkpoint, TrainConfig, check_config, corpus_features, train,
                       write_epoch_log)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

# TrainConfig's fields a config sets; train takes input_dim from the corpus
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "input_dim")

DEFAULTS = {
    # generator
    "population": 200,
    "insider_fraction": 0.05,
    "intensity_scale": 1.0,
    "window_duration": 86400.0,
    # training (t_len and seed also drive gen) and detection
    **{f.name: f.default for f in fields(TrainConfig) if f.name in TRAIN_KEYS},
    **{f.name: f.default for f in fields(DetectorConfig)},
}


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, in increasing precedence."""
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            merged.update(check_config(json.loads(Path(config_path).read_text()), DEFAULTS,
                                       "config file"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from None
        except ConfigError as exc:
            raise ConfigError(f"{config_path}: {exc}") from None
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def echo_config(config: dict, out_dir: Path) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_digest(config)
    payload = dict(config)
    payload["config_digest"] = digest
    (out_dir / "config.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return digest


def _detector_config(config: dict) -> DetectorConfig:
    return DetectorConfig(**{f.name: config[f.name] for f in fields(DetectorConfig)})


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = Path(args.out)
    corpus = data_mod.generate(
        population=int(config["population"]),
        insider_fraction=float(config["insider_fraction"]),
        rng=SeededRng(int(config["seed"])),
        t_len=int(config["t_len"]),
        window_duration=float(config["window_duration"]),
        intensity_scale=float(config["intensity_scale"]),
    )
    digest = data_mod.save_corpus(corpus, out_dir)
    echo_config(config, out_dir)
    n_insiders = sum(1 for s in corpus.sequences if s.label != "benign")
    print(f"gen: {len(corpus.sequences)} users ({n_insiders} insiders), "
          f"{len(corpus.records)} events, corpus digest {digest[:16]}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    corpus = data_mod.load_corpus(Path(args.corpus))
    if not corpus.sequences:
        raise DataError(f"{args.corpus}: corpus has no users")
    config["t_len"] = corpus.t_len
    tconf = TrainConfig(input_dim=corpus.sequences[0].features.shape[1],
                        **{k: config[k] for k in TRAIN_KEYS})
    out_dir = Path(args.out)
    checkpoint, metrics = train(tconf, corpus)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = checkpoint.save(out_dir / "checkpoint.ckpt")
    write_epoch_log(metrics, out_dir / "epochs.csv")
    echo_config(config, out_dir)
    last = metrics[-1]
    print(f"train: {tconf.epochs} epochs, final total {last.total_loss:.4f} "
          f"(ce {last.ce_loss:.4f}, kl {last.kl_loss:.4f}), "
          f"pseudo-accuracy {last.pseudo_accuracy:.3f}, checkpoint digest {digest[:16]}")
    return EXIT_OK


def _load_detect_source(path: Path, window_duration: float):
    """A corpus, a CERT directory's event table, or a raw log's window series."""
    if path.is_dir():
        if (path / "sequences.bin").exists():
            return data_mod.load_corpus(path)
        records, malformed = data_mod.ingest_cert(path)
        if malformed:
            print(f"detect: skipped {malformed} malformed CERT rows", file=sys.stderr)
        return records
    if path.is_file():
        return data_mod.raw_log_series(path, window_duration)
    raise FileNotFoundError(f"detect input not found: {path}")


def cmd_detect(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    checkpoint = Checkpoint.load(Path(args.checkpoint))
    # popped into the call, so that detect_stream can free a CERT table once
    # it has its windows
    source = [_load_detect_source(Path(args.input), checkpoint.window_duration)]
    dconf = _detector_config(config)
    result = detect_stream(checkpoint, source.pop(), dconf)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_scores_csv(result, out_dir / "scores.csv")
    write_alerts_jsonl(result, out_dir / "alerts.jsonl")
    echo_config(config, out_dir)
    print(f"detect: {result.windows_processed} windows, {(result.trigger > 0).sum()} alerts, "
          f"mean u {result.mean_uncertainty:.4f}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    checkpoint = Checkpoint.load(Path(args.checkpoint))
    corpus = data_mod.load_corpus(Path(args.corpus))
    scores = read_scores_csv(Path(args.scores))
    z = encode_batch(checkpoint.encoder, corpus_features(corpus, checkpoint.scaler))
    embeddings = dict(zip(corpus.users, z))
    report = evaluate_run(scores, corpus.sequences, embeddings,
                          n_clusters=checkpoint.config.n_clusters,
                          seed=int(config["seed"]),
                          config_digest=config_digest(config))
    out_dir = Path(args.out)
    payload = export_report(report, out_dir)
    if args.epochs_log:
        shutil.copyfile(args.epochs_log, out_dir / "epochs.csv")
    echo_config(config, out_dir)
    fpr = payload["fpr"]
    print(f"eval: auc {payload['auc']:.4f}, fpr {fpr if fpr is None else round(fpr, 4)}, "
          f"baseline fpr {payload['baseline_fpr']}, accuracy {payload['accuracy']}")
    return EXIT_OK


# -- argument wiring --------------------------------------------------------------

# each subcommand's config-key flags, in help order: --key-with-dashes, typed as DEFAULTS[key]
CONFIG_FLAGS = {
    "gen": {"population": "number of users",
            "insider_fraction": "fraction of users that are insiders",
            "t_len": "windows per sequence",
            "window_duration": "window length in seconds",
            "intensity_scale": "attack intensity scale (1 = defaults)"},
    "train": {"epochs": "training epochs", "learning_rate": "Adam learning rate",
              "batch_size": "mini-batch size", "dropout_p": "dropout probability",
              "n_clusters": "number of clusters K", "hidden": "GRU hidden size",
              "lambda_max": "final KL weight", "anneal_epochs": "epochs to ramp the KL weight",
              "warmup_epochs": "reconstruction warm-up epochs",
              "refresh_period": "pseudo-label refresh period in epochs"},
    "detect": {"tau_u": "uncertainty threshold", "tau_d": "drift threshold",
               "beta": "EWMA smoothing"},
}


def _subcommand(sub, name: str, func, text: str, **paths: str) -> argparse.ArgumentParser:
    """Subcommand name: --seed, --config and --out, a required --path for
    each of paths (its help text), then CONFIG_FLAGS[name]."""
    p = sub.add_parser(name, help=text)
    p.add_argument("--seed", type=int, help="global random seed")
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--out", required=True, help="output directory")
    for path, path_help in paths.items():
        p.add_argument(f"--{path}", required=True, help=path_help)
    for key, key_help in CONFIG_FLAGS.get(name, {}).items():
        p.add_argument("--" + key.replace("_", "-"), type=type(DEFAULTS[key]), help=key_help)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evsentinel",
        description="Evidential clustering insider-threat detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "gen", cmd_gen, "generate a labeled synthetic corpus")
    _subcommand(sub, "train", cmd_train, "train encoder and evidential head",
                corpus="corpus directory")
    _subcommand(sub, "detect", cmd_detect, "stream detection over a corpus or log",
                checkpoint="trained checkpoint",
                input="corpus directory, raw log CSV, or CERT directory")
    p = _subcommand(sub, "eval", cmd_eval, "score a detection run against ground truth",
                    scores="detector scores.csv", corpus="corpus directory with labels.csv",
                    checkpoint="trained checkpoint")
    p.add_argument("--epochs-log", help="epochs.csv from training to copy into the report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError) as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DegenerateInputError) as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, ShapeError, DomainError) as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
