import itertools

import numpy as np
import pytest

from evsentinel.arrayio import read_blob
from evsentinel.data import FeatureScaler, generate
from evsentinel.errors import ConfigError, ContractError, DataError, DegenerateInputError
from evsentinel.model import DropoutSpec, EvidentialHeadParams, init_encoder, taped_encode
from evsentinel.numerics import SeededRng, Tape, backward
from evsentinel.training import (
    Checkpoint,
    TrainConfig,
    _warmup_arrays,
    corpus_features,
    init_clusters,
    refresh_pseudo_labels,
    taped_reconstruction_loss,
    train,
    write_epoch_log,
)
from tests.test_evidential import PrimitiveTape


def tiny_config(**overrides):
    base = dict(epochs=3, batch_size=16, hidden=6, t_len=12, n_clusters=3,
                warmup_epochs=1, seed=11, anneal_epochs=4, refresh_period=2)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_corpus(seed=11, population=32, t_len=12, fraction=0.125):
    return generate(population, fraction, SeededRng(seed), t_len=t_len,
                    window_duration=3600.0)


# -- config ---------------------------------------------------------------------


def test_defaults_match_reference_setup():
    c = TrainConfig()
    assert c.epochs == 200
    assert c.learning_rate == 0.001
    assert c.batch_size == 128
    assert c.dropout_p == 0.3
    assert c.n_clusters == 5
    assert c.hidden == 64
    assert c.t_len == 100


@pytest.mark.parametrize("bad", [
    dict(epochs=0), dict(learning_rate=0.0), dict(dropout_p=1.0),
    dict(n_clusters=0), dict(anneal_epochs=0), dict(lambda_max=-1.0),
    dict(warmup_epochs=-1), dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
    dict(lambda_max=float("nan")), dict(lambda_max=float("inf")),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


# -- k-means bootstrap -------------------------------------------------------------


def distortion(points, clusters):
    diffs = points - clusters.centroids[clusters.assignments]
    return float((diffs * diffs).sum())


def test_k_points_k_clusters_zero_distortion():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    clusters = init_clusters(points, 4, SeededRng(3))
    assert distortion(points, clusters) == 0.0
    assert sorted(clusters.assignments.tolist()) == [0, 1, 2, 3]


def brute_force_two_partition(points):
    """Minimum-distortion split into two non-empty groups (the oracle)."""
    n = points.shape[0]
    best, best_cost = None, np.inf
    for bits in itertools.product([0, 1], repeat=n - 1):
        assign = np.array((0,) + bits)
        if assign.min() == assign.max():
            continue
        cost = 0.0
        for j in (0, 1):
            members = points[assign == j]
            cost += ((members - members.mean(axis=0)) ** 2).sum()
        if cost < best_cost:
            best, best_cost = assign, cost
    return best, best_cost


def test_two_blobs_match_brute_force_partition():
    rng = SeededRng(5)
    blob_a = 0.3 * rng.normal((6, 2)) + np.array([0.0, 0.0])
    blob_b = 0.3 * rng.normal((6, 2)) + np.array([8.0, 8.0])
    points = np.vstack([blob_a, blob_b])
    clusters = init_clusters(points, 2, SeededRng(7))
    oracle_assign, oracle_cost = brute_force_two_partition(points)
    ours = clusters.assignments
    same = np.array_equal(ours, oracle_assign) or np.array_equal(1 - ours, oracle_assign)
    assert same
    assert distortion(points, clusters) == pytest.approx(oracle_cost, rel=1e-9)


def test_lloyd_iterations_never_increase_distortion():
    points = SeededRng(13).normal((40, 3))
    costs = [distortion(points, init_clusters(points, 4, SeededRng(17), max_iter=i))
             for i in range(1, 8)]
    for earlier, later in zip(costs, costs[1:]):
        assert later <= earlier + 1e-9


def test_too_few_distinct_points_rejected():
    points = np.zeros((10, 3))
    points[0] = 1.0
    with pytest.raises(DegenerateInputError):
        init_clusters(points, 3, SeededRng(1))


def test_distinct_row_guard_counts_rows_as_np_unique_does():
    """init_clusters needs n_clusters rows np.unique(axis=0) tells apart:
    -0.0 equals 0.0, and a row with NaN differs from every row."""
    rng = SeededRng(31)
    for case in range(300):
        n, d = 1 + rng.index_below(12), 1 + rng.index_below(3)
        points = np.round(rng.normal((n, d)))  # many repeats, some -0.0
        if case % 5 == 0:
            points[rng.index_below(n)] = np.nan
            points[rng.index_below(n), 0] = np.nan
        n_distinct = np.unique(points, axis=0).shape[0]
        with pytest.raises(DegenerateInputError):
            init_clusters(points, n_distinct + 1, SeededRng(1))
        with np.errstate(invalid="ignore"):
            init_clusters(points, n_distinct, SeededRng(1), max_iter=1)


# -- pseudo-labels -----------------------------------------------------------------


def zero_feature_setup(bias):
    # zero encoder means z = 0, so alpha = softplus(bias) + 1 for every input
    from tests.test_model import zero_encoder

    enc = zero_encoder(4, 3)
    head = EvidentialHeadParams(w=np.zeros((3, len(bias))), b=np.array(bias, dtype=float))
    features = SeededRng(2).normal((5, 6, 4))
    return enc, head, features


def test_refresh_labels_argmax():
    enc, head, feats = zero_feature_setup([9.0, 1.0, 1.0, 1.0, 1.0])
    labels = refresh_pseudo_labels(enc, head, feats)
    assert np.array_equal(labels, np.zeros(5, dtype=np.int64))


def test_refresh_labels_tie_breaks_low():
    enc, head, feats = zero_feature_setup([2.0, 2.0, 1.0, 1.0, 1.0])
    labels = refresh_pseudo_labels(enc, head, feats)
    assert np.array_equal(labels, np.zeros(5, dtype=np.int64))


def test_pseudo_labels_in_range():
    corpus = tiny_corpus()
    config = tiny_config()
    ckpt, _ = train(config, corpus)
    scaler = ckpt.scaler
    feats = np.stack([scaler.transform(s.features) for s in corpus.sequences])
    labels = refresh_pseudo_labels(ckpt.encoder, ckpt.head, feats)
    assert labels.min() >= 0
    assert labels.max() < config.n_clusters


# -- warm-up ----------------------------------------------------------------------


def warmup(config, corpus, rng):
    """The warm-up train() runs first: fit the scaler, init the encoder, reconstruct."""
    features = corpus_features(corpus, FeatureScaler.fit(corpus.sequences))
    encoder = init_encoder(config.input_dim, config.hidden, config.n_layers, rng.derive(1))
    return _warmup_arrays(config, features, [s.n_pad for s in corpus.sequences], encoder,
                          rng)[0]


def test_warmup_zero_epochs_returns_init_unchanged():
    corpus = tiny_corpus()
    config = tiny_config(warmup_epochs=0)
    rng = SeededRng(config.seed)
    got = warmup(config, corpus, rng)
    expected = init_encoder(config.input_dim, config.hidden, config.n_layers,
                            SeededRng(config.seed).derive(1))
    for (ka, va), (kb, vb) in zip(sorted(got.to_flat().items()),
                                  sorted(expected.to_flat().items())):
        assert ka == kb
        assert np.array_equal(va, vb)


def test_warmup_loss_decreases():
    corpus = tiny_corpus(population=48, seed=29)
    config = tiny_config(warmup_epochs=8, batch_size=16, seed=29, learning_rate=0.01)
    scaler = FeatureScaler.fit(corpus.sequences)
    feats = np.stack([scaler.transform(s.features) for s in corpus.sequences])
    pads = np.zeros(len(corpus.sequences), dtype=np.int64)
    rng = SeededRng(config.seed)
    enc = init_encoder(config.input_dim, config.hidden, config.n_layers, rng.derive(1))
    _, losses = _warmup_arrays(config, feats, pads, enc, rng)
    assert len(losses) == 8
    assert losses[-1] <= losses[0]


def test_warmup_deterministic():
    corpus = tiny_corpus()
    config = tiny_config()
    a = warmup(config, corpus, SeededRng(config.seed))
    b = warmup(config, corpus, SeededRng(config.seed))
    for (na, va), (nb, vb) in zip(sorted(a.to_flat().items()), sorted(b.to_flat().items())):
        assert va.tobytes() == vb.tobytes()


def composed_reconstruction_loss(tape: PrimitiveTape, pnodes, z, targets):
    """taped_reconstruction_loss as seven oracle-tape primitives."""
    n, d = targets.shape
    pred = tape.add(tape.matmul(z, pnodes["dec.w"]), pnodes["dec.b"])
    err = tape.sub(pred, tape.const(targets))
    return tape.scale(tape.sum(tape.mul(err, err)), 1.0 / (n * d))


@pytest.mark.parametrize("n,k,d", [(1, 1, 1), (1, 6, 12), (8, 6, 12), (16, 64, 12),
                                   (5, 3, 2)])
def test_reconstruction_loss_is_bit_identical_to_composed_primitives(n, k, d):
    """The loss and the adjoints of z, dec.w and dec.b, byte for byte."""
    rng = SeededRng(1000 * n + 10 * k + d)
    for scale in (1e-3, 1.0, 1e3):
        inputs = {"z": rng.normal((n, k)), "dec.w": rng.normal((k, d)),
                  "dec.b": rng.normal((d,))}
        targets = scale * rng.normal((n, d))
        results = []
        for loss in (composed_reconstruction_loss, taped_reconstruction_loss):
            tape = PrimitiveTape()
            nodes = {name: tape.leaf(v) for name, v in inputs.items()}
            out = loss(tape, nodes, nodes["z"], targets)
            grads = backward(tape, out)
            results.append([out.value.tobytes()]
                           + [grads[nodes[name]].tobytes() for name in inputs])
        assert results[0] == results[1], scale


def test_reconstruction_loss_gradient_matches_finite_differences():
    """Through dec.w, dec.b and, by way of z, the encoder's arrays."""
    rng = SeededRng(31)
    flat = {**init_encoder(3, 4, 2, rng).to_flat(), "dec.w": rng.normal((4, 3)),
            "dec.b": rng.normal((3,))}
    x = SeededRng(32).normal((2, 5, 3))
    targets = SeededRng(33).normal((2, 3))

    def loss_of(arrays):
        tape = Tape()
        pnodes = {name: tape.leaf(v) for name, v in arrays.items()}
        z = taped_encode(tape, pnodes, x, 2, DropoutSpec(active=False), None)
        return tape, pnodes, taped_reconstruction_loss(tape, pnodes, z, targets)

    tape, pnodes, loss = loss_of(flat)
    grads = backward(tape, loss)
    h = 1e-5
    for name, idx in (("dec.w", (0, 0)), ("dec.w", (3, 2)), ("dec.b", (1,)),
                      ("enc.l0.w", (2, 5)), ("enc.l0.b", (4,)), ("enc.l1.u", (1, 9))):
        up = {key: v.copy() for key, v in flat.items()}
        dn = {key: v.copy() for key, v in flat.items()}
        up[name][idx] += h
        dn[name][idx] -= h
        numeric = (float(loss_of(up)[2].value) - float(loss_of(dn)[2].value)) / (2 * h)
        analytic = grads[pnodes[name]][idx]
        assert abs(analytic - numeric) / max(abs(numeric), 1e-6) < 1e-4, (name, idx)


def test_each_batch_records_one_tape_op_per_stage(monkeypatch):
    """A warm-up batch is two ops (encoder, reconstruction loss) and a
    main-loop batch three (encoder, head, evidential loss)."""
    import evsentinel.training as training

    lengths = []

    def counted(tape, output):
        lengths.append(len(tape))
        return backward(tape, output)

    monkeypatch.setattr(training, "backward", counted)
    train(tiny_config(epochs=1, warmup_epochs=1, batch_size=16), tiny_corpus())
    assert lengths == [2, 2, 3, 3]


# -- main loop ----------------------------------------------------------------------


def test_train_smoke_two_epochs_on_64_sequences():
    corpus = generate(64, 0.06, SeededRng(21), t_len=12, window_duration=3600.0)
    config = tiny_config(epochs=2, batch_size=64, seed=21)
    ckpt, metrics = train(config, corpus)
    assert len(metrics) == 2
    assert all(np.isfinite(m.total_loss) for m in metrics)
    assert ckpt.window_duration == 3600.0


def test_train_deterministic_checkpoint_digest(tmp_path):
    corpus = tiny_corpus()
    config = tiny_config()
    ckpt_a, _ = train(config, corpus)
    ckpt_b, _ = train(config, corpus)
    da = ckpt_a.save(tmp_path / "a.ckpt")
    db = ckpt_b.save(tmp_path / "b.ckpt")
    assert da == db
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_training_loss_decreases():
    corpus = tiny_corpus(population=48, seed=29)
    config = tiny_config(epochs=30, batch_size=16, seed=29, warmup_epochs=3,
                         learning_rate=0.003, refresh_period=5)
    _, metrics = train(config, corpus)
    assert metrics[-1].total_loss < metrics[0].total_loss
    assert metrics[-1].pseudo_accuracy > metrics[0].pseudo_accuracy


def test_loss_decomposition_identity():
    corpus = tiny_corpus()
    config = tiny_config()
    _, metrics = train(config, corpus)
    for m in metrics:
        assert m.total_loss == m.ce_loss + m.lam * m.kl_loss


def test_dataset_smaller_than_batch_rejected():
    corpus = tiny_corpus(population=8)
    with pytest.raises(ContractError):
        train(tiny_config(batch_size=16), corpus)


def test_mismatched_t_len_rejected():
    corpus = tiny_corpus(t_len=12)
    with pytest.raises(ConfigError):
        train(tiny_config(t_len=20, batch_size=8), corpus)


def test_labels_stable_after_convergence():
    corpus = tiny_corpus(population=32, seed=31)
    config = tiny_config(epochs=10, batch_size=16, seed=31)
    ckpt, _ = train(config, corpus)
    feats = np.stack([ckpt.scaler.transform(s.features) for s in corpus.sequences])
    first = refresh_pseudo_labels(ckpt.encoder, ckpt.head, feats)
    second = refresh_pseudo_labels(ckpt.encoder, ckpt.head, feats)
    assert np.array_equal(first, second)

    longer, _ = train(tiny_config(epochs=11, batch_size=16, seed=31), corpus)
    later = refresh_pseudo_labels(longer.encoder, longer.head, feats)
    agreement = float(np.mean(first == later))
    assert agreement >= 0.95


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    corpus = tiny_corpus()
    ckpt, _ = train(tiny_config(), corpus)
    path = tmp_path / "model.ckpt"
    digest = ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.digest == digest
    for name, arr in ckpt.encoder.to_flat().items():
        assert loaded.encoder.to_flat()[name].tobytes() == arr.tobytes()
    for name, arr in ckpt.head.to_flat().items():
        assert loaded.head.to_flat()[name].tobytes() == arr.tobytes()
    assert loaded.config == ckpt.config
    assert loaded.window_duration == ckpt.window_duration
    assert np.array_equal(loaded.scaler.mean, ckpt.scaler.mean)


def test_checkpoint_stores_only_what_detection_reads(tmp_path):
    ckpt, _ = train(tiny_config(), tiny_corpus())
    path = tmp_path / "model.ckpt"
    ckpt.save(path)
    header, arrays, _ = read_blob(path)
    expected = [*ckpt.encoder.to_flat(), *ckpt.head.to_flat(), "scaler.mean", "scaler.std"]
    assert sorted(arrays) == sorted(expected)
    assert set(header) == {"schema", "schema_version", "config", "window_duration"}


def test_checkpoint_detects_corruption(tmp_path):
    corpus = tiny_corpus()
    ckpt, _ = train(tiny_config(), corpus)
    path = tmp_path / "model.ckpt"
    ckpt.save(path)
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        Checkpoint.load(path)


def test_epoch_log_format(tmp_path):
    corpus = tiny_corpus()
    _, metrics = train(tiny_config(epochs=2), corpus)
    path = tmp_path / "epochs.csv"
    write_epoch_log(metrics, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,total_loss,ce_loss,kl_loss,lambda,pseudo_accuracy"
    assert len(lines) == 3
