import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evsentinel.numerics import SeededRng, below, mix64

MASK = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
SQRT2 = 0x6A09E667F3BCC909


def py_mix64(z: int) -> int:
    """Independent pure-Python SplitMix64 finalizer (the oracle)."""
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def py_raw(seed: int, stream: int, i: int) -> int:
    k1 = py_mix64((seed + GAMMA) & MASK)
    k2 = py_mix64((stream + SQRT2) & MASK)
    return py_mix64(((i * GAMMA + k1) & MASK) ^ k2)


# First outputs of the (0,0) stream, frozen; see the module docstring.
REFERENCE_VECTORS = {
    (0, 0): [1729195395326304284, 1529794087811473921, 12080470990150299344],
    (1, 0): [16186778211281085592, 13101914932138964144, 16638102052434655281],
    (0, 1): [10604396679691009134, 7575750295158447098, 1458682126689294836],
}


def test_reference_vectors():
    for (seed, stream), expected in REFERENCE_VECTORS.items():
        got = [int(v) for v in SeededRng(seed, stream).raw(3)]
        assert got == expected


@pytest.mark.parametrize("seed,stream", [(0, 0), (42, 7), (2**63, 5), (123456789, 2**40)])
def test_matches_pure_python_oracle(seed, stream):
    got = [int(v) for v in SeededRng(seed, stream).raw(10)]
    expected = [py_raw(seed, stream, i) for i in range(1, 11)]
    assert got == expected


def test_mix64_matches_oracle_on_array():
    xs = np.array([0, 1, 2**32, MASK], dtype=np.uint64)
    assert [int(v) for v in mix64(xs)] == [py_mix64(int(v)) for v in xs]


def test_same_seed_stream_bitwise_identical():
    a = SeededRng(99, 3).uniform((100,))
    b = SeededRng(99, 3).uniform((100,))
    assert a.tobytes() == b.tobytes()


def test_streams_differ():
    a = SeededRng(99, 0).raw(8)
    b = SeededRng(99, 1).raw(8)
    assert not np.array_equal(a, b)


def test_counter_resume():
    whole = SeededRng(5).raw(10)
    front = SeededRng(5)
    head = front.raw(4)
    resumed = SeededRng(*front.state).raw(6)
    assert np.array_equal(np.concatenate([head, resumed]), whole)


def test_uniform_range_and_determinism():
    u = SeededRng(7).uniform((10_000,))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert 0.45 < u.mean() < 0.55


def test_normal_moments():
    z = SeededRng(11).normal((50_000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_poisson_zero_rate_and_mean():
    counts = SeededRng(13).poisson(np.zeros(5))
    assert np.array_equal(counts, np.zeros(5, dtype=np.int64))
    draws = SeededRng(17).poisson(np.full(20_000, 4.0))
    assert abs(draws.mean() - 4.0) < 0.1
    assert abs(draws.var() - 4.0) < 0.2


def oracle_poisson(rng, lam):
    """Knuth's method over every cell each round, live or not (the oracle)."""
    lam = np.asarray(lam, dtype=np.float64)
    flat = lam.ravel()
    limit = np.exp(-flat)
    prod = np.ones_like(flat)
    counts = np.zeros(flat.shape, dtype=np.int64)
    active = flat > 0
    while np.any(active):
        u = rng.uniform((int(active.sum()),))
        prod[active] = prod[active] * u
        active = active & (prod > limit)
        counts[active] += 1
    return counts.reshape(lam.shape)


RATES = st.one_of(st.just(0.0), st.floats(1e-300, 1e-3), st.floats(0.0, 50.0))


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.sampled_from([(0,), (1,), (480, 8)]), elements=RATES),
       st.integers(0, 2**64 - 1), st.integers(0, 2**20))
def test_poisson_matches_knuth_oracle(lam, seed, counter):
    rng, oracle = SeededRng(seed, 2, counter), SeededRng(seed, 2, counter)
    got = rng.poisson(lam)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle_poisson(oracle, lam))
    assert rng.state == oracle.state


def test_permutation_is_permutation():
    p = SeededRng(23).permutation(100)
    assert sorted(p.tolist()) == list(range(100))
    assert np.array_equal(SeededRng(23).permutation(100), p)


def fisher_yates(rng, n):
    """Fisher-Yates with one index_below call per step (the oracle)."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.index_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@pytest.mark.parametrize("n", [0, 1, 2, 100])
def test_permutation_matches_fisher_yates_oracle(n):
    rng, oracle = SeededRng(41, 3), SeededRng(41, 3)
    assert rng.permutation(n).tolist() == fisher_yates(oracle, n)
    assert rng.counter == oracle.counter


@pytest.mark.parametrize("n,calls", [(0, []), (1, []), (2, [1]), (100, [99])])
def test_permutation_draws_in_one_raw_call(monkeypatch, n, calls):
    seen = []
    raw = SeededRng.raw
    monkeypatch.setattr(SeededRng, "raw", lambda self, k: seen.append(k) or raw(self, k))
    SeededRng(41, 3).permutation(n)
    assert seen == calls


def test_below_takes_one_bound_per_draw():
    xs = SeededRng(43).raw(64)
    bounds = np.arange(1, 65)
    assert below(xs, bounds).tolist() == [(int(x) * int(b)) >> 64 for x, b in zip(xs, bounds)]
    with pytest.raises(ValueError):
        below(xs[:2], np.array([5, 2**32]))


def test_index_below_bounds():
    rng = SeededRng(29)
    draws = [rng.index_below(7) for _ in range(500)]
    assert set(draws) == set(range(7))


@pytest.mark.parametrize("bound", range(1, 65))
def test_below_matches_python_int_oracle(bound):
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, MASK]
    xs = np.concatenate([np.array(edges, dtype=np.uint64), SeededRng(bound, 9).raw(200)])
    assert [int(v) for v in below(xs, bound)] == [(int(x) * bound) >> 64 for x in xs]


@pytest.mark.parametrize("bound", [1, 7, 2**31, 2**32 - 1])
def test_index_below_matches_python_int_oracle(bound):
    rng = SeededRng(37, 2)
    got = [rng.index_below(bound) for _ in range(50)]
    assert got == [(int(x) * bound) >> 64 for x in SeededRng(37, 2).raw(50)]


@pytest.mark.parametrize("bound", [0, 2**32])
def test_below_rejects_bound_outside_32_bits(bound):
    with pytest.raises(ValueError):
        below(np.zeros(1, dtype=np.uint64), bound)
    with pytest.raises(ValueError):
        SeededRng(1).index_below(bound)
