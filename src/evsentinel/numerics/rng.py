"""Counter-based pseudo-random generation with reproducible streams.

The generator applies the SplitMix64 finalizer to a keyed 64-bit counter:

    out[i] = mix64((counter_i * GAMMA + K1) ^ K2)

where ``K1 = mix64(seed + GAMMA)``, ``K2 = mix64(stream + SQRT2_64)`` and
``counter_i`` runs from the current draw position.  Identical
``(seed, stream)`` pairs therefore produce bitwise-identical sequences on
every platform: all arithmetic is unsigned 64-bit modulo 2**64 and the
float conversions below are exact.

Reference vectors (first raw outputs):
  seed=0, stream=0: 1729195395326304284, 1529794087811473921, 12080470990150299344
  seed=1, stream=0: 16186778211281085592, 13101914932138964144, 16638102052434655281
  seed=0, stream=1: 10604396679691009134, 7575750295158447098, 1458682126689294836
More vectors, cross-checked against a pure-Python reimplementation, live
in tests/test_rng.py.

Derived quantities:
  uniform      (raw >> 11) * 2**-53, in [0, 1)
  normal       Box-Muller on uniform pairs
  poisson      Knuth's product-of-uniforms method; round r draws one
               uniform per cell still live, in flat cell order, in one
               raw() call
  index_below  the high 64 bits of raw * bound

Since draw i depends on nothing but i, a caller that knows how many
draws each item takes can make all of them in one raw() call and map
them with unit_floats, below and box_muller, the mappings the methods
use, getting the bits that one call per draw would give.
"""

from __future__ import annotations

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
SQRT2_64 = np.uint64(0x6A09E667F3BCC909)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_S32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)

_INV_2_53 = float(2.0**-53)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z ^ (z >> _S30)
        z = z * _M1
        z = z ^ (z >> _S27)
        z = z * _M2
        z = z ^ (z >> _S31)
    return z


def unit_floats(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw draws, as uniform() makes them."""
    return (raw >> _S11).astype(np.float64) * _INV_2_53


def below(raw: np.ndarray, bound) -> np.ndarray:
    """Integers in [0, bound) from raw draws: the high 64 bits of raw * bound.

    bound is one int or one per draw.  Built from 32-bit halves so that no
    product overflows uint64; every bound must be below 2**32.
    """
    bounds = np.asarray(bound)
    if not np.all((0 < bounds) & (bounds < 2**32)):
        raise ValueError("bound must be in [1, 2**32)")
    b = bounds.astype(np.uint64)
    low = (raw & _LOW32) * b
    return ((raw >> _S32) * b + (low >> _S32)) >> _S32


def box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius and angle of the Box-Muller transform of uniform pairs.

    u1 is clamped at 2**-53 to keep log() finite; the normals are
    r * cos(theta) and r * sin(theta).
    """
    return np.sqrt(-2.0 * np.log(np.maximum(u1, _INV_2_53))), (2.0 * np.pi) * u2


class SeededRng:
    """Deterministic random stream identified by (seed, stream).

    The only mutable state is the draw counter, so the full generator
    state is the triple ``(seed, stream, counter)``: constructing a
    generator from the same triple resumes the same sequence exactly.
    """

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        self.counter = int(counter)
        with np.errstate(over="ignore"):
            self._k1 = mix64(np.uint64(self.seed) + GAMMA)
            self._k2 = mix64(np.uint64(self.stream) + SQRT2_64)

    def derive(self, stream: int) -> "SeededRng":
        """Fresh generator on a different stream of the same seed."""
        return SeededRng(self.seed, stream)

    @property
    def state(self) -> tuple[int, int, int]:
        return (self.seed, self.stream, int(self.counter))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 outputs; advances the counter by n."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return mix64((idx * GAMMA + self._k1) ^ self._k2)

    def uniform(self, shape=None):
        """Doubles in [0, 1). Scalar when shape is None."""
        if shape is None:
            return float(unit_floats(self.raw(1))[0])
        n = int(np.prod(shape)) if shape != () else 1
        return unit_floats(self.raw(n)).reshape(shape)

    def normal(self, shape=None):
        """Standard normals via Box-Muller. Scalar when shape is None."""
        scalar = shape is None
        n = 1 if scalar else (int(np.prod(shape)) if shape != () else 1)
        pairs = (n + 1) // 2
        u = unit_floats(self.raw(2 * pairs))
        r, theta = box_muller(u[:pairs], u[pairs:])
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        if scalar:
            return float(z[0])
        return z.reshape(shape)

    def poisson(self, lam) -> np.ndarray:
        """Poisson draws for an array of rates (Knuth's method): a cell stays
        live while its product of uniforms is above exp(-rate), and a rate
        <= 0 is never live."""
        lam = np.asarray(lam, dtype=np.float64)
        flat = lam.ravel()
        counts = np.zeros(flat.shape, dtype=np.int64)
        live = np.flatnonzero(flat > 0)
        limit = np.exp(-flat)[live]
        prod = np.ones(live.size)
        while live.size:
            prod *= unit_floats(self.raw(live.size))
            going = prod > limit
            live, prod, limit = live[going], prod[going], limit[going]
            counts[live] += 1
        return counts.reshape(lam.shape)

    def index_below(self, bound: int) -> int:
        """Unbiased-to-2**-64 integer in [0, bound), for bound < 2**32."""
        return int(below(self.raw(1), bound)[0])

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): step i = n-1, ..., 1 swaps i
        with index_below(i + 1), all n - 1 draws made in one raw() call."""
        order = np.arange(n)
        if n < 2:
            return order
        steps = np.arange(n - 1, 0, -1)
        for i, j in zip(steps.tolist(), below(self.raw(n - 1), steps + 1).tolist()):
            order[i], order[j] = order[j], order[i]
        return order
