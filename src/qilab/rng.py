"""Deterministic counter-based random stream.

The generator is SplitMix64: output ``i`` is ``mix64(seed + (i+1) * GAMMA)``
with the standard constants below. It is stateless apart from the counter,
so any language can reproduce the exact stream from the seed alone.
Gaussian variates use the Box-Muller transform on the uniform stream.

:meth:`Stream.gauss_array` defines the Gaussian stream and :meth:`Stream.gauss`
is its one-value form. :func:`gauss_rows` draws for many fresh seeds at once
and equals a per-seed ``gauss_array`` loop bit for bit; both run one kernel,
:func:`_gauss_pairs`, on numpy arrays, with SplitMix64 from the row kernel
:func:`_u64_rows`. Only ``log`` is libm's through :mod:`math`: ``np.log``
differs from it by one ulp on about 0.3% of arguments (numpy 2.4 on x86-64),
which would move about 0.16% of draws. There numpy's float64 ``np.cos`` and
``np.sin`` call glibc's ``cos`` and ``sin`` and matched ``math.cos`` and
``math.sin`` on 8 M Box-Muller angles 2 pi k 2**-53; ``tests/test_rng.py``'s
``test_gauss_rows_match_the_libm_box_muller_bitwise`` guards it.

The seed draws have batched forms under the same contract: :func:`derive_seeds`
is :func:`derive_seed` broadcast over integer arrays, masked alike, and row ``i``
of a :class:`StreamRows` draw is the same call on ``Stream(seeds[i])``, drawn
from the same row kernel; a draw at or above ``integer``'s rejection limit
consumes the next counter of its row only.

Constants (hex):
    GAMMA = 9E3779B97F4A7C15
    MIX1  = BF58476D1CE4E5B9
    MIX2  = 94D049BB133111EB
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U1, _U11, _U27, _U30, _U31 = (np.uint64(k) for k in (1, 11, 27, 30, 31))


def mix64(z: int) -> int:
    """SplitMix64 finalizer; all arithmetic mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Stream:
    """Counter-based 64-bit random stream with a fixed seed."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        self.counter += 1
        return mix64(self.seed + self.counter * _GAMMA)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        """Uniform double in (0, 1]; safe as a log argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on the top range."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def gauss(self) -> float:
        """Standard normal: the one-value :meth:`gauss_array`."""
        return float(self.gauss_array(1)[0])

    def gauss_array(self, n: int) -> np.ndarray:
        """The next ``n`` standard normals (Box-Muller), as a float64 array."""
        spare = [self._spare_gauss] if n and self._spare_gauss is not None else []
        pairs = (n - len(spare) + 1) // 2
        drawn = _gauss_pairs(np.array([self.seed], dtype=np.uint64), self.counter, pairs)
        self.counter += 2 * pairs
        out = np.concatenate([spare, drawn[0]])
        if n:  # a pair's unread r * sin is the next call's first value
            self._spare_gauss = float(out[n]) if len(out) > n else None
        return out[:n]

    def complex_gauss_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix of standard complex Gaussians, row-major fill order.

        The real parts are the first ``rows * cols`` draws and the
        imaginary parts the next ``rows * cols``.
        """
        return _complex_gauss(self.gauss_array(2 * rows * cols), rows, cols)

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy of ``items``."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.integer(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent child seed from a parent seed and indices."""
    z = int(seed) & _MASK64
    for idx in indices:
        z = mix64(z ^ mix64((int(idx) + 1) * _GAMMA))
    return z


def derive_seeds(seed, *indices) -> np.ndarray:
    """``derive_seed(seed, *indices)`` per entry of their broadcast, in a uint64 array."""
    z = _u64(seed)
    for idx in indices:
        z = _mixed(z ^ _mixed((_u64(idx) + _U1) * _U_GAMMA))
    return z


class StreamRows:
    """Row ``i`` of a draw, and ``counters[i]``, are the same call's on ``Stream(seeds[i])``."""

    def __init__(self, seeds):
        self.seeds = _u64(seeds).reshape(-1)
        self.counters = np.zeros(len(self.seeds), dtype=np.uint64)

    def _draw(self, n: int) -> np.ndarray:
        z = _u64_rows(self.seeds, self.counters[:, None] + np.arange(1, n + 1, dtype=np.uint64))
        self.counters += np.uint64(n)
        return z

    def uniform(self, n: int) -> np.ndarray:
        """Each row's next ``n`` :meth:`Stream.uniform` draws, ``(rows, n)``."""
        return (self._draw(n) >> _U11) * 2.0**-53

    def integer(self, bound, n: int = 1) -> np.ndarray:
        """Each row's next ``n`` ``Stream.integer(bound)`` draws; one bound or one per row."""
        bounds = np.broadcast_to(bound, self.seeds.shape).tolist()
        if min(bounds, default=1) <= 0:
            raise ValueError("bound must be positive")
        top = np.array([_MASK64 - (1 << 64) % b for b in bounds], dtype=np.uint64)
        cols = []
        for _ in range(n):
            x = self._draw(1)[:, 0]
            while (redo := np.flatnonzero(x > top)).size:  # a rejected draw is consumed
                self.counters[redo] += _U1
                x[redo] = _u64_rows(self.seeds[redo], self.counters[redo, None])[:, 0]
            # % on Python ints: numpy's uint64 % costs RSS at its first use
            cols.append([v % b for v, b in zip(x.tolist(), bounds)])
        return np.array(cols, dtype=np.int64).reshape(n, -1).T


def _u64(x) -> np.ndarray:
    """``int(v) & _MASK64`` of an integer or of each of a flat sequence or array of them."""
    if isinstance(x, np.ndarray):
        return np.atleast_1d(x.astype(np.uint64, copy=False))
    return np.array([int(v) & _MASK64 for v in np.atleast_1d(np.array(x, dtype=object))], np.uint64)


def _mixed(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of each entry of the uint64 array ``z``, in place."""
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def _u64_rows(seeds: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Row i: ``Stream(seeds[i]).next_u64()`` at the counters ``draws``, which it overwrites."""
    draws *= _U_GAMMA
    return _mixed(draws + seeds[:, None])


def _gauss_pairs(seeds: np.ndarray, counter: int, pairs: int) -> np.ndarray:
    """Each seed's next ``pairs`` Box-Muller pairs, ``r * cos`` then ``r * sin``:
    row ``i`` of the ``(len(seeds), 2 * pairs)`` array comes from uniform draws
    ``counter + 1 ... counter + 2 * pairs`` of ``Stream(seeds[i])``."""
    z = _u64_rows(seeds, np.arange(counter + 1, counter + 2 * pairs + 1, dtype=np.uint64))
    z >>= _U11
    # Draws 1, 3, 5, ... are uniform_open() and 2, 4, 6, ... uniform().
    u1 = (z[:, 0::2] + _U1) * 2.0**-53
    theta = z[:, 1::2] * 2.0**-53
    del z
    theta *= 2.0 * math.pi  # in place: at large d each temporary shows in peak RSS
    r = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64, u1.size).reshape(u1.shape)
    del u1
    np.sqrt(np.multiply(r, -2.0, out=r), out=r)
    r_cos = np.cos(theta)
    r_cos *= r
    r_sin = np.sin(theta, out=theta)
    r_sin *= r
    del r, theta
    return np.stack((r_cos, r_sin), axis=-1).reshape(len(seeds), 2 * pairs)


def gauss_rows(seeds, n: int) -> np.ndarray:
    """``[Stream(s).gauss_array(n) for s in seeds]`` as one ``(len(seeds), n)``
    array, drawn in one batch with the same bits."""
    return np.ascontiguousarray(_gauss_pairs(_u64(seeds), 0, (n + 1) // 2)[:, :n])


def complex_gauss_stack(seeds, rows: int, cols: int) -> np.ndarray:
    """``[Stream(s).complex_gauss_matrix(rows, cols) for s in seeds]`` as one
    ``(len(seeds), rows, cols)`` array, drawn in one batch."""
    return _complex_gauss(gauss_rows(seeds, 2 * rows * cols), rows, cols)


def _complex_gauss(g: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Complex matrices from Gaussian rows: real parts first, then imaginary."""
    re, im = g[..., : rows * cols], g[..., rows * cols :]
    return ((re + 1j * im) / math.sqrt(2.0)).reshape(g.shape[:-1] + (rows, cols))
