"""Average-encoding distances and information decompositions.

For a uniform encoding of m-bit strings into mixed states, the pairwise
average distance Delta and the distance-to-mean Delta' obey

    Delta' <= Delta <= 2 sqrt(I(X:Q)),
    I(X:Q) >= 1 - H(1/2 + Delta/4),

where I(X:Q) is the Holevo information of the ensemble. The information
floor comes from pairing the labels: each pair is a one-bit sub-ensemble
whose two states are Delta_i apart in trace norm, so the optimal
distinguishing measurement plus the binary-predictor bound give it at
least 1 - H(1/2 + Delta_i/4) bits, and convexity plus a pairing whose
average distance reaches Delta finish the argument. Note the quarter in
the entropy argument: the single-bit case (m = 1) also satisfies the
stronger floor 1 - H(1/2 + Delta/2), but for m >= 2 that stronger form
is false (random ensembles violate it), so only the m = 1 instance of
it is certified here. The 2 sqrt(I) bound follows from the same pairing
plus the quadratic entropy-gap estimate, so it is unaffected.

The module also provides the pairing search itself and the prefix-wise
decomposition of the ensemble information.
"""

from __future__ import annotations

import numpy as np

from . import states
from .errors import PairingSearchError, SizeError
from .info import binary_entropy, holevo_informations
# trace_distance is unused here, but perfbench/tests/test_tracing.py asserts it
from .metrics import trace_distance, trace_norm  # noqa: F401
from .rng import Stream
from .states import mixture_matrix


PAIRING_TRIES = 200  # random pairings find_pairing draws before it gives up
PAIRING_TOL = 1e-10  # how far below Delta a found pairing's average may fall


def pairwise_distances(mats) -> np.ndarray:
    """Trace distances of all pairs of each cube's states, ``(cubes, n, dim,
    dim)`` to ``(cubes, n, n)``: per cube, batched ``eigvalsh`` calls on the
    differences of at most :data:`~qilab.states.BLOCK_ENTRIES` entries each
    (they are Hermitian, so no general SVD is needed)."""
    mats = np.asarray(mats)
    cubes, n, _, dim = mats.shape
    rows, cols = np.triu_indices(n, 1)
    step = max(1, states.BLOCK_ENTRIES // dim**2)
    d = np.zeros((cubes, n, n))
    for cube, out in zip(mats, d):
        for k in range(0, len(rows), step):
            i, j = rows[k : k + step], cols[k : k + step]
            out[i, j] = out[j, i] = trace_norm(cube[i] - cube[j], hermitian=True)
    return d


def pairwise_distance_matrix(mats) -> np.ndarray:
    """The distance matrix of one cube's states ``(n, dim, dim)``: the one-cube
    :func:`pairwise_distances`."""
    return pairwise_distances(np.asarray(mats)[None])[0]


def distances_to_mean(mats, averages) -> np.ndarray:
    """Delta', the mean trace distance of each cube's states ``(cubes, n, dim,
    dim)`` to its average state ``(cubes, dim, dim)``, in one stacked call."""
    diffs = np.asarray(averages)[:, None] - np.asarray(mats)
    return np.mean(trace_norm(diffs, hermitian=True), axis=-1)


def pairing_average(d, pairing) -> float | np.ndarray:
    """(2 / n) * the sum of the paired distances, added left to right, of a
    distance matrix ``d`` and a pairing (k, 2); of a stack (..., n, n) and
    pairings (..., k, 2) of as many axes, broadcast, an array."""
    d, p = np.asarray(d), np.asarray(pairing)
    n = d.shape[-1]
    flat, at = d.reshape(*d.shape[:-2], n * n), p[..., 0] * n + p[..., 1]
    paired = flat[at] if d.ndim == 2 else np.take_along_axis(flat, at, axis=-1)
    total = 0.0
    for k in range(paired.shape[-1]):
        total = total + paired[..., k]
    out = 2.0 / n * np.asarray(total)
    return out if out.ndim else float(out)


def find_pairing(d: np.ndarray, seed: int) -> tuple[tuple[int, int], ...]:
    """Random perfect pairing whose average distance reaches Delta.

    ``d`` is the pairwise distance matrix of a uniform cube ensemble.
    The expected average over a uniformly random pairing exceeds Delta by
    a factor 2^m / (2^m - 1), so a short keep-best search succeeds; if
    ``PAIRING_TRIES`` draws run out the best pairing found is reported in
    the raised error.
    """
    n = d.shape[0]
    if d.shape != (n, n) or n < 2 or n & (n - 1):
        raise SizeError(f"need a square power-of-two side >= 2, got {d.shape}")
    delta = float(np.mean(d))
    stream = Stream(seed)
    best: tuple[tuple[int, int], ...] = ()
    best_avg = -np.inf
    for _ in range(PAIRING_TRIES):
        order = stream.shuffled(list(range(n)))
        pairing = tuple(tuple(sorted(order[i : i + 2])) for i in range(0, n, 2))
        avg = pairing_average(d, pairing)
        if avg > best_avg:
            best_avg = avg
            best = pairing
        if best_avg >= delta - PAIRING_TOL:
            return best
    message = f"no pairing reached Delta={delta} in {PAIRING_TRIES} tries (best {best_avg})"
    raise PairingSearchError(message, best, best_avg)


def enumerate_pairings(n: int):
    """All perfect pairings of range(n); (n-1)!! of them, use n <= 8."""
    yield from _pairings_of(tuple(range(n)))


def _pairings_of(items):
    if not items:
        yield ()
    for k in range(1, len(items)):
        for sub in _pairings_of(items[1:k] + items[k + 1 :]):
            yield ((items[0], items[k]),) + sub


def information_floor(delta, m: int = 2) -> float | np.ndarray:
    """Provable lower bound on I(X:Q) given the average distance Delta.

    The pairing argument yields 1 - H(1/2 + Delta/4) for every m; a
    single-bit ensemble additionally satisfies the stronger
    1 - H(1/2 + Delta/2). Elementwise on an array.
    """
    if m == 1:
        return 1.0 - binary_entropy(0.5 + np.minimum(delta, 1.0) / 2.0)
    return 1.0 - binary_entropy(0.5 + np.minimum(delta, 2.0) / 4.0)


def _run_means(mats: np.ndarray, span: int) -> np.ndarray:
    """The uniform mixture of each run of ``span`` consecutive matrices of the
    stack ``mats``, all runs in one :func:`mixture_matrix` pass."""
    runs = mats.reshape(-1, span, *mats.shape[1:])
    return mixture_matrix(np.full(span, 1.0 / span), [runs[:, s] for s in range(span)])


def prefix_mixtures(mats, m: int) -> list[np.ndarray]:
    """The uncertified uniform mixtures of the cube states ``mats`` extending
    each prefix of 1 to m - 1 bits, by length and then in binary order;
    then, for each prefix y of fewer than m - 1 bits, the even mixture of
    those extending y0 and y1 (at m = 1, of the two states). An (m - 1)-bit
    prefix's mixture is also the even mixture of its two cube states, so
    it is listed once."""
    mats = np.asarray(mats)
    if m < 1 or len(mats) != 2**m:
        raise SizeError(f"need a cube of 2^m states at m = {m}, got {len(mats)}")
    pairs = [_run_means(mats, 2**k) for k in range(m - 1, 0, -1)]
    means = [_run_means(p, 2) for p in pairs] if pairs else [_run_means(mats, 2)]
    return list(np.concatenate([*pairs, *means]))


def prefix_table(state_entropies, entropies, m: int) -> list:
    """The information of each bit given each prefix, from the entropies of
    the 2^m cube states and of the certified ``prefix_mixtures(mats, m)``, all
    from one :func:`~qilab.info.holevo_informations`: row i lists, for the
    i-bit prefixes y in binary order, that of the bit after y. Of stacks
    (..., 2^m) and (..., k) of cubes, row i is an array (..., 2^i)."""
    state_entropies, entropies = np.asarray(state_entropies), np.asarray(entropies)
    n_pairs = 2**m - 2  # the mixtures of the prefixes of 1 to m - 1 bits
    lead = state_entropies.shape[:-1]
    want = (*lead, 2**m), (*lead, n_pairs + max(2 ** (m - 1) - 1, 1))
    shapes = state_entropies.shape, entropies.shape
    if shapes != want:
        raise SizeError(f"need entropies of shapes {want} at m = {m}, got {shapes}")
    pairs = np.concatenate([entropies[..., :n_pairs], state_entropies], axis=-1)
    # an (m - 1)-bit prefix's even mixture is its own, among the pairs (at m = 1, listed last)
    last = entropies[..., max(n_pairs - 2 ** (m - 1), 0) : n_pairs]
    means = np.concatenate([entropies[..., n_pairs:], last], axis=-1)
    pairs = pairs.reshape(*lead, -1, 2)
    infos = holevo_informations(np.full(pairs.shape, 0.5), pairs, means)
    rows = np.split(infos, 2 ** np.arange(1, m) - 1, axis=-1)
    return rows if lead else [row.tolist() for row in rows]
