import math

import numpy as np
import pytest

from qilab import rng
from qilab.rng import Stream, derive_seed, mix64


def test_stream_is_deterministic():
    a = Stream(987654321)
    b = Stream(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_stream_frozen_regression():
    # frozen outputs; any change to the constants or counter logic breaks these
    s = Stream(1)
    assert [s.next_u64() for _ in range(3)] == [
        10451216379200822465,
        13757245211066428519,
        17911839290282890590,
    ]


def test_gauss_frozen_regression():
    # frozen outputs of the scalar definition that gauss_array must match
    s = Stream(1)
    assert [s.gauss() for _ in range(4)] == [
        -0.028249746095854695,
        -1.065617648414326,
        -0.2279195228676347,
        0.0830941684715009,
    ]


def _scalar_gauss(s, n):
    return np.array([s.gauss() for _ in range(n)], dtype=np.float64)


def _scalar_complex(s, rows, cols):
    re = _scalar_gauss(s, rows * cols)
    im = _scalar_gauss(s, rows * cols)
    return ((re + 1j * im) / math.sqrt(2.0)).reshape(rows, cols)


# (method, args) steps; gauss_array sizes cover 0, 1, 2, 3 and odd sizes
# above 100, each reached with and without a spare variate held.
_STEPS = [
    ("gauss_array", (0,)),
    ("gauss_array", (1,)),
    ("gauss_array", (0,)),
    ("gauss_array", (1,)),
    ("gauss_array", (2,)),
    ("gauss", ()),
    ("gauss_array", (2,)),
    ("gauss_array", (3,)),
    ("gauss_array", (3,)),
    ("uniform", ()),
    ("gauss_array", (101,)),
    ("complex_gauss_matrix", (3, 4)),
    ("gauss_array", (4097,)),
    ("integer", (7,)),
    ("complex_gauss_matrix", (1, 1)),
    ("gauss", ()),
    ("complex_gauss_matrix", (5, 3)),
    ("gauss_array", (333,)),
    ("complex_gauss_matrix", (16, 16)),
]
_SCALAR_FORMS = {"gauss_array": _scalar_gauss, "complex_gauss_matrix": _scalar_complex}


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 1])
def test_batched_gauss_matches_scalar_bit_for_bit(seed):
    # seed + c * GAMMA wraps mod 2**64 from the first draw at these seeds
    batched, scalar = Stream(seed), Stream(seed)
    spares = set()
    for method, args in _STEPS:
        got = np.asarray(getattr(batched, method)(*args))
        if method in _SCALAR_FORMS:
            want = _SCALAR_FORMS[method](scalar, *args)
        else:
            want = np.asarray(getattr(scalar, method)(*args))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (method, args)
        assert batched.counter == scalar.counter
        assert batched._spare_gauss == scalar._spare_gauss
        spares.add(scalar._spare_gauss is None)
    assert spares == {True, False}


def test_mix64_zero():
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789


def test_uniform_range():
    s = Stream(7)
    xs = [s.uniform() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.03


def test_uniform_open_never_zero():
    s = Stream(8)
    assert all(0.0 < s.uniform_open() <= 1.0 for _ in range(2000))


def test_integer_bounds_and_coverage():
    s = Stream(9)
    xs = [s.integer(6) for _ in range(3000)]
    assert set(xs) == set(range(6))


def test_gauss_moments():
    s = Stream(10)
    xs = s.gauss_array(20000)
    assert abs(np.mean(xs)) < 0.03
    assert abs(np.std(xs) - 1.0) < 0.03


def test_complex_gauss_matrix_shape_and_determinism():
    a = Stream(11).complex_gauss_matrix(3, 4)
    b = Stream(11).complex_gauss_matrix(3, 4)
    assert a.shape == (3, 4)
    assert np.array_equal(a, b)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(10))
    a = Stream(12).shuffled(items)
    b = Stream(12).shuffled(items)
    assert sorted(a) == items and a == b
    assert items == list(range(10))


def test_derive_seed_spreads():
    seeds = {derive_seed(5, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100


_ROW_SEEDS = [0, 1, 2**64 - 1, derive_seed(7, 3), -5]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 17, 18, 19, 101, 128])
def test_gauss_rows_match_per_seed_gauss_array(n):
    # the multi-seed kernel must give each seed's gauss() bits for every n,
    # odd or even, as a per-seed gauss_array does
    want = np.array([_scalar_gauss(Stream(s), n) for s in _ROW_SEEDS])
    assert want.tobytes() == np.array([Stream(s).gauss_array(n) for s in _ROW_SEEDS]).tobytes()
    got = rng.gauss_rows(_ROW_SEEDS, n)
    assert got.dtype == want.dtype and got.shape == (len(_ROW_SEEDS), n)
    assert got.tobytes() == want.tobytes()
    assert rng.gauss_rows([], n).shape == (0, n)


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 2), (8, 8)])
def test_complex_gauss_stack_matches_per_seed_matrices(rows, cols):
    want = np.array([_scalar_complex(Stream(s), rows, cols) for s in _ROW_SEEDS])
    got = rng.complex_gauss_stack(_ROW_SEEDS, rows, cols)
    assert got.shape == (len(_ROW_SEEDS), rows, cols)
    assert got.tobytes() == want.tobytes()


def _libm_gauss(seed, n):
    """The reference Box-Muller stream: a pair at a time, with libm's
    ``log``, ``cos`` and ``sin`` through :mod:`math`."""
    s, out = Stream(seed), []
    while len(out) < n:
        u1, u2 = s.uniform_open(), s.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return np.array(out[:n], dtype=np.float64)


def test_gauss_rows_match_the_libm_box_muller_bitwise():
    # numpy's float64 cos and sin must be libm's, bit for bit, or every seed's states move
    seeds = [derive_seed(170, i) for i in range(64)]
    want = np.array([_libm_gauss(s, 4096) for s in seeds])
    assert rng.gauss_rows(seeds, 4096).tobytes() == want.tobytes()
    assert Stream(seeds[0]).gauss() == want[0, 0]


def _math_log(u):
    return np.array([math.log(x) for x in np.ravel(u).tolist()]).reshape(np.shape(u))


# Box-Muller log arguments (k + 1) 2**-53 where numpy's own (SIMD) float64
# log rounds otherwise than libm's (about 0.35% of them with numpy 2.4 on
# x86-64): at every length the log route must take libm's path, not numpy's
# kernel, even for a single value
_UNIFORMS = (np.random.default_rng(53).integers(0, 2**53, 2**20, dtype=np.uint64) + 1) * 2.0**-53
_HARD = _UNIFORMS[np.log(_UNIFORMS) != _math_log(_UNIFORMS)]
_HARD = _HARD if _HARD.size else _UNIFORMS[:4096]  # a numpy whose own log is libm's


@pytest.mark.parametrize("n", range(1, 71))
def test_the_log_route_is_libms_bitwise_at_every_length(n):
    hard, edges = np.resize(_HARD, 3 * n), np.resize([2.0**-53, 1.0, *_HARD[:5]], 3 * n)
    for arg in (hard[:n], edges[:n], hard.reshape(3, n), edges.reshape(n, 3)[:, 1:]):
        got = rng._log(arg)
        assert got.dtype == np.float64 and got.shape == arg.shape
        assert got.tobytes() == _math_log(arg).tobytes(), arg.shape
    assert rng._log(np.array([2.0**-53, 1.0])).tolist() == [math.log(2.0**-53), 0.0]


@pytest.mark.parametrize("shape", [(2**20,), (1000, 1001)])
def test_the_log_route_is_libms_bitwise_at_a_million_values(shape):
    u = np.resize(_UNIFORMS, shape)
    assert rng._log(u).tobytes() == _math_log(u).tobytes()


def test_gaussian_draws_make_no_per_value_python_log(monkeypatch):
    seeds = [derive_seed(171, i) for i in range(5)]
    want = rng.complex_gauss_stack(seeds, 9, 7).tobytes()

    def no_log(x):
        raise AssertionError("per-value math.log")

    monkeypatch.setattr(math, "log", no_log)
    assert rng.complex_gauss_stack(seeds, 9, 7).tobytes() == want
    assert Stream(seeds[0]).gauss_array(1).tobytes() == rng.gauss_rows(seeds[:1], 1)[0].tobytes()


# 2**63 and -1 reach the top bit and the wrap of (index + 1) * GAMMA
_INDICES = [0, 1, 2**32, 2**63, -1]


@pytest.mark.parametrize("seed", [1, -5, 2**64 - 1])
def test_derive_seeds_match_derive_seed_over_broadcast_shapes(seed):
    got = rng.derive_seeds(seed, 7, np.arange(3)[:, None], _INDICES)
    assert got.dtype == np.uint64 and got.shape == (3, len(_INDICES))
    assert got.tolist() == [[derive_seed(seed, 7, t, i) for i in _INDICES] for t in range(3)]
    # uint64 parents, one per row, as a batch of trials derives its states' seeds
    parents = got[:, :1]
    want = [[derive_seed(p, i) for i in _INDICES] for (p,) in parents.tolist()]
    assert rng.derive_seeds(parents, _INDICES).tolist() == want
    assert rng.derive_seeds(seed).tolist() == [derive_seed(seed)]


@pytest.mark.parametrize("bound", range(1, 9))
def test_stream_rows_match_each_seeds_stream(bound):
    # power-of-two bounds have no rejection limit; a row's bounds may differ
    rows = rng.StreamRows(_ROW_SEEDS)
    draws = [rows.uniform(3), rows.integer(bound, 4), rows.integer([1, 2, 3, 5, 8]), rows.uniform(2)]
    for i, seed in enumerate(_ROW_SEEDS):
        s = Stream(seed)
        want = [
            [s.uniform() for _ in range(3)],
            [s.integer(bound) for _ in range(4)],
            [s.integer([1, 2, 3, 5, 8][i])],
            [s.uniform() for _ in range(2)],
        ]
        assert [d[i].tolist() for d in draws] == want
        assert int(rows.counters[i]) == s.counter
    assert rng.StreamRows([]).integer(3, 2).shape == (0, 2)
    with pytest.raises(ValueError):
        rng.StreamRows([1]).integer(0)


def test_a_rejected_integer_draw_shifts_its_row_only():
    # this seed's first draw is 2**64 - 1, at integer(3)'s rejection limit
    seed = 0x31628AF67B2131AB
    assert Stream(seed).next_u64() == 2**64 - 1
    s = Stream(seed)
    assert s.integer(3) == 1 and s.counter == 2
    rows = rng.StreamRows([seed, 1])
    draws = [rows.integer(3, 2), rows.uniform(2)]
    assert rows.counters.tolist() == [5, 4]
    for i, seed in enumerate([seed, 1]):
        s = Stream(seed)
        want = [[s.integer(3) for _ in range(2)], [s.uniform() for _ in range(2)]]
        assert [d[i].tolist() for d in draws] == want
        assert int(rows.counters[i]) == s.counter
