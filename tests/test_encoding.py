from collections import namedtuple

import numpy as np
import pytest

from qilab import encoding as enc
from qilab import info, metrics, states
from qilab.errors import SizeError
from qilab.rng import Stream, derive_seed


def cube(seed, m, dim):
    return [
        states.random_density(dim, 1 + Stream(derive_seed(seed, x)).integer(dim), derive_seed(seed, x))
        for x in range(2**m)
    ]


def _mats(rows):
    return np.array([states.DensityMatrix(*row).mat for row in rows])


Stats = namedtuple("Stats", "delta_pairwise delta_to_mean info pairing distances")


def _encoding_stats(rows, seed=7):
    # Delta, Delta', I, a witnessing pairing and the distance matrix of one
    # uniform cube of (stack, j) rows, each from its one-cube column form
    mats, priors = _mats(rows), np.full(len(rows), 1.0 / len(rows))
    d = enc.pairwise_distance_matrix(mats)
    to_mean = enc.distances_to_mean(mats[None], states.mixture_matrix(priors, mats)[None])
    chi = info.holevo_information(priors, rows)
    return Stats(float(np.mean(d)), float(to_mean[0]), chi, enc.find_pairing(d, seed), d)


def _prefix_information(rows, m):
    # the prefix table of one cube of rows, its prefix mixtures certified in one call
    mixtures = states.make_densities(enc.prefix_mixtures(_mats(rows), m))
    entropies = [states.DensityMatrix(*row).entropy for row in rows]
    return enc.prefix_table(entropies, [rho.entropy for rho in mixtures], m)


def test_stats_identical_states():
    rho = states.random_density(2, 2, 100)
    stats = _encoding_stats([rho] * 4)
    assert stats.delta_pairwise == pytest.approx(0.0, abs=1e-10)
    assert stats.delta_to_mean == pytest.approx(0.0, abs=1e-10)
    assert stats.info == pytest.approx(0.0, abs=1e-10)


def test_stats_single_bit_orthogonal():
    # direct evaluation: Delta = (1/4)(0 + 2 + 2 + 0) = 1
    stats = _encoding_stats([states.pure_density([1, 0]), states.pure_density([0, 1])])
    assert stats.delta_pairwise == pytest.approx(1.0, abs=1e-12)
    assert stats.info == pytest.approx(1.0, abs=1e-12)
    assert stats.delta_pairwise <= 2 * np.sqrt(stats.info)
    assert stats.pairing == ((0, 1),)


def test_stats_randomized_chain():
    for t in range(40):
        m = 1 + t % 4
        stats = _encoding_stats(cube(derive_seed(101, t), m, 2 + t % 4))
        assert stats.delta_to_mean <= stats.delta_pairwise + 1e-8
        assert stats.delta_pairwise <= 2 * np.sqrt(stats.info) + 1e-8
        assert stats.info >= enc.information_floor(stats.delta_pairwise, m) - 1e-8
        assert 0.0 <= stats.delta_pairwise <= 2.0
        covered = sorted(i for pair in stats.pairing for i in pair)
        assert covered == list(range(2**m))


def test_single_bit_floor_uses_stronger_form():
    for t in range(25):
        stats = _encoding_stats(cube(derive_seed(102, t), 1, 2 + t % 5))
        floor = 1.0 - info.binary_entropy((1.0 + stats.delta_pairwise) / 2.0)
        assert stats.info >= floor - 1e-8


def test_multi_bit_violates_half_argument_floor():
    # the half-argument floor is not a theorem for m >= 2; seeded random
    # instances break it while satisfying the provable quarter form
    found = False
    for t in range(60):
        stats = _encoding_stats(cube(derive_seed(103, t), 2, 3))
        if stats.delta_pairwise <= 1.0:
            floor_half = 1.0 - info.binary_entropy(
                (1.0 + stats.delta_pairwise) / 2.0
            )
            if stats.info < floor_half - 1e-6:
                found = True
                assert stats.info >= enc.information_floor(
                    stats.delta_pairwise, m=2
                ) - 1e-8
                break
    assert found, "expected at least one half-argument floor violation"


def test_find_pairing_single_bit():
    d = enc.pairwise_distance_matrix(_mats(cube(104, 1, 3)))
    assert enc.find_pairing(d, seed=5) == ((0, 1),)


def test_find_pairing_identical_states():
    rho = states.random_density(2, 1, 105)
    pairing = enc.find_pairing(enc.pairwise_distance_matrix(_mats([rho] * 8)), seed=6)
    assert sorted(i for p in pairing for i in p) == list(range(8))


def test_find_pairing_beats_delta_and_respects_optimum():
    for t in range(12):
        d = enc.pairwise_distance_matrix(_mats(cube(derive_seed(106, t), 3, 2 + t % 3)))
        delta = float(np.sum(d)) / 64.0
        pairing = enc.find_pairing(d, seed=derive_seed(107, t))
        found = enc.pairing_average(d, pairing)
        assert found >= delta - 1e-10
        best = max(enc.pairing_average(d, p) for p in enc.enumerate_pairings(8))
        assert found <= best + 1e-10


def test_find_pairing_rejects_bad_shapes():
    with pytest.raises(SizeError):
        enc.find_pairing(np.zeros((3, 3)), seed=1)
    with pytest.raises(SizeError):
        enc.find_pairing(np.zeros((4, 2)), seed=1)


@pytest.mark.parametrize("batch", [None, 3 * 8**2])
def test_stacked_distances_match_per_pair_loop_bit_for_bit(batch, monkeypatch):
    # reference: one trace_distance call per pair, as the loop computed it;
    # a small batch size splits the pairs over several eigvalsh calls
    if batch is not None:
        monkeypatch.setattr(states, "BLOCK_ENTRIES", batch)
    for m in range(6):
        for dim in range(2, 9):
            rows = cube(derive_seed(114, m, dim), m, dim)
            n, mats = 2**m, _mats(rows)
            loop = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    loop[i, j] = loop[j, i] = metrics.trace_distance(rows[i], rows[j])
            assert np.array_equal(enc.pairwise_distance_matrix(mats), loop)
            assert np.array_equal(enc.pairwise_distances(mats[None])[0], loop)
            if m == 0:
                assert loop.shape == (1, 1)
                continue
            mean = states.make_density(states.mixture_matrix(np.full(n, 1.0 / n), mats))
            to_mean = float(np.mean([metrics.trace_distance(mean, s) for s in rows]))
            assert _encoding_stats(rows).delta_to_mean == to_mean


def test_enumerate_pairings_count():
    assert sum(1 for _ in enc.enumerate_pairings(8)) == 105
    assert sum(1 for _ in enc.enumerate_pairings(4)) == 3


def test_prefix_mixture_cases():
    mats = _mats(cube(108, 2, 3))
    # the mixtures over prefixes "0" and "1" (the pair of prefix ""), then
    # their even mixture; those of "0" and "1" are their own mixtures, of
    # the cube's states "00", "01" and "10", "11"
    zero, one, full = enc.prefix_mixtures(mats, 2)
    assert np.allclose(full, np.mean(mats, axis=0), atol=1e-12)
    # oracle: direct two-term mixture
    assert np.allclose(zero, (mats[0] + mats[1]) / 2, atol=1e-12)
    assert np.allclose(one, (mats[2] + mats[3]) / 2, atol=1e-12)
    (only,) = enc.prefix_mixtures(mats[:2], 1)
    assert np.array_equal(only, zero)


def test_prefix_table_takes_one_entropy_triple_per_prefix():
    # at m = 2, 4 state entropies and 3 mixture entropies, those of "0",
    # "1" and "": the pair and the mixture of prefix "", and the mixtures
    # of "0" and "1", whose pairs are the states; any other count raises,
    # as it would make a table of the wrong shape or leave an entropy unread
    assert enc.prefix_table([0.0] * 4, [1.0, 1.0, 1.0], 2) == [[0.0], [1.0, 1.0]]
    table = enc.prefix_table([0.0, 1.0, 0.0, 0.0], [0.5, 1.0, 1.0], 2)
    assert table == [[0.25], [0.0, 1.0]]
    assert enc.prefix_table([0.0, 1.0], [1.0], 1) == [[0.5]]
    match = r"^need entropies of shapes \(\(4,\), \(3,\)\) at m = 2, got"
    for n_states, n_mixtures in ((4, 0), (4, 2), (4, 4), (4, 5), (3, 3), (8, 3)):
        with pytest.raises(SizeError, match=match):
            enc.prefix_table([0.0] * n_states, [0.0] * n_mixtures, 2)
    with pytest.raises(SizeError, match=r"shapes \(\(2,\), \(1,\)\) at m = 1"):
        enc.prefix_table([0.0, 1.0], [], 1)


def test_prefix_information_validation():
    # the prefix mixtures read a cube of exactly 2^m states: 8 states at
    # m = 2 would give the mixtures of another cube's pairs, not m = 2's
    mats = np.array([states.random_density(2, 2, 109).mat] * 8)
    for n_states, m in ((8, 2), (4, 3), (2, 2), (4, 1), (1, 0)):
        with pytest.raises(SizeError, match=rf"2\^m states at m = {m}, got {n_states}$"):
            enc.prefix_mixtures(mats[:n_states], m)
    assert len(enc.prefix_mixtures(mats[:4], 2)) == 3


def _prefix_density(mats, m, prefix):
    # the uniform mixture of the states whose label extends the prefix: the
    # run of 2^(m - len(prefix)) consecutive states it reads as a number
    span, k = 2 ** (m - len(prefix)), int(prefix or "0", 2)
    runs = list(mats[k * span : (k + 1) * span])
    return states.make_density(states.mixture_matrix(np.full(span, 1.0 / span), runs))


def _per_prefix_information(mats, m):
    # the table as bit ensembles of single-density prefix mixtures
    return [
        [
            info.holevo_information(
                [0.5, 0.5], [_prefix_density(mats, m, y + "0"), _prefix_density(mats, m, y + "1")]
            )
            for y in (format(k, f"0{i}b") if i else "" for k in range(2**i))
        ]
        for i in range(m)
    ]


@pytest.mark.parametrize("m", range(1, 6))
def test_prefix_information_matches_the_per_prefix_path_bitwise(m):
    for dim in range(2, 9):
        # ranks cycle from 1, so every cube holds rank-1 members
        rows = [
            states.random_density(dim, 1 + x % dim, derive_seed(112, m, dim, x)) for x in range(2**m)
        ]
        assert _prefix_information(rows, m) == _per_prefix_information(_mats(rows), m)


def test_encoding_suite_seeds_the_average_and_table_bitwise():
    from qilab import suites

    cubes = suites._cube_trials((1 + t % 5, 2 + t % 7, derive_seed(113, t)) for t in range(20))
    chunks = states.random_density_chunks(cubes, suites._encoding_derived)
    for (ms, _), stacks, _ in (group for chunk in chunks for group in chunk):
        m = int(ms[0])
        for i in range(len(ms)):
            rows = [(s, i) for s in stacks]
            mats, average = _mats(rows[: 2**m]), states.DensityMatrix(*rows[2**m])
            direct = states.make_density(states.mixture_matrix(np.full(2**m, 1.0 / 2**m), mats))
            assert np.array_equal(average.mat, direct.mat)
            assert np.array_equal(average.eig.eigenvalues, direct.eig.eigenvalues)
            if m <= 4:
                assert len(rows) == 2**m + 1 + 2**m - 2 + max(2 ** (m - 1) - 1, 1)
                state_entropies = [s.entropies[j] for s, j in rows[: 2**m]]
                entropies = [s.entropies[j] for s, j in rows[2**m + 1 :]]
                assert enc.prefix_table(state_entropies, entropies, m) == _per_prefix_information(mats, m)
            else:
                assert len(rows) == 2**m + 1


def _per_cube_slacks(stats, m, state_entropies, entropies):
    # the encoding suite's slacks of one cube, as it formed them from its
    # encoding stats, Python floats, before it read columns of cubes
    delta, d = stats.delta_pairwise, stats.distances
    paired = 2.0 / len(d) * float(sum(d[i, j] for i, j in stats.pairing))  # left to right
    slacks = {
        "delta_prime_le_delta": delta - stats.delta_to_mean,
        "delta_le_two_sqrt_info": 2.0 * np.sqrt(stats.info) - delta,
        "info_floor_quarter": stats.info - enc.information_floor(delta, m=2),
        "pairing_bound": paired - delta,
    }
    if delta <= 1.0:
        half = 1.0 - info.binary_entropy((1.0 + delta) / 2.0)
        slacks.update(info_floor_half=stats.info - half, entropy_gap_quarter=half - delta**2 / 4.0)
    if m <= 4:
        table = enc.prefix_table(state_entropies, entropies, m)
        slacks["info_decomposition"] = stats.info - sum(float(np.mean(row)) for row in table)
    return slacks


def test_the_column_formulas_are_encoding_stats_per_cube_bitwise():
    # every (m, dim) column of a seed-1 encoding pass, then five lone cubes
    # (m = 1...5), a column each: the column formulas and the suite's slacks
    # equal the encoding stats and the per-cube slacks on each cube's rows,
    # bit for bit (Python's x**2 and numpy's array square differ in the last bit)
    from qilab import suites
    from qilab.rng import derive_seeds

    t = np.arange(200)
    passes = [
        zip(1 + t % 5, 2 + t % 7, derive_seeds(1, 30, t).tolist()),
        [(m, 1 + m, derive_seed(115, m)) for m in range(1, 6)],
    ]
    half = ("info_floor_half", "entropy_gap_quarter")  # of the cubes at Delta <= 1 only
    every = np.array(list(enc.enumerate_pairings(8)))
    seen = set()
    for cases in passes:
        chunks = states.random_density_chunks(suites._cube_trials(cases), suites._encoding_derived)
        for (ms, seeds), stacks, _ in (group for chunk in chunks for group in chunk):
            m, c = int(ms[0]), len(ms)
            n = 2**m
            seen.add((m, c == 1))
            mats = np.stack([s.mats for s in stacks[:n]], axis=1)
            d = enc.pairwise_distances(mats)
            delta, to_mean = np.mean(d, axis=(1, 2)), enc.distances_to_mean(mats, stacks[n].mats)
            ent = np.stack([s.entropies for s in stacks], axis=1)
            chi = info.holevo_informations(np.full((c, n), 1.0 / n), ent[:, :n], ent[:, n])
            slacks = suites._encoding_slacks(ms, seeds, stacks)
            near = 0  # cubes at Delta <= 1 so far
            for i, seed in enumerate(seeds.tolist()):
                rows = [(s, i) for s in stacks]
                stats = _encoding_stats(rows[:n], seed=derive_seed(seed, 99))
                assert stats.distances.tobytes() == d[i].tobytes()
                assert (stats.delta_pairwise, stats.delta_to_mean, stats.info) == (
                    delta[i], to_mean[i], chi[i]
                )
                stacked = enc.pairing_average(d, [stats.pairing] * c)[i]
                assert stacked == enc.pairing_average(d[i], stats.pairing)
                want = _per_cube_slacks(stats, m, ent[i, :n], ent[i, n + 1 :])
                assert {k: slacks[k][near if k in half else i] for k in want} == want
                near += stats.delta_pairwise <= 1.0
                if m == 3:
                    exhaustive = [enc.pairing_average(d[i], p) for p in enc.enumerate_pairings(8)]
                    assert enc.pairing_average(d[:, None], every[None])[i].tolist() == exhaustive
            lengths = {k: len(v) for k, v in slacks.items()}
            assert lengths == {k: near if k in half else c for k in slacks}
            assert ("info_decomposition" in slacks) == (m <= 4) and len(slacks) == 6 + (m <= 4)
    assert seen == {(m, lone) for m in range(1, 6) for lone in (False, True)}


def test_the_gap_quarter_and_root_slacks_round_as_their_scalar_forms(monkeypatch):
    # Deltas at which Python's x**2 and numpy's array square differ in the last
    # bit stand in for a column's: its slacks must read as the scalar forms do
    from qilab import suites

    x = np.random.default_rng(5).random(100_000)
    odd = x[x**2 != np.array([v**2 for v in x.tolist()])]
    cubes = suites._cube_trials((1, 2, derive_seed(116, k)) for k in range(40))
    (((ms, seeds), stacks, _),) = next(states.random_density_chunks(cubes, suites._encoding_derived))
    # each single-bit cube's distances [[0, 2x], [2x, 0]], whose mean is x exactly
    fake = 2.0 * odd[:40, None, None] * (1.0 - np.eye(2))
    assert len(ms) == 40 and np.mean(fake, axis=(1, 2)).tolist() == odd[:40].tolist()
    monkeypatch.setattr(enc, "pairwise_distances", lambda mats: fake)
    slacks = suites._encoding_slacks(ms, seeds, stacks)
    ent = np.stack([s.entropies for s in stacks], axis=1)
    chi = info.holevo_informations(np.full((40, 2), 0.5), ent[:, :2], ent[:, 2]).tolist()
    for i, (delta, chi_i) in enumerate(zip(odd.tolist(), chi)):
        half = 1.0 - info.binary_entropy((1.0 + delta) / 2.0)
        assert slacks["entropy_gap_quarter"][i] == half - delta**2 / 4.0
        assert slacks["info_floor_half"][i] == chi_i - half
        assert slacks["delta_le_two_sqrt_info"][i] == 2.0 * np.sqrt(chi_i) - delta


def _decomposition(rows, m):
    # the prefix-wise information sum, as the encoding suite forms it, and
    # the whole ensemble's information
    lhs = sum(float(np.mean(row)) for row in _prefix_information(rows, m))
    return lhs, info.holevo_information(np.full(2**m, 1.0 / 2**m), rows)


def test_info_decomposition_identical():
    rho = states.random_density(2, 1, 110)
    lhs, rhs = _decomposition([rho] * 4, 2)
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-10)


def test_info_decomposition_orthogonal_two_bits():
    # two bits encoded into two qubits via orthogonal basis states
    basis = [np.zeros(4) for _ in range(4)]
    for i in range(4):
        basis[i][i] = 1.0
    lhs, rhs = _decomposition([states.pure_density(b) for b in basis], 2)
    assert lhs == pytest.approx(2.0, abs=1e-9)
    assert rhs == pytest.approx(2.0, abs=1e-9)


def test_info_decomposition_sweep():
    for t in range(30):
        m = 1 + t % 4
        lhs, rhs = _decomposition(cube(derive_seed(111, t), m, 2 + t % 3), m)
        assert lhs <= rhs + 1e-9


def test_cube_validation():
    # a cube of 3 states is refused on each column route: its pairing, its
    # information and its prefix mixtures
    rows = cube(112, 1, 2) + [states.random_density(2, 1, 112)]
    with pytest.raises(SizeError):
        enc.find_pairing(enc.pairwise_distance_matrix(_mats(rows)), seed=1)
    with pytest.raises(SizeError, match="power-of-two state count, got 3"):
        info.uniform_cube_informations([rows])
    for m in (1, 2):
        with pytest.raises(SizeError):
            enc.prefix_mixtures(_mats(rows), m)


@pytest.mark.parametrize("m", range(1, 5))
def test_prefix_mixtures_match_the_per_prefix_loop_bitwise(m):
    # one mixture_matrix call per prefix mixture, as each was summed before;
    # the last length's pairs are copies of the states and its even
    # mixtures copies of the pairs before it: neither is listed
    for dim in range(2, 9):
        mats = [
            states.random_density(dim, 1 + x % dim, derive_seed(114, m, dim, x)).mat
            for x in range(2**m)
        ]
        pairs, means, last = [], [], []
        for i in range(m):
            span = 2 ** (m - i - 1)
            for y in range(2**i):
                pair = [
                    states.mixture_matrix(np.full(span, 1.0 / span), mats[k * span : (k + 1) * span])
                    for k in (2 * y, 2 * y + 1)
                ]
                mean = states.mixture_matrix((0.5, 0.5), pair)
                if i < m - 1:
                    pairs += pair
                    means.append(mean)
                else:
                    assert all(np.array_equal(a, b) for a, b in zip(pair, mats[2 * y : 2 * y + 2]))
                    last.append(mean)
        assert all(np.array_equal(a, b) for a, b in zip(last, pairs[len(pairs) - len(last) :]))
        loop = pairs + means if m > 1 else last
        stacked = enc.prefix_mixtures(mats, m)
        assert len(stacked) == len(loop) == 2**m - 2 + max(2 ** (m - 1) - 1, 1)
        for k, (a, b) in enumerate(zip(stacked, loop)):
            assert np.array_equal(a, b), f"d={dim} mixture {k}"
