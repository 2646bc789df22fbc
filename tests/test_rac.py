import numpy as np
import pytest

from qilab import encoding as enc
from qilab import rac
from qilab.errors import ProtocolError
from qilab.protocol import run_protocol
from qilab.rng import Stream

COS2_PI8 = (2.0 + np.sqrt(2.0)) / 4.0
THREE_BIT_OPTIMUM = 0.5 + 1.0 / (2.0 * np.sqrt(3.0))


def test_bit_of():
    assert [rac.bit_of(0b101, i, 3) for i in range(3)] == [1, 0, 1]


def test_bloch_success_closed_form():
    # orthogonal-per-first-bit encoding: index 0 decoded perfectly,
    # index 1 carries nothing
    bloch = np.array([[0, 0, 1], [0, 0, 1], [0, 0, -1], [0, 0, -1]], dtype=float)
    assert rac.bloch_success(bloch, 2) == pytest.approx(0.75)


def test_bloch_success_matches_per_index_means():
    # reference: difference of the bit-0 and bit-1 mean Bloch vectors
    for n in (2, 3):
        g = Stream(40 + n).gauss_array(3 * 2**n).reshape(-1, 3)
        bloch = g / np.linalg.norm(g, axis=1, keepdims=True)
        total = 0.0
        for i in range(n):
            mask = np.array([rac.bit_of(x, i, n) for x in range(2**n)])
            d = bloch[mask == 0].mean(axis=0) - bloch[mask == 1].mean(axis=0)
            total += np.linalg.norm(d)
        expected = 0.5 + total / (4 * n)
        assert rac.bloch_success(bloch, n) == pytest.approx(expected, abs=1e-14)


def test_bloch_success_cube_vertices():
    # b_x = (s_0(x), s_1(x), s_2(x)) / sqrt(3): the 3-into-1 optimum
    signs = [[1 - 2 * rac.bit_of(x, i, 3) for i in range(3)] for x in range(8)]
    bloch = np.array(signs, dtype=float) / np.sqrt(3.0)
    assert rac.bloch_success(bloch, 3) == pytest.approx(THREE_BIT_OPTIMUM, abs=1e-14)


def _per_start_oracle(n, seed, starts):
    """The see-saw one start at a time, each drawing from the shared stream
    in turn; the first start of the highest success wins."""
    s = rac._signs(n)
    stream = Stream(seed)
    best_val, best = -1.0, None
    for _ in range(starts):
        g = stream.gauss_array(3 * (2**n + n)).reshape(-1, 3)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        bloch, u = g[: 2**n], g[2**n :]
        for _ in range(rac.SEESAW_ROUNDS):
            norms = np.linalg.norm(s @ bloch, axis=1, keepdims=True)
            u = np.divide(s @ bloch, norms, out=u.copy(), where=norms > 1e-12)
            norms = np.linalg.norm(s.T @ u, axis=1, keepdims=True)
            bloch = np.divide(s.T @ u, norms, out=bloch.copy(), where=norms > 1e-12)
        val = 0.5 + float(np.linalg.norm(s @ bloch, axis=1).sum()) / (2 ** (n - 1) * 4.0 * n)
        if val > best_val:
            best_val, best = val, bloch
    return best_val, best


@pytest.mark.parametrize("n, starts", [(2, 2), (3, 3), (3, 6), (1, 1), (4, 5)])
def test_oracle_starts_in_lockstep_equal_the_per_start_loop(n, starts):
    # 3 (2^n + n) draws per start: odd at n = 3, so a start's last Gaussian
    # is the spare of a Box-Muller pair whose first value the start before drew
    for seed in (5, 7, 91):
        val, bloch = rac.optimize_rac(n, seed=seed, starts=starts)
        want_val, want = _per_start_oracle(n, seed, starts)
        assert type(val) is float and val == want_val
        assert bloch.shape == want.shape and bloch.tobytes() == want.tobytes()


@pytest.mark.parametrize("starts", (1, 2, 6))
def test_oracle_normalizes_all_starts_in_one_call_per_half_step(monkeypatch, starts):
    calls = []
    unit_rows = rac._unit_rows

    def counting(v, prev):
        calls.append(v.shape)
        return unit_rows(v, prev)

    monkeypatch.setattr(rac, "_unit_rows", counting)
    rac.optimize_rac(2, seed=5, starts=starts)
    assert len(calls) == 2 * rac.SEESAW_ROUNDS
    assert set(calls) == {(starts, 2, 3), (starts, 4, 3)}


def test_bloch_success_of_a_stack_is_each_encoding_s():
    g = Stream(44).gauss_array(5 * 8 * 3).reshape(5, 8, 3)
    bloch = g / np.linalg.norm(g, axis=-1, keepdims=True)
    got = rac.bloch_success(bloch, 3)
    assert got.shape == (5,)
    assert got.tolist() == [rac.bloch_success(b, 3) for b in bloch]


def test_oracle_finds_two_bit_optimum():
    val, bloch = rac.optimize_rac(2, seed=5, starts=2)
    assert val == pytest.approx(COS2_PI8, abs=1e-12)
    assert np.allclose(np.linalg.norm(bloch, axis=1), 1.0, atol=1e-12)


def test_oracle_finds_three_bit_optimum():
    val, bloch = rac.optimize_rac(3, seed=7, starts=2)
    assert val == pytest.approx(THREE_BIT_OPTIMUM, abs=1e-12)
    assert bloch.shape == (8, 3)
    assert np.allclose(np.linalg.norm(bloch, axis=1), 1.0, atol=1e-12)


def test_protocol_matches_oracle_two_bits():
    val, bloch = rac.optimize_rac(2, seed=5, starts=2)
    spec = rac.rac_protocol(2, [rac.bloch_to_ket(b) for b in bloch])
    report = run_protocol(spec, rac.index_ensemble(2))
    assert 1.0 - report.error_avg == pytest.approx(val, abs=1e-9)
    assert 1.0 - report.error_avg == pytest.approx(COS2_PI8, abs=1e-3)
    assert spec.message_qubits == 1 and spec.rounds == 1


def test_lower_bound_chain_two_bits():
    _, bloch = rac.optimize_rac(2, seed=5, starts=2)
    spec = rac.rac_protocol(2, [rac.bloch_to_ket(b) for b in bloch])
    rep = rac.rac_lower_bound_check(spec, 2)
    assert rep.eps == pytest.approx(1.0 - COS2_PI8, abs=1e-3)
    assert rep.cost_floor <= rep.m
    assert rep.slack >= 0.0
    for link in rep.chain_slacks():
        assert link >= -1e-9
    assert rep.min_prefix_fano_slack >= -1e-9
    assert rep.info <= rep.m + 1e-9


def test_lower_bound_chain_three_bits():
    _, bloch = rac.optimize_rac(3, seed=7, starts=2)
    spec = rac.rac_protocol(3, [rac.bloch_to_ket(b) for b in bloch])
    rep = rac.rac_lower_bound_check(spec, 3)
    assert rep.slack >= 0.0
    for link in rep.chain_slacks():
        assert link >= -1e-9
    assert rep.min_prefix_fano_slack >= -1e-9


def test_classical_copy_protocol_equality():
    for n in (2, 3):
        spec = rac.classical_copy_protocol(n)
        rep = rac.rac_lower_bound_check(spec, n)
        assert rep.eps == pytest.approx(0.0, abs=1e-12)
        assert rep.cost_floor == pytest.approx(float(n), abs=1e-9)
        assert rep.m == n
        assert abs(rep.slack) <= 1e-9


def test_trivial_index_protocol():
    for n in (2, 3):
        spec = rac.trivial_index_protocol(n)
        report = run_protocol(spec, rac.index_ensemble(n))
        assert report.error_avg == pytest.approx(0.0, abs=1e-12)
        assert spec.rounds == 2
        assert spec.message_qubits == int(np.ceil(np.log2(n))) + 1


def test_lower_bound_check_rejects_multi_message():
    spec = rac.trivial_index_protocol(2)
    with pytest.raises(ProtocolError):
        rac.rac_lower_bound_check(spec, 2)


def test_message_encoding_states_are_the_kets():
    _, bloch = rac.optimize_rac(2, seed=5, starts=1)
    kets = [rac.bloch_to_ket(b) for b in bloch]
    spec = rac.rac_protocol(2, kets)
    ensemble = rac.message_encoding(spec, 2)
    for ket, sigma in zip(kets, ensemble.states):
        assert np.allclose(sigma.mat, np.outer(ket, ket.conj()), atol=1e-10)


def test_rac_bound_certifies_each_prefix_mixture_once(monkeypatch):
    # the prefix-information table serves both the decomposition sum and
    # the per-prefix Fano loop: one stacked certification of the mixture of
    # every prefix of 1 to n - 1 bits and of every shorter prefix's even
    # mixture, each built once; an (n - 1)-bit prefix's mixture is also its
    # even mixture, and its y0 and y1 are message states, not certified again
    certified = []
    original = enc.make_densities

    def counting(mats, *args, **kwargs):
        certified.append(len(mats))
        return original(mats, *args, **kwargs)

    monkeypatch.setattr(enc, "make_densities", counting)
    n = 3
    rac.rac_lower_bound_check(rac.classical_copy_protocol(n), n)
    assert certified == [2**n - 2 + 2 ** (n - 1) - 1] == [9]
