"""The batched simulator plays a stack of inputs bit for bit as one input
at a time would.

The reference below is the one-input simulator written out: classical
bits in a dict, one state vector built with ``np.outer``, each move's
blocks gathered for the values that input's bits allow, one matmul per
move, and one ``np.vdot`` per outcome. Reports and message densities are
compared through their bytes, so even the sign of a zero must match.
"""

import numpy as np
import pytest

from qilab import protocol as proto
from qilab import rac
from qilab import reduction as red
from qilab import states
from qilab.rng import Stream

STYLES = tuple(red.openings(2))


def input_rows(inputs):
    """Each row of ``inputs`` as a register -> basis value or amplitudes dict."""
    cols = {name: col.tolist() for name, col in inputs.values.items()}
    rows = range(len(inputs))
    return [{**{k: col[i] for k, col in cols.items()}, **inputs.amplitudes} for i in rows]


def _ref_initial(layout, register_states):
    bits, wires, vec = {}, [], np.ones(1, dtype=np.complex128)
    for reg in layout.registers:
        val = register_states.get(reg.name, 0)
        if isinstance(val, (int, np.integer)):
            if reg.kind == "input":
                for k, q in enumerate(reg.qubits):
                    bits[q] = (int(val) >> (reg.n_qubits - 1 - k)) & 1
                continue
            piece = np.zeros(reg.dim, dtype=np.complex128)
            piece[int(val)] = 1.0
        else:
            piece = np.asarray(val, dtype=np.complex128).reshape(-1)
            piece = piece / np.linalg.norm(piece)
        wires.extend(reg.qubits)
        vec = np.outer(vec, piece).reshape(-1)
    return bits, tuple(wires), vec


def _ref_apply(bits, wires, vec, controls, targets, blocks):
    values = [0]
    for k, q in enumerate(controls):
        options = (bits[q],) if q in bits else (0, 1)
        values = [v | bit << (len(controls) - 1 - k) for v in values for bit in options]
    listed = [v in blocks for v in values]
    if not any(listed):
        return vec
    eye = None if all(listed) else np.eye(2 ** len(targets), dtype=np.complex128)
    stack = np.asarray([blocks.get(v, eye) for v in values])
    free = [wires.index(q) for q in controls if q not in bits]
    tpos = [wires.index(q) for q in targets]
    n, c, t = len(wires), len(free), len(targets)
    perm = [*free, *tpos, *(ax for ax in range(n) if ax not in tpos and ax not in free)]
    psi = vec.reshape((2,) * n).transpose(perm).reshape(2**c, 2**t, -1)
    psi = stack.reshape(2**c, 2**t, 2**t) @ psi
    inverse = sorted(range(n), key=perm.__getitem__)
    return psi.reshape((2,) * n).transpose(inverse).reshape(-1)


def _ref_evolve(moves, bits, wires, vec):
    for move in moves:
        vec = _ref_apply(bits, wires, vec, move.controls, move.targets, move.blocks)
    return vec


def reference_run(spec, ensemble):
    """(error_avg, instance_errors, outcome_distributions), one input at a time."""
    meas = spec.final_measurement
    per_outcome = [dict(zip(meas.blocks, p)) for p in zip(*meas.blocks.values())]
    dists, errors = [], []
    for register_states, target in zip(input_rows(ensemble.inputs), ensemble.targets.tolist()):
        bits, wires, vec = _ref_initial(spec.layout, register_states)
        vec = _ref_evolve(spec.moves, bits, wires, vec)
        projected = [_ref_apply(bits, wires, vec, meas.controls, meas.targets, b) for b in per_outcome]
        arr = np.array([float(np.vdot(vec, w).real) for w in projected])
        dist = arr / arr.sum()
        dists.append(tuple(float(p) for p in dist))
        errors.append(1.0 - float(dist[target]))
    error_avg = float(sum(w * e for w, e in zip(ensemble.weights.tolist(), errors)))
    return error_avg, tuple(errors), tuple(dists)


def reference_message_mats(spec, inputs):
    moves = spec.moves[: spec.first_message_index() + 1]
    mats = []
    for register_states in input_rows(inputs):
        bits, wires, vec = _ref_initial(spec.layout, register_states)
        vec = _ref_evolve(moves, bits, wires, vec)
        keep = [wires.index(q) for q in moves[-1].send]
        rest = [q for q in range(len(wires)) if q not in keep]
        m = vec.reshape((2,) * len(wires)).transpose(keep + rest).reshape(2 ** len(keep), -1)
        mats.append(m @ np.conj(m.T))
    return [rho.mat for rho in states.make_densities(mats, tol=1e-8)]


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_run_matches_reference(spec, ensemble):
    report = proto.run_protocol(spec, ensemble)
    error_avg, errors, dists = reference_run(spec, ensemble)
    assert report.error_avg == error_avg
    assert _bytes([report.error_avg]) == _bytes([error_avg])
    assert _bytes(report.instance_errors) == _bytes(errors)
    assert _bytes(report.outcome_distributions) == _bytes(dists)


def assert_messages_match_reference(spec, inputs):
    got = [rho.mat for rho in proto.message_states(spec, inputs)]
    want = reference_message_mats(spec, inputs)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.tobytes() == b.tobytes(), f"row {i}"


def _random_kets(n: int, seed: int) -> list[np.ndarray]:
    g = Stream(seed).complex_gauss_matrix(2**n, 2)
    return [row / np.linalg.norm(row) for row in g]


def _two_round_inputs(j):
    slot = proto.InputColumns({f"y{j}": [0, 1]}, {f"y{1 - j}": red.PLUS})
    joint = proto.InputColumns({"y0": [0, 0, 1, 1], "y1": [0, 1, 0, 1]})
    return slot, joint


@pytest.mark.parametrize("style", STYLES)
def test_two_round_family_matches_the_one_input_reference(style):
    fam = red.two_round_family(*red.openings(2)[style])
    for j in (0, 1):
        for superposed in (True, False):
            assert_run_matches_reference(fam, red.slice_distribution(fam, j, superposed))
        for inputs in _two_round_inputs(j):
            assert_messages_match_reference(fam, inputs)


@pytest.mark.parametrize("style", STYLES)
def test_derived_protocols_match_the_one_input_reference(style):
    # P' and P'' as run_pipelines builds them, on both slices of each slot
    fam = red.two_round_family(*red.openings(2)[style])
    for j in (0, 1):
        spec_prime, first = red.modify_first_message([(fam, j)])[0]
        spec_double, _ = red.drop_first_message([(fam, spec_prime, first)])[0]
        for spec in (spec_prime, spec_double):
            for superposed in (True, False):
                assert_run_matches_reference(spec, red.slice_distribution(fam, j, superposed))
        for inputs in _two_round_inputs(j):
            assert_messages_match_reference(spec_prime, inputs)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_index_protocols_match_the_one_input_reference(n):
    ensemble = rac.index_ensemble(n)
    kets = _random_kets(n, 500 + n)
    code = rac.rac_protocol(n, kets)
    for spec in (code, rac.classical_copy_protocol(n), rac.trivial_index_protocol(n)):
        assert_run_matches_reference(spec, ensemble)
    for spec in (code, rac.classical_copy_protocol(n)):
        assert_messages_match_reference(spec, proto.InputColumns({"x": np.arange(2**n)}))


def test_one_input_branch_is_the_one_row_batch():
    fam = red.two_round_family(*red.openings(2)["parity"])
    inputs = red.slice_distribution(fam, 1).inputs
    batch = proto.evolve(fam.moves, proto.initial_states(fam.layout, inputs, slice(5)))
    for i in range(5):
        one = proto.initial_states(fam.layout, inputs, slice(i, i + 1))
        one = proto.evolve(fam.moves, one)
        assert one.wires == batch.wires and one.vec.shape == (1, batch.vec.shape[1])
        assert one.vec[0].tobytes() == batch.vec[i].tobytes()
        assert {q: int(b[0]) for q, b in one.bits.items()} == {
            q: int(b[i]) for q, b in batch.bits.items()
        }


def test_apply_unitary_on_a_stack_is_the_per_row_call():
    stream = Stream(130)
    vecs = stream.complex_gauss_matrix(5, 16)
    u = stream.complex_gauss_matrix(5 * 2 * 4, 4).reshape(5, 2, 4, 4)
    got = proto.apply_unitary(vecs, 4, u, (3, 1), (0,))
    for row in range(5):
        want = proto.apply_unitary(vecs[row], 4, u[row], (3, 1), (0,))
        assert got[row].tobytes() == want.tobytes()


@pytest.fixture
def counted(monkeypatch):
    calls = {"apply": 0, "apply_unitary": 0, "batch_rows": []}
    apply, apply_unitary, initial_states = (
        proto.Branch.apply,
        proto.apply_unitary,
        proto.initial_states,
    )

    def counting_apply(self, *args):
        calls["apply"] += 1
        return apply(self, *args)

    def counting_apply_unitary(*args):
        calls["apply_unitary"] += 1
        return apply_unitary(*args)

    def counting_initial_states(layout, inputs, rows=slice(None)):
        out = initial_states(layout, inputs, rows)
        calls["batch_rows"].append(len(out.vec))
        return out

    monkeypatch.setattr(proto.Branch, "apply", counting_apply)
    monkeypatch.setattr(proto, "apply_unitary", counting_apply_unitary)
    monkeypatch.setattr(proto, "initial_states", counting_initial_states)
    return calls


def test_each_move_is_applied_once_per_batch(counted):
    fam = red.two_round_family(*red.openings(2)["copy_first"])
    ensemble = red.slice_distribution(fam, 0)
    proto.run_protocol(fam, ensemble)
    outcomes = len(fam.final_measurement.blocks[0])
    # the 32 slice inputs simulate the same wires: one batch
    assert counted["batch_rows"] == [len(ensemble.weights)] == [32]
    assert counted["apply"] == len(fam.moves) + outcomes
    assert counted["apply_unitary"] <= counted["apply"]


def test_batches_hold_at_most_block_entries(counted):
    # the copy protocol at n = 8 simulates its 8 message wires: 256
    # amplitudes per input, so 2,048 inputs go in 32 batches of 64
    spec = rac.classical_copy_protocol(8)
    report = proto.run_protocol(spec, rac.index_ensemble(8))
    assert report.error_avg == 0.0
    assert counted["batch_rows"] == [states.BLOCK_ENTRIES // 256] * 32
    outcomes = len(spec.final_measurement.blocks[0])
    assert counted["apply"] == 32 * (len(spec.moves) + outcomes)
