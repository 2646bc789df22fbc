import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qilab import linalg
from qilab import protocol as proto
from qilab import rac
from qilab import reduction as red
from qilab.errors import ProtocolError, SizeError
from qilab.rng import Stream
from qilab.states import random_unitary

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def copy_protocol():
    layout = proto.make_layout(
        [("x", 1, "input", "alice"), ("m", 1, "message", "alice")]
    )
    moves = (proto.Move("alice", (1,), {1: proto.X}, controls=(0,), send=(1,)),)
    meas = proto.Measurement("bob", (1,), {0: (P0, P1)})
    return proto.ProtocolSpec(layout, moves, meas)


def uniform_bit_ensemble():
    return proto.InputEnsemble(proto.InputColumns({"x": [0, 1]}), [0.5, 0.5], [0, 1])


def test_empty_protocol_fixed_work_qubit():
    layout = proto.make_layout([("w", 1, "work", "alice")])
    spec = proto.ProtocolSpec(
        layout, (), proto.Measurement("alice", (0,), {0: (P0, P1)})
    )
    report = proto.run_protocol(spec, proto.InputEnsemble(proto.InputColumns({}), [1.0], [0]))
    assert report.outcome_distributions[0].tolist() == [1.0, 0.0]
    assert report.error_avg == 0.0
    assert spec.message_qubits == 0 and spec.rounds == 0


def test_copy_protocol_counts_and_error():
    spec = copy_protocol()
    report = proto.run_protocol(spec, uniform_bit_ensemble())
    assert report.error_avg == pytest.approx(0.0, abs=1e-12)
    assert spec.message_qubits == 1
    assert spec.first_message_qubits == 1
    assert spec.rounds == 1


def test_ensemble_weights_must_be_non_negative():
    # 1.5 and -0.5 sum to 1, yet are no distribution
    for weights in ((1.5, -0.5), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="non-negative"):
            proto.InputEnsemble(proto.InputColumns({"x": [0, 1]}), weights, [0, 1])


@pytest.mark.parametrize("target", (-1, 2))
def test_target_outside_the_outcomes_is_rejected(target):
    # -1 would score the last outcome, 2 would index past the outcomes
    ensemble = rac.index_ensemble(2)
    targets = [target, *ensemble.targets[1:]]
    bad = proto.InputEnsemble(ensemble.inputs, ensemble.weights, targets)
    with pytest.raises(ProtocolError, match=f"target {target} is not an outcome 0..1"):
        proto.run_protocol(rac.classical_copy_protocol(2), bad)


@pytest.mark.parametrize(
    "amps", (np.zeros(2), [np.nan, 1.0], [np.inf, 0.0]), ids=("zero", "nan", "inf")
)
def test_bad_amplitude_vectors_are_rejected_when_built(amps):
    # each used to run through to error_avg = nan and (nan, nan) outcomes
    with pytest.raises(ValueError, match="'x': amplitudes must be finite and not all zero"):
        proto.InputColumns({}, {"x": amps})


@pytest.mark.parametrize(
    "values, message",
    (
        ({"x": np.array([], dtype=int)}, r"one length of at least 1, got \{0\}"),
        ({"x": [0, 1], "y": [0]}, r"one length of at least 1, got \{1, 2\}"),
        ({"x": [0.0, 1.0]}, "register 'x': basis values must be a column of integers"),
        ({"x": [True, False]}, "register 'x': basis values must be a column of integers"),
    ),
    ids=("empty", "unequal", "float", "bool"),
)
def test_bad_value_columns_are_rejected_when_built(values, message):
    with pytest.raises(ValueError, match=message):
        proto.InputColumns(values)


def test_float_target_is_rejected():
    with pytest.raises(ValueError, match=r"targets must be integers, got float64 \[1.0\]"):
        proto.InputEnsemble(proto.InputColumns({"x": [1]}), [1.0], [1.0])


def test_bool_target_is_rejected():
    with pytest.raises(ValueError, match=r"targets must be integers, got bool \[True\]"):
        proto.InputEnsemble(proto.InputColumns({"x": [1]}), [1.0], [True])


def test_unknown_register_name_is_rejected():
    # it used to be ignored, so the run scored the all-zero input
    ensemble = proto.InputEnsemble(proto.InputColumns({"nosuch": [1]}), [1.0], [0])
    with pytest.raises(ProtocolError, match=r"no registers named \['nosuch'\] in the layout"):
        proto.run_protocol(copy_protocol(), ensemble)


@pytest.mark.parametrize(
    "inputs, message",
    (
        (proto.InputColumns({"x": [0, 2]}), "value 2 out of range for register x"),
        (proto.InputColumns({"x": [-1, 0]}), "value -1 out of range for register x"),
        (proto.InputColumns({}, {"x": np.ones(4)}), "state length mismatch for register x"),
    ),
)
def test_inputs_must_fit_the_layout(inputs, message):
    with pytest.raises(SizeError, match=message):
        proto.initial_states(copy_protocol().layout, inputs)


def test_apply_unitary_matches_dense_kron():
    # oracle: dense matrix built with explicit kron factors
    state = Stream(120).complex_gauss_matrix(8, 1).reshape(-1)
    state /= np.linalg.norm(state)
    u = random_unitary(2, 121)
    got = proto.apply_unitary(state, 3, u, (1,))
    dense = np.kron(np.kron(np.eye(2), u), np.eye(2))
    assert np.allclose(got, dense @ state, atol=1e-12)

    v = random_unitary(4, 122)
    got2 = proto.apply_unitary(state, 3, v, (2, 0))
    # permute axes to (q2, q0, q1), apply v (x) I, permute back
    swap = np.zeros((8, 8))
    for b in range(8):
        bits = [(b >> 2) & 1, (b >> 1) & 1, b & 1]
        target = (bits[2] << 2) | (bits[0] << 1) | bits[1]
        swap[target, b] = 1.0
    dense2 = swap.T @ np.kron(v, np.eye(2)) @ swap
    assert np.allclose(got2, dense2 @ state, atol=1e-12)


def test_reduced_density_matches_partial_trace():
    state = Stream(123).complex_gauss_matrix(8, 1).reshape(-1)
    state /= np.linalg.norm(state)
    rho = np.outer(state, state.conj())
    got = proto.reduced_density(state, 3, [0])
    expected = linalg.partial_trace(rho, 2, 4, "H")
    assert np.allclose(got, expected, atol=1e-12)


def test_ownership_violation_rejected():
    layout = proto.make_layout(
        [("x", 1, "input", "alice"), ("y", 1, "input", "bob")]
    )
    with pytest.raises(ProtocolError):
        proto.ProtocolSpec(
            layout,
            (proto.Move("alice", (1,), {1: proto.X}, controls=(0,)),),
            proto.Measurement("bob", (1,), {0: (P0, P1)}),
        )


def test_reading_the_other_players_input_is_rejected_when_built():
    # Alice's move is controlled by Bob's input y: no spec exists that a
    # simulator could run, message_states included
    layout = proto.make_layout(
        [("x", 1, "input", "alice"), ("y", 1, "input", "bob"), ("m", 1, "message", "alice")]
    )
    with pytest.raises(ProtocolError, match="alice does not own qubit 1"):
        proto.ProtocolSpec(
            layout,
            (proto.Move("alice", (2,), {1: proto.X}, controls=(1,), send=(2,)),),
            proto.Measurement("bob", (2,), {0: (P0, P1)}),
        )


def test_sending_unowned_qubit_rejected():
    layout = proto.make_layout(
        [("x", 1, "input", "alice"), ("y", 1, "input", "bob")]
    )
    with pytest.raises(ProtocolError):
        proto.ProtocolSpec(
            layout,
            (proto.Move("alice", (0,), {}, send=(1,)),),
            proto.Measurement("bob", (1,), {0: (P0, P1)}),
        )


def test_input_register_write_rejected():
    # inputs can only be controls: listing one as a target is refused when
    # the spec is built, whatever the block (X or H would rewrite it)
    layout = proto.make_layout(
        [("x", 1, "input", "alice"), ("m", 1, "message", "alice")]
    )
    for gate in (proto.X, proto.H, proto.I2):
        with pytest.raises(ProtocolError, match="input"):
            proto.ProtocolSpec(
                layout,
                (proto.Move("alice", (0,), {0: gate}),),
                proto.Measurement("alice", (1,), {0: (P0, P1)}),
            )
    # a wire cannot be both a control and a target
    with pytest.raises(ProtocolError, match="control and target"):
        proto.ProtocolSpec(
            layout,
            (proto.Move("alice", (1,), {1: proto.X}, controls=(1,)),),
            proto.Measurement("alice", (1,), {0: (P0, P1)}),
        )


def test_controlled_read_of_input_is_allowed():
    assert copy_protocol().rounds == 1  # built, so the walk accepted it


def test_non_unitary_move_rejected():
    layout = proto.make_layout([("w", 1, "work", "alice")])
    with pytest.raises(ProtocolError):
        proto.ProtocolSpec(
            layout,
            (proto.Move("alice", (0,), {0: np.array([[1.0, 0.0], [0.0, 0.5]])}),),
            proto.Measurement("alice", (0,), {0: (P0, P1)}),
        )


def test_a_failed_verdict_raises_in_every_spec_built_with_it(monkeypatch):
    # the unitarity verdict is kept on the move's table, which a copy by
    # replace shares, and the projective one on the measurement: a failing
    # object raises wherever it is built in, a passing one is judged once
    layout = proto.make_layout([("w", 1, "work", "alice"), ("v", 1, "work", "alice")])
    meas = proto.Measurement("alice", (0,), {0: (P0, P1)})
    bad = proto.Move("alice", (0,), {0: np.array([[1.0, 0.0], [0.0, 0.5]])})
    good = proto.Move("alice", (1,), {0: proto.H})
    for moves in ((bad,), (bad,), (good, replace(bad, send=())), (replace(bad, targets=(0,)),)):
        with pytest.raises(ProtocolError, match=f"move {len(moves) - 1}: a block is not unitary"):
            proto.ProtocolSpec(layout, moves, meas)
    assert replace(bad).table is bad.table and bad.table.unitary is False

    judged = []
    validate = proto.validate_projective
    monkeypatch.setattr(proto, "validate_projective", lambda *a: judged.append(a) or validate(*a))
    not_projective = proto.Measurement("alice", (0,), {0: (P0, P0)})
    for _ in range(2):
        with pytest.raises(ValueError, match="do not sum to the identity"):
            proto.ProtocolSpec(layout, (good,), not_projective)
    for _ in range(3):
        proto.ProtocolSpec(layout, (good,), meas)
    assert len(judged) == 2 + 1


def test_measurement_ownership_enforced():
    layout = proto.make_layout(
        [("x", 1, "input", "alice"), ("m", 1, "message", "alice")]
    )
    with pytest.raises(ProtocolError):
        proto.ProtocolSpec(
            layout,
            (proto.Move("alice", (1,), {0: proto.I2}),),  # never sent
            proto.Measurement("bob", (1,), {0: (P0, P1)}),
        )


def test_exact_mode_is_deterministic():
    a = proto.run_protocol(copy_protocol(), uniform_bit_ensemble())
    b = proto.run_protocol(copy_protocol(), uniform_bit_ensemble())
    assert a.error_avg == b.error_avg
    assert a.instance_errors.tobytes() == b.instance_errors.tobytes()
    assert a.outcome_distributions.tobytes() == b.outcome_distributions.tobytes()


def test_superposed_input_distribution():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    ens = proto.InputEnsemble(proto.InputColumns({}, {"x": plus}), [1.0], [0])
    report = proto.run_protocol(copy_protocol(), ens)
    assert report.outcome_distributions[0] == pytest.approx((0.5, 0.5))


def test_basis_inputs_are_classical_bits():
    layout = copy_protocol().layout
    state = proto.initial_states(layout, proto.InputColumns({"x": [1]}))
    assert state.bits == {0: 1} and state.wires == (1,)
    assert np.allclose(state.vec, [1.0, 0.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    state = proto.initial_states(layout, proto.InputColumns({}, {"x": plus}))
    assert state.bits == {} and state.wires == (0, 1)
    # the classical control bits select the block
    one, zero = (proto.initial_states(layout, proto.InputColumns({"x": [b]})) for b in (1, 0))
    table = proto.BlockTable({1: proto.X}, 1)
    flipped = one.apply((0,), (1,), table)
    assert np.allclose(flipped.vec, [0.0, 1.0])
    kept = zero.apply((0,), (1,), table)
    assert np.allclose(kept.vec, [1.0, 0.0])


def test_bipartite_orders_the_simulated_wires():
    layout = proto.make_layout([("a", 1, "work", "alice"), ("b", 1, "work", "bob")])
    state = proto.initial_states(layout, proto.InputColumns({"a": [0], "b": [1]}))
    assert np.allclose(state.bipartites((1,), (0,))[0].vec, [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ProtocolError):
        state.bipartites((1,), ())


def test_state_prep_unitary():
    vec = Stream(124).complex_gauss_matrix(8, 1).reshape(-1)
    vec /= np.linalg.norm(vec)
    u = proto.state_prep_unitary(vec)
    assert np.allclose(u @ np.eye(8)[:, 0], vec, atol=1e-10)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10


def test_layout_validation():
    with pytest.raises(ProtocolError):
        proto.RegisterLayout(
            (proto.Register("a", (0, 2), "input", "alice"),)
        )
    with pytest.raises(SizeError):
        proto.make_layout([("big", 9, "work", "alice")])


def test_total_variation():
    assert proto.total_variation([1, 0], [0, 1]) == pytest.approx(1.0)
    assert proto.total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    # a stack: one distance per pair of rows, each the 1-d call bit for bit
    p = Stream(125).gauss_array(12).reshape(4, 3) ** 2
    q = Stream(126).gauss_array(12).reshape(4, 3) ** 2
    p, q = p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)
    got = proto.total_variation(p, q)
    assert got.shape == (4,)
    assert got.tolist() == [proto.total_variation(a, b) for a, b in zip(p, q)]


def test_operator_cap():
    # controls never enter a dense operator: x(8) + i(3) + m fits, with the
    # copy as one CNOT per bit and the code as one 2x2 block per x
    _, bloch = rac.optimize_rac(8, seed=5, starts=1)
    kets = [rac.bloch_to_ket(b) for b in bloch]
    ensemble = rac.index_ensemble(8)
    tracemalloc.start()
    try:
        copy = rac.classical_copy_protocol(8)
        code = rac.rac_protocol(8, kets)
        copy_report = proto.run_protocol(copy, ensemble)
        code_report = proto.run_protocol(code, ensemble)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22  # a dense copy operator on the 16 x + m wires is 64 GiB
    assert copy_report.error_avg == 0.0
    assert 0.5 <= 1.0 - code_report.error_avg <= 1.0
    layout = proto.make_layout(
        [("x", 9, "input", "alice"), ("m", 1, "message", "alice")]
    )
    with pytest.raises(SizeError):
        proto.ProtocolSpec(
            layout,
            (proto.Move("alice", tuple(range(9)), {0: np.eye(2**9)}),),
            proto.Measurement("alice", (9,), {0: (P0, P1)}),
        )


# ---------------------------------------------------------------------------
# Dense reference: every wire in one state vector, every operator embedded.
# ---------------------------------------------------------------------------


def _embed(controls, targets, blocks, n, default=None):
    """The 2^n x 2^n operator applying blocks[b] (``default`` when b is
    missing) on ``targets`` where the ``controls`` read b, entry by entry."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        b = int("0" + "".join(str(bits[q]) for q in controls), 2)
        block = np.asarray(blocks[b] if b in blocks else default)
        t_in = int("0" + "".join(str(bits[q]) for q in targets), 2)
        for t_out in range(2 ** len(targets)):
            row_bits = list(bits)
            for k, q in enumerate(targets):
                row_bits[q] = (t_out >> (len(targets) - 1 - k)) & 1
            out[int("".join(map(str, row_bits)), 2), col] += block[t_out, t_in]
    return out


def dense_distributions(spec, ensemble):
    n = len(spec.layout.initial_owner())
    moves = [
        _embed(m.controls, m.targets, m.blocks, n, np.eye(2 ** len(m.targets)))
        for m in spec.moves
    ]
    meas = spec.final_measurement
    projs = [
        _embed(meas.controls, meas.targets, {b: p[k] for b, p in meas.blocks.items()}, n)
        for k in range(len(meas.blocks[0]))
    ]
    cols = {name: col.tolist() for name, col in ensemble.inputs.values.items()}
    out = []
    for row in range(len(ensemble.weights)):
        register_states = {**{k: col[row] for k, col in cols.items()}, **ensemble.inputs.amplitudes}
        state = np.ones(1, dtype=complex)
        for reg in spec.layout.registers:
            val = register_states.get(reg.name, 0)
            if isinstance(val, (int, np.integer)):
                piece = np.eye(reg.dim)[val]
            else:
                piece = np.asarray(val, dtype=complex) / np.linalg.norm(val)
            state = np.kron(state, piece)
        for u in moves:
            state = u @ state
        probs = np.array([np.vdot(state, p @ state).real for p in projs])
        out.append(probs / probs.sum())
    return np.array(out)


def assert_matches_dense(spec, ensemble):
    got = np.array(proto.run_protocol(spec, ensemble).outcome_distributions)
    assert np.max(np.abs(got - dense_distributions(spec, ensemble))) <= 1e-12


def test_dense_reference_index_protocols():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    superposed = proto.InputEnsemble(proto.InputColumns({}, {"x": plus}), [1.0], [0])
    assert_matches_dense(copy_protocol(), uniform_bit_ensemble())
    assert_matches_dense(copy_protocol(), superposed)
    _, bloch = rac.optimize_rac(2, seed=5, starts=2)
    kets = [rac.bloch_to_ket(b) for b in bloch]
    for spec in (
        rac.rac_protocol(2, kets),
        rac.classical_copy_protocol(2),
        rac.trivial_index_protocol(2),
    ):
        assert_matches_dense(spec, rac.index_ensemble(2))
    for spec in (rac.classical_copy_protocol(3), rac.trivial_index_protocol(3)):
        assert_matches_dense(spec, rac.index_ensemble(3))


def test_dense_reference_two_round_family():
    for reads, blocks in red.openings(2).values():
        fam = red.two_round_family(reads, blocks)
        for j in (0, 1):
            for superposed in (True, False):
                ensemble = red.slice_distribution(fam, j, superposed)
                assert_matches_dense(fam.spec, ensemble)


def test_dense_reference_derived_parity_protocol():
    # P' of parity reads the superposed ancilla psi in the control slot of
    # y_j, next to the other y register, now a simulated work wire
    fam = red.two_round_family(*red.openings(2)["parity"])
    for j in (0, 1):
        spec_prime, _ = red.modify_first_message(fam, j)
        assert len(spec_prime.layout.initial_owner()) == 9
        for superposed in (True, False):
            assert_matches_dense(spec_prime, red.slice_distribution(fam, j, superposed))


def test_measurement_projectors_are_checked_per_control_value():
    # one stacked check, but each control value's projectors must sum to
    # the identity on their own
    layout = proto.make_layout([("x", 1, "input", "alice"), ("m", 1, "message", "alice")])
    def build(blocks):
        return proto.ProtocolSpec(layout, (), proto.Measurement("alice", (1,), blocks, controls=(0,)))

    build({0: (P0, P1), 1: (P1, P0)})
    with pytest.raises(ValueError, match="identity"):
        build({0: (P0, P1), 1: (P0, P0)})
