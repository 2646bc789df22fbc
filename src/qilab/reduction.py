"""Round reduction for two-round nested-index protocols.

The problem family: Alice holds n inner strings x_1..x_n (each ``inner``
bits) and a pointer a; Bob holds n inner indices y_1..y_n; the answer is
bit y_a of x_a. With two messages and Bob (who lacks the pointer)
speaking first, his opening message can carry little about any fixed
slot y_j, and the pipeline makes that operational in three steps:

  P   the original protocol, scored on the slice distribution where the
      pointer is fixed to j, x's are uniform classical, y_j is uniform
      classical, and every other y register starts in the uniform
      superposition;
  P'  the same protocol with the first message computed from a fresh
      ancilla in place of y_j (so it carries zero information about y_j)
      followed by a corrective rotation on Bob's side, one unitary per
      value of y_j, obtained by purification alignment;
  P'' the first message dropped altogether: Alice prepares the known
      message state herself, purifies it across an extra register she
      sends along with her own move, and Bob's corrective becomes an
      exact local transition. One round fewer, same outcome statistics.

Every inequality along the way is measured exactly and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import protocol as proto
from .errors import ReductionError
from .info import holevo_information, make_ensemble
from .metrics import trace_distance
from .protocol import (
    H,
    I2,
    InputEnsemble,
    InputInstance,
    Measurement,
    Move,
    ProtocolSpec,
    Register,
    RegisterLayout,
    block_diagonal,
    make_layout,
    ry,
    run_protocol,
    state_prep_unitary,
    total_variation,
)
from .states import (
    BipartitePureState,
    canonical_purification,
    distance_up_to_phase,
    make_density,
    make_pure,
)
from .transition import apply_k_unitary, exact_local_transition, uhlmann_align

PLUS = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class NestedIndexInstance:
    """One concrete input of the two-level index problem."""

    n: int
    inner_bits: int
    x: tuple[int, ...]
    a: int
    y: tuple[int, ...]

    def value(self) -> int:
        return bit_value(self.x[self.a], self.y[self.a], self.inner_bits)


def bit_value(x: int, y: int, inner_bits: int) -> int:
    """Bit y of an inner_bits-wide value x, most significant first."""
    return (x >> (inner_bits - 1 - y)) & 1


@dataclass(frozen=True)
class TwoRoundFamily:
    """A two-round protocol for the n = 2, inner = 2 nested index problem.

    Register names are fixed: pointer "a", Alice blocks "x0"/"x1", Bob
    blocks "y0"/"y1", message "m". The first move is Bob's.
    """

    spec: ProtocolSpec
    style: str
    n: int = 2
    inner_bits: int = 2


def _decode_block(v: int) -> np.ndarray:
    # Answer bit is v[m]; a permutation decode exists only when the two
    # bits differ, otherwise flipping by the first bit is as good as any.
    first = (v >> 1) & 1
    return proto.X if first else I2


def _decode_move(layout: RegisterLayout) -> Move:
    a_w = layout.register("a").qubits
    x0_w = layout.register("x0").qubits
    x1_w = layout.register("x1").qubits
    m_w = layout.register("m").qubits
    blocks = {}
    for j in range(2):
        for v0 in range(4):
            for v1 in range(4):
                ctrl = (j << 4) | (v0 << 2) | v1
                blocks[ctrl] = _decode_block(v0 if j == 0 else v1)
    unitary = block_diagonal(blocks, 5)
    return Move("alice", unitary, (*a_w, *x0_w, *x1_w, *m_w), send=m_w)


def _computational_measurement(layout: RegisterLayout) -> Measurement:
    m_w = layout.register("m").qubits
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    return Measurement("bob", m_w, (p0, p1))


def two_round_family(style: str, theta: float = 0.6 * np.pi) -> TwoRoundFamily:
    """Build a toy two-round protocol; ``style`` picks Bob's first message.

    copy_first  -- the message is a copy of y0;
    constant    -- the message is a fixed |+>, independent of everything;
    parity      -- the message is y0 XOR y1;
    rotation    -- the message qubit is rotated by theta when y0 = 1.
    """
    layout = make_layout(
        [
            ("a", 1, "input", "alice"),
            ("x0", 2, "input", "alice"),
            ("x1", 2, "input", "alice"),
            ("y0", 1, "input", "bob"),
            ("y1", 1, "input", "bob"),
            ("m", 1, "message", "bob"),
        ]
    )
    y0_w = layout.register("y0").qubits
    y1_w = layout.register("y1").qubits
    m_w = layout.register("m").qubits
    if style == "copy_first":
        first = Move(
            "bob", block_diagonal({0: I2, 1: proto.X}, 1), (*y0_w, *m_w), send=m_w
        )
    elif style == "constant":
        first = Move("bob", H, m_w, send=m_w)
    elif style == "parity":
        blocks = {b: (proto.X if bin(b).count("1") % 2 else I2) for b in range(4)}
        first = Move(
            "bob", block_diagonal(blocks, 2), (*y0_w, *y1_w, *m_w), send=m_w
        )
    elif style == "rotation":
        first = Move(
            "bob", block_diagonal({0: I2, 1: ry(theta)}, 1), (*y0_w, *m_w), send=m_w
        )
    else:
        raise ValueError(f"unknown style {style!r}")
    spec = ProtocolSpec(
        layout, (first, _decode_move(layout)), _computational_measurement(layout)
    )
    spec.validate()
    return TwoRoundFamily(spec, style)


# ---------------------------------------------------------------------------
# Slice distributions and analytic message densities.
# ---------------------------------------------------------------------------


def slice_distribution(
    family: TwoRoundFamily,
    j: int,
    superposed: bool = True,
    layout_names=None,
) -> InputEnsemble:
    """Inputs with the pointer fixed to j: x's uniform classical, y_j
    uniform classical, remaining y registers in uniform superposition
    (or enumerated classically when ``superposed`` is False).

    ``layout_names`` restricts the emitted register assignments to the
    registers present in a derived protocol.
    """
    n, inner = family.n, family.inner_bits
    names = layout_names
    instances = []
    other = 1 - j
    y_other_options = [(PLUS, 1.0)] if superposed else [(0, 0.5), (1, 0.5)]
    base_w = 1.0 / (4**n * inner)
    for v0 in range(4):
        for v1 in range(4):
            for z in range(inner):
                for y_other_val, w_other in y_other_options:
                    regs = {
                        "a": j,
                        "x0": v0,
                        "x1": v1,
                        f"y{j}": z,
                        f"y{other}": y_other_val,
                    }
                    if names is not None:
                        regs = {k: v for k, v in regs.items() if k in names}
                    target = bit_value(v0 if j == 0 else v1, z, inner)
                    instances.append(
                        InputInstance(base_w * w_other, regs, target)
                    )
    return InputEnsemble(tuple(instances))


def _layout_names(spec: ProtocolSpec) -> set[str]:
    return {r.name for r in spec.layout.registers}


def message_density_by_value(
    spec: ProtocolSpec, family: TwoRoundFamily, j: int
) -> dict[int, np.ndarray]:
    """Density of the first message for each classical value of y_j.

    Averages over uniform classical x's with the other y registers in
    uniform superposition, after Bob's first move only.
    """
    layout = spec.layout
    names = _layout_names(spec)
    m_wires = spec.moves[spec.first_message_index()].send
    upto = spec.first_message_index() + 1
    out = {}
    other = 1 - j
    for z in range(family.inner_bits):
        acc = np.zeros((2 ** len(m_wires),) * 2, dtype=np.complex128)
        combos = [(v0, v1) for v0 in range(4) for v1 in range(4)]
        combos = [c for c in combos if "x0" in names] or [(0, 0)]
        for v0, v1 in combos:
            regs = {"a": j, "x0": v0, "x1": v1, f"y{j}": z, f"y{other}": PLUS}
            regs = {k: v for k, v in regs.items() if k in names}
            state = proto.initial_state(layout, regs)
            state = proto.evolve(spec, state, upto=upto)
            acc += proto.reduced_density(state, layout.n_qubits, m_wires)
        out[z] = acc / len(combos)
    return out


def slice_information(spec: ProtocolSpec, family: TwoRoundFamily, j: int) -> float:
    """I(M : Y_j) of the first message under the slice distribution."""
    rho = message_density_by_value(spec, family, j)
    values = sorted(rho)
    ensemble = make_ensemble(
        [str(z) for z in values],
        np.full(len(values), 1.0 / len(values)),
        [make_density(rho[z], tol=1e-8) for z in values],
    )
    return holevo_information(ensemble)


def message_info_budget(
    spec: ProtocolSpec, family: TwoRoundFamily
) -> tuple[list[float], float, int]:
    """Per-slot message information, the joint information, and ell_1.

    The per-slot values mu_i = I(M : Y_i) sum to at most the joint
    I(M : Y_1..Y_n), which the message size ell_1 caps in turn.
    """
    layout = spec.layout
    names = _layout_names(spec)
    m_wires = spec.moves[spec.first_message_index()].send
    upto = spec.first_message_index() + 1
    mus = [slice_information(spec, family, j) for j in range(family.n)]

    joint_states = []
    labels = []
    for z0 in range(family.inner_bits):
        for z1 in range(family.inner_bits):
            regs = {"a": 0, "x0": 0, "x1": 0, "y0": z0, "y1": z1}
            regs = {k: v for k, v in regs.items() if k in names}
            state = proto.initial_state(layout, regs)
            state = proto.evolve(spec, state, upto=upto)
            acc = proto.reduced_density(state, layout.n_qubits, m_wires)
            joint_states.append(make_density(acc, tol=1e-8))
            labels.append(f"{z0}{z1}")
    joint = holevo_information(
        make_ensemble(labels, np.full(len(labels), 1.0 / len(labels)), joint_states)
    )
    return mus, joint, spec.first_message_qubits


# ---------------------------------------------------------------------------
# Building P' from P.
# ---------------------------------------------------------------------------


def _specialize_wire_block(unitary: np.ndarray, targets, wires, value: int):
    """Fix some target wires to a classical value and drop them.

    Valid only for block-diagonal unitaries; the control wires carry
    ``value`` and the returned operator acts on the remaining targets.
    """
    positions = [targets.index(q) for q in wires]
    t = len(targets)
    blocks = proto._block_view(np.asarray(unitary), t, positions)
    c = blocks.shape[0]
    for b1 in range(c):
        for b2 in range(c):
            if b1 != b2 and np.max(np.abs(blocks[b1, :, b2, :])) > 1e-10:
                raise ReductionError("cannot specialize a non-block-diagonal move")
    rest = tuple(q for q in targets if q not in wires)
    return blocks[value, :, value, :].copy(), rest


def _factor_out_identity_wires(unitary: np.ndarray, targets, wires):
    """Drop wires on which the unitary acts as the identity factor."""
    positions = [targets.index(q) for q in wires]
    t = len(targets)
    blocks = proto._block_view(np.asarray(unitary), t, positions)
    c = blocks.shape[0]
    base = blocks[0, :, 0, :]
    for b1 in range(c):
        for b2 in range(c):
            block = blocks[b1, :, b2, :]
            want = base if b1 == b2 else np.zeros_like(base)
            if np.max(np.abs(block - want)) > 1e-10:
                raise ReductionError(
                    "move does not act as identity on the dropped wires"
                )
    rest = tuple(q for q in targets if q not in wires)
    return base.copy(), rest


def _remap_spec(spec: ProtocolSpec, drop_regs, rekind, append_regs) -> ProtocolSpec:
    """Rebuild a spec without some registers, with renumbered qubits.

    Dropped registers must not appear in any move or the measurement;
    handle pointer specialization before calling this. ``append_regs``
    is a list of (name, n_qubits, kind, owner) appended at the end.
    """
    dropped_qubits = set()
    for name in drop_regs:
        dropped_qubits.update(spec.layout.register(name).qubits)
    kept = [q for q in range(spec.layout.n_qubits) if q not in dropped_qubits]
    remap = {q: i for i, q in enumerate(kept)}
    regs = []
    cursor = 0
    for reg in spec.layout.registers:
        if reg.name in drop_regs:
            continue
        n = reg.n_qubits
        regs.append(
            Register(
                reg.name,
                tuple(range(cursor, cursor + n)),
                rekind.get(reg.name, reg.kind),
                reg.owner,
            )
        )
        cursor += n
    for name, n, kind, owner in append_regs:
        regs.append(Register(name, tuple(range(cursor, cursor + n)), kind, owner))
        cursor += n
    layout = RegisterLayout(tuple(regs))
    moves = []
    for move in spec.moves:
        if any(q in dropped_qubits for q in move.targets + move.send):
            raise ReductionError("cannot drop a register still used by a move")
        moves.append(
            Move(
                move.player,
                move.unitary,
                tuple(remap[q] for q in move.targets),
                tuple(remap[q] for q in move.send),
            )
        )
    meas = spec.final_measurement
    if any(q in dropped_qubits for q in meas.qubits):
        raise ReductionError("cannot drop a register used by the measurement")
    measurement = Measurement(
        meas.player, tuple(remap[q] for q in meas.qubits), meas.projectors
    )
    return ProtocolSpec(layout, tuple(moves), measurement)


def _specialized_base(family: TwoRoundFamily, j: int) -> ProtocolSpec:
    """P with the pointer fixed to j and unused Alice blocks pruned.

    The derived protocol solves the inner index problem on slot j, so
    the unselected registers stop being inputs: the other y register
    becomes workspace Bob initializes himself.
    """
    spec = family.spec
    other = 1 - j
    a_wires = family.spec.layout.register("a").qubits
    x_other = f"x{other}"
    x_other_wires = spec.layout.register(x_other).qubits
    moves = []
    for move in spec.moves:
        unitary, targets = move.unitary, move.targets
        if any(q in targets for q in a_wires):
            unitary, targets = _specialize_wire_block(unitary, targets, a_wires, j)
        if any(q in targets for q in x_other_wires):
            unitary, targets = _factor_out_identity_wires(
                unitary, targets, x_other_wires
            )
        moves.append(Move(move.player, unitary, targets, move.send))
    base = ProtocolSpec(spec.layout, tuple(moves), spec.final_measurement)
    return _remap_spec(
        base,
        drop_regs=("a", x_other),
        rekind={f"y{other}": "work"},
        append_regs=[],
    )


@dataclass(frozen=True)
class FirstMessageReport:
    """Certified numbers for the P -> P' step at slot j."""

    j: int
    eps_j: float
    delta_j: float
    mu_j: float
    mu_j_prime: float
    t_values: tuple[float, ...]
    align_distances: tuple[float, ...]

    @property
    def mean_sqrt_t(self) -> float:
        return float(np.mean([np.sqrt(t) for t in self.t_values]))

    @property
    def alignment_bound_slack(self) -> float:
        """eps_j + 2 E_z sqrt(t_z) - delta_j."""
        return self.eps_j + 2.0 * self.mean_sqrt_t - self.delta_j

    @property
    def info_bound_slack(self) -> float:
        """eps_j + 4 mu_j^(1/4) - delta_j."""
        return self.eps_j + 4.0 * self.mu_j**0.25 - self.delta_j


def modify_first_message(
    family: TwoRoundFamily, j: int
) -> tuple[ProtocolSpec, FirstMessageReport]:
    """Derive P' whose first message ignores y_j, plus the certificate.

    Bob's opening unitary is rewired to read a fresh ancilla prepared in
    the uniform superposition instead of y_j, which forces
    I(M : Y_j) = 0. A corrective unitary on his remaining qubits,
    controlled on y_j and built by purification alignment, brings the
    global state back toward the original one; the error increase is
    bounded by twice the mean square-root alignment distance.
    """
    spec = family.spec
    base = _specialized_base(family, j)
    first = base.moves[0]
    if first.player != "bob":
        raise ReductionError("the first move must belong to the player without the pointer")
    yj_wires = base.layout.register(f"y{j}").qubits
    touched = tuple(q for q in yj_wires if q in first.targets)

    ensemble_p = slice_distribution(family, j, layout_names=_layout_names(base))
    eps_j = run_protocol(base, ensemble_p).error_avg
    mu_j = slice_information(base, family, j)

    if touched:
        prime = _remap_spec(
            base,
            drop_regs=(),
            rekind={},
            append_regs=[("psi", len(touched), "work", "bob")],
        )
        psi_wires = prime.layout.register("psi").qubits
        wire_map = dict(zip(touched, psi_wires))
        new_targets = tuple(wire_map.get(q, q) for q in first.targets)
        hadamards = np.eye(1, dtype=np.complex128)
        for q in new_targets:
            hadamards = np.kron(hadamards, H if q in psi_wires else I2)
        rewired = Move(
            "bob", np.asarray(first.unitary) @ hadamards, new_targets, first.send
        )
    else:
        prime = base
        rewired = first

    layout = prime.layout
    n_q = layout.n_qubits
    m_wires = tuple(first.send)
    yj_wires = layout.register(f"y{j}").qubits
    alice_fixed = {q: 0 for q in layout.register(f"x{j}").qubits}
    k_wires = tuple(
        q
        for q in range(n_q)
        if q not in m_wires and q not in yj_wires and q not in alice_fixed
    )

    def opening_state(move: Move, z: int) -> BipartitePureState:
        other = 1 - j
        regs = {f"y{j}": z, f"y{other}": PLUS}
        regs = {k: v for k, v in regs.items() if k in _layout_names(prime)}
        state = proto.initial_state(layout, regs)
        state = proto.apply_unitary(state, n_q, move.unitary, move.targets)
        fixed = dict(alice_fixed)
        fixed.update({q: (z >> (len(yj_wires) - 1 - i)) & 1 for i, q in enumerate(yj_wires)})
        vec = proto.extract_pure_factor(
            state, n_q, fixed, m_wires, k_wires
        )
        return make_pure(2 ** len(m_wires), 2 ** len(k_wires), vec)

    phi_prime = opening_state(rewired, 0)
    t_values = []
    align_distances = []
    corrective_blocks = {}
    for z in range(family.inner_bits):
        phi_z = opening_state(
            Move(first.player, first.unitary, tuple(first.targets), first.send), z
        )
        result = uhlmann_align(phi_z, phi_prime)
        rho_z = proto.reduced_density(
            phi_z.vec, len(m_wires) + len(k_wires), range(len(m_wires))
        )
        rho_mean = proto.reduced_density(
            phi_prime.vec, len(m_wires) + len(k_wires), range(len(m_wires))
        )
        t_z = trace_distance(
            make_density(rho_z, tol=1e-8), make_density(rho_mean, tol=1e-8)
        )
        if result.pure_distance > 2.0 * np.sqrt(t_z) + 1e-8:
            raise ReductionError("alignment distance exceeded its bound")
        t_values.append(t_z)
        align_distances.append(result.pure_distance)
        corrective_blocks[z] = result.unitary_k

    corrective = Move(
        "bob",
        block_diagonal(corrective_blocks, len(yj_wires)),
        (*yj_wires, *k_wires),
        send=(),
    )
    spec_prime = ProtocolSpec(
        layout, (rewired, corrective, *prime.moves[1:]), prime.final_measurement
    )
    spec_prime.validate()

    ensemble_prime = slice_distribution(family, j, layout_names=_layout_names(spec_prime))
    delta_j = run_protocol(spec_prime, ensemble_prime).error_avg
    mu_j_prime = slice_information(spec_prime, family, j)
    report = FirstMessageReport(
        j=j,
        eps_j=eps_j,
        delta_j=delta_j,
        mu_j=mu_j,
        mu_j_prime=mu_j_prime,
        t_values=tuple(t_values),
        align_distances=tuple(align_distances),
    )
    return spec_prime, report


# ---------------------------------------------------------------------------
# Building P'' from P'.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DropReport:
    """Certified numbers for the P' -> P'' step at slot j."""

    j: int
    rounds_before: int
    rounds_after: int
    message_qubits_before: int
    message_qubits_after: int
    budget: int
    max_outcome_tv: float
    max_transition_residual: float


def drop_first_message(
    family: TwoRoundFamily, j: int, spec_prime: ProtocolSpec
) -> tuple[ProtocolSpec, DropReport]:
    """Derive P'': Alice opens the protocol with the message prepared
    herself, purified across an extra register that rides along with her
    own message; Bob restores his side with an exact local transition.

    The outcome distribution matches P' on every slice input, with one
    round fewer and at most ceil(log2 n) extra message qubits.
    """
    layout_p = spec_prime.layout
    first = spec_prime.moves[0]
    corrective = spec_prime.moves[1]
    m_wires = tuple(first.send)
    names = _layout_names(spec_prime)

    densities = message_density_by_value(spec_prime, family, j)
    rho_list = list(densities.values())
    for other in rho_list[1:]:
        if np.max(np.abs(other - rho_list[0])) > 1e-9:
            raise ReductionError("first message still depends on y_j")
    rho_m = make_density(rho_list[0], tol=1e-8)
    rank = int(np.sum(rho_m.eigenvalues() > 1e-9))
    n_b = max(int(np.ceil(np.log2(max(rank, 1)))), 0)

    # New layout: message register now belongs to Alice; purification
    # partner B'' is appended when the message state is mixed.
    regs = []
    for reg in layout_p.registers:
        owner = "alice" if reg.qubits == m_wires else reg.owner
        regs.append(Register(reg.name, reg.qubits, reg.kind, owner))
    append = [("bp", n_b, "work", "alice")] if n_b > 0 else []
    shell = ProtocolSpec(
        RegisterLayout(tuple(regs)), spec_prime.moves, spec_prime.final_measurement
    )
    shell = _remap_spec(shell, drop_regs=(), rekind={}, append_regs=append)
    layout = shell.layout
    n_q = layout.n_qubits
    bp_wires = layout.register("bp").qubits if n_b > 0 else ()

    purification = canonical_purification(rho_m, max(2**n_b, 1))
    prep = Move(
        "alice",
        state_prep_unitary(purification.vec),
        (*m_wires, *bp_wires),
        send=(),
    )

    # Alice's own move from P' now also carries B''.
    alice_move = shell.moves[2]
    alice_move = Move(
        alice_move.player,
        alice_move.unitary,
        alice_move.targets,
        tuple(alice_move.send) + tuple(bp_wires),
    )

    yj_wires = layout.register(f"y{j}").qubits
    alice_regs = [r for r in layout.registers if r.owner == "alice"]
    alice_fixed = {
        q: 0
        for r in alice_regs
        for q in r.qubits
        if q not in m_wires and q not in bp_wires
    }
    k_wires = tuple(
        q
        for q in range(n_q)
        if q not in m_wires
        and q not in bp_wires
        and q not in yj_wires
        and q not in alice_fixed
    )
    k_full = tuple(bp_wires) + k_wires

    other = 1 - j

    def base_regs(z: int) -> dict:
        regs_map = {f"y{j}": z, f"y{other}": PLUS}
        return {k: v for k, v in regs_map.items() if k in names}

    # Target states: P' after its opening move and corrective, embedded
    # in the new register space (B'' spectator at |0>).
    max_residual = 0.0
    v_blocks = {}
    xi_vec = None
    for z in range(family.inner_bits):
        state = proto.initial_state(layout, base_regs(z))
        state = proto.apply_unitary(state, n_q, first.unitary, first.targets)
        state = proto.apply_unitary(
            state, n_q, corrective.unitary, corrective.targets
        )
        fixed = dict(alice_fixed)
        fixed.update(
            {q: (z >> (len(yj_wires) - 1 - i)) & 1 for i, q in enumerate(yj_wires)}
        )
        chi_vec = proto.extract_pure_factor(state, n_q, fixed, m_wires, k_full)
        chi = make_pure(2 ** len(m_wires), 2 ** len(k_full), chi_vec)
        if xi_vec is None:
            xi_state = proto.initial_state(layout, base_regs(z))
            xi_state = proto.apply_unitary(xi_state, n_q, prep.unitary, prep.targets)
            xi_vec_full = proto.extract_pure_factor(
                xi_state, n_q, fixed, m_wires, k_full
            )
            xi = make_pure(2 ** len(m_wires), 2 ** len(k_full), xi_vec_full)
            xi_vec = xi_vec_full
        else:
            xi = make_pure(2 ** len(m_wires), 2 ** len(k_full), xi_vec)
        v_z = exact_local_transition(chi, xi)
        aligned = apply_k_unitary(xi, v_z)
        max_residual = max(
            max_residual, distance_up_to_phase(aligned.vec, chi.vec)
        )
        v_blocks[z] = v_z

    restore = Move(
        "bob",
        block_diagonal(v_blocks, len(yj_wires)),
        (*yj_wires, *k_full),
        send=(),
    )
    spec_double = ProtocolSpec(
        layout,
        (prep, alice_move, restore, *shell.moves[3:]),
        shell.final_measurement,
    )
    spec_double.validate()

    ens_prime = slice_distribution(family, j, layout_names=names)
    ens_double = slice_distribution(family, j, layout_names=_layout_names(spec_double))
    run_prime = run_protocol(spec_prime, ens_prime)
    run_double = run_protocol(spec_double, ens_double)
    max_tv = max(
        total_variation(p, q)
        for p, q in zip(run_prime.outcome_distributions, run_double.outcome_distributions)
    )
    budget = spec_prime.message_qubits + int(np.ceil(np.log2(family.n)))
    report = DropReport(
        j=j,
        rounds_before=spec_prime.rounds,
        rounds_after=spec_double.rounds,
        message_qubits_before=spec_prime.message_qubits,
        message_qubits_after=spec_double.message_qubits,
        budget=budget,
        max_outcome_tv=float(max_tv),
        max_transition_residual=float(max_residual),
    )
    return spec_double, report


@dataclass(frozen=True)
class PipelineReport:
    """End-to-end certificate for one toy instance and slot."""

    style: str
    j: int
    first: FirstMessageReport
    drop: DropReport
    mus: tuple[float, ...]
    joint_info: float
    ell1: int
    superposed_error: float
    classical_error: float


def run_pipeline(style: str, j: int, theta: float = 0.6 * np.pi) -> PipelineReport:
    """Run P -> P' -> P'' for one toy instance and collect every check."""
    family = two_round_family(style, theta)
    spec_prime, first_report = modify_first_message(family, j)
    _, drop_report = drop_first_message(family, j, spec_prime)
    mus, joint, ell1 = message_info_budget(family.spec, family)
    sup = run_protocol(family.spec, slice_distribution(family, j, superposed=True))
    cla = run_protocol(family.spec, slice_distribution(family, j, superposed=False))
    return PipelineReport(
        style=style,
        j=j,
        first=first_report,
        drop=drop_report,
        mus=tuple(mus),
        joint_info=joint,
        ell1=ell1,
        superposed_error=sup.error_avg,
        classical_error=cla.error_avg,
    )
