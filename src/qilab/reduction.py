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

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import protocol as proto
from .errors import ReductionError
from .info import holevo_information, uniform_cube_ensemble
from .protocol import (
    H,
    P0,
    P1,
    InputEnsemble,
    InputInstance,
    Measurement,
    Move,
    ProtocolSpec,
    Register,
    RegisterLayout,
    evolve,
    initial_state,
    make_layout,
    message_states,
    play,
    ry,
    run_protocol,
    state_prep_unitary,
    total_variation,
)
from .rac import bit_of
from .states import canonical_purification, distance_up_to_phase
from .transition import apply_k_unitaries, exact_local_transitions, uhlmann_aligns

PLUS = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
ROTATION_THETA = 0.6 * np.pi  # the "rotation" style's angle


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


def _decode_move(layout: RegisterLayout) -> Move:
    # Answer bit is v[m] for the selected block v; a permutation decode
    # exists only when the two bits differ, otherwise flipping by the
    # first bit is as good as any.
    controls = tuple(q for name in ("a", "x0", "x1") for q in layout.register(name).qubits)
    m_w = layout.register("m").qubits
    blocks = {
        (j << 4) | (v0 << 2) | v1: proto.X
        for j in range(2)
        for v0 in range(4)
        for v1 in range(4)
        if ((v0 if j == 0 else v1) >> 1) & 1
    }
    return Move("alice", m_w, blocks, controls=controls, send=m_w)


def two_round_family(style: str) -> TwoRoundFamily:
    """Build a toy two-round protocol; ``style`` picks Bob's first message.

    copy_first  -- the message is a copy of y0;
    constant    -- the message is a fixed |+>, independent of everything;
    parity      -- the message is y0 XOR y1;
    rotation    -- the message qubit is rotated by ROTATION_THETA when y0 = 1.
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
        first = Move("bob", m_w, {1: proto.X}, controls=y0_w, send=m_w)
    elif style == "constant":
        first = Move("bob", m_w, {0: H}, send=m_w)
    elif style == "parity":
        first = Move("bob", m_w, {1: proto.X, 2: proto.X}, controls=(*y0_w, *y1_w), send=m_w)
    elif style == "rotation":
        first = Move("bob", m_w, {1: ry(ROTATION_THETA)}, controls=y0_w, send=m_w)
    else:
        raise ValueError(f"unknown style {style!r}")
    spec = ProtocolSpec(
        layout, (first, _decode_move(layout)), Measurement("bob", m_w, {0: (P0, P1)})
    )
    spec.validate()
    return TwoRoundFamily(spec, style)


# ---------------------------------------------------------------------------
# Slice distributions and analytic message densities.
# ---------------------------------------------------------------------------


def slice_distribution(
    family: TwoRoundFamily, j: int, superposed: bool = True
) -> InputEnsemble:
    """Inputs with the pointer fixed to j: x's uniform classical, y_j
    uniform classical, remaining y registers in uniform superposition
    (or enumerated classically when ``superposed`` is False).
    """
    n, inner = family.n, family.inner_bits
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
                    target = bit_of(v0 if j == 0 else v1, z, inner)
                    instances.append(
                        InputInstance(base_w * w_other, regs, target)
                    )
    return InputEnsemble(tuple(instances))


def _slot_assignments(family: TwoRoundFamily, j: int) -> list[dict]:
    """One input assignment per value of y_j, the other y register in |+>."""
    return [{f"y{j}": z, f"y{1 - j}": PLUS} for z in range(family.inner_bits)]


def slice_information(spec: ProtocolSpec, family: TwoRoundFamily, j: int) -> float:
    """I(M : Y_j) of the first message under the slice distribution.

    The message's sender cannot read Alice's x's, so one run per value of
    y_j gives the slice average exactly.
    """
    return holevo_information(
        uniform_cube_ensemble(message_states(spec, _slot_assignments(family, j)))
    )


def message_info_budget(
    spec: ProtocolSpec, family: TwoRoundFamily
) -> tuple[list[float], float, int]:
    """Per-slot message information, the joint information, and ell_1.

    The per-slot values mu_i = I(M : Y_i) sum to at most the joint
    I(M : Y_1..Y_n), which the message size ell_1 caps in turn.
    """
    mus = [slice_information(spec, family, j) for j in range(family.n)]
    values = range(family.inner_bits)
    joint_states = message_states(spec, [{"y0": z0, "y1": z1} for z0 in values for z1 in values])
    joint = holevo_information(uniform_cube_ensemble(joint_states))
    return mus, joint, spec.first_message_qubits


# ---------------------------------------------------------------------------
# Building P' from P.
# ---------------------------------------------------------------------------


def _relayout(
    spec: ProtocolSpec, kinds=None, owners=None, append=()
) -> ProtocolSpec:
    """The same moves on a layout with registers re-kinded or re-owned.

    ``append`` lists (name, n_qubits, kind, owner) registers added after
    the last wire; every existing wire keeps its number.
    """
    kinds, owners = kinds or {}, owners or {}
    regs = [
        Register(
            r.name, r.qubits, kinds.get(r.name, r.kind), owners.get(r.name, r.owner)
        )
        for r in spec.layout.registers
    ]
    cursor = spec.layout.n_qubits
    for name, n, kind, owner in append:
        regs.append(Register(name, tuple(range(cursor, cursor + n)), kind, owner))
        cursor += n
    return ProtocolSpec(RegisterLayout(tuple(regs)), spec.moves, spec.final_measurement)


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
    prime_outcomes: tuple[tuple[float, ...], ...]  # P' on the slice, per instance

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

    Bob's opening becomes two moves: a Hadamard puts a fresh ancilla psi
    in the uniform superposition, and the original blocks then read psi
    in the control slot of y_j, which forces I(M : Y_j) = 0. A corrective
    unitary on his remaining qubits, controlled on y_j and built by
    purification alignment, brings the global state back toward the
    original one; the error increase is bounded by twice the mean
    square-root alignment distance.
    """
    # The derived protocol solves the inner index problem on slot j, so
    # the other y register stops being an input: it becomes workspace Bob
    # initializes himself.
    base = _relayout(family.spec, kinds={f"y{1 - j}": "work"})
    first = base.moves[0]
    if first.player != "bob":
        raise ReductionError("the first move must belong to the player without the pointer")
    yj_wires = base.layout.register(f"y{j}").qubits
    touched = tuple(q for q in yj_wires if q in first.controls)

    eps_j = run_protocol(base, slice_distribution(family, j)).error_avg
    mu_j = slice_information(base, family, j)

    if touched:
        prime = _relayout(base, append=[("psi", len(touched), "work", "bob")])
        psi_wires = prime.layout.register("psi").qubits
        wire_map = dict(zip(touched, psi_wires))
        hadamards = Move("bob", psi_wires, {0: reduce(np.kron, [H] * len(psi_wires))})
        rewired = replace(first, controls=tuple(wire_map.get(q, q) for q in first.controls))
        opening = (hadamards, rewired)
    else:
        prime = base
        opening = (first,)

    layout = prime.layout
    m_wires = tuple(first.send)
    assignments = _slot_assignments(family, j)

    # y_j and Alice's inputs are classical, so K is every other wire.
    rewired_state = evolve(opening, initial_state(layout, assignments[0]))
    k_wires = tuple(q for q in rewired_state.wires if q not in m_wires)
    phi_prime = rewired_state.bipartite(m_wires, k_wires)
    phis = play(layout, assignments, lambda s: evolve((first,), s).bipartites(m_wires, k_wires))
    t_values = []
    align_distances = []
    corrective_blocks = {}
    for z, result in enumerate(uhlmann_aligns([(phi_z, phi_prime) for phi_z in phis])):
        if result.pure_distance > result.bound + 1e-8:
            raise ReductionError("alignment distance exceeded its bound")
        t_values.append(result.t)
        align_distances.append(result.pure_distance)
        corrective_blocks[z] = result.unitary_k

    corrective = Move("bob", k_wires, corrective_blocks, controls=yj_wires)
    spec_prime = ProtocolSpec(
        layout, (*opening, corrective, *prime.moves[1:]), prime.final_measurement
    )
    run_prime = run_protocol(spec_prime, slice_distribution(family, j))  # validates P' first
    mu_j_prime = slice_information(spec_prime, family, j)
    report = FirstMessageReport(
        j=j,
        eps_j=eps_j,
        delta_j=run_prime.error_avg,
        mu_j=mu_j,
        mu_j_prime=mu_j_prime,
        t_values=tuple(t_values),
        align_distances=tuple(align_distances),
        prime_outcomes=run_prime.outcome_distributions,
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
    family: TwoRoundFamily, j: int, spec_prime: ProtocolSpec, prime_outcomes
) -> tuple[ProtocolSpec, DropReport]:
    """Derive P'': Alice opens the protocol with the message prepared
    herself, purified across an extra register that rides along with her
    own message; Bob restores his side with an exact local transition.

    The outcome distribution matches P' on every slice input, with one
    round fewer and at most ceil(log2 n) extra message qubits.
    ``prime_outcomes`` are P''s outcome distributions on the slice, as
    :func:`modify_first_message` reports them.
    """
    m_wires = tuple(spec_prime.moves[spec_prime.first_message_index()].send)

    assignments = _slot_assignments(family, j)
    rho_m, *others = message_states(spec_prime, assignments)
    for other in others:
        if np.max(np.abs(other.mat - rho_m.mat)) > 1e-9:
            raise ReductionError("first message still depends on y_j")
    rank = int(np.sum(rho_m.eig.eigenvalues > 1e-9))
    n_b = max(int(np.ceil(np.log2(max(rank, 1)))), 0)

    # New layout: message register now belongs to Alice; purification
    # partner B'' is appended when the message state is mixed.
    append = [("bp", n_b, "work", "alice")] if n_b > 0 else []
    shell = _relayout(spec_prime, owners={"m": "alice"}, append=append)
    layout = shell.layout
    bp_wires = layout.register("bp").qubits if n_b > 0 else ()

    purification = canonical_purification(rho_m, max(2**n_b, 1))
    prep = Move("alice", (*m_wires, *bp_wires), {0: state_prep_unitary(purification.vec)})

    # Bob plays every move of P' before Alice's first one: his opening
    # and the corrective. Alice's own move now also carries B''.
    first_alice = next(i for i, mv in enumerate(shell.moves) if mv.player == "alice")
    alice_move = shell.moves[first_alice]
    alice_move = replace(alice_move, send=(*alice_move.send, *bp_wires))

    yj_wires = layout.register(f"y{j}").qubits

    # Alice's prepared message; y_j and Alice's inputs are classical, so
    # K is B'' followed by every other simulated wire.
    prepared = evolve((prep,), initial_state(layout, {f"y{1 - j}": PLUS}))
    k_full = (*bp_wires, *(q for q in prepared.wires if q not in (*m_wires, *bp_wires)))
    xi = prepared.bipartite(m_wires, k_full)

    # Target states: P' after its opening move and corrective, embedded
    # in the new register space (B'' spectator at |0>).
    bob_moves = shell.moves[:first_alice]
    chis = play(layout, assignments, lambda s: evolve(bob_moves, s).bipartites(m_wires, k_full))
    v_blocks = dict(enumerate(exact_local_transitions([(chi, xi) for chi in chis])))
    aligned = apply_k_unitaries((xi, v_z) for v_z in v_blocks.values())
    max_residual = max([0.0] + [distance_up_to_phase(a.vec, c.vec) for a, c in zip(aligned, chis)])

    restore = Move("bob", k_full, v_blocks, controls=yj_wires)
    spec_double = ProtocolSpec(
        layout,
        (prep, alice_move, restore, *shell.moves[first_alice + 1 :]),
        shell.final_measurement,
    )
    run_double = run_protocol(spec_double, slice_distribution(family, j))  # validates P'' first
    max_tv = max(
        total_variation(p, q) for p, q in zip(prime_outcomes, run_double.outcome_distributions)
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


def run_pipeline(style: str) -> tuple[PipelineReport, ...]:
    """Run P -> P' -> P'' for one toy instance at each slot j and collect
    every check.

    The message-information budget does not depend on j and is computed
    once. The superposed error is P's error on the slice, which
    :func:`modify_first_message` has already measured as eps_j.
    """
    family = two_round_family(style)
    mus, joint, ell1 = message_info_budget(family.spec, family)
    reports = []
    for j in range(family.n):
        spec_prime, first_report = modify_first_message(family, j)
        _, drop_report = drop_first_message(family, j, spec_prime, first_report.prime_outcomes)
        cla = run_protocol(family.spec, slice_distribution(family, j, superposed=False))
        reports.append(
            PipelineReport(
                style=style,
                j=j,
                first=first_report,
                drop=drop_report,
                mus=tuple(mus),
                joint_info=joint,
                ell1=ell1,
                superposed_error=first_report.eps_j,
                classical_error=cla.error_avg,
            )
        )
    return tuple(reports)
