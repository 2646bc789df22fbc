"""Round reduction for two-round nested-index protocols.

The problem family, one for every n: Alice holds n inner strings
x_0..x_{n-1} (each ``INNER`` = 2 bits) and a pointer a; Bob holds n inner
indices y_0..y_{n-1}; the answer is bit y_a of x_a. With two messages and
Bob (who lacks the pointer) speaking first, his opening message can carry
little about any fixed slot y_j, and the pipeline makes that operational
in three steps:

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

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import islice

import numpy as np

from . import protocol as proto
from .errors import ReductionError
from .info import uniform_cube_informations
from .protocol import (
    H,
    P0,
    P1,
    InputColumns,
    InputEnsemble,
    Measurement,
    Move,
    ProtocolSpec,
    RegisterLayout,
    evolve,
    initial_states,
    make_layout,
    message_states_of,
    ry,
    run_protocol,
    state_prep_unitary,
    total_variation,
)
from .rac import _index_register_bits, bit_of
from .states import BLOCK_ENTRIES, DensityMatrix, canonical_purifications
from .transition import exact_local_transitions, uhlmann_aligns

PLUS = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
ROTATION_THETA = 0.6 * np.pi  # the "rotation" style's angle
INNER = 2  # bits per inner string x_i; y_i is one bit indexing into it


def _decode_move(layout: RegisterLayout, n: int) -> Move:
    # Answer bit is v[m] for the selected block v; a permutation decode
    # exists only when the two bits differ, otherwise flipping by the
    # first bit is as good as any. The x's read as one packed value, x0
    # most significant, so x_j's first bit is bit INNER * (n - 1 - j) + 1.
    names = ("a", *(f"x{i}" for i in range(n)))
    controls = tuple(q for name in names for q in layout.register(name).qubits)
    m_w = layout.register("m").qubits
    blocks = {
        j << INNER * n | xs: proto.X
        for j in range(n)
        for xs in range(2 ** (INNER * n))
        if (xs >> (INNER * (n - 1 - j) + 1)) & 1
    }
    return Move("alice", m_w, blocks, controls=controls, send=m_w)


def openings(n: int) -> dict[str, tuple[tuple[str, ...], dict[int, np.ndarray]]]:
    """Bob's hand-built openings at size n, by style, as the ``(reads,
    blocks)`` that :func:`two_round_family` takes.

    copy_first  -- the message is a copy of y0;
    constant    -- the message is a fixed |+>, independent of everything;
    parity      -- the message is the XOR of y0..y{n-1};
    rotation    -- the message qubit is rotated by ROTATION_THETA when y0 = 1.
    """
    odd = {k: proto.X for k in range(2**n) if k.bit_count() % 2}
    return {
        "copy_first": (("y0",), {1: proto.X}),
        "constant": ((), {0: H}),
        "parity": (tuple(f"y{i}" for i in range(n)), odd),
        "rotation": (("y0",), {1: ry(ROTATION_THETA)}),
    }


def two_round_family(reads, blocks, n: int = 2) -> ProtocolSpec:
    """The size-n protocol whose opening is Bob's block set: he applies
    ``blocks[v]`` to m (the identity where v is missing) and sends it, with v
    the value of the y registers named in ``reads``, first most significant.

    Register names are fixed: pointer "a", Alice blocks "x0".."x{n-1}", Bob
    blocks "y0".."y{n-1}", message "m"; a family's n is read back from its
    x registers.
    """
    layout = make_layout(
        [
            ("a", _index_register_bits(n), "input", "alice"),
            *((f"x{i}", INNER, "input", "alice") for i in range(n)),
            *((f"y{i}", 1, "input", "bob") for i in range(n)),
            ("m", 1, "message", "bob"),
        ]
    )
    ys = tuple(q for name in reads for q in layout.register(name).qubits)
    m_w = layout.register("m").qubits
    first = Move("bob", m_w, blocks, controls=ys, send=m_w)
    return ProtocolSpec(
        layout, (first, _decode_move(layout, n)), Measurement("bob", m_w, {0: (P0, P1)})
    )


def _slots(spec: ProtocolSpec) -> int:
    """The family's n: the layout's x registers."""
    return sum(r.name.startswith("x") for r in spec.layout.registers)


# ---------------------------------------------------------------------------
# Slice distributions and analytic message densities.
# ---------------------------------------------------------------------------


def slice_distribution(spec: ProtocolSpec, j: int, superposed: bool = True) -> InputEnsemble:
    """Inputs with the pointer fixed to j: x's uniform classical, y_j
    uniform classical, remaining y registers in uniform superposition
    (or enumerated classically when ``superposed`` is False).
    """
    n = _slots(spec)
    ys = _slot_assignments(spec, j, superposed)
    n_x, n_y = 2 ** (INNER * n), len(ys)  # row x * n_y + y
    xs = np.indices((2**INNER,) * n).reshape(n, -1).repeat(n_y, axis=1)
    values = {name: np.tile(col, n_x) for name, col in ys.values.items()}
    values.update({f"x{i}": col for i, col in enumerate(xs)}, a=np.full(n_x * n_y, j))
    targets = bit_of(values[f"x{j}"], values[f"y{j}"], INNER)
    weights = np.full(n_x * n_y, 1.0 / (n_x * n_y))  # a power of two, so exact
    return InputEnsemble(InputColumns(values, ys.amplitudes), weights, targets)


def _slot_assignments(spec: ProtocolSpec, j: int, superposed: bool = True) -> InputColumns:
    """Per value of y_j, the other y registers in |+> (or, when ``superposed``
    is False, one row per classical fill of them)."""
    n = _slots(spec)
    others = [f"y{i}" for i in range(n) if i != j]
    if superposed:
        return InputColumns({f"y{j}": np.arange(INNER)}, dict.fromkeys(others, PLUS))
    cols = np.indices((INNER,) + (2,) * len(others)).reshape(n, -1)
    return InputColumns(dict(zip([f"y{j}", *others], cols)))


def message_info_budget(families) -> list[tuple[list[float], float, int]]:
    """Per family spec, the per-slot message informations, the joint
    information and ell_1, every family's message runs simulated in one
    :func:`message_states_of` call.

    The per-slot values mu_i = I(M : Y_i) sum to at most the joint
    I(M : Y_1..Y_n), which the message size ell_1 caps in turn. Slot i's
    run takes each value of y_i with the other y's in |+> (the slice
    average exactly, as Bob's opening reads no x); the joint run takes
    every value of y_0..y_{n-1}.
    """
    families, runs = list(families), []  # read twice: a generator would give []
    for spec in families:
        n = _slots(spec)
        values = np.indices((INNER,) * n).reshape(n, -1)
        joint = InputColumns({f"y{i}": z for i, z in enumerate(values)})
        runs += [*((spec, _slot_assignments(spec, i)) for i in range(n)), (spec, joint)]
    infos = iter(uniform_cube_informations(message_states_of(runs)))
    out = []
    for spec in families:
        *mus, joint = islice(infos, _slots(spec) + 1)
        out.append((mus, joint, spec.first_message_qubits))
    return out


# ---------------------------------------------------------------------------
# Building P' from P.
# ---------------------------------------------------------------------------


def _relayout(layout: RegisterLayout, kinds=None, owners=None, append=()) -> RegisterLayout:
    """The layout with registers re-kinded or re-owned.

    ``append`` lists (name, n_qubits, kind, owner) registers added after
    the last wire; every existing wire keeps its number, as registers are
    laid out in wire order.
    """
    kinds, owners = kinds or {}, owners or {}
    regs = [
        (r.name, r.n_qubits, kinds.get(r.name, r.kind), owners.get(r.name, r.owner))
        for r in layout.registers
    ]
    return make_layout([*regs, *append])


@dataclass(frozen=True)
class FirstMessageReport:
    """Certified numbers for the P -> P' step at slot j."""

    j: int
    eps_j: float
    delta_j: float
    mu_j_prime: float
    t_values: tuple[float, ...]
    align_distances: tuple[float, ...]
    prime_outcomes: np.ndarray  # P' on the slice, one row per instance
    prime_messages: tuple[DensityMatrix, ...]  # P''s first message, per value of y_j
    ensemble: InputEnsemble  # slot j's superposed slice, which P and P' ran on

    @property
    def mean_sqrt_t(self) -> float:
        return float(np.mean([np.sqrt(t) for t in self.t_values]))

    @property
    def alignment_bound_slack(self) -> float:
        """eps_j + 2 E_z sqrt(t_z) - delta_j."""
        return self.eps_j + 2.0 * self.mean_sqrt_t - self.delta_j


def modify_first_message(cases) -> list[tuple[ProtocolSpec, FirstMessageReport]]:
    """Per ``(spec, j)``, P' whose first message ignores y_j, plus the
    certificate: every case's alignments in one :func:`uhlmann_aligns`
    call, and the first messages of P' in one :func:`message_states_of`
    call.

    Bob's opening becomes two moves: a Hadamard puts a fresh ancilla psi
    in the uniform superposition, and the original blocks then read psi
    in the control slot of y_j, which forces I(M : Y_j) = 0. A corrective
    unitary on his remaining qubits, controlled on y_j and built by
    purification alignment, brings the global state back toward the
    original one, so the error increase over P is bounded by twice the
    mean square-root alignment distance. P and P' are scored on slot j's
    superposed slice, which the report keeps.
    """
    cases, built, assigned, pairs = list(cases), [], [], []
    for spec, j in cases:
        first = spec.moves[0]
        if first.player != "bob":
            raise ReductionError("the first move must belong to the player without the pointer")
        yj_wires = spec.layout.register(f"y{j}").qubits
        touched = tuple(q for q in yj_wires if q in first.controls)

        # The derived protocol solves the inner index problem on slot j, so
        # the other y registers stop being inputs: they become workspace Bob
        # initializes himself.
        psi = [("psi", len(touched), "work", "bob")] if touched else []
        kinds = {f"y{i}": "work" for i in range(_slots(spec)) if i != j}
        layout = _relayout(spec.layout, kinds=kinds, append=psi)
        if touched:
            psi_wires = layout.register("psi").qubits
            wire_map = dict(zip(touched, psi_wires))
            hadamards = Move("bob", psi_wires, {0: reduce(np.kron, [H] * len(psi_wires))})
            rewired = replace(first, controls=tuple(wire_map.get(q, q) for q in first.controls))
            opening = (hadamards, rewired)
        else:
            opening = (first,)

        m_wires = tuple(first.send)
        assignments = _slot_assignments(spec, j)

        # y_j and Alice's inputs are classical, so K is every other wire.
        rewired_state = evolve(opening, initial_states(layout, assignments, slice(1)))
        k_wires = tuple(q for q in rewired_state.wires if q not in m_wires)
        (phi_prime,) = rewired_state.bipartites(m_wires, k_wires)
        phis = evolve((first,), initial_states(layout, assignments)).bipartites(m_wires, k_wires)
        built.append((layout, opening, k_wires, yj_wires))
        assigned.append(assignments)
        pairs.append([(phi_z, phi_prime) for phi_z in phis])

    results = iter(uhlmann_aligns([pair for group in pairs for pair in group]))
    primes = []
    for (spec, _), (layout, opening, k_wires, yj_wires), group in zip(cases, built, pairs):
        aligned = list(islice(results, len(group)))
        for result in aligned:
            # pure_distance <= bound squared (1 - F <= t): no sqrt to blow up a rounding of F
            if 1.0 - result.achieved_overlap_sq > result.t + 1e-9:
                raise ReductionError("alignment distance exceeded its bound")
        corrective_blocks = {z: result.unitary_k for z, result in enumerate(aligned)}
        corrective = Move("bob", k_wires, corrective_blocks, controls=yj_wires)
        spec_prime = ProtocolSpec(
            layout, (*opening, corrective, *spec.moves[1:]), spec.final_measurement
        )
        primes.append((spec_prime, aligned))

    messages = message_states_of([(p, a) for (p, _), a in zip(primes, assigned)])
    out = []
    for (spec, j), (spec_prime, aligned), rhos, mu_j_prime in zip(
        cases, primes, messages, uniform_cube_informations(messages)
    ):
        ensemble = slice_distribution(spec, j)
        run, run_prime = run_protocol(spec, ensemble), run_protocol(spec_prime, ensemble)
        t_values = tuple(result.t for result in aligned)
        distances = tuple(result.pure_distance for result in aligned)
        report = FirstMessageReport(j, run.error_avg, run_prime.error_avg, mu_j_prime, t_values,
                                    distances, run_prime.outcome_distributions, tuple(rhos),
                                    ensemble)
        out.append((spec_prime, report))
    return out


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


def drop_first_message(items) -> list[tuple[ProtocolSpec, DropReport]]:
    """Per ``(spec, spec_prime, first)``, P'' and its certificate: every
    item's purification in one :func:`canonical_purifications` call, and
    its transitions in one :func:`exact_local_transitions` call.

    Alice opens the protocol with the message prepared herself, purified
    across an extra register that rides along with her own message; Bob
    restores his side with an exact local transition. The outcome
    distribution matches P' on every slice input, with one round fewer and
    at most ceil(log2 n) extra message qubits. ``first`` is
    :func:`modify_first_message`'s report on ``spec_prime``: its first
    messages, its slice and P''s outcomes on that slice are reused.
    """
    items, rhos = list(items), []
    for *_, first in items:
        rho_m, *others = first.prime_messages
        if any(np.max(np.abs(other.mat - rho_m.mat)) > 1e-9 for other in others):
            raise ReductionError("first message still depends on y_j")
        rhos.append(rho_m)
    ranks = [max(int(np.sum(rho.eig.eigenvalues > 1e-9)), 1) for rho in rhos]
    purifications = canonical_purifications(rhos, [1 << (r - 1).bit_length() for r in ranks])
    staged, pairs = [], []
    for (spec, spec_prime, first), purification in zip(items, purifications):
        m_wires = tuple(spec_prime.moves[spec_prime.first_message_index()].send)
        n_b = purification.dim_k.bit_length() - 1
        # New layout: message register now belongs to Alice; purification
        # partner B'' is appended when the message state is mixed.
        append = [("bp", n_b, "work", "alice")] if n_b > 0 else []
        layout = _relayout(spec_prime.layout, owners={"m": "alice"}, append=append)
        bp_wires = layout.register("bp").qubits if n_b > 0 else ()
        prep = Move("alice", (*m_wires, *bp_wires), {0: state_prep_unitary(purification.vec)})

        # Bob plays every move of P' before Alice's first one: his opening
        # and the corrective. Alice's own move now also carries B''.
        first_alice = next(i for i, mv in enumerate(spec_prime.moves) if mv.player == "alice")
        alice_move = spec_prime.moves[first_alice]
        alice_move = replace(alice_move, send=(*alice_move.send, *bp_wires))

        yj_wires = layout.register(f"y{first.j}").qubits
        assignments = _slot_assignments(spec, first.j)

        # Alice's prepared message; y_j and Alice's inputs are classical, so
        # K is B'' followed by every other simulated wire.
        prepared = evolve((prep,), initial_states(layout, assignments, slice(1)))
        k_full = (*bp_wires, *(q for q in prepared.wires if q not in (*m_wires, *bp_wires)))
        (xi,) = prepared.bipartites(m_wires, k_full)

        # Target states: P' after its opening move and corrective, embedded
        # in the new register space (B'' spectator at |0>).
        bob_moves = spec_prime.moves[:first_alice]
        chis = evolve(bob_moves, initial_states(layout, assignments)).bipartites(m_wires, k_full)
        staged.append((layout, prep, alice_move, first_alice, k_full, yj_wires))
        pairs.append([(chi, xi) for chi in chis])

    found = iter(exact_local_transitions([pair for group in pairs for pair in group]))
    out = []
    for (spec, spec_prime, first), stage, group in zip(items, staged, pairs):
        layout, prep, alice_move, first_alice, k_full, yj_wires = stage
        transitions = list(islice(found, len(group)))
        v_blocks = {z: v_z for z, (v_z, _) in enumerate(transitions)}
        restore = Move("bob", k_full, v_blocks, controls=yj_wires)
        spec_double = ProtocolSpec(
            layout,
            (prep, alice_move, restore, *spec_prime.moves[first_alice + 1 :]),
            spec_prime.final_measurement,
        )
        run_double = run_protocol(spec_double, first.ensemble)
        max_tv = np.max(total_variation(first.prime_outcomes, run_double.outcome_distributions))
        report = DropReport(
            j=first.j,
            rounds_before=spec_prime.rounds,
            rounds_after=spec_double.rounds,
            message_qubits_before=spec_prime.message_qubits,
            message_qubits_after=spec_double.message_qubits,
            budget=spec_prime.message_qubits + (_slots(spec) - 1).bit_length(),
            max_outcome_tv=float(max_tv),
            max_transition_residual=float(max([0.0] + [res for _, res in transitions])),
        )
        out.append((spec_double, report))
    return out


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
    classical_error: float

    @property
    def info_bound_slack(self) -> float:
        """eps_j + 4 mu_j^(1/4) - delta_j."""
        return self.first.eps_j + 4.0 * self.mus[self.j] ** 0.25 - self.first.delta_j


def run_pipelines(styles, n: int = 2) -> Iterator[tuple[PipelineReport, ...]]:
    """Run P -> P' -> P'' for each style's toy instance at every slot j and
    collect every check, one tuple of n reports per style, yielded in turn.
    ``styles`` holds keys of :func:`openings`, which label the reports.

    The (style, j) instances go through the stages in groups: per group,
    one :func:`message_info_budget` call for the families it starts, one
    :func:`modify_first_message` and one :func:`drop_first_message` call,
    then P on each classical slice. A group holds the instances whose
    derived blocks and stage matrices, under 4^(n + 3) entries each (dim_k
    <= 2^(n + 1)), fit in BLOCK_ENTRIES: all of them at n = 2, four at
    n = 3, one from n = 4 on.
    """
    table, labels = openings(n), iter(styles)
    cases = ((f, j) for f in (two_round_family(*table[s], n) for s in styles) for j in range(n))
    step = max(1, BLOCK_ENTRIES // 4 ** (n + 3))
    budgets, reports = [], []
    while group := list(islice(cases, step)):  # a family is built with its first group
        budgets += message_info_budget([spec for spec, j in group if j == 0])
        primes = modify_first_message(group)
        doubles = drop_first_message([(s, *prime) for (s, _), prime in zip(group, primes)])
        for (spec, j), (_, first), (_, drop) in zip(group, primes, doubles):
            # P on the classical slice, the largest allocation, after the
            # superposed runs' arrays are freed; only its error is kept
            cla = run_protocol(spec, slice_distribution(spec, j, superposed=False)).error_avg
            if j == 0:  # the family's style and budget, taken with its first slot
                style, (mus, joint, ell1) = next(labels), budgets.pop(0)
            reports.append(PipelineReport(style, j, first, drop, tuple(mus), joint, ell1, cla))
            if len(reports) == n:
                yield tuple(reports)
                reports = []
