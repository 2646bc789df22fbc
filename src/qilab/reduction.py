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
    RunReport,
    evolve,
    initial_states,
    make_layout,
    message_states_of,
    ry,
    run_protocol,
    state_prep_unitary,
    total_variation,
)
from .rac import bit_of
from .states import BLOCK_ENTRIES, DensityMatrix, canonical_purifications
from .transition import exact_local_transitions, uhlmann_aligns

PLUS = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
ROTATION_THETA = 0.6 * np.pi  # the "rotation" style's angle
INNER = 2  # bits per inner string x_i; y_i is one bit indexing into it


@dataclass(frozen=True)
class TwoRoundFamily:
    """A two-round protocol for the size-n, inner = 2 nested index problem.

    Register names are fixed: pointer "a", Alice blocks "x0".."x{n-1}",
    Bob blocks "y0".."y{n-1}", message "m". The first move is Bob's.
    """

    spec: ProtocolSpec

    @property
    def n(self) -> int:
        """The number of slots: the layout's x registers."""
        return sum(r.name.startswith("x") for r in self.spec.layout.registers)


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


def two_round_family(reads, blocks, n: int = 2) -> TwoRoundFamily:
    """Build the size-n protocol whose opening is Bob's block set: he applies
    ``blocks[v]`` to m (the identity where v is missing) and sends it, with v
    the value of the y registers named in ``reads``, first most significant."""
    layout = make_layout(
        [
            ("a", max(1, (n - 1).bit_length()), "input", "alice"),  # ceil(log2 n) bits
            *((f"x{i}", INNER, "input", "alice") for i in range(n)),
            *((f"y{i}", 1, "input", "bob") for i in range(n)),
            ("m", 1, "message", "bob"),
        ]
    )
    ys = tuple(q for name in reads for q in layout.register(name).qubits)
    m_w = layout.register("m").qubits
    first = Move("bob", m_w, blocks, controls=ys, send=m_w)
    spec = ProtocolSpec(
        layout, (first, _decode_move(layout, n)), Measurement("bob", m_w, {0: (P0, P1)})
    )
    return TwoRoundFamily(spec)


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
    ys = _slot_assignments(family, j, superposed)
    n_x, n_y = 2 ** (INNER * family.n), len(ys)  # row x * n_y + y
    xs = np.indices((2**INNER,) * family.n).reshape(family.n, -1).repeat(n_y, axis=1)
    values = {name: np.tile(col, n_x) for name, col in ys.values.items()}
    values.update({f"x{i}": col for i, col in enumerate(xs)}, a=np.full(n_x * n_y, j))
    targets = bit_of(values[f"x{j}"], values[f"y{j}"], INNER)
    weights = np.full(n_x * n_y, 1.0 / (n_x * n_y))  # a power of two, so exact
    return InputEnsemble(InputColumns(values, ys.amplitudes), weights, targets)


def _slot_assignments(family: TwoRoundFamily, j: int, superposed: bool = True) -> InputColumns:
    """Per value of y_j, the other y registers in |+> (or, when ``superposed``
    is False, one row per classical fill of them)."""
    others = [f"y{i}" for i in range(family.n) if i != j]
    if superposed:
        return InputColumns({f"y{j}": np.arange(INNER)}, dict.fromkeys(others, PLUS))
    cols = np.indices((INNER,) + (2,) * len(others)).reshape(family.n, -1)
    return InputColumns(dict(zip([f"y{j}", *others], cols)))


def _budget_runs(family: TwoRoundFamily) -> list[tuple]:
    """The message runs of the budget: per slot j, one per value of y_j with
    the other y's in |+> (the slice average exactly, as Bob's opening reads
    no x), then one over every value of y_0..y_{n-1}."""
    values = np.indices((INNER,) * family.n).reshape(family.n, -1)
    joint = InputColumns({f"y{i}": z for i, z in enumerate(values)})
    spec = family.spec
    return [*((spec, _slot_assignments(family, j)) for j in range(family.n)), (spec, joint)]


def message_info_budget(family: TwoRoundFamily) -> tuple[list[float], float, int]:
    """Per-slot message information, the joint information, and ell_1: the
    one-family budget of :func:`run_pipelines`.

    The per-slot values mu_i = I(M : Y_i) sum to at most the joint
    I(M : Y_1..Y_n), which the message size ell_1 caps in turn.
    """
    *mus, joint = uniform_cube_informations(message_states_of(_budget_runs(family)))
    return mus, joint, family.spec.first_message_qubits


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

    @property
    def mean_sqrt_t(self) -> float:
        return float(np.mean([np.sqrt(t) for t in self.t_values]))

    @property
    def alignment_bound_slack(self) -> float:
        """eps_j + 2 E_z sqrt(t_z) - delta_j."""
        return self.eps_j + 2.0 * self.mean_sqrt_t - self.delta_j


def _prime_specs(cases) -> list[tuple[ProtocolSpec, tuple[float, ...], tuple[float, ...]]]:
    """Per ``(family, j)``, P' and its alignments' t values and pure
    distances, one per value of y_j: every case's alignments in one
    :func:`uhlmann_aligns` call.

    Bob's opening becomes two moves: a Hadamard puts a fresh ancilla psi
    in the uniform superposition, and the original blocks then read psi
    in the control slot of y_j, which forces I(M : Y_j) = 0. A corrective
    unitary on his remaining qubits, controlled on y_j and built by
    purification alignment, brings the global state back toward the
    original one.
    """
    built, pairs = [], []
    for family, j in cases:
        spec = family.spec
        first = spec.moves[0]
        if first.player != "bob":
            raise ReductionError("the first move must belong to the player without the pointer")
        yj_wires = spec.layout.register(f"y{j}").qubits
        touched = tuple(q for q in yj_wires if q in first.controls)

        # The derived protocol solves the inner index problem on slot j, so
        # the other y registers stop being inputs: they become workspace Bob
        # initializes himself.
        psi = [("psi", len(touched), "work", "bob")] if touched else []
        kinds = {f"y{i}": "work" for i in range(family.n) if i != j}
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
        assignments = _slot_assignments(family, j)

        # y_j and Alice's inputs are classical, so K is every other wire.
        rewired_state = evolve(opening, initial_states(layout, assignments, slice(1)))
        k_wires = tuple(q for q in rewired_state.wires if q not in m_wires)
        (phi_prime,) = rewired_state.bipartites(m_wires, k_wires)
        phis = evolve((first,), initial_states(layout, assignments)).bipartites(m_wires, k_wires)
        built.append((spec, layout, opening, k_wires, yj_wires))
        pairs.append([(phi_z, phi_prime) for phi_z in phis])

    results = iter(uhlmann_aligns([pair for group in pairs for pair in group]))
    out = []
    for (spec, layout, opening, k_wires, yj_wires), group in zip(built, pairs):
        t_values = []
        align_distances = []
        corrective_blocks = {}
        for z, result in enumerate(islice(results, len(group))):
            # pure_distance <= bound squared (1 - F <= t): no sqrt to blow up a rounding of F
            if 1.0 - result.achieved_overlap_sq > result.t + 1e-9:
                raise ReductionError("alignment distance exceeded its bound")
            t_values.append(result.t)
            align_distances.append(result.pure_distance)
            corrective_blocks[z] = result.unitary_k
        corrective = Move("bob", k_wires, corrective_blocks, controls=yj_wires)
        spec_prime = ProtocolSpec(
            layout, (*opening, corrective, *spec.moves[1:]), spec.final_measurement
        )
        out.append((spec_prime, tuple(t_values), tuple(align_distances)))
    return out


def _slice_runs(family: TwoRoundFamily, j: int, specs, superposed: bool = True) -> list[RunReport]:
    """Each spec run on slot j's slice distribution, built once for them all."""
    ensemble = slice_distribution(family, j, superposed)
    return [run_protocol(spec, ensemble) for spec in specs]


def _first_report(j, aligned, messages, mu_j_prime, run, run_prime) -> FirstMessageReport:
    """The P -> P' certificate from P's and P''s runs on the slice."""
    outcomes = run_prime.outcome_distributions
    return FirstMessageReport(j, run.error_avg, run_prime.error_avg, mu_j_prime, *aligned,
                              outcomes, tuple(messages))


def modify_first_message(
    family: TwoRoundFamily, j: int
) -> tuple[ProtocolSpec, FirstMessageReport]:
    """Derive P' whose first message ignores y_j, plus the certificate: the
    one-case P -> P' step of :func:`run_pipelines`.

    The first message of P' carries zero information about y_j; the error
    increase over P is bounded by twice the mean square-root alignment
    distance (see :func:`_prime_specs`).
    """
    ((spec_prime, *aligned),) = _prime_specs([(family, j)])
    (messages,) = message_states_of([(spec_prime, _slot_assignments(family, j))])
    (mu_j_prime,) = uniform_cube_informations([messages])
    run, run_prime = _slice_runs(family, j, (family.spec, spec_prime))
    return spec_prime, _first_report(j, aligned, messages, mu_j_prime, run, run_prime)


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


def _double_specs(items) -> list[tuple[ProtocolSpec, float]]:
    """Per ``(family, spec_prime, j, prime_messages)``, P'' and its largest
    exact-transition residual: every item's purification in one
    :func:`canonical_purifications` call, and its transitions in one
    :func:`exact_local_transitions` call.

    Alice opens the protocol with the message prepared herself, purified
    across an extra register that rides along with her own message; Bob
    restores his side with an exact local transition. ``prime_messages``
    are P''s first messages per value of y_j.
    """
    rhos = []
    for *_, (rho_m, *others) in items:
        if any(np.max(np.abs(other.mat - rho_m.mat)) > 1e-9 for other in others):
            raise ReductionError("first message still depends on y_j")
        rhos.append(rho_m)
    ranks = [max(int(np.sum(rho.eig.eigenvalues > 1e-9)), 1) for rho in rhos]
    purifications = canonical_purifications(rhos, [2 ** int(np.ceil(np.log2(r))) for r in ranks])
    staged, pairs = [], []
    for (family, spec_prime, j, _), purification in zip(items, purifications):
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

        yj_wires = layout.register(f"y{j}").qubits
        assignments = _slot_assignments(family, j)

        # Alice's prepared message; y_j and Alice's inputs are classical, so
        # K is B'' followed by every other simulated wire.
        prepared = evolve((prep,), initial_states(layout, assignments, slice(1)))
        k_full = (*bp_wires, *(q for q in prepared.wires if q not in (*m_wires, *bp_wires)))
        (xi,) = prepared.bipartites(m_wires, k_full)

        # Target states: P' after its opening move and corrective, embedded
        # in the new register space (B'' spectator at |0>).
        bob_moves = spec_prime.moves[:first_alice]
        chis = evolve(bob_moves, initial_states(layout, assignments)).bipartites(m_wires, k_full)
        staged.append((spec_prime, layout, prep, alice_move, first_alice, k_full, yj_wires))
        pairs.append([(chi, xi) for chi in chis])

    found = iter(exact_local_transitions([pair for group in pairs for pair in group]))
    out = []
    for (spec_prime, layout, prep, alice_move, first_alice, k_full, yj_wires), group in zip(
        staged, pairs
    ):
        transitions = list(islice(found, len(group)))
        v_blocks = {z: v_z for z, (v_z, _) in enumerate(transitions)}
        max_residual = max([0.0] + [residual for _, residual in transitions])
        restore = Move("bob", k_full, v_blocks, controls=yj_wires)
        spec_double = ProtocolSpec(
            layout,
            (prep, alice_move, restore, *spec_prime.moves[first_alice + 1 :]),
            spec_prime.final_measurement,
        )
        out.append((spec_double, max_residual))
    return out


def _drop_report(family, spec_prime, spec_double, first, residual, run_double) -> DropReport:
    """The P' -> P'' certificate from P'''s run on the slice, against the
    outcomes of P' in ``first``."""
    max_tv = np.max(total_variation(first.prime_outcomes, run_double.outcome_distributions))
    budget = spec_prime.message_qubits + int(np.ceil(np.log2(family.n)))
    return DropReport(
        j=first.j,
        rounds_before=spec_prime.rounds,
        rounds_after=spec_double.rounds,
        message_qubits_before=spec_prime.message_qubits,
        message_qubits_after=spec_double.message_qubits,
        budget=budget,
        max_outcome_tv=float(max_tv),
        max_transition_residual=float(residual),
    )


def drop_first_message(
    family: TwoRoundFamily, spec_prime: ProtocolSpec, first: FirstMessageReport
) -> tuple[ProtocolSpec, DropReport]:
    """Derive P'' (see :func:`_double_specs`): the one-item P' -> P'' step
    of :func:`run_pipelines`.

    The outcome distribution matches P' on every slice input, with one
    round fewer and at most ceil(log2 n) extra message qubits. ``first``
    is :func:`modify_first_message`'s report on ``spec_prime``: its
    first messages and outcome distributions on the slice are reused.
    """
    ((spec_double, residual),) = _double_specs(
        [(family, spec_prime, first.j, first.prime_messages)]
    )
    (run_double,) = _slice_runs(family, first.j, (spec_double,))
    return spec_double, _drop_report(family, spec_prime, spec_double, first, residual, run_double)


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


def _slot_reports(family, j, prime, double, messages, mu_j_prime) -> tuple:
    """Slot j's P -> P' and P' -> P'' certificates, as the one-case steps
    report them, from P, P' and P'' run on one superposed slice."""
    (spec_prime, *aligned), (spec_double, residual) = prime, double
    specs = (family.spec, spec_prime, spec_double)
    run, run_prime, run_double = _slice_runs(family, j, specs)
    first = _first_report(j, aligned, messages, mu_j_prime, run, run_prime)
    return first, _drop_report(family, spec_prime, spec_double, first, residual, run_double)


def run_pipeline(style: str, n: int = 2) -> tuple[PipelineReport, ...]:
    """Run P -> P' -> P'' for one toy instance at each slot j and collect
    every check: the one-style :func:`run_pipelines`, ``style`` a key of
    :func:`openings`."""
    return next(run_pipelines((style,), n))


def run_pipelines(styles, n: int = 2) -> Iterator[tuple[PipelineReport, ...]]:
    """:func:`run_pipeline` per style, yielded in turn, the (style, j)
    instances taken through each stage together. ``styles`` holds keys of
    :func:`openings`, which label the reports.

    A stage certifies a group's instances in one stacked call each: the
    P -> P' alignments, the first messages of P' and of the group's
    budgets and their Holevo informations, and the P' -> P'' purifications
    and exact transitions. A group holds the instances whose derived
    blocks and stage matrices, under 4^(n + 3) entries each (dim_k <=
    2^(n + 1)), fit in BLOCK_ENTRIES: all of them at n = 2, four at
    n = 3, one from n = 4 on. Each slot's superposed slice is built once
    for P, P' and P''.
    """
    table, labels = openings(n), iter(styles)
    cases = ((f, j) for f in (two_round_family(*table[s], n) for s in styles) for j in range(n))
    step = max(1, BLOCK_ENTRIES // 4 ** (n + 3))
    budgets, reports = [], []
    while group := list(islice(cases, step)):  # a family is built with its first group
        budget_runs = [run for f, j in group if j == 0 for run in _budget_runs(f)]
        primes = _prime_specs(group)
        prime_runs = [(p[0], _slot_assignments(f, j)) for (f, j), p in zip(group, primes)]
        messages = message_states_of([*budget_runs, *prime_runs])
        infos = uniform_cube_informations(messages)
        budgets += [infos[i : i + n + 1] for i in range(0, len(budget_runs), n + 1)]
        del messages[: len(budget_runs)], infos[: len(budget_runs)]
        doubles = _double_specs([(f, p[0], j, m) for (f, j), p, m in zip(group, primes, messages)])
        for (family, j), *stages in zip(group, primes, doubles, messages, infos):
            first, drop = _slot_reports(family, j, *stages)
            # P on the classical slice, the largest allocation, after the
            # superposed runs' arrays are freed; only its error is kept
            cla = _slice_runs(family, j, (family.spec,), superposed=False)[0].error_avg
            if j == 0:  # the family's style and budget, taken with its first slot
                style, (*mus, joint) = next(labels), budgets.pop(0)
            ell1 = family.spec.first_message_qubits
            reports.append(PipelineReport(style, j, first, drop, tuple(mus), joint, ell1, cla))
            if len(reports) == n:
                yield tuple(reports)
                reports = []
