"""Two-party protocol simulator with register ownership tracking.

The model: Alice and Bob each own a set of qubits. A move applies to some
of the mover's qubits (its targets) the unitary block selected by the
value of other qubits the mover owns (its controls), then hands a subset
of its qubits to the other player. The global state never collapses until
one final projective measurement by the deciding player, whose projectors
are selected by controls the same way. Inputs are classical data that a
move may read but never change: an input register can only be a control.
An input given a basis value is simulated as classical bits that pick the
block; every other wire carries a state vector, and a simulated control
wire (an input given a superposition, a work or a message qubit) applies
each block to its own slice. ``MAX_QUBITS`` bounds the simulated wires of
one run and the targets of every move and measurement, not the layout's
total wire count nor the number of controls. Qubit 0 is the most
significant index position, matching :func:`qilab.linalg.tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ProtocolError, SizeError
from .info import validate_projective
from .linalg import dagger
from .states import BipartitePureState, DensityMatrix, _norms, make_densities, make_pures, stacked

Player = Literal["alice", "bob"]

MAX_QUBITS = 8  # simulated wires and target wires cap at dimension 256
BASIS_VALUE = (int, np.integer)  # a register value of these types is a basis state

# Gate and projector constants.
I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
SWAP = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
P0 = np.diag([1.0, 0.0]).astype(np.complex128)  # computational-basis projectors
P1 = np.diag([0.0, 1.0]).astype(np.complex128)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


@dataclass(frozen=True)
class Register:
    name: str
    qubits: tuple[int, ...]
    kind: Literal["input", "work", "message"]
    owner: Player

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def dim(self) -> int:
        return 2 ** len(self.qubits)


@dataclass(frozen=True)
class RegisterLayout:
    registers: tuple[Register, ...]

    def __post_init__(self):
        seen: list[int] = []
        for reg in self.registers:
            if reg.qubits != tuple(range(reg.qubits[0], reg.qubits[0] + len(reg.qubits))):
                raise ProtocolError(f"register {reg.name} qubits must be contiguous")
            seen.extend(reg.qubits)
        if sorted(seen) != list(range(len(seen))):
            raise ProtocolError("registers must partition 0..n-1 exactly once")
        simulated = sum(r.n_qubits for r in self.registers if r.kind != "input")
        if simulated > MAX_QUBITS:
            raise SizeError(
                f"{simulated} non-input qubits exceed the simulation cap {MAX_QUBITS}"
            )

    @property
    def n_qubits(self) -> int:
        return sum(r.n_qubits for r in self.registers)

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(f"no register named {name!r}")

    def input_qubits(self) -> frozenset[int]:
        return frozenset(
            q for r in self.registers if r.kind == "input" for q in r.qubits
        )

    def initial_owner(self) -> dict[int, Player]:
        return {q: r.owner for r in self.registers for q in r.qubits}


def make_layout(specs) -> RegisterLayout:
    """Build a layout from (name, n_qubits, kind, owner) tuples in order."""
    regs = []
    next_q = 0
    for name, n, kind, owner in specs:
        regs.append(Register(name, tuple(range(next_q, next_q + n)), kind, owner))
        next_q += n
    return RegisterLayout(tuple(regs))


@dataclass(frozen=True)
class Move:
    """A unitary on ``targets`` chosen by the value of the ``controls``.

    ``blocks`` maps each control value (first control wire most
    significant) to a unitary on the targets; a missing value means the
    identity. Controls are read and never written, so a move cannot
    rewrite an input register: inputs may only be controls.
    """

    player: Player
    targets: tuple[int, ...]
    blocks: dict[int, np.ndarray]
    controls: tuple[int, ...] = ()
    send: tuple[int, ...] = ()


@dataclass(frozen=True)
class Measurement:
    """Projective measurement on ``targets`` chosen by the ``controls``.

    ``blocks`` maps every control value to its projectors on the targets,
    one per outcome, in the same outcome order for every value.
    """

    player: Player
    targets: tuple[int, ...]
    blocks: dict[int, tuple[np.ndarray, ...]]
    controls: tuple[int, ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    layout: RegisterLayout
    moves: tuple[Move, ...]
    final_measurement: Measurement

    @property
    def message_qubits(self) -> int:
        return sum(len(m.send) for m in self.moves)

    @property
    def first_message_qubits(self) -> int:
        for m in self.moves:
            if m.send:
                return len(m.send)
        return 0

    @property
    def rounds(self) -> int:
        return sum(1 for m in self.moves if m.send)

    def first_message_index(self) -> int:
        for i, m in enumerate(self.moves):
            if m.send:
                return i
        raise ProtocolError("protocol sends no messages")

    def validate(self) -> None:
        """Static walk: wire roles, ownership, block shapes, unitarity."""
        owner = self.layout.initial_owner()
        inputs = self.layout.input_qubits()
        for idx, move in enumerate(self.moves):
            what = f"move {idx}"
            _check_wires(move, owner, inputs, what)
            if move.blocks:
                d = 2 ** len(move.targets)
                if {np.shape(b) for b in move.blocks.values()} != {(d, d)}:
                    raise ProtocolError(f"{what}: blocks must be {d}x{d}")
                u = np.asarray(list(move.blocks.values()), dtype=np.complex128)
                gram = np.conj(np.swapaxes(u, 1, 2)) @ u - np.eye(d)
                # written so that a NaN entry fails too
                if not np.max(np.linalg.norm(gram, axis=(1, 2))) <= 1e-8:
                    raise ProtocolError(f"{what}: a block is not unitary")
            for q in move.send:
                if owner[q] != move.player:
                    raise ProtocolError(f"{what}: cannot send unowned qubit {q}")
            other: Player = "bob" if move.player == "alice" else "alice"
            for q in move.send:
                owner[q] = other
        meas = self.final_measurement
        _check_wires(meas, owner, inputs, "final measurement")
        if set(meas.blocks) != set(range(2 ** len(meas.controls))):
            raise ProtocolError("final measurement must list every control value")
        if len({len(p) for p in meas.blocks.values()}) != 1:
            raise ProtocolError("every control value needs the same outcomes")
        validate_projective(list(meas.blocks.values()), 2 ** len(meas.targets))


def _check_wires(op, owner: dict, inputs: frozenset, what: str) -> None:
    """Targets under the cap, disjoint from the controls and from inputs,
    every wire owned by the player, every block key a control value."""
    if len(op.targets) > MAX_QUBITS:
        raise SizeError(
            f"{what} acts on {len(op.targets)} qubits, over the operator cap {MAX_QUBITS}"
        )
    wires = (*op.controls, *op.targets)
    if len(set(wires)) != len(wires):
        raise ProtocolError(f"{what}: a wire is repeated or both control and target")
    for q in wires:
        if owner[q] != op.player:
            raise ProtocolError(f"{what}: {op.player} does not own qubit {q}")
    written = [q for q in op.targets if q in inputs]
    if written:
        raise ProtocolError(f"{what}: targets input qubits {written}; inputs can only be controls")
    if not all(0 <= b < 2 ** len(op.controls) for b in op.blocks):
        raise ProtocolError(f"{what}: block keys must be control values")


def state_prep_unitary(vec: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``vec`` (so U |0...0> = |vec>)."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    d = v.shape[0]
    v = v / np.linalg.norm(v)
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(d)]))
    k = int(np.argmax(np.abs(v)))
    q[:, 0] *= v[k] / q[k, 0]
    if not np.linalg.norm(q[:, 0] - v) <= 1e-10:  # NaN fails too
        raise ProtocolError("state preparation column did not reproduce the vector")
    return q


def apply_unitary(
    state: np.ndarray, n_qubits: int, u: np.ndarray, targets, controls=()
) -> np.ndarray:
    """Apply ``u`` to ``targets`` of an n-qubit state vector, or of each row
    of a stack of them.

    With ``controls``, ``u`` stacks one block per value of the control
    wires (first wire most significant); each acts on its own slice. For a
    stack of states, ``u`` may also hold one such stack per row.
    """
    c, t = len(controls), len(targets)
    rest = [ax for ax in range(n_qubits) if ax not in targets and ax not in controls]
    perm = [0, *(1 + ax for ax in (*controls, *targets, *rest))]
    psi = state.reshape(-1, *(2,) * n_qubits).transpose(perm)
    psi = np.reshape(u, (-1, 2**c, 2**t, 2**t)) @ psi.reshape(len(psi), 2**c, 2**t, -1)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return psi.reshape(-1, *(2,) * n_qubits).transpose(inverse).reshape(state.shape)


def reduced_density(state: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Reduced density matrix on the ``keep`` qubits of a pure state, or of
    each row of a stack of them."""
    keep = list(keep)
    rest = [q for q in range(n_qubits) if q not in keep]
    psi = state.reshape(-1, *(2,) * n_qubits).transpose(0, *(1 + q for q in keep + rest))
    m = psi.reshape(*state.shape[:-1], 2 ** len(keep), -1)
    return m @ dagger(m)


@dataclass(frozen=True)
class InputInstance:
    """One weighted protocol input: per-register value and target outcome.

    ``register_states`` maps register names to either a basis value (int)
    or a state vector on that register; unlisted registers start at
    |0...0>.
    """

    weight: float
    register_states: dict
    target: int


@dataclass(frozen=True)
class InputEnsemble:
    instances: tuple[InputInstance, ...]

    def __post_init__(self):
        total = sum(i.weight for i in self.instances)
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"instance weights sum to {total}, expected 1")


@dataclass(frozen=True)
class RunReport:
    """Exact run summary over an input ensemble."""

    error_avg: float
    instance_errors: tuple[float, ...]
    outcome_distributions: tuple[tuple[float, ...], ...]
    message_qubits: int
    first_message_qubits: int
    rounds: int


@dataclass(frozen=True)
class Branch:
    """A batch of runs that simulate the same wires, one row per input.

    ``bits`` maps each basis-valued input wire to its column of bits, one
    per input; each row of ``vec`` is one input's state vector over
    ``wires``, in that order.
    """

    bits: dict[int, np.ndarray]
    wires: tuple[int, ...]
    vec: np.ndarray

    def _positions(self, wires) -> list[int]:
        missing = [q for q in wires if q not in self.wires]
        if missing:
            raise ProtocolError(f"wires {missing} are classical in this run")
        return [self.wires.index(q) for q in wires]

    def apply(self, controls, targets, blocks) -> Branch:
        """Apply ``blocks[b]`` on ``targets``, b the value of ``controls``.

        Each input's classical control bits fix their part of b. Simulated
        control wires take every value, each slice getting its own block.
        A missing value is the identity, and an input with no listed value
        is left as it is. All blocks go to the batch in one batched matmul.
        """
        free = [q for q in controls if q not in self.bits]
        # each control's bit: a column over the inputs, or a row over the slices
        bit = {q: np.arange(2 ** len(free)) >> (len(free) - 1 - i) & 1 for i, q in enumerate(free)}
        bit.update({q: self.bits[q][:, None] for q in controls if q in self.bits})
        value = np.zeros((len(self.vec), 1), dtype=np.int64)
        for k, q in enumerate(controls):
            value = value | bit[q] << (len(controls) - 1 - k)
        keys = np.array(sorted(blocks), dtype=np.int64)
        listed = np.isin(value, keys)
        rows = np.flatnonzero(listed.any(axis=1))
        if not rows.size:
            return self
        table = np.asarray([*(blocks[k] for k in keys.tolist()), np.eye(2 ** len(targets))])
        stack = table[np.where(listed, np.searchsorted(keys, value), len(keys))[rows]]
        vec = self.vec.copy()
        positions = self._positions(targets), self._positions(free)
        vec[rows] = apply_unitary(self.vec[rows], len(self.wires), stack, *positions)
        return Branch(self.bits, self.wires, vec)

    def expectation(self, controls, targets, blocks) -> np.ndarray:
        """<psi|P|psi> of each input for the controlled operator P: exact
        because the classical bits are a basis state."""
        applied = self.apply(controls, targets, blocks).vec
        return np.array([np.vdot(v, w).real for v, w in zip(self.vec, applied)])

    def density(self, wires) -> np.ndarray:
        """Each input's reduced density matrix on some simulated wires, in that order."""
        return reduced_density(self.vec, len(self.wires), self._positions(wires))

    def bipartites(self, part_h, part_k) -> list[BipartitePureState]:
        """Each input's simulated state as a pure state across (part_h, part_k)."""
        order = [*part_h, *part_k]
        if sorted(order) != sorted(self.wires):
            raise ProtocolError("part_h + part_k must cover exactly the simulated wires")
        psi = self.vec.reshape(-1, *(2,) * len(self.wires))
        psi = psi.transpose(0, *(1 + p for p in self._positions(order)))
        return make_pures([(2 ** len(part_h), 2 ** len(part_k), v) for v in psi])

    def bipartite(self, part_h, part_k) -> BipartitePureState:
        """The one-input :meth:`bipartites`."""
        (state,) = self.bipartites(part_h, part_k)
        return state


def initial_state(layout: RegisterLayout, register_states: dict) -> Branch:
    """The one-input :func:`initial_states`."""
    return initial_states(layout, [register_states])


def initial_states(layout: RegisterLayout, assignments) -> Branch:
    """Product states over registers, one row per ``register_states`` assignment.

    Ints are basis values, arrays amplitudes; unlisted registers start at
    |0...0>. An input register that every assignment gives a basis value
    becomes classical bits (:func:`play` groups assignments so that one
    batch shares them); every other register is a simulated wire.
    """
    assignments = list(assignments)
    bits: dict[int, np.ndarray] = {}
    wires: list[int] = []
    vec = np.ones((len(assignments), 1), dtype=np.complex128)
    for reg in layout.registers:
        vals = [rs.get(reg.name, 0) for rs in assignments]
        given = {i: v for i, v in enumerate(vals) if not isinstance(v, BASIS_VALUE)}
        col = [0 if i in given else v for i, v in enumerate(vals)] if given else vals
        if col and not (0 <= min(col) and max(col) < reg.dim):
            bad = next(v for v in col if not 0 <= v < reg.dim)
            raise SizeError(f"value {bad} out of range for register {reg.name}")
        col = np.array(col, dtype=np.int64)  # the basis values, 0 where amplitudes are given
        if reg.kind == "input" and not given:
            shifts = np.arange(reg.n_qubits - 1, -1, -1)[:, None]
            bits.update(zip(reg.qubits, (col >> shifts) & 1))
            continue
        piece = np.eye(reg.dim, dtype=np.complex128)[col]
        if given:  # the amplitude rows, normalized as one stack
            amps = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in given.values()]
            if any(a.shape[0] != reg.dim for a in amps):
                raise SizeError(f"state length mismatch for register {reg.name}")
            piece[list(given)] = amps / _norms(np.array(amps))[:, None]
        wires.extend(reg.qubits)
        vec = (vec[:, :, None] * piece[:, None, :]).reshape(len(assignments), -1)
    if len(wires) > MAX_QUBITS:
        raise SizeError(f"{len(wires)} simulated qubits exceed the simulation cap {MAX_QUBITS}")
    return Branch(bits, tuple(wires), vec)


def play(layout: RegisterLayout, assignments, finish) -> list:
    """Per ``register_states`` assignment, its row of ``finish(batch)``.

    Assignments that give basis values to the same input registers share
    a batch (a :class:`Branch` from :func:`initial_states`) of at most
    :data:`~qilab.states.BLOCK_ENTRIES` state entries; ``finish`` returns
    one row per input of its batch.
    """
    assignments = list(assignments)
    inputs = [r for r in layout.registers if r.kind == "input"]
    keys = [
        tuple(r for r in inputs if isinstance(rs.get(r.name, 0), BASIS_VALUE)) for rs in assignments
    ]

    def build(key, members):
        return (finish(initial_states(layout, [assignments[i] for i in members])),)

    def entries(key) -> int:  # the amplitudes of one input's state
        return 2 ** (layout.n_qubits - sum(r.n_qubits for r in key))

    return [rows[j] for (rows,), j in stacked(keys, build, entries)]


def evolve(moves, state: Branch) -> Branch:
    """Play ``moves`` in order."""
    for move in moves:
        state = state.apply(move.controls, move.targets, move.blocks)
    return state


def message_states(spec: ProtocolSpec, assignments) -> list[DensityMatrix]:
    """Certified density of the first message for each input assignment.

    The assignments are played in batches (:func:`play`) up to the move
    that sends the first message. Reading an unset input before the send
    raises ``ProtocolError``. An input those moves never read may stay
    unset: the message is the same for each of its values, so it is their
    average.
    """
    assignments = list(assignments)
    moves = spec.moves[: spec.first_message_index() + 1]
    read = {q for move in moves for q in move.controls}
    inputs = [r.name for r in spec.layout.registers if r.kind == "input" and read & set(r.qubits)]
    for register_states in assignments:
        unset = [name for name in inputs if name not in register_states]
        if unset:
            raise ProtocolError(f"the first message reads unset inputs {unset}")
    mats = play(spec.layout, assignments, lambda s: evolve(moves, s).density(moves[-1].send))
    return make_densities(mats, tol=1e-8)


def run_protocol(spec: ProtocolSpec, ensemble: InputEnsemble) -> RunReport:
    """Validate the spec, play out each weighted input (:func:`play`),
    score the target.

    Every instance error is 1 minus the exact probability of the target
    outcome.
    """
    spec.validate()
    instances = ensemble.instances
    meas = spec.final_measurement
    per_outcome = [dict(zip(meas.blocks, p)) for p in zip(*meas.blocks.values())]

    def outcomes(state: Branch) -> np.ndarray:
        state = evolve(spec.moves, state)
        arr = np.stack([state.expectation(meas.controls, meas.targets, b) for b in per_outcome], -1)
        return arr / arr.sum(axis=-1, keepdims=True)

    dists = np.array(play(spec.layout, [inst.register_states for inst in instances], outcomes))
    errors = (1.0 - dists[np.arange(len(instances)), [i.target for i in instances]]).tolist()
    error_avg = float(sum(w.weight * e for w, e in zip(instances, errors)))
    return RunReport(
        error_avg=error_avg,
        instance_errors=tuple(errors),
        outcome_distributions=tuple(map(tuple, dists.tolist())),
        message_qubits=spec.message_qubits,
        first_message_qubits=spec.first_message_qubits,
        rounds=spec.rounds,
    )


def total_variation(p, q) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return 0.5 * float(np.sum(np.abs(p - q)))
