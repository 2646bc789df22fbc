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
significant index position, as the first factor of ``np.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Literal

import numpy as np

from .errors import ProtocolError, SizeError
from .info import validate_projective
from .linalg import dagger
from .states import BLOCK_ENTRIES, BipartitePureState, DensityMatrix, _frozen, _norms, _read_only
from .states import make_densities, make_pures

Player = Literal["alice", "bob"]

MAX_QUBITS = 8  # simulated wires and target wires cap at dimension 256

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

    @property
    def table(self) -> BlockTable:
        """``blocks`` stacked, once: from the first read on, ``blocks`` is
        this table, which a copy made by :func:`dataclasses.replace` shares."""
        if not isinstance(self.blocks, BlockTable):
            object.__setattr__(self, "blocks", BlockTable(self.blocks, len(self.targets)))
        return self.blocks


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

    @cached_property
    def tables(self) -> tuple[BlockTable, ...]:
        """Each outcome's projectors as a :class:`BlockTable`, once per measurement."""
        per_outcome = [dict(zip(self.blocks, p)) for p in zip(*self.blocks.values())]
        return tuple(BlockTable(b, len(self.targets)) for b in per_outcome)

    @cached_property
    def projective(self) -> bool:
        """True once :func:`~qilab.info.validate_projective` passes on the
        blocks, which it raises for otherwise: judged once per measurement."""
        validate_projective(list(self.blocks.values()), 2 ** len(self.targets))
        return True


class BlockTable(dict):
    """Blocks keyed by control value, each distinct block stored once in
    one read-only stack, the identity last. ``index`` holds the values
    sorted, then one above every value, and ``slots`` where each one's
    block is in ``stack`` (the identity for the one above). As a dict,
    each value maps to a view into ``stack``, one view per distinct block."""

    def __init__(self, blocks: dict, n_targets: int):
        listed = sorted(blocks)
        distinct = {id(blocks[k]): blocks[k] for k in listed}  # a shared block stacks once
        slot = {ident: s for s, ident in enumerate(distinct)}
        stack = np.asarray([*distinct.values(), np.eye(2**n_targets)])
        slots = np.array([*(slot[id(blocks[k])] for k in listed), len(distinct)])
        index = np.array([*listed, np.iinfo(np.int64).max], dtype=np.int64)
        self.index, self.slots, self.stack = _read_only(index, slots, stack)
        views = list(stack)
        super().__init__((k, views[s]) for k, s in zip(listed, slots.tolist()))

    @cached_property
    def unitary(self) -> bool:
        """Whether every listed block is unitary within 1e-8 (a NaN entry
        fails): judged once per table, which copies of a move share."""
        u = self.stack[:-1]
        gram = np.conj(u.mT) @ u - np.eye(u.shape[-1])
        return bool(np.max(np.linalg.norm(gram, axis=(1, 2))) <= 1e-8)


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

    def __post_init__(self):
        """Static walk, run once when the spec is built, so every spec is
        valid: wire roles, ownership, block shapes, unitarity."""
        owner = self.layout.initial_owner()
        inputs = self.layout.input_qubits()
        for idx, move in enumerate(self.moves):
            what = f"move {idx}"
            _check_wires(move, owner, inputs, what)
            if move.blocks:
                d = 2 ** len(move.targets)
                if {np.shape(b) for b in move.blocks.values()} != {(d, d)}:
                    raise ProtocolError(f"{what}: blocks must be {d}x{d}")
                if not move.table.unitary:
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
        meas.projective  # raises unless each value's projectors are projective


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


@dataclass(frozen=True, eq=False)
class InputColumns:
    """Protocol inputs as columns, one row per input (one row if no column).

    ``values`` maps a register name to its column of basis values;
    ``amplitudes`` maps a register name to the one state vector that every
    row puts it in, normalized where it is read. A register in neither
    starts at |0...0>. Columns and vectors are checked here, once; their
    fit to a layout (names, value ranges, lengths) where
    :func:`initial_states` reads them.
    """

    values: dict[str, np.ndarray]
    amplitudes: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        values = {name: np.asarray(col) for name, col in self.values.items()}
        for name, col in values.items():
            if col.ndim != 1 or col.dtype.kind not in "iu":
                raise ValueError(f"register {name!r}: basis values must be a column of integers")
        lengths = {len(col) for col in values.values()}
        if len(lengths) > 1 or 0 in lengths:
            raise ValueError(f"value columns must share one length of at least 1, got {lengths}")
        amplitudes = {k: np.asarray(v, dtype=np.complex128) for k, v in self.amplitudes.items()}
        for name, vec in amplitudes.items():
            if name in values:
                raise ValueError(f"register {name!r} has both basis values and amplitudes")
            if not (vec.ndim == 1 and np.all(np.isfinite(vec)) and np.any(vec)):
                raise ValueError(f"register {name!r}: amplitudes must be finite and not all zero")
        values = {k: _frozen(v.astype(np.int64, copy=False)) for k, v in values.items()}
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "amplitudes", {k: _frozen(v) for k, v in amplitudes.items()})

    def __len__(self) -> int:
        return len(next(iter(self.values.values()), (0,)))


@dataclass(frozen=True, eq=False)
class InputEnsemble:
    """Weighted protocol inputs: row i of ``inputs`` with weight
    ``weights[i]`` and target outcome ``targets[i]``."""

    inputs: InputColumns
    weights: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        weights, targets = np.asarray(self.weights, dtype=np.float64), np.asarray(self.targets)
        if targets.dtype.kind not in "iu":
            first = targets.reshape(-1)[:1].tolist()
            raise ValueError(f"targets must be integers, got {targets.dtype} {first}")
        if not weights.shape == targets.shape == (len(self.inputs),):
            raise ValueError(f"{len(self.inputs)} inputs need as many weights and targets")
        if not np.all(weights >= 0):  # NaN fails too
            raise ValueError("instance weights must be non-negative")
        total = sum(weights.tolist())
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"instance weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", _frozen(weights))
        object.__setattr__(self, "targets", _frozen(np.asarray(targets, dtype=np.int64)))


@dataclass(frozen=True, eq=False)
class RunReport:
    """Exact run summary over an input ensemble."""

    error_avg: float
    instance_errors: np.ndarray  # one per input row
    outcome_distributions: np.ndarray  # one row per input row, one column per outcome


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

    def apply(self, controls, targets, table) -> Branch:
        """Apply the block of ``table`` (a :class:`BlockTable`) for b on
        ``targets``, b the value of ``controls``.

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
        at = np.searchsorted(table.index, value)
        listed = table.index[at] == value
        rows = np.flatnonzero(listed.any(axis=1))
        if not rows.size:
            return self
        stack = table.stack[table.slots[np.where(listed, at, -1)[rows]]]
        vec = self.vec.copy()
        positions = self._positions(targets), self._positions(free)
        vec[rows] = apply_unitary(self.vec[rows], len(self.wires), stack, *positions)
        return Branch(self.bits, self.wires, vec)

    def expectation(self, controls, targets, table) -> np.ndarray:
        """<psi|P|psi> of each input for the controlled operator P in
        ``table``: exact because the classical bits are a basis state."""
        return np.vecdot(self.vec, self.apply(controls, targets, table).vec).real

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


def initial_states(layout: RegisterLayout, inputs: InputColumns, rows=slice(None)) -> Branch:
    """Product states over registers, one row per input in rows ``rows`` of ``inputs``.

    An input register with a value column becomes classical bits, as
    does one with neither values nor amplitudes (it reads 0); every other
    register is a simulated wire.
    """
    unknown = (inputs.values.keys() | inputs.amplitudes.keys()) - {r.name for r in layout.registers}
    if unknown:
        raise ProtocolError(f"no registers named {sorted(unknown)} in the layout")
    count = len(range(len(inputs))[rows])
    bits: dict[int, np.ndarray] = {}
    wires: list[int] = []
    vec = np.ones((count, 1), dtype=np.complex128)
    for reg in layout.registers:
        if reg.name in inputs.amplitudes:  # one row, which every input shares
            amps = inputs.amplitudes[reg.name][None]
            if amps.shape[1] != reg.dim:
                raise SizeError(f"state length mismatch for register {reg.name}")
            piece = amps / _norms(amps)[:, None]
        else:
            given = reg.name in inputs.values
            col = inputs.values[reg.name][rows] if given else np.zeros(count, dtype=np.int64)
            if col.size and not (0 <= col.min() and col.max() < reg.dim):
                bad = col[(col < 0) | (col >= reg.dim)][0]
                raise SizeError(f"value {bad} out of range for register {reg.name}")
            if reg.kind == "input":
                shifts = np.arange(reg.n_qubits - 1, -1, -1)[:, None]
                bits.update(zip(reg.qubits, (col >> shifts) & 1))
                continue
            piece = np.eye(reg.dim, dtype=np.complex128)[col]
        wires.extend(reg.qubits)
        vec = (vec[:, :, None] * piece[:, None, :]).reshape(count, -1)
    if len(wires) > MAX_QUBITS:
        raise SizeError(f"{len(wires)} simulated qubits exceed the simulation cap {MAX_QUBITS}")
    return Branch(bits, tuple(wires), vec)


def play(layout: RegisterLayout, inputs: InputColumns, finish) -> np.ndarray:
    """``finish(batch)`` of each batch of rows of ``inputs``, concatenated.

    A batch is a :class:`Branch` from :func:`initial_states` of at most
    :data:`~qilab.states.BLOCK_ENTRIES` state entries; ``finish`` returns
    an array with one row per input of its batch.
    """
    simulated = sum(
        r.n_qubits for r in layout.registers if r.kind != "input" or r.name in inputs.amplitudes
    )
    step = max(1, BLOCK_ENTRIES // 2**simulated)
    rows = (slice(lo, lo + step) for lo in range(0, len(inputs), step))
    return np.concatenate([finish(initial_states(layout, inputs, r)) for r in rows])


def evolve(moves, state: Branch) -> Branch:
    """Play ``moves`` in order."""
    for move in moves:
        state = state.apply(move.controls, move.targets, move.table)
    return state


def message_states(spec: ProtocolSpec, inputs: InputColumns) -> list[DensityMatrix]:
    """Certified density of the first message for each row of ``inputs``:
    the one-run :func:`message_states_of`."""
    return message_states_of([(spec, inputs)])[0]


def message_states_of(runs) -> list[list[DensityMatrix]]:
    """Per ``(spec, inputs)`` run, the certified density of the first message
    for each row of ``inputs``; every run's densities are certified in one
    :func:`~qilab.states.make_densities` call, so an error names a density's
    index among all runs' rows.

    Each run is played on its own, in batches (:func:`play`), up to the
    move that sends the first message. Reading an unset input before the
    send raises ``ProtocolError``. An input those moves never read may stay
    unset: the message is the same for each of its values, so it is their
    average.
    """
    played = []
    for spec, inputs in runs:
        moves = spec.moves[: spec.first_message_index() + 1]
        read = {q for move in moves for q in move.controls}
        given = inputs.values.keys() | inputs.amplitudes.keys()
        unset = [r.name for r in spec.layout.registers
                 if r.kind == "input" and read & set(r.qubits) and r.name not in given]
        if unset:
            raise ProtocolError(f"the first message reads unset inputs {unset}")
        played.append(play(spec.layout, inputs, lambda s: evolve(moves, s).density(moves[-1].send)))
    rows = iter(make_densities([m for mats in played for m in mats], tol=1e-8))
    return [list(islice(rows, len(mats))) for mats in played]


def run_protocol(spec: ProtocolSpec, ensemble: InputEnsemble) -> RunReport:
    """Play out each weighted input (:func:`play`), score the target.

    Every instance error is 1 minus the exact probability of the target
    outcome; a target that is not an outcome raises ``ProtocolError``.
    """
    targets = ensemble.targets
    meas = spec.final_measurement
    bad = targets[(targets < 0) | (targets >= len(meas.tables))]
    if bad.size:
        raise ProtocolError(f"target {bad[0]} is not an outcome 0..{len(meas.tables) - 1}")

    def outcomes(state: Branch) -> np.ndarray:
        state = evolve(spec.moves, state)
        arr = np.stack([state.expectation(meas.controls, meas.targets, t) for t in meas.tables], -1)
        return arr / arr.sum(axis=-1, keepdims=True)

    dists = _frozen(play(spec.layout, ensemble.inputs, outcomes))
    errors = _frozen(1.0 - dists[np.arange(len(targets)), targets])
    return RunReport(
        error_avg=float(sum((ensemble.weights * errors).tolist())),  # Python's left-to-right sum
        instance_errors=errors,
        outcome_distributions=dists,
    )


def total_variation(p, q):
    """Total-variation distance of two distributions, or of each pair of
    rows of two stacks of them."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return 0.5 * np.sum(np.abs(p - q), axis=-1)
