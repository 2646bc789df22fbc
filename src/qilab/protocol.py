"""Two-party protocol simulator with register ownership tracking.

The model: Alice and Bob each own a set of qubits. A move is a unitary on
some of the mover's qubits followed by handing a subset of them to the
other player; the global state never collapses until one final projective
measurement by the deciding player. Input registers are read-only: a move
may use them as controls (any block-diagonal action in their computational
basis) but must never rewrite them. So an input register given a basis value
is simulated as classical bits: every move and projector is cut to the
diagonal block those bits select, and only the other wires carry a state
vector. An input given a superposition stays a quantum wire.
``MAX_QUBITS`` bounds the simulated wires of one run and the wire count
of every dense operator, not the layout's total wire count. Qubit 0 is
the most significant index position, matching
:func:`qilab.linalg.tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import linalg
from .errors import ModelViolationError, ProtocolError, SizeError
from .info import validate_projective
from .linalg import dagger
from .states import BipartitePureState, make_pure

Player = Literal["alice", "bob"]

MAX_QUBITS = 8  # simulated wires and operator wires cap at dimension 256

# Single-qubit gate constants.
I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


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
    player: Player
    unitary: np.ndarray
    targets: tuple[int, ...]
    send: tuple[int, ...] = ()


@dataclass(frozen=True)
class Measurement:
    player: Player
    qubits: tuple[int, ...]
    projectors: tuple[np.ndarray, ...]


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

    def validate(self, tol: float = 1e-10) -> None:
        """Static walk: unitarity, support, ownership, input preservation."""
        owner = self.layout.initial_owner()
        inputs = self.layout.input_qubits()
        for idx, move in enumerate(self.moves):
            t = len(move.targets)
            _check_operator_wires(t, f"move {idx}")
            u = linalg.as_matrix(move.unitary)
            if u.shape != (2**t, 2**t):
                raise ProtocolError(
                    f"move {idx}: unitary shape {u.shape} for {t} targets"
                )
            if linalg.frobenius(dagger(u) @ u - np.eye(2**t)) > 1e-8:
                raise ProtocolError(f"move {idx}: matrix is not unitary")
            if len(set(move.targets)) != t:
                raise ProtocolError(f"move {idx}: repeated target qubit")
            for q in move.targets:
                if owner[q] != move.player:
                    raise ProtocolError(
                        f"move {idx}: {move.player} does not own qubit {q}"
                    )
            guarded = [i for i, q in enumerate(move.targets) if q in inputs]
            if guarded:
                _assert_block_diagonal(u, t, guarded, tol, idx)
            for q in move.send:
                if owner[q] != move.player:
                    raise ProtocolError(
                        f"move {idx}: cannot send unowned qubit {q}"
                    )
            other: Player = "bob" if move.player == "alice" else "alice"
            for q in move.send:
                owner[q] = other
        meas = self.final_measurement
        _check_operator_wires(len(meas.qubits), "final measurement")
        for q in meas.qubits:
            if owner[q] != meas.player:
                raise ProtocolError(
                    f"final measurement touches qubit {q} not owned by {meas.player}"
                )
        validate_projective(meas.projectors, 2 ** len(meas.qubits))


def _check_operator_wires(n_wires: int, what: str) -> None:
    if n_wires > MAX_QUBITS:
        raise SizeError(
            f"{what} acts on {n_wires} qubits, over the operator cap {MAX_QUBITS}"
        )


def _block_view(u: np.ndarray, t: int, guarded: list[int]) -> np.ndarray:
    """Reshape so guarded wires index the leading block axes on both sides."""
    rest = [i for i in range(t) if i not in guarded]
    perm = guarded + rest
    c = len(guarded)
    arr = u.reshape((2,) * (2 * t))
    arr = arr.transpose([*perm, *[t + p for p in perm]])
    return arr.reshape(2**c, 2 ** (t - c), 2**c, 2 ** (t - c))


def _assert_block_diagonal(u, t, guarded, tol, move_idx):
    blocks = _block_view(u, t, guarded)
    off_diagonal = 1.0 - np.eye(blocks.shape[0])[:, None, :, None]
    if np.max(np.abs(blocks) * off_diagonal) > tol:
        raise ModelViolationError(
            f"move {move_idx}: unitary rewrites an input register"
        )


def block_diagonal(blocks: dict[int, np.ndarray], n_control: int) -> np.ndarray:
    """Operator sum_b |b><b| (x) A_b on (control wires, acted wires).

    Missing control values default to the identity block, which is the
    right completion for controlled unitaries; pass explicit zero blocks
    when assembling projectors.
    """
    dims = {u.shape[0] for u in blocks.values()}
    if len(dims) != 1:
        raise SizeError("all blocks must act on the same dimension")
    da = dims.pop()
    dc = 2**n_control
    if dc * da > 2**MAX_QUBITS:
        raise SizeError(
            f"operator of dimension {dc * da} exceeds the cap 2^{MAX_QUBITS}"
        )
    out = np.zeros((dc * da, dc * da), dtype=np.complex128)
    for b in range(dc):
        u = blocks.get(b, np.eye(da, dtype=np.complex128))
        out[b * da : (b + 1) * da, b * da : (b + 1) * da] = u
    return out


def state_prep_unitary(vec: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``vec`` (so U |0...0> = |vec>)."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    d = v.shape[0]
    v = v / np.linalg.norm(v)
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(d)]))
    k = int(np.argmax(np.abs(v)))
    q[:, 0] *= v[k] / q[k, 0]
    if np.linalg.norm(q[:, 0] - v) > 1e-10:
        raise ProtocolError("state preparation column did not reproduce the vector")
    return q


def apply_unitary(state: np.ndarray, n_qubits: int, u: np.ndarray, targets) -> np.ndarray:
    t = len(targets)
    psi = state.reshape((2,) * n_qubits)
    rest = [ax for ax in range(n_qubits) if ax not in targets]
    perm = list(targets) + rest
    psi = psi.transpose(perm).reshape(2**t, -1)
    psi = u @ psi
    psi = psi.reshape((2,) * n_qubits)
    inverse = np.argsort(perm)
    return psi.transpose(inverse).reshape(-1)


def reduced_density(state: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the ``keep`` qubits."""
    keep = list(keep)
    rest = [q for q in range(n_qubits) if q not in keep]
    psi = state.reshape((2,) * n_qubits)
    m = psi.transpose(keep + rest).reshape(2 ** len(keep), -1)
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
        if abs(total - 1.0) > 1e-9:
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
    """One run's state: classical input bits plus the simulated wires.

    ``bits`` maps each basis-valued input wire to its bit; ``vec`` is the
    state vector of every other wire, in the order of ``wires``.
    """

    bits: dict[int, int]
    wires: tuple[int, ...]
    vec: np.ndarray

    def _positions(self, wires) -> list[int]:
        missing = [q for q in wires if q not in self.wires]
        if missing:
            raise ProtocolError(f"wires {missing} are classical in this run")
        return [self.wires.index(q) for q in wires]

    def apply(self, op: np.ndarray, targets) -> Branch:
        """Apply ``op`` on ``targets``, cut to the block the bits select.

        Exact when ``op`` is block-diagonal on the classical wires, which
        :meth:`ProtocolSpec.validate` enforces for every move.
        """
        targets = tuple(targets)
        classical = [k for k, q in enumerate(targets) if q in self.bits]
        if classical:
            b = 0
            for k in classical:
                b = (b << 1) | self.bits[targets[k]]
            op = _block_view(np.asarray(op), len(targets), classical)[b, :, b, :]
        rest = self._positions([q for q in targets if q not in self.bits])
        vec = apply_unitary(self.vec, len(self.wires), op, rest)
        return Branch(self.bits, self.wires, vec)

    def expectation(self, op: np.ndarray, targets) -> float:
        """<psi|op_bb|psi>: exact for any op because the bits are a basis state."""
        return float(np.vdot(self.vec, self.apply(op, targets).vec).real)

    def density(self, wires) -> np.ndarray:
        """Reduced density matrix on some simulated wires, in that order."""
        return reduced_density(self.vec, len(self.wires), self._positions(wires))

    def bipartite(self, part_h, part_k) -> BipartitePureState:
        """The simulated state as a pure state across (part_h, part_k)."""
        order = [*part_h, *part_k]
        if sorted(order) != sorted(self.wires):
            raise ProtocolError(
                "part_h + part_k must cover exactly the simulated wires"
            )
        psi = self.vec.reshape((2,) * len(self.wires)).transpose(self._positions(order))
        return make_pure(2 ** len(part_h), 2 ** len(part_k), psi.reshape(-1))


def initial_state(layout: RegisterLayout, register_states: dict) -> Branch:
    """Product state over registers; ints are basis values, arrays amplitudes.

    A basis-valued input register becomes classical bits; every other
    register is a simulated wire. Unlisted registers start at |0...0>.
    """
    bits: dict[int, int] = {}
    wires: list[int] = []
    vec = np.ones(1, dtype=np.complex128)
    for reg in layout.registers:
        val = register_states.get(reg.name, 0)
        if isinstance(val, (int, np.integer)):
            if not 0 <= int(val) < reg.dim:
                raise SizeError(f"value {val} out of range for register {reg.name}")
            if reg.kind == "input":
                for k, q in enumerate(reg.qubits):
                    bits[q] = (int(val) >> (reg.n_qubits - 1 - k)) & 1
                continue
            piece = np.zeros(reg.dim, dtype=np.complex128)
            piece[int(val)] = 1.0
        else:
            piece = np.asarray(val, dtype=np.complex128).reshape(-1)
            if piece.shape[0] != reg.dim:
                raise SizeError(f"state length mismatch for register {reg.name}")
            piece = piece / np.linalg.norm(piece)
        wires.extend(reg.qubits)
        vec = np.outer(vec, piece).reshape(-1)
    if len(wires) > MAX_QUBITS:
        raise SizeError(
            f"{len(wires)} simulated qubits exceed the simulation cap {MAX_QUBITS}"
        )
    return Branch(bits, tuple(wires), vec)


def evolve(spec: ProtocolSpec, state: Branch, upto: int | None = None) -> Branch:
    """Apply the first ``upto`` moves (all of them by default)."""
    moves = spec.moves if upto is None else spec.moves[:upto]
    for move in moves:
        state = state.apply(move.unitary, move.targets)
    return state


def first_message_density(spec: ProtocolSpec, register_states: dict) -> np.ndarray:
    """Density of the first message right after the move that sends it."""
    upto = spec.first_message_index() + 1
    state = evolve(spec, initial_state(spec.layout, register_states), upto)
    return state.density(spec.moves[upto - 1].send)


def outcome_distribution(spec: ProtocolSpec, state: Branch) -> np.ndarray:
    meas = spec.final_measurement
    arr = np.array([state.expectation(p, meas.qubits) for p in meas.projectors])
    return arr / arr.sum()


def run_protocol(spec: ProtocolSpec, ensemble: InputEnsemble) -> RunReport:
    """Validate the spec, play out each weighted input, score the target.

    Every instance error is 1 minus the exact probability of the target
    outcome.
    """
    spec.validate()
    dists = []
    errors = []
    for inst in ensemble.instances:
        state = initial_state(spec.layout, inst.register_states)
        state = evolve(spec, state)
        dist = outcome_distribution(spec, state)
        dists.append(tuple(float(p) for p in dist))
        errors.append(1.0 - float(dist[inst.target]))
    error_avg = float(sum(w.weight * e for w, e in zip(ensemble.instances, errors)))
    return RunReport(
        error_avg=error_avg,
        instance_errors=tuple(errors),
        outcome_distributions=tuple(dists),
        message_qubits=spec.message_qubits,
        first_message_qubits=spec.first_message_qubits,
        rounds=spec.rounds,
    )


def total_variation(p, q) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return 0.5 * float(np.sum(np.abs(p - q)))
