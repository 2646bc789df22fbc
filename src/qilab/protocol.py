"""Two-party protocol simulator with register ownership tracking.

The model: Alice and Bob each own a set of qubits. A move is a unitary on
some of the mover's qubits followed by handing a subset of them to the
other player; the global state never collapses until one final projective
measurement by the deciding player. Input registers are read-only: a move
may use them as controls (any block-diagonal action in their computational
basis) but must never rewrite them. Qubit 0 is the most significant index
position, matching :func:`qilab.linalg.tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import linalg
from .errors import ModelViolationError, ProtocolError, SizeError
from .info import validate_projective
from .linalg import dagger

Player = Literal["alice", "bob"]

MAX_QUBITS = 8  # exact simulation caps at dimension 256

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
        if len(seen) > MAX_QUBITS:
            raise SizeError(
                f"{len(seen)} qubits exceeds the exact-simulation cap {MAX_QUBITS}"
            )

    @property
    def n_qubits(self) -> int:
        return sum(r.n_qubits for r in self.registers)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

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
        for q in meas.qubits:
            if owner[q] != meas.player:
                raise ProtocolError(
                    f"final measurement touches qubit {q} not owned by {meas.player}"
                )
        validate_projective(meas.projectors, 2 ** len(meas.qubits))


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
    c = blocks.shape[0]
    for b1 in range(c):
        for b2 in range(c):
            if b1 != b2 and np.max(np.abs(blocks[b1, :, b2, :])) > tol:
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


def extract_pure_factor(
    state: np.ndarray,
    n_qubits: int,
    fixed_bits: dict[int, int],
    part_h,
    part_k,
    tol: float = 1e-9,
) -> np.ndarray:
    """Slice out known-classical wires and order the rest as (H..., K...).

    Requires the state to factor exactly across the fixed wires (norm of
    the slice must be 1); raises ProtocolError otherwise.
    """
    psi = state.reshape((2,) * n_qubits)
    index = tuple(
        fixed_bits[q] if q in fixed_bits else slice(None) for q in range(n_qubits)
    )
    sub = psi[index]
    unfixed = [q for q in range(n_qubits) if q not in fixed_bits]
    wanted = list(part_h) + list(part_k)
    if sorted(wanted) != sorted(unfixed):
        raise ProtocolError("part_h + part_k must cover exactly the unfixed wires")
    order = [unfixed.index(q) for q in wanted]
    vec = sub.transpose(order).reshape(-1)
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > tol:
        raise ProtocolError(
            f"state does not factor across fixed wires (slice norm {nrm})"
        )
    return vec / nrm


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


def initial_state(layout: RegisterLayout, register_states: dict) -> np.ndarray:
    """Product state over registers; ints are basis values, arrays amplitudes."""
    pieces = []
    for reg in layout.registers:
        val = register_states.get(reg.name, 0)
        if isinstance(val, (int, np.integer)):
            if not 0 <= int(val) < reg.dim:
                raise SizeError(f"value {val} out of range for register {reg.name}")
            piece = np.zeros(reg.dim, dtype=np.complex128)
            piece[int(val)] = 1.0
        else:
            piece = np.asarray(val, dtype=np.complex128).reshape(-1)
            if piece.shape[0] != reg.dim:
                raise SizeError(f"state length mismatch for register {reg.name}")
            piece = piece / np.linalg.norm(piece)
        pieces.append(piece)
    state = pieces[0]
    for piece in pieces[1:]:
        state = np.kron(state, piece)
    return state


def evolve(spec: ProtocolSpec, state: np.ndarray, upto: int | None = None) -> np.ndarray:
    """Apply the first ``upto`` moves (all of them by default)."""
    n = spec.layout.n_qubits
    moves = spec.moves if upto is None else spec.moves[:upto]
    for move in moves:
        state = apply_unitary(state, n, move.unitary, move.targets)
    return state


def outcome_distribution(spec: ProtocolSpec, state: np.ndarray) -> np.ndarray:
    meas = spec.final_measurement
    n = spec.layout.n_qubits
    probs = []
    for proj in meas.projectors:
        projected = apply_unitary(state, n, linalg.as_matrix(proj), meas.qubits)
        probs.append(float(np.linalg.norm(projected) ** 2))
    arr = np.array(probs)
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
