"""Index-function protocols and random access codes.

The index function: Alice holds an n-bit string x, Bob holds an index i,
and the answer is the bit x_i. A random access code is a one-message
protocol for it: Alice encodes x into m qubits, Bob measures in a basis
chosen by i. The one-message cost with Alice starting is at least
(1 - H(eps)) * n qubits at average error eps, and this module measures
every link of that chain on concrete protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import protocol as proto
from .encoding import prefix_information
from .errors import ProtocolError
from .info import (
    binary_entropy,
    holevo_information,
    uniform_cube_ensemble,
)
from .metrics import optimal_measurements
from .protocol import (
    InputEnsemble,
    InputInstance,
    Measurement,
    P0,
    P1,
    SWAP,
    Move,
    ProtocolSpec,
    make_layout,
    run_protocol,
    state_prep_unitary,
)
from .rng import Stream
from .states import DensityMatrix, make_densities

OPTIMAL_TWO_BIT_SUCCESS = (2.0 + np.sqrt(2.0)) / 4.0  # cos^2(pi/8)
SEESAW_ROUNDS = 100  # alternations per start of optimize_rac


def bit_of(value: int, i: int, n: int) -> int:
    """Bit i of an n-bit value, most significant first."""
    return (value >> (n - 1 - i)) & 1


# ---------------------------------------------------------------------------
# Optimization oracle over Bloch-vector encodings.
# ---------------------------------------------------------------------------


def _signs(n: int) -> np.ndarray:
    """Sign matrix s[i, x] = +1 if bit i of x is 0, else -1."""
    return np.array(
        [[1.0 - 2.0 * bit_of(x, i, n) for x in range(2**n)] for i in range(n)]
    )


def bloch_success(bloch: np.ndarray, n: int) -> float:
    """Average success of the best per-index measurement for an encoding.

    ``bloch`` holds one unit Bloch vector b_x per x. For index i the two
    candidate mixtures differ by d_i = (s @ b)_i / 2^(n-1), the optimal
    measurement succeeds with 1/2 + |d_i| / 4, and indices are uniform.
    """
    d = _signs(n) @ bloch
    return 0.5 + float(np.linalg.norm(d, axis=1).sum()) / (2 ** (n - 1) * 4.0 * n)


def _unit_rows(v: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Normalize each row of ``v``; a zero row keeps the row of ``prev``."""
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return np.divide(v, norms, out=prev.copy(), where=norms > 1e-12)


def optimize_rac(n: int, seed: int = 5, starts: int = 6) -> tuple[float, np.ndarray]:
    """Search for the best one-qubit encoding of n bits by see-saw.

    The success is 1/2 + sum_{i,x} s_i(x) u_i . b_x / (2^(n-1) 4n) over
    unit decoding directions u_i and unit encodings b_x. With b fixed the
    best u_i is proportional to sum_x s_i(x) b_x; with u fixed the best b_x
    is proportional to sum_i s_i(x) u_i. Each half-step maximizes over one
    side with the other held, so the success never decreases. Each start
    draws random unit vectors from ``Stream(seed)`` and alternates for
    ``SEESAW_ROUNDS`` rounds; the best start wins. Returns the achieved
    average success and the Bloch vectors found.
    """
    s = _signs(n)
    stream = Stream(seed)
    best_val = -1.0
    best = None
    for _ in range(starts):
        g = stream.gauss_array(3 * (2**n + n)).reshape(-1, 3)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        bloch, u = g[: 2**n], g[2**n :]
        for _ in range(SEESAW_ROUNDS):
            u = _unit_rows(s @ bloch, u)
            bloch = _unit_rows(s.T @ u, bloch)
        val = bloch_success(bloch, n)
        if val > best_val:
            best_val, best = val, bloch
    return best_val, best


def bloch_to_ket(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    b = b / np.linalg.norm(b)
    theta = np.arccos(np.clip(b[2], -1.0, 1.0))
    phi = np.arctan2(b[1], b[0])
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)],
        dtype=np.complex128,
    )


# ---------------------------------------------------------------------------
# Concrete one-message protocols.
# ---------------------------------------------------------------------------


def _index_register_bits(n: int) -> int:
    return max(1, int(np.ceil(np.log2(n))))


def _mixture_pair(kets, n: int, i: int) -> tuple[DensityMatrix, DensityMatrix]:
    groups: dict[int, list[np.ndarray]] = {0: [], 1: []}
    for x, ket in enumerate(kets):
        groups[bit_of(x, i, n)].append(np.outer(ket, np.conj(ket)))
    return tuple(make_densities([sum(g) / len(g) for g in groups.values()], tol=1e-8))


def rac_protocol(n: int, kets) -> ProtocolSpec:
    """One-qubit random access code with per-index optimal decoding.

    Alice prepares the ket chosen by her string on the message qubit and
    sends it; Bob measures it in the basis that best distinguishes the
    two index-conditional mixtures.
    """
    kets = [np.asarray(k, dtype=np.complex128) for k in kets]
    if len(kets) != 2**n:
        raise ProtocolError(f"need {2**n} encoding states, got {len(kets)}")
    ib = _index_register_bits(n)
    layout = make_layout(
        [
            ("x", n, "input", "alice"),
            ("i", ib, "input", "bob"),
            ("m", 1, "message", "alice"),
        ]
    )
    x_wires = layout.register("x").qubits
    m_wire = layout.register("m").qubits
    encode = {x: state_prep_unitary(kets[x]) for x in range(2**n)}
    move = Move("alice", m_wire, encode, controls=x_wires, send=m_wire)
    measured = optimal_measurements([_mixture_pair(kets, n, i) for i in range(n)])
    decode = {i: tuple(meas) for i, (meas, _) in enumerate(measured)}
    decode.update({i: (proto.I2, np.zeros((2, 2), dtype=np.complex128)) for i in range(n, 2**ib)})
    i_wires = layout.register("i").qubits
    measurement = Measurement("bob", m_wire, decode, controls=i_wires)
    return ProtocolSpec(layout, (move,), measurement)


def _copy_moves(player, sources, copies) -> list[Move]:
    """copies[k] ^= sources[k], one CNOT move per bit; the last sends the copies."""
    moves = [Move(player, (c,), {1: proto.X}, controls=(s,)) for s, c in zip(sources, copies)]
    moves[-1] = replace(moves[-1], send=tuple(copies))
    return moves


def classical_copy_protocol(n: int) -> ProtocolSpec:
    """Alice copies all n bits into the message; zero error at m = n.

    Alice sends x through one CNOT per bit. Bob swaps m_i onto the first
    message wire, one controlled swap per index, and measures that wire.
    """
    ib = _index_register_bits(n)
    layout = make_layout(
        [
            ("x", n, "input", "alice"),
            ("i", ib, "input", "bob"),
            ("m", n, "message", "alice"),
        ]
    )
    x_wires = layout.register("x").qubits
    i_wires = layout.register("i").qubits
    m_wires = layout.register("m").qubits
    moves = _copy_moves("alice", x_wires, m_wires)
    for i in range(1, n):
        moves.append(Move("bob", (m_wires[0], m_wires[i]), {i: SWAP}, controls=i_wires))
    measurement = Measurement("bob", m_wires[:1], {0: (P0, P1)})
    return ProtocolSpec(layout, tuple(moves), measurement)


def trivial_index_protocol(n: int) -> ProtocolSpec:
    """Two messages, zero error: Bob sends his index, Alice answers x_i.

    Bob copies the index register into log-n message qubits; Alice flips
    an answer qubit conditioned on (x, received index) and sends it back
    for Bob to measure. Total cost is ceil(log2 n) + 1 qubits.
    """
    ib = _index_register_bits(n)
    layout = make_layout(
        [
            ("x", n, "input", "alice"),
            ("i", ib, "input", "bob"),
            ("mi", ib, "message", "bob"),
            ("ans", 1, "work", "alice"),
        ]
    )
    x_wires = layout.register("x").qubits
    i_wires = layout.register("i").qubits
    mi_wires = layout.register("mi").qubits
    ans_wire = layout.register("ans").qubits
    answer_blocks = {
        (x << ib) | i: proto.X for x in range(2**n) for i in range(n) if bit_of(x, i, n)
    }
    answer = Move(
        "alice", ans_wire, answer_blocks, controls=(*x_wires, *mi_wires), send=ans_wire
    )
    moves = (*_copy_moves("bob", i_wires, mi_wires), answer)
    return ProtocolSpec(layout, moves, Measurement("bob", ans_wire, {0: (P0, P1)}))


def index_ensemble(n: int) -> InputEnsemble:
    """Uniform inputs (x, i) with target bit x_i."""
    instances = []
    w = 1.0 / (2**n * n)
    for x in range(2**n):
        for i in range(n):
            instances.append(
                InputInstance(w, {"x": x, "i": i}, bit_of(x, i, n))
            )
    return InputEnsemble(tuple(instances))


def message_encoding(spec: ProtocolSpec, n: int):
    """The ensemble x -> sigma_x carried by the one message."""
    return uniform_cube_ensemble(proto.message_states(spec, [{"x": x} for x in range(2**n)]))


@dataclass(frozen=True)
class RacBoundReport:
    """All links of the one-message lower-bound chain, measured.

    The chain is (1 - H(eps)) * n <= per-prefix entropy-gap sum <=
    prefix information sum <= I(Q:X) <= m.
    """

    n: int
    m: int
    eps: float
    cost_floor: float
    fano_sum: float
    decomposition_lhs: float
    info: float
    min_prefix_fano_slack: float
    slack: float

    def chain_slacks(self) -> tuple[float, float, float, float]:
        return (
            self.fano_sum - self.cost_floor,
            self.decomposition_lhs - self.fano_sum,
            self.info - self.decomposition_lhs,
            float(self.m) - self.info,
        )


def rac_lower_bound_check(spec: ProtocolSpec, n: int) -> RacBoundReport:
    """Measure eps and certify (1 - H(eps)) * n <= m link by link.

    Requires a one-message protocol: Alice's moves, the last of them
    sending the whole message, then Bob's moves and measurement.
    """
    sends = [i for i, mv in enumerate(spec.moves) if mv.send]
    if len(sends) != 1 or spec.moves[sends[0]].player != "alice":
        raise ProtocolError("expected exactly one message, sent by alice")
    m = spec.first_message_qubits
    inputs = index_ensemble(n)
    report = run_protocol(spec, inputs)
    eps = report.error_avg
    cost_floor = (1.0 - binary_entropy(eps)) * n

    err = {}
    for idx, inst in enumerate(inputs.instances):
        err[(inst.register_states["x"], inst.register_states["i"])] = (
            report.instance_errors[idx]
        )
    ensemble = message_encoding(spec, n)
    table = prefix_information(ensemble)
    info = holevo_information(ensemble)

    fano_sum = 0.0
    decomposition_lhs = 0.0
    min_fano_slack = np.inf
    for j, row in enumerate(table):
        gaps = []
        for y, sub_info in enumerate(row):
            suffix_count = 2 ** (n - j)
            errs = [
                err[((y << (n - j)) | suffix, j)] for suffix in range(suffix_count)
            ]
            eps_y = float(np.mean(errs))
            gap = 1.0 - binary_entropy(eps_y)
            gaps.append(gap)
            min_fano_slack = min(min_fano_slack, sub_info - gap)
        fano_sum += float(np.mean(gaps))
        decomposition_lhs += float(np.mean(row))
    return RacBoundReport(
        n=n,
        m=m,
        eps=eps,
        cost_floor=cost_floor,
        fano_sum=fano_sum,
        decomposition_lhs=decomposition_lhs,
        info=info,
        min_prefix_fano_slack=float(min_fano_slack),
        slack=float(m) - cost_floor,
    )
