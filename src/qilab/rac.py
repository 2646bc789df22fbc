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
from .encoding import prefix_mixtures, prefix_table
from .errors import ProtocolError
from .info import binary_entropy, holevo_informations
from .metrics import optimal_measurements
from .protocol import (
    InputColumns,
    InputEnsemble,
    Measurement,
    P0,
    P1,
    SWAP,
    Move,
    ProtocolSpec,
    RegisterLayout,
    make_layout,
    run_protocol,
    state_prep_unitary,
)
from .rng import Stream
from .states import make_densities, mixture_matrix

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
    return 1.0 - 2.0 * bit_of(np.arange(2**n), np.arange(n)[:, None], n)


def bloch_success(bloch: np.ndarray, n: int):
    """Average success of the best per-index measurement for an encoding;
    of each encoding of a stack ``(..., 2^n, 3)``, one per encoding.

    ``bloch`` holds one unit Bloch vector b_x per x. For index i the two
    candidate mixtures differ by d_i = (s @ b)_i / 2^(n-1), the optimal
    measurement succeeds with 1/2 + |d_i| / 4, and indices are uniform.
    """
    d = _signs(n) @ bloch
    out = 0.5 + np.linalg.norm(d, axis=-1).sum(axis=-1) / (2 ** (n - 1) * 4.0 * n)
    return out if out.ndim else float(out)


def _unit_rows(v: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Normalize each row (last axis) of ``v``; a zero row keeps the row of ``prev``."""
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.divide(v, norms, out=prev.copy(), where=norms > 1e-12)


def optimize_rac(n: int, seed: int = 5, starts: int = 6) -> tuple[float, np.ndarray]:
    """Search for the best one-qubit encoding of n bits by see-saw.

    The success is 1/2 + sum_{i,x} s_i(x) u_i . b_x / (2^(n-1) 4n) over
    unit decoding directions u_i and unit encodings b_x. With b fixed the
    best u_i is proportional to sum_x s_i(x) b_x; with u fixed the best b_x
    is proportional to sum_i s_i(x) u_i. Each half-step maximizes over one
    side with the other held, so the success never decreases. Each start
    draws random unit vectors from ``Stream(seed)``, in turn, and alternates
    for ``SEESAW_ROUNDS`` rounds; the starts run together as one stack, and
    the first best start wins. Returns the achieved average success and the
    Bloch vectors found.
    """
    s = _signs(n)
    g = Stream(seed).gauss_array(starts * 3 * (2**n + n)).reshape(starts, -1, 3)
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    bloch, u = g[:, : 2**n], g[:, 2**n :]
    for _ in range(SEESAW_ROUNDS):
        u = _unit_rows(s @ bloch, u)
        bloch = _unit_rows(s.T @ u, bloch)
    vals = bloch_success(bloch, n)
    best = int(np.argmax(vals))
    return float(vals[best]), bloch[best]


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
    return max(1, (n - 1).bit_length())  # ceil(log2 n) bits, at least one


def _index_layout(n: int, *extra) -> RegisterLayout:
    """Alice's n-bit string x, Bob's index i, then the ``extra`` registers."""
    inputs = [("x", n, "input", "alice"), ("i", _index_register_bits(n), "input", "bob")]
    return make_layout([*inputs, *extra])


def rac_protocol(n: int, kets) -> ProtocolSpec:
    """One-qubit random access code with per-index optimal decoding.

    Alice prepares the ket chosen by her string on the message qubit and
    sends it; Bob measures it in the basis that best distinguishes the
    two index-conditional mixtures: for index i, the even mixtures of the
    encodings of the x with bit i at 0 and at 1, all 2n certified at once.
    """
    kets = np.asarray(kets, dtype=np.complex128)
    if len(kets) != 2**n:
        raise ProtocolError(f"need {2**n} encoding states, got {len(kets)}")
    ib = _index_register_bits(n)
    layout = _index_layout(n, ("m", 1, "message", "alice"))
    x_wires = layout.register("x").qubits
    m_wire = layout.register("m").qubits
    encode = {x: state_prep_unitary(kets[x]) for x in range(2**n)}
    move = Move("alice", m_wire, encode, controls=x_wires, send=m_wire)
    # row 2i + b lists the x whose bit i is b, in increasing order
    rows = np.argsort(_signs(n) < 0, kind="stable").reshape(2 * n, -1)
    terms = (kets[:, :, None] * kets[:, None, :].conj())[rows].swapaxes(0, 1)
    weights = np.full(len(terms), 1.0 / len(terms))
    mixed = make_densities(mixture_matrix(weights, terms), tol=1e-8)
    measured = optimal_measurements(list(zip(mixed[::2], mixed[1::2])))
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
    layout = _index_layout(n, ("m", n, "message", "alice"))
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
    layout = _index_layout(n, ("mi", ib, "message", "bob"), ("ans", 1, "work", "alice"))
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
    """Uniform inputs (x, i) with target bit x_i, in row x * n + i."""
    x, i = np.indices((2**n, n)).reshape(2, -1)
    weights = np.full(len(x), 1.0 / (2**n * n))
    return InputEnsemble(InputColumns({"x": x, "i": i}), weights, bit_of(x, i, n))


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
    if spec.rounds != 1 or spec.moves[spec.first_message_index()].player != "alice":
        raise ProtocolError("expected exactly one message, sent by alice")
    m = spec.first_message_qubits
    report = run_protocol(spec, index_ensemble(n))
    eps = report.error_avg
    cost_floor = (1.0 - binary_entropy(eps)) * n
    err = report.instance_errors.reshape(2**n, n)  # [x, i]
    cube = proto.message_states(spec, InputColumns({"x": np.arange(2**n)}))
    mats, priors = np.array([s.mat for s in cube]), np.full(2**n, 1.0 / 2**n)
    # the cube's average and its prefix mixtures, certified in one call
    average, *mixtures = make_densities([mixture_matrix(priors, mats), *prefix_mixtures(mats, n)])
    entropies = [s.entropy for s in cube]
    info = float(holevo_informations([priors], [entropies], [average.entropy])[0])

    fano_sum = 0.0
    decomposition_lhs = 0.0
    min_fano_slack = np.inf
    for j, row in enumerate(prefix_table(entropies, [rho.entropy for rho in mixtures], n)):
        # row j: per j-bit prefix y, the error on bit j averaged over the x extending y
        gaps = 1.0 - binary_entropy(err[:, j].reshape(2**j, -1).mean(axis=1))
        min_fano_slack = min(min_fano_slack, float(np.min(np.subtract(row, gaps))))
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
