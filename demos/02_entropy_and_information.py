"""Entropy bookkeeping: how many bits does a quantum register hold?

A register of m qubits can carry m bits at most, no matter how cleverly
states are chosen: the Holevo quantity S(mean) - avg S(state) caps the
mutual information any measurement extracts. This script builds a few
encodings and watches the cap in action.
"""

import numpy as np

from qilab import (
    binary_entropy,
    binary_entropy_gap,
    bipartite_mutual_info,
    holevo_information,
    make_density,
    pure_density,
    random_density,
    random_unitary,
    von_neumann_entropy,
)
from qilab.info import measured_mutual_infos

print("== entropy basics ==")
print(f"S(|0><0|)  = {von_neumann_entropy(pure_density([1, 0])):.4f}")
print(f"S(I/2)     = {von_neumann_entropy(make_density(np.eye(2) / 2)):.4f}")
print(f"H(1/2)     = {binary_entropy(0.5):.4f}")
print(f"1 - H(0.6) = {binary_entropy_gap(0.1):.6f}  (>= 0.1^2 = 0.01)")

print()
print("== a qubit can carry one bit, and four states do not help ==")
uniform = np.full(4, 0.25)  # a prior over two-bit labels


def measured(states, projectors):
    """I(label : outcome) of a uniform four-state encoding under a measurement."""
    mats = np.array([s.mat for s in states])
    return measured_mutual_infos(uniform[None], mats[None], np.array(projectors)[None])[0]


four = [
    pure_density([1, 0]),
    pure_density([0, 1]),
    pure_density(np.array([1, 1]) / np.sqrt(2)),
    pure_density(np.array([1, -1]) / np.sqrt(2)),
]
chi = holevo_information(uniform, four)
print(f"Holevo information of the 4-state qubit encoding: {chi:.4f} (cap: 1)")

comp = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
print(f"computational measurement extracts I = {measured(four, comp):.4f}")

print()
print("== random encodings never beat the cap ==")
worst = np.inf
for trial in range(200):
    dim = 2 + trial % 3
    states = [random_density(dim, 1 + trial % dim, seed=100 + 7 * trial + i) for i in range(4)]
    u = random_unitary(dim, seed=500 + trial)
    meas = [np.outer(u[:, k], np.conj(u[:, k])) for k in range(dim)]
    worst = min(worst, holevo_information(uniform, states) - measured(states, meas))
print(f"min (Holevo - measured) over 200 random trials: {worst:.3e}  (never negative)")

print()
print("== entanglement doubles the correlations ==")
bell = pure_density(np.array([1, 0, 0, 1]) / np.sqrt(2))
print(f"I(A:B) of a Bell pair: {bipartite_mutual_info(bell, 2, 2):.4f} (two bits!)")
