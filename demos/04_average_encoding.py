"""If an encoding barely remembers its input, all its states look alike.

For a uniform encoding of m-bit strings, the average pairwise trace
distance Delta is at most 2 sqrt(I(X:Q)): little information forces the
encoded states toward their mean. This script measures the chain on
concrete ensembles, exhibits the pairing construction behind it, and
shows the prefix decomposition of the ensemble information.
"""

import numpy as np

from qilab import find_pairing, holevo_information, make_densities, pure_density, random_density
from qilab.encoding import (
    distances_to_mean,
    enumerate_pairings,
    information_floor,
    pairing_average,
    pairwise_distance_matrix,
    prefix_mixtures,
    prefix_table,
)
from qilab.states import mixture_matrix


def stats(states):
    """Delta, Delta' and I(X:Q) of a uniform encoding of m-bit strings."""
    mats, priors = np.array([s.mat for s in states]), np.full(len(states), 1.0 / len(states))
    to_mean = distances_to_mean(mats[None], mixture_matrix(priors, mats)[None])[0]
    return np.mean(pairwise_distance_matrix(mats)), to_mean, holevo_information(priors, states)


print("== one-bit encodings: orthogonal states saturate everything ==")
delta, to_mean, info = stats([pure_density([1, 0]), pure_density([0, 1])])
print(f"Delta = {delta:.4f}, Delta' = {to_mean:.4f}, I = {info:.4f}")
print(f"check: Delta <= 2 sqrt(I) -> {delta:.4f} <= {2 * np.sqrt(info):.4f}")

print()
print("== random three-bit encodings ==")
for seed in (5, 6):
    states = [random_density(4, 1 + (seed + x) % 4, seed=50 * seed + x) for x in range(8)]
    delta, to_mean, info = stats(states)
    floor = information_floor(delta, m=3)
    print(
        f"seed {seed}: Delta'={to_mean:.4f} <= Delta={delta:.4f} "
        f"<= 2 sqrt(I)={2 * np.sqrt(info):.4f};  I={info:.4f} >= floor={floor:.4f}"
    )

print()
print("== the pairing behind the bound ==")
states = [random_density(2, 1 + x % 2, seed=900 + x) for x in range(8)]
mats = np.array([s.mat for s in states])
d = pairwise_distance_matrix(mats)
delta = float(np.sum(d)) / 64
pairing = find_pairing(d, seed=3)
found = pairing_average(d, pairing)
best = max(pairing_average(d, p) for p in enumerate_pairings(8))
print(f"Delta                  : {delta:.5f}")
print(f"random-search pairing  : {found:.5f}  (>= Delta, as promised)")
print(f"exhaustive best pairing: {best:.5f}  (105 pairings checked)")
print(f"chosen pairs           : {pairing}")

print()
print("== information splits across bit positions ==")
mixtures = make_densities(prefix_mixtures(mats, 3))
table = prefix_table([s.entropy for s in states], [rho.entropy for rho in mixtures], 3)
print(f"sum of per-prefix bit informations: {sum(np.mean(row) for row in table):.5f}")
info = holevo_information(np.full(8, 1 / 8), states)
print(f"whole-ensemble information        : {info:.5f}  (never smaller)")
print(f"I of the first bit alone          : {table[0][0]:.5f}")
