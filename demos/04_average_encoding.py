"""If an encoding barely remembers its input, all its states look alike.

For a uniform encoding of m-bit strings, the average pairwise trace
distance Delta is at most 2 sqrt(I(X:Q)): little information forces the
encoded states toward their mean. This script measures the chain on
concrete ensembles, exhibits the pairing construction behind it, and
shows the prefix decomposition of the ensemble information.
"""

import numpy as np

from qilab import (
    encoding_stats,
    find_pairing,
    holevo_information,
    pure_density,
    random_density,
    uniform_cube_ensemble,
)
from qilab.encoding import (
    enumerate_pairings,
    information_floor,
    pairing_average,
    pairwise_distance_matrix,
    prefix_information,
)

print("== one-bit encodings: orthogonal states saturate everything ==")
e1 = uniform_cube_ensemble([pure_density([1, 0]), pure_density([0, 1])])
s1 = encoding_stats(e1)
print(f"Delta = {s1.delta_pairwise:.4f}, Delta' = {s1.delta_to_mean:.4f}, I = {s1.info:.4f}")
print(f"check: Delta <= 2 sqrt(I) -> {s1.delta_pairwise:.4f} <= {2 * np.sqrt(s1.info):.4f}")

print()
print("== random three-bit encodings ==")
for seed in (5, 6):
    states = [random_density(4, 1 + (seed + x) % 4, seed=50 * seed + x) for x in range(8)]
    e = uniform_cube_ensemble(states)
    s = encoding_stats(e, seed=seed)
    floor = information_floor(s.delta_pairwise, m=3)
    print(
        f"seed {seed}: Delta'={s.delta_to_mean:.4f} <= Delta={s.delta_pairwise:.4f} "
        f"<= 2 sqrt(I)={2 * np.sqrt(s.info):.4f};  I={s.info:.4f} >= floor={floor:.4f}"
    )

print()
print("== the pairing behind the bound ==")
states = [random_density(2, 1 + x % 2, seed=900 + x) for x in range(8)]
e = uniform_cube_ensemble(states)
d = pairwise_distance_matrix(e)
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
table = prefix_information(e)
print(f"sum of per-prefix bit informations: {sum(np.mean(row) for row in table):.5f}")
print(f"whole-ensemble information        : {holevo_information(e):.5f}  (never smaller)")
print(f"I of the first bit alone          : {table[0][0]:.5f}")
