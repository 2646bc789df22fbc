"""How far apart are two quantum states, and who can tell?

Walks through the two workhorse distance measures: the trace distance,
which is exactly twice the best advantage any measurement has at telling
two states apart, and the fidelity, the best squared overlap any pair of
purifications can reach. The two are tied together by a two-sided bound,
checked here on random states.
"""

import numpy as np

from qilab import (
    bayes_success,
    fidelity,
    fidelity_distance_bounds,
    make_density,
    optimal_measurement,
    pure_density,
    random_density,
    trace_distance,
)

ket0 = pure_density([1, 0])
plus = pure_density(np.array([1, 1]) / np.sqrt(2))

print("== distinguishing |0> from |+> ==")
t = trace_distance(ket0, plus)
print(f"trace distance       : {t:.6f}   (sqrt(2) = {np.sqrt(2):.6f})")
print(f"best guessing success: {bayes_success(ket0, plus):.6f}")

meas, achieved = optimal_measurement(ket0, plus)
print(f"optimal measurement achieves l1 = {achieved:.6f} (equals the distance)")
print("positive projector:")
print(np.round(meas.projector_pos, 4))

print()
print("== fidelity vs trace distance on random pairs ==")
print("state pair                F        t/2      1-sqrt(F)  sqrt(1-F)")
for seed in range(4):
    r1 = random_density(4, rank=seed % 3 + 1, seed=10 + seed)
    r2 = random_density(4, rank=3, seed=20 + seed)
    f = fidelity(r1, r2)
    t = trace_distance(r1, r2)
    half_t = t / 2
    print(
        f"random dim-4 pair #{seed}    {f:.5f}  {half_t:.5f}   "
        f"{1 - np.sqrt(f):.5f}    {np.sqrt(1 - f):.5f}"
    )
    lo, hi = fidelity_distance_bounds(f, t)
    assert lo >= -1e-9 and hi >= -1e-9

print()
print("the sandwich 1 - sqrt(F) <= t/2 <= sqrt(1 - F) held every time")

print()
print("== the maximally mixed state is hard to tell from anything ==")
mixed = make_density(np.eye(2) / 2)
for name, other in [("|0><0|", ket0), ("|+><+|", plus)]:
    print(
        f"vs {name}: distance {trace_distance(mixed, other):.4f}, "
        f"success {bayes_success(mixed, other):.4f}"
    )
