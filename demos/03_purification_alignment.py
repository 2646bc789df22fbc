"""Rotating one purification onto another without touching the data side.

Two parties share a pure state on H (x) K. If the K-side player wants to
swap the shared state for a different purification, a unitary on K alone
suffices, exactly when the H-side reductions match and approximately in
general. The achievable overlap is the fidelity of the reductions, and
the leftover distance is at most 2 sqrt(trace distance of reductions).
"""

import numpy as np

from qilab import (
    canonical_purification,
    distance_up_to_phase,
    exact_local_transition,
    fidelity,
    random_density,
    random_unitary,
    trace_distance,
    uhlmann_align,
)
from qilab.suites import SuiteConfig, run_suite
from qilab.transition import apply_k_unitary

print("== exact case: equal reductions ==")
rho = random_density(3, rank=2, seed=1)
phi1 = canonical_purification(rho, dim_k=3)
scrambler = random_unitary(3, seed=2)
phi2 = apply_k_unitary(phi1, scrambler)
u = exact_local_transition(phi1, phi2)
recovered = apply_k_unitary(phi2, u)
print(f"residual after the K-side fix: {distance_up_to_phase(recovered.vec, phi1.vec):.2e}")

print()
print("== approximate case: the overlap meets the fidelity ==")
rho1 = random_density(3, rank=3, seed=3)
rho2 = random_density(3, rank=2, seed=4)
p1 = canonical_purification(rho1, 4)
p2 = canonical_purification(rho2, 4)
result = uhlmann_align(p1, p2)
print(f"achieved overlap^2 : {result.achieved_overlap_sq:.8f}")
print(f"fidelity of inputs : {fidelity(rho1, rho2):.8f}")
print(f"pure-state distance: {result.pure_distance:.6f}")
print(f"ceiling 2 sqrt(t)  : {result.bound:.6f}  (t = {trace_distance(rho1, rho2):.6f})")

print()
print("== no unitary does better ==")
best_random = 0.0
for k in range(200):
    w = random_unitary(4, seed=1000 + k)
    trial = abs(np.vdot(p1.vec, apply_k_unitary(p2, w).vec)) ** 2
    best_random = max(best_random, trial)
print(f"best of 200 random K-side unitaries: {best_random:.8f}")
print(f"aligned value                      : {result.achieved_overlap_sq:.8f}")

print()
print("== randomized certification sweep ==")
checks = run_suite("transition", SuiteConfig(seed=9))
sweep = next(c for c in checks if c.name == "transition_bound_sweep")
print(
    f"{sweep.trials} trials: min slack {sweep.min_slack:.4f}, "
    f"violations {sweep.violations}, worst seed {sweep.details['worst_instance_seed']}"
)
