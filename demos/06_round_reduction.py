"""Trading a round of interaction for a little error.

Setting: a two-round protocol for the nested index problem where the
player WITHOUT the pointer speaks first. His opening message can say
little about the slot that ends up mattering, so the pipeline
(1) replaces the message source with a fresh superposed ancilla, making
    it carry exactly zero information about that slot,
(2) patches the damage with a corrective unitary per slot value, built
    by purification alignment, and
(3) hands the now input-independent message to the other player, who
    prepares its purification herself and opens the protocol instead:
    one round fewer, identical outcome statistics.

Bob, the player without the pointer, gives his opening as a block set:
the y registers his move reads and one unitary on the message qubit per
value of them. The table ``openings(n)`` holds four hand-built ones; any
other block set, such as the random one below, goes through the same
constructor.
"""

import numpy as np

from qilab.protocol import run_protocol
from qilab.reduction import message_info_budget, openings, run_pipelines, slice_distribution
from qilab.reduction import two_round_family
from qilab.states import random_unitary

print("== the toy protocols ==")
for style, (reads, blocks) in openings(2).items():
    spec = two_round_family(reads, blocks)
    errs = []
    for j in (0, 1):
        r = run_protocol(spec, slice_distribution(spec, j))
        errs.append(r.error_avg)
    shown = ", ".join(reads) or "nothing"
    print(f"{style:10s}: reads {shown:8s}, slice errors {errs[0]:.4f} / {errs[1]:.4f}")

random_blocks = {v: random_unitary(2, 7 + v) for v in range(4)}
spec = two_round_family(("y0", "y1"), random_blocks)
mus, joint, ell1 = message_info_budget([spec])[0]
print(f"random    : reads y0, y1  , per-slot informations {np.round(mus, 4)}, joint {joint:.4f}")

print()
print("== full pipeline on the rotation instance, slot 0 ==")
rep = next(run_pipelines(("rotation",)))[0]
f, d = rep.first, rep.drop
print(f"slice error of the original protocol   eps_0  = {f.eps_j:.4f}")
print(f"first-message information about slot 0 mu_0   = {rep.mus[0]:.4f}")
print(f"after the rewrite, information drops to        {f.mu_j_prime:.2e}")
print(f"alignment distances per slot value             {np.round(f.align_distances, 4)}")
print(f"modified-protocol error                delta_0 = {f.delta_j:.4f}")
print(f"bound eps_0 + 2 E sqrt(t_z)                    = {f.eps_j + 2 * f.mean_sqrt_t:.4f}")
print(f"bound eps_0 + 4 mu_0^(1/4)                     = {f.delta_j + rep.info_bound_slack:.4f}")
print()
print(f"rounds: {d.rounds_before} -> {d.rounds_after}")
print(f"message qubits: {d.message_qubits_before} -> {d.message_qubits_after} (budget {d.budget})")
print(f"outcome agreement with the modified protocol: {d.max_outcome_tv:.2e} total variation")
print(f"exact-transition residual: {d.max_transition_residual:.2e}")

print()
print("== information budget of the first message ==")
print(f"per-slot informations: {np.round(rep.mus, 4)}")
print(f"their sum {sum(rep.mus):.4f} <= joint {rep.joint_info:.4f} <= message size {rep.ell1}")

print()
print("== superposed vs classical unset slots make no difference ==")
print(f"|error(superposed) - error(classical)| = {abs(f.eps_j - rep.classical_error):.2e}")
