"""Packing n bits into one qubit, and why it cannot work too well.

A random access code sends one qubit from which any chosen input bit can
be recovered. The best 2-into-1 code succeeds with cos^2(pi/8) ~ 0.8536;
pushing the error eps down costs (1 - H(eps)) per bit, so one qubit can
never serve many bits well. Both ends are measured here on protocols run
through the exact simulator.
"""

import numpy as np

from qilab.protocol import run_protocol
from qilab.rac import (
    OPTIMAL_TWO_BIT_SUCCESS,
    bloch_to_ket,
    classical_copy_protocol,
    index_ensemble,
    optimize_rac,
    rac_lower_bound_check,
    rac_protocol,
    trivial_index_protocol,
)

print("== the easy direction: two messages solve the index problem ==")
spec = trivial_index_protocol(3)
report = run_protocol(spec, index_ensemble(3))
print(
    f"index-exchange protocol on 3 bits: error {report.error_avg:.4f}, "
    f"{spec.rounds} messages, {spec.message_qubits} qubits total"
)

print()
print("== one message, one qubit, two bits ==")
success, bloch = optimize_rac(2, seed=5, starts=3)
print(f"oracle optimum      : {success:.6f}")
print(f"cos^2(pi/8)         : {OPTIMAL_TWO_BIT_SUCCESS:.6f}")
print("encoding Bloch vectors:")
print(np.round(bloch, 4))

code = rac_protocol(2, [bloch_to_ket(b) for b in bloch])
sim = run_protocol(code, index_ensemble(2))
print(f"exact simulation success: {1 - sim.error_avg:.6f}")

print()
print("== the cost floor (1 - H(eps)) * n <= qubits ==")
for n in (2, 3):
    _, b = optimize_rac(n, seed=5, starts=3)
    rep = rac_lower_bound_check(rac_protocol(n, [bloch_to_ket(v) for v in b]), n)
    print(
        f"n={n}: eps={rep.eps:.4f}, (1-H(eps))*n={rep.cost_floor:.4f} <= m={rep.m} "
        f"(slack {rep.slack:.4f}); carried information {rep.info:.4f}"
    )

print()
print("== classical protocols hit the floor exactly ==")
rep = rac_lower_bound_check(classical_copy_protocol(3), 3)
print(
    f"copy-everything protocol: eps={rep.eps:.1f}, "
    f"(1-H(eps))*n={rep.cost_floor:.4f} = m={rep.m}"
)
