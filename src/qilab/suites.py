"""Named verification suites behind the command-line driver.

A check runs a seeded sweep and reports the worst slack seen together
with the number of violations of its tolerance. Slack conventions:
inequality checks report rhs - lhs (so negative means violated);
agreement checks report tol - |difference|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import encoding as enc
from . import info, linalg, metrics, rac, reduction, transition
from .errors import ReductionError, SizeError
from .info import (
    binary_entropy,
    binary_entropy_gap,
    classical_mutual_information,
    holevo_information,
    make_ensemble,
    measured_mutual_infos,
    shannon_entropy,
    uniform_cube_ensemble,
    von_neumann_entropy,
)
from .rng import Stream, derive_seed
from .states import (
    canonical_purifications,
    distance_up_to_phase,
    make_pures,
    mixture_matrix,
    pure_densities,
    random_densities_by_trial,
    random_density_chunks,
    unitaries_from_gauss,
)


MAX_ENCODING_M = 5  # widest cube the encoding suite draws: 32 states


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 1
    trials: int | None = None
    dims: tuple[int, int] = (2, 8)
    m: int = 5
    n: int = 2
    tol: float | None = None


@dataclass
class CheckResult:
    name: str
    trials: int
    min_slack: float
    violations: int
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "min_slack": float(self.min_slack),
            "violations": self.violations,
            "details": self.details,
        }


class _Tally:
    """Accumulates per-trial slacks against a tolerance."""

    def __init__(self, name: str, tol: float):
        self.name = name
        self.tol = tol
        self.min_slack = np.inf
        self.violations = 0
        self.trials = 0
        self.details: dict = {}

    def add(self, slack: float) -> None:
        self.trials += 1
        slack = float(slack)
        if not math.isfinite(slack):
            # A non-finite slack certified nothing: it is a violation, and as
            # NaN it stays the minimum (``x < nan`` is False), written null.
            slack = math.nan
        if math.isnan(slack) or slack < self.min_slack:
            self.min_slack = slack
        if not slack >= -self.tol:
            self.violations += 1

    def result(self) -> CheckResult:
        # A check that ran no trial certified nothing: it must not read PASS.
        violations = self.violations if self.trials else 1
        out = CheckResult(self.name, self.trials, float(self.min_slack), violations)
        out.details = dict(self.details)
        out.details["tolerance"] = self.tol
        return out


def _tol(cfg: SuiteConfig, default: float) -> float:
    return cfg.tol if cfg.tol is not None else default


def _dim_cycle(cfg: SuiteConfig, t: int) -> int:
    lo, hi = cfg.dims
    return lo + t % (hi - lo + 1)


def _spec(dim: int, seed: int) -> tuple[int, int, int]:
    """``(dim, rank, seed)`` of a random density whose rank its seed draws."""
    return dim, 1 + Stream(seed).integer(dim), seed


def _weights(stream: Stream, n: int, floor: float = 0.05) -> np.ndarray:
    """``n`` positive weights from ``stream``, normalized to sum 1."""
    raw = np.array([stream.uniform() + floor for _ in range(n)])
    return raw / raw.sum()


# ---------------------------------------------------------------------------


def _metrics_trials(cfg: SuiteConfig, trials: int):
    """Per metrics trial, its two random densities and its Gaussian draws:
    two pure columns, then the 2x2 and 3x3 factors of a Kronecker product."""
    for t in range(trials):
        dim = _dim_cycle(cfg, t)
        yield (
            t,
            [_spec(dim, derive_seed(cfg.seed, 10, t, i)) for i in (0, 1)],
            [(dim, 1, derive_seed(cfg.seed, 11, t, i)) for i in (0, 1)]
            + [(k, k, derive_seed(cfg.seed, 12, t, i)) for i, k in enumerate((2, 3))],
        )


def metrics_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 1000
    fvg_lower = _Tally("fvg_lower", _tol(cfg, 1e-9))
    fvg_upper = _Tally("fvg_upper", _tol(cfg, 1e-9))
    tight = _Tally("measurement_tightness", _tol(cfg, 1e-9))
    pure_agree = _Tally("pure_state_distance_agreement", _tol(cfg, 1e-9))
    tensor_mult = _Tally("trace_norm_multiplicative", _tol(cfg, 1e-10))
    tallies = (fvg_lower, fvg_upper, tight, pure_agree, tensor_mult)
    for chunk in random_density_chunks(_metrics_trials(cfg, trials)):
        _metrics_chunk(chunk, *tallies)
    return [t.result() for t in tallies]


def _metrics_chunk(chunk, fvg_lower, fvg_upper, tight, pure_agree, tensor_mult) -> None:
    """Tally one chunk of metrics trials, its trace norms in stacked calls."""
    pairs = [dens for _, dens, _ in chunk]
    dists = metrics.trace_distances(pairs)
    measured = metrics.optimal_measurements(pairs)
    for dist, f, (_, achieved) in zip(dists, metrics.fidelities(pairs), measured):
        lo, up = metrics.fidelity_distance_bounds(f, dist)
        fvg_lower.add(lo)
        fvg_upper.add(up)
        tight.add(tight.tol - abs(achieved - dist))

    gauss = [(len(g), 1, g) for *_, draws in chunk for g in draws[:2]]
    pures = [phi.vec for phi in make_pures(gauss, rescale=True)]
    rhos = pure_densities(pures)
    dens_dists = metrics.trace_distances(zip(rhos[::2], rhos[1::2]))
    for v1, v2, dist in zip(pures[::2], pures[1::2], dens_dists):
        pure_agree.add(pure_agree.tol - abs(metrics.pure_trace_distance(v1, v2) - dist))

    factors = [draws[2:] for *_, draws in chunk]
    norms = iter(metrics.trace_norms([m for a, b in factors for m in (np.kron(a, b), a, b)]))
    for lhs, na, nb in zip(norms, norms, norms):
        rhs = na * nb
        tensor_mult.add(tensor_mult.tol - abs(lhs - rhs) / max(rhs, 1.0))


# ---------------------------------------------------------------------------


def _info_trials(seed: int, trials: int):
    """Per info trial, its stream draws, the specs of its random densities
    and the Gaussian draw of its random measurement basis.

    Every draw a trial's checks consume is taken here, in their order, so
    that its densities can be built in a block with other trials'.
    """
    for t in range(trials):
        dim, n_states = 2 + t % 3, 2 + t % 3
        trial_seed = derive_seed(seed, 20, t)
        e_stream = Stream(trial_seed)
        e_specs = [
            (dim, 1 + e_stream.integer(dim), derive_seed(trial_seed, i))
            for i in range(n_states)
        ]
        priors = _weights(e_stream, n_states)
        stream = Stream(derive_seed(seed, 21, t))
        k = d = 2 + t % 2
        p = _weights(stream, k)
        sigma_specs = [
            (d, 1 + stream.integer(d), derive_seed(trial_seed, 30 + i)) for i in range(k)
        ]
        joint = _weights(stream, 8, 1e-3).reshape(2, 2, 2)
        yz_specs = [
            (4, 1 + stream.integer(4), derive_seed(trial_seed, 40 + i)) for i in range(4)
        ]
        ws = _weights(stream, 3)
        part_specs = [
            (3, 1 + stream.integer(3), derive_seed(trial_seed, 50 + i)) for i in range(3)
        ]
        ab_spec = (4, 1 + stream.integer(4), derive_seed(trial_seed, 60))
        yield (
            (trial_seed, priors, p, joint, ws),
            (*e_specs, *sigma_specs, *yz_specs, *part_specs, ab_spec),
            [(dim, dim, derive_seed(trial_seed, 1))],
        )


def _info_derived(key, mats) -> list[tuple[np.ndarray, float]]:
    """An info trial's derived matrices and the tolerance each is certified
    at: the block matrix of the p-weighted sigmas, the partial traces of the
    yz states, the averages of the three ensembles and of the parts, and
    both reductions of rho_ab."""
    _, priors, p, _, ws = key
    n_states, k = len(priors), len(p)
    e_mats, mats = mats[:n_states], mats[n_states:]
    sigmas, yz, parts, ab = mats[:k], mats[k : k + 4], mats[k + 4 : k + 7], mats[-1]
    d = sigmas[0].shape[0]
    blockmat = np.zeros((k * d, k * d), dtype=np.complex128)
    for i, s in enumerate(sigmas):
        blockmat[i * d : (i + 1) * d, i * d : (i + 1) * d] = p[i] * s
    traced = [np.asarray(linalg.partial_trace(s, 2, 2, "H")) for s in yz]
    quarter = np.full(4, 0.25)
    averages = [
        mixture_matrix(priors, e_mats),
        mixture_matrix(quarter, yz),
        mixture_matrix(quarter, traced),
        mixture_matrix(ws, parts),
    ]
    reductions = [linalg.partial_trace(ab, 2, 2, keep) for keep in "HK"]
    return [
        *((m, 1e-8) for m in (blockmat, *traced)),
        *((m, linalg.DEFAULT_TOL) for m in averages),
        *((m, 1e-8) for m in reductions),
    ]


def info_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 500
    holevo = _Tally("holevo_dominance", _tol(cfg, 1e-9))
    block = _Tally("block_entropy_identity", _tol(cfg, 1e-9))
    chain = _Tally("chain_identity", _tol(cfg, 1e-10))
    mono = _Tally("mi_monotonicity", _tol(cfg, 1e-10))
    concave = _Tally("entropy_concavity", _tol(cfg, 1e-9))
    subadd = _Tally("entropy_subadditivity", _tol(cfg, 1e-9))
    joints = []
    for chunk in random_density_chunks(_info_trials(cfg.seed, trials), _info_derived):
        measured = []  # per trial, its ensemble and the projectors onto its unitary's columns
        unitaries = unitaries_from_gauss([z for *_, (z,) in chunk])
        for ((_, priors, p, joint, ws), dens, _), u in zip(chunk, unitaries):
            n_states, k = len(priors), len(p)
            e_states, dens = dens[:n_states], dens[n_states:]
            sigmas, yz, parts, rho_ab = dens[:k], dens[k : k + 4], dens[k + 4 : k + 7], dens[k + 7]
            blocked, *traced = dens[k + 8 : k + 13]
            e_avg, full_avg, red_avg, mixed, rho_a, rho_b = dens[k + 13 :]
            e = make_ensemble(map(str, range(n_states)), priors, e_states, average=e_avg)
            measured.append((e, u.T[:, :, None] * np.conj(u.T)[:, None, :]))

            lhs = von_neumann_entropy(blocked)
            rhs = shannon_entropy(p) + sum(w * von_neumann_entropy(s) for w, s in zip(p, sigmas))
            block.add(block.tol - abs(lhs - rhs))

            joints.append(joint)

            full = uniform_cube_ensemble(yz, average=full_avg)
            red = uniform_cube_ensemble(traced, average=red_avg)
            mono.add(holevo_information(full) - holevo_information(red))

            parts_entropy = sum(w * von_neumann_entropy(s) for w, s in zip(ws, parts))
            concave.add(von_neumann_entropy(mixed) - parts_entropy)

            s_ab = von_neumann_entropy(rho_ab)
            subadd.add(von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - s_ab)
        for (e, _), mi in zip(measured, measured_mutual_infos(measured)):
            holevo.add(holevo_information(e) - mi)

    # the chain rule I(X:YZ) = I(X:Y) + I(XY:Z) - I(Y:Z), over every trial's table at once
    joints = np.array(joints)
    i_x_yz = classical_mutual_information(joints.reshape(-1, 2, 4))
    i_x_y = classical_mutual_information(joints.sum(axis=3))
    i_xy_z = classical_mutual_information(joints.reshape(-1, 4, 2))
    i_y_z = classical_mutual_information(joints.sum(axis=1))
    for slack in chain.tol - np.abs(i_x_yz - (i_x_y + i_xy_z - i_y_z)):
        chain.add(slack)

    gap = _Tally("binary_entropy_gap", _tol(cfg, 1e-12))
    deltas = [k / 1000.0 for k in range(501)]
    for delta, g in zip(deltas, binary_entropy_gap(np.array(deltas))):
        gap.add(g - delta**2)

    fano = _Tally("fano_channel", _tol(cfg, 1e-9))
    grid = np.linspace(0.0, 1.0, 41)
    pa, pb = (x.reshape(-1) for x in np.meshgrid(grid, grid, indexing="ij"))
    agreement = (pa + pb) / 2.0
    pa, pb, agreement = (x[agreement >= 0.5] for x in (pa, pb, agreement))
    joints = 0.5 * np.stack([pa, 1.0 - pa, 1.0 - pb, pb], axis=-1).reshape(-1, 2, 2)
    for slack in classical_mutual_information(joints) - info.fano_bound(agreement - 0.5):
        fano.add(slack)
    return [
        t.result()
        for t in (holevo, block, chain, mono, concave, subadd, gap, fano)
    ]


# ---------------------------------------------------------------------------


def _cube_trials(cases):
    """Per ``(m, dim, seed)`` case, the specs of its cube's 2^m random densities."""
    for m, dim, seed in cases:
        yield (m, seed), [_spec(dim, derive_seed(seed, x)) for x in range(2**m)]


def _encoding_derived(key, mats) -> list[tuple[np.ndarray, float]]:
    """An encoding trial's derived matrices, certified at the default
    tolerance: the cube average, then for m <= 4 its prefix mixtures."""
    m, _ = key
    derived = [mixture_matrix(np.full(len(mats), 1.0 / len(mats)), mats)]
    if m <= 4:
        derived += enc.prefix_mixtures(mats, m)
    return [(mat, linalg.DEFAULT_TOL) for mat in derived]


def encoding_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 200
    prime_le = _Tally("delta_prime_le_delta", _tol(cfg, 1e-8))
    two_sqrt = _Tally("delta_le_two_sqrt_info", _tol(cfg, 1e-8))
    floor_quarter = _Tally("info_floor_quarter", _tol(cfg, 1e-8))
    floor_half = _Tally("info_floor_half", _tol(cfg, 1e-8))
    quarter = _Tally("entropy_gap_quarter", _tol(cfg, 1e-10))
    pair_bound = _Tally("pairing_bound", _tol(cfg, 1e-10))
    decomp = _Tally("info_decomposition", _tol(cfg, 1e-9))
    skipped_half = 0
    half_violations_m1 = 0
    cubes = _cube_trials(
        (1 + t % cfg.m, _dim_cycle(cfg, t), derive_seed(cfg.seed, 30, t)) for t in range(trials)
    )
    for (m, seed), dens in random_densities_by_trial(cubes, _encoding_derived):
        e = uniform_cube_ensemble(dens[: 2**m], average=dens[2**m])
        stats = enc.encoding_stats(e, seed=derive_seed(seed, 99))
        delta = stats.delta_pairwise
        prime_le.add(delta - stats.delta_to_mean)
        two_sqrt.add(2.0 * np.sqrt(stats.info) - delta)
        floor_quarter.add(stats.info - enc.information_floor(delta, m=2))
        if delta <= 1.0:
            # The half-argument floor 1 - H((1 + Delta)/2) is provable only
            # for single-bit ensembles; multi-bit ensembles violate it and
            # the violations below are expected, not numerical defects.
            half = 1.0 - binary_entropy((1.0 + delta) / 2.0)
            before = floor_half.violations
            floor_half.add(stats.info - half)
            if m == 1 and floor_half.violations > before:
                half_violations_m1 += 1
            quarter.add(half - delta**2 / 4.0)
        else:
            skipped_half += 1
        pair_bound.add(enc.pairing_average(stats.distances, stats.pairing) - delta)
        if m <= 4:
            table = enc.prefix_table(dens[2**m + 1 :], m)
            decomp.add(stats.info - sum(float(np.mean(row)) for row in table))
    floor_half.details["not_applicable"] = skipped_half
    floor_half.details["violations_at_m1"] = half_violations_m1
    floor_half.details["note"] = (
        "holds for single-bit ensembles only; the provable general floor "
        "is info_floor_quarter"
    )

    exhaustive = _Tally("pairing_vs_exhaustive", _tol(cfg, 1e-10))
    cubes = _cube_trials((3, 2 + t % 3, derive_seed(cfg.seed, 31, t)) for t in range(10))
    for (_, seed), dens in random_densities_by_trial(cubes):
        d = enc.pairwise_distance_matrix(uniform_cube_ensemble(dens))
        found = enc.pairing_average(d, enc.find_pairing(d, derive_seed(seed, 98)))
        best = max(enc.pairing_average(d, p) for p in enc.enumerate_pairings(8))
        exhaustive.add(best - found)
        exhaustive.add(found - float(np.sum(d)) / 64.0)
    checks = (prime_le, two_sqrt, floor_quarter, floor_half, quarter, pair_bound, decomp)
    return [t.result() for t in (*checks, exhaustive)]


# ---------------------------------------------------------------------------


def transition_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 1000
    agree = _Tally("overlap_matches_fidelity", _tol(cfg, 1e-8))
    bound = _Tally("transition_bound", _tol(cfg, 1e-8))
    chain = _Tally("fidelity_trace_chain", _tol(cfg, 1e-9))
    specs = (
        (t, [_spec(2 + t % 3, derive_seed(cfg.seed, 40, t, i)) for i in (0, 1)])
        for t in range(trials)
    )
    for chunk in random_density_chunks(specs):
        aligned = transition.aligned_trials(chunk, lambda t, rho: rho.dim + t % (7 - rho.dim))
        for _, res, dist, f in aligned:
            agree.add(agree.tol - abs(res.achieved_overlap_sq - f))
            bound.add(res.bound - res.pure_distance)
            chain.add(dist - (1.0 - f))

    exact = _Tally("exact_transition", _tol(cfg, 1e-8))

    def exact_trials():
        # a density on H, purified into K, and a Gaussian for a unitary on K
        for t in range(max(trials // 5, 50)):
            seed = derive_seed(cfg.seed, 41, t)
            dim_h, dim_k = 2 + t % 3, 2 + 2 * (t % 3)
            yield t, [_spec(dim_h, seed)], [(dim_k, dim_k, derive_seed(seed, 1))]

    for chunk in random_density_chunks(exact_trials()):
        zs = [z for *_, (z,) in chunk]
        phis = canonical_purifications([rho for _, (rho,), _ in chunk], map(len, zs))
        pairs = list(zip(phis, transition.apply_k_unitaries(zip(phis, unitaries_from_gauss(zs)))))
        found = transition.exact_local_transitions(pairs)
        aligned = transition.apply_k_unitaries((phi2, u) for (_, phi2), u in zip(pairs, found))
        for (phi1, _), a in zip(pairs, aligned):
            exact.add(exact.tol - distance_up_to_phase(a.vec, phi1.vec))
    sweep = transition.verify_transition_bound(
        max(trials // 5, 50), (3, 4), derive_seed(cfg.seed, 42)
    )
    sweep_check = CheckResult(
        "transition_bound_sweep",
        sweep["trials"],
        sweep["min_slack"],
        sweep["violations"],
        {
            "min_chain_slack": sweep["min_chain_slack"],
            "worst_instance_seed": sweep["worst_instance_seed"],
        },
    )
    return [agree.result(), bound.result(), chain.result(), exact.result(), sweep_check]


# ---------------------------------------------------------------------------


def rac_suite(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    success_target = rac.OPTIMAL_TWO_BIT_SUCCESS
    oracle_success, bloch = rac.optimize_rac(2, seed=derive_seed(cfg.seed, 50), starts=2)
    spec2 = rac.rac_protocol(2, [rac.bloch_to_ket(b) for b in bloch])
    report2 = rac.rac_lower_bound_check(spec2, 2)
    protocol_success = 1.0 - report2.eps
    found = _Tally("rac_n2_success", _tol(cfg, 1e-3))
    found.add(found.tol - abs(protocol_success - success_target))
    found.add(found.tol - abs(oracle_success - success_target))
    found.details = {
        "oracle_success": float(oracle_success),
        "protocol_success": float(protocol_success),
        "eps": float(report2.eps),
        "target": float(success_target),
    }
    out.append(found.result())

    oracle3, bloch3 = rac.optimize_rac(3, seed=derive_seed(cfg.seed, 51), starts=3)
    spec3 = rac.rac_protocol(3, [rac.bloch_to_ket(b) for b in bloch3])
    report3 = rac.rac_lower_bound_check(spec3, 3)
    oracle_values = {"rac_bound_n2": oracle_success, "rac_bound_n3": oracle3}
    for label, rep in (("rac_bound_n2", report2), ("rac_bound_n3", report3)):
        tally = _Tally(label, 0.0)
        tally.add(rep.slack)
        tally.details = {
            "eps": float(rep.eps),
            "cost_floor": float(rep.cost_floor),
            "m": rep.m,
            "info": float(rep.info),
            "oracle_success": float(oracle_values[label]),
        }
        out.append(tally.result())
        chain = _Tally(label.replace("bound", "chain"), _tol(cfg, 1e-9))
        for slack in rep.chain_slacks():
            chain.add(slack)
        chain.add(rep.min_prefix_fano_slack)
        out.append(chain.result())

    copy_spec = rac.classical_copy_protocol(cfg.n)
    copy_rep = rac.rac_lower_bound_check(copy_spec, cfg.n)
    equality = _Tally("classical_copy_equality", _tol(cfg, 1e-9))
    equality.add(equality.tol - abs(copy_rep.slack))
    equality.add(equality.tol - copy_rep.eps)
    equality.details = {"eps": float(copy_rep.eps), "m": copy_rep.m, "n": cfg.n}
    out.append(equality.result())
    return out


# ---------------------------------------------------------------------------

_PIPELINE_STYLES = ("copy_first", "constant", "parity", "rotation")


def reduction_suite(cfg: SuiteConfig) -> list[CheckResult]:
    independence = _Tally("first_message_independence", _tol(cfg, 1e-9))
    align_bound = _Tally("alignment_error_bound", _tol(cfg, 1e-8))
    info_bound = _Tally("info_error_bound", _tol(cfg, 1e-8))
    sim_equiv = _Tally("simulation_equivalence", _tol(cfg, 1e-8))
    rounds = _Tally("round_reduction", 0.0)
    budget = _Tally("message_budget", 0.0)
    info_budget = _Tally("message_info_budget", _tol(cfg, 1e-9))
    sup_cls = _Tally("superposed_vs_classical", _tol(cfg, 1e-12))
    residual = _Tally("transition_residual", _tol(cfg, 1e-8))
    for style in _PIPELINE_STYLES:
        for rep in reduction.run_pipeline(style):
            independence.add(independence.tol - rep.first.mu_j_prime)
            align_bound.add(rep.first.alignment_bound_slack)
            info_bound.add(rep.first.info_bound_slack)
            sim_equiv.add(sim_equiv.tol - rep.drop.max_outcome_tv)
            rounds.add(
                0.0
                if rep.drop.rounds_after == rep.drop.rounds_before - 1
                else -1.0
            )
            budget.add(rep.drop.budget - rep.drop.message_qubits_after)
            info_budget.add(rep.ell1 - sum(rep.mus))
            info_budget.add(rep.joint_info - sum(rep.mus))
            info_budget.add(rep.ell1 - rep.joint_info)
            sup_cls.add(
                sup_cls.tol - abs(rep.superposed_error - rep.classical_error)
            )
            residual.add(residual.tol - rep.drop.max_transition_residual)
    return [
        t.result()
        for t in (
            independence,
            align_bound,
            info_bound,
            sim_equiv,
            rounds,
            budget,
            info_budget,
            sup_cls,
            residual,
        )
    ]


SUITES = {
    "metrics": metrics_suite,
    "info": info_suite,
    "encoding": encoding_suite,
    "transition": transition_suite,
    "rac": rac_suite,
    "reduction": reduction_suite,
}


def check_config(name: str, cfg: SuiteConfig) -> None:
    """Raise for a config that ``run_suite(name, cfg)`` cannot honour."""
    if not 1 <= cfg.m <= MAX_ENCODING_M:
        # no cube is drawn wider, and a report must not echo an m it did not use
        raise SizeError(f"m must be in 1..{MAX_ENCODING_M}, got {cfg.m}")
    if name in ("reduction", "all") and cfg.n != 2:
        # The reduction family is the n = 2 nested index problem; running
        # it for another n would report a PASS for a check that never ran.
        # Rejected here, before any suite of ``all`` has done its work.
        raise ReductionError(f"the reduction suite runs n = 2 only, not n = {cfg.n}")


def run_suite(name: str, cfg: SuiteConfig) -> list[CheckResult]:
    check_config(name, cfg)
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](cfg))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](cfg)
