"""Named verification suites behind the command-line driver.

A check runs a seeded sweep and reports the worst slack seen together
with the number of violations of its tolerance. Slack conventions:
inequality checks report rhs - lhs (so negative means violated);
agreement checks report tol - |difference| and pass only at
|difference| <= tol.

Trials may reach a check in any order: each suite hands them over sorted by
shape (:func:`_batches`), a column of slacks at a time. A tally keeps only its
trial and violation counts and its least slack, which do not depend on the
order; a tie keeps the first trial (the first row of the first column handed
over), its seed and, at a 0.0 / -0.0 tie, its sign of ``min_slack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import encoding as enc
from . import info, linalg, metrics, rac, reduction, transition
from .errors import SizeError
from .info import (
    binary_entropy_gap,
    classical_mutual_information,
    conditional_entropies,
    holevo_informations,
    measured_mutual_infos,
    shannon_entropy,
)
from .protocol import MAX_QUBITS
from .rng import StreamRows, _mixed, derive_seed, derive_seeds
from .states import (
    _norms,
    _unit_norms,
    canonical_purifications,
    mixture_matrix,
    random_density_chunks,
    unitaries_from_gauss,
)


MAX_ENCODING_M = 5  # widest cube the encoding suite draws: 32 states
CHUNK_TRIALS = 64  # trials whose seeds, ranks and weights are drawn as one batch of arrays


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
    """Accumulates columns of per-trial slacks against a tolerance."""

    def __init__(self, name: str, tol: float):
        self.name = name
        self.tol = tol
        self.min_slack = np.inf
        self.violations = 0
        self.trials = 0
        self.details: dict = {}

    def add(self, slacks, seed=None, ok=True) -> np.ndarray:
        """Record a column of trials (a scalar is a column of one, an array is
        read in C order); return each one's pass. ``ok`` (one flag, or one per
        trial) False counts a trial violated whatever its slack; ``seed`` (one,
        or one per trial) names the worst trial."""
        slacks = np.ravel(np.asarray(slacks, dtype=float))
        # A non-finite slack certified nothing: it is a violation, and as NaN
        # it stays the minimum (``x < nan`` is False), written null, with the
        # seed of the first trial that made it. np.argmin finds the first NaN,
        # else the first least slack, so a tie keeps the first trial.
        slacks = np.where(np.isfinite(slacks), slacks, np.nan)
        passed = np.ravel(ok) & (slacks >= -self.tol)
        self.trials += len(slacks)
        self.violations += len(slacks) - int(np.count_nonzero(passed))
        if len(slacks):
            i = int(np.argmin(slacks))
            least = float(slacks[i])
            if least < self.min_slack or (math.isnan(least) and not math.isnan(self.min_slack)):
                self.min_slack = least
                if seed is not None:
                    seeds = np.broadcast_to(seed, slacks.shape)
                    self.details["worst_instance_seed"] = seeds[i].item()
        return passed

    def agree(self, errors, seed=None) -> np.ndarray:
        """Record slacks tol - |error|, passing only where |error| <= tol (NaN fails)."""
        errors = np.abs(np.ravel(np.asarray(errors, dtype=float)))
        return self.add(self.tol - errors, seed, ok=errors <= self.tol)

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


def _batches(trials: int, *keys: np.ndarray):
    """Trial indices ``0 ... trials - 1``, sorted stably by the shape ``keys``
    (arrays over the indices, the first most significant), in arrays of at
    most :data:`CHUNK_TRIALS` that each hold one value of the first key."""
    keys = keys or (np.zeros(trials),)  # no key: one shape, in index order
    t = np.lexsort(keys[::-1])
    for run in np.split(t, np.flatnonzero(np.diff(keys[0][t])) + 1):
        for lo in range(0, len(run), CHUNK_TRIALS):
            yield run[lo : lo + CHUNK_TRIALS]


def _triples(*columns) -> np.ndarray:
    """A batch's ``(dim, rank, seed)`` specs or ``(rows, cols, seed)`` draws, as uint64."""
    return np.stack(np.broadcast_arrays(*(np.asarray(c).astype(np.uint64) for c in columns)), -1)


def _specs(dims, seeds) -> np.ndarray:
    """Per seed, ``(dim, 1 + Stream(seed).integer(dim), seed)``; dims broadcast."""
    dims, seeds = np.broadcast_arrays(dims, seeds)
    return _triples(dims, 1 + StreamRows(seeds).integer(dims.ravel()).reshape(dims.shape), seeds)


# ---------------------------------------------------------------------------


def _metrics_trials(cfg: SuiteConfig, trials: int):
    """Per batch of metrics trials, their two random densities and Gaussian
    draws: two pure columns, then the 2x2 and 3x3 factors of a Kronecker product."""
    for t in _batches(trials, _dim_cycle(cfg, np.arange(trials))):
        dims = _dim_cycle(cfg, t)
        specs = _specs(dims[:, None], derive_seeds(cfg.seed, 10, t[:, None], [0, 1]))
        seeds = np.hstack([derive_seeds(cfg.seed, tag, t[:, None], [0, 1]) for tag in (11, 12)])
        rows = np.stack(np.broadcast_arrays(dims, dims, 2, 3), axis=-1)
        yield (t,), specs, _triples(rows, [1, 1, 2, 3], seeds)


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
    """Tally one chunk of metrics trials, a shape (dim) at a time in stacked calls."""
    for _, (r1, r2), (g1, g2, _, _) in chunk:
        # one certified spectrum per difference r1 - r2: its ||D||_t, and P+- attaining it on D
        *_, achieved, dists = metrics._helstrom(r1.mats - r2.mats)
        lo, up = metrics.fidelity_distance_bounds(metrics._fidelities(r1, r2), dists)
        fvg_lower.add(lo)
        fvg_upper.add(up)
        tight.agree(achieved - dists)

        g = np.stack([g1, g2], axis=1)  # the pure pairs' Gaussian columns
        v = g[..., 0] / _norms(g[..., 0])[..., None]  # made states as random_pure makes one
        v /= _unit_norms(v)[..., None]
        diffs = v[:, 0, :, None] * np.conj(v[:, 0, None, :])
        diffs -= v[:, 1, :, None] * np.conj(v[:, 1, None, :])  # in place: large d shows in RSS
        dists = metrics.trace_norm(diffs, hermitian=True)
        pure_agree.agree(metrics.pure_trace_distances(v) - dists)

    # each trial's Kronecker product a (x) b, all of the chunk's in one product
    a, b = (np.concatenate([gaussians[k] for *_, gaussians in chunk]) for k in (2, 3))
    kron = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), 6, 6)
    lhs, rhs = metrics.trace_norm(kron), metrics.trace_norm(a) * metrics.trace_norm(b)
    tensor_mult.agree((lhs - rhs) / np.maximum(rhs, 1.0))


# ---------------------------------------------------------------------------


def _info_trials(seed: int, trials: int):
    """Per info batch, its keys ``(priors, p, joint, ws)`` of stream draws, the
    specs of its random densities and the Gaussian draw of its measurement
    basis, a batch of one shape (t mod 6) at a time; the rows of a stream draw
    side by side."""
    for t in _batches(trials, np.arange(trials) % 6):
        n, k = 2 + int(t[0]) % 3, 2 + int(t[0]) % 2  # ensemble size and dim, sigma count and dim
        trial_seeds = derive_seeds(seed, 20, t)
        e, s = StreamRows(trial_seeds), StreamRows(derive_seeds(seed, 21, t))
        e_ranks, u_e = e.integer(n, n), e.uniform(n) + 0.05
        u_p, sigma_ranks = s.uniform(k) + 0.05, s.integer(k, k)
        u_j, yz_ranks = s.uniform(8) + 1e-3, s.integer(4, 4)
        u_w, rest = s.uniform(3) + 0.05, [s.integer(3, 3), s.integer(4)]
        priors, p, joint, ws = (u / u.sum(axis=-1, keepdims=True) for u in (u_e, u_p, u_j, u_w))
        ranks = 1 + np.hstack([e_ranks, sigma_ranks, yz_ranks, *rest])
        tags = [*range(n), *range(30, 30 + k), *range(40, 44), *range(50, 53), 60, 1]
        seeds = derive_seeds(trial_seeds[:, None], tags)
        specs = _triples([n] * n + [k] * k + [4] * 4 + [3] * 3 + [4], ranks, seeds[:, :-1])
        yield (priors, p, joint.reshape(-1, 2, 2, 2), ws), specs, _triples(n, n, seeds[:, -1:])


def _info_derived(keys, mats) -> list[tuple[np.ndarray, float]]:
    """The derived matrices of a shape's info trials, a stack per position, and
    their tolerances: the block matrix of the p-weighted sigmas, the traced yz
    states, the averages of the three ensembles and of the parts, and both
    reductions of rho_ab."""
    priors, p, _, ws = keys
    (g, n), k = priors.shape, p.shape[1]
    b = np.zeros((g, k * k, k * k), dtype=np.complex128)
    for j, sigma in enumerate(mats[n : n + k]):
        b[:, j * k : (j + 1) * k, j * k : (j + 1) * k] = p[:, j, None, None] * sigma
    yz, parts, ab = mats[n + k : n + k + 4], mats[n + k + 4 : n + k + 7], mats[-1]
    traced = linalg.partial_trace(np.array(yz), 2, 2, "H")
    quarter = np.full((g, 4), 0.25)
    mixtures = [(priors, mats[:n]), (quarter, yz), (quarter, traced), (ws, parts)]
    return [
        *((m, 1e-8) for m in (b, *traced)),
        *((mixture_matrix(w, ms), linalg.DEFAULT_TOL) for w, ms in mixtures),
        *((linalg.partial_trace(ab, 2, 2, keep), 1e-8) for keep in "HK"),
    ]


def _info_chunk(chunk, holevo, block, chain, mono, concave, subadd) -> None:
    """Tally a chunk of info trials, a shape at a time from the stacks' entropy
    rows; each sum over a trial's states runs left to right."""
    for (priors, p, joints, ws), stacks, (z,) in chunk:
        n, k = priors.shape[1], p.shape[1]
        ent = np.stack([s.entropies for s in stacks], axis=1)
        # after the n + k states: yz 0-3, parts 4-6, rho_ab 7, the block matrix 8,
        # the traced yz 9-12, the four averages 13-16, rho_a 17 and rho_b 18
        tail = ent[:, n + k :].T
        quarter = np.full((len(priors), 4), 0.25)
        # the ensemble's states, measured onto the columns of each trial's unitary
        mats = np.stack([s.mats for s in stacks[:n]], axis=1)
        u = np.swapaxes(unitaries_from_gauss(z), -1, -2)
        mis = measured_mutual_infos(priors, mats, u[..., :, None] * np.conj(u)[..., None, :])
        block_rhs = shannon_entropy(p) + conditional_entropies(p, ent[:, n : n + k])
        full = holevo_informations(quarter, tail[:4].T, tail[14])
        # the chain rule I(X:YZ) = I(X:Y) + I(XY:Z) - I(Y:Z), over the tables at once
        x_yz, xy_z = (classical_mutual_information(joints.reshape(-1, s, 8 // s)) for s in (2, 4))
        x_y, y_z = (classical_mutual_information(joints.sum(axis=a)) for a in (3, 1))
        block.agree(tail[8] - block_rhs)
        chain.agree(x_yz - (x_y + xy_z - y_z))
        mono.add(full - holevo_informations(quarter, tail[9:13].T, tail[15]))
        concave.add(tail[16] - conditional_entropies(ws, tail[4:7].T))
        subadd.add(tail[17] + tail[18] - tail[7])
        holevo.add(holevo_informations(priors, ent[:, :n], tail[13]) - mis)


def info_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 500
    holevo = _Tally("holevo_dominance", _tol(cfg, 1e-9))
    block = _Tally("block_entropy_identity", _tol(cfg, 1e-9))
    chain = _Tally("chain_identity", _tol(cfg, 1e-10))
    mono = _Tally("mi_monotonicity", _tol(cfg, 1e-10))
    concave = _Tally("entropy_concavity", _tol(cfg, 1e-9))
    subadd = _Tally("entropy_subadditivity", _tol(cfg, 1e-9))
    for chunk in random_density_chunks(_info_trials(cfg.seed, trials), _info_derived):
        _info_chunk(chunk, holevo, block, chain, mono, concave, subadd)

    gap = _Tally("binary_entropy_gap", _tol(cfg, 1e-12))
    deltas = [k / 1000.0 for k in range(501)]
    squares = np.array([x**2 for x in deltas])  # Python's pow, not numpy's x * x
    gap.add(binary_entropy_gap(np.array(deltas)) - squares)

    fano = _Tally("fano_channel", _tol(cfg, 1e-9))
    grid = np.linspace(0.0, 1.0, 41)
    pa, pb = (x.reshape(-1) for x in np.meshgrid(grid, grid, indexing="ij"))
    agreement = (pa + pb) / 2.0
    pa, pb, agreement = (x[agreement >= 0.5] for x in (pa, pb, agreement))
    joints = 0.5 * np.stack([pa, 1.0 - pa, 1.0 - pb, pb], axis=-1).reshape(-1, 2, 2)
    fano.add(classical_mutual_information(joints) - info.fano_bound(agreement - 0.5))
    return [t.result() for t in (holevo, block, chain, mono, concave, subadd, gap, fano)]


# ---------------------------------------------------------------------------


def _cube_trials(cases):
    """Per batch of ``(m, dim, seed)`` cases of one m, sorted by dim: keys
    ``(m, seed)`` and the specs of each cube's 2^m random densities."""
    ms, dims, seeds = np.array(list(cases), dtype=np.uint64).reshape(-1, 3).T
    for at in _batches(len(ms), ms, dims):
        state_seeds = derive_seeds(seeds[at, None], np.arange(2 ** int(ms[at[0]])))
        yield (ms[at], seeds[at]), _specs(dims[at, None], state_seeds)


def _encoding_derived(keys, mats) -> list[tuple[np.ndarray, float]]:
    """The derived matrices of a shape's encoding trials, a stack per position,
    certified at the default tolerance: the cube average, then for m <= 4 its
    prefix mixtures."""
    derived = [mixture_matrix(np.full(len(mats), 1.0 / len(mats)), mats)]
    if len(mats) <= 16:  # m <= 4
        derived += enc.prefix_mixtures(mats, len(mats).bit_length() - 1)
    return [(mat, linalg.DEFAULT_TOL) for mat in derived]


def _encoding_slacks(ms, seeds, stacks) -> dict[str, np.ndarray]:
    """Per check, the slacks of a column of cubes of one (m, dim), a row per
    cube of ``stacks``: the 2^m states, the average and, at m <= 4, the prefix
    mixtures. The half-argument floor and the entropy-gap quarter take the
    cubes at Delta <= 1 only."""
    m = int(ms[0])
    n = 2**m
    ent = np.stack([s.entropies for s in stacks], axis=1)
    mats = np.stack([s.mats for s in stacks[:n]], axis=1)
    d = enc.pairwise_distances(mats)
    delta = np.mean(d, axis=(1, 2))
    chi = holevo_informations(np.full((len(ms), n), 1.0 / n), ent[:, :n], ent[:, n])
    pairings = [enc.find_pairing(x, s) for x, s in zip(d, derive_seeds(seeds, 99).tolist())]
    near = delta <= 1.0
    half = enc.information_floor(delta[near], m=1)
    squares = np.array([x**2 for x in delta[near].tolist()])  # Python's pow, not numpy's x * x
    slacks = {
        "delta_prime_le_delta": delta - enc.distances_to_mean(mats, stacks[n].mats),
        "delta_le_two_sqrt_info": 2.0 * np.sqrt(chi) - delta,
        "info_floor_quarter": chi - enc.information_floor(delta, m=2),
        "info_floor_half": chi[near] - half,
        "entropy_gap_quarter": half - squares / 4.0,
        "pairing_bound": enc.pairing_average(d, pairings) - delta,
    }
    if m <= 4:
        total = 0.0  # the means of the table's rows, added in order
        for row in enc.prefix_table(ent[:, :n], ent[:, n + 1 :], m):
            total = total + np.mean(row, axis=-1)
        slacks["info_decomposition"] = chi - total
    return slacks


def encoding_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 200
    defaults = (  # the checks in report order, with their default tolerances
        ("delta_prime_le_delta", 1e-8), ("delta_le_two_sqrt_info", 1e-8),
        ("info_floor_quarter", 1e-8), ("info_floor_half", 1e-8), ("entropy_gap_quarter", 1e-10),
        ("pairing_bound", 1e-10), ("info_decomposition", 1e-9),
    )
    checks = {name: _Tally(name, _tol(cfg, tol)) for name, tol in defaults}
    skipped_half = half_violations_m1 = 0
    t = np.arange(trials)
    cases = zip(1 + t % cfg.m, _dim_cycle(cfg, t), derive_seeds(cfg.seed, 30, t).tolist())
    for chunk in random_density_chunks(_cube_trials(cases), _encoding_derived):
        for (ms, seeds), stacks, _ in chunk:
            slacks = _encoding_slacks(ms, seeds, stacks)
            skipped_half += len(ms) - len(slacks["info_floor_half"])
            passed = {name: checks[name].add(column) for name, column in slacks.items()}
            if ms[0] == 1:
                half_violations_m1 += int(np.count_nonzero(~passed["info_floor_half"]))
    # The half-argument floor 1 - H((1 + Delta)/2) is provable only for single-bit
    # ensembles; multi-bit ensembles violate it, as expected, not as numerical defects.
    checks["info_floor_half"].details.update(
        not_applicable=skipped_half,
        violations_at_m1=half_violations_m1,
        note="holds for single-bit ensembles only; the provable general floor "
        "is info_floor_quarter",
    )

    exhaustive = _Tally("pairing_vs_exhaustive", _tol(cfg, 1e-10))
    every = np.array(list(enc.enumerate_pairings(8)))  # the 105 pairings of a 3-bit cube
    t = np.arange(10)
    cubes = _cube_trials(zip([3] * 10, 2 + t % 3, derive_seeds(cfg.seed, 31, t).tolist()))
    for chunk in random_density_chunks(cubes):
        for (_, seeds), stacks, _ in chunk:
            d = enc.pairwise_distances(np.stack([s.mats for s in stacks], axis=1))
            pairings = [enc.find_pairing(x, s) for x, s in zip(d, derive_seeds(seeds, 98).tolist())]
            found = enc.pairing_average(d, pairings)
            best = np.max(enc.pairing_average(d[:, None], every[None]), axis=-1)
            exhaustive.add(np.stack([best - found, found - np.mean(d, axis=(1, 2))], axis=1))
    return [t.result() for t in (*checks.values(), exhaustive)]


# ---------------------------------------------------------------------------


def transition_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 1000
    agree = _Tally("overlap_matches_fidelity", _tol(cfg, 1e-8))
    bound = _Tally("transition_bound", _tol(cfg, 1e-8))
    chain = _Tally("fidelity_trace_chain", _tol(cfg, 1e-9))

    def pair_trials():
        dims = 2 + np.arange(trials) % 3
        for t in _batches(trials, dims, dims + np.arange(trials) % (7 - dims)):  # (dim, dim_k)
            yield (t,), _specs(2 + t[:, None] % 3, derive_seeds(cfg.seed, 40, t[:, None], [0, 1]))

    for chunk in random_density_chunks(pair_trials()):
        for group in chunk:
            (ts,), stacks, _ = group
            dim = stacks[0].mats.shape[-1]
            dim_ks = dim + ts % (7 - dim)
            overlap_sq, pure_distance, t, dist, f = transition.aligned_trials(group, dim_ks)
            agree.agree(overlap_sq - f)
            bound.add(2.0 * np.sqrt(t) - pure_distance)
            chain.add(dist - (1.0 - f))

    exact = _Tally("exact_transition", _tol(cfg, 1e-8))
    few = max(trials // 5, 50)  # the exact and sweep trials

    def exact_trials():
        # a density on H, purified into K, and a Gaussian for a unitary on K
        for t in _batches(few, np.arange(few) % 3):
            seeds, dim_k = derive_seeds(cfg.seed, 41, t), 2 + 2 * (t % 3)
            draws = _triples(dim_k, dim_k, derive_seeds(seeds, 1))[:, None]
            yield (t,), _specs(2 + t[:, None] % 3, seeds[:, None]), draws

    for chunk in random_density_chunks(exact_trials()):
        for _, (rho,), (z,) in chunk:
            phis = canonical_purifications([(rho, i) for i in range(len(z))], [len(z[0])] * len(z))
            pairs = zip(phis, transition.apply_k_unitaries(zip(phis, unitaries_from_gauss(z))))
            exact.agree([residual for _, residual in transition.exact_local_transitions(pairs)])

    # The alignment bound on canonical purifications of rank-varied pairs on
    # H = C^3 into K = C^4; a trial that breaks the chain 1 - F <= T or the
    # bound is one violation, reported under the worst trial's seed.
    sweep = _Tally("transition_bound_sweep", _tol(cfg, 1e-8))
    sweep_chain = _Tally("min_chain_slack", _tol(cfg, 1e-9))

    def sweep_trials():
        for t in _batches(few):
            seeds = derive_seeds(cfg.seed, 42, t[:, None], [0, 1])
            # each seed's rank rule 1 + mix64(seed) % 3, the % on Python ints
            ranks = [[1 + z % 3 for z in row] for row in _mixed(seeds.copy()).tolist()]
            yield (seeds[:, 0],), _triples(3, ranks, seeds)

    for chunk in random_density_chunks(sweep_trials()):
        for group in chunk:
            _, distance, t, dist, f = transition.aligned_trials(group, 4)
            passed = sweep_chain.add(dist - (1.0 - f))
            sweep.add(2.0 * np.sqrt(t) - distance, group[0][0], ok=passed)
    sweep.details["min_chain_slack"] = float(sweep_chain.min_slack)
    return [agree.result(), bound.result(), chain.result(), exact.result(), sweep.result()]


# ---------------------------------------------------------------------------


def rac_suite(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    target = float(rac.OPTIMAL_TWO_BIT_SUCCESS)
    for n, tag in ((2, 50), (3, 51)):
        oracle_success, bloch = rac.optimize_rac(n, seed=derive_seed(cfg.seed, tag), starts=n)
        spec = rac.rac_protocol(n, [rac.bloch_to_ket(b) for b in bloch])
        rep = rac.rac_lower_bound_check(spec, n)
        details = {"eps": float(rep.eps), "oracle_success": float(oracle_success)}
        if n == 2:
            protocol_success = 1.0 - rep.eps
            found = _Tally("rac_n2_success", _tol(cfg, 1e-3))
            found.agree([protocol_success - target, oracle_success - target])
            found.details = dict(details, protocol_success=float(protocol_success), target=target)
            out.append(found.result())
        bound = _Tally(f"rac_bound_n{n}", 0.0)
        bound.add(rep.slack)
        bound.details = dict(
            details, cost_floor=float(rep.cost_floor), m=rep.m, info=float(rep.info)
        )
        chain = _Tally(f"rac_chain_n{n}", _tol(cfg, 1e-9))
        chain.add([*rep.chain_slacks(), rep.min_prefix_fano_slack])
        out += [bound.result(), chain.result()]

    copy_spec = rac.classical_copy_protocol(cfg.n)
    copy_rep = rac.rac_lower_bound_check(copy_spec, cfg.n)
    equality = _Tally("classical_copy_equality", _tol(cfg, 1e-9))
    equality.agree([copy_rep.slack, copy_rep.eps])
    equality.details = {"eps": float(copy_rep.eps), "m": copy_rep.m, "n": cfg.n}
    out.append(equality.result())
    return out


# ---------------------------------------------------------------------------

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
    pipelines = reduction.run_pipelines(reduction.openings(cfg.n), cfg.n)
    reps = [rep for reports in pipelines for rep in reports]
    firsts, drops = [rep.first for rep in reps], [rep.drop for rep in reps]
    independence.agree([first.mu_j_prime for first in firsts])
    align_bound.add([first.alignment_bound_slack for first in firsts])
    info_bound.add([rep.info_bound_slack for rep in reps])
    sim_equiv.agree([drop.max_outcome_tv for drop in drops])
    rounds.add([0.0 if drop.rounds_after == drop.rounds_before - 1 else -1.0 for drop in drops])
    budget.add([drop.budget - drop.message_qubits_after for drop in drops])
    info_budget.add(  # three slacks per report, in report order
        [(r.ell1 - sum(r.mus), r.joint_info - sum(r.mus), r.ell1 - r.joint_info) for r in reps]
    )
    sup_cls.agree([rep.first.eps_j - rep.classical_error for rep in reps])
    residual.agree([drop.max_transition_residual for drop in drops])
    checks = (independence, align_bound, info_bound, sim_equiv, rounds, budget, info_budget)
    return [t.result() for t in (*checks, sup_cls, residual)]


SUITES = {
    "metrics": metrics_suite,
    "info": info_suite,
    "encoding": encoding_suite,
    "transition": transition_suite,
    "rac": rac_suite,
    "reduction": reduction_suite,
}


def check_config(name: str, cfg: SuiteConfig) -> None:
    """Raise SizeError for a config that ``run_suite(name, cfg)`` cannot honour."""
    if not 0 <= cfg.seed < 2**64:  # streams mask a seed to 64 bits: it would run as another
        raise SizeError(f"seed must be in 0..{2**64 - 1}, got {cfg.seed}")
    if cfg.trials is not None and cfg.trials < 1:  # 0 would run the default count
        raise SizeError(f"trials must be >= 1, got {cfg.trials}")
    if not 1 <= cfg.dims[0] <= cfg.dims[1] <= linalg.MAX_DIM:
        raise SizeError(f"dims must satisfy 1 <= lo <= hi <= {linalg.MAX_DIM}, got {cfg.dims}")
    if not 1 <= cfg.m <= MAX_ENCODING_M:
        # no cube is drawn wider, and a report must not echo an m it did not use
        raise SizeError(f"m must be in 1..{MAX_ENCODING_M}, got {cfg.m}")
    if cfg.n < 1:
        raise SizeError(f"n must be >= 1, got {cfg.n}")
    if cfg.tol is not None and not 0.0 <= cfg.tol < math.inf:  # NaN fails too
        raise SizeError(f"tol must be finite and >= 0, got {cfg.tol}")
    if name in ("reduction", "all") and cfg.n + 2 > MAX_QUBITS:
        # P'' simulates m, psi, B'' and the n - 1 other y's; checked before `all` runs a suite
        n = cfg.n
        raise SizeError(f"reduction at n = {n} simulates {n + 2} qubits, over the cap {MAX_QUBITS}")


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
