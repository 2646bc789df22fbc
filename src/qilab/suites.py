"""Named verification suites behind the command-line driver.

A check runs a seeded sweep and reports the worst slack seen together
with the number of violations of its tolerance. Every reported check is a
row of :data:`CHECKS`, in ``--suite all`` order, whose rule sets its slack:
``add`` (an inequality lhs <= rhs) reports rhs - lhs, so negative means
violated; ``agree`` (lhs = rhs) reports tol - |lhs - rhs| and passes only at
|lhs - rhs| <= tol. ``--tol`` overrides a row's tolerance unless it is fixed.

Trials may reach a check in any order: each suite hands them over sorted by
shape (:func:`_batches`), a column of values at a time. A tally keeps only its
trial and violation counts and its least slack, which do not depend on the
order; a tie keeps the first trial (the first row of the first column handed
over), its seed and, at a 0.0 / -0.0 tie, its sign of ``min_slack``.
"""

from __future__ import annotations

import math
from collections import namedtuple
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


# A row of CHECKS; README's check table defines the symbols of its statement.
Check = namedtuple("Check", "suite name rule tol statement source fixed", defaults=[False])
_FVG, _ANTV, _NAYAK, _NC = "quant-ph/9712042", "quant-ph/9804043", "quant-ph/9904093", "textbook"
_ENC, _LT, _RE = "paper: average encoding", "paper: local transition", "paper: round elimination"
CHECKS = (
    Check("metrics", "fvg_lower", "add", 1e-9, "1 - sqrt(F) <= T/2", _FVG),
    Check("metrics", "fvg_upper", "add", 1e-9, "T/2 <= sqrt(1 - F)", _FVG),
    Check("metrics", "measurement_tightness", "agree", 1e-9, "Tr (P+ - P-)(r1 - r2) = T", _NC),
    Check("metrics", "pure_state_distance_agreement", "agree", 1e-9, "pure T = 2 sqrt(1-F)", _NC),
    Check("metrics", "trace_norm_multiplicative", "agree", 1e-10, "||a (x) b|| = ||a|| ||b||", _NC),
    Check("info", "holevo_dominance", "add", 1e-9, "measured I(X:Y) <= chi", _NC),
    Check("info", "block_entropy_identity", "agree", 1e-9, "S(+ p_j s_j) = H(p) + E_p S(s_j)", _NC),
    Check("info", "chain_identity", "agree", 1e-10, "I(X:YZ) = I(X:Y) + I(XY:Z) - I(Y:Z)", _NC),
    Check("info", "mi_monotonicity", "add", 1e-10, "chi(X:Y) <= chi(X:YZ)", _NC),
    Check("info", "entropy_concavity", "add", 1e-9, "sum w_i S(r_i) <= S(sum w_i r_i)", _NC),
    Check("info", "entropy_subadditivity", "add", 1e-9, "S(AB) <= S(A) + S(B)", _NC),
    Check("info", "binary_entropy_gap", "add", 1e-12, "d^2 <= 1 - H(1/2 + d)", _ENC),
    Check("info", "fano_channel", "add", 1e-9, "1 - H(1/2 + d) <= I(X:Y), success 1/2 + d", _NC),
    Check("encoding", "delta_prime_le_delta", "add", 1e-8, "Delta' <= Delta", _ENC),
    Check("encoding", "delta_le_two_sqrt_info", "add", 1e-8, "Delta <= 2 sqrt(chi)", _ENC),
    Check("encoding", "info_floor_quarter", "add", 1e-8, "1 - H(1/2 + Delta/4) <= chi", _ENC),
    Check("encoding", "info_floor_half", "add", 1e-8,
          "1 - H(1/2 + Delta/2) <= chi: false at m >= 2, red by design", _ENC),
    Check("encoding", "entropy_gap_quarter", "add", 1e-10, "Delta^2/4 <= 1 - H(1/2+Delta/2)", _ENC),
    Check("encoding", "pairing_bound", "add", 1e-10, "Delta <= found pairing's mean", _ENC),
    Check("encoding", "info_decomposition", "add", 1e-9, "sum of prefix informations <= chi", _ENC),
    Check("encoding", "pairing_vs_exhaustive", "add", 1e-10, "Delta <= found <= exhaustive", _ENC),
    Check("transition", "overlap_matches_fidelity", "agree", 1e-8, "aligned overlap^2 = F", _NC),
    Check("transition", "transition_bound", "add", 1e-8, "aligned distance <= 2 sqrt(T)", _LT),
    Check("transition", "fidelity_trace_chain", "add", 1e-9, "1 - F <= T", _FVG),
    Check("transition", "exact_transition", "agree", 1e-8, "residual = 0, equal marginals", _LT),
    Check("transition", "transition_bound_sweep", "add", 1e-8, "transition_bound, 1 - F <= T", _LT),
    Check("rac", "rac_n2_success", "agree", 1e-3, "best success = cos^2(pi/8)", _ANTV),
    Check("rac", "rac_bound_n2", "add", 0.0, "(1 - H(eps)) n <= m", _NAYAK, fixed=True),
    Check("rac", "rac_chain_n2", "add", 1e-9, "each link of (1 - H(eps)) n <= chi <= m", _NAYAK),
    Check("rac", "rac_bound_n3", "add", 0.0, "(1 - H(eps)) n <= m", _NAYAK, fixed=True),
    Check("rac", "rac_chain_n3", "add", 1e-9, "each link of (1 - H(eps)) n <= chi <= m", _NAYAK),
    Check("rac", "classical_copy_equality", "agree", 1e-9, "eps = 0 and (1-H(eps))n = m", _NAYAK),
    Check("reduction", "first_message_independence", "agree", 1e-9, "I(M' : Y_j) = 0", _RE),
    Check("reduction", "alignment_error_bound", "add", 1e-8, "delta_j <= eps_j + 2 E sqrt(t)", _RE),
    Check("reduction", "info_error_bound", "add", 1e-8, "delta_j <= eps_j + 4 mu_j^(1/4)", _RE),
    Check("reduction", "simulation_equivalence", "agree", 1e-8, "TV(P', P'' outcomes) = 0", _RE),
    Check("reduction", "round_reduction", "add", 0.0, "rounds: P'' = P' - 1", _RE, fixed=True),
    Check("reduction", "message_budget", "add", 0.0,
          "P'' message qubits <= budget: cannot fail, slack ceil(log2 n)", _RE, fixed=True),
    Check("reduction", "message_info_budget", "add", 1e-9, "sum mu_i <= I(M:Y) <= ell_1", _RE),
    Check("reduction", "superposed_vs_classical", "agree", 1e-12, "eps_j = classical error", _RE),
    Check("reduction", "transition_residual", "agree", 1e-8, "P'' transition residual = 0", _LT),
)


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
        return dict(vars(self))


@dataclass
class _Tally:
    """Accumulates columns of per-trial values against a tolerance, by a rule."""

    name: str
    tol: float
    rule: str = "add"
    min_slack: float = np.inf
    violations: int = 0
    trials: int = 0
    details: dict = field(default_factory=dict)

    def add(self, values, seed=None, ok=True) -> np.ndarray:
        """Record a column of trials by the rule (a scalar is a column of one, an
        array is read in C order; ``agree`` reads errors); return each one's pass.
        ``ok`` (one flag, or one per trial) False counts a trial violated whatever
        its slack; ``seed`` (one, or one per trial) names the worst trial."""
        slacks = np.ravel(np.asarray(values, dtype=float))
        if self.rule == "agree":
            errors = np.abs(slacks)
            slacks, ok = self.tol - errors, ok & (errors <= self.tol)
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

    def result(self) -> CheckResult:
        # A check that ran no trial certified nothing: it must not read PASS.
        violations = self.violations if self.trials else 1
        details = dict(self.details, tolerance=self.tol)
        return CheckResult(self.name, self.trials, float(self.min_slack), violations, details)


def _tallies(cfg: SuiteConfig, suite: str) -> dict[str, _Tally]:
    """The suite's tallies by name, in table order, each judged by its row."""
    rows = [c for c in CHECKS if c.suite == suite]
    tols = [c.tol if c.fixed or cfg.tol is None else cfg.tol for c in rows]
    return {c.name: _Tally(c.name, tol, c.rule) for c, tol in zip(rows, tols)}


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
    checks = _tallies(cfg, "metrics")
    for chunk in random_density_chunks(_metrics_trials(cfg, cfg.trials or 1000)):
        _metrics_chunk(chunk, checks)
    return [check.result() for check in checks.values()]


def _metrics_chunk(chunk, checks) -> None:
    """Tally one chunk of metrics trials, a shape (dim) at a time in stacked calls."""
    for _, (r1, r2), (g1, g2, _, _) in chunk:
        # one certified spectrum per difference r1 - r2: its ||D||_t, and P+- attaining it on D
        *_, achieved, dists = metrics._helstrom(r1.mats - r2.mats)
        lo, up = metrics.fidelity_distance_bounds(metrics._fidelities(r1, r2), dists)
        checks["fvg_lower"].add(lo)
        checks["fvg_upper"].add(up)
        checks["measurement_tightness"].add(achieved - dists)

        g = np.stack([g1, g2], axis=1)  # the pure pairs' Gaussian columns
        v = g[..., 0] / _norms(g[..., 0])[..., None]  # made states as random_pure makes one
        v /= _unit_norms(v)[..., None]
        diffs = v[:, 0, :, None] * np.conj(v[:, 0, None, :])
        diffs -= v[:, 1, :, None] * np.conj(v[:, 1, None, :])  # in place: large d shows in RSS
        dists = metrics.trace_norm(diffs, hermitian=True)
        checks["pure_state_distance_agreement"].add(metrics.pure_trace_distances(v) - dists)

    # each trial's Kronecker product a (x) b, all of the chunk's in one product
    a, b = (np.concatenate([gaussians[k] for *_, gaussians in chunk]) for k in (2, 3))
    kron = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), 6, 6)
    lhs, rhs = metrics.trace_norm(kron), metrics.trace_norm(a) * metrics.trace_norm(b)
    checks["trace_norm_multiplicative"].add((lhs - rhs) / np.maximum(rhs, 1.0))


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


def _info_chunk(chunk, checks) -> None:
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
        checks["block_entropy_identity"].add(tail[8] - block_rhs)
        checks["chain_identity"].add(x_yz - (x_y + xy_z - y_z))
        checks["mi_monotonicity"].add(full - holevo_informations(quarter, tail[9:13].T, tail[15]))
        checks["entropy_concavity"].add(tail[16] - conditional_entropies(ws, tail[4:7].T))
        checks["entropy_subadditivity"].add(tail[17] + tail[18] - tail[7])
        checks["holevo_dominance"].add(holevo_informations(priors, ent[:, :n], tail[13]) - mis)


def info_suite(cfg: SuiteConfig) -> list[CheckResult]:
    checks = _tallies(cfg, "info")
    for chunk in random_density_chunks(_info_trials(cfg.seed, cfg.trials or 500), _info_derived):
        _info_chunk(chunk, checks)

    deltas = [k / 1000.0 for k in range(501)]
    squares = np.array([x**2 for x in deltas])  # Python's pow, not numpy's x * x
    checks["binary_entropy_gap"].add(binary_entropy_gap(np.array(deltas)) - squares)

    grid = np.linspace(0.0, 1.0, 41)
    pa, pb = (x.reshape(-1) for x in np.meshgrid(grid, grid, indexing="ij"))
    margin = (pa + pb) / 2.0 - 0.5  # the agreement's margin over 1/2
    pa, pb, margin = (x[margin >= 0.0] for x in (pa, pb, margin))
    joints = 0.5 * np.stack([pa, 1.0 - pa, 1.0 - pb, pb], axis=-1).reshape(-1, 2, 2)
    checks["fano_channel"].add(classical_mutual_information(joints) - info.fano_bound(margin))
    return [check.result() for check in checks.values()]


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
    checks = _tallies(cfg, "encoding")
    skipped_half = half_violations_m1 = 0
    t = np.arange(cfg.trials or 200)
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

    every = np.array(list(enc.enumerate_pairings(8)))  # the 105 pairings of a 3-bit cube
    t = np.arange(10)
    cubes = _cube_trials(zip([3] * 10, 2 + t % 3, derive_seeds(cfg.seed, 31, t).tolist()))
    for chunk in random_density_chunks(cubes):
        for (_, seeds), stacks, _ in chunk:
            d = enc.pairwise_distances(np.stack([s.mats for s in stacks], axis=1))
            pairings = [enc.find_pairing(x, s) for x, s in zip(d, derive_seeds(seeds, 98).tolist())]
            found = enc.pairing_average(d, pairings)
            best = np.max(enc.pairing_average(d[:, None], every[None]), axis=-1)
            slacks = np.stack([best - found, found - np.mean(d, axis=(1, 2))], axis=1)
            checks["pairing_vs_exhaustive"].add(slacks)
    return [check.result() for check in checks.values()]


# ---------------------------------------------------------------------------


def transition_suite(cfg: SuiteConfig) -> list[CheckResult]:
    trials = cfg.trials or 1000
    checks = _tallies(cfg, "transition")

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
            checks["overlap_matches_fidelity"].add(overlap_sq - f)
            checks["transition_bound"].add(2.0 * np.sqrt(t) - pure_distance)
            checks["fidelity_trace_chain"].add(dist - (1.0 - f))

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
            checks["exact_transition"].add([r for _, r in transition.exact_local_transitions(pairs)])

    # The alignment bound on canonical purifications of rank-varied pairs on H = C^3
    # into K = C^4; a trial that breaks the chain 1 - F <= T (fidelity_trace_chain's row)
    # or the bound is one violation, reported under the worst trial's seed.
    sweep = checks["transition_bound_sweep"]
    sweep_chain = _tallies(cfg, "transition")["fidelity_trace_chain"]

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
    return [check.result() for check in checks.values()]


# ---------------------------------------------------------------------------


def rac_suite(cfg: SuiteConfig) -> list[CheckResult]:
    checks = _tallies(cfg, "rac")
    target = float(rac.OPTIMAL_TWO_BIT_SUCCESS)
    for n, tag in ((2, 50), (3, 51)):
        oracle_success, bloch = rac.optimize_rac(n, seed=derive_seed(cfg.seed, tag), starts=n)
        spec = rac.rac_protocol(n, [rac.bloch_to_ket(b) for b in bloch])
        rep = rac.rac_lower_bound_check(spec, n)
        base = {"eps": float(rep.eps), "oracle_success": float(oracle_success)}
        if n == 2:
            protocol_success = 1.0 - rep.eps
            found = checks["rac_n2_success"]
            found.add([protocol_success - target, oracle_success - target])
            found.details = dict(base, protocol_success=float(protocol_success), target=target)
        bound = checks[f"rac_bound_n{n}"]
        bound.add(rep.slack)
        bound.details = dict(base, cost_floor=float(rep.cost_floor), m=rep.m, info=float(rep.info))
        checks[f"rac_chain_n{n}"].add([*rep.chain_slacks(), rep.min_prefix_fano_slack])

    copy_rep = rac.rac_lower_bound_check(rac.classical_copy_protocol(cfg.n), cfg.n)
    equality = checks["classical_copy_equality"]
    equality.add([copy_rep.slack, copy_rep.eps])
    equality.details = {"eps": float(copy_rep.eps), "m": copy_rep.m, "n": cfg.n}
    return [check.result() for check in checks.values()]


# ---------------------------------------------------------------------------

def reduction_suite(cfg: SuiteConfig) -> list[CheckResult]:
    checks = _tallies(cfg, "reduction")
    pipelines = reduction.run_pipelines(reduction.openings(cfg.n), cfg.n)
    reps = [rep for reports in pipelines for rep in reports]
    firsts, drops = [rep.first for rep in reps], [rep.drop for rep in reps]
    checks["first_message_independence"].add([first.mu_j_prime for first in firsts])
    checks["alignment_error_bound"].add([first.alignment_bound_slack for first in firsts])
    checks["info_error_bound"].add([rep.info_bound_slack for rep in reps])
    checks["simulation_equivalence"].add([drop.max_outcome_tv for drop in drops])
    checks["round_reduction"].add([float(d.rounds_after == d.rounds_before - 1) - 1 for d in drops])
    checks["message_budget"].add([drop.budget - drop.message_qubits_after for drop in drops])
    checks["message_info_budget"].add(  # three slacks per report, in report order
        [(r.ell1 - sum(r.mus), r.joint_info - sum(r.mus), r.ell1 - r.joint_info) for r in reps]
    )
    checks["superposed_vs_classical"].add([rep.first.eps_j - rep.classical_error for rep in reps])
    checks["transition_residual"].add([drop.max_transition_residual for drop in drops])
    return [check.result() for check in checks.values()]


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
