"""The stacked kernels against the single-item code they replaced, bit for bit.

Each reference below is the per-item code as it stood before the stacked
forms (``canonical_purifications``, ``unitaries_from_gauss``,
``optimal_measurements``, ``measured_mutual_infos``, ``make_pures``,
``pure_densities``, ``apply_k_unitaries``) existed, written out here. The
inputs mix shapes in one call and include degenerate spectra: maximally
mixed states, repeated eigenvalues, rank-deficient states and eigenvectors
whose leading entry is zero.
"""

import numpy as np
import pytest

from qilab import info, linalg, metrics, protocol, states, transition
from qilab.errors import HermiticityError, NormalizationError, QilabError, RankError, SizeError
from qilab.linalg import DEFAULT_TOL, dagger, hermitian_eig
from qilab.rng import Stream, derive_seed


def _old_phase_normalized(vec, tol=1e-12):
    for z in vec:
        if abs(z) > tol:
            return vec * (np.conj(z) / abs(z))
    return vec


def _old_canonical_purification(rho, dim_k):
    vals, vecs = rho.eig
    cols = [_old_phase_normalized(vecs[:, i]) for i in range(len(vals))]
    secondary = np.array([next((abs(z) for z in c if abs(z) > 1e-12), 0.0) for c in cols])
    order = np.lexsort((secondary, -vals))
    vals = vals[order]
    cols = [cols[i] for i in order]
    rank = max(int(np.sum(vals > DEFAULT_TOL)), 1)
    assert dim_k >= rank
    a = np.zeros((rho.dim, dim_k), dtype=np.complex128)
    for i in range(rank):
        a[:, i] = np.sqrt(max(vals[i], 0.0)) * cols[i]
    vec = a.reshape(-1)
    return vec / np.linalg.norm(vec)


def _old_unitary_from_gauss(z):
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _old_optimal_measurement(r1, r2):
    diff = r1.mat - r2.mat
    vals, vecs = hermitian_eig(diff, tol=1e-8)
    pos_cols = vecs[:, vals >= -DEFAULT_TOL]
    p_pos = pos_cols @ dagger(pos_cols)
    p_neg = np.eye(r1.dim) - p_pos
    achieved = abs(np.trace(p_pos @ diff).real) + abs(np.trace(p_neg @ diff).real)
    return p_pos, p_neg, float(achieved)


def _old_measured_mutual_info(e, projs):
    projs = np.asarray(list(projs), dtype=np.complex128)
    traces = np.trace(projs[None] @ e.mats[:, None], axis1=-2, axis2=-1).real
    joint = e.priors[:, None] * np.maximum(traces, 0.0)
    return info.classical_mutual_information(joint / joint.sum())


def _old_make_pure(vec):
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return v / np.linalg.norm(v)


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _rotated(spectrum, seed):
    u = states.random_unitary(len(spectrum), seed)
    return states.make_density(u @ np.diag(spectrum) @ dagger(u))


def _densities():
    """Random densities of every rank at d = 2..8, then degenerate ones."""
    ranks = {d: (1, d // 2 + 1, d) for d in range(2, 9)}
    out = [states.random_density(d, r, derive_seed(150, d, r)) for d in ranks for r in ranks[d]]
    out += [states.make_density(np.eye(d) / d) for d in (2, 3, 5, 8)]  # maximally mixed
    out += [
        states.make_density(np.diag([0.5, 0.3, 0.2])),  # basis eigenvectors: zero leading entries
        states.make_density(np.diag([0.0, 0.6, 0.4])),  # rank-deficient, zero leading entries
        states.make_density([[0.0, 0, 0], [0, 0.55, 0.2], [0, 0.2, 0.45]]),
        states.make_density(np.diag([0.25, 0.25, 0.25, 0.25, 0.0, 0.0])),
        _rotated([0.4, 0.4, 0.2], 151),  # a repeated eigenvalue
        _rotated([0.3, 0.3, 0.2, 0.2], 152),
        _rotated([0.5, 0.5, 0.0, 0.0], 153),  # repeated and rank-deficient
    ]
    return out


def _rank(rho):
    return max(int(np.sum(rho.eig.eigenvalues > DEFAULT_TOL)), 1)


def test_canonical_purifications_match_the_old_loop_bitwise():
    rhos = _densities()
    for dim_ks in ([_rank(r) for r in rhos], [r.dim + 1 + i % 3 for i, r in enumerate(rhos)]):
        got = states.canonical_purifications(rhos, dim_ks)
        for i, (rho, k, psi) in enumerate(zip(rhos, dim_ks, got)):
            want = _old_canonical_purification(rho, k)
            assert (psi.dim_h, psi.dim_k) == (rho.dim, k), f"item {i}"
            assert _same(psi.vec, want), f"item {i}"
            assert _same(states.canonical_purification(rho, k).vec, want), f"item {i}"
            assert not psi.vec.flags.writeable


def test_canonical_purifications_name_the_item_below_its_rank():
    good = states.random_density(4, 2, 154)
    with pytest.raises(RankError, match="^matrix 2 has rank 3"):
        states.canonical_purifications([good, good, states.random_density(4, 3, 155)], [2, 4, 2])


def test_unitaries_from_gauss_match_the_old_qr_bitwise():
    dims = [d for _ in range(3) for d in range(2, 9)]
    zs = [Stream(derive_seed(156, i)).complex_gauss_matrix(d, d) for i, d in enumerate(dims)]
    zs.append(np.diag([1.0, -2.0, 3.0j]))  # diagonal R with negative and imaginary phases
    got = states.unitaries_from_gauss(zs)
    for i, (z, u) in enumerate(zip(zs, got)):
        assert _same(u, _old_unitary_from_gauss(z)), f"item {i}"
        assert _same(states.unitary_from_gauss(z), u), f"item {i}"
    want = _old_unitary_from_gauss(Stream(157).complex_gauss_matrix(5, 5))
    assert _same(states.random_unitary(5, 157), want)


def test_unitaries_from_gauss_name_the_failing_matrix():
    good = Stream(158).complex_gauss_matrix(3, 3)
    singular = np.ones((3, 3), dtype=np.complex128)
    with pytest.raises(NormalizationError, match="^matrix 2 is not unitary"):
        states.unitaries_from_gauss([good, good, singular])


def _pairs():
    rhos = _densities()
    pairs = [(a, b) for a, b in zip(rhos, rhos[1:]) if a.dim == b.dim]
    pairs += [(r, r) for r in rhos[::5]]  # r1 - r2 = 0: every eigenvalue kept
    ket0, ket1 = states.pure_density([1, 0]), states.pure_density([0, 1])
    return pairs + [(ket0, ket1), (ket1, ket0)]


def test_optimal_measurements_match_the_old_projectors_bitwise():
    # the kernel sums P * D^T elementwise where the reference traces the product
    # P D: the projectors keep their bits, the achieved value may move by ulps
    lone = tuple(states.random_density(203, r, derive_seed(162, r)) for r in (3, 203))
    pairs = _pairs() + [lone]  # the only pair of its dimension
    measured = metrics.optimal_measurements(pairs)
    for i, ((r1, r2), (meas, achieved)) in enumerate(zip(pairs, measured)):
        p_pos, p_neg, want = _old_optimal_measurement(r1, r2)
        assert _same(meas.projector_pos, p_pos) and _same(meas.projector_neg, p_neg), f"pair {i}"
        assert abs(achieved - want) <= 1e-14, f"pair {i}"
        single, value = metrics.optimal_measurement(r1, r2)
        assert _same(single.projector_pos, p_pos) and value == achieved, f"pair {i}"
        pos, neg = meas  # a measurement iterates as its projector list
        assert pos is meas.projector_pos and neg is meas.projector_neg


def test_optimal_measurements_name_the_failing_pair():
    rho = states.random_density(2, 2, 159)
    # a stack that skipped certification, so the kernel's own check must catch it
    mats = np.array([[[0.5, 1.0], [0.0, 0.5]]], dtype=np.complex128)
    skew = states.DensityMatrix(states.CertifiedStack(mats, None, None), 0)
    with pytest.raises(HermiticityError, match="^matrix 1 is not Hermitian"):
        metrics.optimal_measurements([(rho, rho), (skew, rho)])


def _ensembles_and_measurements():
    items = []
    for t in range(40):
        dim, k = 2 + t % 5, 2 + t % 4
        stream = Stream(derive_seed(160, t))
        seeds = [derive_seed(160, t, i) for i in range(k)]
        members = [states.random_density(dim, 1 + stream.integer(dim), s) for s in seeds]
        raw = np.array([stream.uniform() + 0.05 for _ in range(k)])
        e = info.make_ensemble(map(str, range(k)), raw / raw.sum(), members)
        u = states.random_unitary(dim, derive_seed(161, t))
        rank1 = [np.outer(u[:, c], np.conj(u[:, c])) for c in range(dim)]
        cut = 1 + t % (dim - 1)
        meas = (
            rank1,
            [sum(rank1[:cut]), sum(rank1[cut:])],
            metrics.optimal_measurement(members[0], members[1])[0],
        )[t % 3]
        items.append((e, meas))
    return items


def test_measured_mutual_infos_match_the_old_product_bitwise():
    items = _ensembles_and_measurements()
    stacks = {}  # the items of one (states, projectors) shape, stacked
    for i, (e, meas) in enumerate(items):
        projs = np.asarray(list(meas), dtype=np.complex128)
        stacks.setdefault((e.mats.shape, projs.shape), []).append((i, e, projs))
    for stack in stacks.values():
        index, es, projs = zip(*stack)
        got = info.measured_mutual_infos([e.priors for e in es], [e.mats for e in es], projs)
        for i, e, mi in zip(index, es, got):
            want = _old_measured_mutual_info(e, items[i][1])
            assert mi == want and info.measured_mutual_info(e, items[i][1]) == want, f"item {i}"


def test_measured_mutual_infos_name_the_failing_item():
    e = info.uniform_cube_ensemble([states.pure_density([1, 0]), states.pure_density([0, 1])])
    good = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for bad, what in (
        ([np.array([[1.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0])], "not Hermitian"),
        ([np.eye(2) / 2, np.eye(2) / 2], "not idempotent"),
        ([good[0], good[0]], "do not sum to the identity"),
        ([good[0], np.full((2, 2), np.nan)], "non-finite|not Hermitian"),
    ):
        with pytest.raises(ValueError, match=rf"^matrix \(?2\b.*({what})"):
            info.measured_mutual_infos([e.priors] * 3, [e.mats] * 3, [good, good[::-1], bad])


def _random_mats(dim, count, seed):
    specs = [(dim, 1 + i % dim, derive_seed(seed, i)) for i in range(count)]
    return np.array([rho.mat for rho in states.random_densities(specs)])


@pytest.mark.parametrize("dim_h, dim_k", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_stacked_partial_traces_match_the_one_matrix_calls(dim_h, dim_k):
    mats = _random_mats(dim_h * dim_k, 12, 60 + dim_h).reshape(3, 4, dim_h * dim_k, -1)
    for keep in "HK":
        got = linalg.partial_trace(mats, dim_h, dim_k, keep)
        assert got.shape[:2] == (3, 4)
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(got[i, j], linalg.partial_trace(mats[i, j], dim_h, dim_k, keep))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_weight_rows_mix_each_stacked_matrix_as_its_one_row_call(n):
    stacks = _random_mats(3, 5 * n, 70 + n).reshape(n, 5, 3, 3)
    raw = np.array([[Stream(derive_seed(71, i)).uniform() + 0.05 for _ in range(n)] for i in range(5)])
    w = raw / raw.sum(axis=-1, keepdims=True)
    got = states.mixture_matrix(w, stacks)
    for i in range(5):
        assert np.array_equal(got[i], states.mixture_matrix(w[i], stacks[:, i]))


@pytest.mark.parametrize("bad", [-0.5, np.nan])
def test_a_bad_weight_row_is_named(bad):
    stacks = _random_mats(2, 6, 72).reshape(2, 3, 2, 2)
    w = np.full((3, 2), 0.5)
    w[2] = [bad, 1.0 - bad]
    with pytest.raises(NormalizationError, match="in row 2 "):
        states.mixture_matrix(w, stacks)
    with pytest.raises(NormalizationError, match="in row 2 "):
        info.holevo_informations(w, np.ones((3, 2)), np.ones(3))
    with pytest.raises(NormalizationError, match="^mixture weights must"):
        states.mixture_matrix(w[2], stacks[:, 2])


@pytest.mark.parametrize("at", [(1, 2), (0, 1)])
def test_a_bad_weight_row_of_a_deep_stack_is_named_by_its_index(at):
    # a flat index into (2, 3) rows was out of range at (1, 2) and named the
    # wrong row at (0, 1)
    w = np.full((2, 3, 2), 0.5)
    w[at] = [0.9, 0.3]
    named = rf"^priors in row \({at[0]}, {at[1]}\) must .* got \[0.9 0.3\]$"
    with pytest.raises(NormalizationError, match=named):
        info.holevo_informations(w, np.ones((2, 3, 2)), np.ones((2, 3)))


def test_stacked_holevo_informations_match_holevo_information_bitwise():
    rows = []
    for n in (2, 3, 4):
        for t in range(6):
            raw = np.array([Stream(derive_seed(73, n, t)).uniform() + 0.05 for _ in range(n)])
            dens = states.random_densities([(n, 1 + (t + i) % n, derive_seed(74, n, t, i)) for i in range(n)])
            rows.append(info.make_ensemble(map(str, range(n)), raw / raw.sum(), dens))
    for n in (2, 3, 4):
        es = [e for e in rows if len(e.states) == n]
        priors = np.array([e.priors for e in es])
        entropies = np.array([[s.entropy for s in e.states] for e in es])
        got = info.holevo_informations(priors, entropies, [e.average_state.entropy for e in es])
        assert got.tolist() == [info.holevo_information(e) for e in es]
        want = [info.conditional_entropy(e) for e in es]
        assert info.conditional_entropies(priors, entropies).tolist() == want


@pytest.mark.parametrize(
    "call",
    [
        # a third prior with no entropy of its own
        lambda: info.holevo_informations([[0.5, 0.25, 0.25]], [[1.0, 0.0]], [1.0]),
        # a third entropy with no prior
        lambda: info.conditional_entropies([0.5, 0.5], [1.0, 0.3, 0.7]),
        # one average entropy for two rows of priors
        lambda: info.holevo_informations([[0.5, 0.5]] * 2, [[1.0, 0.0]] * 2, [1.0]),
    ],
    ids=["extra_prior", "extra_entropy", "one_average_for_two_rows"],
)
def test_stacked_entropy_helpers_reject_mismatched_shapes(call):
    with pytest.raises(SizeError):
        call()


def test_pure_stacks_match_the_old_constructors_bitwise():
    lengths = (1, 2, 3, 4, 6, 8, 12, 64, 256)
    vecs = [Stream(derive_seed(162, n)).complex_gauss_matrix(n, 1) for n in lengths]
    vecs += [np.array([0.0, -1.0, 0.0, 0.0]), np.array([1, 1j, -1, -1j]) / 2]
    shapes = [(len(v), 1) if i % 2 else (1, len(v)) for i, v in enumerate(vecs)]
    units = [_old_make_pure(v) for v in vecs]
    pures = states.make_pures([(h, k, v) for (h, k), v in zip(shapes, units)])
    gauss = states.make_pures([(h, k, v) for (h, k), v in zip(shapes, vecs)], rescale=True)
    dens = states.pure_densities(units)
    for i, ((h, k), v, u) in enumerate(zip(shapes, vecs, units)):
        assert _same(pures[i].vec, _old_make_pure(u)), f"item {i}"
        assert _same(states.make_pure(h, k, u).vec, pures[i].vec), f"item {i}"
        assert _same(gauss[i].vec, _old_make_pure(v / np.linalg.norm(v))), f"item {i}"
        assert _same(states.pure_from_gauss(h, k, v).vec, gauss[i].vec), f"item {i}"
        assert _same(dens[i].mat, np.outer(u, np.conj(u))), f"item {i}"
        assert _same(states.pure_density(u).mat, dens[i].mat), f"item {i}"
        assert (pures[i].dim_h, pures[i].dim_k) == (h, k)
    with pytest.raises(NormalizationError, match="^matrix 1 has norm 2"):
        states.pure_densities([units[2], 2 * units[2]])
    with pytest.raises(NormalizationError, match="^matrix 2 has norm"):
        states.make_pures([(2, 1, [1, 0]), (1, 2, [0, 1]), (2, 1, [1, 1])])


def test_apply_k_unitaries_match_one_at_a_time():
    phis = [states.random_pure(h, k, derive_seed(163, h, k)) for h in (1, 2, 3) for k in (2, 3, 4)]
    us = [states.random_unitary(phi.dim_k, derive_seed(164, i)) for i, phi in enumerate(phis)]
    for i, (phi, u, got) in enumerate(zip(phis, us, transition.apply_k_unitaries(zip(phis, us)))):
        want = _old_make_pure((phi.coefficient_matrix() @ u.T).reshape(-1))
        assert _same(got.vec, want), f"item {i}"
        assert _same(transition.apply_k_unitary(phi, u).vec, want), f"item {i}"


def _singular_random_unitary(monkeypatch):
    def zeros(stream, rows, cols):
        return np.zeros((rows, cols), dtype=np.complex128)

    monkeypatch.setattr(Stream, "complex_gauss_matrix", zeros)
    return states.random_unitary(3, 1)


# Each constructor must reject NaN input: ``x > tol`` is False for NaN, so a
# tolerance test written that way lets it through.
NAN_CONSTRUCTORS = {
    "unitary_from_gauss NaN z": lambda mp: states.unitary_from_gauss(np.full((2, 2), np.nan)),
    "unitary_from_gauss singular z": lambda mp: states.unitary_from_gauss(np.zeros((2, 2))),
    "random_unitary singular draw": _singular_random_unitary,
    "make_pure": lambda mp: states.make_pure(2, 1, [np.nan, 0.0]),
    "pure_density": lambda mp: states.pure_density([np.nan, 0.0]),
    "mixture_matrix": lambda mp: states.mixture_matrix([np.nan, 1.0], [np.eye(2) / 2] * 2),
    "make_ensemble": lambda mp: info.make_ensemble(
        "ab", [np.nan, 1.0], [states.pure_density([1, 0]), states.pure_density([0, 1])]
    ),
    "state_prep_unitary": lambda mp: protocol.state_prep_unitary([np.nan, 1.0]),
    "shannon_entropy": lambda mp: info.shannon_entropy([np.nan, 1.0]),
    "InputEnsemble": lambda mp: protocol.InputEnsemble(
        protocol.InputColumns({"x": [0, 1]}), [np.nan, 1.0], [0, 0]
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_CONSTRUCTORS))
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_constructors_reject_nan(monkeypatch, name):
    with pytest.raises((QilabError, ValueError)):
        NAN_CONSTRUCTORS[name](monkeypatch)
