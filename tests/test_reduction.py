from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from qilab import info, linalg, states, transition
from qilab import protocol as proto
from qilab import reduction as red
from qilab.errors import ReductionError
from qilab.rac import bit_of
from qilab.suites import SuiteConfig, run_suite

STYLES = tuple(red.openings(2))


def _family(style, n=2):
    """The size-n family that opens with ``style``'s entry of the table."""
    return red.two_round_family(*red.openings(n)[style], n)


def test_families_validate():
    for style in STYLES:
        fam = _family(style)
        assert fam.rounds == 2
        assert fam.message_qubits == 2
        assert fam.first_message_qubits == 1


def _rows(inputs):
    """Each row of ``inputs`` as a register -> basis value or amplitudes dict."""
    cols = {name: col.tolist() for name, col in inputs.values.items()}
    rows = range(len(inputs))
    return [{**{k: col[i] for k, col in cols.items()}, **inputs.amplitudes} for i in rows]


def test_slice_distribution_weights_and_targets():
    for n in (1, 2, 3):
        fam = _family("copy_first", n)
        for j in range(n):
            ens = red.slice_distribution(fam, j)
            assert len(ens.weights) == 4**n * 2
            assert sum(ens.weights.tolist()) == pytest.approx(1.0)
            for regs, target in zip(_rows(ens.inputs), ens.targets.tolist()):
                assert regs["a"] == j
                assert target == bit_of(regs[f"x{j}"], regs[f"y{j}"], 2)
                assert all(np.array_equal(regs[f"y{i}"], red.PLUS) for i in range(n) if i != j)


def _parent_slice(j, superposed):
    """The n = 2 slice loop the general family replaced, kept literally."""
    instances = []
    other = 1 - j
    y_other_options = [(red.PLUS, 1.0)] if superposed else [(0, 0.5), (1, 0.5)]
    base_w = 1.0 / (4**2 * 2)
    for v0 in range(4):
        for v1 in range(4):
            for z in range(2):
                for y_other_val, w_other in y_other_options:
                    regs = {"a": j, "x0": v0, "x1": v1, f"y{j}": z, f"y{other}": y_other_val}
                    target = bit_of(v0 if j == 0 else v1, z, 2)
                    instances.append((base_w * w_other, regs, target))
    return instances


@pytest.mark.parametrize("superposed", (True, False))
@pytest.mark.parametrize("j", (0, 1))
def test_n2_slice_is_the_old_loop_instance_by_instance(j, superposed):
    # the weighted error sum runs in instance order, so order, weights and
    # registers must match exactly for n = 2 reports to keep their bytes
    got = red.slice_distribution(_family("parity"), j, superposed)
    rows = zip(_rows(got.inputs), got.weights.tolist(), got.targets.tolist())
    want = _parent_slice(j, superposed)
    assert len(got.weights) == len(want)
    for (row, w, t), (weight, regs, target) in zip(rows, want):
        assert (w, t) == (weight, target)
        assert row.keys() == regs.keys()
        for name, value in regs.items():
            other = row[name]
            if isinstance(value, int):
                assert type(other) is int and other == value
            else:
                assert other.tobytes() == value.tobytes()


def test_n2_decode_blocks_are_the_old_keys():
    fam = _family("copy_first")
    decode = fam.moves[1]
    layout = fam.layout
    want = [
        (j << 4) | (v0 << 2) | v1
        for j in range(2)
        for v0 in range(4)
        for v1 in range(4)
        if ((v0 if j == 0 else v1) >> 1) & 1
    ]
    assert list(decode.blocks) == want
    assert decode.controls == (*layout.register("a").qubits, *layout.register("x0").qubits,
                               *layout.register("x1").qubits)


def test_unfixed_slot_acts_like_uniform_mixture():
    # slice inputs: the fixed slot is a uniform classical bit, and once the
    # protocol reads the superposed slot it decoheres to I/2
    fam = _family("copy_first")
    layout = fam.layout
    weights = {0: 0.0, 1: 0.0}
    ens0 = red.slice_distribution(fam, 0)
    for z, w in zip(ens0.inputs.values["y0"].tolist(), ens0.weights.tolist()):
        weights[z] += w
    assert weights == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-12)

    ens1 = red.slice_distribution(fam, 1)
    state = proto.initial_states(layout, ens1.inputs, slice(1))
    y0 = layout.register("y0").qubits
    assert set(y0) <= set(state.wires)  # a superposed input stays a wire
    state = proto.evolve(fam.moves[:1], state)
    assert np.allclose(state.density(y0), np.eye(2) / 2, atol=1e-12)


def test_superposed_equals_classical_average():
    for style, n in (("copy_first", 2), ("rotation", 2), ("copy_first", 3), ("parity", 3)):
        fam = _family(style, n)
        for j in range(n):
            sup = proto.run_protocol(fam, red.slice_distribution(fam, j, True))
            cla = proto.run_protocol(fam, red.slice_distribution(fam, j, False))
            assert sup.error_avg == pytest.approx(cla.error_avg, abs=1e-12)


def test_message_densities_copy_first():
    fam = _family("copy_first")
    rho = proto.message_states(fam, proto.InputColumns({"y0": [0, 1]}, {"y1": red.PLUS}))
    assert np.allclose(rho[0].mat, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(rho[1].mat, np.diag([0.0, 1.0]), atol=1e-12)
    rho1 = proto.message_states(fam, proto.InputColumns({"y1": [0, 1]}, {"y0": red.PLUS}))
    assert np.allclose(rho1[0].mat, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(rho1[1].mat, np.eye(2) / 2, atol=1e-12)
    mus, _, _ = red.message_info_budget([fam])[0]
    assert mus == pytest.approx([1.0, 0.0], abs=1e-10)


def _slice_average(spec, fam, j):
    """Reference: the first message averaged over every slice instance,
    one weighted run per instance, grouped by the value of y_j."""
    send = spec.first_message_index()
    acc, weight = {}, {}
    ens = red.slice_distribution(fam, j)
    for row, (z, w) in enumerate(zip(ens.inputs.values[f"y{j}"].tolist(), ens.weights.tolist())):
        state = proto.initial_states(spec.layout, ens.inputs, slice(row, row + 1))
        rho = proto.evolve(spec.moves[: send + 1], state).density(spec.moves[send].send)
        acc[z] = acc.get(z, 0.0) + w * rho
        weight[z] = weight.get(z, 0.0) + w
    return [acc[z] / weight[z] for z in sorted(acc)]


@pytest.mark.parametrize("j", (0, 1))
@pytest.mark.parametrize("style", STYLES)
def test_message_states_equal_the_slice_average(style, j):
    # Bob's opening cannot read Alice's x's, so one run per value of y_j
    # gives the average over the 16 x values of the slice
    fam = _family(style)
    spec_prime, _ = red.modify_first_message([(fam, j)])[0]
    for spec in (fam, spec_prime):
        slot = proto.InputColumns({f"y{j}": [0, 1]}, {f"y{1 - j}": red.PLUS})
        got = proto.message_states(spec, slot)
        want = _slice_average(spec, fam, j)
        assert len(got) == len(want) == 2
        for rho, ref in zip(got, want):
            assert np.max(np.abs(rho.mat - ref)) <= 1e-15


def _alice_first(fam):
    """The family's layout with m Alice's, and her decode move as the
    opening: a valid spec whose first message reads a, x0 and x1."""
    layout = proto.make_layout(
        [(r.name, r.n_qubits, r.kind, "alice" if r.name == "m" else r.owner)
         for r in fam.layout.registers]
    )
    return proto.ProtocolSpec(layout, fam.moves[1:], fam.final_measurement)


def test_message_states_reject_an_unset_input_the_sender_reads():
    fam = _family("copy_first")
    flipped = _alice_first(fam)
    with pytest.raises(proto.ProtocolError, match=r"unset inputs \['a', 'x0', 'x1'\]"):
        proto.message_states(flipped, proto.InputColumns({"y0": [0], "y1": [1]}))
    with pytest.raises(proto.ProtocolError, match=r"unset inputs \['x1'\]"):
        proto.message_states(flipped, proto.InputColumns({"a": [1], "x0": [3]}))
    (rho,) = proto.message_states(flipped, proto.InputColumns({"a": [1], "x0": [0], "x1": [2]}))
    assert np.allclose(rho.mat, np.diag([0.0, 1.0]), atol=1e-12)


def test_modify_first_message_zeroes_information():
    for style in STYLES:
        fam = _family(style)
        mus, _, _ = red.message_info_budget([fam])[0]
        for j in (0, 1):
            spec_prime, rep = red.modify_first_message([(fam, j)])[0]
            assert rep.mu_j_prime <= 1e-9
            assert spec_prime.rounds == 2
            assert spec_prime.message_qubits == fam.message_qubits
            assert rep.delta_j <= rep.eps_j + 2.0 * rep.mean_sqrt_t + 1e-8
            assert rep.delta_j <= rep.eps_j + 4.0 * mus[j] ** 0.25 + 1e-8
            for t_z, dist in zip(rep.t_values, rep.align_distances):
                assert dist <= 2.0 * np.sqrt(t_z) + 1e-8


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("style", STYLES)
def test_the_corrective_leaves_p_prime_at_the_aligned_distance(style, n):
    # no later move of these families reads Bob's K wires, so P''s outcomes
    # cannot tell whether the corrective ran; its global state after Bob's
    # moves can: per value of y_j, it sits at the alignment's pure distance
    # 2 sqrt(1 - F) from P's state after the opening
    fam = _family(style, n)
    for j in range(n):
        spec_prime, rep = red.modify_first_message([(fam, j)])[0]
        others = {f"y{i}": red.PLUS for i in range(n) if i != j}
        slot = proto.InputColumns({f"y{j}": [0, 1]}, others)
        start = proto.initial_states(spec_prime.layout, slot)
        original = proto.evolve(fam.moves[:1], start).vec
        corrected = proto.evolve(spec_prime.moves[:-1], start).vec
        overlaps = np.abs(np.vecdot(original, corrected)) ** 2
        want = [1.0 - (d / 2.0) ** 2 for d in rep.align_distances]
        assert overlaps == pytest.approx(want, abs=1e-9)


def test_independent_first_message_needs_no_correction():
    fam = _family("constant")
    spec_prime, rep = red.modify_first_message([(fam, 0)])[0]
    mus, _, _ = red.message_info_budget([fam])[0]
    assert mus[0] == pytest.approx(0.0, abs=1e-10)
    assert max(rep.t_values) <= 1e-9
    assert max(rep.align_distances) <= 1e-6
    assert rep.delta_j == pytest.approx(rep.eps_j, abs=1e-9)


def test_copy_first_slice_zero_numbers():
    fam = _family("copy_first")
    _, rep = red.modify_first_message([(fam, 0)])[0]
    assert rep.eps_j == pytest.approx(0.25, abs=1e-12)
    mus, _, _ = red.message_info_budget([fam])[0]
    assert mus[0] == pytest.approx(1.0, abs=1e-10)
    assert rep.t_values == pytest.approx((1.0, 1.0), abs=1e-10)
    # message replaced by half of a maximally entangled pair: fidelity 1/2
    assert rep.align_distances == pytest.approx((np.sqrt(2.0),) * 2, abs=1e-9)


def test_drop_first_message_matches_and_saves_a_round():
    for style in STYLES:
        fam = _family(style)
        for j in (0, 1):
            spec_prime, first = red.modify_first_message([(fam, j)])[0]
            spec_double, rep = red.drop_first_message([(fam, spec_prime, first)])[0]
            assert rep.rounds_after == rep.rounds_before - 1
            assert rep.message_qubits_after <= rep.budget
            assert rep.max_outcome_tv <= 1e-8
            assert rep.max_transition_residual <= 1e-8
            assert spec_double.rounds == 1


def test_message_info_budget():
    fam = _family("copy_first")
    mus, joint, ell1 = red.message_info_budget([fam])[0]
    assert mus[0] == pytest.approx(1.0, abs=1e-10)
    assert mus[1] == pytest.approx(0.0, abs=1e-10)
    assert ell1 == 1
    assert sum(mus) <= joint + 1e-9
    assert joint <= ell1 + 1e-9

    fam2 = _family("parity")
    mus2, joint2, _ = red.message_info_budget([fam2])[0]
    # parity of two uniform bits tells nothing about either alone
    assert max(mus2) <= 1e-10
    assert joint2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", (2, 3))
def test_random_first_messages_respect_budget(n):
    # randomized sweep over openings on m that read every y: 2^n Haar
    # blocks each, built through the block-set constructor
    from qilab.rng import derive_seed
    from qilab.states import random_unitary

    reads = tuple(f"y{i}" for i in range(n))
    for trial in range(12):
        blocks = {b: random_unitary(2, derive_seed(130, trial, b)) for b in range(2**n)}
        fam = red.two_round_family(reads, blocks, n)
        mus, joint, ell1 = red.message_info_budget([fam])[0]
        assert len(mus) == n and ell1 == 1
        assert sum(mus) <= joint + 1e-9
        assert joint <= ell1 + 1e-9


def test_each_stage_takes_any_iterable():
    # each stage reads its argument more than once; a generator must give
    # the list's results, not an empty list
    fam = _family("rotation")
    assert len(red.message_info_budget(iter([fam]))) == 1
    ((spec_prime, first),) = red.modify_first_message(iter([(fam, 0)]))
    assert len(red.drop_first_message(iter([(fam, spec_prime, first)]))) == 1


def test_a_hand_wrapped_spec_takes_its_n_from_the_layout():
    # a bare n = 3 spec put together by hand is sized from its registers:
    # 4^3 x values times 2 of y_0 per slice, one budget value per slot
    built = _family("copy_first", 3)
    fam = proto.ProtocolSpec(built.layout, built.moves, built.final_measurement)
    assert red._slots(fam) == 3
    assert len(red.slice_distribution(fam, 0).weights) == 4**3 * 2
    mus, _, _ = red.message_info_budget([fam])[0]
    assert len(mus) == 3


def test_modify_requires_bob_start():
    fam = _family("copy_first")
    flipped = _alice_first(fam)
    with pytest.raises(ReductionError, match="player without the pointer"):
        red.modify_first_message([(flipped, 0)])


def test_copy_first_slice_errors():
    fam = _family("copy_first")
    reps = [
        proto.run_protocol(fam, red.slice_distribution(fam, j)) for j in range(2)
    ]
    assert [r.error_avg for r in reps] == pytest.approx([0.25, 0.5], abs=1e-12)
    assert fam.rounds == 2 and fam.first_message_qubits == 1


def test_derived_protocol_keeps_the_family_layout():
    # P' keeps every family wire and appends psi where the opening reads
    # y_j (copy_first reads y0 only); only the other y's, m and psi are
    # simulated: at n = 2 and j = 0, 3 of 9 wires, at n = 3 (a 2-qubit
    # pointer), 4 of 13
    for n, wires in ((2, 8), (3, 12)):
        fam = _family("copy_first", n)
        assert len(fam.layout.initial_owner()) == wires
        for j in range(n):
            spec_prime, _ = red.modify_first_message([(fam, j)])[0]
            layout = spec_prime.layout
            psi = 1 if j == 0 else 0
            assert len(layout.initial_owner()) == wires + psi
            assert len(layout.initial_owner()) - len(layout.input_qubits()) == n + psi
            kinds = [layout.register(f"y{i}").kind for i in range(n)]
            assert kinds == ["input" if i == j else "work" for i in range(n)]
            report = proto.run_protocol(spec_prime, red.slice_distribution(fam, j))
            assert 0.0 <= report.error_avg <= 1.0


def test_drop_budget_at_n3_is_two_pointer_qubits():
    fam = _family("copy_first", 3)
    spec_prime, first = red.modify_first_message([(fam, 1)])[0]
    _, rep = red.drop_first_message([(fam, spec_prime, first)])[0]
    assert rep.budget == spec_prime.message_qubits + 2
    assert rep.message_qubits_after <= rep.budget


def test_parity_reads_every_y():
    fam = _family("parity", 3)
    first = fam.moves[0]
    ys = [q for i in range(3) for q in fam.layout.register(f"y{i}").qubits]
    assert first.controls == tuple(ys)
    assert sorted(first.blocks) == [1, 2, 4, 7]
    mus, joint, _ = red.message_info_budget([fam])[0]
    assert max(mus) <= 1e-10
    assert joint == pytest.approx(1.0, abs=1e-9)


def _with_alignment(monkeypatch, overlap_sq):
    original = red.uhlmann_aligns

    def faked(pairs):
        return [replace(r, achieved_overlap_sq=overlap_sq, t=0.0) for r in original(pairs)]

    monkeypatch.setattr(red, "uhlmann_aligns", faked)


def test_alignment_guard_forgives_rounding_of_identical_states(monkeypatch):
    # equal states can come back with overlap^2 one rounding below 1 and
    # t = 0; 2 sqrt(1 - F) turns that 4.4e-16 into 4.2e-8
    _with_alignment(monkeypatch, 1.0 - 4.4e-16)
    red.modify_first_message([(_family("copy_first"), 0)])


def test_alignment_guard_still_catches_a_real_gap(monkeypatch):
    _with_alignment(monkeypatch, 1.0 - 1e-6)
    with pytest.raises(ReductionError, match="alignment distance exceeded its bound"):
        red.modify_first_message([(_family("copy_first"), 0)])


def test_pipeline_report_fields():
    rep = next(red.run_pipelines(("rotation",)))[0]
    assert rep.style == "rotation"
    assert 0.0 < rep.mus[0] < 1.0
    assert rep.first.alignment_bound_slack >= -1e-8
    assert rep.info_bound_slack >= -1e-8
    assert rep.first.eps_j == pytest.approx(rep.classical_error, abs=1e-12)


def _count_simulations(monkeypatch):
    """Lists that grow by one per protocol run, slice distribution, spec built
    and first-message ensemble simulated, in every module that binds them."""
    counts = {"runs": [], "slices": [], "built": [], "messages": []}
    run, slices = red.run_protocol, red.slice_distribution
    messages, init = proto.message_states_of, proto.ProtocolSpec.__post_init__

    def counting_run(spec, ensemble):
        counts["runs"].append(spec)
        return run(spec, ensemble)

    def counting_slices(*args, **kwargs):
        counts["slices"].append(args)
        return slices(*args, **kwargs)

    def counting_messages(runs):
        runs = list(runs)
        counts["messages"].extend(spec for spec, _ in runs)
        return messages(runs)

    def counting_init(self):
        counts["built"].append(self)
        init(self)

    monkeypatch.setattr(red, "run_protocol", counting_run)
    monkeypatch.setattr(red, "slice_distribution", counting_slices)
    for module in (proto, red):
        monkeypatch.setattr(module, "message_states_of", counting_messages)
    monkeypatch.setattr(proto.ProtocolSpec, "__post_init__", counting_init)
    return counts


def test_pipeline_makes_four_protocol_runs_per_slot(monkeypatch):
    # four runs per slot: P, P' and P'' on the superposed slice, which is
    # built once for the three, and P on the classical slice. Five
    # first-message ensembles simulated per pipeline: the budget's two slots
    # and joint ensemble, computed once, and P''s slot ensemble once per
    # slot, which the P'' step reuses. Five specs built: the family, and P'
    # and P'' per slot
    counts = _count_simulations(monkeypatch)
    reports = next(red.run_pipelines(("rotation",)))
    assert [rep.j for rep in reports] == [0, 1]
    assert len(counts["runs"]) == 4 * len(reports)
    assert len(counts["slices"]) == 2 * len(reports)
    assert len(counts["messages"]) == 5 and len(counts["built"]) == 5


def test_seed_one_protocol_pass_simulates_and_builds_each_spec_once(monkeypatch):
    # the rac suite builds and simulates 3 specs; each reduction pipeline
    # builds its family, P' and P'' per slot (5 specs) and simulates 5
    # first-message ensembles, over 4 styles
    counts = _count_simulations(monkeypatch)
    for suite in ("rac", "reduction"):
        run_suite(suite, SuiteConfig(seed=1))
    assert len(counts["messages"]) <= 23 and len(counts["built"]) <= 23


def _same_report(got, want) -> None:
    """Two reports equal field for field with ==, arrays, the first
    messages' matrices and the slice's columns bit for bit."""
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "ensemble":  # the slice: its columns, weights and targets
            for cols in ("values", "amplitudes"):
                x, y = getattr(a.inputs, cols), getattr(b.inputs, cols)
                assert x.keys() == y.keys()
                assert all(x[k].tobytes() == y[k].tobytes() for k in y), cols
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.targets.tobytes() == b.targets.tobytes()
        elif is_dataclass(b):
            _same_report(a, b)
        elif isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        elif field.name == "prime_messages":
            assert [m.mat.tobytes() for m in a] == [m.mat.tobytes() for m in b]
            assert [m.entropy for m in a] == [m.entropy for m in b]
        else:
            assert a == b, field.name


@pytest.mark.parametrize("n", (2, 3, 4))
def test_pipelines_in_lockstep_equal_the_per_instance_stages(n):
    # the reference takes each (style, j) through its own stages: each
    # stage called on a one-item list, and P on the classical slice, each
    # with its own kernel calls. At n = 2 one
    # group holds every instance, at n = 3 groups of four cross families,
    # and at n = 4 each instance is a group of its own
    got = list(red.run_pipelines(STYLES, n))
    assert len(got) == len(STYLES)
    for style, reports in zip(STYLES, got):
        fam = _family(style, n)
        mus, joint, ell1 = red.message_info_budget([fam])[0]
        assert [rep.j for rep in reports] == list(range(n))
        for j, rep in enumerate(reports):
            spec_prime, first = red.modify_first_message([(fam, j)])[0]
            _, drop = red.drop_first_message([(fam, spec_prime, first)])[0]
            cla = proto.run_protocol(fam, red.slice_distribution(fam, j, superposed=False))
            want = red.PipelineReport(style, j, first, drop, tuple(mus), joint, ell1, cla.error_avg)
            _same_report(rep, want)


def test_a_group_holds_the_instances_whose_blocks_fit_block_entries(monkeypatch):
    # at n = 3 an instance takes under 4^6 entries, so a group holds
    # BLOCK_ENTRIES // 4^6 = 4 instances: the 6 slots of two families make
    # one P -> P' alignment call of 4 x 2 pairs, then one of 2 x 2
    sizes = []
    aligns = red.uhlmann_aligns

    def counting(pairs):
        sizes.append(len(pairs))
        return aligns(pairs)

    monkeypatch.setattr(red, "uhlmann_aligns", counting)
    assert [len(reports) for reports in red.run_pipelines(STYLES[:2], 3)] == [3, 3]
    assert sizes == [8, 4]


def test_seed_one_reduction_suite_stacks_each_stage(monkeypatch):
    # at n = 2 the 8 (style, slot) instances share one alignment call per
    # step, one purification call and one Holevo call per cube size (2 and
    # 4 messages); each slot's superposed slice serves P, P' and P''
    calls = Counter()
    bound = {  # every module binding each counted function
        "uhlmann_aligns": (transition, red),
        "canonical_purifications": (states, red),
        "holevo_informations": (info,),
        "hermitian_eig": (linalg,),
        "slice_distribution": (red,),
        "run_protocol": (red,),
    }
    for name, modules in bound.items():
        real = getattr(modules[0], name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            assert getattr(module, name) is real
            monkeypatch.setattr(module, name, counting)
    run_suite("reduction", SuiteConfig(seed=1, n=2))
    assert calls["uhlmann_aligns"] <= 2 and calls["canonical_purifications"] == 1
    assert calls["holevo_informations"] <= 4 and calls["hermitian_eig"] <= 28
    assert calls["slice_distribution"] <= 16 and calls["run_protocol"] == 32


@pytest.mark.parametrize("style", STYLES)
def test_eps_j_is_the_superposed_slice_error_bit_for_bit(style):
    # every other y re-kinded to work is still the same simulated |+> wire
    for n in (2, 3):
        fam = _family(style, n)
        for j in range(n):
            _, rep = red.modify_first_message([(fam, j)])[0]
            sup = proto.run_protocol(fam, red.slice_distribution(fam, j, superposed=True))
            assert rep.eps_j == sup.error_avg
