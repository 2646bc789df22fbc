"""Acceptance gate: one test per criterion, each printing its verdict.

All criteria run at their stated trial counts and tolerances. One test,
``test_criterion_4_average_distance_information_floor``, is expected to
fail and is left failing on purpose: the inequality it checks (the
half-argument information floor for multi-bit encodings) is not a true
statement, and random ensembles refute it; the provable quarter-argument
floor is certified in its place by the passing part of criterion 4. See
the assertion message for details.
"""

import numpy as np
import pytest

from qilab import cli
from qilab.suites import SuiteConfig, run_suite


def _by_name(checks):
    return {c.name: c for c in checks}


def _verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    return ok


@pytest.fixture(scope="module")
def metrics_checks():
    return _by_name(run_suite("metrics", SuiteConfig(seed=2, trials=1000)))


@pytest.fixture(scope="module")
def info_checks():
    return _by_name(run_suite("info", SuiteConfig(seed=2, trials=500)))


@pytest.fixture(scope="module")
def transition_checks():
    return _by_name(run_suite("transition", SuiteConfig(seed=2, trials=1000)))


@pytest.fixture(scope="module")
def encoding_checks():
    return _by_name(run_suite("encoding", SuiteConfig(seed=2, trials=200)))


@pytest.fixture(scope="module")
def rac_checks():
    return _by_name(run_suite("rac", SuiteConfig(seed=2)))


@pytest.fixture(scope="module")
def reduction_checks():
    return _by_name(run_suite("reduction", SuiteConfig(seed=2)))


def test_criterion_1_metrics(metrics_checks):
    c = metrics_checks
    ok = (
        c["fvg_lower"].trials >= 1000
        and c["fvg_lower"].min_slack >= -1e-9
        and c["fvg_upper"].min_slack >= -1e-9
        and c["measurement_tightness"].violations == 0
        and c["measurement_tightness"].min_slack >= 0.0
        and c["pure_state_distance_agreement"].min_slack >= 0.0
    )
    assert _verdict("criterion 1: metrics suite", ok)


def test_criterion_2_information(info_checks):
    c = info_checks
    ok = (
        c["holevo_dominance"].trials >= 500
        and c["holevo_dominance"].min_slack >= -1e-9
        and c["block_entropy_identity"].min_slack >= 0.0
        and c["chain_identity"].min_slack >= 0.0
        and c["mi_monotonicity"].min_slack >= -1e-10
        and c["binary_entropy_gap"].min_slack >= -1e-12
    )
    assert _verdict("criterion 2: information suite", ok)


def test_criterion_3_transition(transition_checks):
    c = transition_checks
    ok = (
        c["overlap_matches_fidelity"].trials >= 1000
        and c["overlap_matches_fidelity"].violations == 0
        and c["transition_bound"].min_slack >= -1e-8
        and c["exact_transition"].violations == 0
    )
    assert _verdict("criterion 3: transition suite", ok)


def test_criterion_4_encoding_chain(encoding_checks):
    c = encoding_checks
    ok = (
        c["delta_prime_le_delta"].trials >= 200
        and c["delta_prime_le_delta"].min_slack >= -1e-8
        and c["delta_le_two_sqrt_info"].min_slack >= -1e-8
        and c["info_floor_quarter"].min_slack >= -1e-8
        and c["info_floor_half"].details["violations_at_m1"] == 0
        and c["pairing_bound"].min_slack >= -1e-10
        and c["pairing_vs_exhaustive"].min_slack >= -1e-10
        and c["info_decomposition"].min_slack >= -1e-9
    )
    assert _verdict("criterion 4: encoding chain, floors, pairing, decomposition", ok)


def test_criterion_4_average_distance_information_floor(encoding_checks):
    c = encoding_checks["info_floor_half"]
    ok = c.min_slack >= -1e-8
    _verdict("criterion 4: half-argument information floor (expected red)", ok)
    assert ok, (
        "I(X:Q) >= 1 - H((1+Delta)/2) fails for multi-bit encodings: "
        f"worst slack {c.min_slack:.3e} over {c.trials} applicable ensembles "
        f"({c.violations} violations, none at m=1). The one-bit base case "
        "gives each disjoint label pair 1 - H(1/2 + pair_distance/4) bits, "
        "so the provable general floor carries Delta/4, not Delta/2, in the "
        "entropy argument; that corrected floor and the downstream bound "
        "Delta <= 2 sqrt(I) are certified green by the companion checks "
        "(info_floor_quarter, delta_le_two_sqrt_info)."
    )


def test_criterion_5_random_access_codes(rac_checks):
    c = rac_checks
    target = (2.0 + np.sqrt(2.0)) / 4.0
    ok = (
        c["rac_n2_success"].violations == 0
        and abs(c["rac_n2_success"].details["protocol_success"] - target) <= 1e-3
        and c["rac_bound_n2"].min_slack >= 0.0
        and c["rac_bound_n3"].min_slack >= 0.0
        and c["rac_chain_n2"].min_slack >= -1e-9
        and c["rac_chain_n3"].min_slack >= -1e-9
        and c["classical_copy_equality"].violations == 0
    )
    assert _verdict("criterion 5: random access codes", ok)


def test_criterion_6_reduction(reduction_checks):
    c = reduction_checks
    ok = (
        c["first_message_independence"].trials >= 3
        and c["first_message_independence"].min_slack >= 0.0
        and c["alignment_error_bound"].min_slack >= -1e-8
        and c["info_error_bound"].min_slack >= -1e-8
        and c["simulation_equivalence"].min_slack >= 0.0
        and c["round_reduction"].violations == 0
        and c["message_budget"].min_slack >= 0.0
        and c["message_info_budget"].min_slack >= -1e-9
    )
    assert _verdict("criterion 6: round-reduction pipeline", ok)


def test_criterion_7_deterministic_reports():
    args = ["--suite", "all", "--seed", "11", "--trials", "25", "--m", "3"]
    parser = cli.build_parser()
    report1 = cli.canonical_json(cli.build_report(parser.parse_args(args)))
    report2 = cli.canonical_json(cli.build_report(parser.parse_args(args)))
    ok = report1 == report2 and report1.encode() == report2.encode()
    assert _verdict("criterion 7: byte-identical reports", ok)
