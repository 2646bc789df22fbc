import json
import math

import pytest

from qilab import cli, suites
from qilab.errors import SizeError


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_metrics_suite_exits_zero(capsys):
    code, out = run_cli(
        ["--suite", "metrics", "--trials", "50", "--seed", "7"], capsys
    )
    assert code == 0
    assert "PASS" in out and "min_slack" in out


def test_json_format_is_valid_json(capsys):
    code, out = run_cli(
        ["--suite", "metrics", "--trials", "20", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["suite"] == "metrics"
    names = [c["name"] for c in report["checks"]]
    assert "fvg_lower" in names and "fvg_upper" in names


def test_exit_code_matches_violations(capsys):
    # the encoding suite transparently reports the half-argument floor
    # violations: the exit status is 1 and the report keeps the count
    code, out = run_cli(
        ["--suite", "encoding", "--trials", "40", "--format", "json"], capsys
    )
    report = json.loads(out)
    total = sum(c["violations"] for c in report["checks"])
    assert total > 0 and code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["info_floor_quarter"]["violations"] == 0
    assert by_name["delta_le_two_sqrt_info"]["violations"] == 0


def test_a_defect_in_the_information_is_reported_not_raised(capsys, monkeypatch):
    # the suite is the one judge of the encoding bounds: an information 50
    # times too small shows as violations in a full report, with exit 1
    holevo = suites.holevo_informations  # the suite's I, a column of cubes at a time
    monkeypatch.setattr(suites, "holevo_informations", lambda *a: holevo(*a) / 50)
    code, out = run_cli(["--suite", "encoding", "--trials", "5", "--format", "json"], capsys)
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert by_name["delta_le_two_sqrt_info"]["violations"] == 5


def test_violation_count_does_not_wrap_exit_status(capsys, monkeypatch):
    # 1280 violations used to exit 1280 mod 256 = 0; --tol rejects a
    # negative value, so every check's tolerance is forced to -10 here
    monkeypatch.setattr(suites, "_tol", lambda cfg, default: -10.0)
    code, out = run_cli(["--suite", "metrics", "--trials", "256"], capsys)
    assert code == 1
    assert "total violations: 1280" in out


def test_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["--suite", "rac", "--seed", "3", "--format", "json"]
    code1, text1 = run_cli(args + ["--out", str(out1)], capsys)
    code2, text2 = run_cli(args + ["--out", str(out2)], capsys)
    assert text1 == text2
    assert out1.read_bytes() == out2.read_bytes()
    assert code1 == code2


def shell_status(argv) -> int:
    """The exit status a shell sees: a parser error raises, a library error returns."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# each range error the CLI reports, with the run it names
RANGE_ERRORS = [
    (["--dims", "9-3"], "all", {"dims": (9, 3)}),
    (["--trials", "-3"], "all", {"trials": -3}),
    (["--trials", "0"], "all", {"trials": 0}),
    (["--m", "0"], "all", {"m": 0}),
    (["--n", "0"], "all", {"n": 0}),
    (["--tol", "nan"], "all", {"tol": math.nan}),
    (["--tol", "inf"], "all", {"tol": math.inf}),
    # used to report 15 violations
    (["--suite", "metrics", "--trials", "3", "--tol", "-1"], "metrics", {"trials": 3, "tol": -1.0}),
    # used to run as seeds 0 and 2**64 - 1 while the report echoed them
    (
        ["--suite", "metrics", "--trials", "3", "--seed", "18446744073709551616"],
        "metrics",
        {"trials": 3, "seed": 2**64},
    ),
    (["--suite", "metrics", "--trials", "3", "--seed", "-1"], "metrics", {"trials": 3, "seed": -1}),
]


def test_bad_flags_exit_two(capsys):
    # "-inf" reads as an option, so --tol is missing its argument
    parser_errors = [["--suite", "nonsense"], ["--tol", "-inf"]]
    for argv in parser_errors + [argv for argv, _, _ in RANGE_ERRORS]:
        assert shell_status(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("qilab: error:")


@pytest.mark.parametrize(
    "argv, suite, flags", RANGE_ERRORS, ids=[" ".join(argv) for argv, _, _ in RANGE_ERRORS]
)
def test_a_range_error_reads_as_the_library_words_it(argv, suite, flags, capsys):
    # the CLI judges no range itself: run_suite's SizeError is its message
    with pytest.raises(SizeError) as exc:
        suites.run_suite(suite, suites.SuiteConfig(**flags))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"qilab: error: {exc.value}\n"


def test_m_outside_the_encoding_widths_is_rejected(capsys):
    # --m 8 used to run the encoding suite as m = 5 and echo "m": 8
    for m in ("6", "8"):
        assert shell_status(["--suite", "encoding", "--m", m, "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "1..5" in captured.err
    for m in (0, 6):
        with pytest.raises(SizeError):
            suites.run_suite("encoding", suites.SuiteConfig(m=m, trials=1))


@pytest.mark.parametrize(
    "suite, flags",
    [
        ("metrics", {"trials": 0}),  # used to run the default 1000 trials
        ("info", {"trials": -3}),
        ("metrics", {"dims": (5, 2)}),  # used to run d in {5, 4}
        ("metrics", {"dims": (0, 0)}),  # used to raise a bare ValueError from the RNG
        ("encoding", {"dims": (2, 257)}),
        ("rac", {"n": 0}),  # used to raise OverflowError
        ("reduction", {"n": 0}),  # used to raise KeyError
        ("transition", {"tol": -1e-9}),
        ("metrics", {"tol": math.nan}),
        ("info", {"tol": math.inf}),
        ("metrics", {"seed": -1}),  # used to run as seed 2**64 - 1
        ("metrics", {"seed": 2**64}),  # used to run as seed 0
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()),
)
def test_a_config_outside_the_library_boundary_is_rejected(suite, flags):
    with pytest.raises(SizeError):
        suites.run_suite(suite, suites.SuiteConfig(**flags))


def test_library_size_error_exits_two(capsys):
    # n = 9 copies into 9 message qubits, past the simulated-wire cap
    code = cli.main(["--suite", "rac", "--n", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "cap" in captured.err


def test_five_bit_index_runs(capsys):
    # controls never enter a dense operator, so n = 5 fits the caps
    code, out = run_cli(["--suite", "rac", "--n", "5", "--format", "json"], capsys)
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["classical_copy_equality"]["violations"] == 0
    assert by_name["classical_copy_equality"]["details"]["n"] == 5
    assert code == 0


def test_reduction_rejects_an_n_over_the_cap(capsys, monkeypatch):
    # P'' simulates m, psi, B'' and the n - 1 other y's: n = 7 needs 9
    # qubits, rejected before any suite of --suite all runs (it used to
    # fail inside the reduction suite after the others had run)
    called = []
    monkeypatch.setattr(
        suites,
        "SUITES",
        {name: (lambda cfg, name=name: called.append(name) or []) for name in suites.SUITES},
    )
    for suite in ("reduction", "all"):
        code = cli.main(["--suite", suite, "--n", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "cap 8" in captured.err
    assert called == []


def test_reduction_runs_at_n_3(capsys):
    code, out = run_cli(["--suite", "reduction", "--n", "3", "--format", "json"], capsys)
    checks = json.loads(out)["checks"]
    assert code == 0 and len(checks) == 9
    for check in checks:
        want = 36 if check["name"] == "message_info_budget" else 12
        assert (check["trials"], check["violations"]) == (want, 0)


def test_four_bit_index_runs(capsys):
    # x and i are classical bits, so n = 4 needs 4 simulated qubits
    code, out = run_cli(["--suite", "rac", "--n", "4", "--format", "json"], capsys)
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["classical_copy_equality"]["details"]["n"] == 4
    assert code == 0


def test_dims_parsing():
    assert cli._parse_dims("2-8") == (2, 8)
    assert cli._parse_dims("3") == (3, 3)


def test_canonical_json_formatting():
    text = cli.canonical_json({"b": 1.5, "a": [True, None, "x\"y"]})
    assert text == '{"a": [true, null, "x\\"y"], "b": 1.5}'
    assert cli.canonical_json(0.1) == "0.10000000000000001"


def test_zero_trial_check_is_a_violation_in_valid_json():
    text = cli.canonical_json(suites._Tally("x", 1e-9).result().to_json())
    check = json.loads(text)
    assert check["violations"] >= 1 and check["trials"] == 0
    assert check["min_slack"] is None
    assert cli.canonical_json([float("nan"), -float("inf")]) == "[null, null]"


def test_dims_reach_max_dim(capsys):
    # the large-d workload's dimensions are reachable from the command line
    code, out = run_cli(
        ["--suite", "metrics", "--dims", "192-256", "--trials", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    direct = suites.run_suite("metrics", suites.SuiteConfig(seed=1, dims=(192, 256), trials=2))
    assert json.loads(out)["checks"] == json.loads(
        cli.canonical_json([c.to_json() for c in direct])
    )
    assert shell_status(["--dims", "8-257"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_tol_override(capsys):
    code, out = run_cli(
        [
            "--suite",
            "metrics",
            "--trials",
            "10",
            "--tol",
            "1e-3",
            "--format",
            "json",
        ],
        capsys,
    )
    report = json.loads(out)
    assert all(c["details"]["tolerance"] == 1e-3 for c in report["checks"])
    assert code == 0


def test_tol_override_reaches_every_transition_check(capsys):
    # the sweep used to judge at its own 1e-8 and 1e-9 and echo no tolerance
    code, out = run_cli(
        ["--suite", "transition", "--trials", "10", "--tol", "1e-3", "--format", "json"], capsys
    )
    checks = json.loads(out)["checks"]
    assert len(checks) == 5 and code == 0
    assert all(c["details"]["tolerance"] == 1e-3 for c in checks)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_slack_is_a_violation(bad):
    # a NaN slack compares False with everything: it must not read as a pass
    # or vanish from min_slack, wherever it falls among finite slacks
    for slacks in ([bad], [0.5, bad, 0.25], [bad, -1.0]):
        tally = suites._Tally("x", 1e-9)
        for slack in slacks:
            tally.add(slack)
        check = json.loads(cli.canonical_json(tally.result().to_json()))
        assert check["trials"] == len(slacks)
        assert check["violations"] == sum(s < 0 or s != s or s == float("inf") for s in slacks)
        assert check["min_slack"] is None


def test_unwritable_out_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = cli.main(["--suite", "info", "--trials", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and not target.exists()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("qilab: error:")


@pytest.mark.parametrize(
    "suite, flag",
    [
        ("rac", ["--trials", "7"]),
        ("reduction", ["--trials", "7"]),
        ("info", ["--dims", "3-3"]),
        ("transition", ["--dims", "2-8"]),
    ],
)
def test_a_flag_the_suite_does_not_read_is_rejected(suite, flag, capsys, monkeypatch):
    # `info --dims 2-2` and `--dims 3-3` used to write the same checks and
    # echo different configs; `all` reads both flags and keeps taking them
    called = []
    monkeypatch.setattr(
        suites,
        "SUITES",
        {name: (lambda cfg, name=name: called.append((name, cfg)) or []) for name in suites.SUITES},
    )
    code = cli.main(["--suite", suite, *flag])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and called == []
    assert captured.err == f"qilab: error: the {suite} suite does not read {flag[0]}\n"

    code, out = run_cli(["--suite", "all", *flag, "--format", "json"], capsys)
    assert code == 0 and [name for name, _ in called] == list(suites.SUITES)
    echoed, cfg = json.loads(out)["config"], called[0][1]
    assert (echoed["trials"], echoed["dims"]) == (cfg.trials, list(cfg.dims))
    assert (cfg.trials, cfg.dims) in ((7, (2, 8)), (None, cli._parse_dims(flag[1])))


@pytest.mark.parametrize(
    "suite, unread, read",
    [
        ("metrics", ("--m", "--n"), ()),
        ("info", ("--m", "--n"), ()),
        ("encoding", ("--n",), ("--m",)),
        ("transition", ("--m", "--n"), ()),
        ("rac", ("--m",), ("--n",)),
        ("reduction", ("--m",), ("--n",)),
    ],
)
def test_m_and_n_are_rejected_where_unread(suite, unread, read, capsys, monkeypatch):
    # `metrics --m 3` and `--m 4` used to write the same checks and echo
    # different configs; a flag is rejected even at its default value
    called = []
    monkeypatch.setattr(
        suites,
        "SUITES",
        {name: (lambda cfg, name=name: called.append(cfg) or []) for name in suites.SUITES},
    )
    values = {"--m": "5", "--n": "2"}
    for flag in unread:
        code = cli.main(["--suite", suite, flag, values[flag]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and called == []
        assert captured.err == f"qilab: error: the {suite} suite does not read {flag}\n"
    # a default run keeps its config bytes; a flag the suite reads is taken
    code, out = run_cli(["--suite", suite, "--format", "json"], capsys)
    assert code == 0
    assert '"config": {"dims": [2, 8], "m": 5, "n": 2, "seed": 1, "tol": null, "trials": null}' in out
    for flag in read:
        code, out = run_cli(["--suite", suite, flag, values[flag], "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["config"][flag[2:]] == int(values[flag])
    assert len(called) == 1 + len(read)
