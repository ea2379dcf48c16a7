"""Front-end behaviour: pinned outputs, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import grothpoly
from grothpoly import cli
from grothpoly.grothendieck import grothendieck_double
from grothpoly.permutations import all_permutations
from grothpoly.polynomials import (
    _MAX_DEGREE,
    Polynomial,
    delta,
    to_json,
    total_degree,
    x_var,
)
from grothpoly.stable import TruncationSpec, qschur_expansion


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_double_pin(capsys):
    code, out, _ = run(capsys, "compute", "double", "--perm", "2,1", "--n", "1")
    assert code == 0
    assert out == "x1 + y1 + x1*y1\n"


def test_compute_single_identity_pin(capsys):
    code, out, _ = run(capsys, "compute", "single", "--perm", "1,2", "--n", "1")
    assert code == 0
    assert out == "1\n"


def test_compute_qschur_json_pin(capsys):
    code, out, _ = run(
        capsys, "compute", "qschur", "--perm", "3,1,2,5,4", "--degree", "4", "--json"
    )
    assert code == 0
    assert out == '{"[4]":6,"[3,1]":4}\n'


def test_compute_qschur_text(capsys):
    code, out, _ = run(
        capsys, "compute", "qschur", "--perm", "3,1,2,5,4", "--degree", "3"
    )
    assert code == 0
    assert out == "2*Q[3] + Q[2,1]\n"
    code, out, _ = run(capsys, "compute", "qschur", "--perm", "1,2", "--degree", "2")
    assert code == 0
    assert out == "0\n"


def test_stratum_is_the_top_degree_of_the_expansion():
    # one degree evaluated alone, against the whole expansion to it
    for w in all_permutations(4) + all_permutations(5):
        for d in range(1, 7):
            full = qschur_expansion(w, TruncationSpec(1, d))
            top = [(lam, c) for lam, c in full.items() if sum(lam) == d]
            assert list(cli._stratum(w, d).items()) == sorted(top, reverse=True)


def test_compute_stable_models(capsys):
    code, out, _ = run(
        capsys, "compute", "stable-single", "--perm", "2,1", "--m", "2", "--degree", "2"
    )
    assert code == 0
    assert out == "x1 + x2 + x1*x2\n"
    code, out, _ = run(
        capsys, "compute", "halfweak", "--perm", "2,1", "--m", "1", "--degree", "2"
    )
    assert code == 0
    assert out == "x1 + y1 + x1^2 + x1*y1\n"


def test_compute_json_round_trips(capsys):
    code, out, _ = run(capsys, "compute", "double", "--perm", "3,1,2", "--json")
    assert code == 0
    assert json.loads(out) == to_json(grothendieck_double((3, 1, 2)))


def w0(size: int) -> str:
    return ",".join(map(str, range(size, 0, -1)))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("single", "--perm", w0(24)), "total degree 276 is past the cap 254"),
        (("double", "--perm", w0(17)), "total degree 272 is past the cap 254"),
        *(
            ((target, "--perm", "2,1", "--degree", "255"), "--degree must be at most 254")
            for target in ("stable-single", "stable-double", "halfweak", "qschur")
        ),
    ],
)
def test_compute_past_the_degree_cap_exits_two(capsys, argv, message):
    code, out, err = run(capsys, "compute", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_window_flag_widens_and_restricts(capsys):
    _, narrow, _ = run(capsys, "compute", "single", "--perm", "2,1,3", "--n", "1")
    assert narrow == "x1\n"
    code, wide, _ = run(
        capsys, "compute", "single", "--perm", "2,1", "--n", "3", "--json"
    )
    assert code == 0
    assert json.loads(wide)["m"] == 3


def test_malformed_permutation_exits_two(capsys):
    for perm in ("2,0", "1,1", "", "a,b"):
        code, out, err = run(capsys, "compute", "single", "--perm", perm)
        assert code == 2
        assert out == ""
        assert "not a permutation" in err


def test_compute_qschur_degree_seven_pin(capsys):
    code, out, _ = run(
        capsys, "compute", "qschur", "--perm", "3,1,2,5,4", "--degree", "7", "--json"
    )
    assert code == 0
    assert out == '{"[7]":30,"[6,1]":25,"[5,2]":15,"[4,3]":5}\n'


@pytest.mark.parametrize(
    "what, flag",
    [
        ("qschur", "--m"),
        ("qschur", "--n"),
        ("single", "--m"),
        ("single", "--degree"),
        ("double", "--m"),
        ("double", "--degree"),
    ],
)
def test_compute_flag_the_target_ignores_exits_two(capsys, what, flag):
    code, out, err = run(capsys, "compute", what, "--perm", "2,1", flag, "3")
    assert code == 2
    assert out == ""
    assert err == f"error: compute {what} does not read {flag}\n"


def fresh_process(argv):
    src = os.path.dirname(os.path.dirname(grothpoly.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src if not path else src + os.pathsep + path,
        COLUMNS="80",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "grothpoly", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # main keeps its parser between calls; each call prints what a fresh
    # process prints, usage errors included
    monkeypatch.setenv("COLUMNS", "80")
    qschur = ["compute", "qschur", "--perm", "3,1,2,5,4", "--degree", "5"]
    calls = [
        ["compute", "qschur", "--perm", "3,1,2,5,4", "--degree", "x"],
        [*qschur, "--m", "3"],
        [*qschur, "--json"],
        qschur,
        ["verify", "qp"],
    ]
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh_process(argv), argv
    assert cli.build_parser() is not cli.build_parser()


def test_unknown_target_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["compute", "cube", "--perm", "1"])
    assert info.value.code == 2


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "stability")
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "ok stability.models_are_stable_in_wide_windows",
        "ok stability.weak_model_detects_a_narrow_window",
    ]


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "tabtopi", "--json", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report == [
        {
            "suite": "tabtopi",
            "check": "two_letter_columns_match_the_operator_image",
            "ok": True,
            "detail": "",
        }
    ]


def test_verify_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.SUITES, "tabtopi", lambda b: [("rigged", False, "w=(2, 1)")]
    )
    code, out, _ = run(capsys, "verify", "tabtopi")
    assert code == 3
    assert out == "FAIL tabtopi.rigged: w=(2, 1)\n"


def test_relations_suite_catches_the_zero_delta(capsys, monkeypatch):
    monkeypatch.setattr(cli, "delta", lambda i, f: Polynomial(f.m, {}))
    code, out, _ = run(capsys, "verify", "relations")
    assert code == 3
    assert "FAIL relations.delta_divides_the_swap_difference" in out


def test_relations_suite_catches_a_pi_without_its_delta_term(capsys, monkeypatch):
    # delta_i(x_{i+1} f) alone still squares to minus itself, commutes far
    # apart and satisfies the braid relation; only the definition catches it
    monkeypatch.setattr(cli, "pi", lambda i, f: delta(i, x_var(i + 1, f.m) * f))
    code, out, _ = run(capsys, "verify", "relations")
    assert code == 3
    failed = [line.split(":")[0] for line in out.splitlines() if line[:4] == "FAIL"]
    assert failed == ["FAIL relations.pi_is_delta_of_the_raised_polynomial"]


def test_verify_order_is_fixed(capsys, monkeypatch):
    quick = {
        name: (lambda nm: (lambda b: [(f"{nm}_probe", True, "")]))(name)
        for name in cli.SUITES
    }
    for name, fn in quick.items():
        monkeypatch.setitem(cli.SUITES, name, fn)
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == [
        f"{name}.{name}_probe" for name in cli.SUITES
    ]


def test_internal_errors_exit_one(capsys, monkeypatch):
    def boom(b):
        raise RuntimeError("rigged")

    monkeypatch.setitem(cli.SUITES, "tabtopi", boom)
    code, _, err = run(capsys, "verify", "tabtopi")
    assert code == 1
    assert "internal error" in err


VERIFY_ALL_CHECKS = """
    relations.delta_squared_is_zero
    relations.pi_squared_is_minus_pi
    relations.operators_commute_far_apart
    relations.operators_satisfy_the_braid_relation
    relations.delta_divides_the_swap_difference
    relations.pi_is_delta_of_the_raised_polynomial
    cauchy.single_equals_bounded_plain_series
    cauchy.double_equals_circled_series
    cauchy.double_equals_split_series
    cauchy.double_equals_pairing_sum
    cauchy.longest_element_series_is_the_staircase_product
    cauchy.double_equals_circled_path_sum
    cauchy.double_equals_split_path_sum
    insertion.insertion_lands_on_the_word_of_the_input
    insertion.word_descents_appear_in_the_record
    insertion.insertion_is_injective_on_each_word_class
    insertion.phi_is_an_injection_into_hecke_pairs
    bijections.ladder_descent_matches_the_worked_pair
    bijections.factor_move_matches_the_worked_example
    bijections.rewrite_chain_reaches_the_worked_output
    bijections.ladder_moves_invert_each_other
    bijections.rewrite_is_a_weight_preserving_bijection
    tabt.skew_tableau_series_match_the_split_model
    tabt.conjugated_series_match_the_weak_model
    tabt.single_series_expands_over_hecke_tableaux
    tabt.hecke_tableaux_of_the_running_example
    qp.running_example_stratum
    qp.merged_degree_four_coefficient
    qp.one_factor_hook_census
    qp.q_expansion_matches_the_merged_hook_model
    qp.primed_series_expand_into_q_polynomials
    qp.finger_scan_verdicts
    tabtopi.two_letter_columns_match_the_operator_image
    stability.models_are_stable_in_wide_windows
    stability.weak_model_detects_a_narrow_window
""".split()


def test_every_suite_passes_at_default_bounds(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out == "".join(f"ok {check}\n" for check in VERIFY_ALL_CHECKS)


@pytest.mark.parametrize(
    "argv",
    [
        ("relations", "--n", "1"),
        ("insertion", "--degree", "-5"),
        ("cauchy", "--trials", "-3"),
        ("tabt", "--m", "0"),
        ("stability", "--degree", "-1"),
    ],
)
def test_verify_bounds_below_their_minimum_exit_two(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[1]} must be at least" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("relations", "--n", "9"),
        ("insertion", "--n", "5"),
        ("insertion", "--degree", "8"),
        ("bijections", "--n", "6"),
        ("tabtopi", "--n", "7"),
        ("cauchy", "--n", "5"),
        ("relations", "--degree", "246"),
        ("relations", "--degree", "255"),
        ("tabt", "--degree", "255"),
        ("qp", "--degree", "255"),
        ("stability", "--degree", "255"),
    ],
)
def test_verify_bounds_above_their_cap_exit_two(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[1]} must be at most" in err


def test_the_relations_degree_cap_leaves_room_for_the_largest_random_term():
    class Highest:
        """Draws every bound and choice at its largest."""

        def randint(self, a, b):
            return b

        def choice(self, seq):
            return max(seq)

    flags = cli.SUITE_FLAGS["relations"]
    m, degree = flags["n"][2], flags["degree"][2]
    # each term is 3*x1^degree*y1*...*ym, and the raised-delta check
    # multiplies by one more x: exactly the cap, and one degree more raises
    raised = x_var(m, m) * cli._random_poly(Highest(), m, degree)
    assert max(map(total_degree, raised.terms)) == _MAX_DEGREE
    with pytest.raises(ValueError, match="past the cap"):
        x_var(m, m) * cli._random_poly(Highest(), m, degree + 1)


def test_verify_all_checks_every_suites_flags_before_any_suite_runs(
    capsys, monkeypatch
):
    # relations and cauchy take --degree 0; insertion's floor is 1
    ran = []
    for name, suite in list(cli.SUITES.items()):

        def probe(b, name=name, suite=suite):
            ran.append(name)
            return suite(b)

        monkeypatch.setitem(cli.SUITES, name, probe)
    code, out, err = run(capsys, "verify", "all", "--degree", "0")
    assert (code, out, ran) == (2, "", [])
    assert "--degree must be at least 1" in err


def test_verify_names_a_suite_by_position_only(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "qp"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("qp", "--n", "3"),
        ("qp", "--m", "9"),
        ("qp", "--trials", "4"),
        ("tabt", "--seed", "1"),
        ("tabtopi", "--degree", "3"),
        ("bijections", "--m", "2"),
        ("insertion", "--trials", "2"),
        ("cauchy", "--degree", "2"),
        ("stability", "--n", "2"),
    ],
)
def test_verify_rejects_a_flag_the_suite_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"does not read {argv[1]}" in err


class ReadFlags(argparse.Namespace):
    """A suite's resolved flags, noting which of them the suite reads; a
    flag outside its table is missing, so reading it raises."""

    def __getattribute__(self, name):
        if name in ("n", "m", "degree", "trials", "seed"):
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


def test_each_suite_reads_exactly_the_flags_of_its_table():
    for name in cli.SUITES:
        parsed = cli.build_parser().parse_args(["verify", name])
        args = ReadFlags(**vars(cli._resolve(parsed, cli.SUITE_FLAGS[name])))
        args.read = set()
        cli.SUITES[name](args)
        assert args.read == set(cli.SUITE_FLAGS[name]), name
