"""End-to-end tests for the ``qtree`` command-line interface.

Commands run in-process through ``cli.main`` so stdout/stderr can be
captured cheaply; one subprocess test checks the ``qtree`` entry point. It
runs the installed ``qtree`` if there is one on ``PATH``; otherwise it runs
the script an installer would write from the ``qtree`` entry in
``[project.scripts]`` of ``pyproject.toml``, so it also works from a plain
checkout with ``PYTHONPATH=src``.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_params
from qtreehahn import cli, multihahn
from qtreehahn.cli import main
from qtreehahn import (
    NotRightReachable,
    all_trees,
    connection_by_path,
    connection_oracle,
    eval_Q,
    find_rl_path,
    inner_product,
    parse_tree,
)


def run_json(capsys, argv):
    """Run the CLI expecting success and return the parsed stdout JSON."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def jsonable(obj):
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------- eval


def test_eval_single_point_matches_library(capsys):
    obj = run_json(
        capsys,
        ["eval", "--tree", "(1 (2 3))", "--labels", "1,0", "--N", "2",
         "--x", "0,1,1"],
    )
    tree = parse_tree("(1 (2 3))")
    expected = eval_Q(tree, (1, 0), make_params(3), (0, 1, 1))
    assert obj["tree"] == "(1 (2 3))"
    assert obj["labels"] == [1, 0]
    assert obj["sqrt_q"] == "1/2"
    assert obj["alphas"] == ["1/2", "1/3", "2/3"]
    assert obj["N"] == 2
    assert obj["values"] == [{"x": [0, 1, 1], "v": str(expected)}]


def test_eval_all_points_in_lex_order(capsys):
    obj = run_json(
        capsys,
        ["eval", "--tree", "(1 2)", "--labels", "1", "--N", "2", "--all"],
    )
    points = [tuple(row["x"]) for row in obj["values"]]
    assert points == [(0, 2), (1, 1), (2, 0)]
    tree = parse_tree("(1 2)")
    p = make_params(2)
    for row in obj["values"]:
        assert row["v"] == str(eval_Q(tree, (1,), p, tuple(row["x"])))


def test_eval_level_three_has_four_rows(capsys):
    obj = run_json(
        capsys,
        ["eval", "--tree", "(1 2)", "--labels", "1", "--sqrt-q", "1/2",
         "--alphas", "1/2,1/3", "--N", "3", "--all"],
    )
    assert len(obj["values"]) == 4


def test_eval_zero_labeling_is_constant_one(capsys):
    obj = run_json(
        capsys,
        ["eval", "--tree", "((1 2) (3 4))", "--labels", "0,0,0", "--N", "2",
         "--all"],
    )
    assert all(row["v"] == "1" for row in obj["values"])


def test_eval_with_explicit_parameters(capsys):
    """--sqrt-q/--alphas override the stock demonstration values."""
    from fractions import Fraction

    from qtreehahn import ParamSet, QContext

    obj = run_json(
        capsys,
        ["eval", "--tree", "(1 2)", "--labels", "1", "--N", "1",
         "--x", "0,1", "--sqrt-q", "1/3", "--alphas", "1/2,1/4"],
    )
    p = ParamSet(QContext(Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 4)))
    tree = parse_tree("(1 2)")
    assert obj["sqrt_q"] == "1/3"
    assert obj["values"][0]["v"] == str(eval_Q(tree, (1,), p, (0, 1)))


def test_eval_one_leaf_tree_takes_the_empty_labeling(capsys):
    """A one-leaf tree has no internal vertex: `--labels ""` is its only
    labeling, and the basis function is 1 at the level's one point."""
    assert main(["eval", "--tree", "1", "--labels", "", "--N", "2", "--all"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        '{\n  "tree": "1",\n  "labels": [],\n  "sqrt_q": "1/2",\n'
        '  "alphas": [\n    "1/2"\n  ],\n  "N": 2,\n  "values": [\n'
        '    {\n      "x": [\n        2\n      ],\n      "v": "1"\n    }\n'
        "  ]\n}\n"
    )
    assert re.fullmatch(r"eval: 1 point\(s\) in \d+\.\d\ds\n", captured.err), captured.err


@pytest.mark.parametrize("tree, labels", [("1", ""), ("(1 2)", "0")])
def test_eval_negative_level_is_named_as_gram_and_verify_name_it(capsys, tree, labels):
    assert main(["eval", "--tree", tree, "--labels", labels, "--N", "-1", "--all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --N must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        # missing --labels
        ["eval", "--tree", "(1 2)", "--N", "1", "--all"],
        # missing --N
        ["eval", "--tree", "(1 2)", "--labels", "0", "--all"],
        # neither --x nor --all
        ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1"],
        # wrong label count for one internal vertex
        ["eval", "--tree", "(1 2)", "--labels", "1,2", "--N", "3", "--all"],
        # negative label
        ["eval", "--tree", "(1 2)", "--labels", "-1", "--N", "1", "--all"],
        # degree above the level
        ["eval", "--tree", "(1 2)", "--labels", "3", "--N", "2", "--all"],
        # point with the wrong length
        ["eval", "--tree", "(1 2)", "--labels", "1", "--N", "2", "--x", "1,1,0"],
        # point off the level
        ["eval", "--tree", "(1 2)", "--labels", "1", "--N", "2", "--x", "2,1"],
        # malformed integers
        ["eval", "--tree", "(1 2)", "--labels", "a", "--N", "1", "--all"],
        # sqrt-q outside (0, 1)
        ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1", "--all",
         "--sqrt-q", "3/2"],
        ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1", "--all",
         "--sqrt-q", "0"],
        # not a rational at all
        ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1", "--all",
         "--sqrt-q", "abc"],
        # wrong number of --alphas
        ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1", "--all",
         "--alphas", "1/2"],
        # malformed tree text
        ["eval", "--tree", "(1 2", "--labels", "0", "--N", "1", "--all"],
        # six leaves exceed the stock parameter list
        ["eval", "--tree", "(1 (2 (3 (4 (5 6)))))", "--labels", "0,0,0,0,0",
         "--N", "1", "--all"],
    ],
)
def test_eval_config_errors_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_eval_band_check_and_override(capsys):
    argv = ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1", "--all",
            "--alphas", "1/2,5"]
    assert main(argv) == 2
    capsys.readouterr()
    assert main(argv + ["--allow-any-params"]) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1", "--all", "--alphas", "1/2,5"],
        ["connect", "--source", "(1 2)", "--target", "(1 2)", "--n", "1", "--alphas=1/2,5"],
    ],
    ids=["eval", "connect"],
)
def test_parameters_outside_the_band_name_the_cli_flag(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: parameters outside the positivity regime; "
        "pass --allow-any-params for generic identity testing\n"
    )


NEGATIVE_ALPHAS = ["verify", "--suite", "operator-algebra", "--h", "3", "--N", "3"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_negative_alphas_read_the_same_in_both_spellings(capsys):
    spaced = _run(capsys, NEGATIVE_ALPHAS + ["--alphas", "-5/3,7/9,11/27", "--allow-any-params"])
    joined = _run(capsys, NEGATIVE_ALPHAS + ["--alphas=-5/3,7/9,11/27", "--allow-any-params"])
    assert spaced[0] == joined[0] == 0, spaced[2]
    assert spaced[1] == joined[1]
    obj = json.loads(spaced[1])
    assert obj["alphas"] == ["-5/3", "7/9", "11/27"]
    assert obj["status"] == "pass"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--alphas", "-5/3,7/9,11/27",
         "error: parameters outside the positivity regime; "
         "pass --allow-any-params for generic identity testing\n"),
        ("--sqrt-q", "-1/2", "error: square root of q must satisfy 0 < s < 1, got -1/2\n"),
        ("--sqrt-q", "-.5", "error: square root of q must satisfy 0 < s < 1, got -1/2\n"),
    ],
)
def test_negative_values_reach_their_documented_errors(capsys, option, value, message):
    for argv in (NEGATIVE_ALPHAS + [option, value], NEGATIVE_ALPHAS + [f"{option}={value}"]):
        assert _run(capsys, argv) == (2, "", message), argv


def test_eval_pole_rejected_even_with_override(capsys):
    # alpha*q = 1 is a genuine pole, not a sign-regime choice
    argv = ["eval", "--tree", "(1 2)", "--labels", "0", "--N", "1", "--all",
            "--alphas", "4,1/3"]
    assert main(argv) == 2
    capsys.readouterr()
    assert main(argv + ["--allow-any-params"]) == 2


# ---------------------------------------------------------------- gram


def test_gram_level_zero(capsys):
    obj = run_json(capsys, ["gram", "--tree", "(1 2)", "--N", "0"])
    p = make_params(2)
    from fractions import Fraction

    from qtreehahn import GridFunction

    one = GridFunction.constant(2, 0, Fraction(1))
    total = inner_product(one, one, p)
    assert obj["dimension"] == 1
    assert obj["degrees"] == [{"n": 0, "count": 1}]
    assert obj["entries"] == [{"i": 0, "j": 0, "value": str(total)}]
    assert obj["diagonal"] is True
    assert obj["norms_match_closed_form"] is True


def test_gram_diagonal_and_norms(capsys):
    obj = run_json(capsys, ["gram", "--tree", "((1 2) 3)", "--N", "2"])
    assert obj["dimension"] == 6
    assert obj["degrees"] == [
        {"n": 0, "count": 1},
        {"n": 1, "count": 2},
        {"n": 2, "count": 3},
    ]
    assert obj["diagonal"] is True
    assert obj["norms_match_closed_form"] is True
    assert len(obj["entries"]) == 6
    assert all(e["i"] == e["j"] for e in obj["entries"])


def test_gram_comb_trees_share_degree_counts(capsys):
    """Both three-leaf trees span eigenspaces of equal dimension per degree."""
    left = run_json(capsys, ["gram", "--tree", "((1 2) 3)", "--N", "3"])
    right = run_json(capsys, ["gram", "--tree", "(1 (2 3))", "--N", "3"])
    assert left["degrees"] == right["degrees"]
    assert left["dimension"] == right["dimension"] == 10
    assert left["diagonal"] and right["diagonal"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--tree", "(1 2)"],
        ["gram", "--tree", "(1 2)", "--N", "-1"],
        ["gram", "--tree", "(2 1)", "--N", "1"],
    ],
)
def test_gram_config_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "tree, message",
    [
        ("(1 3)", "leaves read [1, 3], expected 1..2"),
        ("((1 3) 2)", "leaves read [1, 3, 2], expected 1..3"),
        ("(1 2", "expected ')'"),
    ],
)
def test_tree_errors_exit_2_with_their_text(capsys, tree, message):
    assert main(["gram", "--tree", tree, "--N", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_out_to_a_missing_directory_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    assert main(["gram", "--tree", "(1 2)", "--N", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert not out.parent.exists()


def test_gram_row_pole_in_basis_exits_3(capsys):
    # at the root the left child carries p = 8 * 8 * q^2 = 4, so the factor
    # of left sum 0 has alpha = 4 q^-1 = 16 = q^-2: (alpha q; q)_2 vanishes
    # in the basis build, though the pole scan of the parameters passes
    argv = ["gram", "--tree", "((1 2) 3)", "--N", "3", "--alphas=8,8,1", "--allow-any-params"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vanished" in captured.err


def test_basis_pole_message_prints_an_integer_alpha_as_an_integer(capsys):
    # alpha_1 = 4^13 = q^-13 passes the scan of 12 poles, and the degree-13
    # factor at the root meets (alpha q; q)_13 = 0 with alpha = alpha_1
    argv = ["gram", "--tree", "(1 2)", "--N", "13", "--alphas", "67108864,1/3", "--allow-any-params"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: (alpha q; q)_k vanished for alpha=67108864, degree 13, at x=13\n"
    )


def test_deeply_nested_tree_is_config_error(capsys):
    """Nesting past the recursion limit is bad input, not a failing identity."""
    for text in ("(" * 3000, "(1 " * 3000 + "3001" + ")" * 3000):
        assert main(["gram", "--tree", text, "--N", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1


# ------------------------------------------------------------- connect


def test_connect_identity_pair(capsys):
    obj = run_json(
        capsys,
        ["connect", "--source", "(1 2)", "--target", "(1 2)", "--n", "1"],
    )
    assert obj["path"] == []
    assert obj["matrix"] == [{"c": [1], "d": [1], "value": "1"}]
    assert obj["oracle_checked"] is True


def test_connect_reports_path_matrix(capsys):
    obj = run_json(
        capsys,
        ["connect", "--source", "(1 (2 3))", "--target", "((1 2) 3)",
         "--n", "2"],
    )
    expected = connection_by_path(
        parse_tree("(1 (2 3))"), parse_tree("((1 2) 3)"), 2, make_params(3)
    ).to_json_obj()
    expected["oracle_checked"] = True
    assert obj == jsonable(expected)


def _reaches(source, target):
    try:
        find_rl_path(source, target)
    except NotRightReachable:
        return False
    return True


@st.composite
def _connect_argv(draw):
    """A `connect` request on 3 to 5 leaves at n <= 3: a right-to-left
    reachable pair by path, or any pair with --oracle-only."""
    trees = all_trees(draw(st.integers(3, 5)))
    source = draw(st.sampled_from(trees))
    oracle_only = draw(st.booleans())
    if not oracle_only:
        trees = [t for t in trees if _reaches(source, t)]
    target = draw(st.sampled_from(trees))
    n = draw(st.integers(0, 3))
    return source, target, n, oracle_only


@settings(max_examples=40, deadline=None)
@given(_connect_argv())
def test_connect_matrix_template_writes_what_json_dumps_writes(case):
    source, target, n, oracle_only = case
    argv = ["connect", "--source", source.serialize(), "--target", target.serialize(),
            "--n", str(n)] + ["--oracle-only"] * oracle_only
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    route = connection_oracle if oracle_only else connection_by_path
    matrix = route(source, target, n, make_params(source.h))
    want = json.dumps({**matrix.to_json_obj(), "oracle_checked": True}, indent=2)
    assert out.getvalue() == want + "\n"


def test_connect_unreachable_pair_exit_4(capsys):
    code = main(
        ["connect", "--source", "((1 2) 3)", "--target", "(1 (2 3))",
         "--n", "1"]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "source, target, n, alphas, message",
    [
        ("(1 (2 3))", "((1 2) 3)", 1, "2,8,2",
         "(alpha beta q^(n+1); q)_n vanished for alpha=8, beta=2, n=1"),
        ("(1 (2 3))", "((1 2) 3)", 2, "8,8,2",
         "(alpha beta q^(n+1); q)_n vanished for alpha=8, beta=8, n=2"),
        ("(1 (2 (3 4)))", "((1 2) (3 4))", 1, "2,2,2,32",
         "4phi3 denominator vanished at k=1 for alpha=2, beta=2, delta=2"),
    ],
    ids=["prefactor-n1", "prefactor-n2", "series"],
)
def test_connect_at_a_move_coefficient_pole_exits_3_naming_it(capsys, source, target, n, alphas, message):
    # at q = 1/4: alpha beta = 16 = q^-2 zeroes the degree-1 prefactor of
    # the first move's q-Racah family, alpha beta = 64 = q^-3 the degree-2
    # one, and beta delta = 4 = q^-1 zeroes (beta delta q; q)_1 in a series
    code = main(["connect", "--source", source, "--target", target, "--n", str(n),
                 "--alphas", alphas, "--allow-any-params"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_connect_oracle_only_serves_unreachable_pair(capsys):
    obj = run_json(
        capsys,
        ["connect", "--source", "((1 2) 3)", "--target", "(1 (2 3))",
         "--n", "1", "--oracle-only"],
    )
    expected = connection_oracle(
        parse_tree("((1 2) 3)"), parse_tree("(1 (2 3))"), 1, make_params(3)
    ).to_json_obj()
    expected["oracle_checked"] = True
    assert obj["path"] is None
    assert obj == jsonable(expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["connect", "--source", "(1 2)", "--target", "(1 (2 3))", "--n", "1"],
        ["connect", "--source", "(1 2)", "--target", "(1 2)"],
        ["connect", "--source", "(1 2)", "--target", "(1 2)", "--n", "-1"],
    ],
)
def test_connect_config_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


# -------------------------------------------------------------- verify


def test_verify_all_suites_three_leaves(capsys):
    code = main(["verify", "--h", "3", "--N", "2"])
    captured = capsys.readouterr()
    assert code == 0
    obj = json.loads(captured.out)
    assert obj["h"] == 3
    assert obj["N"] == 2
    assert obj["status"] == "pass"
    names = [s["suite"] for s in obj["suites"]]
    # worked-example is pinned to five leaves and is skipped here
    assert names == [
        "operator-algebra",
        "spectral",
        "hahn-recurrences",
        "vandermonde",
        "eigen",
        "connections",
        "classical-bridge",
    ]
    for suite in obj["suites"]:
        assert suite["status"] == "pass"
        assert suite["reports"]
        for report in suite["reports"]:
            assert set(report) == {"identity", "cases", "status", "counterexample"}
            assert report["status"] == "pass" and report["counterexample"] is None
    assert "suite(s)" in captured.err


def test_verify_single_suite(capsys):
    obj = run_json(capsys, ["verify", "--suite", "vandermonde", "--N", "4"])
    assert [s["suite"] for s in obj["suites"]] == ["vandermonde"]
    report = obj["suites"][0]["reports"][0]
    assert report["status"] == "pass"
    assert report["cases"] == 15  # pairs (n, j) with 0 <= j <= n <= 4


def test_verify_operator_algebra_level_four(capsys):
    obj = run_json(
        capsys, ["verify", "--suite", "operator-algebra", "--h", "3", "--N", "4"]
    )
    assert obj["status"] == "pass"


def test_verify_all_suites_four_leaves_level_four(capsys):
    obj = run_json(capsys, ["verify", "--h", "4", "--N", "4"])
    assert obj["status"] == "pass"
    assert all(s["status"] == "pass" for s in obj["suites"])


def test_verify_worked_example_five_leaves(capsys):
    obj = run_json(
        capsys, ["verify", "--suite", "worked-example", "--h", "5", "--N", "1"]
    )
    assert obj["status"] == "pass"
    reports = obj["suites"][0]["reports"]
    # one report per identity, its cases covering degrees 0 and 1
    assert [r["identity"] for r in reports] == [
        "worked-example-path",
        "worked-example-triple-product",
        "worked-example-oracle-agreement",
        "worked-example-norm-display",
        "worked-example-orthogonality",
    ]
    assert all(r["status"] == "pass" for r in reports)
    assert reports[0]["cases"] == reports[4]["cases"] == 2


def test_verify_classical_bridge_reports_each_identity_once(capsys):
    obj = run_json(
        capsys, ["verify", "--suite", "classical-bridge", "--h", "2", "--N", "2"]
    )
    reports = obj["suites"][0]["reports"]
    assert [r["identity"] for r in reports] == [
        "classical-product-identity",
        "classical-signed-product-identity",
        "classical-weight-orthogonality",
    ]
    # at h = 2 each degree n in 0..2 has one labeling: one case per degree
    assert [r["cases"] for r in reports] == [3, 3, 3]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_classical_bridge_failure_names_its_degree(capsys, monkeypatch):
    real = cli.gr_correspondence_cases

    def broken(params, n):
        cases = real(params, n)
        if n == 1:
            cases["classical-weight-orthogonality"] = [({"n": n}, False)]
        return cases

    monkeypatch.setattr(cli, "gr_correspondence_cases", broken)
    assert main(["verify", "--suite", "classical-bridge", "--h", "2", "--N", "2"]) == 1
    reports = json.loads(capsys.readouterr().out)["suites"][0]["reports"]
    failing = [r for r in reports if r["status"] == "fail"]
    assert [r["identity"] for r in failing] == ["classical-weight-orthogonality"]
    assert failing[0]["counterexample"] == {"n": 1}
    assert failing[0]["cases"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "nonesuch"],
        ["verify", "--suite", "worked-example", "--h", "4"],
        ["verify", "--h", "1"],
        ["verify", "--N", "-1"],
    ],
)
def test_verify_config_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    """A failing report must flip the suite, the run, and the exit code."""

    def failing_suite(params, h, N, seed):
        return [{"identity": "always-fails", "status": "fail"}]

    monkeypatch.setitem(cli.SUITES, "spectral", (failing_suite, None))
    code = main(["verify", "--suite", "spectral", "--h", "2", "--N", "1"])
    captured = capsys.readouterr()
    assert code == 1
    obj = json.loads(captured.out)
    assert obj["status"] == "fail"
    assert obj["suites"][0]["status"] == "fail"


def failing_report(capsys, argv):
    """Run a verify suite expected to fail; return its one failing report."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1, captured.err
    obj = json.loads(captured.out)
    assert obj["status"] == "fail"
    [suite] = obj["suites"]
    assert suite["status"] == "fail"
    [report] = [r for r in suite["reports"] if r["status"] == "fail"]
    assert set(report) == {"identity", "cases", "status", "counterexample"}
    return report


def test_verify_eigen_failure_names_tree_labeling_and_vertex(capsys, monkeypatch):
    """Break the vertex stencil on span (0, 2], which only ((1 2) 3) has, by
    doubling every coefficient."""
    original = multihahn._vertex_stencil

    def broken(p, N, lo, hi):
        rows, den = original(p, N, lo, hi)
        if (lo, hi) == (0, 2):
            rows = tuple((cols, tuple(2 * c for c in coeffs)) for cols, coeffs in rows)
        return rows, den

    monkeypatch.setattr(multihahn, "_vertex_stencil", broken)
    report = failing_report(
        capsys, ["verify", "--suite", "eigen", "--h", "3", "--N", "2"]
    )
    assert report["identity"] == "vertex-eigenvalues"
    assert report["counterexample"] == {
        "tree": "((1 2) 3)",
        "labeling": [0, 1],
        "vertex": 1,
    }


def test_verify_connections_failure_names_pair_and_degree(capsys, monkeypatch):
    """Drop one row of the oracle matrix for every distinct pair at n = 1."""
    original = cli.connection_oracle

    def broken(src, tgt, n, params):
        matrix = original(src, tgt, n, params)
        if n != 1 or src == tgt:
            return matrix
        rows = dict(matrix.integer_rows)
        rows.pop(next(iter(rows)))
        return dataclasses.replace(matrix, integer_rows=rows)

    monkeypatch.setattr(cli, "connection_oracle", broken)
    report = failing_report(
        capsys, ["verify", "--suite", "connections", "--h", "3", "--N", "2"]
    )
    assert report["identity"] == "connection-path-vs-oracle"
    assert report["counterexample"] == {
        "source": "(1 (2 3))",
        "target": "((1 2) 3)",
        "n": 1,
    }


# ------------------------------------------------- exit codes and output


def test_pole_hit_during_evaluation_exit_3(capsys):
    """Parameters can pass the bounded pole scan yet still hit a pole.

    alpha = q^{-13} with q = 81/100 keeps alpha*q^m != 1 for every m
    covered by the scan, but evaluating a degree-13 function reaches the
    m = 13 series term whose denominator vanishes.
    """
    alpha = f"{100 ** 13}/{81 ** 13}"
    code = main(
        ["eval", "--tree", "(1 2)", "--labels", "13", "--N", "13",
         "--x", "13,0", "--sqrt-q", "9/10", "--alphas", f"{alpha},{alpha}"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "vanished" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        # alpha_2 = 1 passes the band check, but (alpha_2; q)_1 = 0 is the
        # denominator of the classical weight factor at degree 1
        (
            ["verify", "--suite", "classical-bridge", "--h", "3", "--N", "2",
             "--alphas", "1,1,1", "--allow-any-params"],
            "(alpha_2; q)_n vanished for alpha_2=1, n=1",
        ),
        # with every alpha zero the weight lives on the one point (2, 0, 0),
        # where the first target element vanishes
        (
            ["connect", "--oracle-only", "--alphas", "0,0,0", "--allow-any-params",
             "--source", "((1 2) 3)", "--target", "(1 (2 3))", "--n", "2"],
            "basis element (0, 2) of (1 (2 3)) has zero norm",
        ),
        # a_1 of the classical substitution divides by alpha_2 ... alpha_h
        (
            ["verify", "--suite", "classical-bridge", "--h", "3", "--N", "2",
             "--alphas", "1/2,0,1/3", "--allow-any-params"],
            "alpha_2 ... alpha_3 vanished for alpha_2=0",
        ),
        (
            ["verify", "--suite", "classical-bridge", "--h", "3", "--N", "2",
             "--alphas", "1/2,1/3,0", "--allow-any-params"],
            "alpha_2 ... alpha_3 vanished for alpha_3=0",
        ),
        # the comb-to-comb product divides A_h by A_{k-1}
        (
            ["verify", "--suite", "classical-bridge", "--h", "3", "--N", "2",
             "--alphas", "0,1/2,1/3", "--allow-any-params"],
            "A_1 vanished for alpha_1=0",
        ),
        # the right-comb norm divides A_h by A_k; at h = 2 it is read first
        (
            ["verify", "--suite", "classical-bridge", "--h", "2", "--N", "2",
             "--alphas", "0,1/2", "--allow-any-params"],
            "A_1 vanished for alpha_1=0",
        ),
    ],
    ids=["classical-weight-pole", "oracle-zero-norm", "substitution-zero-alpha-2",
         "substitution-zero-alpha-3", "comb-product-zero-alpha-1", "xi-norm-zero-alpha-1"],
)
def test_arithmetic_errors_name_their_case(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_vandermonde_passes_at_zero_beta(capsys):
    """The seed reads no beta^-1: at beta = alpha_2 = 0 its singularity is
    removable, and the alternating seed sum holds there too."""
    obj = run_json(capsys, ["verify", "--suite", "vandermonde", "--h", "2", "--N", "2",
                            "--alphas", "1/2,0", "--allow-any-params"])
    assert obj["status"] == "pass"
    assert obj["suites"][0]["reports"][0]["cases"] == 6  # pairs (n, j), 0 <= j <= n <= 2


def test_connect_names_the_first_entry_where_path_and_oracle_disagree(capsys, monkeypatch):
    real = cli.connection_by_path

    def two_entries_off(source, target, n, params):
        matrix = real(source, target, n, params)
        rows = {c: (dict(nums), den) for c, (nums, den) in matrix.integer_rows.items()}
        for c, d in (
            ((1, 0), (0, 1)),  # 115/114 in the README example
            ((0, 1), (1, 0)),  # 1, first in labeling order
        ):
            nums, den = rows[c]
            nums[d] += den  # the entry plus one, and the row still canonical
        return dataclasses.replace(matrix, integer_rows=rows)

    monkeypatch.setattr(cli, "connection_by_path", two_entries_off)
    argv = ["connect", "--source", "(1 (2 3))", "--target", "((1 2) 3)", "--n", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: path product disagrees with the inner-product oracle"
        " at c=(0, 1), d=(1, 0): path 2, oracle 1\n"
    )


def test_out_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    argv = ["gram", "--tree", "(1 2)", "--N", "1"]
    direct = run_json(capsys, argv)
    out_file = tmp_path / "gram.json"
    code = main(argv + ["--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert json.loads(out_file.read_text(encoding="utf-8")) == direct


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["eval", "--tree", "((1 2) 3)", "--labels", "1,0", "--N", "2", "--all"], "6 point(s)"),
        (["gram", "--tree", "((1 2) 3)", "--N", "2"], "dimension 6"),
        (["connect", "--source", "(1 (2 3))", "--target", "((1 2) 3)", "--n", "2"], "3 row(s)"),
        (["verify", "--suite", "vandermonde", "--N", "2"], "1 suite(s)"),
    ],
)
def test_timing_line_on_stderr_leaves_stdout_alone(capsys, tmp_path, argv, summary):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(
        rf"{argv[0]}: {re.escape(summary)} in \d+\.\d\ds\n", captured.err
    ), captured.err
    out_file = tmp_path / "out.json"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert captured.out == out_file.read_text(encoding="utf-8")
    json.loads(captured.out)


def test_stdout_bytes_are_deterministic(capsys):
    argv = ["verify", "--h", "3", "--N", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


# sha256 of the stdout of `qtree verify --suite <suite> <size>`, keyed by
# the suite, where the size is `--h 3 --N 3 --seed 5` except for the worked
# example, which is a five-leaf result, and "connections at h 5", whose 68
# reachable pairs were pinned while the suite still held every pair's
# matrices until both identities had run.  Operator-algebra, spectral and
# eigen were pinned before grid functions were stored as integers over one
# denominator, the others before orthogonality went through `invert` and the
# bridges through one signed half-power: a change of representation must
# leave these bytes alone.
SMALL = ("--h", "3", "--N", "3", "--seed", "5")
GOLDEN_VERIFY_SHA256 = {
    "operator-algebra": (SMALL, "de9f8bf676aea96da4411dd7e9dd38b0e460c089b2df4bbe68b5fb5905c0a648"),
    "spectral": (SMALL, "470672eff7fb4f331689636438c22b384e1c7b287533e20f5c4ec915caa65b98"),
    "eigen": (SMALL, "97e97b8bcfeebb563fe68b1e5cafe94ce0841dffc7aa4b5b5c563b7610a831c8"),
    "connections": (SMALL, "e4979a615439892ba864598a5c9c3047afed466a61669078613cabe7b7a88c3a"),
    "classical-bridge": (SMALL, "dc83a142522c9357b1efb089e9c815bd8e7d256780d0be9ec5e1b9ab92178bb1"),
    "hahn-recurrences": (SMALL, "d138edf840cb4a0c8425b503b905c4aa2069221289d89bf358f12df952e901e9"),
    "vandermonde": (SMALL, "341dc55a0dfd0c58de4438b0cf2a791c4b992310e9b3d4325b4216f649b705c2"),
    "worked-example": (
        ("--h", "5", "--N", "2"),
        "9bac890e36186937f842a080429eebc6008215292b1160628fe3884d06b284a6",
    ),
    "connections at h 5": (
        ("--h", "5", "--N", "2"),
        "5cb1de10f34da380f992ae799e0c6d97fc1e36168afc41f23a720fb0e836cb74",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_stdout_matches_golden_bytes(capsys, name):
    size, digest = GOLDEN_VERIFY_SHA256[name]
    suite = name.split()[0]
    assert main(["verify", "--suite", suite, *size]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


# sha256 of the stdout of the other subcommands on one 4-leaf tree or tree
# pair at level or degree 3, pinned while stdout still went through
# `json.dumps(indent=2)`.  The pair is joined by two right-to-left moves;
# reversed it is not, so only the oracle serves it.
PAIR = ("--source", "(1 (2 (3 4)))", "--target", "(((1 2) 3) 4)", "--n", "3")
REVERSED = ("--source", "(((1 2) 3) 4)", "--target", "(1 (2 (3 4)))", "--n", "3")
GOLDEN_STDOUT_SHA256 = {
    "gram": (
        ("gram", "--tree", "((1 2) (3 4))", "--N", "3"),
        "3a43bad5b1dd6b02b12756f1a73fbe9da7e022eccc0f17faf474a59e27e915ff",
    ),
    "connect": (
        ("connect", *PAIR),
        "81577ead7ee8675af86daee6870a6ea5f74342b7dfe7f8fbf7db7db80b05491e",
    ),
    "connect-oracle-only": (
        ("connect", *PAIR, "--oracle-only"),
        "595fe801580d68a5aa7f0bada7ccfa14b52fc5900dd3f27de3f4c966b4979e57",
    ),
    "connect-unreachable-oracle-only": (
        ("connect", *REVERSED, "--oracle-only"),
        "156e903678fff4dc2c086ce3b25c7563eafe6ea447377b8642234d5b29ccaaa4",
    ),
    "eval-all": (
        ("eval", "--tree", "((1 2) (3 4))", "--labels", "1,0,1", "--N", "3", "--all"),
        "6a691e9242fdf7e4be84952bfa238c630790ea7a1e25c60fa1595c0121b9a960",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT_SHA256))
def test_stdout_matches_golden_bytes(capsys, name):
    argv, digest = GOLDEN_STDOUT_SHA256[name]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


# Text with the characters JSON escapes or spells out as \uXXXX, and ints
# past 64 bits, at every depth up to 4.
JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600'), max_size=6)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**256)
    | st.integers(max_value=-(2**64))
    | JSON_TEXT
)


def _nested(depth):
    values = JSON_SCALARS
    for _ in range(depth):
        values = (
            JSON_SCALARS
            | st.lists(values, max_size=4)
            | st.lists(values, max_size=4).map(tuple)
            | st.dictionaries(JSON_TEXT, values, max_size=4)
        )
    return values


@settings(max_examples=300, deadline=None)
@given(_nested(4))
@example({"c": [1, 2], "rows": [[1, 2], {"c": (1, 2)}], "b": [[1, 1], [True, True], [1, True]], "e": [[], {}, ()]})
def test_writer_equals_json_dumps_indent_2(obj):
    """Byte for byte, with lists of ints at several depths and True kept
    apart from 1."""
    assert cli._json(obj, "\n") == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [1.5, [1, 2.0], {"v": object()}, {1: "x"}, Fraction(1, 2), {"s": {1, 2}}],
    ids=["float", "float-in-list", "object", "int-key", "fraction", "set"],
)
def test_writer_rejects_what_it_does_not_write(obj):
    with pytest.raises(TypeError):
        cli._json(obj, "\n")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def qtree_env(tmp_path):
    """Child-process environment in which ``qtree`` is the declared script.

    Returns ``None`` (inherit the environment) when an installed ``qtree``
    is on ``PATH``. Otherwise writes the console script an installer would
    generate from ``[project.scripts] qtree`` into ``tmp_path`` and returns
    an environment with that directory first on ``PATH`` and the checkout's
    ``src`` first on ``PYTHONPATH``.
    """
    if shutil.which("qtree"):
        return None
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qtree"]
    module, _, attr = target.partition(":")
    script = tmp_path / "qtree"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_installed_entry_point(capsys, qtree_env):
    result = subprocess.run(
        ["qtree", "eval", "--tree", "(1 2)", "--labels", "1", "--N", "1",
         "--all"],
        capture_output=True,
        text=True,
        env=qtree_env,
    )
    assert result.returncode == 0, result.stderr
    expected = run_json(
        capsys,
        ["eval", "--tree", "(1 2)", "--labels", "1", "--N", "1", "--all"],
    )
    assert json.loads(result.stdout) == expected


def test_repeated_main_calls_share_one_parser_and_match_fresh_runs(capsys):
    """The parser is built on the first `main` call, not at import, and
    later calls in the same process print what fresh processes print; bad
    argv between them still exits 2."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )

    def fresh(*args):
        result = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    probe = "import qtreehahn.cli as c; print(c.build_parser.cache_info().currsize)"
    assert fresh("-c", probe) == "0\n"
    runs = [
        ["gram", "--tree", "((1 2) 3)", "--N", "2"],
        ["connect", "--source", "(1 (2 3))", "--target", "((1 2) 3)", "--n", "2"],
        ["gram", "--tree", "(1 (2 3))", "--N", "1"],
    ]
    for argv in runs:
        want = fresh("-m", "qtreehahn.cli", *argv)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], "--no-such-flag"])
        assert excinfo.value.code == 2
    assert cli.build_parser() is cli.build_parser()
