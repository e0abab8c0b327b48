import argparse
import dataclasses
import io
import json
import runpy
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryiter import analysis, cli, corpus
from baryiter.root_search import SolverConfig


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def test_order_command_prints_published_value():
    code, text = run_cli("order", "--family", "root", "--m", "1", "--n", "2")
    assert code == 0
    assert text.strip() == "1.83929"


def test_order_command_infinity():
    code, text = run_cli("order", "--family", "opt", "--m", "2", "--n", "inf")
    assert code == 0
    assert text.strip() == "2.41421"


def test_solve_json_schema_and_round_trip():
    code, text = run_cli(
        "solve", "--problem", "x2_minus_2", "--method", "newton",
        "--precision-bits", "128", "--output", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"problem", "method", "config", "steps", "summary"}
    assert doc["problem"] == "x2_minus_2"
    assert set(doc["steps"][0]) == {"i", "x", "f", "abs_error", "status"}
    assert isinstance(doc["steps"][0]["x"], str)
    assert doc["summary"]["status"] == "converged"
    # byte-identical round trip at fixed digits
    assert json.dumps(doc, indent=2) + "\n" == text


def test_solve_expression_converges_to_sqrt2():
    code, text = run_cli(
        "solve", "--expr", "x^2-2", "--x0", "1", "--method", "newton",
        "--precision-bits", "128", "--output", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["steps"][-1]["x"].startswith("1.41421356")
    order = doc["summary"]["empirical_order"]
    assert order is not None and float(order.split("e")[0]) > 1.5  # quadratic-ish


def test_solve_csv_output():
    code, text = run_cli(
        "solve", "--problem", "x2_minus_2", "--method", "secant", "--window", "2",
        "--precision-bits", "128", "--output", "csv", "--digits", "8",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "i,x,f,abs_error,status"
    assert lines[1].startswith("0,1.0000000e+00,")
    assert lines[-1].endswith("converged")


def test_solve_human_output_mentions_status():
    code, text = run_cli(
        "solve", "--problem", "cos_minus_x", "--method", "exact-df", "--window", "3",
        "--precision-bits", "128",
    )
    assert code == 0
    assert "status: converged" in text
    assert "empirical order:" in text


def test_exit_codes():
    code, _ = run_cli("solve", "--problem", "no_such_problem")
    assert code == 1
    code, _ = run_cli("solve", "--problem", "x2_minus_2", "--method", "bogus")
    assert code == 1
    code, _ = run_cli("solve", "--expr", "log(x", "--x0", "1")
    assert code == 1
    code, _ = run_cli("solve", "--expr", "x^2-2")  # missing --x0
    assert code == 1
    code, _ = run_cli(
        "solve", "--problem", "cos_minus_x", "--method", "picard",
        "--max-iter", "3", "--precision-bits", "128",
    )
    assert code == 2  # budget exhausted


def test_optimize_command():
    code, text = run_cli(
        "optimize", "--problem", "opt_quadratic", "--method", "ch-d1", "--window", "2",
        "--precision-bits", "128", "--output", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["steps"][-1]["x"].startswith(("1.99999999999999999", "2.0000"))


def test_optimize_rejects_root_problem(capsys):
    code, _ = run_cli("optimize", "--problem", "x2_minus_2")
    assert code == 1
    assert capsys.readouterr().err == "error: problem 'x2_minus_2' is a root problem\n"
    # and solve an optimisation problem, with the article that kind takes
    assert run_cli("solve", "--problem", "opt_cos") == (1, "")
    assert capsys.readouterr().err == "error: problem 'opt_cos' is an optimisation problem\n"


@pytest.mark.parametrize("family, m, n", [("root", 1, 2), ("opt", 2, 3), ("opt", 1, 1)])
def test_order_computes_every_digit_it_prints(family, m, n):
    code, text = run_cli("order", "--family", family, "--m", str(m), "--n", str(n),
                         "--digits", "70")
    assert code == 0
    with mpmath.workprec(400):
        if family == "root":
            residual = lambda t: t - (m + 1) + m * t ** (-(n + 1))  # noqa: E731
        else:
            residual = lambda t: t * t - 1 - m * (t - t ** (-n))  # noqa: E731
        # modified Newton from the limit: (opt, 1, 1) is the double root 1
        root = mpmath.findroot(residual, analysis.order_limit(family, m), solver="mnewton")
        assert text == mpmath.nstr(root, 70, strip_zeros=False) + "\n"


# one of each subcommand, with no --precision-bits where it takes one
ARGV_ALONE = [
    ("solve", "--expr", "cos(x)-x", "--x0", "1", "--output", "json"),
    ("optimize", "--problem", "opt_cos", "--method", "ch-d1", "--window", "3"),
    ("compare", "--problem", "cos_minus_x", "--methods", "secant,exact-df"),
    ("table", "--reproduce", "table4"),
    ("order", "--family", "root", "--m", "1", "--n", "2", "--digits", "60"),
]


@pytest.mark.parametrize("argv", ARGV_ALONE, ids=lambda argv: argv[0])
def test_the_output_depends_on_argv_alone(monkeypatch, capsys, argv):
    def printed():
        code, text = run_cli(*argv)
        return code, text, capsys.readouterr().err

    clean = printed()
    # neither the environment variable earlier versions read nor the process-wide
    # precision moves a byte
    monkeypatch.setenv("BARYITER_PRECISION_BITS", "64")
    assert printed() == clean
    monkeypatch.delenv("BARYITER_PRECISION_BITS")
    mpmath.mp.prec = 64  # the conftest fixture restores it
    assert printed() == clean


def test_table_reproduction_table6():
    code, text = run_cli("table", "--reproduce", "table6")
    assert code == 0
    assert "all cells match" in text


def test_solve_with_defaults_reproduces_golden_column():
    from baryiter import corpus
    from baryiter.numerics import precision, real

    code, text = run_cli(
        "solve", "--problem", "cos_minus_x", "--method", "exact-df", "--weights", "x",
        "--window", "4", "--precision-bits", "512",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(text)
    cells = corpus.golden_table("table4")["cells"]["n=3"]
    assert len(doc["steps"]) == len(cells)
    with precision(512):
        for step, cell in zip(doc["steps"], cells):
            assert corpus.matches_printed(real(step["abs_error"]), cell)


def test_compare_command():
    code, text = run_cli(
        "compare", "--problem", "x2_minus_2", "--x0", "2",
        "--methods", "newton,secant", "--precision-bits", "128",
    )
    assert code == 0
    assert "newton" in text and "secant" in text
    assert "converged" in text


def test_compare_honours_each_methods_own_minimum_window():
    # at window 1 exact-d1 is Newton, so the two columns must agree cell for cell
    code, text = run_cli(
        "compare", "--problem", "cos_minus_x", "--methods", "exact-d1,newton",
        "--window", "1", "--precision-bits", "256",
    )
    assert code == 0
    rows = [line.split() for line in text.splitlines()[2:] if line[:1].isdigit()]
    assert rows and all(len(row) == 3 and row[1] == row[2] for row in rows)
    summary = text.splitlines()[-2:]
    assert summary[0].split(":")[1] == summary[1].split(":")[1]


def test_division_by_zero_in_an_expression_is_a_domain_error(capsys):
    code, _ = run_cli("solve", "--expr", "1/x", "--x0", "0", "--precision-bits", "128")
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: DomainError: division by zero"


def test_the_reused_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = ("solve", "--expr", "x^2-2", "--x0", "1", "--method", "secant", "--window", "2",
             "--precision-bits", "128", "--output", "json")
    runs = [
        first,
        first[:5] + ("--x1", "2") + first[5:],
        ("solve", "--expr", "x^2-2", "--x0", "1", "--window", "3", "--precision-bits", "128",
         "--output", "csv"),
        ("optimize", "--expr", "cos(x)", "--x0", "3", "--window", "5", "--precision-bits", "128"),
        first[:-1] + ("human",),
    ]
    usage_errors = [
        first[:5] + ("--x1", "2", "--window", "two"),  # argparse stops mid-line
        first[:5] + ("--x1", "2", "--output", "xml"),
        ("solve", "--expr", "x^2-2", "--x1", "2", "--window", "3"),  # no --x0
    ]
    expected = [run_cli(*argv) for argv in runs]
    assert [code for code, _ in expected] == [0] * len(runs)
    assert len({text for _, text in expected}) == len(runs)
    for argv, want, error in zip(runs[::-1], expected[::-1], usage_errors * 2):
        assert run_cli(*error) == (1, "")
        assert run_cli(*argv) == want
    capsys.readouterr()


def test_table_rejects_a_precision_below_the_floor(capsys):
    # 0 bits is a usage error, as it is for solve, not a replay at the table's own 512
    for argv in (("table", "--reproduce", "table4"), ("solve", "--problem", "x2_minus_2")):
        assert run_cli(*argv, "--precision-bits", "0") == (1, "")
        assert capsys.readouterr().err.startswith("error: precision must be at least")


def test_nonpositive_digits_is_the_same_usage_error_in_every_format(capsys):
    runs = (("solve", "--problem", "x2_minus_2"), ("optimize", "--problem", "opt_quadratic"))
    for run in runs:
        for digits in ("0", "-3"):
            for output in ("human", "csv", "json"):
                code, text = run_cli(*run, "--precision-bits", "128", "--output", output,
                                     "--digits", digits)
                assert (code, text) == (1, "")
                assert capsys.readouterr().err.strip() == "error: --digits must be positive"


def test_order_rejects_nonpositive_digits(capsys):
    for digits in ("0", "-3"):
        code, text = run_cli("order", "--family", "root", "--m", "1", "--n", "2",
                             "--digits", digits)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.strip() == "error: --digits must be positive"


@pytest.mark.parametrize("argv, message", [
    (("order", "--family", "root", "--m", "0", "--n", "2"), "--m must be at least 1"),
    (("order", "--family", "root", "--m", "1", "--n", "-1"), "--n must be non-negative or 'inf'"),
    (("order", "--family", "root", "--m", "1", "--n", "abc"), "--n must be non-negative or 'inf'"),
    (("order", "--family", "root", "--m", "1", "--n", "1.5"), "--n must be non-negative or 'inf'"),
    (("compare", "--problem", "x2_minus_2", "--methods", ","),
     "--methods must name at least one method"),
    # --digits is checked first, before any subcommand's own checks
    (("compare", "--problem", "x2_minus_2", "--methods", ",", "--digits", "0"),
     "--digits must be positive"),
    (("order", "--family", "root", "--m", "0", "--n", "2", "--digits", "0"),
     "--digits must be positive"),
])
def test_an_out_of_range_argument_is_a_usage_error(capsys, argv, message):
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


# each subcommand's (option, default) pairs; --x1 alone names the second seed
FLAG_SET = {
    "solve": {"--problem": None, "--expr": None, "--x0": None, "--x1": None,
              "--method": "exact-df", "--weights": "x", "--alpha": "0", "--window": 4,
              "--beta": "1", "--tol-f": None, "--tol-x": None, "--max-iter": 60,
              "--precision-bits": None, "--output": "human", "--digits": None},
    "order": {"--family": None, "--m": None, "--n": None, "--digits": 6},
    "table": {"--reproduce": None, "--precision-bits": None},
    "compare": {"--problem": None, "--expr": None, "--x0": None, "--methods": None,
                "--weights": "x", "--window": 4, "--max-iter": 30, "--precision-bits": None,
                "--digits": 3},
}
FLAG_SET["optimize"] = {**FLAG_SET["solve"], "--method": "newton-df"}


def test_no_option_is_added_or_removed():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {
        name: {option: action.default for action in parser._actions
               if not isinstance(action, argparse._HelpAction) for option in action.option_strings}
        for name, parser in commands.items()
    }
    assert flags == FLAG_SET


@pytest.mark.parametrize("command, problem", [("solve", "cos_minus_x"),
                                              ("optimize", "opt_quadratic")])
def test_perturb_h_is_not_an_option(capsys, command, problem):
    # x1 alone names the second seed: x0 + h is --x1 with that value
    assert run_cli(command, "--problem", problem, "--perturb-h", "1e-8") == (1, "")
    assert capsys.readouterr().err == "error: unrecognized arguments: --perturb-h 1e-8\n"


# SolverConfig's (field, default) pairs; the CLI sets every field but bootstrap
CONFIG_FIELDS = {"method": "exact-df", "weight_scheme": "x", "alpha": 0, "window": 4, "beta": 1,
                 "x0": None, "x1": None, "bootstrap": "auto", "tol_f": None, "tol_x": None,
                 "max_iter": 60, "precision_bits": 256}


def test_no_config_field_is_added_or_removed(monkeypatch):
    assert {f.name: f.default for f in dataclasses.fields(SolverConfig)} == CONFIG_FIELDS
    passed = []
    monkeypatch.setattr(cli, "SolverConfig", lambda **fields: passed.append(set(fields)))
    for command in ("solve", "optimize"):
        cli._config_from(cli.build_parser().parse_args([command, "--problem", "cos_minus_x"]))
    assert passed == [set(CONFIG_FIELDS) - {"bootstrap"}] * 2


@pytest.mark.parametrize("output, orders", [("csv", 0), ("json", 1), ("human", 1)])
def test_only_a_format_that_prints_the_order_computes_it(monkeypatch, output, orders):
    calls = []
    empirical_order = analysis.empirical_order

    def counted(*args):
        calls.append(args)
        return empirical_order(*args)

    monkeypatch.setattr(analysis, "empirical_order", counted)
    code, text = run_cli("solve", "--expr", "cos(x)-x", "--x0", "1", "--output", output)
    assert code == 0 and text
    assert len(calls) == orders


@pytest.mark.parametrize("x1", ["1", "1.0", "1." + "0" * 100 + "1"])
def test_an_x1_equal_to_x0_at_the_working_precision_is_a_usage_error(capsys, x1):
    code, text = run_cli("solve", "--expr", "cos(x)-x", "--x0", "1", "--x1", x1)
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: x1 must differ from x0 at the working precision\n"


def test_compare_rejects_nonpositive_digits_before_printing(capsys):
    for digits in ("0", "-3"):
        code, text = run_cli("compare", "--problem", "x2_minus_2", "--methods", "newton,secant",
                             "--precision-bits", "128", "--digits", digits)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.strip() == "error: --digits must be positive"


def test_collapsed_memory_is_the_same_failure_under_every_weight_scheme(capsys):
    # x0 = -0.0005 and its perturbation +0.0005 share one f value: a window that
    # keeps only distinct samples of every coordinate its scheme uses holds one
    runs = [("newton-x-interp", "x"), ("newton-f-interp", "f"), ("newton-f-interp", "alpha")]
    for method, weights in runs:
        code, text = run_cli("solve", "--expr", "x*x-2", "--x0", "-0.0005", "--method", method,
                             "--weights", weights, "--precision-bits", "128", "--output", "json")
        assert code == 2
        assert [s["status"] for s in json.loads(text)["steps"]] == ["ok", "failed"]
        assert capsys.readouterr().err.strip() == (
            "error: SingularStep: memory collapsed below the method minimum")


# argv -> (recorded steps, stderr line) of a run a library error ends
FAILED_RUNS = {
    ("solve", "--expr", "log(x)", "--x0", "5", "--method", "newton"):
        (1, "DomainError: log requires a positive argument"),
    ("solve", "--problem", "x2_minus_2", "--x0", "0", "--method", "newton"):
        (1, "ZeroDerivative: Newton step needs f' != 0"),
    ("solve", "--problem", "cos_minus_x", "--x0", "1", "--x1", "1." + "0" * 75 + "1"):
        (2, "SingularStep: memory collapsed below the method minimum"),
    ("optimize", "--problem", "opt_quadratic", "--x0", "1", "--window", "3", "--x1",
     "1.0000000001", "--precision-bits", "64"):
        (3, "SingularStep: estimated curvature vanished"),
}


@pytest.mark.parametrize("argv", sorted(FAILED_RUNS), ids=" ".join)
def test_a_failed_run_prints_its_trace_and_exits_2(capsys, argv):
    recorded, failure = FAILED_RUNS[argv]
    code, text = run_cli(*argv, "--output", "json")
    doc = json.loads(text)
    assert code == 2 and doc["summary"]["status"] == "failed"
    assert [s["status"] for s in doc["steps"]] == ["ok"] * (recorded - 1) + ["failed"]
    assert all(s["abs_error"] is None for s in doc["steps"])
    assert capsys.readouterr().err == f"error: {failure}\n"
    for output, last in (("human", "status: failed   iterations: "), ("csv", f"{recorded - 1},")):
        code, text = run_cli(*argv, "--output", output)
        assert code == 2 and text.splitlines()[-1].startswith(last)
        assert text.rstrip().endswith("failed") == (output == "csv")
        assert capsys.readouterr().err == f"error: {failure}\n"


def test_an_error_before_the_first_point_prints_no_trace(capsys):
    assert run_cli("solve", "--expr", "1/x", "--x0", "0") == (2, "")
    assert capsys.readouterr().err == "error: DomainError: division by zero\n"


def test_compare_reports_a_failed_method_in_its_summary(capsys):
    code, text = run_cli("compare", "--expr", "log(x)", "--x0", "5", "--methods", "newton,secant")
    assert code == 2
    assert text.splitlines()[-2:] == ["newton: failed after 0 steps",
                                      "secant: failed after 1 steps"]
    assert capsys.readouterr().err == ""


def test_an_unknown_problem_prints_the_message_itself(capsys):
    code, text = run_cli("solve", "--problem", "nope")
    assert (code, text) == (1, "")
    known = ", ".join(sorted(corpus.PROBLEMS))
    assert capsys.readouterr().err == f"error: unknown problem 'nope'; known: {known}\n"


def test_a_non_finite_parameter_is_a_usage_error(capsys):
    runs = {
        ("optimize", "--problem", "opt_cos", "--method", "ch-d1", "--beta", "nan"): "beta",
        ("solve", "--problem", "cos_minus_x", "--method", "ch-x-interp", "--beta=-inf"): "beta",
        ("solve", "--problem", "cos_minus_x", "--weights", "alpha", "--alpha", "inf"): "alpha",
        ("solve", "--problem", "cos_minus_x", "--tol-f", "nan"): "tol_f",
        ("solve", "--problem", "cos_minus_x", "--tol-x", "inf"): "tol_x",
        ("solve", "--problem", "cos_minus_x", "--x0", "inf"): "x0",
        ("solve", "--problem", "cos_minus_x", "--x0", "nan"): "x0",
        ("solve", "--problem", "cos_minus_x", "--x1", "inf"): "x1",
    }
    for argv, name in runs.items():
        assert run_cli(*argv) == (1, "")
        value = argv[-1].partition("=")[2] or argv[-1]
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"


def test_an_x1_that_rounds_to_the_default_x0_is_a_usage_error(capsys):
    # distinct from x0 = 3 as a decimal, but 3 + 1e-400 is 3 at 256 bits: the run
    # would end in a singular step with no trace
    argv = ("solve", "--problem", "cos_minus_x", "--x1", "3." + "0" * 399 + "1")
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == "error: x1 must differ from x0 at the working precision\n"


def test_an_x1_equal_to_the_default_x0_is_a_usage_error(capsys):
    # the default x0 is refused as a given one is: the run would end in a singular step
    for argv in (("solve", "--problem", "cos_minus_x", "--x1", "3"),
                 ("optimize", "--problem", "opt_cos", "--x1", "2.5")):
        assert run_cli(*argv) == (1, "")
        assert capsys.readouterr().err == "error: x1 must differ from x0 at the working precision\n"


@pytest.mark.parametrize("x0, x1", [("0", "-0.0"), ("-0", "0")])
def test_an_x1_of_the_other_signed_zero_is_a_usage_error(capsys, x0, x1):
    # +0 and -0 are one point: the run would end in a singular step with no trace
    for command, problem in (("solve", "cos_minus_x"), ("optimize", "opt_quadratic")):
        assert run_cli(command, "--problem", problem, "--x0", x0, "--x1", x1) == (1, "")
        assert capsys.readouterr().err == "error: x1 must differ from x0 at the working precision\n"


def test_a_mirrored_seed_that_rounds_to_x0_is_a_usage_error(capsys):
    # x1 = 1 - 2^-256: newton-df's third seed x0 - (x1 - x0) rounds back to x0 at
    # 256 bits, and the run would end in a singular step with no trace
    x1 = "0." + "9" * 77 + "1363831444906"
    argv = ("optimize", "--problem", "opt_quadratic", "--x0", "1", "--x1", x1, "--window", "3")
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == (
        "error: x0 - (x1 - x0) must differ from x0 at the working precision\n")


def test_a_negative_tolerance_is_a_usage_error(capsys):
    # the run would spend its whole budget: no residual or step is below it
    for name, flag in (("tol_f", "--tol-f"), ("tol_x", "--tol-x")):
        assert run_cli("solve", "--problem", "cos_minus_x", flag, "-1") == (1, "")
        assert capsys.readouterr().err == f"error: {name} must be non-negative, got -1\n"


@pytest.mark.parametrize("argv, code, printed", [
    (["order", "--family", "root", "--m", "1", "--n", "2"], 0, "1.83929\n"),
    (["order", "--family", "root", "--m", "0", "--n", "2"], 1, ""),
])
def test_the_console_entry_point_and_module_exit_with_mains_code(monkeypatch, capsys, argv,
                                                                  code, printed):
    assert cli.main(argv, out=io.StringIO()) == code
    monkeypatch.setattr(sys, "argv", ["baryiter", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entrypoint()
    assert exit_info.value.code == code
    assert capsys.readouterr().out == printed
    # python -m baryiter.cli, in this process: runpy warns that the module is already imported
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("baryiter.cli", run_name="__main__")
    assert exit_info.value.code == code
    assert capsys.readouterr().out == printed


def test_an_exponent_beyond_the_bound_is_a_parse_error(capsys):
    for expr in ("x^2^2^2^2^2", "x^" + "9" * 4400):
        assert run_cli("solve", "--expr", expr, "--x0", "1") == (1, "")
        assert capsys.readouterr().err == (
            "error: exponent exceeds 1000000 in magnitude (column 3)\n")
    code, text = run_cli("solve", "--expr", "x^2^2^2^2", "--x0", "1", "--precision-bits", "128")
    assert code == 0 and text.startswith("problem: x^2^2^2^2")


def test_compare_without_a_reference_prints_residual_cells():
    code, text = run_cli("compare", "--expr", "x*x+1", "--x0", "0.5",
                         "--methods", "secant,exact-df", "--max-iter", "4")
    assert code == 2
    assert text == (
        "problem: x*x+1   |error| per step\n"
        "i        secant    exact-df\n"
        "0    f=1.25e+00  f=1.25e+00\n"
        "1    f=1.25e+00  f=1.25e+00\n"
        "2    f=1.56e+00  f=1.56e+00\n"
        "3    f=3.18e+01  f=1.09e+00\n"
        "4    f=2.15e+00  f=3.43e+00\n"
        "secant: budget-exhausted after 4 steps\n"
        "exact-df: budget-exhausted after 4 steps\n"
    )


# user text: quotes, backslashes, control characters, non-ASCII text, a lone
# surrogate (an undecodable argv byte) and text that looks like the writer's own
_names = st.one_of(
    st.text(),
    st.sampled_from(['"steps": []', '{"steps": []}', 'a"b', "back\\slash", "\x00\x1f\n\t\r",
                     "cos(x)-é", "✓ x^2", "😀", "\udcff", ""]),
)
_decimals = st.one_of(st.none(), st.text(alphabet="0123456789.e+-naif", max_size=40))
# a step's keys in ``trace_document``'s order, which the writer's template follows
_steps = st.lists(
    st.builds(
        lambda *values: dict(zip(("i", "x", "f", "abs_error", "status"), values)),
        st.integers(min_value=0, max_value=10 ** 6),
        st.text(alphabet="0123456789.e+-nf", max_size=40), _decimals, _decimals, _names,
    ),
    max_size=200,
)
_documents = st.fixed_dictionaries({
    "problem": _names,
    "method": _names,
    "config": st.fixed_dictionaries({
        "method": _names, "weights": _names, "alpha": _names,
        "window": st.integers(min_value=1, max_value=64), "beta": _names,
        "bootstrap": _names, "max_iter": st.integers(min_value=0, max_value=10 ** 6),
        "precision_bits": st.integers(min_value=64, max_value=10 ** 5),
    }),
    "steps": _steps,
    "summary": st.fixed_dictionaries({
        "status": _names,
        "iterations": st.integers(min_value=0, max_value=10 ** 6),
        "empirical_order": _decimals,
    }),
})


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_the_json_writer_prints_what_json_dumps_prints(doc):
    assert cli.document_json(doc) == json.dumps(doc, indent=2)
