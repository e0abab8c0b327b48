import io
import json

import pytest

from baryiter import cli, corpus
from baryiter.numerics import PRECISION_ENV_VAR


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


def test_optimize_rejects_root_problem():
    code, _ = run_cli("optimize", "--problem", "x2_minus_2")
    assert code == 1


def test_env_var_precision_override(monkeypatch):
    monkeypatch.setenv(PRECISION_ENV_VAR, "192")
    code, text = run_cli(
        "solve", "--problem", "x2_minus_2", "--method", "newton", "--output", "json",
    )
    assert code == 0
    assert json.loads(text)["config"]["precision_bits"] == 192


def test_table_reproduction_table6():
    code, text = run_cli("table", "--reproduce", "table6")
    assert code == 0
    assert "all cells match" in text


def test_solve_with_defaults_reproduces_golden_column():
    from baryiter import corpus
    from baryiter.numerics import precision, real

    code, text = run_cli(
        "solve", "--problem", "cos_minus_x", "--method", "exact-df", "--weights", "x",
        "--window", "4", "--bootstrap", "picard", "--precision-bits", "512",
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
    for digits in ("0", "-3"):
        for output in ("human", "csv", "json"):
            code, text = run_cli("solve", "--problem", "x2_minus_2", "--precision-bits", "128",
                                 "--output", output, "--digits", digits)
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
    (("compare", "--problem", "x2_minus_2", "--methods", ","),
     "--methods must name at least one method"),
])
def test_an_out_of_range_argument_is_a_usage_error(capsys, argv, message):
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_compare_rejects_nonpositive_digits_before_printing(capsys):
    for digits in ("0", "-3"):
        code, text = run_cli("compare", "--problem", "x2_minus_2", "--methods", "newton,secant",
                             "--precision-bits", "128", "--digits", digits)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.strip() == "error: --digits must be positive"


def test_collapsed_memory_is_the_same_singular_step_under_every_weight_scheme(capsys):
    # x0 = -0.0005 and its perturbation +0.0005 share one f value: a window that
    # keeps only distinct samples of every coordinate its scheme uses holds one
    runs = [("newton-x-interp", "x"), ("newton-f-interp", "f"), ("newton-f-interp", "alpha")]
    for method, weights in runs:
        code, text = run_cli("solve", "--expr", "x*x-2", "--x0", "-0.0005", "--method", method,
                             "--weights", weights, "--precision-bits", "128")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.strip() == (
            "error: SingularStep: memory collapsed below the method minimum")


def test_picard_bootstrap_needs_a_fixed_point_form_only_for_a_second_point(capsys):
    args = ("solve", "--expr", "x*x-2", "--x0", "1", "--bootstrap", "picard")
    code, text = run_cli(*args, "--method", "exact-df")
    assert (code, text) == (1, "")
    assert "has no fixed-point form" in capsys.readouterr().err
    # newton's window is 1: no second point is seeded, so the form is never asked for
    code, _ = run_cli(*args, "--method", "newton")
    assert code == 0


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
        ("solve", "--problem", "cos_minus_x", "--bootstrap", "perturb", "--perturb-h", "nan"):
            "perturb_h",
    }
    for argv, name in runs.items():
        assert run_cli(*argv) == (1, "")
        value = argv[-1].partition("=")[2] or argv[-1]
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"


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
