import io
import random
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from baryiter import cli, corpus
from baryiter.expressions import Expression
from baryiter.numerics import precision, real, set_precision
from baryiter.optimise import optimize
from baryiter.root_search import SolverConfig, solve

from closed_forms import CLOSED_FORMS
from oracles import fd_derivative, rel_err
from reference_digits import ROOT_DIGITS

DERIVATIVE_ORDERS = ("f", "df", "d2f", "d3f")
CALLABLES = DERIVATIVE_ORDERS + ("fixed_point",)

EXPECTED_NAMES = {
    "cos_minus_x",
    "x2_minus_2",
    "exp_root",
    "cubic_x3_minus_x_minus_2",
    "opt_quadratic",
    "opt_xexp",
    "opt_cos",
    "opt_quartic",
}


def test_problem_registry_contents():
    names = {p.name for p in corpus.list_problems()}
    assert names == EXPECTED_NAMES
    cos_problem = corpus.get_problem("cos_minus_x")
    assert cos_problem.default_x0 == "3"
    assert cos_problem.fixed_point is not None
    assert corpus.get_problem("opt_xexp").kind == "optimisation"
    with pytest.raises(KeyError):
        corpus.get_problem("missing")


def test_root_references_satisfy_residual_bound():
    with precision(1024):
        bound = real("1e-300")
        for problem in corpus.list_problems():
            reference = problem.reference()
            residual = problem.f(reference) if problem.kind == "root" else problem.df(reference)
            assert abs(residual) < bound, problem.name


def test_reference_values_where_known_in_closed_form():
    with precision(512):
        assert corpus.get_problem("opt_xexp").reference() == -1
        assert corpus.get_problem("opt_quadratic").reference() == 2
        import mpmath

        assert abs(corpus.get_problem("opt_cos").reference() - mpmath.pi) < real("1e-150")
        assert abs(corpus.get_problem("x2_minus_2").reference() - mpmath.sqrt(2)) < real("1e-150")
        root = corpus.get_problem("cos_minus_x").reference()
        assert str(root).startswith("0.739085133215160641655312087673873404013")


def test_references_reproducible_bit_identically():
    with precision(640):
        problem = corpus.get_problem("cubic_x3_minus_x_minus_2")
        assert problem.reference() == problem.reference()


@pytest.mark.parametrize("name,index", [(problem.name, index)
                                        for problem in corpus.list_problems()
                                        for index in range(len(problem.roots))])
def test_references_match_the_320_digit_oracle_at_every_precision(name, index):
    # every precision the 320 digits carry with the guard to spare, none thinned out:
    # the seed refined at p must be the oracle's digits rounded to p, bit for bit
    problem = corpus.get_problem(name)
    digits = ROOT_DIGITS[name][index]
    near = float(digits)
    wrong = []
    for bits in range(64, 1000):
        with precision(bits):
            if corpus.reference_root(problem, near)._mpf_ != real(digits)._mpf_:
                wrong.append(bits)
    assert not wrong, (name, digits[:20], wrong)


def test_the_oracle_digits_are_the_seeds_and_320_long():
    assert set(ROOT_DIGITS) == EXPECTED_NAMES
    for name, roots in ROOT_DIGITS.items():
        seeds = corpus.get_problem(name).roots
        assert [float(digits) for digits in roots] == [float(seed) for seed in seeds], name
        for digits in roots:
            mantissa = digits.replace("-", "").replace(".", "")
            assert len(mantissa) >= 320, (name, digits[:20])


def _sign_changes(fn, low, high, count=4001):
    # brackets [a, b] of the grid over [low, high] on which fn changes sign; the
    # grid misses 0, a solution of exp_root and of opt_cos
    grid = [low + (high - low) * mpf(k) / count for k in range(count + 1)]
    values = [fn(x) for x in grid]
    return [(a, b) for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]) if fa * fb < 0]


def _refined_seeds(problem) -> list:
    return [corpus.reference_root(problem, float(seed)) for seed in problem.roots]


def test_seeds_cover_every_real_solution():
    polynomials = {  # the residual (f, or f' of an objective) as coefficients, highest first
        "x2_minus_2": [1, 0, -2],
        "cubic_x3_minus_x_minus_2": [1, 0, -1, -2],
        "opt_quadratic": [2, -4],
        "opt_quartic": [4, 0, -4, 0],
    }
    # a sign scan finds every zero in its range: exp_root is convex, so it has at most
    # two; cos x - x is monotone and (1 + x) e^x changes sign once; of the stationary
    # points k pi of cos, those in the seeded range [0, 2 pi] count
    scans = {"exp_root": (-10, 10), "cos_minus_x": (-10, 10), "opt_xexp": (-10, 10),
             "opt_cos": (-1, 7.5)}
    assert set(polynomials) | set(scans) == EXPECTED_NAMES
    with precision(512):
        for name, coefficients in polynomials.items():
            problem = corpus.get_problem(name)
            stored = _refined_seeds(problem)
            found = [mpmath.re(root) for root in
                     mpmath.polyroots(coefficients, maxsteps=200, extraprec=512)
                     if abs(mpmath.im(root)) < real("1e-100")]
            assert len(found) == len(stored), name
            for root in found:
                assert min(abs(root - s) for s in stored) < real("1e-100"), (name, root)
        for name, (low, high) in scans.items():
            problem = corpus.get_problem(name)
            residual = problem.f if problem.kind == "root" else problem.df
            stored = _refined_seeds(problem)
            brackets = _sign_changes(residual, real(low), real(high))
            assert len(brackets) == len(stored), name
            for a, b in brackets:
                assert any(a <= s <= b for s in stored), (name, a, b)


def _package_files() -> dict:
    # name -> (size, mtime) of every file in the package, bytecode caches aside
    package = Path(corpus.__file__).parent
    return {str(path.relative_to(package)): (path.stat().st_size, path.stat().st_mtime_ns)
            for path in package.rglob("*")
            if path.is_file() and "__pycache__" not in path.parts}


def test_the_package_holds_only_python_files():
    # the built-ins carry their seeds in the code, so an install has no data file to miss
    assert _package_files() and all(name.endswith(".py") for name in _package_files())


def test_runs_write_nothing_into_the_package():
    before = _package_files()
    solve(corpus.get_problem("exp_root"), SolverConfig(method="secant", precision_bits=128))
    optimize(corpus.get_problem("opt_cos"), SolverConfig(method="ch-d1", precision_bits=128))
    for argv in (["solve", "--expr", "x^3-x", "--x0", "0.45", "--output", "json"],
                 ["table", "--reproduce", "table4"]):
        assert cli.main(argv, out=io.StringIO()) == 0
    assert _package_files() == before


def test_analytic_derivatives_match_finite_differences():
    set_precision(256)
    rng = random.Random(3)
    h = mpf(10) ** -25
    for problem in corpus.list_problems():
        for _ in range(10):
            x = real(repr(rng.uniform(0.4, 3.0)))
            fd1 = fd_derivative(problem.f, x, h)
            assert rel_err(fd1, problem.df(x)) <= real("1e-20"), problem.name
            fd2 = fd_derivative(problem.df, x, h)
            assert rel_err(fd2, problem.d2f(x)) <= real("1e-20"), problem.name
            fd3 = fd_derivative(problem.d2f, x, h)
            assert rel_err(fd3, problem.d3f(x)) <= real("1e-20"), problem.name


def _seeded_points(seed: int, count: int) -> list:
    # full-mantissa points in [-3, 3] at the working precision
    rng = random.Random(seed)
    return [real(rng.randrange(-3 * 10**12, 3 * 10**12)) / 10**12 for _ in range(count)]


def test_every_builtin_callable_is_an_expression_program():
    # one derivative mechanism: a built-in's callables come from parse_expression
    for problem in corpus.list_problems():
        for attr in CALLABLES:
            fn = getattr(problem, attr)
            if fn is None:
                assert attr == "fixed_point", (problem.name, attr)
                continue
            assert isinstance(getattr(fn, "__self__", None), Expression), (problem.name, attr)


@pytest.mark.parametrize("bits,count", [(64, 12), (256, 12), (4096, 6), (32768, 2)])
def test_builtins_round_exactly_as_their_closed_forms(bits, count):
    with precision(bits):
        points = _seeded_points(bits, count)
        for problem in corpus.list_problems():
            forms = CLOSED_FORMS[problem.name]
            assert {a for a in CALLABLES if getattr(problem, a) is not None} == set(forms)
            for attr, closed_form in forms.items():
                program = getattr(problem, attr)
                for x in points:
                    same = program(x)._mpf_ == closed_form(x)._mpf_
                    assert same, (problem.name, attr, mpmath.nstr(x, 17))


@pytest.mark.parametrize("bits", [64, 256, 4096])
def test_each_derivative_order_agrees_with_sympy(bits):
    sympy = pytest.importorskip("sympy")
    symbol = sympy.Symbol("x")
    with precision(bits):
        points = _seeded_points(bits + 1, 6)
        bound = mpf(2) ** -(bits - 10)
    for problem in corpus.list_problems():
        exact = sympy.sympify(problem.f.__self__.source.replace("^", "**"))
        for order, attr in enumerate(DERIVATIVE_ORDERS):
            oracle = sympy.lambdify(symbol, sympy.diff(exact, symbol, order), "mpmath")
            for x in points:
                with precision(bits):
                    value = getattr(problem, attr)(x)
                with precision(2 * bits + 20):
                    want = mpmath.mpf(oracle(x))
                    close = value == 0 if want == 0 else abs(value - want) <= bound * abs(want)
                assert close, (problem.name, attr, mpmath.nstr(x, 17))


def test_matches_printed_three_significant_figures():
    set_precision(128)
    assert corpus.matches_printed(real("2.262"), "2.26")
    assert corpus.matches_printed(real("2.2649"), "2.26")
    assert not corpus.matches_printed(real("2.266"), "2.26")
    assert corpus.matches_printed(real("1.904e-1"), "1.90e-1")
    assert not corpus.matches_printed(real("1.906e-1"), "1.90e-1")
    assert corpus.matches_printed(real("2.081e-59"), "2.08e-59")
    assert not corpus.matches_printed(real("2.2e-59"), "2.08e-59")


def test_matches_printed_reads_the_last_digit_of_a_leading_zero_cell():
    set_precision(128)
    assert not corpus.matches_printed(real("0.059"), "0.05")
    assert corpus.matches_printed(real("0.0549"), "0.05")
    assert not corpus.matches_printed(real("5.9e-2"), "5e-2")


def test_matches_printed_allows_half_a_unit_of_every_golden_cell():
    set_precision(128)
    for table in corpus.GOLDEN_TABLES.values():
        for cell in (cell for cells in table["cells"].values() for cell in cells):
            value = real(cell)
            unit = mpf(10) ** (mpmath.floor(mpmath.log10(value)) - 2)  # three figures each
            for offset, accepted in (("0.49", True), ("0.51", False)):
                for sign in (1, -1):
                    assert corpus.matches_printed(value + sign * real(offset) * unit,
                                                  cell) is accepted, (cell, offset, sign)


def test_golden_table_registry():
    table = corpus.golden_table("table4")
    assert table["problem"] == "cos_minus_x"
    assert len(table["columns"]) == 5
    assert all(len(cells) == 10 for cells in table["cells"].values())
    assert len(corpus.golden_table("table6")["cells"]["halley"]) == 7
    with pytest.raises(KeyError):
        corpus.golden_table("table5")
