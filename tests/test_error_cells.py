"""Pins every leading-error cell: which ones are accepted and their exact values.

Each method name, bare and with ``/x``, ``/f`` and ``/alpha``, is asked for
its factor at windows 1-5 from one fixed set of solution derivatives at 256
bits.  The accepted cells carry the exact value (the decimal strings below
round-trip to one 256-bit mpf); every other case raises ``UnsupportedCell``.
"""

import mpmath
import pytest
from mpmath import mpf

from baryiter.analysis import ErrorFactorSpec, predicted_error_factor
from baryiter.errors import UnsupportedCell

NAMES = (
    "exact-df", "exact-d1", "newton-x-interp", "newton-f-interp", "ch-x-interp",
    "ch-f-interp", "picard", "newton", "halley", "secant", "newton-df", "ch-d1",
)
SUFFIXES = ("", "/x", "/f", "/alpha")
WINDOWS = (1, 2, 3, 4, 5)
DERIVATIVES = ("1.5", "-0.7", "1.3", "-2.1", "0.9")

_HALF = "-0.23333333333333333333333333333333333333333333333333333333333333333333333333333348"
_X3 = "-0.089999999999999999999999999999999999999999999999999999999999999999999999999999007"
_X4 = "-0.0036296296296296296296296296296296296296296296296296296296296296296296296296307987"
_F3 = "-0.035555555555555555555555555555555555555555555555555555555555555555555555555554637"
_F4 = "0.046666666666666666666666666666666666666666666666666666666666666666666666666665832"
_D3 = "-0.14444444444444444444444444444444444444444444444444444444444444444444444444444392"
_D4 = "-0.05833333333333333333333333333333333333333333333333333333333333333333333333333283"

ACCEPTED = {
    ("exact-df/x", 2): _HALF, ("exact-df/x", 3): _X3, ("exact-df/x", 4): _X4,
    ("exact-df/f", 2): _HALF, ("exact-df/f", 3): _F3, ("exact-df/f", 4): _F4,
    ("exact-d1/x", 1): _HALF, ("exact-d1/x", 2): _X4,
    ("exact-d1/f", 1): _HALF, ("exact-d1/f", 2): _F4,
    ("newton-x-interp/x", 2): _HALF, ("newton-x-interp/x", 3): _X3, ("newton-x-interp/x", 4): _X4,
    ("newton-x-interp/f", 2): _HALF, ("newton-x-interp/f", 3): _F3, ("newton-x-interp/f", 4): _F4,
    ("newton-f-interp/x", 2): _HALF, ("newton-f-interp/x", 3): _D3, ("newton-f-interp/x", 4): _D4,
    ("newton-f-interp/f", 2): _HALF, ("newton-f-interp/f", 3): _X3,
    ("newton-f-interp/f", 4):
        "0.017370370370370370370370370370370370370370370370370370370370370370370370370369676",
    **{(f"ch-x-interp/{scheme}", 1): _HALF for scheme in ("x", "f", "alpha")},
    **{(f"ch-x-interp/{scheme}", 2): _F4 for scheme in ("x", "f", "alpha")},
    **{(f"ch-f-interp/{scheme}", 1): _HALF for scheme in ("x", "f", "alpha")},
    **{(f"ch-f-interp/{scheme}", 2): _D4 for scheme in ("x", "f", "alpha")},
    ("newton", 1): _HALF,
    ("secant", 2): _HALF,
    ("newton-df/x", 2): "-0.5",
    ("newton-df/x", 3):
        "-0.30952380952380952380952380952380952380952380952380952380952380952380952380952422",
    ("newton-df/x", 4): "-0.125",
    ("newton-df/x", 5):
        "-0.01071428571428571428571428571428571428571428571428571428571428571428571428571429",
}

# degenerate solutions: the non-degeneracy check runs after the cell lookup
# and before the window is matched
_ZERO_D1 = ("0",) + DERIVATIVES[1:]
_ZERO_D2 = DERIVATIVES[:1] + ("0",) + DERIVATIVES[2:]
DEGENERATE = [
    ("secant", 2, _ZERO_D1, ValueError),
    ("exact-df/x", 5, _ZERO_D1, ValueError),
    ("made-up/x", 2, _ZERO_D1, UnsupportedCell),
    ("newton-df/x", 3, _ZERO_D2, ValueError),
    ("newton-df/x", 1, _ZERO_D2, ValueError),
    ("ch-d1/x", 2, _ZERO_D2, UnsupportedCell),
    ("newton-df/x", 3, _ZERO_D1, ACCEPTED[("newton-df/x", 3)]),
    ("exact-df/f", 3, _ZERO_D2, _D3),
]


def _outcome(scheme, window, derivatives):
    mpmath.mp.prec = 256
    try:
        return predicted_error_factor(ErrorFactorSpec(scheme, window, derivatives))
    except (UnsupportedCell, ValueError) as err:
        return type(err)


def _check(outcome, expected):
    if isinstance(expected, str):
        assert outcome == mpf(expected)
    else:
        assert outcome is expected


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("scheme", [name + suffix for name in NAMES for suffix in SUFFIXES])
def test_every_cell_is_pinned(scheme, window):
    _check(_outcome(scheme, window, DERIVATIVES), ACCEPTED.get((scheme, window), UnsupportedCell))


@pytest.mark.parametrize("scheme,window,derivatives,expected", DEGENERATE)
def test_degenerate_solutions_are_pinned(scheme, window, derivatives, expected):
    _check(_outcome(scheme, window, derivatives), expected)
