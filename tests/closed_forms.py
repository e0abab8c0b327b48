"""The built-in problems' hand-written closed forms, kept as a reference.

``corpus`` builds each built-in from expression source; the programs it
compiles must round exactly as these forms do, so every output bit of the
solvers stays as it was when the built-ins were written as these lambdas.
"""

from mpmath import cos, exp, sin

from baryiter.numerics import real

CLOSED_FORMS = {
    "cos_minus_x": {
        "f": lambda x: cos(x) - x,
        "df": lambda x: -sin(x) - 1,
        "d2f": lambda x: -cos(x),
        "d3f": lambda x: sin(x),
        "fixed_point": lambda x: cos(x),
    },
    "x2_minus_2": {
        "f": lambda x: x * x - 2,
        "df": lambda x: 2 * x,
        "d2f": lambda x: real(2),
        "d3f": lambda x: real(0),
    },
    "exp_root": {
        "f": lambda x: exp(x) - 2 * x - 1,
        "df": lambda x: exp(x) - 2,
        "d2f": lambda x: exp(x),
        "d3f": lambda x: exp(x),
    },
    "cubic_x3_minus_x_minus_2": {
        "f": lambda x: x ** 3 - x - 2,
        "df": lambda x: 3 * x * x - 1,
        "d2f": lambda x: 6 * x,
        "d3f": lambda x: real(6),
    },
    "opt_quadratic": {
        "f": lambda x: (x - 2) ** 2 + 1,
        "df": lambda x: 2 * (x - 2),
        "d2f": lambda x: real(2),
        "d3f": lambda x: real(0),
    },
    "opt_xexp": {
        "f": lambda x: x * exp(x),
        "df": lambda x: (1 + x) * exp(x),
        "d2f": lambda x: (2 + x) * exp(x),
        "d3f": lambda x: (3 + x) * exp(x),
    },
    "opt_cos": {
        "f": lambda x: cos(x),
        "df": lambda x: -sin(x),
        "d2f": lambda x: -cos(x),
        "d3f": lambda x: sin(x),
    },
    "opt_quartic": {
        "f": lambda x: x ** 4 - 2 * x * x,
        "df": lambda x: 4 * x ** 3 - 4 * x,
        "d2f": lambda x: 12 * x * x - 4,
        "d3f": lambda x: 24 * x,
    },
}
