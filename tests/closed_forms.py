"""The built-in problems' closed forms, written out by hand as a reference.

``corpus`` builds each built-in from expression source, and its derivatives
are the symbolic derivatives that ``expressions.differentiate`` builds.  The
programs it compiles must round exactly as these forms do.  So each
derivative here follows its symbolic tree's operation order: ``exp(x) + x *
exp(x)`` for the derivative of ``x*exp(x)``, not ``(1 + x) * exp(x)``.
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
        "df": lambda x: 3 * x ** 2 - 1,
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
        "df": lambda x: exp(x) + x * exp(x),
        "d2f": lambda x: exp(x) + (exp(x) + x * exp(x)),
        "d3f": lambda x: exp(x) + (exp(x) + (exp(x) + x * exp(x))),
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
        "d2f": lambda x: 4 * (3 * x ** 2) - (2 + 2),
        "d3f": lambda x: 24 * x,
    },
}
