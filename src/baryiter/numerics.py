"""Working-precision real arithmetic that every solver module runs on.

All iteration math uses mpmath arbitrary-precision floats under a single
process-wide working precision (mantissa width in bits, >= 64, default 256).
Precision is a per-run configuration: pick it once, directly or through a
solver config, and every value created afterwards carries it.  There is no
per-value precision and no user-facing rounding control; mpmath rounds to
nearest, so results are deterministic for a fixed precision.  Values are
immutable and safe to share between threads; changing the working precision
while solvers are running concurrently at another precision is not
supported.

``cos`` and ``sin`` share one evaluation of mpmath's ``mpf_cos_sin``, which
always computes both, and ``exp`` keeps its last result: each remembers only
its last argument, keyed on the value's exact bits, the precision and the
rounding mode, so a function and its derivative at the same point (f then
f' in one solver step) pay for one evaluation.  The results are those of
``mpmath.cos``, ``mpmath.sin`` and ``mpmath.exp`` bit for bit.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import mpf_cos_sin, mpf_exp

from .errors import DomainError

Real = mpf
Scalar = Union[mpf, int, float, str]

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 256

PRECISION_ENV_VAR = "BARYITER_PRECISION_BITS"


def _validated_bits(bits) -> int:
    bits = int(bits)
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {bits}")
    return bits


def set_precision(bits: int) -> None:
    """Set the working precision to ``bits`` of mantissa."""
    mpmath.mp.prec = _validated_bits(bits)


def get_precision() -> int:
    """Current working precision in bits."""
    return mpmath.mp.prec


@contextmanager
def precision(bits: int) -> Iterator[None]:
    """Run a block at a temporary working precision."""
    saved = mpmath.mp.prec
    mpmath.mp.prec = _validated_bits(bits)
    try:
        yield
    finally:
        mpmath.mp.prec = saved


def default_precision_bits() -> int:
    """Default precision, overridable through ``BARYITER_PRECISION_BITS``."""
    env = os.environ.get(PRECISION_ENV_VAR)
    if env is not None and env.strip():
        return _validated_bits(env)
    return DEFAULT_PRECISION_BITS


def decimal_digits(bits: int) -> int:
    """Significant decimal digits representable at ``bits``."""
    return int(bits * 0.3010299956639812)


def real(value: Scalar) -> Real:
    """Convert to an mpf at the working precision.

    Pass decimal strings for values that are not exactly representable in
    binary64; they are parsed directly at the working precision.
    """
    if isinstance(value, mpf):
        return +value
    return mpf(value)


def to_decimal(value: Scalar, digits: int) -> str:
    """Scientific-notation decimal string ``d.ddd...e±nn`` with ``digits`` significant digits."""
    if digits < 1:
        raise ValueError("digits must be positive")
    x = real(value)
    if mpmath.isnan(x):
        return "nan"
    if mpmath.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        mantissa = "0" if digits == 1 else "0." + "0" * (digits - 1)
        return mantissa + "e+00"
    s = mpmath.nstr(
        x, digits, strip_zeros=False, min_fixed=1, max_fixed=0, show_zero_exponent=True
    )
    mantissa, _, exponent = s.partition("e")
    sign, magnitude = exponent[0], exponent[1:]
    return f"{mantissa}e{sign}{magnitude.zfill(2)}"


# ---------------------------------------------------------------------------
# elementary functions with domain checks

def _remembering_last(libmp_function: Callable) -> Callable:
    """``libmp_function`` of a Scalar at the working precision, remembering its last call.

    The key is what mpmath's own wrappers pass to a libmp function: the
    argument's exact value, the precision and the rounding mode.  The
    (key, result) pair is replaced in one assignment, so a reader in another
    thread sees a consistent pair.
    """
    last: tuple = (None, None)

    def call(x: Scalar):
        nonlocal last
        prec, rounding = mpmath.mp._prec_rounding
        key = real(x)._mpf_, prec, rounding
        last_key, result = last
        if last_key != key:
            result = libmp_function(*key)
            last = key, result
        return result

    return call


_cos_sin = _remembering_last(mpf_cos_sin)  # both values from one evaluation
_exp = _remembering_last(mpf_exp)


def cos(x: Scalar) -> Real:
    return mpmath.mp.make_mpf(_cos_sin(x)[0])


def sin(x: Scalar) -> Real:
    return mpmath.mp.make_mpf(_cos_sin(x)[1])


def exp(x: Scalar) -> Real:
    return mpmath.mp.make_mpf(_exp(x))


def log(x: Scalar) -> Real:
    x = real(x)
    if x <= 0:
        raise DomainError("log requires a positive argument")
    return mpmath.log(x)


def sqrt(x: Scalar) -> Real:
    x = real(x)
    if x < 0:
        raise DomainError("sqrt requires a non-negative argument")
    return mpmath.sqrt(x)


def powi(x: Scalar, exponent: int) -> Real:
    """Integer power; 0 to a negative power is a domain error."""
    x = real(x)
    exponent = int(exponent)
    if x == 0 and exponent < 0:
        raise DomainError("0 cannot be raised to a negative power")
    return x ** exponent


# the elementary functions by name: the expression grammar's FUNC and its evaluators
ELEMENTARY = {"cos": cos, "sin": sin, "exp": exp, "log": log, "sqrt": sqrt}


set_precision(DEFAULT_PRECISION_BITS)
