"""Working-precision real arithmetic that every solver module runs on.

All iteration math uses mpmath arbitrary-precision floats under a single
process-wide working precision (mantissa width in bits, >= 64, default 256).
Precision is a per-run configuration: pick it once, directly or through a
solver config, and every value created afterwards carries it.  There is no
per-value precision and no user-facing rounding control; mpmath rounds to
nearest, so results are deterministic for a fixed precision.  Values are
immutable and safe to share between threads.  Each kernel reads
``mp._prec_rounding`` once at entry and runs on that (precision, rounding)
pair throughout.  ``precision`` holds one process-wide re-entrant lock for
the length of its block, so runs and ``precision`` blocks in different
threads are serialised, and a nested block in the same thread re-enters;
``set_precision`` is for single-threaded setup only.

The hot paths (weights, expression programs, window selection, the step
formulas and the solver loop's checks) run on raw libmp tuples, the ``_mpf_``
inside each mpf: a kernel calls the libmp function that mpf's operator
would call (``mpf_sub``, ``mpf_div`` ...) with the same (precision,
rounding), so every result keeps its exact bits, and builds mpf objects
only for what it returns.  ``to_raw`` converts a Scalar at entry as
``real`` would.  A problem's values are converted once, by ``as_mpf``, where
a run takes them, so the kernels read every sample's ``_mpf_`` as it is.
The ``raw_*`` functions are the elementary functions on raw values.

``raw_cos`` and ``raw_sin`` share one evaluation of mpmath's ``mpf_cos_sin``,
which always computes both, and ``raw_exp`` keeps its last result: each is
an ``lru_cache`` of size 1 keyed on what mpmath's own wrappers pass to the
libmp function (the value's exact bits, the precision and the rounding mode),
so a function and its derivative at the same point (f then f' in one solver
step) pay for one evaluation.  The results are those of ``mpmath.cos``,
``mpmath.sin`` and ``mpmath.exp`` bit for bit.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fzero,
    mpf_cos_sin,
    mpf_exp,
    mpf_le,
    mpf_log,
    mpf_lt,
    mpf_pos,
    mpf_pow_int,
    mpf_sqrt,
    to_str,
)

from .errors import DomainError

Real = mpf
Scalar = Union[mpf, int, float, str]
Raw = tuple  # an mpf's ``_mpf_``: (sign, mantissa, exponent, bit count)

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 256


def _validated_bits(bits) -> int:
    if isinstance(bits, bool) or not isinstance(bits, int):
        raise ValueError(f"precision must be an integer, got {bits!r}")
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {bits}")
    return bits


def set_precision(bits: int) -> None:
    """Set the working precision to ``bits`` of mantissa."""
    mpmath.mp.prec = _validated_bits(bits)


def get_precision() -> int:
    """Current working precision in bits."""
    return mpmath.mp.prec


_PRECISION_LOCK = threading.RLock()


@contextmanager
def precision(bits: int) -> Iterator[None]:
    """Run a block at a temporary working precision, holding the precision lock."""
    with _PRECISION_LOCK, mpmath.workprec(_validated_bits(bits)):
        yield


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


def to_raw(value: Scalar, prec: int, rounding: str) -> Raw:
    """``real(value)._mpf_``, building no mpf when ``value`` is one.

    ``(prec, rounding)`` is the working precision's pair, read by the caller.
    """
    if isinstance(value, mpf):
        return mpf_pos(value._mpf_, prec, rounding)
    return mpf(value)._mpf_


def as_mpf(value: Scalar) -> Real:
    """``value`` as an mpf operator reads it.

    An mpf as it is, unrounded; a float, int or decimal string converted at
    the working precision, so a problem returning floats still runs.
    """
    return value if isinstance(value, mpf) else mpf(value)


make_mpf = mpmath.mp.make_mpf  # an mpf holding a raw value as it is


_SPECIAL_TEXT = {fnan: "nan", finf: "inf", fninf: "-inf"}


def to_decimal(value: Scalar, digits: int) -> str:
    """Scientific-notation decimal string ``d.ddd...e±nn`` with ``digits`` significant digits.

    ``value`` is first rounded to the working precision, as ``real`` does.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    x = to_raw(value, *mpmath.mp._prec_rounding)
    if not x[1]:  # zero, the infinities and nan carry no mantissa
        if x in _SPECIAL_TEXT:
            return _SPECIAL_TEXT[x]
        return ("0" if digits == 1 else "0." + "0" * (digits - 1)) + "e+00"
    s = to_str(x, digits, strip_zeros=False, min_fixed=1, max_fixed=0, show_zero_exponent=True)
    mantissa, _, exponent = s.partition("e")
    sign, magnitude = exponent[0], exponent[1:]
    return f"{mantissa}e{sign}{magnitude.zfill(2)}"


# ---------------------------------------------------------------------------
# elementary functions on raw values, with domain checks

_cos_sin = lru_cache(maxsize=1)(mpf_cos_sin)  # both values from one evaluation
_exp = lru_cache(maxsize=1)(mpf_exp)


# the memos are looked up when called, so a replaced memo sees every call
def raw_cos(x: Raw, prec: int, rounding: str) -> Raw:
    return _cos_sin(x, prec, rounding)[0]


def raw_sin(x: Raw, prec: int, rounding: str) -> Raw:
    return _cos_sin(x, prec, rounding)[1]


def raw_exp(x: Raw, prec: int, rounding: str) -> Raw:
    return _exp(x, prec, rounding)


def raw_log(x: Raw, prec: int, rounding: str) -> Raw:
    if mpf_le(x, fzero):
        raise DomainError("log requires a positive argument")
    return mpf_log(x, prec, rounding)


def raw_sqrt(x: Raw, prec: int, rounding: str) -> Raw:
    if mpf_lt(x, fzero):
        raise DomainError("sqrt requires a non-negative argument")
    return mpf_sqrt(x, prec, rounding)


def raw_powi(x: Raw, exponent: int, prec: int, rounding: str) -> Raw:
    """Integer power; 0 to a negative power is a domain error."""
    if exponent < 0 and x == fzero:
        raise DomainError("0 cannot be raised to a negative power")
    return mpf_pow_int(x, exponent, prec, rounding)


# the elementary functions by name: the expression grammar's FUNC and its
# evaluators on raw values
ELEMENTARY = {"cos": raw_cos, "sin": raw_sin, "exp": raw_exp, "log": raw_log, "sqrt": raw_sqrt}


set_precision(DEFAULT_PRECISION_BITS)
