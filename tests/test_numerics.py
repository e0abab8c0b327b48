import threading
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp

from baryiter import numerics
from baryiter.errors import DomainError
from baryiter.numerics import get_precision, precision, real, set_precision, to_decimal

from oracles import elementary, newton_sqrt, taylor_cos, to_decimal_direct, ulp

cos, sin, exp, log, sqrt, powi = (partial(elementary, name)
                                  for name in ("cos", "sin", "exp", "log", "sqrt", "powi"))


def test_cos_zero_is_one():
    assert cos(0) == 1


def test_sqrt2_matches_newton_oracle_at_64_bits():
    with precision(64):
        computed = sqrt(2)
        expected = newton_sqrt(2, 64)
        assert abs(computed - expected) <= 2 * ulp(expected)
        assert to_decimal(computed, 16).startswith("1.414213562373095")


def test_cos3_matches_taylor_oracle_at_256_bits():
    with precision(256):
        computed = cos(3)
        partial, tail = taylor_cos(3)
        assert abs(computed - partial) <= tail + 2 * ulp(computed)
        assert to_decimal(computed, 15).startswith("-9.8999249660044")


def test_log_and_sqrt_domain_errors():
    with pytest.raises(DomainError):
        log(-1)
    with pytest.raises(DomainError):
        log(0)
    with pytest.raises(DomainError):
        sqrt(-2)


def test_elementary_values_and_integer_powers():
    assert sin(0) == 0
    assert exp(0) == 1
    assert powi(3, 4) == 81
    assert powi(2, -2) == mpf(1) / 4
    with pytest.raises(DomainError):
        powi(0, -1)


def test_precision_floor_and_context():
    with pytest.raises(ValueError):
        set_precision(32)
    before = get_precision()
    with precision(512):
        assert get_precision() == 512
        with precision(128):
            assert get_precision() == 128
        assert get_precision() == 512
    assert get_precision() == before


def test_set_precision_waits_for_a_precision_block_in_another_thread(monkeypatch):
    lock = numerics._PRECISION_LOCK
    contended = threading.Event()

    class Watched:
        """The precision lock, noting a thread that finds it held by another."""

        def __enter__(self):
            if not lock.acquire(blocking=False):
                contended.set()
                lock.acquire()

        def __exit__(self, *exc):
            lock.release()

    monkeypatch.setattr(numerics, "_PRECISION_LOCK", Watched())
    before = get_precision()
    setter = threading.Thread(target=set_precision, args=(64,))
    try:
        with precision(128):
            setter.start()
            # a setter that never waits never sets the event: the timeout fails the test
            assert contended.wait(timeout=10)
            assert get_precision() == 128
        setter.join(timeout=10)
        assert not setter.is_alive() and get_precision() == 64
    finally:
        set_precision(before)


def test_set_precision_inside_a_precision_block_re_enters_the_lock():
    # the lock is re-entrant: in the block's own thread set_precision sets the block's
    # precision at once, and the block puts back the one it found on exit
    before = get_precision()
    seen = []

    def nested():
        with precision(128):
            set_precision(64)
            seen.append(get_precision())
        seen.append(get_precision())

    runner = threading.Thread(target=nested, daemon=True)
    runner.start()
    runner.join(timeout=10)  # a lock that is not re-entrant would block here
    assert not runner.is_alive() and seen == [64, before]


@pytest.mark.parametrize("bits", (128.9, 128.0, "300", True))
def test_a_precision_that_is_not_an_int_is_refused(bits):
    before = get_precision()
    with pytest.raises(ValueError) as info:
        set_precision(bits)
    assert str(info.value) == f"precision must be an integer, got {bits!r}"
    with pytest.raises(ValueError) as info:
        with precision(bits):
            pass
    assert str(info.value) == f"precision must be an integer, got {bits!r}"
    assert get_precision() == before


def test_to_decimal_format():
    set_precision(256)
    assert to_decimal("0.000123456789", 8) == "1.2345679e-04"
    assert to_decimal("1.5", 3) == "1.50e+00"
    assert to_decimal("-3.5e-120", 4) == "-3.500e-120"
    assert to_decimal(0, 5) == "0.0000e+00"
    assert to_decimal(12345, 2) == "1.2e+04"
    # a diverged iterate prints by name
    assert to_decimal(mpf("nan"), 6) == "nan"
    assert to_decimal(mpf("inf"), 6) == "inf"
    assert to_decimal(float("-inf"), 6) == "-inf"
    for digits in (0, -3):
        with pytest.raises(ValueError, match="digits must be positive"):
            to_decimal(1, digits)


@pytest.mark.parametrize("digits", [True, False, 2.5, 2.0, "3"], ids=repr)
def test_to_decimal_refuses_digits_that_are_not_an_int(digits):
    # a bool would read as 1 or 0 digits, a float fails inside libmp's formatter
    with pytest.raises(ValueError) as info:
        to_decimal(1, digits)
    assert str(info.value) == f"digits must be an integer, got {digits!r}"


# exact mpf values of random sign, mantissa and exponent; a mantissa of up to
# 4200 bits carries more bits than the working precision, which rounds first
_exact_mpfs = st.builds(
    lambda negative, man, exp: numerics.make_mpf(from_man_exp(-man if negative else man, exp)),
    st.booleans(), st.integers(min_value=1, max_value=2 ** 4200),
    st.integers(min_value=-20000, max_value=20000),
)
_scalars = st.one_of(
    _exact_mpfs,
    st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
    st.floats(),  # nan and the infinities included
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from([0, 0.0, -0.0, "0", "-0.000", mpf(0), mpf("inf"), mpf("-inf"), mpf("nan"),
                     "inf", "-inf", "nan", float("inf"), float("-inf")]),
)


@settings(max_examples=400, deadline=None)
@given(_scalars, st.integers(min_value=1, max_value=150),
       st.integers(min_value=64, max_value=4096))
def test_to_decimal_matches_the_nstr_formatter(value, digits, bits):
    with precision(bits):
        assert to_decimal(value, digits) == to_decimal_direct(value, digits)


def test_to_decimal_rounds_to_the_working_precision_first():
    x = numerics.make_mpf(from_man_exp(2 ** 100 + 1, -100))  # 1 + 2^-100, exactly
    with precision(64):
        assert to_decimal(x, 40) == "1." + "0" * 39 + "e+00"
        assert to_decimal(x, 40) == to_decimal_direct(x, 40)
    with precision(128):
        assert to_decimal(x, 40) == "1.000000000000000000000000000000788860905e+00"


def test_decimal_round_trip_exact_cases():
    set_precision(256)
    x = real("0.739085133215160641655312087673873404013411758900757464965680635773")
    assert mpf(to_decimal(x, 70)) == pytest.approx(float(x))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.booleans(),
    st.booleans(),
)
def test_add_then_subtract_within_one_ulp(a, b, na, nb):
    set_precision(256)
    x = real(repr(a)) * (-1 if na else 1)
    y = real(repr(b)) * (-1 if nb else 1)
    recovered = (x + y) - y
    # one rounding of the intermediate sum is the only damage
    assert abs(recovered - x) <= ulp(max(abs(x + y), abs(x)))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-8, max_value=1e8, allow_nan=False),
    st.integers(min_value=1, max_value=70),
)
def test_decimal_round_trip_to_d_digits(value, digits):
    set_precision(256)
    x = real(repr(value))
    emitted = to_decimal(x, digits)
    recovered = mpf(emitted)
    assert abs(recovered - x) <= abs(x) * mpf(10) ** (1 - digits)


def test_values_survive_precision_changes_deterministically():
    with precision(128):
        a = cos(3)
    with precision(128):
        b = cos(3)
    assert a == b
