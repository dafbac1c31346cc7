"""Exact circle-valued phases and degree helpers."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgt import degrees as dg
from kgt.errors import DegreeOutOfRange, ParseError
from kgt.phases import ONE, Phase, format_angle, parse_angle, product


def test_exact_turns_multiply_exactly():
    a = Phase.from_turns(Fraction(1, 3))
    b = Phase.from_turns(Fraction(1, 6))
    assert a * b == Phase.from_turns(Fraction(1, 2))
    assert (a * b).value() == pytest.approx(-1.0)


def test_exact_radians_and_turns_mix():
    r = Phase.exact_radians(Fraction(1))  # e^{i}
    t = Phase.from_turns(Fraction(1, 4))
    z = r * t
    assert z.is_exact
    assert complex(z) == pytest.approx(cmath.exp(1j * (1 + math.pi / 2)))


def test_radian_irrationality_separates_components():
    # e^{i pi/2} as a turn is not the phase e^{i * 1.5707963...} unless exact
    t = Phase.from_turns(Fraction(1, 4))
    r = Phase.exact_radians(Fraction(157, 100))
    assert t != r
    assert t.close(r, tol=1e-2)
    assert not t.close(r, tol=1e-4)


def test_exact_equality_has_zero_tolerance():
    a = Phase.exact_radians(Fraction(1, 3))
    b = Phase.exact_radians(Fraction(1, 3))
    assert a == b and a.close(b, tol=0.0)


def test_conj_and_pow():
    a = Phase.from_turns(Fraction(1, 8))
    assert a * a.conj() == ONE
    assert a**8 == ONE
    assert a**-1 == a.conj()


def test_inexact_fallback():
    z = Phase.from_complex(cmath.exp(0.7j))
    assert not z.is_exact
    assert (z * z.conj()).close(ONE)


def test_product_helper():
    ps = [Phase.from_turns(Fraction(1, 5))] * 5
    assert product(ps) == ONE


def test_parse_and_format_round_trip():
    p = parse_angle("3/8 turn")
    assert p == Phase.from_turns(Fraction(3, 8))
    assert format_angle(p) == "3/8 turn"
    q = parse_angle("1.5707963267948966")
    assert q.close(Phase.from_turns(Fraction(1, 4)), tol=1e-12)
    with pytest.raises(ParseError):
        parse_angle("half a turn")


@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
def test_format_angle_is_inverse_to_parse_angle_on_exact_phases(t, r):
    p = Phase.from_turns(t) * Phase.exact_radians(r)
    back = parse_angle(format_angle(p))
    assert back == p and back.is_exact


def test_format_angle_forms():
    assert format_angle(Phase.from_turns(Fraction(3, 8))) == "3/8 turn"
    assert format_angle(ONE) == "0 turn"
    assert format_angle(Phase.exact_radians(4)) == "4 rad"
    assert format_angle(Phase.exact_radians(Fraction(-3, 2))) == "-3/2 rad"
    assert format_angle(Phase.from_turns(Fraction(1, 3)) * Phase.exact_radians(4)) == "1/3 turn + 4 rad"
    assert format_angle(Phase.from_radians(0.7)) == 0.7


def test_parse_angle_returns_a_phase_as_is():
    for p in (Phase.from_turns(Fraction(1, 3)), Phase.exact_radians(2), Phase.from_radians(0.7)):
        assert parse_angle(p) is p


def test_parse_angle_reads_a_string_as_the_wire_format():
    assert parse_angle("3/8 turn") == parse_angle(" 3/8 ") == Phase.from_turns(Fraction(3, 8))
    assert parse_angle("1") == ONE
    assert parse_angle("4 rad") == Phase.exact_radians(4)
    assert parse_angle("-3/2 rad") == Phase.exact_radians(Fraction(-3, 2))
    assert parse_angle("1/3 turn + 4 rad") == Phase.from_turns(Fraction(1, 3)) * Phase.exact_radians(4)
    assert parse_angle("4/3 turn + 0 rad") == Phase.from_turns(Fraction(1, 3))
    q = parse_angle("0.7")
    assert not q.is_exact and q == Phase.from_radians(0.7)
    for bad in ("half a turn", "1/0 turn", "inf rad", "x turn + 1 rad", "inf", "nan"):
        with pytest.raises(ParseError):
            parse_angle(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_parse_angle_refuses_a_bool(flag):
    with pytest.raises(ParseError):
        parse_angle(flag)


def test_parse_angle_reads_a_rational_number_as_exact_radians():
    assert parse_angle(1) == Phase.exact_radians(1)
    assert parse_angle(-3) == Phase.exact_radians(-3)
    assert parse_angle(Fraction(1, 3)) == Phase.exact_radians(Fraction(1, 3))
    assert parse_angle(np.int64(1)) == Phase.exact_radians(1)
    assert all(parse_angle(x).is_exact for x in (1, Fraction(1, 3), np.int64(1), np.uint8(7)))


def test_parse_angle_reads_any_other_real_number_as_float_radians():
    for x in (0.1, 4.0, np.float64(0.1), np.float32(0.1)):
        p = parse_angle(x)
        assert not p.is_exact and p == Phase.from_radians(float(x))
    for bad in (math.inf, -math.inf, math.nan, np.float64("nan")):
        with pytest.raises(ParseError):
            parse_angle(bad)


def test_parse_angle_reads_a_complex_number_as_its_direction():
    p = parse_angle(3j)
    assert not p.is_exact and p == Phase.from_complex(3j)
    assert parse_angle(np.complex128(-2)) == Phase.from_complex(-1)
    for bad in (0j, complex(math.inf, 0), complex(0, math.nan)):
        with pytest.raises(ParseError):
            parse_angle(bad)


@pytest.mark.parametrize("bad", [None, [1], {"turns": 1}, b"1/3 turn"])
def test_parse_angle_refuses_any_other_value(bad):
    with pytest.raises(ParseError):
        parse_angle(bad)


@given(st.fractions(max_denominator=64), st.fractions(max_denominator=64))
def test_turn_group_law(x, y):
    assert Phase.from_turns(x) * Phase.from_turns(y) == Phase.from_turns(x + y)


# -- degree helpers ----------------------------------------------------------


def test_degree_arithmetic():
    assert dg.add((1, 2), (3, 0)) == (4, 2)
    assert dg.sub((3, 2), (1, 2)) == (2, 0)
    assert dg.join((1, 2), (3, 0)) == (3, 2)
    assert dg.total((1, 2)) == 3
    assert dg.leq((1, 2), (1, 3)) and not dg.leq((2, 0), (1, 3))


def test_degree_validation():
    with pytest.raises(DegreeOutOfRange):
        dg.as_degree((1, -1), 2)
    with pytest.raises(DegreeOutOfRange):
        dg.as_degree((1,), 2)


def test_degrees_upto_is_graded_lexicographic():
    got = dg.degrees_upto((1, 1))
    assert got == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_splits_enumerates_ordered_decompositions():
    got = dg.splits((1, 1), 2)
    assert ((0, 0), (1, 1)) in got
    assert ((1, 0), (0, 1)) in got
    assert len(got) == 4
