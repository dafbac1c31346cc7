"""Unit-circle scalars with exact or floating representation.

An exact phase is exp(2*pi*i*t + i*r) with t, r rational (t = turns, r =
radians).  Because pi is irrational this form is canonical once t is reduced
mod 1: two exact phases are equal iff their reduced turn parts and their
radian parts agree, so equality is decided by integer arithmetic.  The radian
slot exists so that angles like "one radian per unit of degree" stay exact
under products and powers.  Anything else falls back to a complex number of
modulus one.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
from fractions import Fraction

from .errors import ParseError

_TWO_PI = 2.0 * math.pi

# the exact wire forms with a radian part: "r rad" and "t turn + r rad"
_RAD_FORM = re.compile(r"(?:(\S+)\s*turn\s*\+\s*)?(\S+)\s*rad")


class Phase:
    """An element of the circle group, exact when possible."""

    __slots__ = ("_turns", "_rads", "_z")

    def __init__(self, turns: Fraction | None, rads: Fraction | None, z: complex | None):
        self._turns = turns
        self._rads = rads
        self._z = z

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "Phase":
        return cls(Fraction(0), Fraction(0), None)

    @classmethod
    def from_turns(cls, t) -> "Phase":
        t = Fraction(t)
        return cls(t % 1, Fraction(0), None)

    @classmethod
    def exact_radians(cls, r) -> "Phase":
        return cls(Fraction(0), Fraction(r), None)

    @classmethod
    def from_radians(cls, r: float) -> "Phase":
        """Floating-point angle in radians (inexact)."""
        return cls(None, None, cmath.exp(1j * float(r)))

    @classmethod
    def from_complex(cls, z: complex) -> "Phase":
        a = abs(z)
        if a == 0:
            raise ValueError("zero is not a phase")
        return cls(None, None, z / a)

    # -- properties --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._turns is not None

    @property
    def turns(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("inexact phase has no turn part")
        return self._turns

    @property
    def rads(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("inexact phase has no radian part")
        return self._rads

    def value(self) -> complex:
        if self.is_exact:
            return cmath.exp(1j * (_TWO_PI * float(self._turns) + float(self._rads)))
        return self._z

    def __complex__(self) -> complex:
        return self.value()

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Phase") -> "Phase":
        if self.is_exact and other.is_exact:
            return Phase((self._turns + other._turns) % 1, self._rads + other._rads, None)
        return Phase(None, None, self.value() * other.value())

    def conj(self) -> "Phase":
        if self.is_exact:
            return Phase((-self._turns) % 1, -self._rads, None)
        return Phase(None, None, self._z.conjugate())

    def __pow__(self, n: int) -> "Phase":
        n = int(n)
        if self.is_exact:
            return Phase((n * self._turns) % 1, n * self._rads, None)
        return Phase(None, None, self._z**n)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self._turns == other._turns and self._rads == other._rads
        return self.value() == other.value()

    def __hash__(self) -> int:
        if self.is_exact:
            return hash((self._turns, self._rads))
        return hash(self._z)

    def close(self, other: "Phase", tol: float = 1e-9) -> bool:
        """Equality up to tol; tol = 0 demands exact structural equality."""
        if self.is_exact and other.is_exact and self == other:
            return True
        if tol == 0:
            return self == other
        return abs(self.value() - other.value()) <= tol

    def __repr__(self) -> str:
        return f"Phase({format_angle(self) if self.is_exact else repr(self._z)})"


ONE = Phase.one()


def product(phases) -> Phase:
    out = ONE
    for p in phases:
        out = out * p
    return out


def parse_angle(x) -> Phase:
    """Read an outside angle, one rule per kind of value: a Phase is itself;
    a str is the wire format; a bool is refused; any other rational number
    (int, Fraction, numpy integers) is exact radians; any other real number
    is float radians; a complex number is its direction, Phase.from_complex.

    The wire format: 'p/q turn', 'p/q' and an integer such as '1' are exact
    turns; 'r rad' and 't turn + r rad' (t, r rational) are exact; anything
    else is float radians.  Non-finite radians, zero and any other kind of
    value name no phase and raise ParseError."""
    if isinstance(x, Phase):
        return x
    if isinstance(x, str):
        s = x.strip()
        try:
            if m := _RAD_FORM.fullmatch(s):
                return Phase(Fraction(m[1] or 0) % 1, Fraction(m[2]), None)
            if s.endswith("turn"):
                return Phase.from_turns(Fraction(s[: -len("turn")].strip()))
            if "/" in s:
                return Phase.from_turns(Fraction(s))
            try:
                return Phase.from_turns(Fraction(int(s)))
            except ValueError:
                rads = float(s)
        except (ValueError, ZeroDivisionError) as err:
            raise ParseError(f"cannot read angle {x!r}", x) from err
    elif isinstance(x, bool) or not isinstance(x, numbers.Complex):
        raise ParseError(f"cannot read angle {x!r}", x)
    elif isinstance(x, numbers.Rational):
        return Phase.exact_radians(Fraction(x.numerator, x.denominator))
    elif isinstance(x, numbers.Real):
        rads = float(x)
    else:
        z = complex(x)
        if not cmath.isfinite(z) or z == 0:
            raise ParseError(f"angle {x!r} is not a finite nonzero complex number", x)
        return Phase.from_complex(z)
    if not math.isfinite(rads):
        raise ParseError(f"angle {x!r} is not a finite number of radians", x)
    return Phase.from_radians(rads)


def format_angle(p: Phase) -> str | float:
    """The wire form of p, which parse_angle reads back as p when p is exact:
    'p/q turn' for a pure turn, 'r rad' or 't turn + r rad' for any other
    exact value, and float radians for an inexact one."""
    if not p.is_exact:
        return float(cmath.phase(p.value()))
    if p.rads == 0:
        return f"{p.turns} turn"
    if p.turns == 0:
        return f"{p.rads} rad"
    return f"{p.turns} turn + {p.rads} rad"
