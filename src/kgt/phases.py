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
from fractions import Fraction

from .errors import ParseError

_TWO_PI = 2.0 * math.pi


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
        if self.is_exact:
            if self._rads == 0:
                return f"Phase({self._turns} turn)"
            if self._turns == 0:
                return f"Phase({self._rads} rad)"
            return f"Phase({self._turns} turn + {self._rads} rad)"
        return f"Phase({self._z!r})"


ONE = Phase.one()


def product(phases) -> Phase:
    out = ONE
    for p in phases:
        out = out * p
    return out


def parse_angle(text) -> Phase:
    """Parse the wire format: 'p/q' (or 'p/q turn') exactly, else float radians.

    A string holding an integer is whole turns; an integer number is exact
    radians, as cocycle.as_phase reads it; any other number is float radians.
    Non-finite radians (NaN, infinities) name no phase and are refused."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Phase.exact_radians(text)
    if isinstance(text, float):
        rads = text
    else:
        s = str(text).strip()
        try:
            if s.endswith("turn"):
                return Phase.from_turns(Fraction(s[: -len("turn")].strip()))
            if "/" in s:
                return Phase.from_turns(Fraction(s))
            try:
                return Phase.from_turns(Fraction(int(s)))
            except ValueError:
                rads = float(s)
        except (ValueError, ZeroDivisionError) as err:
            raise ParseError(f"cannot read angle {text!r}", text) from err
    if not math.isfinite(rads):
        raise ParseError(f"angle {text!r} is not a finite number of radians", text)
    return Phase.from_radians(rads)


def format_angle(p: Phase) -> str | float:
    """Emit 'p/q turn' for pure-turn exact phases, else float radians."""
    if p.is_exact and p.rads == 0:
        return f"{p.turns} turn"
    if p.is_exact:
        return float(_TWO_PI * p.turns) + float(p.rads)
    return float(cmath.phase(p.value()))
