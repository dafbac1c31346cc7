"""Small helpers for N^k degree vectors, represented as int tuples."""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .errors import DegreeOutOfRange

Degree = tuple[int, ...]


def as_degree(value, k: int) -> Degree:
    """Coerce value to a length-k tuple of nonnegative ints."""
    if type(value) is tuple and len(value) == k:
        # already canonical: returned as is (bool and other int subclasses
        # are not plain ints and take the coercing path below)
        for x in value:
            if type(x) is not int or x < 0:
                break
        else:
            return value
    try:
        deg = tuple(int(x) for x in value)
    except TypeError:
        raise DegreeOutOfRange(f"degree {value!r} is not a vector", value) from None
    if len(deg) != k:
        raise DegreeOutOfRange(f"degree {deg} has length {len(deg)}, expected {k}", deg)
    if any(x < 0 for x in deg):
        raise DegreeOutOfRange(f"degree {deg} has a negative entry", deg)
    return deg


def zero(k: int) -> Degree:
    return (0,) * k


def unit(k: int, i: int) -> Degree:
    """Standard generator e_i (colors are 1-based)."""
    return tuple(1 if j == i - 1 else 0 for j in range(k))


def add(m: Degree, n: Degree) -> Degree:
    return tuple(a + b for a, b in zip(m, n))


def sub(m: Degree, n: Degree) -> Degree:
    """m - n, requiring n <= m componentwise."""
    if not leq(n, m):
        raise DegreeOutOfRange(f"{n} is not componentwise <= {m}", (m, n))
    return tuple(a - b for a, b in zip(m, n))


def join(m: Degree, n: Degree) -> Degree:
    """Componentwise maximum."""
    return tuple(max(a, b) for a, b in zip(m, n))


def leq(m: Degree, n: Degree) -> bool:
    return all(a <= b for a, b in zip(m, n))


def total(m: Degree) -> int:
    return sum(m)


def degrees_upto(cap: Degree) -> tuple[Degree, ...]:
    """All degree vectors <= cap, in graded lexicographic order."""
    ranges = [range(c + 1) for c in cap]
    return tuple(sorted(itertools.product(*ranges), key=lambda d: (sum(d), d)))


def splits(n: Degree, parts: int) -> tuple[tuple[Degree, ...], ...]:
    """All ordered decompositions of n into `parts` nonnegative summands."""
    if parts == 1:
        return ((n,),)
    out = []
    for first in itertools.product(*(range(c + 1) for c in n)):
        rest = tuple(a - b for a, b in zip(n, first))
        for tail in splits(rest, parts - 1):
            out.append((tuple(first),) + tail)
    return tuple(out)
