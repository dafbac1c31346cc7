"""Exception types shared across the package.

Every structural failure carries a machine-usable witness (the offending
datum) so callers and the CLI can report minimal counterexamples.
"""

from __future__ import annotations

from typing import Any


class KgtError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class MalformedSkeleton(KgtError):
    """A skeleton references unknown ids, duplicates ids, or has bad arity."""


class SquareNotBijective(KgtError):
    """A color-pair square table is not a bijection between composable pairs."""


class EndpointMismatch(KgtError):
    """A square entry pairs factorizations with different range or source."""


class HexagonViolation(KgtError):
    """Two swap orders of a tri-colored composable triple disagree."""


class NotComposable(KgtError):
    """Paths with mismatched source/range were composed."""


class DegreeOutOfRange(KgtError):
    """A degree vector has the wrong length or a negative entry."""


class DegreeMismatch(KgtError):
    """Operands have different (module) degrees."""


class DegreeNotDominated(KgtError):
    """A degree/depth that must dominate another componentwise does not."""


class UnknownFixture(KgtError):
    """Requested builtin fixture name does not exist."""


class NotAFunctor(KgtError):
    """An edge labelling fails multiplicativity across a square."""


class NotBetaInvariant(KgtError):
    """A labelling is not invariant under the given lattice action."""


class NotACocycle(KgtError):
    """A value table fails the cocycle identities."""


class GraphMismatch(KgtError):
    """A cocycle or construction was paired with the wrong graph."""


class CapTooSmallForRequestedDegree(KgtError):
    """A table cocycle was asked for a pair past its stored cap, or one it lacks."""


class NotSectionDecomposable(KgtError):
    """A function's support is not covered by the provided sections."""


class DegreeExceedsTruncation(KgtError):
    """An operator of degree beyond the Fock truncation was requested."""


class DepthOverflow(KgtError):
    """A cylinder element is too deep for the Fock model's depth budget."""


class GenerationExhausted(KgtError):
    """The random generator ran out of retry budget."""


class UnknownCheck(KgtError):
    """A suite selector matched no registered check."""


class ParseError(KgtError):
    """A document failed to parse or validate against its schema."""


class FockSpaceTooLarge(KgtError):
    """One dense operator on the requested Fock space would exceed the byte limit."""
