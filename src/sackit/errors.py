"""Exception hierarchy shared by every sackit module.

Everything user-facing derives from SackitError so that the CLI can map
domain failures to a single exit code.  Usage errors (bad flags, malformed
descriptor strings) are raised as MalformedDescriptor or left to the CLI
parser.
"""


class SackitError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(SackitError):
    """An operation received an empty or non-positive input where a
    nonempty positive one is required."""


class GcdNotOne(SackitError):
    """Generators do not have greatest common divisor 1, so they do not
    generate a numerical semigroup."""


class NotAMember(SackitError):
    """An integer was required to lie in a numerical semigroup but does not."""


class NotCoprime(SackitError):
    """Two integers were required to be coprime but are not."""


class IsMinimalGenerator(SackitError):
    """A gluing multiplier must not be a minimal generator of the inner
    semigroup."""


class AmbientMismatch(SackitError):
    """Two ideals living over different semigroups were combined."""


class EmptyIdeal(SackitError):
    """The zero ideal has no colength; an operation required a nonempty
    monomial ideal."""


class NotContained(SackitError):
    """relative_length(I, J) requires J to be contained in I."""


class NotInIdeal(SackitError):
    """A reduction witness must be a member of the ideal it reduces."""


class NonPositive(SackitError):
    """A strictly positive integer argument was zero or negative."""


class DomainError(SackitError):
    """Numeric arguments fell outside the mathematical domain of a formula."""


class TooLarge(DomainError):
    """An object would be above a size cap (MAX_MULTIPLICITY, MAX_DIMENSION);
    raised before anything of that size is allocated."""


class ShapeMismatch(SackitError):
    """A presentation matrix has inconsistent row or column lengths."""


class AlgebraMismatch(SackitError):
    """Two modules over different algebras (or different characteristics)
    were combined."""


class NonMinimalInput(SackitError):
    """syzygy_step requires a minimal presentation matrix: every entry in
    the radical and no redundant column."""


class UnknownPremiseKind(SackitError):
    """The certificate engine was asked to verify a premise outside its
    closed vocabulary."""


class MalformedDescriptor(SackitError):
    """A ring descriptor string does not parse under the documented
    mini-grammar."""
