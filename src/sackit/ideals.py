"""Monomial ideals of a numerical semigroup ring and Ulrich verification.

A (semigroup) ideal is a set E of members closed under adding members,
stored by its minimal generator degrees and, like its semigroup, by its
least element in each residue class mod the multiplicity m: E meets class
r in the progression from there in steps of m.  Membership is one
comparison, complements are unions of m finite progressions, and lengths
of quotients are sums of m differences.

The module also carries the arithmetic used to compare power layers with
their predicted free ranks: ulrich_rank_formula, estimate_ratio_holds and
cumulative_rank_identity.  Everything is integer arithmetic; there is no
floating point in this package.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from ._record import Record
from .errors import (
    AmbientMismatch,
    DomainError,
    EmptyIdeal,
    EmptyInput,
    NonPositive,
    NotAMember,
    NotContained,
    NotInIdeal,
)
from .semigroup import NumericalSemigroup, check_dimension


class SemigroupIdeal:
    """Ideal of a numerical semigroup, given by minimal generator degrees."""

    __slots__ = ("ambient", "generators", "_least")

    def __init__(self, ambient: NumericalSemigroup, generators: tuple[int, ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", generators)
        # least element in each residue class mod m; () for the zero ideal.
        # Over r, g + ap[(r - g) % m] is ap rotated by g mod m, plus g.
        m, ap = ambient.multiplicity, ambient._apery
        rows = [map(g.__add__, ap[-(g % m):] + ap[:-(g % m)]) for g in generators]
        least = tuple(map(min, *rows) if len(rows) > 1 else rows[0]) if rows else ()
        object.__setattr__(self, "_least", least)

    def __setattr__(self, name, value):
        raise AttributeError("SemigroupIdeal is immutable")

    @classmethod
    def from_generators(cls, ambient: NumericalSemigroup, degrees) -> "SemigroupIdeal":
        """Minimalize ``degrees`` and build the ideal they generate.

        Every degree must be a member of the ambient semigroup.
        """
        degs = sorted(set(int(d) for d in degrees))
        for d in degs:
            if not ambient.contains(d):
                raise NotAMember(f"{d} is not a member of <{ambient}>")
        # d is redundant when d - e is a member for a smaller degree e, and
        # then also for a smaller minimal one
        minimal = []
        for d in degs:
            if not any(ambient.contains(d - e) for e in minimal):
                minimal.append(d)
        return cls(ambient, tuple(minimal))

    @classmethod
    def maximal_ideal(cls, ambient: NumericalSemigroup) -> "SemigroupIdeal":
        """The ideal of all nonzero members."""
        return cls(ambient, ambient.generators)

    def member(self, x: int) -> bool:
        """Whether x = g + h for a generator g and a member h."""
        return bool(self._least) and x >= self._least[x % len(self._least)]

    def is_empty(self) -> bool:
        return not self.generators

    # -- arithmetic --------------------------------------------------------

    def product(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        """Ideal generated by all pairwise generator sums."""
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"<{self.ambient}> vs <{other.ambient}>"
            )
        sums = {a + b for a in self.generators for b in other.generators}
        return SemigroupIdeal.from_generators(self.ambient, sums)

    def power(self, exponent: int) -> "SemigroupIdeal":
        """The exponent-fold product, by repeated squaring: O(log exponent)
        products."""
        if exponent < 1:
            raise NonPositive(f"power wants exponent >= 1, got {exponent}")
        out, square = None, self
        while True:
            if exponent & 1:
                out = square if out is None else out.product(square)
            exponent >>= 1
            if not exponent:
                return out
            square = square.product(square)

    def shift(self, q: int) -> "SemigroupIdeal":
        """The ideal q + E, i.e. the product with the principal ideal (q)."""
        if not self.ambient.contains(q):
            raise NotAMember(f"{q} is not a member of <{self.ambient}>")
        return SemigroupIdeal.from_generators(
            self.ambient, (q + g for g in self.generators)
        )

    # -- lengths -----------------------------------------------------------

    def colength(self) -> int:
        """Number of semigroup members outside the ideal (the length of the
        quotient by the ideal)."""
        ap, least = self._outside()
        return (sum(least) - sum(ap)) // len(ap)

    def complement(self) -> tuple[int, ...]:
        """The sorted members outside the ideal; TooLarge past MAX_DIMENSION."""
        check_dimension(self.colength())
        return _span(*self._outside())

    def relative_length(self, other: "SemigroupIdeal") -> int:
        """Length of (this ideal) / (other ideal); requires other <= this."""
        self._check_contains(other)
        return (sum(other._least) - sum(self._least)) // len(self._least)

    def relative_complement(self, other: "SemigroupIdeal") -> tuple[int, ...]:
        """Elements of this ideal outside ``other``, sorted; TooLarge past
        MAX_DIMENSION."""
        check_dimension(self.relative_length(other))
        return _span(self._least, other._least)

    def _outside(self):
        if self.is_empty():
            raise EmptyIdeal("the zero ideal has infinite colength")
        return self.ambient._apery, self._least

    def _check_contains(self, other: "SemigroupIdeal") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"<{self.ambient}> vs <{other.ambient}>")
        if other.is_empty():
            raise EmptyIdeal("relative length against the zero ideal is infinite")
        for g in other.generators:
            if not self.member(g):
                raise NotContained(
                    f"generator {g} of the smaller ideal is outside the larger one"
                )

    def mu(self) -> int:
        """Minimal number of generators.

        For a monomial ideal this is the number of minimal generator
        degrees; the set identity E \\ ((H \\ {0}) + E) is asserted in the
        test suite.
        """
        return len(self.generators)

    # -- plumbing ------------------------------------------------------------

    def __str__(self) -> str:
        return ",".join(str(g) for g in self.generators)

    def __repr__(self) -> str:
        return f"SemigroupIdeal(<{self.ambient}>, ({self}))"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemigroupIdeal):
            return NotImplemented
        return self.ambient == other.ambient and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.ambient, self.generators))


def _span(lo, hi) -> tuple[int, ...]:
    """Sorted union of the progressions range(lo[r], hi[r], m), where m is
    the number of residue classes."""
    m = len(lo)
    return tuple(sorted(x for a, b in zip(lo, hi) for x in range(a, b, m)))


class UlrichReport(Record):
    """Outcome of an Ulrich verification for a fixed reduction witness.

    free_rank is layer_length / colength when that is integral, else None;
    reduction_q is the witness when the stability test passed, else None.
    """

    is_ulrich: bool
    reduction_q: int | None
    colength: int
    mu: int
    layer_length: int
    free_rank: int | None

    def to_json_dict(self) -> dict:
        out: dict = {
            "is_ulrich": self.is_ulrich,
            "colength": self.colength,
            "mu": self.mu,
            "layer_length": self.layer_length,
        }
        if self.reduction_q is not None:
            out["reduction_q"] = self.reduction_q
        if self.free_rank is not None:
            out["free_rank"] = self.free_rank
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "UlrichReport":
        return cls(
            is_ulrich=data["is_ulrich"],
            reduction_q=data.get("reduction_q"),
            colength=data["colength"],
            mu=data["mu"],
            layer_length=data["layer_length"],
            free_rank=data.get("free_rank"),
        )


def is_ulrich(ideal: SemigroupIdeal, q: int) -> UlrichReport:
    """Verify the Ulrich property of ``ideal`` against the principal
    reduction (q).

    Two exact checks: stability (every pairwise generator sum minus q stays
    in the ideal, i.e. the ideal squared equals q plus the ideal) and
    freeness of ideal/ideal^2 over the quotient via the length criterion
    layer_length == mu * colength.
    """
    if q <= 0:
        raise NonPositive(f"reduction witness must be positive, got {q}")
    if not ideal.member(q):
        raise NotInIdeal(f"{q} is not in the ideal ({ideal})")
    stable = _stable(ideal, q)
    col = ideal.colength()
    c = ideal.mu()
    layer = ideal.relative_length(ideal.power(2))
    free = stable and layer == c * col
    return UlrichReport(
        is_ulrich=free,
        reduction_q=q if stable else None,
        colength=col,
        mu=c,
        layer_length=layer,
        free_rank=layer // col if layer % col == 0 else None,
    )


def search_reduction(ideal: SemigroupIdeal) -> int | None:
    """First generator (ascending) that is a stable reduction witness, if any.

    Only the stability half of the Ulrich test is searched; run is_ulrich
    on the witness for the full verification.
    """
    for q in ideal.generators:
        if _stable(ideal, q):
            return q
    return None


def _stable(ideal: SemigroupIdeal, q: int) -> bool:
    """Whether ideal^2 = q + ideal: every pairwise generator sum minus q
    stays in the ideal."""
    return all(
        ideal.member(a + b - q)
        for a, b in combinations_with_replacement(ideal.generators, 2)
    )


def power_layer_lengths(ideal: SemigroupIdeal, up_to: int) -> tuple[int, ...]:
    """Lengths of ideal^i / ideal^(i+1) for i = 1..up_to."""
    if up_to < 1:
        raise NonPositive(f"want up_to >= 1, got {up_to}")
    out, layer = [], ideal
    for _ in range(up_to):
        below = layer.product(ideal)
        out.append(layer.relative_length(below))
        layer = below
    return tuple(out)


def ulrich_rank_formula(n: int, c: int, i: int) -> int:
    """Predicted free rank of the i-th power layer: binomial(i+n-1, n-1) +
    (c-n) * binomial(i-2+n, n-1), for ambient dimension n and mu = c."""
    if n < 1 or i < 1:
        raise DomainError(f"need n >= 1 and i >= 1, got n={n}, i={i}")
    if c < n:
        raise DomainError(f"need c >= n, got c={c} < n={n}")
    return comb(i + n - 1, n - 1) + (c - n) * comb(i - 2 + n, n - 1)


def estimate_ratio_holds(ranks) -> bool:
    """Whether (1 + a_2 + ... + a_(l-1)) / a_l < 1 for the given layer rank
    chain (a_2, ..., a_l); evaluated by integer comparison, never floats."""
    chain = [int(a) for a in ranks]
    if not chain:
        raise EmptyInput("rank chain must contain at least a_2")
    if any(a <= 0 for a in chain):
        raise DomainError(f"ranks must be positive, got {chain}")
    return 1 + sum(chain[:-1]) < chain[-1]


def cumulative_rank_identity(n: int, c: int, length: int) -> bool:
    """Check that 1 plus the sum of the first layer ranks telescopes to
    binomial(length-2+n, n) + (c-n) * binomial(length-3+n, n).

    The left side sums ulrich_rank_formula(n, c, i) for i = 1..length-2,
    matching the rank chain of successive power layers; valid for
    3 <= length <= n and c >= n.
    """
    if not 3 <= length <= n:
        raise DomainError(f"need 3 <= length <= n, got length={length}, n={n}")
    if c < n:
        raise DomainError(f"need c >= n, got c={c} < n={n}")
    lhs = 1 + sum(ulrich_rank_formula(n, c, i) for i in range(1, length - 1))
    rhs = comb(length - 2 + n, n) + (c - n) * comb(length - 3 + n, n)
    return lhs == rhs


def ideal_to_text(ideal: SemigroupIdeal, q: int | None = None) -> str:
    """Render "H=...; I=...[; q=...]" for reports and round-trips."""
    base = f"H={ideal.ambient}; I={ideal}"
    return base if q is None else f"{base}; q={q}"


def ideal_from_text(text: str) -> tuple[SemigroupIdeal, int | None]:
    """Parse the ideal_to_text form back into (ideal, witness or None)."""
    fields: dict[str, str] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    if "H" not in fields or "I" not in fields:
        raise EmptyInput(f"ideal text needs H= and I= fields: {text!r}")
    ambient = NumericalSemigroup.from_text(fields["H"])
    try:
        gens = [int(p) for p in fields["I"].split(",") if p.strip()]
        q = int(fields["q"]) if "q" in fields else None
    except ValueError as exc:
        raise EmptyInput(f"bad I= or q= field in ideal text {text!r}") from exc
    return SemigroupIdeal.from_generators(ambient, gens), q
