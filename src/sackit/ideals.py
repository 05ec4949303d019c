"""Monomial ideals of a numerical semigroup ring and Ulrich verification.

A (semigroup) ideal is a set E of members closed under adding members,
stored by its minimal generator degrees alone: x lies in E exactly when
x - g is a member for some generator g (Rosales & Garcia-Sanchez 2009,
ch. 1-2).  A length or a complement needs, like the semigroup, the least
element of E in each residue class mod the multiplicity m, from which E
meets class r in steps of m.  That table, the least of the tables of g + H
over the generators g, is built when a length first needs it and kept with
the ideal; the same step from the table of I^i gives that of I^(i+1), so a
power layer costs m * mu(I) however many generators I^i has.
``sackit.semigroup`` reads lengths and complements off two tables.

The module also carries ulrich_rank_formula, the predicted free rank of a
power layer, which `ideal powers` compares with the enumerated layers and
`lemma42` sums.  Everything is integer arithmetic; there is no floating
point in this package.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

from ._record import Record
from .errors import SackitError, TooLarge
from .semigroup import NumericalSemigroup, _Shifted, _between, _check_table, _length, _sum_of

# Most steps one power_layer_lengths sweep takes.  It builds up_to + 1
# tables, each the least of mu rows of m residues; _ROW_STEPS is the fixed
# cost of a row, the line `ideal powers` prints for it included.  The largest
# accepted `ideal powers` sweep takes about 2 s on 2 vCPU (Python 3.11), at
# m = 10^6 with mu = 2 and at m <= 3 with mu = 1
MAX_POWER_STEPS = 10_000_000
_ROW_STEPS = 22


class SemigroupIdeal(Record):
    """Ideal of a numerical semigroup, given by minimal generator degrees.

    Build it with :meth:`from_generators`, which minimalizes the degrees.
    """

    ambient: NumericalSemigroup
    generators: tuple[int, ...]

    @classmethod
    def from_generators(cls, ambient: NumericalSemigroup, degrees) -> "SemigroupIdeal":
        """Minimalize ``degrees`` and build the ideal they generate.

        Every degree must be a member of the ambient semigroup.
        """
        degs = sorted(set(int(d) for d in degrees))
        for d in degs:
            if not ambient.contains(d):
                raise SackitError(f"{d} is not a member of <{ambient}>")
        # d is redundant when d - e is a nonzero member for a smaller degree
        # e, and then also for a smaller minimal one
        return cls(ambient, tuple(d for d in degs if not _sum_of(ambient._apery, degs, d)))

    def member(self, x: int) -> bool:
        """Whether x = g + h for a generator g and a member h: x is a
        generator, or h is nonzero."""
        gens = self.generators
        is_generator = bisect_left(gens, x) < bisect_right(gens, x)
        return is_generator or _sum_of(self.ambient._apery, gens, x)

    def is_empty(self) -> bool:
        return not self.generators

    @cached_property
    def _least(self):
        """Least element in each residue class mod m: the least of the tables
        of g + H, built on the first length and kept (a principal ideal keeps
        the shifted table of H).  The zero ideal has no finite length and
        never builds one."""
        return _plus(self.ambient._apery, self.generators)

    # -- arithmetic --------------------------------------------------------

    def product(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        """Ideal generated by all pairwise generator sums."""
        if self.ambient != other.ambient:
            raise SackitError(f"<{self.ambient}> vs <{other.ambient}>")
        sums = {a + b for a in self.generators for b in other.generators}
        return SemigroupIdeal.from_generators(self.ambient, sums)

    def power(self, exponent: int) -> "SemigroupIdeal":
        """The exponent-fold product, by repeated squaring: O(log exponent)
        products.  No command path calls it: the tests hold it as the oracle
        of the power tables and of R-CI's count of atoms over k[H]/I^p."""
        if exponent < 1:
            raise SackitError(f"power wants exponent >= 1, got {exponent}")
        out, square = None, self
        while True:
            if exponent & 1:
                out = square if out is None else out.product(square)
            exponent >>= 1
            if not exponent:
                return out
            square = square.product(square)

    # -- lengths -----------------------------------------------------------

    def colength(self) -> int:
        """Number of semigroup members outside the ideal (the length of the
        quotient by the ideal)."""
        return _length(*self._outside())

    def complement(self) -> tuple[int, ...]:
        """The sorted members outside the ideal; TooLarge past MAX_DIMENSION."""
        return _between(*self._outside())

    def relative_length(self, other: "SemigroupIdeal") -> int:
        """Length of (this ideal) / (other ideal); requires other <= this."""
        if self.ambient != other.ambient:
            raise SackitError(f"<{self.ambient}> vs <{other.ambient}>")
        if other.is_empty():
            raise SackitError("relative length against the zero ideal is infinite")
        for g in other.generators:
            if not self.member(g):
                raise SackitError(f"generator {g} of the smaller ideal is outside the larger one")
        return _length(self._least, other._least)

    def _outside(self):
        """The tables of H and of this ideal, which bound its complement."""
        if self.is_empty():
            raise SackitError("the zero ideal has infinite colength")
        return self.ambient._apery, self._least

    def mu(self) -> int:
        """Minimal number of generators.

        For a monomial ideal this is the number of minimal generator
        degrees; the set identity E \\ ((H \\ {0}) + E) is asserted in the
        test suite.
        """
        return len(self.generators)

    def __str__(self) -> str:
        return ",".join(str(g) for g in self.generators)


class UlrichReport(Record):
    """Outcome of an Ulrich verification for a fixed reduction witness.

    free_rank is layer_length / colength when that is an integer, else None;
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


def is_ulrich(ideal: SemigroupIdeal, q: int) -> UlrichReport:
    """Verify the Ulrich property of ``ideal`` against the principal
    reduction (q).

    Two exact length checks on layer_length = l(ideal/ideal^2): stability,
    ideal^2 = q + ideal, holds exactly when layer_length == q, as q + ideal <=
    ideal^2 and l(ideal/(q + ideal)) = q; freeness of ideal/ideal^2 over the
    quotient holds exactly when layer_length == mu * colength.
    """
    if q <= 0:
        raise SackitError(f"reduction witness must be positive, got {q}")
    if not ideal.member(q):
        raise SackitError(f"{q} is not in the ideal ({ideal})")
    col = ideal.colength()
    c = ideal.mu()
    layer = _length(ideal._least, _plus(ideal._least, ideal.generators))
    stable = layer == q
    free = stable and layer == c * col
    return UlrichReport(
        is_ulrich=free,
        reduction_q=q if stable else None,
        colength=col,
        mu=c,
        layer_length=layer,
        free_rank=layer // col if col and layer % col == 0 else None,
    )


def search_reduction(ideal: SemigroupIdeal) -> int | None:
    """The positive generator q with ideal^2 = q + ideal, if there is one.

    Only q = min(ideal) can be such a witness: 2 * min(ideal) lies in
    ideal^2 = q + ideal, so q <= min(ideal), and q lies in the ideal, so
    q >= min(ideal).  So one stability test decides, and the unit ideal
    (0) has no witness.  Only the stability half of the Ulrich test is
    searched, pair by pair with no residue table; run is_ulrich on the
    witness for the full verification.
    """
    q = min(ideal.generators, default=0)
    return q if q > 0 and _stable(ideal, q) else None


def _stable(ideal: SemigroupIdeal, q: int) -> bool:
    """Whether ideal^2 = q + ideal: every pairwise generator sum minus q
    stays in the ideal."""
    return all(
        ideal.member(a + b - q)
        for a, b in combinations_with_replacement(ideal.generators, 2)
    )


def power_layer_lengths(ideal: SemigroupIdeal, up_to: int) -> tuple[int, ...]:
    """Lengths of ideal^i / ideal^(i+1) for i = 1..up_to, each table a step
    from the one before; TooLarge, before the first layer, past
    MAX_POWER_STEPS."""
    if up_to < 1:
        raise SackitError(f"want up_to >= 1, got {up_to}")
    if (up_to + 1) * ideal.mu() * (ideal.ambient.multiplicity + _ROW_STEPS) > MAX_POWER_STEPS:
        raise TooLarge(f"a sweep of {up_to} power layers takes more than the supported "
                       f"{MAX_POWER_STEPS} steps")
    if ideal.is_empty():
        raise SackitError("relative length against the zero ideal is infinite")
    # the last table, of I^(up_to + 1), has the largest entries
    _check_table(len(ideal.ambient._apery),
                 max(ideal.ambient._apery) + (up_to + 1) * ideal.generators[0])
    out, table = [], tuple(ideal._least)
    for _ in range(up_to):
        # a tuple: a chain of lazy views would walk every earlier table again
        below = tuple(_plus(table, ideal.generators))
        out.append(_length(table, below))
        table = below
    return tuple(out)


def _plus(table, gens):
    """The table of gens + S from that of S: the least of the tables of
    g + S, lazy (_Shifted) for one g."""
    rows = [_Shifted(table, g) for g in gens]
    if len(rows) == 1:
        return rows[0]
    _check_table(len(table), max(table) + min(gens))  # the row of min(gens) bounds the least
    return tuple(map(min, *rows))


def ulrich_rank_formula(n: int, c: int, i: int) -> int:
    """Predicted free rank of the i-th power layer: binomial(i+n-1, n-1) +
    (c-n) * binomial(i-2+n, n-1), for ambient dimension n and mu = c."""
    if n < 1 or i < 1:
        raise SackitError(f"need n >= 1 and i >= 1, got n={n}, i={i}")
    if c < n:
        raise SackitError(f"need c >= n, got c={c} < n={n}")
    return comb(i + n - 1, n - 1) + (c - n) * comb(i - 2 + n, n - 1)

