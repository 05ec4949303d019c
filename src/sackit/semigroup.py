"""Numerical semigroups with exact integer arithmetic.

A numerical semigroup H is a subset of the nonnegative integers containing
0, closed under addition, whose complement is finite.  It is described here
by its minimal generating set and represented by its Apery set with respect
to the multiplicity m: Ap[r] is the least member congruent to r mod m.  Ap
is computed once, as shortest paths over the m residues with the generators
as edges (Boecker & Liptak 2007).  The standard facts (Rosales &
Garcia-Sanchez, *Numerical Semigroups*, 2009, ch. 1-2) then answer every
query in O(m) time and memory, however large the Frobenius number F:

- x is a member exactly when x >= Ap[x mod m];
- F = max(Ap) - m;
- the genus is sum(Ap)/m - (m-1)/2 (Selmer's formula);
- H is symmetric exactly when its genus is (F+1)/2.

Instances are immutable; every operation returns plain values or fresh
instances.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd

from .errors import (
    EmptyInput,
    GcdNotOne,
    IsMinimalGenerator,
    NotAMember,
    NotCoprime,
    TooLarge,
)

# The Apery set is a list of m integers; building it takes about 0.8 s and
# 65 MB per million residues (2 vCPU, Python 3.11).  This cap keeps one
# construction under a second and 100 MB, and turns a larger multiplicity
# into an error before anything is allocated.
MAX_MULTIPLICITY = 2**20

# k[H]/E of dimension 10^6 lists and indexes its basis in 1.6 s, 180 MB (2 vCPU).
MAX_DIMENSION = MAX_MULTIPLICITY


class NumericalSemigroup:
    """The submonoid of the nonnegative integers generated by ``generators``.

    Use :meth:`from_generators` (or :meth:`from_text`) rather than the raw
    constructor; they normalize the generating set to the minimal one and
    compute the Apery set of the multiplicity.
    """

    __slots__ = ("generators", "frobenius", "genus", "_apery")

    def __init__(self, generators, apery):
        m = generators[0]
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "frobenius", max(apery) - m)
        object.__setattr__(self, "genus", (2 * sum(apery) - m * (m - 1)) // (2 * m))
        object.__setattr__(self, "_apery", apery)

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

    @classmethod
    def from_generators(cls, generators) -> "NumericalSemigroup":
        """Build the semigroup, minimalizing the generating set.

        Raises EmptyInput for an empty list or non-positive entries,
        GcdNotOne when the generators do not have gcd 1 (the complement
        would be infinite), and TooLarge when the multiplicity is above
        MAX_MULTIPLICITY.
        """
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise EmptyInput("need at least one generator")
        if gens[0] <= 0:
            raise EmptyInput(f"generators must be positive, got {gens[0]}")
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g != 1:
            raise GcdNotOne(f"gcd of generators is {g}, not 1")

        m = gens[0]
        if m > MAX_MULTIPLICITY:
            raise TooLarge(
                f"multiplicity {m} is above the supported {MAX_MULTIPLICITY}"
            )
        apery = _apery(gens, m)
        # c is redundant exactly when c - h is a member for a smaller
        # generator h: every member below c is a sum of generators below c.
        minimal = tuple(
            c for c in gens
            if not any(c - h >= apery[(c - h) % m] for h in gens if h < c)
        )
        return cls(minimal, apery)

    @classmethod
    def from_text(cls, text: str) -> "NumericalSemigroup":
        """Parse the comma-separated generator form, e.g. ``"8,11,12,14,18"``."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise EmptyInput("empty generator list")
        try:
            gens = [int(p) for p in parts]
        except ValueError as exc:
            raise EmptyInput(f"bad generator list {text!r}") from exc
        return cls.from_generators(gens)

    # -- membership -----------------------------------------------------

    def contains(self, x: int) -> bool:
        """Whether ``x`` lies in the semigroup."""
        return x >= 0 and x >= self._apery[x % self.multiplicity]

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def members(self, count: int) -> tuple[int, ...]:
        """The first ``count`` members in increasing order, starting at 0."""
        out = []
        x = 0
        while len(out) < count:
            if self.contains(x):
                out.append(x)
            x += 1
        return tuple(out)

    def gaps(self) -> tuple[int, ...]:
        """All nonnegative integers outside the semigroup; TooLarge, before
        any is listed, when there are more than MAX_DIMENSION."""
        check_dimension(self.genus)
        return tuple(
            x for x in range(self.frobenius + 1) if not self.contains(x)
        )

    # -- invariants ------------------------------------------------------

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero member."""
        return self.generators[0]

    @property
    def embedding_dim(self) -> int:
        """Number of minimal generators."""
        return len(self.generators)

    def apery_set(self, q: int) -> tuple[int, ...]:
        """Smallest member in each residue class mod ``q``, sorted.

        ``q`` must be a nonzero member, and at most MAX_DIMENSION (else
        TooLarge, before anything is listed); the result has ``q`` elements
        and contains 0.  They are the members x with x - q no member: in the
        class of r mod m the members start at Ap[r] and those of q + H at
        q + Ap[(r - q) mod m], so the set is read off Ap in O(q).
        """
        if q <= 0 or not self.contains(q):
            raise NotAMember(f"{q} is not a nonzero member of <{self}>")
        check_dimension(q)
        m, ap = self.multiplicity, self._apery
        return tuple(sorted(
            x for r in range(m) for x in range(ap[r], q + ap[(r - q) % m], m)
        ))

    def is_gap_symmetric(self) -> bool:
        """Whether x is a member exactly when frobenius - x is a gap, for
        every x in [0, frobenius].  The gaps and the members of that window
        then pair off, so this holds exactly when 2 * genus = frobenius + 1."""
        return 2 * self.genus == self.frobenius + 1

    def has_minimal_multiplicity(self) -> bool:
        """Whether the embedding dimension equals the multiplicity."""
        return self.embedding_dim == self.multiplicity

    def has_almost_minimal_multiplicity(self) -> bool:
        """Whether the embedding dimension falls short of the multiplicity
        by exactly one; equivalently, the set 2M \\ (m + M), with M the
        nonzero members and m the multiplicity, has exactly one element."""
        return self.embedding_dim + 1 == self.multiplicity

    # -- constructions ---------------------------------------------------

    def glue(self, n: int, m: int) -> "NumericalSemigroup":
        """The gluing n*H + <m>, the semigroup of ``glue_generators``."""
        return NumericalSemigroup.from_generators(self.glue_generators(n, m))

    def glue_generators(self, n: int, m: int) -> tuple[int, ...]:
        """The generators of the gluing n*H + <m>: the scaled generators
        together with m, sorted.

        Requires n, m positive, gcd(n, m) = 1, m a member of H but not a
        minimal generator.
        """
        if n <= 0 or m <= 0:
            raise EmptyInput(f"gluing needs positive n, m; got n={n}, m={m}")
        if not self.contains(m):
            raise NotAMember(f"{m} is not a member of <{self}>")
        if m in self.generators:
            raise IsMinimalGenerator(
                f"{m} is a minimal generator of <{self}>"
            )
        if gcd(n, m) != 1:
            raise NotCoprime(f"gcd({n}, {m}) != 1")
        return tuple(sorted([n * g for g in self.generators] + [m]))

    # -- plumbing ---------------------------------------------------------

    def __str__(self) -> str:
        return ",".join(str(g) for g in self.generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({self})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)


def _apery(gens, q: int) -> tuple[int, ...]:
    """Least element of <gens> in each residue class mod q, indexed by the
    residue: Dijkstra over the q residues, where generator g is an edge of
    weight g from r to (r + g) mod q.  The gcd of gens must be 1."""
    dist = [None] * q
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heappop(heap)
        if d > dist[r]:
            continue
        for g in gens:
            s = (r + g) % q
            if dist[s] is None or d + g < dist[s]:
                dist[s] = d + g
                heappush(heap, (d + g, s))
    return tuple(dist)


def check_dimension(dim: int) -> None:
    """Raise TooLarge, before any basis is listed, past MAX_DIMENSION."""
    if dim > MAX_DIMENSION:
        raise TooLarge(f"algebra dimension {dim} is above the supported {MAX_DIMENSION}")


def radical_index(degrees, atoms) -> int:
    """Least r with m^r = 0 in the quotient of k[H] with basis ``degrees``
    (sorted from 0, closed under division) and radical m generated by t^a, a
    in ``atoms``: one more than the longest path from 0 by atom steps."""
    longest = {0: 0}
    for d in degrees[1:]:
        longest[d] = 1 + max(longest.get(d - a, -1) for a in atoms if a <= d)
    return 1 + max(longest.values())
