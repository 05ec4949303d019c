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

An ideal of H (``sackit.ideals``) is stored by its generators, and builds
the same kind of table when a length or complement first needs it; the
private helpers ``_Shifted``, ``_length`` and ``_between`` below serve both,
and ``_between``, which lists, alone checks the size cap MAX_DIMENSION.

A semigroup is a ``Record`` of its minimal generators and Apery table; F and
the genus are read off the table once, and operations return new instances.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate, chain, islice, takewhile
from math import gcd

from ._record import Record
from .errors import SackitError, TooLarge

# The Apery set is a list of m integers; building it takes about 0.8 s and
# 65 MB per million residues (2 vCPU, Python 3.11).  This cap keeps one
# construction under a second and 100 MB, and turns a larger multiplicity
# into an error before anything is allocated.
MAX_MULTIPLICITY = 2**20

# k[H]/E of dimension 10^6 lists and indexes its basis in 1.6 s, 180 MB (2 vCPU).
MAX_DIMENSION = MAX_MULTIPLICITY

# Building the table relaxes e edges from each of the m residues, so it is
# charged m * e, the e distinct generators given; the minimality scan looks
# up, for each generator c, only the h <= c - m, and none for c < 2m.  Every
# set of at most 4 generators with m <= MAX_MULTIPLICITY fits, and <n, ...,
# 2n - 1> fits up to n = 2048 (about 0.4 s spawned on 2 vCPU, Python 3.11).
MAX_APERY_EDGES = 4 * MAX_MULTIPLICITY

# A table of m integers below 2^w holds m * w bits, charged before it is built:
# the Apery table, a listed basis and an ideal's table.  At m = MAX_MULTIPLICITY
# the Apery table of 127-bit entries took 0.76 s and 77 MB, of 160-bit ones
# 0.93 s and 93 MB (in process on 2 vCPU, Python 3.11); every set of at most 4
# generators below 2^64 fits (84 bits an entry).
MAX_TABLE_BITS = 128 * MAX_MULTIPLICITY


class NumericalSemigroup(Record):
    """The submonoid of the nonnegative integers generated by ``generators``.

    Use :meth:`from_generators` rather than the raw constructor; it
    normalizes the generating set to the minimal one and computes the Apery
    set of the multiplicity.
    """

    generators: tuple[int, ...]
    _apery: tuple[int, ...]

    @classmethod
    def from_generators(cls, generators) -> "NumericalSemigroup":
        """Build the semigroup, minimalizing the generating set.

        Raises SackitError for an empty list, non-positive entries or
        generators whose gcd is not 1 (the complement would be infinite),
        and TooLarge, before the table is built, when the multiplicity is
        above MAX_MULTIPLICITY, m times the number of distinct generators
        is above MAX_APERY_EDGES, or the table would hold more than
        MAX_TABLE_BITS bits.
        """
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise SackitError("need at least one generator")
        if gens[0] <= 0:
            raise SackitError(f"generators must be positive, got {gens[0]}")
        divisors = list(accumulate(gens, gcd))
        if divisors[-1] != 1:
            raise SackitError(f"gcd of generators is {divisors[-1]}, not 1")

        m = gens[0]
        if m > MAX_MULTIPLICITY:
            raise TooLarge(
                f"multiplicity {m} is above the supported {MAX_MULTIPLICITY}"
            )
        if m * len(gens) > MAX_APERY_EDGES:
            raise TooLarge(f"multiplicity {m} times {len(gens)} generators is above the "
                           f"supported {MAX_APERY_EDGES}")
        # the generators up to the first whose prefix has gcd 1 generate a
        # numerical semigroup inside H, whose Apery entries are sums of at
        # most m - 1 of them, so no entry is above (m - 1) times that one
        _check_table(m, (m - 1) * gens[divisors.index(1)])
        apery = _apery(gens, m)
        # c is redundant exactly when c - h is a nonzero member for a
        # generator h: every member below c is a sum of generators below c.
        return cls(tuple(c for c in gens if not _sum_of(apery, gens, c)), apery)

    # -- membership -----------------------------------------------------

    def contains(self, x: int) -> bool:
        """Whether ``x`` lies in the semigroup."""
        return x >= 0 and x >= self._apery[x % self.multiplicity]

    def gaps(self) -> tuple[int, ...]:
        """All nonnegative integers outside the semigroup; TooLarge, before
        any is listed, when there are more than MAX_DIMENSION."""
        return _between(range(self.multiplicity), self._apery)

    # -- invariants ------------------------------------------------------

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero member."""
        return self.generators[0]

    @cached_property
    def frobenius(self) -> int:  # the largest gap, -1 when there is none
        return max(self._apery) - self.multiplicity

    @cached_property
    def genus(self) -> int:  # the number of gaps, by Selmer's formula
        return sum(self._apery) // self.multiplicity - (self.multiplicity - 1) // 2

    @property
    def embedding_dim(self) -> int:
        """Number of minimal generators."""
        return len(self.generators)

    def apery_set(self, q: int) -> tuple[int, ...]:
        """Smallest member in each residue class mod ``q``, sorted: the q
        members x, 0 among them, with x - q no member.  In each class mod m
        they run from where H starts to where q + H starts, so they are read
        off Ap in O(q).  ``q`` must be a nonzero member, and at most
        MAX_DIMENSION (else TooLarge, before anything is listed).
        """
        if q <= 0 or not self.contains(q):
            raise SackitError(f"{q} is not a nonzero member of <{self}>")
        return _between(self._apery, _Shifted(self._apery, q))

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
        minimal generator, and likewise n a member of <1> but not its
        minimal generator 1 (Watanabe 1973; Rosales & Garcia-Sanchez 2009):
        with n = 1, m is redundant and the result is H itself.
        """
        if n <= 0 or m <= 0:
            raise SackitError(f"gluing needs positive n, m; got n={n}, m={m}")
        if not self.contains(m):
            raise SackitError(f"{m} is not a member of <{self}>")
        if m in self.generators:
            raise SackitError(
                f"{m} is a minimal generator of <{self}>"
            )
        if gcd(n, m) != 1:
            raise SackitError(f"gcd({n}, {m}) != 1")
        if n == 1:
            raise SackitError("gluing needs n >= 2, got n=1")
        return tuple(sorted([n * g for g in self.generators] + [m]))

    # -- plumbing ---------------------------------------------------------

    def __str__(self) -> str:
        return ",".join(str(g) for g in self.generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({self})"


def _sum_of(table, gens, x: int) -> bool:
    """Whether x - g is a nonzero member, for some g in the sorted ``gens``,
    of the semigroup whose table mod m is ``table``: a nonzero member is at
    least m, so only the g <= x - m are looked up."""
    m = len(table)
    return any(x - g >= table[(x - g) % m] for g in takewhile((x - m).__ge__, gens))


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


class _Shifted:
    """The table of g + S from that of S: over r, g + table[(r - g) mod m], a
    rotation plus g, computed on each pass, so that no minimum of shifts,
    principal ideal or `_between` (which reads it twice) holds a copy."""

    def __init__(self, table, g: int):
        self.table, self.g = table, g

    def __len__(self):
        return len(self.table)

    def __iter__(self):
        cut = len(self.table) - self.g % len(self.table)
        return map(self.g.__add__, chain(islice(self.table, cut, None), islice(self.table, cut)))


def _length(lo, hi) -> int:
    """Number of x with lo[r] <= x < hi[r], r = x mod m, for two residue
    tables with lo <= hi; class r holds (hi[r] - lo[r]) / m of them."""
    return (sum(hi) - sum(lo)) // len(lo)


def _between(lo, hi) -> tuple[int, ...]:
    """The x counted by ``_length(lo, hi)``, sorted; TooLarge, before any
    is listed, when there are more than MAX_DIMENSION, or more bits than
    MAX_TABLE_BITS in all."""
    if (dim := _length(lo, hi)) > MAX_DIMENSION:
        raise TooLarge(f"algebra dimension {dim} is above the supported {MAX_DIMENSION}")
    _check_table(dim, max(hi))
    return _progressions(lo, hi)


def _check_table(count: int, top: int) -> None:
    """TooLarge, before they are built, when ``count`` integers up to
    ``top`` hold more than MAX_TABLE_BITS bits."""
    if count * top.bit_length() > MAX_TABLE_BITS:
        raise TooLarge(f"a table of {count} integers of {top.bit_length()} bits is above the "
                       f"supported {MAX_TABLE_BITS} bits")


def _progressions(lo, hi) -> tuple[int, ...]:
    """Sorted union of the progressions range(lo[r], hi[r], m)."""
    return tuple(sorted(x for a, b in zip(lo, hi) for x in range(a, b, len(lo))))
