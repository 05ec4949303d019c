"""Monomial Artinian algebras with exact minimal free resolutions.

The algebras are quotients k[H]/E of a numerical semigroup algebra by a
cofinite monomial ideal E, most often the truncation E = (t^q).  Their
k-basis is the finite set of member degrees outside E: for a truncation the
Apery set of q, read off the semigroup without building the ideal.  Products
come from degree sums: t^a * t^b is t^(a+b) when a + b is a basis degree and
zero otherwise, read from the degree index: no multiplication table is stored.
Algebras and modules are ``Record`` values, equal when all their fields are (so
k[H]/(t^q) and ``quotient_algebra`` of (t^q) differ); an algebra's degree index,
socle positions and syzygy cache are made on first access, and a module caches
nothing.

Modules are finitely presented by a relation matrix over the algebra
(columns are relations).  Presentations are minimalized on construction by
one syzygy step: the generators that the constant parts of the relations
leave free minimally generate the module M, and the minimal generators of the
kernel of the free module on them onto M are its relations, so the result
depends only on the relation submodule.  Syzygies are computed as exact kernels over the prime field
followed by minimal generator selection, so every resolution produced here
has all differential entries inside the radical.

A column of rank0 algebra elements has one stored form, from construction
(``PresentedModule.columns``) through minimalization and resolution: the
sparse flattened vector {g*dim A + i: coeff} (generator g, basis index i).
Dense tuples appear only at the public edge: ``_check_shape`` reads them in,
and ``PresentedModule.relations`` and ``MonomialArtinianAlgebra.mul`` give
them out.
``_multiples`` lists a column times every basis monomial by moving
coefficients, and a product by an algebra element is a sum of these
multiples.  The syzygy k-matrix is made of them and its kernel is taken in
one sparse ``modp.Span`` pass (``modp.sparse_kernel``); ``_nakayama`` keeps
the kernel vectors that are independent modulo the atom multiples of all of
them, in another.  No dense matrix is built anywhere in the engine.  A
realization stores only the nonzero entries of each monomial's action.

Betti numbers, Ext and Tor come from one walk (``_levels``).  A
presentation is split into its direct summands (connected components of the
generator/relation incidence graph), and the walk goes level by level: level
j counts the components of Omega^j M, each distinct component is resolved one
step once, and its syzygy components are cached on the algebra
(``_omega_store``), shared by resolutions, Ext, Tor and every target.
Betti numbers count the relation columns of each level, and Ext and Tor
dimensions come by dimension shifting over the same levels, so exponentially
growing Betti sequences stay affordable and every number is exact over the
chosen prime field.  Dimension results on the monomial inputs used here are
characteristic free, which the test suite checks by recomputing tables in a
second characteristic.

``ext_dims`` and ``tor_dims`` each call ``_routed`` once, which sums Ext or
Tor over the pairs of direct summands, each answered by the first standard
fact that applies or walked (``_derived_dims``), on one budget per call.

Determinism: pivoting is lexicographic, generator selection is greedy in
canonical kernel order, and all caches are keyed by exact presentations.
Ext and Tor computations fill the algebra's syzygy cache, so an algebra must
not be shared between threads that compute with it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextvars import ContextVar, copy_context
from functools import cached_property
from itertools import accumulate, islice, product
from math import gcd, log2

from ._record import Record
from .errors import SackitError, TooLarge
from .modp import Span, connected_blocks, sparse_kernel
from .semigroup import NumericalSemigroup

DEFAULT_PRIME = 32003
# characteristics at or above this are refused: _is_prime is a proof below it
MAX_PRIME = 2**64
# Most levels² · max(1, log2(dim A)) one walk takes, checked before the first
# level.  Those dimensions grow at most like (dim A - 1)^i, so a table to
# degree n holds about n²/2 · log2(dim A) bits, and a walk keeps about two; a
# level costs a bit at least, so this caps the depth too: 38,729 for dim A
# <= 2, 30,763 for 3.  At the cap extdeg of k takes 0.4 s and 18 MB over A_2
# to 3.8 s and 317 MB over dimension 200, on 2 vCPU (Python 3.11)
MAX_WALK_BITS = 1_500_000_000
# Most k-matrix columns, len(cols) · dim A, over the syzygy steps one walk
# builds (not those cached), checked before each step.  Near the cap a walk
# takes 3.3 s and 46 MB (498 steps) to 4.4 s and 301 MB (one step, dimension
# 700) on 2 vCPU (Python 3.11), but a column costs more in some algebras:
# over dimension 16, 391,456 columns took 20.7 s and 223 MB
MAX_WALK_COLUMNS = 500_000
# Most multiples one realization builds, each a k-matrix column as the walk
# counts them: len(columns) · dim A for the relation span, then dim M · dim A
# for the action, each counted before it is built.  Realizing the free module
# over dimension 1024 is at the cap: 1.5-2.1 s and 54 MB on 2 vCPU (Python 3.11)
MAX_REALIZATION_COLUMNS = 2**20
# k-matrix columns one ext_dims or tor_dims call built, by kind, against the caps
# above; _routed sets it in the call's context copy, and unset each walk counts its own
_SPENT: ContextVar[Counter] = ContextVar("_SPENT")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    # Miller-Rabin on the prime bases up to 37 decides every n below
    # psi_12 = 318665857834031151167461 (Sorenson & Webster 2017), a strong
    # pseudoprime to all of them; callers keep n below MAX_PRIME
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class MonomialArtinianAlgebra(Record):
    """Finite dimensional quotient of a numerical semigroup algebra by a
    cofinite monomial ideal, over a prime field."""

    semigroup: NumericalSemigroup
    char: int
    degrees: tuple[int, ...]
    truncation_q: int | None
    _ideal: SemigroupIdeal | None

    def __init__(self, semigroup, char, truncation_q=None, ideal=None):
        """k[H]/(t^q) for q = ``truncation_q``, a positive member, with the
        Apery set of q as basis; else k[H]/``ideal``, with its complement."""
        p = DEFAULT_PRIME if char is None else int(char)
        if p >= MAX_PRIME:
            raise SackitError(f"characteristic {p} is not below the supported 2^64")
        if not _is_prime(p):
            raise SackitError(f"characteristic {p} is not prime")
        degrees = semigroup.apery_set(truncation_q) if ideal is None else ideal.complement()
        super().__init__(semigroup, p, degrees, truncation_q, ideal)

    @property
    def dim(self) -> int:
        return len(self.degrees)

    @cached_property
    def _index(self) -> dict[int, int]:  # basis degree -> its position
        return {d: i for i, d in enumerate(self.degrees)}

    @cached_property
    def _socle(self) -> frozenset[int]:  # positions that every atom sends to zero
        atoms = self._atoms()
        return frozenset(i for i, d in enumerate(self.degrees)
                         if not any(d + a in self._index for a in atoms))

    @cached_property
    def _omega_store(self) -> dict:  # the syzygy cache of _levels
        return {}

    def descriptor(self) -> str:
        """Text form: "H=...; q=...; p=..." for truncations, with the ideal
        generators in place of q otherwise."""
        if self.truncation_q is not None:
            mid = f"q={self.truncation_q}"
        else:
            mid = f"I={self._ideal}"
        return f"H={self.semigroup}; {mid}; p={self.char}"

    # -- elements ----------------------------------------------------------

    def mul(self, a, b) -> tuple[int, ...]:
        """a * b: over the terms c t^d of a, c times the multiple of b by t^d."""
        a, b = _check_shape(self, 1, [(a,), (b,)])
        out = [0] * self.dim
        for c, image in zip(a.values(), _multiples(self, b, [self.degrees[i] for i in a])):
            for pos, x in image.items():
                out[pos] = (out[pos] + c * x) % self.char
        return tuple(out)

    # -- structure ---------------------------------------------------------

    def _atoms(self) -> list[int]:
        """Degrees of the minimal generators (atoms) of the radical: the
        minimal generators of H that lie outside the ideal.  The basis is
        closed under division, so a positive basis degree is a product of two
        positive basis monomials exactly when it is a sum of two positive
        members of H."""
        return [g for g in self.semigroup.generators if g in self._index]

    def embedding_dim(self) -> int:
        """Number of minimal generators of the radical."""
        return len(self._atoms())

    def __repr__(self) -> str:
        return f"MonomialArtinianAlgebra({self.descriptor()})"


def truncation_algebra(
    semigroup: NumericalSemigroup, q: int, char: int | None = None
) -> MonomialArtinianAlgebra:
    """k[H]/(t^q) with basis the Apery set of q; q must be a positive member."""
    if q <= 0:
        raise SackitError(f"truncation degree must be positive, got {q}")
    if not semigroup.contains(q):
        raise SackitError(f"{q} is not a member of <{semigroup}>")
    return MonomialArtinianAlgebra(semigroup, char, truncation_q=q)


def quotient_algebra(
    ideal: SemigroupIdeal, char: int | None = None
) -> MonomialArtinianAlgebra:
    """k[H]/E for any cofinite monomial ideal E.

    No command builds one for E other than (t^q); it stays as the tests'
    reference for the walk: its form of a truncation takes no change of
    rings and no self-injective block, and its m^2 quotients have closed
    forms that no truncation gives."""
    return MonomialArtinianAlgebra(ideal.ambient, char, ideal=ideal)


# ----------------------------------------------------------------------------
# presented modules


class PresentedModule(Record):
    """Cokernel of a relation matrix over a MonomialArtinianAlgebra.

    columns holds the relation columns as the engine's sparse flattened
    vectors {g*dim A + i: coeff} (generator g, basis index i, coefficients
    in 1..p-1); relations is the same matrix as dense tuples, a tuple of
    columns of rank0 algebra elements, derived on access.  Constructed
    instances always carry a minimal presentation: no unit entries, no
    Nakayama-redundant columns.  Equal by value; dict columns leave no hash.
    """

    algebra: MonomialArtinianAlgebra
    rank0: int
    columns: tuple

    @property
    def relations(self) -> tuple:
        return tuple(
            _dense_column(vec, self.rank0, self.algebra.dim) for vec in self.columns
        )

    def __repr__(self) -> str:
        return (
            f"PresentedModule(rank0={self.rank0}, "
            f"relations={len(self.columns)}, over {self.algebra.descriptor()})"
        )


def _check_shape(algebra, rank0, relations):
    """Dense columns of rank0 algebra elements, validated, as sparse
    flattened columns with coefficients reduced mod p."""
    if rank0 < 0:
        raise SackitError(f"rank0 must be >= 0, got {rank0}")
    p, dim_a = algebra.char, algebra.dim
    cols = []
    for col in relations:
        col = [tuple(entry) for entry in col]
        if len(col) != rank0:
            raise SackitError(f"column has {len(col)} entries, expected {rank0}")
        for entry in col:
            if len(entry) != dim_a:
                raise SackitError(
                    f"entry has {len(entry)} coefficients, expected {dim_a}"
                )
        flat = [int(x) % p for entry in col for x in entry]
        cols.append({pos: x for pos, x in enumerate(flat) if x})
    return cols


def module_from_presentation(algebra, rank0, relations) -> PresentedModule:
    """The cokernel module, minimally presented by ``_minimalize``: the
    result depends only on the relation submodule, not on its spelling."""
    cols = _check_shape(algebra, rank0, relations)
    return PresentedModule(algebra, *_minimalize(algebra, rank0, cols))


def residue_field(algebra) -> PresentedModule:
    """The simple module k = A/m, minimally presented by the atoms of the
    radical, which minimally generate m."""
    cols = tuple({algebra._index[a]: 1} for a in algebra._atoms())
    return PresentedModule(algebra, 1, cols)


def free_module(algebra, rank: int) -> PresentedModule:
    if rank < 0:
        raise SackitError(f"rank must be >= 0, got {rank}")
    return PresentedModule(algebra, rank, ())

def cyclic_quotient(algebra, degree: int) -> PresentedModule:
    """A/(t^degree A).  Degrees outside the basis give the free module A;
    degree 0 gives the zero module, and a negative degree is an error."""
    if degree < 0:
        raise SackitError(f"cyclic degree must be >= 0, got {degree}")
    i = algebra._index.get(degree)
    if i is None:
        return free_module(algebra, 1)
    return PresentedModule(algebra, *_minimalize(algebra, 1, [{i: 1}]))


def direct_sum(left: PresentedModule, right: PresentedModule) -> PresentedModule:
    _require_same_algebra(left, right)
    shift = left.rank0 * left.algebra.dim
    cols = left.columns + tuple(
        {pos + shift: x for pos, x in col.items()} for col in right.columns
    )
    # blocks of a minimal presentation stay minimal
    return PresentedModule(left.algebra, left.rank0 + right.rank0, cols)


def _minimalize(algebra, rank0, cols):
    """The minimal presentation (rank0, columns) of the cokernel M of the
    sparse flattened columns ``cols``, by one syzygy step.  The generators
    that lead no row of the span of the constant parts minimally generate M;
    each times each basis monomial, reduced modulo the relation multiples, is
    its image in M, and the minimal generators of their kernel present M."""
    dim_a = algebra.dim
    constants = Span(algebra.char)
    for col in cols:
        constants.add({pos // dim_a: x for pos, x in col.items() if pos % dim_a == 0})
    relations = _relation_span(algebra, cols)
    kept = [g for g in range(rank0) if g not in constants.rows]
    images = [relations.reduce({g * dim_a + b: 1}) for g in kept for b in range(dim_a)]
    return len(kept), tuple(_nakayama(algebra, sparse_kernel(images, algebra.char)))


def _relation_span(algebra, cols):
    """The relation submodule of the sparse flattened columns ``cols`` as a
    k-space: the Span of their multiples by every basis monomial."""
    span = Span(algebra.char)
    for col in cols:
        for image in _multiples(algebra, col, algebra.degrees):
            span.add(image)
    return span


def _multiples(algebra, vec, degrees):
    """The sparse flattened column ``vec`` times t^d, for each d in ``degrees``.

    A monomial only moves coefficients: position g*dim + i goes to
    g*dim + index(degrees[i] + d), or drops out when that sum is no basis
    degree.  Distinct positions never meet, so nothing is accumulated.
    """
    dim_a, index, basis = algebra.dim, algebra._index, algebra.degrees
    support = [(pos - pos % dim_a, basis[pos % dim_a], x) for pos, x in vec.items()]
    out = []
    for d in degrees:
        image = {}
        for base, deg, x in support:
            k = index.get(deg + d)
            if k is not None:
                image[base + k] = x
        out.append(image)
    return out


def _nakayama(algebra, vecs):
    """Nakayama selection over sparse flattened columns ``vecs`` that are a
    k-basis of an A-submodule N (a kernel): the ones kept, in order.  Their
    atom multiples span the radical part m*N.

    Those multiples go into one span first; then the columns are taken in
    order, and one is kept when it enlarges the span.  The kept columns
    minimally generate N.  A column supported on socle positions has only
    zero atom multiples, so it adds none.
    """
    span, atoms, socle = Span(algebra.char), algebra._atoms(), algebra._socle
    dim_a = algebra.dim
    for vec in vecs:
        if all(pos % dim_a in socle for pos in vec):
            continue
        for scaled in _multiples(algebra, vec, atoms):
            if scaled:
                span.add(scaled)
    return [vec for vec in vecs if span.add(vec)]


def _dense_column(vec, rank0, dim_a):
    """The tuple of rank0 algebra elements that a sparse flattened vector holds."""
    entries: dict[int, list[int]] = {}
    for pos, x in vec.items():
        g, i = divmod(pos, dim_a)
        entries.setdefault(g, [0] * dim_a)[i] = x
    out = [(0,) * dim_a] * rank0
    for g, entry in entries.items():
        out[g] = tuple(entry)
    return tuple(out)


# ----------------------------------------------------------------------------
# syzygies and resolutions


def _syzygy_columns(algebra, cols):
    """Minimal generating columns of ker(A^s -> A^rank0) for the map with
    the given sparse flattened columns, as sparse flattened columns of
    length s."""
    # k-matrix of the map, by columns: domain basis (column j, monomial b)
    images = [
        image for col in cols for image in _multiples(algebra, col, algebra.degrees)
    ]
    return _nakayama(algebra, sparse_kernel(images, algebra.char))


class MinimalResolution(Record):
    """Minimal free resolution data up to homological degree ``length``:
    betti[i] is the rank of the i-th free module."""

    module: PresentedModule
    betti: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.betti) - 1


def minimal_resolution(module: PresentedModule, length: int) -> MinimalResolution:
    """Resolve ``module`` minimally through homological degree ``length``:
    betti[j+1] counts the relation columns of Omega^j M over ``_levels``."""
    if length < 1:
        raise SackitError(f"resolution length must be >= 1, got {length}")
    _check_bits(length, module.algebra.dim)
    levels = islice(_levels(module), length)
    return MinimalResolution(module, (module.rank0,) + tuple(
        sum(m * len(cols) for (_, cols), m in level.items()) for level in levels
    ))


# ----------------------------------------------------------------------------
# realizations (concrete k-vector space with the monomial action)


class Realization(Record):
    """k-realization of a presented module: its dimension and, per algebra
    basis monomial, the nonzero entries (row, column, coeff) of the matrix
    by which it acts on coordinate columns."""

    dim: int
    entries: tuple


def _charge(spent, kind, columns, cap):
    spent[kind] += columns
    if spent[kind] > cap:
        raise TooLarge(f"a {kind} of {spent[kind]} k-matrix columns is above the supported {cap}")


def _realize(module: PresentedModule) -> Realization:
    algebra = module.algebra
    dim_a, spent = algebra.dim, _SPENT.get(Counter())
    _charge(spent, "realization", len(module.columns) * dim_a, MAX_REALIZATION_COLUMNS)
    span = _relation_span(algebra, module.columns)
    # the positions that lead no row of the relation span index a k-basis of
    # the module; a vector's coordinates are its remainder modulo the span
    free_pos = [pos for pos in range(module.rank0 * dim_a) if pos not in span.rows]
    coord = {pos: i for i, pos in enumerate(free_pos)}
    _charge(spent, "realization", len(free_pos) * dim_a, MAX_REALIZATION_COLUMNS)
    entries = [[] for _ in algebra.degrees]
    for j, pos in enumerate(free_pos):
        for ents, image in zip(entries, _multiples(algebra, {pos: 1}, algebra.degrees)):
            ents.extend((coord[i], j, x) for i, x in span.reduce(image).items())
    return Realization(len(free_pos), tuple(map(tuple, entries)))


realization = _realize  # public access, for oracles and reports


# ----------------------------------------------------------------------------
# Ext and Tor by dimension shifting over incidence components


def _component_split(algebra, rank0, cols):
    """Split a minimal presentation, given by sparse flattened columns, into
    incidence components: columns that share a generator are in one.

    Returns a Counter of components.  A component is its own cache key:
    (rank0, columns), with its generators renumbered in order, each column a
    sorted tuple of (position, coeff) pairs and the columns sorted.  A
    generator that no column touches is a component alone, the free module
    A = (1, ()).
    """
    dim_a = algebra.dim
    supports = [{pos // dim_a for pos in col} for col in cols]
    counter: Counter = Counter()
    free = rank0
    for block in connected_blocks(supports):
        gens = sorted(set().union(*(supports[j] for j in block)))
        local = {g: i * dim_a for i, g in enumerate(gens)}
        local_cols = sorted(
            tuple(sorted((local[pos // dim_a] + pos % dim_a, x) for pos, x in col))
            for col in (cols[j].items() for j in block)
        )
        counter[(len(gens), tuple(local_cols))] += 1
        free -= len(gens)
    if free:
        counter[1, ()] = free
    return counter


def _require_same_algebra(left: PresentedModule, right: PresentedModule):
    if left.algebra != right.algebra:
        raise SackitError(
            f"{left.algebra.descriptor()} vs {right.algebra.descriptor()}"
        )


def _check_bits(n, dim):
    # at least a bit a level, times n² in integers: no degree overflows a float
    num, den = log2(max(2, dim)).as_integer_ratio()
    bits = (n * n * num + den // 2) // den
    if bits > MAX_WALK_BITS:
        from decimal import Decimal  # its str() is not held to int's digit limit
        raise TooLarge(f"Ext or Tor to degree {n} over an algebra of dimension {dim} "
                       f"would hold about {Decimal(bits)} bits, above the supported "
                       f"{MAX_WALK_BITS}")


def _levels(module):
    """Omega^j M for j = 0, 1, ..., each as a Counter of its incidence
    components, one syzygy step per level asked for.  Each distinct component
    is resolved once into the algebra's ``_omega_store``; a free summand has
    syzygy module 0, so it leaves the walk after its level.  The steps built
    are counted in k-matrix columns against the call's budget, and the one
    that would pass ``MAX_WALK_COLUMNS`` is refused before it is built."""
    algebra, store = module.algebra, module.algebra._omega_store
    level = _component_split(algebra, module.rank0, module.columns)
    spent = _SPENT.get(Counter())
    while True:
        yield level
        deeper = Counter()
        for key, m in level.items():
            if key[1] and key not in store:  # no kernel for the free A = (1, ())
                _charge(spent, "syzygy walk", len(key[1]) * algebra.dim, MAX_WALK_COLUMNS)
                syz = _syzygy_columns(algebra, [dict(col) for col in key[1]])
                store[key] = _component_split(algebra, len(key[1]), syz)
            for omega, c in store.get(key, {}).items():
                deeper[omega] += m * c
        level = deeper


def _module(algebra, components):
    """The direct sum of a Counter of incidence components."""
    rank0, cols = 0, []
    for rank, key_cols in components.elements():
        cols += ({pos + rank0 * algebra.dim: x for pos, x in col} for col in key_cols)
        rank0 += rank
    return PresentedModule(algebra, rank0, tuple(cols))


def _routed(module, target, upto, transpose):
    """Ext (Tor when ``transpose``) to degree upto, summed over the pairs
    (X, Y) of incidence components by multiplicity, a Tor pair read as
    (Y, X) when X = k or Y = A.  A pair takes the first fact that applies:
    A is free; a minimal resolution of X has its maps in its radical, so
    (X, k) is beta(X); over A_q = k[H]/(t^q), H symmetric, A_q is Gorenstein
    (Kunz; Bruns & Herzog, ch. 3), so self-injective.  Other pairs walk, one
    walk into each Y.  (k, k) and (k, A) over A_q come from A_m, m the
    multiplicity: t^q is regular on k[[H]], so (Nagata, Shamash; Avramov,
    "Infinite free resolutions", ch. 3) P_k over A_q is P_k over A_m,
    divided by 1 - z when q is no minimal generator, and the Bass numbers
    agree; so a sum of k and A walks A_m alone, its bits checked there."""
    _require_same_algebra(module, target)
    if upto < 0:
        raise SackitError(f"upto must be >= 0, got {upto}")
    _SPENT.set(Counter())
    algebra = module.algebra
    H, q, m = algebra.semigroup, algebra.truncation_q, algebra.semigroup.multiplicity
    free, k = (1, ()), next(iter(_component_split(algebra, 1, residue_field(algebra).columns)))
    splits = [_component_split(algebra, M.rank0, M.columns) for M in (module, target)]
    _check_bits(upto, algebra.dim if q is None or any(s.keys() - {k, free} for s in splits) else m)
    base = algebra if q in (None, m) else truncation_algebra(H, m, algebra.char)
    k_m = next(iter(_component_split(base, 1, residue_field(base).columns)))
    dims, groups = [0] * (upto + 1), defaultdict(Counter)  # (over A_m, Y) -> X -> weight
    for (X, a), (Y, c) in product(*(split.items() for split in splits)):
        X, Y = (Y, X) if transpose and (X == k or Y == free) else (X, Y)
        if X == free or (Y == free and q is not None and H.is_gap_symmetric()):
            rank0, cols = other = Y if X == free else X
            span = 0 if other == k else _relation_span(algebra, map(dict, cols)).dim
            dims[0] += a * c * (1 if other == k else rank0 * algebra.dim - span)
        else:
            shifted = X == k and Y in (k, free) and base is not algebra
            groups[shifted, Y][k_m if shifted else X] += a * c
    for (shifted, Y), Xs in groups.items():
        w = gcd(*Xs.values())  # a weight common to the group, kept out of its module
        M = _module(base if shifted else algebra, Counter({X: n // w for X, n in Xs.items()}))
        if Y == k:  # the Betti numbers, summed when q is no minimal generator
            col = minimal_resolution(M, max(upto, 1)).betti[:upto + 1]
            col = accumulate(col) if shifted and q not in H.generators else col
        else:
            col = _derived_dims(M, _module(M.algebra, Counter([Y])), upto, transpose)
        dims = [x + w * y for x, y in zip(dims, col)]
    return tuple(dims)


def _derived_dims(module, target, upto, transpose):
    """dim F^i(module) for i = 0..upto over the walk alone, F = Hom(-, target),
    or - tensor target when ``transpose``, and F^i its i-th derived functor.

    Dimension shift on minimal presentations, for F = Hom (Ext) and
    F = tensor (Tor) alike, with n = dim target:
      F^0(M) = F(M)
      F^1(M) = F(Omega M) - rank0 * n + F(M)
      F^i(M) = F^(i-1)(Omega M)          for i >= 2
    so F^(j+1)(M) = F(Omega^(j+1) M) - rank0(Omega^j M) * n + F(Omega^j M),
    with F of each Omega^j M summed over the components of ``_levels``.
    """
    algebra = module.algebra
    p, dim_a = algebra.char, algebra.dim
    real = _realize(target)
    n, entries = real.dim, real.entries
    if transpose:
        entries = tuple(tuple((j, i, x) for i, j, x in ents) for ents in entries)
    base: dict = {}

    def F(key) -> int:
        """dim F(K) for a component K: rank0 * n, less the rank of what F
        makes of its relation columns.  ``entries`` holds what F makes of
        each basis monomial, as (row, column, coeff): its action on the
        target for Hom, transposed for the tensor product.  Each column gives
        n sparse rows, its entry at generator g in the coordinates g*n on."""
        if key not in base:
            rank0, cols = key
            span = Span(p)
            for col in cols:
                rows: list[dict[int, int]] = [{} for _ in range(n)]
                for pos, x in col:
                    g, b = divmod(pos, dim_a)
                    for i, j, y in entries[b]:
                        k = g * n + j
                        rows[i][k] = rows[i].get(k, 0) + x * y
                for row in rows:
                    span.add(row)  # reduces mod p and drops the zeros
            base[key] = rank0 * n - span.dim
        return base[key]

    dims, last = [], 0  # last: F(Omega^(j-1) M) - rank0(Omega^(j-1) M) * n
    for level in islice(_levels(module), upto + 1):
        here = sum(m * F(key) for key, m in level.items())
        dims.append(here + last)
        last = here - n * sum(m * key[0] for key, m in level.items())
    return tuple(dims)


def ext_dims(module: PresentedModule, target: PresentedModule, upto: int):
    """dim_k Ext^i(module, target) for i = 0..upto, as a tuple."""
    return copy_context().run(_routed, module, target, upto, False)


def tor_dims(module: PresentedModule, target: PresentedModule, upto: int):
    """dim_k Tor_i(module, target) for i = 0..upto, as a tuple."""
    return copy_context().run(_routed, module, target, upto, True)


class ExtWindowReport(Record):
    """Bounded self-extension scan of M + A inside a finite window.

    No claim is made beyond the window; last_nonzero_in_window is None when
    every Ext^i with 1 <= i <= window vanished.
    """

    last_nonzero_in_window: int | None
    nonzero_at_boundary: bool

    def to_json_dict(self) -> dict:
        last = self.last_nonzero_in_window
        return {
            "last_nonzero_in_window": "none" if last is None else last,
            "nonzero_at_boundary": self.nonzero_at_boundary,
        }


def ext_deg_window(module: PresentedModule, window: int = 12) -> ExtWindowReport:
    """Scan dim Ext^i(M + A, M + A) for 1 <= i <= window."""
    if window < 1:
        raise SackitError(f"window must be >= 1, got {window}")
    doubled = direct_sum(module, free_module(module.algebra, 1))
    dims = ext_dims(doubled, doubled, window)
    last = max((i for i in range(1, window + 1) if dims[i]), default=None)
    return ExtWindowReport(
        last_nonzero_in_window=last,
        nonzero_at_boundary=dims[window] != 0,
    )
