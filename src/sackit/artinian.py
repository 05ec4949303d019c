"""Monomial Artinian algebras with exact minimal free resolutions.

The algebras are quotients k[H]/E of a numerical semigroup algebra by a
cofinite monomial ideal E, most often the truncation E = (t^q).  Their
k-basis is the finite set of member degrees outside E: for a truncation the
Apery set of q, read off the semigroup without building the ideal (which
``MonomialArtinianAlgebra.ideal`` gives on access).  Products come from
degree sums: t^a * t^b is t^(a+b) when a + b is a basis degree and zero
otherwise, read from the degree index, so no multiplication table is stored.

Modules are finitely presented by a relation matrix over the algebra
(columns are relations).  Presentations are minimalized on construction:
unit entries are eliminated, then redundant relation columns are dropped by
the Nakayama criterion.  Syzygies are computed as exact kernels over the
prime field followed by minimal generator selection, so every resolution
produced here has all differential entries inside the radical.

A column of rank0 algebra elements has one stored form, from construction
(``PresentedModule.columns``) through minimalization and resolution: the
sparse flattened vector {g*dim A + i: coeff} (generator g, basis index i).
Dense tuples appear only at the public edge: ``_check_shape`` reads them in,
and ``PresentedModule.relations`` and the element API give them out.
``_multiples`` lists a column times every basis monomial by moving
coefficients, and a product by an algebra element is a sum of these
multiples.  The syzygy k-matrix is made of them and its kernel is taken in
one sparse ``modp.Span`` pass (``modp.sparse_kernel``); ``_nakayama`` keeps
the kernel vectors that are independent modulo the atom multiples of all of
them, in another.  The inverse of a unit comes by forward substitution in
degree order, so no dense matrix is built anywhere in the engine.  A
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

Over a truncation A_q = k[H]/(t^q), q not the multiplicity m, Ext and Tor
between sums of k and A come by change of rings (``_change_of_rings``) from
the walk over A_m, of dimension m; every other input walks A_q itself.

Determinism: pivoting is lexicographic, generator selection is greedy in
canonical kernel order, and all caches are keyed by exact presentations.
Ext and Tor computations fill the algebra's syzygy cache, so an algebra must
not be shared between threads that compute with it.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, islice

from ._record import Record
from .errors import (
    AlgebraMismatch,
    DomainError,
    NonPositive,
    NotAMember,
    ShapeMismatch,
)
from .modp import Span, connected_blocks, sparse_kernel
from .semigroup import NumericalSemigroup, radical_index

DEFAULT_PRIME = 32003


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    # deterministic Miller-Rabin, valid far beyond word size
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


class MonomialArtinianAlgebra:
    """Finite dimensional quotient of a numerical semigroup algebra by a
    cofinite monomial ideal, over a prime field."""

    __slots__ = (
        "semigroup",
        "_ideal",
        "truncation_q",
        "char",
        "degrees",
        "_index",
        "_omega_store",
    )

    def __init__(self, semigroup, char, truncation_q=None, ideal=None):
        """k[H]/(t^q) for q = ``truncation_q``, a positive member, with the
        Apery set of q as basis; else k[H]/``ideal``, with its complement."""
        p = DEFAULT_PRIME if char is None else int(char)
        if not _is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        degrees = semigroup.apery_set(truncation_q) if ideal is None else ideal.complement()
        index = {d: i for i, d in enumerate(degrees)}
        object.__setattr__(self, "semigroup", semigroup)
        object.__setattr__(self, "_ideal", ideal)
        object.__setattr__(self, "truncation_q", truncation_q)
        object.__setattr__(self, "char", p)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_omega_store", {})

    def __setattr__(self, name, value):
        raise AttributeError("MonomialArtinianAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.degrees)

    @property
    def ideal(self):
        """The ideal E of k[H]/E; for a truncation, (t^q), built on access."""
        if self._ideal is not None:
            return self._ideal
        from .ideals import SemigroupIdeal

        return SemigroupIdeal.from_generators(self.semigroup, [self.truncation_q])

    def descriptor(self) -> str:
        """Text form: "H=...; q=...; p=..." for truncations, with the ideal
        generators in place of q otherwise."""
        if self.truncation_q is not None:
            mid = f"q={self.truncation_q}"
        else:
            mid = f"I={self.ideal}"
        return f"H={self.semigroup}; {mid}; p={self.char}"

    # -- elements ----------------------------------------------------------

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def monomial(self, degree: int) -> tuple[int, ...]:
        """The basis monomial t^degree as a coefficient vector; degrees
        outside the basis give the zero element."""
        i = self._index.get(degree)
        return _dense_column({} if i is None else {i: 1}, 1, self.dim)[0]

    def mul(self, a, b) -> tuple[int, ...]:
        a, b = _check_shape(self, 1, [(a,), (b,)])
        return _dense_column(_times(self, b, a), 1, self.dim)[0]

    def is_unit(self, a) -> bool:
        # local algebra: invertible iff the constant coefficient is nonzero
        return a[0] % self.char != 0

    def invert(self, a) -> tuple[int, ...]:
        if not self.is_unit(a):
            raise DomainError("element is not a unit")
        inv = _inverse(self, _check_shape(self, 1, [(a,)])[0])
        return _dense_column(inv, 1, self.dim)[0]

    # -- structure ---------------------------------------------------------

    def _atoms(self) -> list[int]:
        """Degrees of the minimal generators (atoms) of the radical: the
        minimal generators of H that lie outside the ideal.  The basis is
        closed under division, so a positive basis degree is a product of two
        positive basis monomials exactly when it is a sum of two positive
        members of H."""
        return [g for g in self.semigroup.generators if g in self._index]

    def radical_index(self) -> int:
        """Least r with m^r = 0, m the ideal of positive-degree monomials."""
        return radical_index(self.degrees, self._atoms())

    def embedding_dim(self) -> int:
        """Number of minimal generators of the radical."""
        return len(self._atoms())

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MonomialArtinianAlgebra):
            return NotImplemented
        return self.degrees == other.degrees and self.char == other.char

    def __hash__(self) -> int:
        return hash((self.degrees, self.char))

    def __repr__(self) -> str:
        return f"MonomialArtinianAlgebra({self.descriptor()})"


def truncation_algebra(
    semigroup: NumericalSemigroup, q: int, char: int | None = None
) -> MonomialArtinianAlgebra:
    """k[H]/(t^q) with basis the Apery set of q; q must be a positive member."""
    if q <= 0:
        raise NonPositive(f"truncation degree must be positive, got {q}")
    if not semigroup.contains(q):
        raise NotAMember(f"{q} is not a member of <{semigroup}>")
    return MonomialArtinianAlgebra(semigroup, char, truncation_q=q)


def quotient_algebra(
    ideal: SemigroupIdeal, char: int | None = None
) -> MonomialArtinianAlgebra:
    """k[H]/E for any cofinite monomial ideal E."""
    return MonomialArtinianAlgebra(ideal.ambient, char, ideal=ideal)


# ----------------------------------------------------------------------------
# presented modules


class PresentedModule:
    """Cokernel of a relation matrix over a MonomialArtinianAlgebra.

    columns holds the relation columns as the engine's sparse flattened
    vectors {g*dim A + i: coeff} (generator g, basis index i, coefficients
    in 1..p-1); relations is the same matrix as dense tuples, a tuple of
    columns of rank0 algebra elements, derived on access.  Constructed
    instances always carry a minimal presentation: no unit entries, no
    Nakayama-redundant columns.
    """

    __slots__ = ("algebra", "rank0", "columns", "_real")

    def __init__(self, algebra, rank0, columns):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rank0", rank0)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_real", None)

    def __setattr__(self, name, value):
        raise AttributeError("PresentedModule is immutable")

    @property
    def relations(self) -> tuple:
        return tuple(
            _dense_column(vec, self.rank0, self.algebra.dim) for vec in self.columns
        )

    def is_free(self) -> bool:
        return not self.columns

    def dimension(self) -> int:
        """k-dimension of the module."""
        return _realize(self).dim

    def __repr__(self) -> str:
        return (
            f"PresentedModule(rank0={self.rank0}, "
            f"relations={len(self.columns)}, over {self.algebra.descriptor()})"
        )


def _check_shape(algebra, rank0, relations):
    """Dense columns of rank0 algebra elements, validated, as sparse
    flattened columns with coefficients reduced mod p."""
    if rank0 < 0:
        raise ShapeMismatch(f"rank0 must be >= 0, got {rank0}")
    p, dim_a = algebra.char, algebra.dim
    cols = []
    for col in relations:
        col = [tuple(entry) for entry in col]
        if len(col) != rank0:
            raise ShapeMismatch(f"column has {len(col)} entries, expected {rank0}")
        for entry in col:
            if len(entry) != dim_a:
                raise ShapeMismatch(
                    f"entry has {len(entry)} coefficients, expected {dim_a}"
                )
        flat = [int(x) % p for entry in col for x in entry]
        cols.append({pos: x for pos, x in enumerate(flat) if x})
    return cols


def module_from_presentation(algebra, rank0, relations) -> PresentedModule:
    """Build the cokernel module, minimalizing the presentation.

    Unit entries are eliminated (the matching generator is expressed by the
    others and removed), zero columns are dropped, and remaining columns
    are pruned to a minimal generating set of the relation submodule.
    """
    cols = _check_shape(algebra, rank0, relations)
    return PresentedModule(algebra, *_minimalize(algebra, rank0, cols))


def residue_field(algebra) -> PresentedModule:
    """The simple module k = A/m, minimally presented by the atoms of the
    radical, which minimally generate m."""
    cols = tuple({algebra._index[a]: 1} for a in algebra._atoms())
    return PresentedModule(algebra, 1, cols)


def free_module(algebra, rank: int) -> PresentedModule:
    if rank < 0:
        raise ShapeMismatch(f"rank must be >= 0, got {rank}")
    return PresentedModule(algebra, rank, ())

def cyclic_quotient(algebra, degree: int) -> PresentedModule:
    """A/(t^degree A).  Degrees outside the basis give the free module A;
    degree 0 gives the zero module, and a negative degree is an error."""
    if degree < 0:
        raise NonPositive(f"cyclic degree must be >= 0, got {degree}")
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


def _units(vec, dim_a):
    """The positions of a sparse flattened column that hold the constant
    coefficient of an entry; the entry is a unit exactly when one is there."""
    return [pos for pos in vec if pos % dim_a == 0]


def _minimalize(algebra, rank0, cols):
    """Unit elimination, zero column removal and Nakayama column selection
    on sparse flattened columns.  Returns (rank0, columns).

    The first column with a unit entry, at its first such generator g, is
    scaled so that entry becomes 1 and subtracted, times their entry at g,
    from the other columns; then the column and generator g go.
    """
    dim_a = algebra.dim
    cols = list(cols)
    while True:
        j = next((j for j, col in enumerate(cols) if _units(col, dim_a)), None)
        if j is None:
            break
        col = cols.pop(j)
        base = min(_units(col, dim_a))
        norm = _times(algebra, col, _inverse(algebra, _entry(col, base, dim_a)))
        for j2, other in enumerate(cols):
            f = {b: -x for b, x in _entry(other, base, dim_a).items()}
            # clears this column's entry at generator base // dim_a, which goes
            other = _times(algebra, norm, f, other)
            cols[j2] = {pos - dim_a * (pos > base): x for pos, x in other.items()}
        rank0 -= 1
    cols = [col for col in cols if col]
    return rank0, tuple(_nakayama(algebra, cols, algebra.degrees[1:]))


def _entry(vec, base, dim_a):
    """The entry of a sparse flattened column at the generator whose
    positions start at ``base``, as {basis index: coeff}."""
    return {pos - base: x for pos, x in vec.items() if base <= pos < base + dim_a}


def _inverse(algebra, elem):
    """The inverse y of a unit u given as {basis index: coeff}, in that form.
    Products only raise degrees, so y comes by forward substitution in
    degree order: y_0 = 1/u_0, and y_d = -(1/u_0) * sum of u_e * y_(d-e)
    over the positive degrees e of u with d - e a basis degree."""
    p, basis, index = algebra.char, algebra.degrees, algebra._index
    inv = pow(elem[0], -1, p)
    terms = [(basis[b], x) for b, x in elem.items() if b]
    y = {0: inv}
    for k, d in enumerate(basis[1:], 1):
        acc = sum(x * y.get(index.get(d - e), 0) for e, x in terms)
        if acc % p:
            y[k] = -inv * acc % p
    return y


def _times(algebra, vec, elem, acc=None):
    """acc + elem * vec for a sparse flattened column vec and an algebra
    element elem given as {basis index: coeff}; acc is not changed."""
    p, basis = algebra.char, algebra.degrees
    out = {} if acc is None else dict(acc)
    monomials = _multiples(algebra, vec, [basis[b] for b in elem])
    for c, image in zip(elem.values(), monomials):
        for pos, x in image.items():
            y = (out.get(pos, 0) + c * x) % p
            if y:
                out[pos] = y
            else:
                del out[pos]
    return out


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


def _nakayama(algebra, vecs, degrees):
    """Nakayama selection over sparse flattened columns: the ones kept, in
    order.  ``degrees`` are degrees whose monomial multiples of the columns
    span the radical part m*N of the submodule N the columns generate.

    Those multiples go into one span first; then the columns are taken in
    order, and one is kept when it enlarges the span.  The kept columns
    minimally generate N.
    """
    span = Span(algebra.char)
    for vec in vecs:
        for scaled in _multiples(algebra, vec, degrees):
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
    kern = sparse_kernel(images, algebra.char)
    # kern is a k-basis of an A-submodule, so m*ker is its atom multiples
    return _nakayama(algebra, kern, algebra._atoms())


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
        raise NonPositive(f"resolution length must be >= 1, got {length}")
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


def _realize(module: PresentedModule) -> Realization:
    if module._real is not None:
        return module._real
    algebra = module.algebra
    dim_a = algebra.dim
    span = Span(algebra.char)
    for col in module.columns:
        for image in _multiples(algebra, col, algebra.degrees):
            span.add(image)
    # the positions that lead no row of the relation span index a k-basis of
    # the module; a vector's coordinates are its remainder modulo the span
    free_pos = [pos for pos in range(module.rank0 * dim_a) if pos not in span.rows]
    coord = {pos: i for i, pos in enumerate(free_pos)}
    entries = [[] for _ in algebra.degrees]
    for j, pos in enumerate(free_pos):
        for ents, image in zip(entries, _multiples(algebra, {pos: 1}, algebra.degrees)):
            ents.extend((coord[i], j, x) for i, x in span.reduce(image).items())
    real = Realization(len(free_pos), tuple(map(tuple, entries)))
    object.__setattr__(module, "_real", real)
    return real


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
        raise AlgebraMismatch(
            f"{left.algebra.descriptor()} vs {right.algebra.descriptor()}"
        )


def _levels(module):
    """Omega^j M for j = 0, 1, ..., each as a Counter of its incidence
    components, one syzygy step per level asked for.  Each distinct component
    is resolved once into the algebra's ``_omega_store``; a free summand has
    syzygy module 0, so it leaves the walk after its level."""
    algebra, store = module.algebra, module.algebra._omega_store
    level = _component_split(algebra, module.rank0, module.columns)
    while True:
        yield level
        deeper = Counter()
        for key, m in level.items():
            if key[1] and key not in store:  # no kernel for the free A = (1, ())
                syz = _syzygy_columns(algebra, [dict(col) for col in key[1]])
                store[key] = _component_split(algebra, len(key[1]), syz)
            for omega, c in store.get(key, {}).items():
                deeper[omega] += m * c
        level = deeper


def _change_of_rings(module, target, upto, transpose):
    """Ext or Tor of sums of k and A over k[H]/(t^q), q not the multiplicity
    m, from A_m = k[H]/(t^m); None where that does not apply.  t^q is regular
    on k[[H]], so (Nagata, Shamash; Avramov, "Infinite free resolutions",
    ch. 3) P_k over A_q is P_k over A_m, divided by 1 - z when q is no
    minimal generator, and A_q and A_m have the same Bass numbers.  With e_i = dim
    Ext^i(k, k) over A_m (prefix sums for such q), b_i = dim Ext^i(k, A_m),
    M = a k + f A and N = c k + g A: Ext^i(M, N) = a c e_i + a g b_i +
    [i = 0] f dim N, and Tor_i(M, N) alike with b = (1, 0, 0, ...)."""
    algebra = module.algebra
    H, q = algebra.semigroup, algebra.truncation_q
    if q is None or q == H.multiplicity:
        return None
    free = (1, ())
    k_key = next(iter(_component_split(algebra, 1, residue_field(algebra).columns)))
    splits = [_component_split(algebra, M.rank0, M.columns) for M in (module, target)]
    if any(split.keys() - {k_key, free} for split in splits):
        return None
    (a, f), (c, g) = ((split[k_key], split[free]) for split in splits)
    base = truncation_algebra(H, H.multiplicity, algebra.char)
    k = residue_field(base)
    e = ext_dims(k, k, upto)
    if q not in H.generators:
        e = tuple(accumulate(e))
    if transpose:  # Tor_i(k, A) is k at i = 0 and 0 above
        b = (1,) + (0,) * upto
    else:
        b = ext_dims(k, free_module(base, 1), upto)
    dims = [a * c * x + a * g * y for x, y in zip(e, b)]
    dims[0] += f * (c + g * algebra.dim)
    return tuple(dims)


def _derived_dims(module, target, upto, transpose):
    """dim F^i(module) for i = 0..upto, where F is Hom(-, target), or
    - tensor target when ``transpose``, and F^i its i-th derived functor.

    Dimension shift on minimal presentations, for F = Hom (Ext) and
    F = tensor (Tor) alike, with n = dim target:
      F^0(M) = F(M)
      F^1(M) = F(Omega M) - rank0 * n + F(M)
      F^i(M) = F^(i-1)(Omega M)          for i >= 2
    so F^(j+1)(M) = F(Omega^(j+1) M) - rank0(Omega^j M) * n + F(Omega^j M),
    with F of each Omega^j M summed over the components of ``_levels``.
    Sums of k and A over a truncation other than A_m are answered first by
    ``_change_of_rings``, from the walk over A_m.
    """
    _require_same_algebra(module, target)
    if upto < 0:
        raise NonPositive(f"upto must be >= 0, got {upto}")
    routed = _change_of_rings(module, target, upto, transpose)
    if routed is not None:
        return routed
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
    return _derived_dims(module, target, upto, transpose=False)


def tor_dims(module: PresentedModule, target: PresentedModule, upto: int):
    """dim_k Tor_i(module, target) for i = 0..upto, as a tuple."""
    return _derived_dims(module, target, upto, transpose=True)


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtWindowReport":
        last = data["last_nonzero_in_window"]
        return cls(
            last_nonzero_in_window=None if last == "none" else int(last),
            nonzero_at_boundary=bool(data["nonzero_at_boundary"]),
        )


def ext_deg_window(module: PresentedModule, window: int = 12) -> ExtWindowReport:
    """Scan dim Ext^i(M + A, M + A) for 1 <= i <= window."""
    if window < 1:
        raise NonPositive(f"window must be >= 1, got {window}")
    doubled = direct_sum(module, free_module(module.algebra, 1))
    dims = ext_dims(doubled, doubled, window)
    last = max((i for i in range(1, window + 1) if dims[i]), default=None)
    return ExtWindowReport(
        last_nonzero_in_window=last,
        nonzero_at_boundary=dims[window] != 0,
    )
