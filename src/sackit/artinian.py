"""Monomial Artinian algebras with exact minimal free resolutions.

The algebras are quotients k[H]/E of a numerical semigroup algebra by a
cofinite monomial ideal E, most often the truncation E = (t^q).  Their
k-basis is the finite set of member degrees outside E, and the product of
two basis monomials is either a basis monomial or zero, so the whole
multiplication table is a partial map on indices.

Modules are finitely presented by a relation matrix over the algebra
(columns are relations).  Presentations are minimalized on construction:
unit entries are eliminated, then redundant relation columns are dropped by
the Nakayama criterion.  Syzygies are computed as exact kernels over the
prime field followed by minimal generator selection, so every resolution
produced here has all differential entries inside the radical.

Ext and Tor dimensions come from the minimal resolution via dimension
shifting.  Presentations are first split into their direct summands
(connected components of the generator/relation incidence graph) and each
distinct component is resolved once; this keeps exponentially growing Betti
sequences affordable while every reported number is still the exact
cohomology dimension over the chosen prime field.  Dimension results on the
monomial inputs used here are characteristic free, which the test suite
checks by recomputing tables in a second characteristic.

Determinism: pivoting is lexicographic, generator selection is greedy in
canonical kernel order, and all caches are keyed by exact presentations.
Those caches live on the algebra (``_comp_store`` and ``_omega_store``) and
Ext and Tor computations fill them, so an algebra must not be shared between
threads that compute with it.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

from .errors import (
    AlgebraMismatch,
    DomainError,
    NonMinimalInput,
    NonPositive,
    ShapeMismatch,
)
from .ideals import SemigroupIdeal
from .modp import Span, kernel_basis, rank, rref, solve
from .semigroup import NumericalSemigroup

DEFAULT_PRIME = 32003
PRIME_ENV_VAR = "SACKIT_PRIME"


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


def default_characteristic() -> int:
    """The field characteristic used when none is given: the SACKIT_PRIME
    environment variable if set, else 32003."""
    raw = os.environ.get(PRIME_ENV_VAR)
    if raw is None:
        return DEFAULT_PRIME
    try:
        p = int(raw)
    except ValueError as exc:
        raise DomainError(f"{PRIME_ENV_VAR}={raw!r} is not an integer") from exc
    if not _is_prime(p):
        raise DomainError(f"{PRIME_ENV_VAR}={p} is not prime")
    return p


class MonomialArtinianAlgebra:
    """Finite dimensional quotient of a numerical semigroup algebra by a
    cofinite monomial ideal, over a prime field."""

    __slots__ = (
        "semigroup",
        "ideal",
        "truncation_q",
        "char",
        "degrees",
        "_index",
        "_prod",
        "_comp_store",
        "_omega_store",
    )

    def __init__(self, ideal: SemigroupIdeal, char: int | None, truncation_q: int | None):
        p = default_characteristic() if char is None else int(char)
        if not _is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        degrees = ideal.complement()
        index = {d: i for i, d in enumerate(degrees)}
        prod = tuple(
            tuple(index.get(a + b) for b in degrees) for a in degrees
        )
        object.__setattr__(self, "semigroup", ideal.ambient)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "truncation_q", truncation_q)
        object.__setattr__(self, "char", p)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_prod", prod)
        object.__setattr__(self, "_comp_store", {})
        object.__setattr__(self, "_omega_store", {})

    def __setattr__(self, name, value):
        raise AttributeError("MonomialArtinianAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.degrees)

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
        out = [0] * self.dim
        if i is not None:
            out[i] = 1
        return tuple(out)

    def mul(self, a, b) -> tuple[int, ...]:
        p = self.char
        out = [0] * self.dim
        prod = self._prod
        for i, ai in enumerate(a):
            if ai:
                row = prod[i]
                for j, bj in enumerate(b):
                    if bj:
                        k = row[j]
                        if k is not None:
                            out[k] = (out[k] + ai * bj) % p
        return tuple(out)

    def is_unit(self, a) -> bool:
        # local algebra: invertible iff the constant coefficient is nonzero
        return a[0] % self.char != 0

    def invert(self, a) -> tuple[int, ...]:
        if not self.is_unit(a):
            raise DomainError("element is not a unit")
        mat = [
            [self.mul(a, self.monomial(self.degrees[j]))[i] for j in range(self.dim)]
            for i in range(self.dim)
        ]
        rhs = [1] + [0] * (self.dim - 1)
        sol = solve(mat, rhs, self.char)
        assert sol is not None
        return tuple(sol)

    # -- structure ---------------------------------------------------------

    def radical_index(self) -> int:
        """Least r with m^r = 0, m the ideal of positive-degree monomials."""
        current = set(range(1, self.dim))
        r = 1
        while current:
            r += 1
            positive = range(1, self.dim)
            current = {
                self._prod[i][j]
                for i in positive
                for j in current
                if self._prod[i][j] is not None
            }
        return r

    def embedding_dim(self) -> int:
        """Number of minimal generators of the radical: positive basis
        monomials that are not products of two positive ones."""
        products = {
            self._prod[i][j]
            for i in range(1, self.dim)
            for j in range(1, self.dim)
        }
        return sum(1 for i in range(1, self.dim) if i not in products)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MonomialArtinianAlgebra):
            return NotImplemented
        return (
            self.degrees == other.degrees
            and self.char == other.char
            and self._prod == other._prod
        )

    def __hash__(self) -> int:
        return hash((self.degrees, self.char))

    def __repr__(self) -> str:
        return f"MonomialArtinianAlgebra({self.descriptor()})"


def truncation_algebra(
    semigroup: NumericalSemigroup, q: int, char: int | None = None
) -> MonomialArtinianAlgebra:
    """k[H]/(t^q) with basis the Apery set of q; q must be positive."""
    if q <= 0:
        raise NonPositive(f"truncation degree must be positive, got {q}")
    principal = SemigroupIdeal.from_generators(semigroup, [q])
    return MonomialArtinianAlgebra(principal, char, truncation_q=q)


def quotient_algebra(
    ideal: SemigroupIdeal, char: int | None = None
) -> MonomialArtinianAlgebra:
    """k[H]/E for any cofinite monomial ideal E."""
    return MonomialArtinianAlgebra(ideal, char, truncation_q=None)


# ----------------------------------------------------------------------------
# presented modules


class PresentedModule:
    """Cokernel of a relation matrix over a MonomialArtinianAlgebra.

    relations is a tuple of columns; each column is a tuple of rank0
    algebra elements.  Constructed instances always carry a minimal
    presentation: no unit entries, no Nakayama-redundant columns.
    """

    __slots__ = ("algebra", "rank0", "relations", "_real")

    def __init__(self, algebra, rank0, relations):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rank0", rank0)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_real", None)

    def __setattr__(self, name, value):
        raise AttributeError("PresentedModule is immutable")

    def is_free(self) -> bool:
        return not self.relations

    def dimension(self) -> int:
        """k-dimension of the module."""
        return _realize(self).dim

    def __repr__(self) -> str:
        return (
            f"PresentedModule(rank0={self.rank0}, "
            f"relations={len(self.relations)}, over {self.algebra.descriptor()})"
        )


def _check_shape(algebra, rank0, relations):
    if rank0 < 0:
        raise ShapeMismatch(f"rank0 must be >= 0, got {rank0}")
    cols = []
    for col in relations:
        col = tuple(tuple(int(x) % algebra.char for x in entry) for entry in col)
        if len(col) != rank0:
            raise ShapeMismatch(
                f"column has {len(col)} entries, expected {rank0}"
            )
        for entry in col:
            if len(entry) != algebra.dim:
                raise ShapeMismatch(
                    f"entry has {len(entry)} coefficients, expected {algebra.dim}"
                )
        cols.append(col)
    return tuple(cols)


def module_from_presentation(algebra, rank0, relations) -> PresentedModule:
    """Build the cokernel module, minimalizing the presentation.

    Unit entries are eliminated (the matching generator is expressed by the
    others and removed), zero columns are dropped, and remaining columns
    are pruned to a minimal generating set of the relation submodule.
    """
    cols = _check_shape(algebra, rank0, relations)
    r, cols = _minimalize(algebra, rank0, cols)
    return PresentedModule(algebra, r, cols)


def residue_field(algebra) -> PresentedModule:
    """The simple module k = A/m."""
    cols = tuple(
        (algebra.monomial(d),) for d in algebra.degrees[1:]
    )
    return module_from_presentation(algebra, 1, cols)


def free_module(algebra, rank: int) -> PresentedModule:
    if rank < 0:
        raise ShapeMismatch(f"rank must be >= 0, got {rank}")
    return PresentedModule(algebra, rank, ())

def cyclic_quotient(algebra, degree: int) -> PresentedModule:
    """A/(t^degree A).  Degrees outside the basis give the free module A;
    degree 0 gives the zero module."""
    elem = algebra.monomial(degree)
    if all(x == 0 for x in elem):
        return free_module(algebra, 1)
    return module_from_presentation(algebra, 1, ((elem,),))


def direct_sum(left: PresentedModule, right: PresentedModule) -> PresentedModule:
    if left.algebra != right.algebra:
        raise AlgebraMismatch("direct sum over different algebras")
    algebra = left.algebra
    zero = algebra.zero()
    cols = [
        tuple(col) + (zero,) * right.rank0 for col in left.relations
    ] + [
        (zero,) * left.rank0 + tuple(col) for col in right.relations
    ]
    # blocks of a minimal presentation stay minimal
    return PresentedModule(algebra, left.rank0 + right.rank0, tuple(cols))


def _minimalize(algebra, rank0, cols):
    """Unit elimination, zero column removal, Nakayama column selection."""
    p = algebra.char
    cols = [list(col) for col in cols]

    changed = True
    while changed:
        changed = False
        for j, col in enumerate(cols):
            i = next((i for i, e in enumerate(col) if algebra.is_unit(e)), None)
            if i is None:
                continue
            inv = algebra.invert(col[i])
            norm = [algebra.mul(inv, e) for e in col]
            for j2, other in enumerate(cols):
                if j2 == j or all(x == 0 for x in other[i]):
                    continue
                f = other[i]
                cols[j2] = [
                    tuple(
                        (a - b) % p
                        for a, b in zip(other[row], algebra.mul(f, norm[row]))
                    )
                    for row in range(rank0)
                ]
            del cols[j]
            for j2 in range(len(cols)):
                del cols[j2][i]
            rank0 -= 1
            changed = True
            break

    cols = [col for col in cols if any(any(x for x in e) for e in col)]
    if not cols:
        return rank0, ()

    # Nakayama: keep only columns independent modulo m * (column span)
    dim_a = algebra.dim
    total = rank0 * dim_a
    radical_span = Span(total, p)
    for col in cols:
        for d in algebra.degrees[1:]:
            mono = algebra.monomial(d)
            scaled = [algebra.mul(mono, e) for e in col]
            radical_span.add(_flatten(scaled))
    kept = []
    for col in cols:
        if radical_span.add(_flatten(col)):
            kept.append(tuple(col))
    return rank0, tuple(kept)


def _flatten(column):
    out = []
    for entry in column:
        out.extend(entry)
    return out


def _unflatten(vec, rank0, dim_a):
    return tuple(
        tuple(vec[i * dim_a : (i + 1) * dim_a]) for i in range(rank0)
    )


# ----------------------------------------------------------------------------
# syzygies and resolutions


def _syzygy_columns(algebra, rank0, cols):
    """Minimal generating columns of ker(A^s -> A^rank0) for the map with
    the given columns.  The output columns have length s."""
    p = algebra.char
    dim_a = algebra.dim
    s = len(cols)
    # k-matrix of the map: domain basis (column j, monomial b)
    rows = [[0] * (s * dim_a) for _ in range(rank0 * dim_a)]
    for j, col in enumerate(cols):
        for b, d in enumerate(algebra.degrees):
            mono = algebra.monomial(d)
            image = [algebra.mul(e, mono) for e in col]
            flat = _flatten(image)
            cidx = j * dim_a + b
            for ridx, val in enumerate(flat):
                if val:
                    rows[ridx][cidx] = val
    kern = kernel_basis(rows, s * dim_a, p)

    radical_span = Span(s * dim_a, p)
    for vec in kern:
        as_cols = _unflatten(vec, s, dim_a)
        for d in algebra.degrees[1:]:
            mono = algebra.monomial(d)
            scaled = [algebra.mul(mono, e) for e in as_cols]
            radical_span.add(_flatten(scaled))
    picked = []
    for vec in kern:
        if radical_span.add(vec):
            picked.append(_unflatten(vec, s, dim_a))
    return tuple(picked)


def syzygy_step(algebra, matrix):
    """Minimal generating matrix (tuple of columns) for the kernel of the
    map given by ``matrix`` (a nonempty tuple of columns over the algebra).

    The input must be a minimal presentation matrix: any unit entry, any
    zero column, or any kernel generator escaping the radical raises
    NonMinimalInput.
    """
    cols = list(matrix)
    if not cols:
        raise ShapeMismatch("syzygy_step needs at least one column")
    rank0 = len(cols[0])
    cols = _check_shape(algebra, rank0, cols)
    for col in cols:
        if all(all(x == 0 for x in e) for e in col):
            raise NonMinimalInput("zero column in presentation matrix")
        for entry in col:
            if algebra.is_unit(entry):
                raise NonMinimalInput("unit entry in presentation matrix")
    out = _syzygy_columns(algebra, rank0, cols)
    for col in out:
        for entry in col:
            if algebra.is_unit(entry):
                raise NonMinimalInput(
                    "input columns do not minimally generate their span"
                )
    return out


@dataclass(frozen=True)
class MinimalResolution:
    """Minimal free resolution data up to a fixed homological degree.

    betti[i] is the rank of the i-th free module; matrices[i] holds the
    columns of the differential from step i+1 into step i (columns have
    length betti[i]).
    """

    module: PresentedModule
    betti: tuple[int, ...]
    matrices: tuple

    @property
    def length(self) -> int:
        return len(self.matrices)


def minimal_resolution(module: PresentedModule, length: int) -> MinimalResolution:
    """Resolve ``module`` minimally through homological degree ``length``."""
    if length < 1:
        raise NonPositive(f"resolution length must be >= 1, got {length}")
    algebra = module.algebra
    betti = [module.rank0]
    mats = []
    rank0 = module.rank0
    cols = module.relations
    for step in range(length):
        mats.append(cols)
        betti.append(len(cols))
        if step + 1 < length:
            nxt = _syzygy_columns(algebra, rank0, cols) if cols else ()
            rank0 = len(cols)
            cols = nxt
    return MinimalResolution(module, tuple(betti), tuple(mats))


def apply_columns(algebra, cols, vec):
    """Matrix action: sum of column_j * vec_j, for a vector of algebra
    elements; used to verify that consecutive differentials compose to 0."""
    if not cols:
        return ()
    rank0 = len(cols[0])
    out = [algebra.zero()] * rank0
    p = algebra.char
    for col, scalar in zip(cols, vec):
        for i, entry in enumerate(col):
            term = algebra.mul(entry, scalar)
            out[i] = tuple((a + b) % p for a, b in zip(out[i], term))
    return tuple(out)


# ----------------------------------------------------------------------------
# realizations (concrete k-vector space with the monomial action)


@dataclass(frozen=True)
class Realization:
    """k-realization of a presented module: dimension and one action matrix
    per algebra basis monomial (row-major, acting on coordinate columns)."""

    dim: int
    action: tuple


def _realize(module: PresentedModule) -> Realization:
    if module._real is not None:
        return module._real
    algebra = module.algebra
    p = algebra.char
    dim_a = algebra.dim
    r = module.rank0
    total = r * dim_a

    spanning = []
    for col in module.relations:
        for d in algebra.degrees:
            mono = algebra.monomial(d)
            spanning.append(_flatten([algebra.mul(e, mono) for e in col]))
    reduced, pivots = rref(spanning, p) if spanning else ([], [])
    pivot_set = set(pivots)
    free_pos = [pos for pos in range(total) if pos not in pivot_set]
    pos_index = {pos: i for i, pos in enumerate(free_pos)}

    def project(vec):
        v = list(vec)
        for row, pcol in zip(reduced, pivots):
            if v[pcol]:
                f = v[pcol]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return [v[pos] for pos in free_pos]

    dim_m = len(free_pos)
    action = []
    for b in range(dim_a):
        mat = [[0] * dim_m for _ in range(dim_m)]
        for j, pos in enumerate(free_pos):
            gen, mono_idx = divmod(pos, dim_a)
            k = algebra._prod[b][mono_idx]
            if k is None:
                continue
            image = [0] * total
            image[gen * dim_a + k] = 1
            coords = project(image)
            for i, val in enumerate(coords):
                if val:
                    mat[i][j] = val
        action.append(tuple(tuple(row) for row in mat))
    real = Realization(dim_m, tuple(action))
    object.__setattr__(module, "_real", real)
    return real


def realization(module: PresentedModule) -> Realization:
    """Public access to the concrete k-realization (for oracles and reports)."""
    return _realize(module)


def _act_matrix(real: Realization, elem, p):
    """Action of an algebra element on the realization, as a dim x dim matrix."""
    n = real.dim
    out = [[0] * n for _ in range(n)]
    for b, coeff in enumerate(elem):
        if coeff:
            mat = real.action[b]
            for i in range(n):
                row_out = out[i]
                row_in = mat[i]
                for j in range(n):
                    if row_in[j]:
                        row_out[j] = (row_out[j] + coeff * row_in[j]) % p
    return out


# ----------------------------------------------------------------------------
# component bookkeeping for Ext/Tor


def _component_split(algebra, rank0, cols):
    """Split a minimal presentation into incidence components.

    Returns (Counter of component keys, free rank) and registers each key's
    local presentation on the algebra.
    """
    parent = list(range(rank0))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    supports = []
    for col in cols:
        sup = [i for i, e in enumerate(col) if any(e)]
        supports.append(sup)
        for a, b in zip(sup, sup[1:]):
            union(a, b)

    touched = set()
    groups: dict[int, list[int]] = {}
    for col_idx, sup in enumerate(supports):
        root = find(sup[0])
        groups.setdefault(root, []).append(col_idx)
        touched.update(sup)
    for row in range(rank0):
        if row in touched:
            groups.setdefault(find(row), [])

    counter: Counter = Counter()
    free = rank0 - len(touched)
    for root, col_indices in groups.items():
        rows = sorted(r for r in range(rank0) if find(r) == root)
        local = {row: i for i, row in enumerate(rows)}
        local_cols = []
        for ci in col_indices:
            col = cols[ci]
            local_cols.append(tuple(col[row] for row in rows))
        local_cols.sort()
        key = (len(rows), tuple(local_cols))
        algebra._comp_store.setdefault(key, (len(rows), tuple(local_cols)))
        counter[key] += 1
    return counter, free


def _module_components(module: PresentedModule):
    return _component_split(module.algebra, module.rank0, module.relations)


def _omega(algebra, key):
    """Components of the first syzygy module of a registered component."""
    cached = algebra._omega_store.get(key)
    if cached is not None:
        return cached
    rank0, cols = algebra._comp_store[key]
    syz = _syzygy_columns(algebra, rank0, cols)
    result = _component_split(algebra, len(cols), syz)
    algebra._omega_store[key] = result
    return result


def _component_module(algebra, key) -> PresentedModule:
    rank0, cols = algebra._comp_store[key]
    return PresentedModule(algebra, rank0, cols)


class _HomSession:
    """Per-target caches for Hom/tensor/Ext/Tor dimension queries."""

    def __init__(self, algebra, target_real):
        self.algebra = algebra
        self.real = target_real
        self.hom: dict = {}
        self.ten: dict = {}
        self.ext: dict = {}
        self.tor: dict = {}

    def hom_dim_key(self, key) -> int:
        if key in self.hom:
            return self.hom[key]
        rank0, cols = self.algebra._comp_store[key]
        val = self._hom_dim(rank0, cols)
        self.hom[key] = val
        return val

    def _hom_dim(self, rank0, cols) -> int:
        p = self.algebra.char
        n = self.real.dim
        rows = []
        for col in cols:
            blocks = [_act_matrix(self.real, e, p) for e in col]
            for i in range(n):
                row = []
                for blk in blocks:
                    row.extend(blk[i])
                rows.append(row)
        return rank0 * n - rank(rows, p)

    def ten_dim_key(self, key) -> int:
        if key in self.ten:
            return self.ten[key]
        rank0, cols = self.algebra._comp_store[key]
        p = self.algebra.char
        n = self.real.dim
        spanning = []
        for col in cols:
            blocks = [_act_matrix(self.real, e, p) for e in col]
            for j in range(n):
                vec = []
                for blk in blocks:
                    vec.extend(blk[i][j] for i in range(n))
                spanning.append(vec)
        val = rank0 * n - rank(spanning, p)
        self.ten[key] = val
        return val

    # Ext via dimension shift on minimal presentations:
    #   Ext^0(M, N) = Hom(M, N)
    #   Ext^1(M, N) = Hom(Omega M, N) - rank0 * dim N + Hom(M, N)
    #   Ext^i(M, N) = Ext^(i-1)(Omega M, N)          for i >= 2
    # and additivity over direct summand components.

    def ext_counter(self, counter, free, i) -> int:
        if i == 0:
            return (
                sum(m * self.hom_dim_key(k) for k, m in counter.items())
                + free * self.real.dim
            )
        return sum(m * self.ext_key(k, i) for k, m in counter.items())

    def ext_key(self, key, i) -> int:
        memo = (key, i)
        if memo in self.ext:
            return self.ext[memo]
        omega_counter, omega_free = _omega(self.algebra, key)
        if i == 1:
            rank0, _ = self.algebra._comp_store[key]
            hom_omega = self.ext_counter(omega_counter, omega_free, 0)
            val = hom_omega - rank0 * self.real.dim + self.hom_dim_key(key)
        else:
            val = self.ext_counter(omega_counter, omega_free, i - 1)
        self.ext[memo] = val
        return val

    # Tor mirrors Ext with the tensor functor:
    #   Tor_1(M, N) = (Omega M tensor N) - rank0 * dim N + (M tensor N)

    def tor_counter(self, counter, free, i) -> int:
        if i == 0:
            return (
                sum(m * self.ten_dim_key(k) for k, m in counter.items())
                + free * self.real.dim
            )
        return sum(m * self.tor_key(k, i) for k, m in counter.items())

    def tor_key(self, key, i) -> int:
        memo = (key, i)
        if memo in self.tor:
            return self.tor[memo]
        omega_counter, omega_free = _omega(self.algebra, key)
        if i == 1:
            rank0, _ = self.algebra._comp_store[key]
            ten_omega = self.tor_counter(omega_counter, omega_free, 0)
            val = ten_omega - rank0 * self.real.dim + self.ten_dim_key(key)
        else:
            val = self.tor_counter(omega_counter, omega_free, i - 1)
        self.tor[memo] = val
        return val


def _require_same_algebra(left: PresentedModule, right: PresentedModule):
    if left.algebra != right.algebra:
        raise AlgebraMismatch(
            f"{left.algebra.descriptor()} vs {right.algebra.descriptor()}"
        )


def ext_dims(module: PresentedModule, target: PresentedModule, upto: int):
    """dim_k Ext^i(module, target) for i = 0..upto, as a tuple."""
    _require_same_algebra(module, target)
    if upto < 0:
        raise NonPositive(f"upto must be >= 0, got {upto}")
    session = _HomSession(module.algebra, _realize(target))
    counter, free = _module_components(module)
    return tuple(session.ext_counter(counter, free, i) for i in range(upto + 1))


def tor_dims(module: PresentedModule, target: PresentedModule, upto: int):
    """dim_k Tor_i(module, target) for i = 0..upto, as a tuple."""
    _require_same_algebra(module, target)
    if upto < 0:
        raise NonPositive(f"upto must be >= 0, got {upto}")
    session = _HomSession(module.algebra, _realize(target))
    counter, free = _module_components(module)
    return tuple(session.tor_counter(counter, free, i) for i in range(upto + 1))


def is_free(module: PresentedModule) -> bool:
    return module.is_free()


@dataclass(frozen=True)
class ExtWindowReport:
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
    algebra = module.algebra
    doubled = direct_sum(module, free_module(algebra, 1))
    dims = ext_dims(doubled, doubled, window)
    last = None
    for i in range(1, window + 1):
        if dims[i]:
            last = i
    return ExtWindowReport(
        last_nonzero_in_window=last,
        nonzero_at_boundary=dims[window] != 0,
    )
