"""Resolutions, Ext and Tor over monomial Artinian algebras.

Three oracles cross-check the dimension-shift engine:

 * commuting_hom_dim  -- Hom as the solution space of the linear system
   "f commutes with every basis monomial action" on concrete realizations;
 * hom_complex_ext    -- cohomology of the materialized Hom complex;
 * tensor_complex_tor -- homology of the materialized tensor complex.

Only commuting_hom_dim is independent of the syzygy code: it uses
realizations and rank, nothing else.  hom_complex_ext and tensor_complex_tor
build their complexes from minimal_resolution, which finds syzygies with
_syzygy_columns; they check the component splitting and the dimension shift
of ext_dims/tor_dims, not the syzygies.  The syzygies are checked by
test_resolution_is_a_minimal_exact_complex, which builds its k-matrices
(flatten_map) with mul, and byte for byte against the dense engine that the
sparse one replaced (test_dense_oracle.py).  The library stores neither
dense view these oracles read, so both are derived here, once: the
resolution's matrices (resolution_matrices) by _syzygy_columns over the
whole presentation, beside the component walk that gives the Betti numbers,
and a realization's action (dense_action) from its sparse entries.  Both
complex oracles multiply that action out (act_matrix), while the engine
reads the sparse entries.  mul, realization and the structure invariants
are checked against a dense product table built here (dense_table); the
element helpers (zero, monomial, is_unit, and invert, which solves a*y = 1
densely) and the radical index DP (radical_index) live here too, since no
command uses them.
The radical index and embedding dimension that certify's premises decide
from the generators are checked against a scan of products over a sieved
basis (scan_invariants).
"""

import hashlib
import itertools
from math import gcd, isqrt, log2, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from sackit import (
    NumericalSemigroup,
    cyclic_quotient,
    direct_sum,
    ext_deg_window,
    ext_dims,
    free_module,
    minimal_resolution,
    module_from_presentation,
    quotient_algebra,
    realization,
    residue_field,
    tor_dims,
    truncation_algebra,
    SemigroupIdeal,
)
import sackit.artinian
from sackit.artinian import ExtWindowReport, _dense_column, _is_prime, _syzygy_columns
from sackit.certify import _ulrich_candidates, verify_premise
from sackit.errors import SackitError, TooLarge
from sackit.modp import Span, rank, sparse_kernel
from test_modp import solve


def trunc(gens, q, char=None):
    return truncation_algebra(NumericalSemigroup.from_generators(gens), q, char)


# algebra elements as dense coefficient tuples over A.degrees, the form
# A.mul takes and gives

def zero(A):
    return (0,) * A.dim


def monomial(A, degree):
    """t^degree; a degree outside the basis gives zero."""
    return tuple(int(d == degree) for d in A.degrees)


def is_unit(A, a):
    # local algebra: invertible iff the constant coefficient is nonzero
    return a[0] % A.char != 0


def invert(A, a):
    """The inverse of the unit a: the solution y of a*y = 1, solved densely
    over the columns a*t^d."""
    cols = [A.mul(a, monomial(A, d)) for d in A.degrees]
    return tuple(solve(list(zip(*cols)), monomial(A, 0), A.char))


def radical_index(A):
    """Least r with m^r = 0, m the ideal of positive-degree monomials: one
    more than the longest path from 0 by atom steps through the basis, by a
    DP in degree order (the basis is closed under division)."""
    atoms = A._atoms()
    longest = {0: 0}
    for d in A.degrees[1:]:
        longest[d] = 1 + max(longest.get(d - a, -1) for a in atoms if a <= d)
    return 1 + max(longest.values())


def apply_columns(algebra, cols, vec):
    """Matrix action: sum of column_j * vec_j, for a vector of algebra
    elements; used to verify that consecutive differentials compose to 0."""
    if not cols:
        return ()
    rank0 = len(cols[0])
    out = [zero(algebra)] * rank0
    p = algebra.char
    for col, scalar in zip(cols, vec):
        for i, entry in enumerate(col):
            term = algebra.mul(entry, scalar)
            out[i] = tuple((a + b) % p for a, b in zip(out[i], term))
    return tuple(out)


def flatten_map(algebra, nrows, cols):
    """The k-matrix of the free-module map with the given columns."""
    n = algebra.dim
    rows = [[0] * (len(cols) * n) for _ in range(nrows * n)]
    for j, col in enumerate(cols):
        for g, entry in enumerate(col):
            for b, d in enumerate(algebra.degrees):
                prod = algebra.mul(entry, monomial(algebra, d))
                for a in range(n):
                    rows[g * n + a][j * n + b] = prod[a]
    return rows


def resolution_matrices(res):
    """The differentials of a minimal resolution as dense matrices: entry i
    holds the betti[i+1] columns, of length betti[i], of the map from step
    i+1 into step i, by _syzygy_columns over the whole presentation."""
    A, cols = res.module.algebra, res.module.columns
    mats = [res.module.relations]
    for _ in range(res.length - 1):
        rank0, cols = len(cols), _syzygy_columns(A, cols)
        mats.append(tuple(_dense_column(vec, rank0, A.dim) for vec in cols))
    return tuple(mats)


def dense_action(real):
    """A realization's action as one dense row-major matrix per basis
    monomial, from its sparse (row, column, coeff) entries."""
    n = real.dim
    return tuple(
        _dense_column({i * n + j: x for i, j, x in ents}, n, n) for ents in real.entries
    )


def commuting_hom_dim(M, N):
    rm, rn = realization(M), realization(N)
    p = M.algebra.char
    dm, dn = rm.dim, rn.dim
    if dm == 0 or dn == 0:
        return 0
    rows = []
    for Am, An in zip(dense_action(rm), dense_action(rn)):
        for i in range(dn):
            for j in range(dm):
                row = [0] * (dn * dm)
                for t in range(dm):
                    row[i * dm + t] = (row[i * dm + t] + Am[t][j]) % p
                for t in range(dn):
                    row[t * dm + j] = (row[t * dm + j] - An[i][t]) % p
                rows.append(row)
    return dn * dm - rank(rows, p)


def act_matrix(action, elem, p):
    """Action of an algebra element, given sparse as {basis index: coeff}, as
    the dense matrix sum of a realization's ``dense_action`` matrices, so
    the complex oracles share no code with ext_dims and tor_dims."""
    n = len(action[0])
    out = [[0] * n for _ in range(n)]
    for b, coeff in elem.items():
        for row_out, row_in in zip(out, action[b]):
            for j, x in enumerate(row_in):
                row_out[j] = (row_out[j] + coeff * x) % p
    return out


def hom_complex_ext(M, N, upto):
    res = minimal_resolution(M, upto + 1)
    realN = realization(N)
    n, action = realN.dim, dense_action(realN)
    p = M.algebra.char
    deltas = []
    for i, cols in enumerate(resolution_matrices(res)):  # d_{i+1}: F_{i+1} -> F_i
        src = res.betti[i] * n
        rows = [[0] * src for _ in range(res.betti[i + 1] * n)]
        for j, col in enumerate(cols):
            for g, entry in enumerate(col):
                blk = act_matrix(action, dict(enumerate(entry)), p)
                for a in range(n):
                    for b in range(n):
                        rows[j * n + a][g * n + b] = blk[a][b]
        deltas.append(rows)
    dims, prev = [], 0
    for i in range(upto + 1):
        rk = rank(deltas[i], p)
        dims.append(res.betti[i] * n - rk - prev)
        prev = rk
    return tuple(dims)


def tensor_complex_tor(M, N, upto):
    res = minimal_resolution(M, upto + 1)
    realN = realization(N)
    n, action = realN.dim, dense_action(realN)
    p = M.algebra.char
    ranks = []
    for i, cols in enumerate(resolution_matrices(res)):
        rows = [[0] * (res.betti[i + 1] * n) for _ in range(res.betti[i] * n)]
        for j, col in enumerate(cols):
            for g, entry in enumerate(col):
                blk = act_matrix(action, dict(enumerate(entry)), p)
                for a in range(n):
                    for b in range(n):
                        rows[g * n + a][j * n + b] = blk[a][b]
        ranks.append(rank(rows, p))
    dims = [res.betti[0] * n - ranks[0]]
    for i in range(1, upto + 1):
        dims.append(res.betti[i] * n - ranks[i - 1] - ranks[i])
    return tuple(dims)


def test_algebra_structure_frozen():
    A = trunc([3, 4, 5], 3)
    assert A.descriptor() == "H=3,4,5; q=3; p=32003"
    assert A.degrees == (0, 4, 5)
    assert A.dim == 3
    assert A.embedding_dim() == 2
    assert radical_index(A) == 2
    B = trunc([4, 5, 6], 4)
    assert B.degrees == (0, 5, 6, 11)
    assert radical_index(B) == 3  # 5 + 6 = 11 survives the truncation
    assert B.embedding_dim() == 2
    C = trunc([3, 4], 3)
    assert C.degrees == (0, 4, 8)
    assert radical_index(C) == 3
    assert C.embedding_dim() == 1


def test_algebra_multiplication():
    B = trunc([4, 5, 6], 4)
    x5, x6 = monomial(B, 5), monomial(B, 6)
    assert B.mul(x5, x6) == monomial(B, 11)
    assert B.mul(x5, x5) == zero(B)  # 10 is cut off by the truncation
    one = monomial(B, 0)
    assert B.mul(one, x6) == x6
    assert is_unit(B, one) and not is_unit(B, x5)
    # (1 + x5) * (1 - x5) = 1 since x5^2 = 0
    u = tuple((a + b) % B.char for a, b in zip(one, x5))
    assert B.mul(u, invert(B, u)) == one
    assert monomial(B, 7) == zero(B)  # 7 is not in the semigroup


def test_quotient_algebra_by_nonprincipal_ideal():
    H = NumericalSemigroup.from_generators([5, 6, 9])
    E = SemigroupIdeal.from_generators(H, [6, 9])
    Q = quotient_algebra(E)
    assert Q.descriptor() == "H=5,6,9; I=6,9; p=32003"
    assert Q.degrees == (0, 5, 10)
    assert Q.embedding_dim() == 1  # 10 = 5 + 5 is a product
    assert radical_index(Q) == 3


def strong_liar(n, a):
    """Whether the odd n passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_matches_a_sieve_and_refuses_strong_pseudoprimes():
    n = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    assert [x for x in range(n) if _is_prime(x)] == [x for x in range(n) if sieve[x]]
    # composites with no factor up to 37, so past the trial division, that
    # are strong pseudoprimes to the first Miller-Rabin bases
    for factors, bases in (((151, 751, 28351), (2, 3, 5, 7)),
                           ((149491, 747451, 34233211), (2, 3, 5, 7, 11, 13, 17, 19, 23))):
        composite = prod(factors)
        assert min(factors) > 37 and all(strong_liar(composite, a) for a in bases)
        assert not _is_prime(composite), composite


def test_constructors_refuse_what_names_no_module():
    A = trunc([3, 4, 5], 3)
    k = residue_field(A)
    for call, error in (
            (lambda: truncation_algebra(NumericalSemigroup.from_generators([3, 5]), 4),
             "4 is not a member of <3,5>"),
            (lambda: module_from_presentation(A, -1, []), "rank0 must be >= 0, got -1"),
            (lambda: module_from_presentation(A, 1, [((1, 0),)]),
             "entry has 2 coefficients, expected 3"),
            (lambda: free_module(A, -1), "rank must be >= 0, got -1"),
            (lambda: ext_dims(k, k, -1), "upto must be >= 0, got -1"),
            (lambda: tor_dims(k, k, -1), "upto must be >= 0, got -1")):
        with pytest.raises(SackitError, match=f"^{error}$"):
            call()


def dense_table(A):
    """The product table the algebra does not store: t^a * t^b as a basis
    index, or None when a + b is no basis degree."""
    index = {d: i for i, d in enumerate(A.degrees)}
    return tuple(tuple(index.get(a + b) for b in A.degrees) for a in A.degrees)


def dense_mul(A, table, a, b):
    out = [0] * A.dim
    for i, j in itertools.product(range(A.dim), repeat=2):
        k = table[i][j]
        if k is not None:
            out[k] = (out[k] + a[i] * b[j]) % A.char
    return tuple(out)


@st.composite
def quotient_algebras(draw):
    gens = draw(st.lists(st.integers(2, 20), min_size=2, max_size=4, unique=True))
    assume(gcd(*gens) == 1)
    H = NumericalSemigroup.from_generators(gens)
    members = [x for x in range(1, 31) if H.contains(x)]
    ideal_gens = draw(st.lists(st.sampled_from(members), min_size=1, max_size=2))
    return quotient_algebra(SemigroupIdeal.from_generators(H, ideal_gens))


@settings(max_examples=40, deadline=None)
@given(quotient_algebras(), st.data())
def test_products_match_dense_table(A, data):
    table = dense_table(A)
    positive = range(1, A.dim)
    products = {table[i][j] for i in positive for j in positive}
    assert A.embedding_dim() == sum(1 for i in positive if i not in products)
    power, r = set(positive), 1  # m^r as a set of basis indices
    while power:
        r += 1
        power = {table[i][j] for i in positive for j in power} - {None}
    assert radical_index(A) == r

    elems = st.tuples(*[st.integers(0, A.char - 1)] * A.dim)
    a, b = data.draw(elems), data.draw(elems)
    assert A.mul(a, b) == dense_mul(A, table, a, b)
    unit = (data.draw(st.integers(1, A.char - 1)),) + a[1:]
    assert dense_mul(A, table, unit, invert(A, unit)) == monomial(A, 0)

    # A/(t^c) has the basis monomials outside t^c * A, and its action
    # matrices multiply as the table says
    c = data.draw(st.sampled_from(range(A.dim)))
    real = realization(cyclic_quotient(A, A.degrees[c]))
    n, action = real.dim, dense_action(real)
    assert n == A.dim - sum(k is not None for k in table[c])
    vec = data.draw(st.tuples(*[st.integers(0, A.char - 1)] * n))

    def act(b, v):
        return tuple(
            sum(x * y for x, y in zip(row, v)) % A.char for row in action[b]
        )

    assert act(0, vec) == vec
    i = data.draw(st.sampled_from(range(A.dim)))
    for j in range(A.dim):
        k = table[i][j]
        assert act(i, act(j, vec)) == (act(k, vec) if k is not None else (0,) * n)


def scan_invariants(basis):
    """(embedding dimension, radical index) of the monomial algebra with
    these basis degrees, closed under division, by a scan of the products of
    its positive basis monomials: t^a * t^b is t^(a+b) when a + b is a basis
    degree and zero otherwise."""
    positive = set(basis) - {0}
    products = {a + b for a in positive for b in positive} & positive
    power, r = positive, 1  # m^r as a set of degrees
    while power:
        r += 1
        power = {a + b for a in positive for b in power} & positive
    return len(positive - products), r


def test_certify_premises_match_the_product_scan():
    # certify decides the radical index of k[H]/(t^q) from sums of at most
    # three atoms, and reads the embedding dimension of k[H]/(t^q) and
    # k[H]/I^p off ideal membership; here the basis comes from a sieve over
    # the generators and the invariants from scan_invariants, for every
    # semigroup with 2-4 generators in 3..13 and every member q <= F + 1,
    # and the radical index DP over the algebra's own basis agrees with both
    for size in (2, 3, 4):
        for gens in itertools.combinations(range(3, 14), size):
            if gcd(*gens) != 1:
                continue
            H = NumericalSemigroup.from_generators(gens)
            limit = 2 * H.frobenius + 3 * max(gens) + 2
            member = [True] + [False] * limit
            for x in range(1, limit + 1):
                member[x] = any(x >= g and member[x - g] for g in gens)
            members = [x for x in range(limit + 1) if member[x]]
            for q in members[1:members.index(H.frobenius + 1) + 1]:
                basis = [x for x in members if x < q or not member[x - q]]
                embdim, index = scan_invariants(basis)
                assert radical_index(truncation_algebra(H, q)) == index, (gens, q)
                ok, rad = verify_premise("radical_index_le3", semigroup=H, q=q)
                _, emb = verify_premise("emb_dim_le1", semigroup=H, q=q)
                assert dict(emb.evidence)["embdim"] == embdim, (gens, q)
                if ok:
                    assert dict(rad.evidence)["index"] == index, (gens, q)
                else:
                    # the first triple of atoms, in order, whose sum is nonzero
                    first = next(t for t in itertools.combinations_with_replacement(
                        [g for g in H.generators if g != q], 3) if sum(t) in basis)
                    assert dict(rad.evidence)["witness"] == first, (gens, q)
                    assert index > 3, (gens, q)
            for ideal_gens in _ulrich_candidates(H):
                for p in (1, 2, 3):
                    sums = {sum(c) for c in itertools.combinations_with_replacement(
                        ideal_gens, p)}
                    inside = {s + x for s in sums for x in members}
                    basis = [x for x in members if x not in inside]
                    embdim, index = scan_invariants(basis)
                    _, emb = verify_premise("emb_dim_le1", semigroup=H,
                                            ideal_gens=ideal_gens, power=p)
                    assert dict(emb.evidence)["embdim"] == embdim, (gens, ideal_gens, p)
                    A = quotient_algebra(
                        SemigroupIdeal.from_generators(H, ideal_gens).power(p))
                    assert (A.embedding_dim(), radical_index(A)) == (embdim, index)


def test_wide_quotient_products():
    # the algebra whose embedding dimension the emb_dim_le1 premise of
    # certify --ring sgp(5,1001) counts without building it
    H = NumericalSemigroup.from_generators([5, 1001])
    A = quotient_algebra(SemigroupIdeal.from_generators(H, [1001]))
    assert A.dim == 1001
    assert A.embedding_dim() == 1
    assert radical_index(A) == 1001  # t^5000 = (t^5)^1000 survives


def test_residue_field_betti_doubling():
    A = trunc([3, 4, 5], 3)  # radical square zero, embedding dimension 2
    k = residue_field(A)
    assert minimal_resolution(k, 6).betti == (1, 2, 4, 8, 16, 32, 64)
    assert ext_dims(k, k, 6) == (1, 2, 4, 8, 16, 32, 64)
    assert tor_dims(k, k, 6) == (1, 2, 4, 8, 16, 32, 64)


def test_radical_square_zero_ext_tor_closed_form():
    # k[3,4,5]/m^2 has basis 1, t^3, t^4, t^5 and m^2 = 0, so the Poincare
    # series of k is 1/(1 - 3z): Ext^i(k, k) and Tor_i(k, k) have dimension 3^i
    H = NumericalSemigroup.from_generators([3, 4, 5])
    m = SemigroupIdeal.from_generators(H, [3, 4, 5])
    A = quotient_algebra(m.power(2))
    assert A.degrees == (0, 3, 4, 5)
    k = residue_field(A)
    powers = tuple(3**i for i in range(7))
    assert ext_dims(k, k, 6) == powers
    assert tor_dims(k, k, 6) == powers


def test_chain_algebra_betti_constant():
    N5 = trunc([1], 5)  # k[t]/(t^5)
    k = residue_field(N5)
    assert minimal_resolution(k, 6).betti == (1,) * 7
    assert ext_dims(k, k, 12) == (1,) * 13
    assert tor_dims(k, k, 12) == (1,) * 13


SAMPLE_MODULES = []


def _samples():
    if SAMPLE_MODULES:
        return SAMPLE_MODULES
    A = trunc([4, 5, 6], 4)
    B = trunc([3, 4, 5], 3)
    SAMPLE_MODULES.extend([
        residue_field(A),
        cyclic_quotient(A, 5),
        cyclic_quotient(A, 11),
        direct_sum(cyclic_quotient(A, 6), residue_field(A)),
        residue_field(B),
        cyclic_quotient(B, 4),
        direct_sum(cyclic_quotient(B, 5), free_module(B, 1)),
    ])
    return SAMPLE_MODULES


# Deeper truncations, whose presentations do not split into trivial
# components: (generators of H, q, the degree c of the cyclic module cyc(c)).
DEEP_ALGEBRAS = [
    ((3, 4, 5), 6, 4),
    ((3, 4, 5), 8, 4),
    ((4, 5, 6), 8, 5),
    ((2, 5), 10, 5),
    ((3, 7), 9, 7),
    ((3, 5, 7), 9, 5),
    ((4, 6, 7, 9), 8, 6),
]
DEEP_IDS = [f"H{','.join(map(str, g))}-q{q}" for g, q, _ in DEEP_ALGEBRAS]


def deep_module(algebra, c, name):
    """k or cyc(c) = A/(t^c) over a DEEP_ALGEBRAS algebra."""
    return residue_field(algebra) if name == "k" else cyclic_quotient(algebra, c)


def walking_twin(A):
    """A truncation k[H]/(t^q) as quotient_algebra of the ideal (t^q): the
    same degrees and field, but no truncation_q, so Ext and Tor over it walk
    its own syzygies and share no cache with A."""
    twin = quotient_algebra(
        SemigroupIdeal.from_generators(A.semigroup, [A.truncation_q]), A.char)
    assert twin.degrees == A.degrees and twin.truncation_q is None
    return twin


def sums_of_k_and_A(A):
    """k, A, k + A and k + k + A: the modules the change of rings answers."""
    k, F = residue_field(A), free_module(A, 1)
    return [k, F, direct_sum(k, F), direct_sum(direct_sum(k, k), F)]


def test_residue_field_is_presented_by_the_atoms(monkeypatch):
    # oracle: the presentation of k by every positive basis monomial,
    # minimalized through the public edge
    def quotient(gens, ideal):
        H = NumericalSemigroup.from_generators(gens)
        return quotient_algebra(SemigroupIdeal.from_generators(H, ideal))

    algebras = [trunc(gens, q) for gens, q, _ in DEEP_ALGEBRAS] + [
        quotient([3, 4, 5], [6, 7, 8, 9, 10]), quotient([4, 6, 7, 9], [9, 12]),
        quotient([2, 5], [5]), quotient([5, 6, 9], [10, 11]), quotient([3, 7], [14]),
    ]
    for A in algebras:
        spanned = module_from_presentation(A, 1, [[monomial(A, d)] for d in A.degrees[1:]])
        k = residue_field(A)
        assert (k.rank0, k.columns) == (spanned.rank0, spanned.columns), A.descriptor()

    # no Nakayama selection, whose radical multiples grow as dim A squared
    def nakayama(*args):
        raise AssertionError("Nakayama selection for the residue field")

    monkeypatch.setattr("sackit.artinian._nakayama", nakayama)
    assert residue_field(trunc([2, 3], 4000)).columns == ({1: 1}, {2: 1})


def test_syzygy_selection_is_linear_in_dim_over_a_wide_truncation(monkeypatch):
    # a kernel is an A-submodule, so its Nakayama span needs only its atom
    # multiples: every positive monomial would take dim A squared adds
    calls = []
    add = Span.add

    def counted(span, vec):
        calls.append(None)
        return add(span, vec)

    monkeypatch.setattr(Span, "add", counted)
    A = trunc([2, 3], 1000)
    k = residue_field(A)
    assert ext_dims(k, k, 2) == (1, 2, 3)
    assert len(calls) <= 20 * A.dim


def test_syzygy_selection_is_linear_in_dim_through_the_walk(monkeypatch):
    # the test above over the quotient_algebra form of k[2,3]/(t^1000), which
    # the change of rings does not answer: its Ext of k walks A itself
    calls = []
    add = Span.add

    def counted(span, vec):
        calls.append(None)
        return add(span, vec)

    monkeypatch.setattr(Span, "add", counted)
    A = walking_twin(trunc([2, 3], 1000))
    k = residue_field(A)
    assert ext_dims(k, k, 2) == (1, 2, 3)
    assert len(calls) <= 20 * A.dim
    assert A._omega_store


def assert_minimal_exact(M, length):
    A = M.algebra
    res = minimal_resolution(M, length)
    betti, mats = res.betti, resolution_matrices(res)
    # consecutive maps compose to zero
    for d_next, d_here in zip(mats[1:], mats):
        for col in d_next:
            image = apply_columns(A, d_here, col)
            assert all(all(x == 0 for x in e) for e in image)
    # minimality: no unit entries anywhere
    for mat in mats:
        for col in mat:
            for entry in col:
                assert not is_unit(A, entry)
    # rank-nullity bookkeeping and exactness at every inner step
    flats = [flatten_map(A, betti[i], mat) for i, mat in enumerate(mats)]
    ranks = [rank(f, A.char) for f in flats]
    for i in range(len(flats)):
        ncols = betti[i + 1] * A.dim
        nullity = ncols - ranks[i]
        assert ranks[i] + nullity == ncols
        if i + 1 < len(flats):
            # ker(d_{i+1}) = im(d_{i+2}) as k-spaces
            assert nullity == ranks[i + 1], i


@pytest.mark.parametrize("idx", range(7))
def test_resolution_is_a_minimal_exact_complex(idx):
    assert_minimal_exact(_samples()[idx], 4)


@pytest.mark.parametrize("name", ["k", "cyc"])
@pytest.mark.parametrize("gens,q,c", DEEP_ALGEBRAS, ids=DEEP_IDS)
def test_resolution_is_a_minimal_exact_complex_deep(gens, q, c, name):
    assert_minimal_exact(deep_module(trunc(gens, q), c, name), 3)


@pytest.mark.parametrize("idx", range(7))
def test_ext0_matches_commuting_map_count(idx):
    M = _samples()[idx]
    A = M.algebra
    for N in (residue_field(A), cyclic_quotient(A, A.degrees[1]), M):
        assert ext_dims(M, N, 0)[0] == commuting_hom_dim(M, N), idx


def test_ext_matches_hom_complex_oracle():
    A = trunc([4, 5, 6], 4)
    B = trunc([3, 4, 5], 3)
    pairs = [
        (residue_field(A), cyclic_quotient(A, 5)),
        (cyclic_quotient(A, 5), cyclic_quotient(A, 6)),
        (cyclic_quotient(A, 11), residue_field(A)),
        (residue_field(B), cyclic_quotient(B, 4)),
        (direct_sum(cyclic_quotient(B, 5), residue_field(B)), residue_field(B)),
    ]
    for M, N in pairs:
        assert ext_dims(M, N, 5) == hom_complex_ext(M, N, 5)


def test_tor_matches_tensor_complex_oracle():
    A = trunc([4, 5, 6], 4)
    B = trunc([3, 4, 5], 3)
    pairs = [
        (residue_field(A), cyclic_quotient(A, 5)),
        (cyclic_quotient(A, 5), cyclic_quotient(A, 6)),
        (residue_field(B), cyclic_quotient(B, 4)),
    ]
    for M, N in pairs:
        assert tor_dims(M, N, 5) == tensor_complex_tor(M, N, 5)
        # Tor is symmetric in its arguments
        assert tor_dims(M, N, 5) == tor_dims(N, M, 5)


@pytest.mark.parametrize("n_name", ["k", "cyc"])
@pytest.mark.parametrize("m_name", ["k", "cyc"])
@pytest.mark.parametrize("gens,q,c", DEEP_ALGEBRAS, ids=DEEP_IDS)
def test_deep_ext_tor_match_complex_oracles(gens, q, c, m_name, n_name):
    A = trunc(gens, q)
    M, N = deep_module(A, c, m_name), deep_module(A, c, n_name)
    assert ext_dims(M, N, 3) == hom_complex_ext(M, N, 3)
    assert tor_dims(M, N, 3) == tensor_complex_tor(M, N, 3)


# The change of rings against the walk: per DEEP_ALGEBRAS row, H and the
# truncation degrees m, another minimal generator and the row's q (no
# generator), and the depth of the comparison; H = N has no other generator.
# The walk over the twin of the last q sets the depth (about 5 s in all).
ROUTE_CASES = [
    (gens, (gens[0], gens[1], q), depth)
    for (gens, q, _), depth in zip(DEEP_ALGEBRAS, (8, 7, 8, 12, 12, 8, 5))
] + [((1,), (1, 2, 5), 10)]


@pytest.mark.parametrize("char", [3, 32003])
@pytest.mark.parametrize(
    "gens,qs,depth", ROUTE_CASES,
    ids=[f"H{','.join(map(str, g))}-q{qs[-1]}" for g, qs, _ in ROUTE_CASES])
def test_change_of_rings_matches_the_walk(gens, qs, depth, char):
    H = NumericalSemigroup.from_generators(gens)
    for q in qs:
        A = truncation_algebra(H, q, char)
        pairs = list(zip(sums_of_k_and_A(A), sums_of_k_and_A(walking_twin(A))))
        for (M, M_twin), (N, N_twin) in itertools.product(pairs, repeat=2):
            case = (q, M.rank0, N.rank0)
            assert ext_dims(M, N, depth) == ext_dims(M_twin, N_twin, depth), case
            assert tor_dims(M, N, depth) == tor_dims(M_twin, N_twin, depth), case


def test_routed_calls_take_no_syzygy_step_over_the_truncation(monkeypatch):
    seen = []
    syzygy_columns = sackit.artinian._syzygy_columns

    def recorded(algebra, cols):
        seen.append(algebra)
        return syzygy_columns(algebra, cols)

    monkeypatch.setattr("sackit.artinian._syzygy_columns", recorded)
    A = trunc([4, 6, 7, 9], 8, char=5)
    k = residue_field(A)
    M = direct_sum(k, free_module(A, 1))
    # A_4 has radical square zero and embedding dimension 3, and 8 is no
    # minimal generator: Tor_i(k, k) = (3^(i+1) - 1) / 2
    assert tor_dims(k, M, 9)[9] == (3**10 - 1) // 2
    assert ext_dims(M, M, 9)[9] > ext_dims(k, k, 9)[9] == (3**10 - 1) // 2
    assert ext_deg_window(k, 12).nonzero_at_boundary
    # every step went to A_m = k[4,6,7,9]/(t^4), over the same field
    assert seen and all((B.truncation_q, B.char) == (4, 5) for B in seen)
    assert not A._omega_store
    # cyc(c) and a quotient_algebra walk their own algebra, and at q = m the
    # change of rings walks A_m, the algebra itself
    for N in (cyclic_quotient(A, 6), residue_field(walking_twin(A)),
              residue_field(trunc([4, 6, 7, 9], 4, char=5))):
        del seen[:]
        ext_dims(N, N, 2)
        assert seen and all(B is N.algebra for B in seen)


@pytest.mark.parametrize("gens,q,c", DEEP_ALGEBRAS, ids=DEEP_IDS)
def test_deep_residue_field_walk_matches_complex_oracles(gens, q, c):
    # the k, k cases above are answered by the change of rings; over the
    # walking twin the same numbers come from the syzygy walk
    k = residue_field(walking_twin(trunc(gens, q)))
    assert ext_dims(k, k, 3) == hom_complex_ext(k, k, 3)
    assert tor_dims(k, k, 3) == tensor_complex_tor(k, k, 3)


def test_ext_tor_tables_are_frozen():
    # Ext and Tor to depth 6, past the complex oracles' depth 3, and the
    # bytes of the dense action view, over every DEEP_ALGEBRAS algebra for
    # M, N in {k, cyc(c), cyc(c) + k}
    digest = hashlib.sha256()
    for gens, q, c in DEEP_ALGEBRAS:
        A = trunc(gens, q)
        mods = [residue_field(A), cyclic_quotient(A, c),
                direct_sum(cyclic_quotient(A, c), residue_field(A))]
        for N in mods:
            real = realization(N)
            digest.update(repr((real.dim, dense_action(real))).encode())
            for M in mods:
                digest.update(repr((ext_dims(M, N, 6), tor_dims(M, N, 6))).encode())
    assert digest.hexdigest() == (
        "3bb637513f15387cdbae797efe8f3ccec7816efa462d7977acf537b3a78a05b9"
    )


def test_syzygies_are_cached_on_the_algebra(monkeypatch):
    # each distinct component is resolved once, and Ext, Tor and every
    # target on the same algebra share what was resolved; the (k, k) block
    # walks A_3 by change of rings, so only the steps over A are counted
    calls = []
    syzygy_columns = sackit.artinian._syzygy_columns

    def counted(algebra, cols):
        if algebra is A:
            calls.append(len(cols))
        return syzygy_columns(algebra, cols)

    monkeypatch.setattr("sackit.artinian._syzygy_columns", counted)
    A = trunc([3, 4, 5], 6)
    k = residue_field(A)
    M = direct_sum(cyclic_quotient(A, 4), k)
    ext_dims(M, M, 8)
    assert len(calls) == len(A._omega_store) > 0
    del calls[:]
    tor_dims(M, M, 8)
    ext_dims(M, k, 8)
    assert calls == []


def test_free_summands_take_no_syzygy_step(monkeypatch):
    # a free summand A = (1, ()) has syzygy module 0, known without a kernel
    calls = []
    syzygy_columns = sackit.artinian._syzygy_columns

    def recorded(algebra, cols):
        calls.append(len(cols))
        return syzygy_columns(algebra, cols)

    monkeypatch.setattr("sackit.artinian._syzygy_columns", recorded)
    A = trunc([4, 5, 6], 4)
    assert ext_dims(free_module(A, 2), residue_field(A), 3) == (2, 0, 0, 0)
    assert calls == []


def test_free_summands_of_a_walked_module_take_no_syzygy_step(monkeypatch):
    # the change of rings answers the case above without a walk; over the
    # walking twin the walk itself meets the free summands
    calls = []
    syzygy_columns = sackit.artinian._syzygy_columns

    def recorded(algebra, cols):
        calls.append(len(cols))
        return syzygy_columns(algebra, cols)

    monkeypatch.setattr("sackit.artinian._syzygy_columns", recorded)
    A = walking_twin(trunc([4, 5, 6], 4))
    assert ext_dims(free_module(A, 2), residue_field(A), 3) == (2, 0, 0, 0)
    assert calls == []


def test_free_modules_are_homologically_trivial():
    A = trunc([4, 5, 6], 4)
    F = free_module(A, 2)
    N = cyclic_quotient(A, 5)
    assert not F.columns
    assert minimal_resolution(F, 4).betti == (2, 0, 0, 0, 0)
    assert ext_dims(F, N, 6) == (2 * realization(N).dim, 0, 0, 0, 0, 0, 0)
    assert tor_dims(F, N, 6) == (2 * realization(N).dim, 0, 0, 0, 0, 0, 0)
    assert ext_dims(N, F, 3)[0] == commuting_hom_dim(N, F)


def test_direct_sum_additivity():
    A = trunc([4, 5, 6], 4)
    M, N = cyclic_quotient(A, 5), residue_field(A)
    S = direct_sum(M, N)
    assert realization(S).dim == realization(M).dim + realization(N).dim
    bM = minimal_resolution(M, 4).betti
    bN = minimal_resolution(N, 4).betti
    assert minimal_resolution(S, 4).betti == tuple(
        a + b for a, b in zip(bM, bN)
    )
    T = residue_field(A)
    assert ext_dims(S, T, 4) == tuple(
        a + b for a, b in zip(ext_dims(M, T, 4), ext_dims(N, T, 4))
    )
    with pytest.raises(SackitError, match="^H=4,5,6; q=4; p=32003 vs H=3,4,5; q=3; p=32003$"):
        direct_sum(M, residue_field(trunc([3, 4, 5], 3)))


def test_characteristic_independence():
    for char in (2, 3, 32003):
        A = trunc([4, 5, 6], 4, char=char)
        k = residue_field(A)
        M = cyclic_quotient(A, 5)
        assert minimal_resolution(k, 5).betti == (1, 2, 3, 4, 5, 6)
        assert ext_dims(M, k, 5) == ext_dims(
            cyclic_quotient(trunc([4, 5, 6], 4), 5),
            residue_field(trunc([4, 5, 6], 4)),
            5,
        )
        assert A.char == char


def test_realization_dimensions():
    B = trunc([4, 5, 6], 4)
    assert realization(cyclic_quotient(B, 5)).dim == 2  # basis classes 0, 6
    assert realization(cyclic_quotient(B, 11)).dim == 3
    assert realization(residue_field(B)).dim == 1
    assert realization(free_module(B, 3)).dim == 3 * B.dim
    action = dense_action(realization(residue_field(B)))
    # every positive-degree monomial kills the residue field
    for b in range(1, B.dim):
        assert action[b] == ((0,),)


def test_cyclic_quotient_edges():
    B = trunc([4, 5, 6], 4)
    unitq = cyclic_quotient(B, 0)
    assert realization(unitq).dim == 0  # quotient by a unit collapses
    ghost = cyclic_quotient(B, 7)  # 7 is not in the semigroup: t^7 = 0
    assert not ghost.columns and realization(ghost).dim == B.dim


def test_engine_builds_no_dense_matrix(monkeypatch):
    # the engine eliminates in sparse Spans only: the dense rref, rank and
    # kernel_basis of modp are the tests' reference and never run under it
    def dense(*args):
        raise AssertionError("dense elimination in the engine")

    for name in ("rref", "kernel_basis", "rank"):
        monkeypatch.setattr(f"sackit.modp.{name}", dense)
    A = trunc([4, 6, 7, 9], 8)
    M = direct_sum(cyclic_quotient(A, 6), residue_field(A))
    assert ext_dims(M, M, 3) and tor_dims(M, M, 3)
    assert minimal_resolution(M, 3).betti and realization(M).dim
    assert ext_deg_window(M, 2).nonzero_at_boundary
    one, x4, x6 = monomial(A, 0), monomial(A, 4), monomial(A, 6)
    unit = tuple((3 * a + b) % A.char for a, b in zip(one, x4))  # 3 + t^4
    assert module_from_presentation(A, 2, [(unit, x6)]).rank0 == 1
    assert A.mul(unit, x6) == tuple((3 * a + b) % A.char for a, b in zip(x6, monomial(A, 10)))
    assert realization(cyclic_quotient(A, 0)).dim == 0


def test_betti_numbers_build_no_dense_column(monkeypatch):
    def dense(*args):
        raise AssertionError("dense column built for Betti numbers")

    monkeypatch.setattr("sackit.artinian._dense_column", dense)
    # k[6..11]/(t^6): the radical squares to zero with embedding dimension 5,
    # so Omega k = k^5 and betti_i = 5^i
    A = trunc(list(range(6, 12)), 6)
    k = residue_field(A)
    assert minimal_resolution(k, 6).betti == tuple(5**i for i in range(7))
    # a free summand adds to betti_0 only
    M = direct_sum(free_module(A, 2), k)
    assert minimal_resolution(M, 4).betti == (3, 5, 25, 125, 625)


def test_resolution_shares_the_walk_of_ext(monkeypatch):
    calls = []
    syzygy_columns = sackit.artinian._syzygy_columns

    def counted(algebra, cols):
        calls.append(len(cols))
        return syzygy_columns(algebra, cols)

    monkeypatch.setattr("sackit.artinian._syzygy_columns", counted)
    A = trunc([3, 4, 5], 6)
    M = direct_sum(cyclic_quotient(A, 4), residue_field(A))
    ext_dims(M, M, 6)
    del calls[:]
    # Betti numbers through degree 7 need the components through Omega^6 M
    # only, which ext_dims to degree 6 resolved
    assert minimal_resolution(M, 7).betti
    assert calls == []


def test_resolution_length_and_matrices_follow_betti():
    A = trunc([3, 4, 5], 6)
    M = direct_sum(cyclic_quotient(A, 4), free_module(A, 1))
    res = minimal_resolution(M, 4)
    mats = resolution_matrices(res)
    assert res.length == len(mats) == 4
    for i, mat in enumerate(mats):
        assert len(mat) == res.betti[i + 1]
        assert all(len(col) == res.betti[i] for col in mat)


def test_presentation_minimalization():
    B = trunc([4, 5, 6], 4)
    one, x5 = monomial(B, 0), monomial(B, 5)
    # a unit entry makes the generator redundant
    M = module_from_presentation(B, 2, [(one, x5)])
    assert M.rank0 == 1
    # duplicate columns collapse to one
    M2 = module_from_presentation(B, 1, [(x5,), (x5,)])
    assert len(M2.relations) == 1
    # zero columns are dropped
    M3 = module_from_presentation(B, 1, [(zero(B),)])
    assert not M3.columns
    # a column whose length is not rank0 is an error
    with pytest.raises(SackitError, match="^column has 2 entries, expected 1$"):
        module_from_presentation(B, 1, [(x5,), (x5, x5)])


def test_minimalization_takes_every_radical_multiple():
    # t^10 = t^7 * t^3 over k[3,4,5]/(t^9), with t^7 in m^2 and no atom
    # multiple of either column: a selection among the given columns by their
    # atom multiples would keep both; the selection from the kernel keeps one
    C = trunc([3, 4, 5], 9)
    M = module_from_presentation(C, 1, [(monomial(C, 3),), (monomial(C, 10),)])
    assert len(M.relations) == 1


unit_or_zero = st.sampled_from([0, 0, 1, 2, 32002])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEEP_ALGEBRAS), st.data())
def test_a_presentation_does_not_depend_on_how_its_relations_are_spelled(alg, data):
    # the minimal presentation reads only the relation submodule, so shuffled
    # columns, columns scaled by a nonzero constant, or one more column that
    # sums two of them give the same (rank0, columns)
    gens, q, _ = alg
    A = trunc(gens, q)
    p = A.char
    rank0 = data.draw(st.integers(1, 3))
    ncols = data.draw(st.integers(1, 4))
    entry = st.tuples(unit_or_zero, *[st.sampled_from([0, 0, 1, 5])] * (A.dim - 1))
    raw = [tuple(data.draw(entry) for _ in range(rank0)) for _ in range(ncols)]
    scales = data.draw(st.lists(st.integers(1, p - 1), min_size=ncols, max_size=ncols))
    i, j = (data.draw(st.integers(0, ncols - 1)) for _ in range(2))
    respellings = [
        data.draw(st.permutations(raw)),
        [tuple(tuple(c * x % p for x in e) for e in col) for c, col in zip(scales, raw)],
        raw + [tuple(tuple(map(sum, zip(a, b))) for a, b in zip(raw[i], raw[j]))],
    ]
    M = module_from_presentation(A, rank0, raw)
    for respelled in respellings:
        N = module_from_presentation(A, rank0, respelled)
        assert (N.rank0, N.columns) == (M.rank0, M.columns)


def test_window_reports():
    B = trunc([4, 5, 6], 4)
    rep = ext_deg_window(residue_field(B), 12)
    assert rep == ExtWindowReport(12, True)
    assert rep.to_json_dict() == {
        "last_nonzero_in_window": 12,
        "nonzero_at_boundary": True,
    }
    free_rep = ext_deg_window(free_module(B, 2), 12)
    assert free_rep == ExtWindowReport(None, False)
    assert free_rep.to_json_dict() == {
        "last_nonzero_in_window": "none",
        "nonzero_at_boundary": False,
    }
    with pytest.raises(SackitError, match="^window must be >= 1, got 0$"):
        ext_deg_window(residue_field(B), 0)
    with pytest.raises(SackitError, match="^resolution length must be >= 1, got 0$"):
        minimal_resolution(residue_field(B), 0)


def test_walk_depth_is_capped_before_the_first_level(monkeypatch):
    # the bit cap charges a level one bit at least, so it limits the depth:
    # 38,729 over dim A <= 2 and 30,763 over dim 3.  A walk to the limit
    # runs; one level more ends in TooLarge before any level for Ext, Tor, a
    # resolution and a window, routed (k over k[3,4,5]/(t^6) walks A_3) or
    # walked (cyc(4) over k[3,4,5]/(t^3)), and so does a 4000-digit degree
    cap = sackit.artinian.MAX_WALK_BITS
    A1, A2, A3, A6 = trunc([1], 1), trunc([2, 3], 2), trunc([3, 4, 5], 3), trunc([3, 4, 5], 6)
    for A, deepest in ((A1, 38_729), (A2, 38_729), (A3, 30_763)):
        F = free_module(A, 1)
        assert ext_dims(F, F, deepest) == (A.dim,) + (0,) * deepest
        assert minimal_resolution(F, deepest).length == deepest

    def no_level(module):
        raise AssertionError("a level was walked")

    def refused(n, dim):
        return pytest.raises(TooLarge, match=rf"^Ext or Tor to degree {n} over an algebra of "
                                             rf"dimension {dim} would hold about [0-9]+ bits, "
                                             rf"above the supported {cap}$")

    monkeypatch.setattr("sackit.artinian._levels", no_level)
    for M in (residue_field(A6), cyclic_quotient(A3, 4)):
        for walk, args in ((ext_dims, (M, M)), (tor_dims, (M, M)), (ext_deg_window, (M,))):
            for n in (30_764, 10**3999):
                with refused(n, 3):
                    walk(*args, n)
    for n in (30_764, 10**3999):
        with refused(n, 3):
            minimal_resolution(cyclic_quotient(A3, 4), n)
    for M in (free_module(A1, 1), residue_field(A2)):
        with refused(38_730, M.algebra.dim):
            ext_dims(M, M, 38_730)
        with refused(38_730, M.algebra.dim):
            minimal_resolution(M, 38_730)


def test_a_walk_past_the_bit_cap_is_refused_before_the_first_level(monkeypatch):
    # the cap reads the algebra the walk runs over: k over k[H]/(t^q) walks
    # A_m, so k over k[3,4,5]/(t^6) walks dimension 3 to 30,763 levels, where
    # dimension 6 would be past the cap; k over k[10,...,19]/(t^20) walks
    # dimension 10 to the deepest n with n² · log2(10) at the cap, not n + 1,
    # and a resolution over k[10,...,19]/(t^10) holds the same bits
    class Walked(Exception):
        pass

    def no_level(module):
        raise Walked

    monkeypatch.setattr("sackit.artinian._levels", no_level)
    cap = sackit.artinian.MAX_WALK_BITS
    deepest = max(n for n in range(isqrt(cap // 4), isqrt(cap // 3) + 1)
                  if round(n * n * log2(10)) <= cap)
    k6 = residue_field(trunc([3, 4, 5], 6))
    k20 = residue_field(trunc(range(10, 20), 20))
    k10 = residue_field(trunc(range(10, 20), 10))
    assert round(30_763**2 * log2(6)) > cap
    for M, admitted in ((k6, 30_763), (k20, deepest)):
        for walk in (ext_dims, tor_dims):
            with pytest.raises(Walked):
                walk(M, M, admitted)
    with pytest.raises(Walked):
        minimal_resolution(k10, deepest)
    for walk, args in ((ext_dims, (k20, k20)), (tor_dims, (k20, k20)), (ext_deg_window, (k20,)),
                       (minimal_resolution, (k10,))):
        with pytest.raises(TooLarge, match=rf"^Ext or Tor to degree {deepest + 1} over an "
                                           rf"algebra of dimension 10 would hold about "
                                           rf"[0-9]+ bits, above the supported {cap}$"):
            walk(*args, deepest + 1)


def test_a_syzygy_step_past_the_column_cap_is_refused_before_it_is_built(monkeypatch):
    # a walk adds len(cols) * dim A for each step it builds, known before the
    # step: the cap admits a walk at its total and refuses it one below,
    # before the last step's first k-matrix column; steps the syzygy cache
    # holds cost nothing
    sizes, multiples = [], sackit.artinian._multiples

    def recorded(algebra, cols):
        sizes.append(len(cols) * algebra.dim)
        return _syzygy_columns(algebra, cols)

    def walk(M=None):  # a fresh algebra unless M is given: its syzygy cache starts empty
        M = M or cyclic_quotient(trunc([4, 6, 7, 9], 8), 6)
        return ext_dims(M, M, 6)

    monkeypatch.setattr("sackit.artinian._syzygy_columns", recorded)
    dims = walk()
    total = sum(sizes)
    assert len(sizes) > 1 and total > max(sizes)
    monkeypatch.setattr("sackit.artinian.MAX_WALK_COLUMNS", total)
    assert walk() == dims
    cached = cyclic_quotient(trunc([4, 6, 7, 9], 8), 6)
    walk(cached)
    monkeypatch.setattr("sackit.artinian.MAX_WALK_COLUMNS", 0)
    assert walk(cached) == dims
    monkeypatch.setattr("sackit.artinian.MAX_WALK_COLUMNS", total - 1)
    del sizes[:]

    def step_multiples(algebra, vec, degrees):
        assert sum(sizes) < total, "a k-matrix past the cap was built"
        return multiples(algebra, vec, degrees)

    monkeypatch.setattr("sackit.artinian._multiples", step_multiples)
    with pytest.raises(TooLarge, match=rf"^a syzygy walk of {total} k-matrix columns is "
                                       rf"above the supported {total - 1}$"):
        walk()


def test_a_realization_past_its_cap_is_refused_before_it_is_built(monkeypatch):
    # a realization builds len(columns) · dim A multiples for its relation
    # span, then dim M · dim A for the action, each counted before it is
    # built: the cap admits a realization at its count and refuses it one
    # below, before a multiple past the cap; the free module, before the first
    A = trunc([4, 6, 7, 9], 8)
    modules = [free_module(A, 1), residue_field(A),
               direct_sum(cyclic_quotient(A, 6), free_module(A, 1))]
    reals = [realization(M) for M in modules]
    built, multiples = [], sackit.artinian._multiples

    def counted(algebra, vec, degrees):
        built.append(len(degrees))
        assert sum(built) <= sackit.artinian.MAX_REALIZATION_COLUMNS, "a multiple past the cap"
        return multiples(algebra, vec, degrees)

    monkeypatch.setattr("sackit.artinian._multiples", counted)
    for M, real in zip(modules, reals):
        count = (len(M.columns) + real.dim) * A.dim
        monkeypatch.setattr("sackit.artinian.MAX_REALIZATION_COLUMNS", count)
        del built[:]
        assert realization(M) == real and sum(built) == count
        monkeypatch.setattr("sackit.artinian.MAX_REALIZATION_COLUMNS", count - 1)
        del built[:]
        with pytest.raises(TooLarge, match=rf"^a realization of {count} k-matrix columns is "
                                           rf"above the supported {count - 1}$"):
            realization(M)
        assert sum(built) == len(M.columns) * A.dim


def test_a_routed_ext_walks_the_bass_numbers_only_when_it_reads_them(monkeypatch):
    # the change of rings reads e_i = dim Ext^i(k, k) over A_m only times a·c
    # and the Bass numbers dim Ext^i(k, A_m) only times a·g (a, f the k and A
    # summands of M; c, g those of N), and walks each only then: at q = 8 and
    # at q = m = 4 alike, k walks A_4 once, k + A twice, and F walks nothing
    walks, levels = [], sackit.artinian._levels

    def counted(module):
        walks.append(module.algebra.truncation_q)
        return levels(module)

    monkeypatch.setattr("sackit.artinian._levels", counted)
    for q in (8, 4):
        A = trunc([4, 6, 7, 9], q)
        k, F = residue_field(A), free_module(A, 1)
        for M, N, count in ((k, k, 1), (direct_sum(k, F), direct_sum(k, F), 2), (k, F, 1),
                            (F, direct_sum(k, F), 0)):
            del walks[:]
            ext_dims(M, N, 6)
            assert walks == [4] * count, (q, M.rank0, N.rank0)


def test_a_module_without_a_k_summand_realizes_nothing(monkeypatch):
    # Ext and Tor of F = A read f · dim N at degree 0 and 0 above: over
    # <1009, 1011> at q = m no walk starts and no target is realized
    def no_realization(module):
        raise AssertionError("a target was realized")

    monkeypatch.setattr("sackit.artinian._realize", no_realization)
    A = trunc([1009, 1011], 1009)
    k, F = residue_field(A), free_module(A, 1)
    for N, dim_n in ((F, 1009), (direct_sum(k, F), 1010)):
        for dims in (ext_dims, tor_dims):
            assert dims(F, N, 3) == (dim_n, 0, 0, 0)


def test_a_routed_ext_of_k_takes_the_steps_of_its_resolution(monkeypatch):
    # the change of rings reads dim Ext^i(k, k) over A_m as beta_i(k): a
    # routed Ext or Tor of k to degree n takes the syzygy steps of
    # minimal_resolution(k, n) over a fresh A_m, one fewer than a walk of
    # Ext to degree n, and to degree 0 none.  Over A_8 of <8,9,11,13> each
    # level of k is one new component, so the cache saves no step.  The
    # walking twin takes no change of rings, but reads beta(k) over itself
    # as well: the same steps
    steps, syzygy_columns = [], sackit.artinian._syzygy_columns

    def counted(algebra, cols):
        steps.append(algebra.truncation_q)
        return syzygy_columns(algebra, cols)

    monkeypatch.setattr("sackit.artinian._syzygy_columns", counted)
    for n in (0, 1, 6):
        del steps[:]
        minimal_resolution(residue_field(trunc([8, 9, 11, 13], 8)), max(n, 1))
        resolved = len(steps)
        for q, dims in itertools.product((16, 8), (ext_dims, tor_dims)):
            del steps[:]
            k = residue_field(trunc([8, 9, 11, 13], q))
            dims(k, k, n)
            assert steps == [8] * resolved, (n, q, dims)
    del steps[:]
    k = residue_field(walking_twin(trunc([8, 9, 11, 13], 8)))
    ext_dims(k, k, 6)
    assert steps == [None] * resolved and resolved == 5


def test_a_gorenstein_base_walks_no_bass_numbers(monkeypatch):
    # <1009, 1011> is symmetric, so A_m is Gorenstein and self-injective:
    # b = (1, 0, ...), read without realizing A_m.  A_m = k[x]/(x^1009), so
    # beta_i(k) = 1, with prefix sums at q = 2018, no minimal generator
    def no_realization(module):
        raise AssertionError("a target was realized")

    monkeypatch.setattr("sackit.artinian._realize", no_realization)
    for q, dims in ((1009, (1 + 1 + 1 + 1009, 1, 1, 1)), (2018, (1 + 1 + 1 + 2018, 2, 3, 4))):
        A = trunc([1009, 1011], q)
        M = direct_sum(residue_field(A), free_module(A, 1))
        assert ext_dims(M, M, 3) == tor_dims(M, M, 3) == dims, q


def summands(A, c):
    """k, A and cyc(c) over A: the three kinds of summand a router block reads."""
    return [residue_field(A), free_module(A, 1), cyclic_quotient(A, c)]


def sums_of_two_and_three(A, c):
    """Every sum of two or three of k, A and cyc(c), repeats allowed."""
    out = []
    for size in (2, 3):
        for parts in itertools.combinations_with_replacement(summands(A, c), size):
            total = parts[0]
            for part in parts[1:]:
                total = direct_sum(total, part)
            out.append(total)
    return out


@pytest.mark.parametrize("char", [3, 32003])
@pytest.mark.parametrize("gens,q,c", DEEP_ALGEBRAS, ids=DEEP_IDS)
def test_the_router_matches_the_walk_of_the_whole_modules(gens, q, c, char):
    # Ext and Tor summed pair by pair against _derived_dims over the whole
    # modules, the walk with no route: each sum against itself and against
    # the next sum in the list, so that M and N differ too
    walk = sackit.artinian._derived_dims
    mods = sums_of_two_and_three(trunc(gens, q, char), c)
    for M, N in itertools.chain(zip(mods, mods), zip(mods, mods[1:] + mods[:1])):
        case = (M.rank0, len(M.columns), N.rank0, len(N.columns))
        assert ext_dims(M, N, 5) == walk(M, N, 5, False), case
        assert tor_dims(M, N, 5) == walk(M, N, 5, True), case


def test_the_self_injective_block_matches_the_walk(monkeypatch):
    # over a symmetric H, A_q is self-injective at q = m and at q != m:
    # Ext^i(X, A) is (dim X, 0, ...), as the walk finds; over a non-symmetric
    # H it is not, so the block must not be taken there
    walk = sackit.artinian._derived_dims
    for gens, q, c in (((4, 5, 6), 4, 5), ((4, 5, 6), 8, 5), ((3, 7), 3, 7), ((3, 7), 9, 7),
                       ((2, 5), 10, 5)):
        A = trunc(gens, q)
        assert A.semigroup.is_gap_symmetric()
        F = free_module(A, 1)
        for X in summands(A, c)[::2] + [direct_sum(cyclic_quotient(A, c), residue_field(A))]:
            dims = (realization(X).dim,) + (0,) * 4
            assert walk(X, F, 4, False) == dims, (gens, q)
            monkeypatch.setattr("sackit.artinian._derived_dims", None)
            assert ext_dims(X, F, 4) == dims, (gens, q)  # no walk
            monkeypatch.setattr("sackit.artinian._derived_dims", walk)
    for gens, q, c in ((3, 4, 5), 6, 4), ((4, 6, 7, 9), 8, 6):
        A = trunc(gens, q)
        X, F = cyclic_quotient(A, c), free_module(A, 1)
        assert ext_dims(X, F, 4) == walk(X, F, 4, False) != (realization(X).dim,) + (0,) * 4


def test_a_routed_tor_of_cyc_plus_k_realizes_no_k(monkeypatch):
    # Tor is symmetric, so Tor(k, cyc) is read as Tor(cyc, k) = beta(cyc),
    # and Tor(k, k) as beta(k) over A_m: no block realizes a module with a k
    # summand, where the walk of the whole sum realizes cyc + k
    A = trunc([4, 6, 7, 9], 8)
    M = direct_sum(cyclic_quotient(A, 6), residue_field(A))
    split, realize = sackit.artinian._component_split, sackit.artinian._realize
    k = next(iter(split(A, 1, residue_field(A).columns)))
    dims = sackit.artinian._derived_dims(M, M, 5, True)

    def no_k(module):
        assert k not in split(A, module.rank0, module.columns), "k was realized"
        return realize(module)

    monkeypatch.setattr("sackit.artinian._realize", no_k)
    assert tor_dims(M, M, 5) == dims
    with pytest.raises(AssertionError, match="k was realized"):
        sackit.artinian._derived_dims(M, M, 5, True)


def test_one_call_charges_every_syzygy_step_to_one_budget(monkeypatch):
    # every step of one Ext call counts against one total, so a call whose
    # walks each fit under a cap one below that total is refused, and
    # admitted at the total.  Ext of cyc(4) + cyc(5) over k[3,4,5]/(t^6) to
    # degree 6 takes the steps that the walk of the whole sum takes, more
    # than either summand alone; Ext of cyc(6) + k over k[4,6,7,9]/(t^8)
    # walks A_8 for (k, cyc) and A_4 for (k, k)
    steps = []

    def recorded(algebra, cols):
        steps.append((algebra.truncation_q, len(cols) * algebra.dim))
        return _syzygy_columns(algebra, cols)

    def charged(call):  # the columns of the steps ``call`` builds
        del steps[:]
        call()
        return sum(cols for _, cols in steps)

    def cyc45():  # on a fresh algebra, so its syzygy cache starts empty
        A = trunc([3, 4, 5], 6)
        return direct_sum(cyclic_quotient(A, 4), cyclic_quotient(A, 5))

    def cyc6k():
        A = trunc([4, 6, 7, 9], 8)
        return direct_sum(cyclic_quotient(A, 6), residue_field(A))

    monkeypatch.setattr("sackit.artinian._syzygy_columns", recorded)
    cap = sackit.artinian.MAX_WALK_COLUMNS
    total = charged(lambda: ext_dims(*[cyc45()] * 2, 6))
    alone = [charged(lambda: ext_dims(*[cyclic_quotient(trunc([3, 4, 5], 6), c)] * 2, 6))
             for c in (4, 5)]
    whole = charged(lambda: sackit.artinian._derived_dims(*[cyc45()] * 2, 6, False))
    assert max(alone) < total == whole
    mixed = charged(lambda: ext_dims(*[cyc6k()] * 2, 6))
    walks = [sum(cols for q, cols in steps if q == walked) for walked in (8, 4)]
    assert sum(walks) == mixed and 0 < min(walks) and max(walks) < mixed
    for make, total in ((cyc45, total), (cyc6k, mixed)):
        M = make()
        dims = ext_dims(M, M, 6)
        monkeypatch.setattr("sackit.artinian.MAX_WALK_COLUMNS", total)
        M = make()
        assert ext_dims(M, M, 6) == dims
        monkeypatch.setattr("sackit.artinian.MAX_WALK_COLUMNS", total - 1)
        M = make()
        with pytest.raises(TooLarge, match=rf"^a syzygy walk of {total} k-matrix columns is "
                                           rf"above the supported {total - 1}$"):
            ext_dims(M, M, 6)
        monkeypatch.setattr("sackit.artinian.MAX_WALK_COLUMNS", cap)


def test_one_call_charges_every_realization_to_one_budget(monkeypatch):
    # Ext of cyc(4) + cyc(5) over k[3,4,5]/(t^6) realizes each summand once,
    # as many multiples as the realization of the whole sum, more than
    # either alone: a cap one below their total refuses the call
    A = trunc([3, 4, 5], 6)
    parts = [cyclic_quotient(A, c) for c in (4, 5)]
    M = direct_sum(*parts)

    def cost(N):
        return (len(N.columns) + realization(N).dim) * A.dim

    total = cost(M)
    assert sum(map(cost, parts)) == total and max(map(cost, parts)) < total
    dims = ext_dims(M, M, 2)
    monkeypatch.setattr("sackit.artinian.MAX_REALIZATION_COLUMNS", total)
    assert ext_dims(M, M, 2) == dims
    monkeypatch.setattr("sackit.artinian.MAX_REALIZATION_COLUMNS", total - 1)
    with pytest.raises(TooLarge, match=rf"^a realization of {total} k-matrix columns is "
                                       rf"above the supported {total - 1}$"):
        ext_dims(M, M, 2)


def test_routed_and_walked_calls_check_their_arguments_first():
    # the same-algebra check, then upto >= 0, whether the change of rings
    # or the walk would answer
    A, B = trunc([4, 5, 6], 4), trunc([3, 4, 5], 3)
    for make in (residue_field, lambda C: cyclic_quotient(C, 5)):
        M, N = make(A), make(B)
        for dims in (ext_dims, tor_dims):
            with pytest.raises(SackitError, match="^H=4,5,6; q=4; p=32003 vs "
                                                  "H=3,4,5; q=3; p=32003$"):
                dims(M, N, -1)
            with pytest.raises(SackitError, match="^upto must be >= 0, got -1$"):
                dims(M, M, -1)


def test_nakayama_takes_no_multiple_of_a_socle_column(monkeypatch):
    # a column supported on socle positions (every atom sends them out of
    # the basis) has only zero atom multiples; over a radical-square-zero
    # algebra every kernel column of k's first step is one
    for gens, q, _ in DEEP_ALGEBRAS:
        A = trunc(gens, q)
        positive = [monomial(A, d) for d in A.degrees[1:]]
        assert A._socle == {i for i, d in enumerate(A.degrees)
                            if not any(any(A.mul(monomial(A, d), x)) for x in positive)}
    A = trunc([3, 4, 5], 3)
    k, multiples = residue_field(A), sackit.artinian._multiples
    images = [image for col in k.columns for image in multiples(A, col, A.degrees)]
    kernel = sparse_kernel(images, A.char)
    calls = []

    def counted(*args):
        calls.append(args)
        return multiples(*args)

    monkeypatch.setattr("sackit.artinian._multiples", counted)
    assert sackit.artinian._nakayama(A, kernel) == kernel and len(kernel) == 4
    assert calls == []


coeff = st.integers(0, 2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_presentations_resolve_minimally(data):
    A = trunc([3, 4, 5], 3)
    rank0 = data.draw(st.integers(1, 2))
    ncols = data.draw(st.integers(0, 2))
    cols = []
    for _ in range(ncols):
        col = []
        for _ in range(rank0):
            col.append(tuple(data.draw(coeff) for _ in range(A.dim)))
        cols.append(tuple(col))
    M = module_from_presentation(A, rank0, cols)
    mats = resolution_matrices(minimal_resolution(M, 3))
    for d_next, d_here in zip(mats[1:], mats):
        for col in d_next:
            image = apply_columns(A, d_here, col)
            assert all(all(x == 0 for x in e) for e in image)
    for mat in mats:
        for col in mat:
            assert not any(is_unit(A, entry) for entry in col)
    assert ext_dims(M, residue_field(A), 0)[0] == commuting_hom_dim(
        M, residue_field(A)
    )
