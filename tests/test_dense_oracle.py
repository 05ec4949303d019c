"""The sparse syzygy engine against the dense engine it replaced.

The dense engine kept here is the reference.  It works on dense rows
throughout: a dense echelon span that reduces a candidate against every
leading row, one ``kernel_basis`` of the whole syzygy k-matrix, Nakayama
selection over dense radical multiples, and presentation minimalization as
one such syzygy step, from the generators that the constant parts of the
relations leave free.  The library's sparse engine (sparse ``Span``, a
``sparse_kernel`` taken in one ``Span`` pass, Nakayama selection by atom
multiples) must give the same bytes: the same minimal presentations
(``module_from_presentation``) and the same resolution matrices, which
``resolution_matrices`` derives by running ``_syzygy_columns`` over the
whole presentation, over the deep algebras of the Ext/Tor corpus and over
random presentations on them.  Each of those matrices, read back through
``module_from_presentation``, resolves to the next.  The resolution's Betti
numbers, which the library reads off its component walk and never from the
matrices, must count the dense engine's columns.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sackit import (
    direct_sum,
    minimal_resolution,
    module_from_presentation,
    residue_field,
)
from sackit.modp import kernel_basis
from test_artinian import DEEP_ALGEBRAS, DEEP_IDS, monomial, resolution_matrices, trunc, zero


class DenseSpan:
    """Row space in dense echelon form indexed by leading column."""

    def __init__(self, p):
        self.p = p
        self.rows = {}

    def reduce(self, vec):
        """The remainder of vec: zero at every leading column."""
        v = [x % self.p for x in vec]
        for lead in sorted(self.rows):
            if v[lead]:
                f = v[lead]
                v = [(a - f * b) % self.p for a, b in zip(v, self.rows[lead])]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = pow(v[lead], -1, self.p)
        self.rows[lead] = [(x * inv) % self.p for x in v]
        return True


def dense_multiples(A, flat, degrees):
    out = []
    for d in degrees:
        vec = [0] * len(flat)
        for pos, x in enumerate(flat):
            k = A._index.get(A.degrees[pos % A.dim] + d)
            if x and k is not None:
                vec[pos - pos % A.dim + k] = x
        out.append(vec)
    return out


def dense_nakayama(A, vecs):
    span = DenseSpan(A.char)
    for vec in vecs:
        for scaled in dense_multiples(A, vec, A.degrees[1:]):
            span.add(scaled)
    return [span.add(vec) for vec in vecs]


def flatten(column):
    return [x for entry in column for x in entry]


def unflatten(vec, rank0, n):
    return tuple(tuple(vec[g * n : (g + 1) * n]) for g in range(rank0))


def dense_kernel(A, images, s):
    """Dense Nakayama selection of the kernel of the k-matrix with columns
    ``images``, as columns of s algebra elements."""
    kern = kernel_basis(list(zip(*images)), s * A.dim, A.char)
    keep = dense_nakayama(A, kern)
    return tuple(unflatten(vec, s, A.dim) for vec, kept in zip(kern, keep) if kept)


def dense_minimalize(A, rank0, cols):
    """One dense syzygy step: the generators that lead no row of the span of
    the constant parts, each times each basis monomial reduced modulo the
    span of the relation multiples, then the kernel of those images."""
    n = A.dim
    constants, relations = DenseSpan(A.char), DenseSpan(A.char)
    for col in cols:
        constants.add([e[0] for e in col])
        for image in dense_multiples(A, flatten(col), A.degrees):
            relations.add(image)
    kept = [g for g in range(rank0) if g not in constants.rows]
    images = [
        relations.reduce([int(i == g * n + b) for i in range(rank0 * n)])
        for g in kept
        for b in range(n)
    ]
    return len(kept), dense_kernel(A, images, len(kept))


def dense_syzygy(A, cols):
    images = [
        image for col in cols for image in dense_multiples(A, flatten(col), A.degrees)
    ]
    return dense_kernel(A, images, len(cols))


def dense_matrices(A, relations, length):
    mats = [relations]
    while len(mats) < length:
        mats.append(dense_syzygy(A, mats[-1]) if mats[-1] else ())
    return tuple(mats)


def padded_blocks(A, M, N):
    """The relation matrix of M + N: M's columns over N's zero rows, then
    N's columns under M's zero rows."""
    zero = (0,) * A.dim
    return tuple(col + (zero,) * N.rank0 for col in M.relations) + tuple(
        (zero,) * M.rank0 + col for col in N.relations
    )


def assert_engines_agree(A, rank0, raw_cols):
    M = module_from_presentation(A, rank0, raw_cols)
    assert (M.rank0, M.relations) == dense_minimalize(A, rank0, raw_cols)
    # a minimal presentation reads back as itself
    again = module_from_presentation(A, M.rank0, M.relations)
    assert (again.rank0, again.relations) == (M.rank0, M.relations)
    k = residue_field(A)
    assert direct_sum(M, k).relations == padded_blocks(A, M, k)
    assert direct_sum(k, M).relations == padded_blocks(A, k, M)
    res = minimal_resolution(M, 3)
    mats = resolution_matrices(res)
    dense = dense_matrices(A, M.relations, 3)
    assert mats == dense
    for here, nxt in zip(mats, mats[1:]):
        if here:
            step = module_from_presentation(A, len(here[0]), here)
            assert step.relations == here
            assert resolution_matrices(minimal_resolution(step, 2))[1] == nxt
    # the Betti numbers come from the component walk, not from the matrices
    assert res.betti == (M.rank0,) + tuple(map(len, dense))


@pytest.mark.parametrize("name", ["k", "cyc"])
@pytest.mark.parametrize("gens,q,c", DEEP_ALGEBRAS, ids=DEEP_IDS)
def test_deep_modules_match_dense_engine(gens, q, c, name):
    A = trunc(gens, q)
    if name == "k":
        raw = [(monomial(A, d),) for d in A.degrees[1:]]
    else:
        raw = [(monomial(A, c),)]
    assert_engines_agree(A, 1, raw)


@pytest.mark.parametrize("gens,q,c", DEEP_ALGEBRAS, ids=DEEP_IDS)
def test_unit_in_last_generator_row_matches_dense_engine(gens, q, c):
    # rank0 = 3 with non-monic units, each with a radical tail, in the last
    # generator row: their constant parts lead only at the last generator,
    # which goes
    A = trunc(gens, q)
    p = A.char
    x, y = monomial(A, c), monomial(A, A.degrees[1])

    def plus(*terms):
        return tuple(sum(t) % p for t in zip(*terms))

    def scaled(f, e):
        return tuple(f * a % p for a in e)

    unit = plus(scaled(p - 1, monomial(A, 0)), scaled(2, x), y)
    raw = [
        (y, x, unit),
        (x, zero(A), y),
        (zero(A), y, plus(x, y)),
        (plus(x, y), scaled(3, y), scaled(2, unit)),
    ]
    assert_engines_agree(A, 3, raw)


# constant coefficients are rare, so most entries lie in the radical and the
# presentation stays nontrivial after the generators that unit entries make
# redundant go; the nonzero ones include the non-monic 2 and p - 1 (p = 32003)
constants = st.sampled_from([0] * 10 + [1, 2, 32002])
coeffs = st.sampled_from([0, 0, 1, 2, 31990])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEEP_ALGEBRAS), st.data())
def test_random_presentations_match_dense_engine(alg, data):
    gens, q, _ = alg
    A = trunc(gens, q)
    rank0 = data.draw(st.integers(1, 3))
    ncols = data.draw(st.integers(1, 4))
    entry = st.tuples(constants, *[coeffs] * (A.dim - 1))
    raw = [tuple(data.draw(entry) for _ in range(rank0)) for _ in range(ncols)]
    assert_engines_agree(A, rank0, raw)
