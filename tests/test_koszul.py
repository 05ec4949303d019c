"""Koszul homology oracles for the residue field's Ext.

The Koszul complex K^A = Λ(k^n) ⊗ A on the n atoms of a monomial Artinian
algebra A is built here from the algebra's basis degrees alone, and its
homology ranks come from ``modp.Span``, so it shares no code with the
syzygy engine.  With c_j = dim H_j(K^A) (Avramov, "Infinite free
resolutions", 1998, §§4-5):

* c_n is the dimension of the socle of A, since H_n(K^A) is the annihilator
  of the atoms; so it is dim Hom(k, A), and for A = k[H]/(t^m), m the
  multiplicity of H, it is the type of k[[H]], which is 1 exactly when H is
  symmetric (Kunz, Proc. AMS 1970);
* c_1 is the number of minimal relations of A, at least n, and equal to n
  exactly when A is a complete intersection (Assmus, Illinois J. Math.
  1959); A_m is one exactly when k[[H]] is, since t^m is regular, and for
  three generators that is exactly when H is symmetric (Herzog, Manuscripta
  Math. 1970);
* Serre's bound: dim Ext^i(k, k) is at most the coefficient of z^i in
  (1+z)^n / (1 - sum_j c_j z^(j+1));
* A is Golod when the bound is an equality; every A with m^2 = 0 is
  (Golod 1962).  <4,6,7,9> has minimal multiplicity, so m^2 = 0 in its
  truncation; for <10,11,12,13> and <5,6,13> the equality is a measured
  fact, pinned here to depth 8.
"""

from collections import Counter
from itertools import combinations
from math import comb, gcd

import pytest

from sackit import (
    NumericalSemigroup,
    SemigroupIdeal,
    ext_dims,
    free_module,
    minimal_resolution,
    quotient_algebra,
    residue_field,
    truncation_algebra,
)
from sackit.certify import _ulrich_candidates, verify_premise
from sackit.modp import Span

from test_acceptance import RAD_SQUARE_ZERO


def koszul_homology(A):
    """(c_0, ..., c_n): c_j = dim H_j of the Koszul complex on the atoms of A.

    The basis e_S ⊗ t^b of K_j, |S| = j, sits at position (index of S among
    the j-subsets) * dim A + (index of b); d(e_S ⊗ t^b) is the sum over the
    r-th element s of S of (-1)^r e_(S - s) ⊗ t^(b + atom s).
    """
    atoms, index, dim_a = A._atoms(), A._index, A.dim
    n = len(atoms)
    subsets = [list(combinations(range(n), j)) for j in range(n + 1)]
    where = [{S: i for i, S in enumerate(level)} for level in subsets]

    def rank(j):  # of d_j : K_j -> K_(j-1)
        span = Span(A.char)
        for S in subsets[j] if 1 <= j <= n else ():
            for b in A.degrees:
                image = {}
                for r, s in enumerate(S):
                    i = index.get(b + atoms[s])
                    if i is not None:
                        image[where[j - 1][S[:r] + S[r + 1:]] * dim_a + i] = (-1) ** r
                span.add(image)
        return span.dim

    ranks = [rank(j) for j in range(n + 2)]
    return tuple(comb(n, j) * dim_a - ranks[j] - ranks[j + 1] for j in range(n + 1))


def serre_series(c, upto):
    """Coefficients z^0..z^upto of (1+z)^n / (1 - sum_j c_j z^(j+1))."""
    n = len(c) - 1
    out = []
    for i in range(upto + 1):
        out.append(comb(n, i) + sum(c[j] * out[i - j - 1] for j in range(1, min(n, i - 1) + 1)))
    return tuple(out)


def truncation(gens, q=None):
    H = NumericalSemigroup.from_generators(gens)
    return H, truncation_algebra(H, H.multiplicity if q is None else q)


def self_ext(A, upto):
    k = residue_field(A)
    return ext_dims(k, k, upto)


SMALL = [
    gens for e in (3, 4) for gens in combinations(range(3, 16), e)
    if gcd(*gens) == 1 and NumericalSemigroup.from_generators(gens).generators == gens
]


def test_top_koszul_homology_is_the_type():
    symmetric = 0
    for gens in SMALL:
        H, A = truncation(gens)
        c = koszul_homology(A)
        assert c[0] == 1 and len(c) == len(gens), gens
        assert c[-1] == ext_dims(residue_field(A), free_module(A, 1), 0)[0], gens
        assert (c[-1] == 1) == H.is_gap_symmetric(), gens
        symmetric += c[-1] == 1
    assert (len(SMALL), symmetric) == (317, 87)


def test_first_koszul_homology_is_n_exactly_on_complete_intersections():
    # a complete intersection is Gorenstein, so c_1 = n implies c_n = 1
    found = Counter()
    for gens in SMALL:
        H, A = truncation(gens)
        c = koszul_homology(A)
        n = len(c) - 1
        ci = c[1] == n
        assert c[1] >= n and (not ci or c[n] == 1), gens
        if len(gens) == 3:
            assert ci == H.is_gap_symmetric(), gens
        found[len(gens), ci] += 1
    assert found == {(3, True): 64, (3, False): 84, (4, True): 7, (4, False): 162}


def test_first_koszul_homology_is_n_where_the_ci_premise_holds():
    # R-CI's emb_dim_le1 premise counts the atoms of k[H]/(t^q), or of
    # k[H]/I^p for an Ulrich candidate I, without building it; where it
    # holds, the algebra's own atoms number at most one and it is a complete
    # intersection, k[y]/(y^a).  Every q up to F + m, and p up to 3
    held = Counter()
    for e in (2, 3):
        for gens in combinations(range(2, 14), e):
            if gcd(*gens) != 1:
                continue
            H = NumericalSemigroup.from_generators(gens)
            if H.generators != gens:
                continue
            quotients = [
                ({"q": q}, lambda q=q: truncation_algebra(H, q))
                for q in range(1, H.frobenius + H.multiplicity + 1) if H.contains(q)
            ] + [
                ({"ideal_gens": I, "power": p}, lambda I=I, p=p: quotient_algebra(
                    SemigroupIdeal.from_generators(H, I).power(p)))
                for I in _ulrich_candidates(H) for p in (1, 2, 3)
            ]
            for where, algebra in quotients:
                ok, premise = verify_premise("emb_dim_le1", semigroup=H, **where)
                if ok:
                    c = koszul_homology(algebra())
                    n = len(c) - 1
                    c1 = c[1] if n else 0  # A = k has no atom, and K^A is A
                    assert n == dict(premise.evidence)["embdim"] and c1 == n, (gens, where)
                    held[e, next(iter(where))] += 1
    assert held == {(2, "q"): 90, (2, "ideal_gens"): 135, (3, "ideal_gens"): 348}


# The algebras k[H]/(t^q) of the benchmark's ext-deep workload, with the
# depth each is checked to
EXT_DEEP = [
    ((3, 4, 5), 6, 12), ((3, 4, 5), 8, 12), ((3, 5, 7), 9, 12), ((4, 6, 7, 9), 8, 12),
    ((2, 5), 10, 12), ((3, 7), 9, 12), ((4, 5, 6), 8, 12),
]


@pytest.mark.parametrize("gens, q, depth", EXT_DEEP, ids=lambda x: str(x))
def test_serre_bound(gens, q, depth):
    _, A = truncation(gens, q)
    bound = serre_series(koszul_homology(A), depth)
    assert all(e <= b for e, b in zip(self_ext(A, depth), bound, strict=True))


GOLOD = [(4, 6, 7, 9), (10, 11, 12, 13), (5, 6, 13)]


@pytest.mark.parametrize("gens", [*RAD_SQUARE_ZERO.values(), *GOLOD], ids=str)
def test_golod_rings_meet_the_serre_bound(gens):
    # so do the Betti numbers of k, which a minimal resolution counts
    _, A = truncation(gens)
    depth = 8
    betti = minimal_resolution(residue_field(A), depth).betti
    assert self_ext(A, depth) == betti == serre_series(koszul_homology(A), depth)
