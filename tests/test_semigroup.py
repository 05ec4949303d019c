"""Semigroup arithmetic against an independent brute-force oracle.

The oracle is a forward dynamic-programming sieve written from scratch
here; every frozen number below was recomputed with it before pinning.
"""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sackit import NumericalSemigroup
from sackit.errors import SackitError, TooLarge
import sackit.semigroup
from sackit.semigroup import MAX_APERY_EDGES, MAX_MULTIPLICITY, _sum_of


def sieve_members(gens, bound):
    """All sums of the generators up to bound, independent of the library."""
    reach = [False] * (bound + 1)
    reach[0] = True
    for x in range(1, bound + 1):
        reach[x] = any(x >= g and reach[x - g] for g in gens)
    return {x for x, ok in enumerate(reach) if ok}


def first_members(H, count):
    """The first ``count`` members of H in increasing order, from 0, by
    asking the library's membership test of 0, 1, 2, ..."""
    out = []
    x = 0
    while len(out) < count:
        if H.contains(x):
            out.append(x)
        x += 1
    return tuple(out)


def oracle_min_generators(gens, bound):
    members = sieve_members(gens, bound)
    positives = sorted(m for m in members if 0 < m <= bound)
    out = []
    for x in positives:
        if not any(y < x and (x - y) in members for y in positives):
            out.append(x)
    return tuple(out)


# gens, frobenius, genus -- all three recomputed by the sieve in
# test_membership_matches_sieve before being trusted anywhere else
CASES = [
    ([2, 3], 1, 1),
    ([3, 4, 5], 2, 2),
    ([3, 5], 7, 4),
    ([4, 5, 6], 7, 4),
    ([4, 6, 7, 9], 5, 4),
    ([5, 6, 7, 8, 9], 4, 4),
    ([8, 11, 12, 14, 18], 21, 13),
    ([6, 9, 20], 43, 22),
]


@pytest.mark.parametrize("gens,frob,genus", CASES)
def test_membership_matches_sieve(gens, frob, genus):
    H = NumericalSemigroup.from_generators(gens)
    bound = frob + 2 * max(gens)
    members = sieve_members(gens, bound)
    for x in range(bound + 1):
        assert H.contains(x) == (x in members), x
    gaps = [x for x in range(bound + 1) if x not in members]
    assert H.frobenius == max(gaps) == frob
    assert H.genus == len(gaps) == genus
    # everything past the frobenius number is a member
    assert all(x in members for x in range(frob + 1, bound + 1))


@pytest.mark.parametrize("gens,frob,genus", CASES)
def test_minimal_generators(gens, frob, genus):
    H = NumericalSemigroup.from_generators(gens)
    assert H.generators == oracle_min_generators(gens, frob + 2 * max(gens))
    # redundant generators are stripped
    padded = list(gens) + [gens[0] + gens[-1], 2 * gens[0]]
    assert NumericalSemigroup.from_generators(padded) == H


def test_redundant_generator_examples():
    H = NumericalSemigroup.from_generators([3, 4, 5, 6, 7, 8])
    assert H.generators == (3, 4, 5)
    # 6 - 3 = 3 = m: the minimality scan looks up the h <= c - m, 3 included
    assert NumericalSemigroup.from_generators([3, 5, 6]).generators == (3, 5)
    assert NumericalSemigroup.from_generators([5, 10, 6, 9, 7, 8]).generators \
        == (5, 6, 7, 8, 9)


def sum_corpus():
    """Every H with 2-4 generators in 2..15, and the wide families
    <n, ..., 2n - 1> and <n, n + 1, n + 3, ..., 2n - 1> for n <= 60."""
    for e in (2, 3, 4):
        yield from (g for g in itertools.combinations(range(2, 16), e) if math.gcd(*g) == 1)
    for n in range(2, 61):
        yield range(n, 2 * n)
        yield (n, n + 1, *range(n + 3, 2 * n))


def test_sum_of_matches_the_unbounded_loop():
    # _sum_of looks up only the g <= x - m, as a nonzero member is at least m;
    # the loop looks up every g, over H's generators and over member lists
    rng = random.Random(45)
    for gens in sum_corpus():
        H = NumericalSemigroup.from_generators(gens)
        bound = H.frobenius + 2 * max(gens)
        members = [x for x in range(bound + 1) if H.contains(x)]
        lists = [H.generators, sorted(rng.sample(members, rng.randint(1, 5)))]
        for g_list, x in itertools.product(lists, range(-1, bound + 1)):
            expected = any(H.contains(x - g) and x != g for g in g_list)
            assert _sum_of(H._apery, g_list, x) == expected, (gens, g_list, x)


@pytest.mark.parametrize("gens,frob,genus", CASES)
def test_apery_set_is_least_transversal(gens, frob, genus):
    H = NumericalSemigroup.from_generators(gens)
    for q in H.generators:
        ap = H.apery_set(q)
        assert len(ap) == q
        assert sorted(a % q for a in ap) == list(range(q))
        for a in ap:
            assert H.contains(a)
            # least member of its residue class
            assert not any(H.contains(b) for b in range(a % q, a, q))


def test_apery_frozen():
    H = NumericalSemigroup.from_generators([8, 11, 12, 14, 18])
    assert H.apery_set(8) == (0, 11, 12, 14, 18, 23, 25, 29)
    assert NumericalSemigroup.from_generators([3, 4, 5]).apery_set(3) == (0, 4, 5)
    for q in (4, 0):
        with pytest.raises(SackitError, match=rf"^{q} is not a nonzero member of <3,5>$"):
            NumericalSemigroup.from_generators([3, 5]).apery_set(q)


def test_apery_set_holds_no_second_table():
    # apery_set(q) lists the q elements between the table of H and that of
    # q + H.  The listing itself (its int objects, the sorted list and the
    # result tuple) costs about 48 bytes per element (Python 3.11); a
    # materialized table of q + H, with its own ints, took that to about 89
    q = 20011
    H = NumericalSemigroup.from_generators([q, q + 30])
    tracemalloc.start()
    try:
        listed = H.apery_set(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(listed) == q and listed[:2] == (0, q + 30)
    assert peak < 64 * q, peak / q


@pytest.mark.parametrize("gens,frob,genus", CASES)
def test_members_and_gaps(gens, frob, genus):
    H = NumericalSemigroup.from_generators(gens)
    # past the frobenius number every integer is a member, so this bound
    # always yields at least 20 of them
    members = sorted(sieve_members(gens, frob + 21 + 2 * max(gens)))
    for count in (1, 7, 20):
        assert first_members(H, count) == tuple(members[:count])
    assert H.gaps() == tuple(
        x for x in range(frob + 1) if x not in set(members)
    )


def test_gap_symmetry_matches_reflection():
    # x in H  iff  F - x not in H, checked directly; also the genus form
    expected = {
        (2, 3): True,
        (3, 5): True,
        (3, 4, 5): False,
        (4, 5, 6): True,  # gaps 1,2,3,7 pair off with members 0,4,5,6
        (6, 9, 20): True,
        (8, 11, 12, 14, 18): False,
    }
    for gens, want in expected.items():
        H = NumericalSemigroup.from_generators(gens)
        F = H.frobenius
        reflect = all(
            H.contains(x) != H.contains(F - x) for x in range(F + 1)
        )
        assert H.is_gap_symmetric() == reflect == want, gens
        assert reflect == (2 * H.genus == F + 1)


def test_multiplicity_and_embedding_dim():
    for gens, _, _ in CASES:
        H = NumericalSemigroup.from_generators(gens)
        assert H.multiplicity == min(H.generators)
        assert H.embedding_dim == len(H.generators)


def double_ideal_excess(gens):
    """|2M \\ (e+M)| computed from raw member sets; equals e - v."""
    H = NumericalSemigroup.from_generators(gens)
    e = H.multiplicity
    bound = H.frobenius + 2 * e + 1
    members = sieve_members(gens, bound + e)
    M = {m for m in members if 0 < m <= bound}
    twoM = {a + b for a in M for b in M if a + b <= bound}
    shifted = {e + m for m in M if e + m <= bound}
    return len(twoM - shifted)


@pytest.mark.parametrize("gens,frob,genus", CASES)
def test_multiplicity_defect_counts_double_ideal(gens, frob, genus):
    H = NumericalSemigroup.from_generators(gens)
    excess = double_ideal_excess(gens)
    assert excess == H.multiplicity - H.embedding_dim
    assert H.has_minimal_multiplicity() == (excess == 0)
    assert H.has_almost_minimal_multiplicity() == (excess == 1)


def test_multiplicity_families():
    for e in range(3, 9):
        full = NumericalSemigroup.from_generators(range(e, 2 * e))
        assert full.has_minimal_multiplicity()
        assert not full.has_almost_minimal_multiplicity()
        short = NumericalSemigroup.from_generators(range(e, 2 * e - 1))
        assert short.has_almost_minimal_multiplicity()
        assert not short.has_minimal_multiplicity()


def test_glue_matches_union_oracle():
    cases = [
        ([2, 3], 3, 4),
        ([3, 4, 5], 2, 7),
        ([4, 6, 7, 9], 2, 11),
    ]
    for gens, n, m in cases:
        H = NumericalSemigroup.from_generators(gens)
        G = H.glue(n, m)
        bound = G.frobenius + 2 * max(G.generators)
        base = sieve_members(gens, bound)
        direct = {
            n * h + j * m
            for h in base
            for j in range(bound // m + 1)
            if n * h + j * m <= bound
        }
        assert {x for x in range(bound + 1) if G.contains(x)} == direct


def test_glue_frozen():
    H = NumericalSemigroup.from_generators([4, 6, 7, 9])
    assert H.glue(2, 11).generators == (8, 11, 12, 14, 18)
    assert str(H.glue(2, 11)) == "8,11,12,14,18"  # the text `sackit glue` prints
    assert NumericalSemigroup.from_generators([2, 3]).glue(3, 4).generators \
        == (4, 6, 9)


def test_glue_error_precedence():
    H = NumericalSemigroup.from_generators([3, 5])
    with pytest.raises(SackitError, match="^gluing needs positive n, m; got n=0, m=4$"):
        H.glue(0, 4)  # checked before the membership of 4
    with pytest.raises(SackitError, match="^4 is not a member of <3,5>$"):
        H.glue(4, 4)  # 4 not in <3,5>; raised before the gcd check
    with pytest.raises(SackitError, match="^5 is a minimal generator of <3,5>$"):
        H.glue(5, 5)  # raised before the gcd check
    with pytest.raises(SackitError, match=r"^gcd\(2, 8\) != 1$"):
        H.glue(2, 8)
    with pytest.raises(SackitError, match="^gluing needs n >= 2, got n=1$"):
        H.glue(1, 6)  # 1*H + <6> is H, with 6 no minimal generator of it


def test_from_generators_errors():
    with pytest.raises(SackitError, match="^need at least one generator$"):
        NumericalSemigroup.from_generators([])
    with pytest.raises(SackitError, match="^generators must be positive, got 0$"):
        NumericalSemigroup.from_generators([0, 3])
    with pytest.raises(SackitError, match="^generators must be positive, got -2$"):
        NumericalSemigroup.from_generators([-2, 3])
    with pytest.raises(SackitError, match="^gcd of generators is 2, not 1$"):
        NumericalSemigroup.from_generators([4, 6])
    with pytest.raises(SackitError, match="^gcd of generators is 3, not 1$"):
        NumericalSemigroup.from_generators([6, 9])
    # one past the cap, and a multiplicity no list of residues could hold
    for m in (MAX_MULTIPLICITY + 1, 10**28):
        with pytest.raises(TooLarge, match=f"^multiplicity {m} is above the supported "
                                            f"{MAX_MULTIPLICITY}$"):
            NumericalSemigroup.from_generators([m, m + 1])


def test_apery_edges_are_capped_before_the_walk(monkeypatch):
    # the table's walk relaxes e edges from each of m residues, so m * e is
    # charged first: <n, ..., 2n - 1> is built up to n = 2048, at the cap
    assert 2048 * 2048 == MAX_APERY_EDGES
    H = NumericalSemigroup.from_generators(range(2048, 4096))
    assert (H.multiplicity, H.embedding_dim, H.frobenius) == (2048, 2048, 2047)

    def refuse(gens, q):
        raise AssertionError("the Apery table was walked")

    monkeypatch.setattr(sackit.semigroup, "_apery", refuse)
    with pytest.raises(TooLarge, match=f"^multiplicity 2049 times 2049 generators is above "
                                       f"the supported {MAX_APERY_EDGES}$"):
        NumericalSemigroup.from_generators(range(2049, 4098))


gen_lists = st.lists(st.integers(1, 30), min_size=1, max_size=5).filter(
    lambda g: math.gcd(*g) == 1 if len(g) > 1 else g[0] == 1
)


@settings(max_examples=40, deadline=None)
@given(gen_lists)
def test_random_semigroup_invariants(gens):
    H = NumericalSemigroup.from_generators(gens)
    F = H.frobenius
    members = first_members(H, 12)
    assert list(members) == sorted(set(members))
    # closed under addition
    for a in members[:6]:
        for b in members[:6]:
            assert H.contains(a + b)
    assert not H.contains(F) or F == -1
    assert all(H.contains(F + i) for i in range(1, 2 * H.multiplicity))
    ap = H.apery_set(H.multiplicity)
    assert sorted(a % H.multiplicity for a in ap) == list(range(H.multiplicity))


def least_per_class(members, q):
    """Least element of each residue class mod q among ``members``, sorted."""
    least = {}
    for x in sorted(members):
        least.setdefault(x % q, x)
    assert len(least) == q
    return tuple(sorted(least.values()))


few_gens = st.lists(st.integers(2, 60), min_size=2, max_size=4).filter(
    lambda g: math.gcd(*g) == 1
)


@settings(max_examples=60, deadline=None)
@given(few_gens, st.data())
def test_apery_representation_matches_sieve(gens, data):
    H = NumericalSemigroup.from_generators(gens)
    # Schur's bound F <= (min - 1)(max - 1) - 1 puts every gap, and the
    # least member of each class mod any q <= 2 max, below this bound
    bound = min(gens) * max(gens) + max(gens)
    members = sieve_members(gens, bound)
    window = range(-3, bound + 1)
    assert [H.contains(x) for x in window] == [x in members for x in window]
    gaps = [x for x in range(bound + 1) if x not in members]
    assert H.frobenius == max(gaps, default=-1)
    assert H.genus == len(gaps)
    # minimal generators never exceed the largest given one
    assert H.generators == oracle_min_generators(gens, max(gens))
    assert H.gaps() == tuple(gaps)
    F = H.frobenius
    assert H.is_gap_symmetric() == all(
        (x in members) != (F - x in members) for x in range(F + 1)
    )
    # almost minimal multiplicity is |2M \ (m + M)| = 1 on raw member sets
    assert H.has_almost_minimal_multiplicity() == (double_ideal_excess(gens) == 1)
    pool = sorted(x for x in members if 0 < x <= 2 * max(gens))
    for q in (H.multiplicity, data.draw(st.sampled_from(pool))):
        assert H.apery_set(q) == least_per_class(members, q)


# Two generators a, b: F = ab - a - b and genus (a-1)(b-1)/2 (Sylvester),
# and the semigroup is symmetric.  The three-generator row is checked
# against the sieve below.
LARGE_FROBENIUS = [
    ((2, 99999999), 99999997, 49999999, True),
    ((1001, 1003, 1007), 335333, 168000, False),
    ((2, 10**12 + 1), 10**12 - 1, 10**12 // 2, True),
]


@pytest.mark.parametrize("gens,frob,genus,symmetric", LARGE_FROBENIUS)
def test_large_frobenius_rows(gens, frob, genus, symmetric):
    # O(F) work in any step would not finish on the 10**12 row
    H = NumericalSemigroup.from_generators(gens)
    assert H.generators == gens
    assert (H.frobenius, H.genus) == (frob, genus)
    assert H.is_gap_symmetric() == symmetric
    assert not H.contains(frob) and H.contains(frob + 1)
    assert H.has_minimal_multiplicity() == (len(gens) == gens[0])
    assert H.has_almost_minimal_multiplicity() == (len(gens) + 1 == gens[0])
    assert len(H.apery_set(gens[0])) == gens[0]


def test_large_frobenius_row_against_sieve():
    gens = (1001, 1003, 1007)
    H = NumericalSemigroup.from_generators(gens)
    bound = H.frobenius + 2 * max(gens)
    members = sieve_members(gens, bound)
    gaps = [x for x in range(bound + 1) if x not in members]
    assert (max(gaps), len(gaps)) == (335333, 168000)
    assert all(H.contains(x) == (x in members) for x in range(bound + 1))
    assert H.apery_set(1001) == least_per_class(members, 1001)
