"""Monomial ideal arithmetic, the Ulrich test, and the rank formulas.

Set-level facts are checked against brute member enumerations done here
with plain loops; the reference triple H=<8,11,12,14,18>, I=(8,12,14,18),
q=8 gets its own frozen block.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sackit import (
    NumericalSemigroup,
    SemigroupIdeal,
    is_ulrich,
    power_layer_lengths,
    search_reduction,
    ulrich_rank_formula,
)
import sackit.ideals
from sackit.errors import SackitError, TooLarge
from sackit.ideals import _ROW_STEPS, _stable
from sackit.semigroup import MAX_DIMENSION, MAX_TABLE_BITS

from test_semigroup import first_members


def brute_ideal_members(H, gens, bound):
    """{d + s <= bound : d a generator degree, s in H}, by direct loops."""
    out = set()
    for d in gens:
        for s in range(bound - d + 1):
            if H.contains(s):
                out.add(d + s)
    return out


def shift(I, q):
    """The ideal q + I, generated by q + g over the generators g of I."""
    return SemigroupIdeal.from_generators(I.ambient, [q + g for g in I.generators])


def reference_pair():
    H = NumericalSemigroup.from_generators([8, 11, 12, 14, 18])
    return H, SemigroupIdeal.from_generators(H, [8, 12, 14, 18])


def test_reference_report_frozen():
    H, I = reference_pair()
    assert search_reduction(I) == 8
    rep = is_ulrich(I, 8)
    assert rep.to_json_dict() == {
        "is_ulrich": True,
        "colength": 2,
        "mu": 4,
        "layer_length": 8,
        "reduction_q": 8,
        "free_rank": 4,
    }
    assert rep.layer_length == rep.mu * rep.colength


def test_reference_sets_frozen():
    H, I = reference_pair()
    assert I.complement() == (0, 11)
    assert I.power(2).generators == (16, 20, 22, 26)
    assert I.power(2) == shift(I, 8)
    assert power_layer_lengths(I, 5) == (8, 8, 8, 8, 8)
    # stability propagates: I^(i+1) = (t^8) I^i for every i
    for i in (1, 2, 3):
        assert I.power(i + 1) == shift(I.power(i), 8)
    # but the higher powers themselves are not Ulrich: the freeness count
    # fails even though stability holds
    assert not is_ulrich(I.power(2), 16).is_ulrich


IDEAL_CASES = [
    ([3, 4, 5], [3, 4, 5]),
    ([3, 4, 5], [4, 5]),
    ([4, 6, 7, 9], [6, 9]),
    ([5, 6, 9], [6, 9]),
    ([8, 11, 12, 14, 18], [8, 12, 14, 18]),
    ([8, 11, 12, 14, 18], [11, 12]),
    ([2, 3], [4]),
    # c - h = m exactly: 7 - 4 = 3 and 8 - 5 = 3, so 7 and 8 are redundant
    ([3, 4], [4, 7]),
    ([3, 5, 6], [5, 6, 8]),
    # wide rings, each with one generator of H dropped from its maximal ideal
    (list(range(8, 16)), [8, 9, 10, 12, 13, 14, 15]),
    (list(range(8, 16)), list(range(9, 16))),
    (list(range(20, 40)), [g for g in range(20, 40) if g != 31]),
]


@pytest.mark.parametrize("hgens,igens", IDEAL_CASES)
def test_membership_and_minimal_generators(hgens, igens):
    H = NumericalSemigroup.from_generators(hgens)
    I = SemigroupIdeal.from_generators(H, igens)
    bound = max(igens) + H.frobenius + 2 * max(hgens)
    members = brute_ideal_members(H, igens, bound)
    for x in range(bound + 1):
        assert I.member(x) == (x in members), x
    # minimal generators: members with no smaller member below them
    mins = tuple(
        x for x in sorted(members)
        if not any(
            H.contains(x - y) and x != y for y in members if y < x
        )
    )
    assert I.generators == mins
    assert I.mu() == len(mins)


@pytest.mark.parametrize("hgens,igens", IDEAL_CASES)
def test_colength_counts_missing_members(hgens, igens):
    H = NumericalSemigroup.from_generators(hgens)
    I = SemigroupIdeal.from_generators(H, igens)
    bound = max(igens) + H.frobenius + 2 * max(hgens)
    members = brute_ideal_members(H, igens, bound)
    outside = [x for x in range(bound + 1) if H.contains(x) and x not in members]
    assert I.colength() == len(outside)
    assert I.complement() == tuple(outside)


@pytest.mark.parametrize("hgens,igens", IDEAL_CASES)
def test_product_matches_pairwise_sums(hgens, igens):
    H = NumericalSemigroup.from_generators(hgens)
    I = SemigroupIdeal.from_generators(H, igens)
    J = SemigroupIdeal(H, H.generators)
    bound = 2 * max(igens) + H.frobenius + 2 * max(hgens)
    im = brute_ideal_members(H, igens, bound)
    jm = brute_ideal_members(H, H.generators, bound)
    sums = {a + b for a in im for b in jm if a + b <= bound}
    P = I.product(J)
    for x in range(bound + 1):
        assert P.member(x) == (x in sums), x
    assert I.product(J) == J.product(I)
    assert I.product(J).product(J) == I.product(J.product(J))
    assert I.power(1) == I
    assert I.power(3) == I.product(I).product(I)


def test_relative_length_is_additive():
    for hgens in ([3, 4, 5], [4, 6, 7, 9], [8, 11, 12, 14, 18]):
        H = NumericalSemigroup.from_generators(hgens)
        m = SemigroupIdeal(H, H.generators)
        m2, m3 = m.power(2), m.power(3)
        assert m.colength() == 1
        assert m2.colength() == m.colength() + m.relative_length(m2)
        assert m3.colength() == m2.colength() + m2.relative_length(m3)
        assert m.relative_length(m3) == \
            m.relative_length(m2) + m2.relative_length(m3)


def test_relative_length_requires_containment():
    H, I = reference_pair()
    m = SemigroupIdeal(H, H.generators)
    with pytest.raises(SackitError,
                       match="^generator 11 of the smaller ideal is outside the larger one$"):
        I.relative_length(m)  # m has the member 11, I does not


def test_zero_ideal_rules():
    H = NumericalSemigroup.from_generators([3, 4, 5])
    Z = SemigroupIdeal.from_generators(H, [])
    assert Z.is_empty()
    assert Z.generators == ()
    with pytest.raises(SackitError, match="^the zero ideal has infinite colength$"):
        Z.colength()
    m = SemigroupIdeal(H, H.generators)
    with pytest.raises(SackitError, match="^relative length against the zero ideal is infinite$"):
        m.relative_length(Z)


def test_basis_listers_refuse_a_basis_past_the_cap():
    # the Apery set of q and the complement of an ideal are the two bases an
    # algebra lists; each refuses one past MAX_DIMENSION before listing it
    H = NumericalSemigroup.from_generators([2, 3])
    q = MAX_DIMENSION + 1
    text = f"algebra dimension {q} is above the supported {MAX_DIMENSION}"
    with pytest.raises(TooLarge, match=f"^{text}$"):
        H.apery_set(q)
    I = SemigroupIdeal.from_generators(H, [q])
    assert I.colength() == q
    with pytest.raises(TooLarge, match=f"^{text}$"):
        I.complement()
    assert len(H.apery_set(MAX_DIMENSION)) == MAX_DIMENSION


def test_ideal_tables_of_huge_entries_are_refused_before_they_are_built(monkeypatch):
    # an ideal's table has one entry per residue mod m, none above the
    # largest entry of H's table plus its least generator; a power sweep's
    # last table adds up_to + 1 times that generator.  Over <1024, 1025>, an
    # ideal two of whose generators are about 2^140000 is refused before its
    # table, or I^2's, is built; a principal one keeps its lazy table, and
    # the sweep charges its last table first
    m, big = 1024, 2**140_000
    H = NumericalSemigroup.from_generators([m, m + 1])
    top = max(H._apery)

    def built(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(sackit.ideals, "_length", built)
    I = SemigroupIdeal.from_generators(H, [big, big + 1])
    text = f"^a table of {m} integers of {(top + big).bit_length()} bits is above the supported"
    for ask in (lambda: I._least, lambda: is_ulrich(I, big), lambda: I.colength()):
        with pytest.raises(TooLarge, match=text):
            ask()
    principal = SemigroupIdeal.from_generators(H, [big])
    assert principal._least is not None
    for up_to in (1, 3):
        bits = (top + (up_to + 1) * big).bit_length()
        with pytest.raises(TooLarge, match=f"^a table of {m} integers of {bits} bits is above "
                                           f"the supported {MAX_TABLE_BITS} bits$"):
            power_layer_lengths(principal, up_to)


def test_gap_and_relative_listers_refuse_past_the_cap(monkeypatch):
    # the gaps of <2,2097157> (genus 1048578) are refused from their count,
    # before one element is listed, and the elements of (2) outside (1048580)
    # over <2,3> (relative length 1048578) are counted without listing one
    import sackit.semigroup

    def listed(*args):
        raise AssertionError("listed past the cap")

    monkeypatch.setattr(NumericalSemigroup, "contains", listed)
    monkeypatch.setattr(sackit.semigroup, "_progressions", listed)
    wide = NumericalSemigroup.from_generators([2, 2097157])
    assert wide.genus == MAX_DIMENSION + 2
    with pytest.raises(TooLarge, match=f"^algebra dimension {MAX_DIMENSION + 2} is above"):
        wide.gaps()
    monkeypatch.undo()
    H = NumericalSemigroup.from_generators([2, 3])
    big, small = (SemigroupIdeal.from_generators(H, [d]) for d in (2, 1048580))
    monkeypatch.setattr(sackit.semigroup, "_progressions", listed)
    assert big.relative_length(small) == MAX_DIMENSION + 2


def test_gaps_at_the_cap_are_listed_off_the_table(monkeypatch):
    # <2,2097153> has genus exactly MAX_DIMENSION, so its gaps are listed
    # (the cap refuses only more), and without one membership test
    def tested(*args):
        raise AssertionError("gaps tested for membership")

    monkeypatch.setattr(NumericalSemigroup, "contains", tested)
    H = NumericalSemigroup.from_generators([2, 2097153])
    assert H.genus == MAX_DIMENSION
    gaps = H.gaps()
    assert len(gaps) == MAX_DIMENSION
    assert gaps == tuple(range(1, H.frobenius + 1, 2))


def test_shift_requires_member():
    # q + I is the product with the principal ideal (q), which needs q in H
    H, I = reference_pair()
    with pytest.raises(SackitError, match="^3 is not a member of <8,11,12,14,18>$"):
        SemigroupIdeal.from_generators(H, [3])
    principal = SemigroupIdeal.from_generators(H, [8])
    assert shift(I, 8) == I.product(principal)


def test_bad_generators():
    H = NumericalSemigroup.from_generators([3, 4, 5])
    with pytest.raises(SackitError, match="^2 is not a member of <3,4,5>$"):
        SemigroupIdeal.from_generators(H, [2])
    H2 = NumericalSemigroup.from_generators([2, 3])
    for across in (SemigroupIdeal.product, SemigroupIdeal.relative_length):
        with pytest.raises(SackitError, match="^<3,4,5> vs <2,3>$"):
            across(SemigroupIdeal(H, H.generators), SemigroupIdeal(H2, H2.generators))
    with pytest.raises(SackitError, match="^power wants exponent >= 1, got 0$"):
        SemigroupIdeal(H, H.generators).power(0)


def test_principal_ideals_are_ulrich():
    # (t^g)^2 = t^g * (t^g): stability is immediate and the layer length
    # equals the colength g, so the length criterion holds with mu = 1
    for hgens in ([2, 3], [3, 5], [4, 6, 7, 9], [8, 11, 12, 14, 18]):
        H = NumericalSemigroup.from_generators(hgens)
        for g in H.generators:
            P = SemigroupIdeal.from_generators(H, [g])
            rep = is_ulrich(P, g)
            assert rep.is_ulrich
            assert rep.mu == 1
            assert rep.colength == g
            assert rep.layer_length == g


def test_maximal_ideal_ulrich_iff_minimal_multiplicity():
    for hgens, _, _ in [
        ([3, 4, 5], 0, 0),
        ([4, 5, 6, 7], 0, 0),
        ([4, 5, 6], 0, 0),
        ([5, 6, 9], 0, 0),
        ([8, 11, 12, 14, 18], 0, 0),
    ]:
        H = NumericalSemigroup.from_generators(hgens)
        m = SemigroupIdeal(H, H.generators)
        rep = is_ulrich(m, H.multiplicity)
        assert rep.is_ulrich == H.has_minimal_multiplicity(), hgens
        assert rep.colength == 1


def test_ulrich_witness_checks():
    H, I = reference_pair()
    with pytest.raises(SackitError, match="^reduction witness must be positive, got 0$"):
        is_ulrich(I, 0)
    with pytest.raises(SackitError, match=r"^11 is not in the ideal \(8,12,14,18\)$"):
        is_ulrich(I, 11)
    # q=12 is in I but the stability test fails there
    assert not is_ulrich(I, 12).is_ulrich


@pytest.mark.parametrize("gens, ideal", [
    ((3, 4, 5), (3, 4, 5)),
    ((3, 4, 5), (4, 5)),
    ((1001, 1003), (1001, 1003)),
    ((5, 7, 11), (5, 7, 11)),
    ((7, 9, 11, 13, 17), (9, 11, 13)),
    ((4, 6, 7, 9), (6,)),
], ids=lambda v: ",".join(map(str, v)))
def test_power_sweep_counts_its_work_before_the_first_layer(monkeypatch, gens, ideal):
    # the sweep builds the tables of I^1..I^(up_to+1), each the least of mu
    # shifted rows of m residues; it runs at a cap equal to that count and
    # refuses one below
    H = NumericalSemigroup.from_generators(gens)
    I = SemigroupIdeal.from_generators(H, ideal)
    m, mu, up_to = H.multiplicity, I.mu(), 8
    steps = (up_to + 1) * mu * (m + _ROW_STEPS)
    monkeypatch.setattr(sackit.ideals, "MAX_POWER_STEPS", steps)
    assert len(power_layer_lengths(I, up_to)) == up_to
    monkeypatch.setattr(sackit.ideals, "MAX_POWER_STEPS", steps - 1)
    with pytest.raises(TooLarge, match=f"^a sweep of {up_to} power layers takes more than"):
        power_layer_lengths(I, up_to)
    # the zero ideal counts no work, and ends in its own error
    with pytest.raises(SackitError, match="^relative length against the zero ideal is infinite$"):
        power_layer_lengths(SemigroupIdeal.from_generators(H, []), 10**9)


def test_power_sweep_cap_over_a_large_multiplicity(monkeypatch):
    # over m = 1000003 with mu = 2, 3 layers (4 tables) fit the cap and 4 or
    # 5 do not; a sweep that fits reaches its first table, stopped here
    H = NumericalSemigroup.from_generators([1000003, 1000033])
    I = SemigroupIdeal(H, H.generators)

    class FirstTable(Exception):
        pass

    def first_table(table, gens):
        raise FirstTable

    monkeypatch.setattr(sackit.ideals, "_plus", first_table)
    with pytest.raises(FirstTable):
        power_layer_lengths(I, 3)
    for up_to in (4, 5):
        with pytest.raises(TooLarge, match=f"^a sweep of {up_to} power layers takes more "
                                           "than the supported 10000000 steps$"):
            power_layer_lengths(I, up_to)


def test_search_reduction_misses():
    # <5,6,9>: the maximal ideal is not stable for any witness
    H = NumericalSemigroup.from_generators([5, 6, 9])
    assert search_reduction(SemigroupIdeal(H, H.generators)) is None
    assert search_reduction(SemigroupIdeal.from_generators(H, [6, 9])) == 6
    # the unit ideal (0) has no positive generator, so no witness is_ulrich takes
    unit = SemigroupIdeal.from_generators(H, [0])
    assert search_reduction(unit) is None
    rep = is_ulrich(unit, 5)
    assert (rep.is_ulrich, rep.colength, rep.layer_length, rep.free_rank) == (False, 0, 0, None)


def loop_reduction(ideal):
    """The first positive generator, ascending, that passes the stability
    test: the reference for search_reduction, which tries min(ideal) alone."""
    for q in ideal.generators:
        if q > 0 and _stable(ideal, q):
            return q
    return None


def test_search_reduction_matches_the_generator_loop():
    # over every semigroup with 2-4 generators in 2..15: the maximal ideal,
    # the unit ideal, the tail from the conductor (always stable) and ideals
    # on up to three members drawn below 3m + F + 2.  is_ulrich reads
    # stability as l(I/I^2) = q; that agrees with the pairwise scan at every
    # member q of I below the same bound, not only at min(I)
    rng = random.Random(27)
    seen, tried, stable = set(), 0, 0
    checks, lengths = 0, 0
    for size in (2, 3, 4):
        for gens in itertools.combinations(range(2, 16), size):
            if math.gcd(*gens) != 1:
                continue
            H = NumericalSemigroup.from_generators(gens)
            if H in seen:
                continue
            seen.add(H)
            m, conductor = H.multiplicity, H.frobenius + 1
            pool = [x for x in range(1, 3 * m + conductor + 2) if H.contains(x)]
            ideals = [
                SemigroupIdeal(H, H.generators),
                SemigroupIdeal.from_generators(H, [0]),
                SemigroupIdeal.from_generators(H, range(max(conductor, m), conductor + 2 * m)),
            ]
            ideals += [SemigroupIdeal.from_generators(H, rng.sample(pool, rng.randint(1, 3)))
                       for _ in range(3)]
            for I in ideals:
                q = search_reduction(I)
                assert q == loop_reduction(I), (gens, I.generators)
                tried, stable = tried + 1, stable + (q is not None)
                for x in filter(I.member, pool):
                    by_length = is_ulrich(I, x).reduction_q is not None
                    assert by_length == _stable(I, x), (gens, I.generators, x)
                    checks, lengths = checks + 1, lengths + by_length
    assert tried == 2244 and 500 < stable < tried - 500, (tried, stable)
    # a stable I has one witness, min(I), which the pool holds unless I = (0)
    assert (checks, lengths) == (49457, stable), (checks, lengths)


def test_rank_formula_frozen_values():
    assert [ulrich_rank_formula(1, 5, i) for i in range(1, 5)] == [5, 5, 5, 5]
    assert [ulrich_rank_formula(2, 3, i) for i in range(1, 5)] == [3, 5, 7, 9]
    assert [ulrich_rank_formula(2, 2, i) for i in range(1, 5)] == [2, 3, 4, 5]
    assert ulrich_rank_formula(3, 5, 3) == 22
    assert ulrich_rank_formula(4, 4, 2) == math.comb(5, 3)


def test_rank_formula_guards():
    with pytest.raises(SackitError, match="^need n >= 1 and i >= 1, got n=0, i=1$"):
        ulrich_rank_formula(0, 3, 1)
    with pytest.raises(SackitError, match="^need c >= n, got c=1 < n=2$"):
        ulrich_rank_formula(2, 1, 1)
    with pytest.raises(SackitError, match="^need n >= 1 and i >= 1, got n=2, i=0$"):
        ulrich_rank_formula(2, 3, 0)


small_semigroups = st.sampled_from(
    [(2, 3), (3, 4, 5), (3, 5), (4, 5, 6), (4, 6, 7, 9), (5, 6, 9)]
)


@settings(max_examples=40, deadline=None)
@given(small_semigroups, st.data())
def test_random_ideal_invariants(hgens, data):
    H = NumericalSemigroup.from_generators(hgens)
    pool = first_members(H, 10)[1:]
    gens = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    )
    I = SemigroupIdeal.from_generators(H, gens)
    assert 1 <= I.mu() <= len(set(gens))
    sq = I.power(2)
    for x in list(sq.generators)[:4]:
        assert I.member(x)  # I^2 sits inside I
    assert sq.colength() >= I.colength()
    assert I.relative_length(sq) == sq.colength() - I.colength()
    whole = SemigroupIdeal.from_generators(H, [0])
    assert whole.colength() == 0


def window_power(H, gens, k, bound):
    """Members up to bound of the ideal generated by gens, raised to the
    k-th power: sums of k ideal members, enumerated in the window."""
    base = brute_ideal_members(H, gens, bound)
    out = base
    for _ in range(k - 1):
        out = {a + b for a in out for b in base if a + b <= bound}
    return out


def window_minimal(H, members):
    """Members with no smaller member below them by a semigroup element."""
    return tuple(
        x for x in sorted(members)
        if not any(y < x and H.contains(x - y) for y in members)
    )


wider_semigroups = st.sampled_from(
    [(3, 4, 5), (5, 7, 9), (6, 9, 20), (7, 9, 11, 13), (8, 11, 12, 14, 18),
     (10, 11, 13)]
)


@settings(max_examples=30, deadline=None)
@given(wider_semigroups, st.data())
def test_ideal_representation_matches_window(hgens, data):
    H = NumericalSemigroup.from_generators(hgens)
    pool = first_members(H, 12)[1:]
    gens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    I = SemigroupIdeal.from_generators(H, gens)
    # every class mod m meets I^3 below max(I^3) + F + m, so the window
    # holds every complement and every layer up to the cube
    bound = 3 * max(gens) + H.frobenius + 2 * H.multiplicity
    window = range(-2, bound + 1)
    powers = {k: window_power(H, gens, k, bound) for k in (1, 2, 3)}
    assert [I.member(x) for x in window] == [x in powers[1] for x in window]
    assert I.complement() == tuple(
        x for x in range(bound + 1) if H.contains(x) and x not in powers[1]
    )
    assert I.colength() == len(I.complement())
    for k in (2, 3):
        P = I.power(k)
        assert P.generators == window_minimal(H, powers[k])
        assert [P.member(x) for x in window] == \
            [x in powers[k] for x in window]
        assert I.power(k - 1).relative_length(P) == \
            len(powers[k - 1] - powers[k])


@pytest.mark.parametrize("hgens,igens", [
    ([3, 4, 5], [3, 4, 5]),
    ([5, 7, 9], [5, 7]),
    ([4, 6, 7, 9], [6, 7]),
    ([5, 6, 9], [9]),
    ([8, 11, 12, 14, 18], [8, 12, 14, 18]),
    ([7, 10, 13], [10, 13, 14]),
])
def test_power_matches_repeated_products(hgens, igens):
    # power squares; the oracle multiplies by the ideal n - 1 times
    H = NumericalSemigroup.from_generators(hgens)
    I = SemigroupIdeal.from_generators(H, igens)
    repeated = I
    for n in range(1, 13):
        assert I.power(n) == repeated, n
        assert I.power(n).generators == repeated.generators, n
        repeated = repeated.product(I)


@pytest.mark.parametrize("hgens,igens,layers", [
    ([8, 11, 12, 14, 18], [8, 12, 14, 18], (8, 8, 8, 8, 8, 8)),
    ([3, 4, 5], [3, 4, 5], (3, 3, 3, 3, 3, 3)),
    ([5, 7, 9], [5, 7], (3, 4, 4, 5, 5, 5)),
    ([4, 6, 7, 9], [6, 7], (5, 5, 6, 6, 6, 6)),
    ([5, 6, 9], [5, 6, 9], (3, 4, 5, 5, 5, 5)),
    ([3, 7], [7, 9], (6, 7, 7, 7, 7, 7)),
    ([4, 6, 7, 9], [4, 6], (4, 4, 4, 4, 4, 4)),
])
def test_power_layer_lengths_pinned(hgens, igens, layers):
    H = NumericalSemigroup.from_generators(hgens)
    I = SemigroupIdeal.from_generators(H, igens)
    assert power_layer_lengths(I, 6) == layers
    assert layers == tuple(
        I.power(i).relative_length(I.power(i + 1)) for i in range(1, 7)
    )


def test_power_layers_match_the_generator_oracle():
    # the sweep steps each table from the one before; the oracle builds every
    # power from its generators: over every semigroup with at most 4
    # generators in 2..12, its maximal, unit and principal ideals and ideals
    # on up to three members drawn below 2m + F + 2, to layer 8, and the
    # Ulrich layer l(I/I^2) on the same corpus
    rng = random.Random(37)
    seen, tried = set(), 0
    for size in (2, 3, 4):
        for gens in itertools.combinations(range(2, 13), size):
            if math.gcd(*gens) != 1:
                continue
            H = NumericalSemigroup.from_generators(gens)
            if H in seen:
                continue
            seen.add(H)
            m = H.multiplicity
            pool = [x for x in range(1, 2 * m + H.frobenius + 2) if H.contains(x)]
            ideals = [SemigroupIdeal(H, H.generators), SemigroupIdeal.from_generators(H, [0]),
                      SemigroupIdeal.from_generators(H, [m])]
            ideals += [SemigroupIdeal.from_generators(H, rng.sample(pool, rng.randint(1, 3)))
                       for _ in range(5)]
            for I in ideals:
                powers = [I.power(j) for j in range(1, 10)]
                want = tuple(a.relative_length(b) for a, b in zip(powers, powers[1:]))
                assert power_layer_lengths(I, 8) == want, (gens, I.generators)
                q = max(I.generators[-1], m)
                assert is_ulrich(I, q).layer_length == want[0], (gens, I.generators)
                tried += 1
    assert tried == 1048, tried


def test_huge_power_takes_few_products():
    H = NumericalSemigroup.from_generators([3, 4, 5])
    m = SemigroupIdeal(H, H.generators)
    n = 10 ** 9
    assert m.power(n).generators == (3 * n, 3 * n + 1, 3 * n + 2)
