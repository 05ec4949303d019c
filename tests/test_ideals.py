"""Monomial ideal arithmetic, the Ulrich test, and the rank formulas.

Set-level facts are checked against brute member enumerations done here
with plain loops; the reference triple H=<8,11,12,14,18>, I=(8,12,14,18),
q=8 gets its own frozen block.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from sackit import (
    NumericalSemigroup,
    SemigroupIdeal,
    cumulative_rank_identity,
    estimate_ratio_holds,
    ideal_from_text,
    ideal_to_text,
    is_ulrich,
    power_layer_lengths,
    search_reduction,
    ulrich_rank_formula,
)
from sackit.errors import (
    AmbientMismatch,
    DomainError,
    EmptyIdeal,
    EmptyInput,
    NonPositive,
    NotAMember,
    NotContained,
    NotInIdeal,
    TooLarge,
)
from sackit.semigroup import MAX_DIMENSION


def brute_ideal_members(H, gens, bound):
    """{d + s <= bound : d a generator degree, s in H}, by direct loops."""
    out = set()
    for d in gens:
        for s in range(bound - d + 1):
            if H.contains(s):
                out.add(d + s)
    return out


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
    assert I.power(2) == I.shift(8)
    assert power_layer_lengths(I, 5) == (8, 8, 8, 8, 8)
    # stability propagates: I^(i+1) = (t^8) I^i for every i
    for i in (1, 2, 3):
        assert I.power(i + 1) == I.power(i).shift(8)
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
    J = SemigroupIdeal.maximal_ideal(H)
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
        m = SemigroupIdeal.maximal_ideal(H)
        m2, m3 = m.power(2), m.power(3)
        assert m.colength() == 1
        assert m2.colength() == m.colength() + m.relative_length(m2)
        assert m3.colength() == m2.colength() + m2.relative_length(m3)
        assert m.relative_length(m3) == \
            m.relative_length(m2) + m2.relative_length(m3)
        assert m.relative_complement(m2) == tuple(
            x for x in range(m2.generators[-1] + H.frobenius + 1)
            if m.member(x) and not m2.member(x)
        )


def test_relative_length_requires_containment():
    H, I = reference_pair()
    m = SemigroupIdeal.maximal_ideal(H)
    with pytest.raises(NotContained):
        I.relative_length(m)  # m has the member 11, I does not


def test_zero_ideal_rules():
    H = NumericalSemigroup.from_generators([3, 4, 5])
    Z = SemigroupIdeal.from_generators(H, [])
    assert Z.is_empty()
    assert Z.generators == ()
    with pytest.raises(EmptyIdeal):
        Z.colength()
    m = SemigroupIdeal.maximal_ideal(H)
    with pytest.raises(EmptyIdeal):
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


def test_gap_and_relative_listers_refuse_past_the_cap(monkeypatch):
    # the gaps of <2,2097157> (genus 1048578) and the elements of (2) outside
    # (1048580) over <2,3> (relative length 1048578) are refused from their
    # counts, before one element is listed
    import sackit.ideals

    def listed(*args):
        raise AssertionError("listed past the cap")

    monkeypatch.setattr(NumericalSemigroup, "contains", listed)
    monkeypatch.setattr(sackit.ideals, "_span", listed)
    wide = NumericalSemigroup.from_generators([2, 2097157])
    assert wide.genus == MAX_DIMENSION + 2
    with pytest.raises(TooLarge, match=f"^algebra dimension {MAX_DIMENSION + 2} is above"):
        wide.gaps()
    monkeypatch.undo()
    H = NumericalSemigroup.from_generators([2, 3])
    big, small = (SemigroupIdeal.from_generators(H, [d]) for d in (2, 1048580))
    monkeypatch.setattr(sackit.ideals, "_span", listed)
    assert big.relative_length(small) == MAX_DIMENSION + 2
    with pytest.raises(TooLarge, match=f"^algebra dimension {MAX_DIMENSION + 2} is above"):
        big.relative_complement(small)
    monkeypatch.undo()
    assert big.relative_complement(SemigroupIdeal.from_generators(H, [8])) == (2, 4, 5, 6, 7, 9)


def test_shift_requires_member():
    H, I = reference_pair()
    with pytest.raises(NotAMember):
        I.shift(3)
    principal = SemigroupIdeal.from_generators(H, [8])
    assert I.shift(8) == I.product(principal)


def test_bad_generators():
    H = NumericalSemigroup.from_generators([3, 4, 5])
    with pytest.raises(NotAMember):
        SemigroupIdeal.from_generators(H, [2])
    H2 = NumericalSemigroup.from_generators([2, 3])
    with pytest.raises(AmbientMismatch):
        SemigroupIdeal.maximal_ideal(H).product(
            SemigroupIdeal.maximal_ideal(H2)
        )


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
        m = SemigroupIdeal.maximal_ideal(H)
        rep = is_ulrich(m, H.multiplicity)
        assert rep.is_ulrich == H.has_minimal_multiplicity(), hgens
        assert rep.colength == 1


def test_ulrich_witness_checks():
    H, I = reference_pair()
    with pytest.raises(NonPositive):
        is_ulrich(I, 0)
    with pytest.raises(NotInIdeal):
        is_ulrich(I, 11)
    # q=12 is in I but the stability test fails there
    assert not is_ulrich(I, 12).is_ulrich


def test_search_reduction_misses():
    # <5,6,9>: the maximal ideal is not stable for any witness
    H = NumericalSemigroup.from_generators([5, 6, 9])
    assert search_reduction(SemigroupIdeal.maximal_ideal(H)) is None
    assert search_reduction(SemigroupIdeal.from_generators(H, [6, 9])) == 6


def test_rank_formula_frozen_values():
    assert [ulrich_rank_formula(1, 5, i) for i in range(1, 5)] == [5, 5, 5, 5]
    assert [ulrich_rank_formula(2, 3, i) for i in range(1, 5)] == [3, 5, 7, 9]
    assert [ulrich_rank_formula(2, 2, i) for i in range(1, 5)] == [2, 3, 4, 5]
    assert ulrich_rank_formula(3, 5, 3) == 22
    assert ulrich_rank_formula(4, 4, 2) == math.comb(5, 3)


def test_rank_formula_guards():
    with pytest.raises(DomainError):
        ulrich_rank_formula(0, 3, 1)
    with pytest.raises(DomainError):
        ulrich_rank_formula(2, 1, 1)
    with pytest.raises(DomainError):
        ulrich_rank_formula(2, 3, 0)


def test_ratio_predicate():
    assert estimate_ratio_holds([3])
    assert not estimate_ratio_holds([1])
    assert not estimate_ratio_holds([2, 3])
    assert estimate_ratio_holds([2, 4])
    with pytest.raises(EmptyInput):
        estimate_ratio_holds([])
    with pytest.raises(DomainError):
        estimate_ratio_holds([2, 0])


def test_cumulative_identity_range():
    for n in range(3, 9):
        for c in range(n, n + 7):
            for length in range(3, n + 1):
                assert cumulative_rank_identity(n, c, length), (n, c, length)
    with pytest.raises(DomainError):
        cumulative_rank_identity(2, 3, 5)
    with pytest.raises(DomainError):
        cumulative_rank_identity(4, 3, 3)


def test_text_round_trip():
    H, I = reference_pair()
    text = ideal_to_text(I, 8)
    assert text == "H=8,11,12,14,18; I=8,12,14,18; q=8"
    J, q = ideal_from_text(text)
    assert J == I and q == 8
    J2, q2 = ideal_from_text(ideal_to_text(I))
    assert J2 == I and q2 is None
    for bad in ("H=3,4,5", "H=3,4,5; I=x", "H=3,4,5; I=4; q=y"):
        with pytest.raises(EmptyInput):
            ideal_from_text(bad)


small_semigroups = st.sampled_from(
    [(2, 3), (3, 4, 5), (3, 5), (4, 5, 6), (4, 6, 7, 9), (5, 6, 9)]
)


@settings(max_examples=40, deadline=None)
@given(small_semigroups, st.data())
def test_random_ideal_invariants(hgens, data):
    H = NumericalSemigroup.from_generators(hgens)
    pool = H.members(10)[1:]
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
    pool = H.members(12)[1:]
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
        assert I.power(k - 1).relative_complement(P) == \
            tuple(sorted(powers[k - 1] - powers[k]))


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


def test_huge_power_takes_few_products():
    H = NumericalSemigroup.from_generators([3, 4, 5])
    m = SemigroupIdeal.maximal_ideal(H)
    n = 10 ** 9
    assert m.power(n).generators == (3 * n, 3 * n + 1, 3 * n + 2)
