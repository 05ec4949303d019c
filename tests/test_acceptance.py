"""Headline end-to-end checks, one test per acceptance claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per claim.  Everything here is exact integer arithmetic: tolerance 0.
"""

import json
from math import comb

import jsonschema
import pytest

import sackit._cli_ideal
import sackit.ideals
from sackit import (
    CERT_SCHEMA,
    CITATIONS,
    NumericalSemigroup,
    SemigroupIdeal,
    certify,
    cyclic_quotient,
    ext_deg_window,
    ext_dims,
    free_module,
    is_ulrich,
    power_layer_lengths,
    residue_field,
    search_reduction,
    tor_dims,
    truncation_algebra,
    ulrich_rank_formula,
)
from sackit._cli_ideal import lemma42
from sackit.errors import TooLarge

from cli_runner import invoke
from test_artinian import radical_index, walking_twin
from test_certify import cert_json
from test_semigroup import first_members


# every ring here has multiplicity <= 8
RING_CORPUS = [
    (2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6), (6, 7),
    (3, 4, 5), (4, 5, 6), (5, 6, 9), (4, 6, 7, 9),
    (4, 5, 6, 7), (5, 6, 7, 8, 9), (6, 7, 8, 9, 10, 11),
    (7, 8, 9, 10, 11, 12, 13), (8, 11, 12, 14, 18),
]


def verified_ulrich_ideals(H):
    """All (ideal, q) pairs among the standard candidates that pass the
    Ulrich test: the maximal ideal, each drop-one subset, each principal."""
    gens = H.generators
    candidates = [gens]
    if len(gens) > 1:
        candidates += [tuple(g for g in gens if g != d) for d in gens]
    candidates += [(g,) for g in gens]
    out = []
    for cand in candidates:
        ideal = SemigroupIdeal.from_generators(H, cand)
        q = search_reduction(ideal)
        if q is not None and is_ulrich(ideal, q).is_ulrich:
            out.append((ideal, q))
    return out


def test_reference_ulrich_example():
    H = NumericalSemigroup.from_generators([8, 11, 12, 14, 18])
    I = SemigroupIdeal.from_generators(H, [8, 12, 14, 18])
    Q = SemigroupIdeal.from_generators(H, [8])
    assert I.power(2) == I.product(Q)        # I^2 = QI with Q = (t^8)
    rep = is_ulrich(I, 8)
    assert rep.is_ulrich
    assert rep.colength == 2                 # length of R/I
    assert rep.mu == 4
    assert rep.layer_length == 8             # length of I/I^2
    assert rep.free_rank == 4                # I/I^2 free of rank mu over R/I
    assert rep.layer_length == rep.mu * rep.colength


def test_layer_lengths_match_rank_formula():
    rings_hit = 0
    ideals_hit = 0
    for gens in RING_CORPUS:
        H = NumericalSemigroup.from_generators(gens)
        assert H.multiplicity <= 8
        found = verified_ulrich_ideals(H)
        if found:
            rings_hit += 1
        for ideal, q in found:
            ideals_hit += 1
            rep = is_ulrich(ideal, q)
            layers = power_layer_lengths(ideal, 5)
            for i in range(1, 6):
                predicted = ulrich_rank_formula(1, rep.mu, i) * rep.colength
                assert layers[i - 1] == predicted, (gens, ideal.generators, i)
    assert rings_hit >= 10
    assert ideals_hit >= rings_hit


def ratio_holds(chain):
    """1 + a_2 + ... + a_(l-1) < a_l for the rank chain (a_2, ..., a_l)."""
    return 1 + sum(chain[:-1]) < chain[-1]


def identity_holds(n, c, ell, rank=ulrich_rank_formula):
    """1 + rank(n, c, 1) + ... + rank(n, c, l-2), summed afresh, equals
    C(l-2+n, n) + (c-n) C(l-3+n, n)."""
    lhs = 1 + sum(rank(n, c, i) for i in range(1, ell - 1))
    return lhs == comb(ell - 2 + n, n) + (c - n) * comb(ell - 3 + n, n)


def lemma42_failures(n_max, cmax, rank):
    """The failure lists of `sackit lemma42`, each check on a chain rebuilt
    for its own l, with a_i = rank(n, c, i - 1)."""
    ratio, identity = [], []
    for n in range(2, n_max + 1):
        for c in range(n, cmax + 1):
            for ell in range(2, n + 1):
                if not ratio_holds([rank(n, c, i - 1) for i in range(2, ell + 1)]):
                    ratio.append([n, c, ell])
                if ell >= 3 and not identity_holds(n, c, ell, rank):
                    identity.append([n, c, ell])
    return ratio, identity


def test_ratio_and_identity_sweeps():
    failures = []
    for n in range(2, 9):
        for c in range(n, n + 7):
            for ell in range(2, n + 1):
                # both indexings of the layer-rank chain must satisfy the
                # strict ratio bound
                low = [ulrich_rank_formula(n, c, i - 1) for i in range(2, ell + 1)]
                high = [ulrich_rank_formula(n, c, i) for i in range(2, ell + 1)]
                if not ratio_holds(low):
                    failures.append(("ratio-low", n, c, ell))
                if not ratio_holds(high):
                    failures.append(("ratio-high", n, c, ell))
            for ell in range(3, n + 1):
                if not identity_holds(n, c, ell):
                    failures.append(("identity", n, c, ell))
    assert failures == []


RANK_PATCHES = {
    "real": ulrich_rank_formula,
    # a_i = 2^(i-2): 1 + a_2 + ... + a_(l-1) = a_l, so every ratio check is
    # an equality and fails
    "doubling": lambda n, c, i: 2 ** (i - 1),
    "doubling-bumped": lambda n, c, i: 2 ** (i - 1) + (n + c + i) % 2,
    "real-bumped": lambda n, c, i: ulrich_rank_formula(n, c, i) + ((n + c + i) % 5 == 0),
}


@pytest.mark.parametrize("patch", RANK_PATCHES)
def test_lemma42_failures_match_the_oracle(patch, monkeypatch):
    # the real formula fails no check; the other formulas make each check
    # fail at some (n, c, l), and the bumped ones pass it at others
    rank = RANK_PATCHES[patch]
    monkeypatch.setattr(sackit.ideals, "ulrich_rank_formula", rank)
    for n_max, cmax in ((6, 10), (9, 7), (2, 2)):
        data, _ = lemma42(n_max, cmax)
        ratio, identity = lemma42_failures(n_max, cmax, rank)
        assert data["ratio_failures"] == ratio, (n_max, cmax)
        assert data["identity_failures"] == identity, (n_max, cmax)
    if patch == "doubling":
        assert len(ratio) == data["ratio_checked"] > 0


@pytest.mark.parametrize("n_max, cmax", [(6, 10), (9, 7), (2, 2), (3, 2), (12, 20)])
def test_lemma42_counts_every_check(n_max, cmax):
    # (n-1)(cmax-n+1) ratio and (n-2)(cmax-n+1) identity checks per n
    data, _ = lemma42(n_max, cmax)
    ns = range(2, min(n_max, cmax) + 1)
    assert data["ratio_checked"] == sum((n - 1) * (cmax - n + 1) for n in ns)
    assert data["identity_checked"] == sum((n - 2) * (cmax - n + 1) for n in ns)
    if (n_max, cmax) == (6, 10):
        assert (data["ratio_checked"], data["identity_checked"]) == (95, 60)


def test_lemma42_counts_its_checks_before_the_sweep(monkeypatch):
    # the cap reads the closed-form count, which the sweep then runs exactly
    monkeypatch.setattr(sackit._cli_ideal, "MAX_RATIO_CHECKS", 95)
    assert lemma42(6, 10)[0]["ratio_checked"] == 95
    monkeypatch.setattr(sackit._cli_ideal, "MAX_RATIO_CHECKS", 94)
    with pytest.raises(TooLarge, match="95 ratio checks"):
        lemma42(6, 10)


def chain_algebra(n, char=None):
    return truncation_algebra(NumericalSemigroup.from_generators([1]), n, char)


RAD_SQUARE_ZERO = {
    2: (3, 4, 5),
    3: (4, 5, 6, 7),
    4: (5, 6, 7, 8, 9),
}


def corpus_algebras(char=None):
    out = [chain_algebra(n, char) for n in (2, 3, 5)]
    for gens in RAD_SQUARE_ZERO.values():
        out.append(truncation_algebra(
            NumericalSemigroup.from_generators(gens), gens[0], char))
    for e in (3, 4, 5, 6):
        out.append(truncation_algebra(
            NumericalSemigroup.from_generators(range(e, 2 * e - 1)), e, char))
    for gens in ((4, 6, 7, 9), (8, 11, 12, 14, 18)):
        out.append(truncation_algebra(
            NumericalSemigroup.from_generators(gens), gens[0], char))
    return out


# complete intersections: k[H] is one for H with two generators or H a
# gluing, and so is its quotient by the regular element t^q
TATE_ALGEBRAS = [((2, 5), 10, 30), ((3, 7), 9, 30), ((4, 5, 6), 8, 12)]


def test_ext_closed_forms():
    for char in (2, 32003):
        for n in (2, 3, 5):
            A = chain_algebra(n, char)
            k = residue_field(A)
            assert ext_dims(k, k, 12) == (1,) * 13, (n, char)
        for v, gens in RAD_SQUARE_ZERO.items():
            A = truncation_algebra(
                NumericalSemigroup.from_generators(gens), gens[0], char)
            assert radical_index(A) == 2
            assert A.embedding_dim() == v
            k = residue_field(A)
            assert ext_dims(k, k, 8) == tuple(v ** j for j in range(9)), (v, char)
        # Tate: over a complete intersection of embedding dimension e,
        # dim Ext^i(k, k) = dim Tor_i(k, k) = C(i + e - 1, e - 1)
        for gens, q, depth in TATE_ALGEBRAS:
            A = truncation_algebra(NumericalSemigroup.from_generators(gens), q, char)
            e, k = A.embedding_dim(), residue_field(A)
            tate = tuple(comb(i + e - 1, e - 1) for i in range(depth + 1))
            assert ext_dims(k, k, depth) == tate, (gens, q, char)
            assert tor_dims(k, k, depth) == tate, (gens, q, char)
        for A in corpus_algebras(char):
            F = free_module(A, 1)
            dims = ext_dims(F, F, 12)
            assert dims[0] == A.dim
            assert dims[1:] == (0,) * 12, A.descriptor()


def test_ext_closed_forms_through_the_walk():
    # the change of rings answers the chain and Tate rows above from A_m;
    # over the quotient_algebra form of each truncation, which it does not
    # route, the same closed forms come from the syzygy walk
    for char in (2, 32003):
        for n in (2, 3, 5):
            k = residue_field(walking_twin(chain_algebra(n, char)))
            assert ext_dims(k, k, 12) == (1,) * 13, (n, char)
        for gens, q, depth in TATE_ALGEBRAS:
            A = walking_twin(
                truncation_algebra(NumericalSemigroup.from_generators(gens), q, char))
            e, k = A.embedding_dim(), residue_field(A)
            tate = tuple(comb(i + e - 1, e - 1) for i in range(depth + 1))
            assert ext_dims(k, k, depth) == tate, (gens, q, char)
            assert tor_dims(k, k, depth) == tate, (gens, q, char)
            assert A._omega_store


def test_radical_cube_family():
    for e in (3, 4, 5, 6):
        H = NumericalSemigroup.from_generators(range(e, 2 * e - 1))
        A = truncation_algebra(H, e)
        assert radical_index(A) == 3, e
        m = SemigroupIdeal(H, H.generators)
        # length of m^2 / (t^e)m, with (t^e)m inside m^2 because e is the
        # smallest positive member
        assert m.power(2).relative_length(m.product(SemigroupIdeal(H, (e,)))) == 1, e
        assert H.multiplicity - H.embedding_dim == 1, e


def test_certified_rings_have_nonvanishing_windows():
    checked_rings = 0
    checked_modules = 0
    for gens in RING_CORPUS:
        H = NumericalSemigroup.from_generators(gens)
        if H.multiplicity > 6:
            continue
        cert = certify("sgp(" + ",".join(map(str, gens)) + ")")
        if cert.verdict != "Certified":
            continue
        checked_rings += 1
        A = truncation_algebra(H, H.multiplicity)
        modules = [cyclic_quotient(A, g) for g in first_members(H, 10)]
        modules += [residue_field(A), free_module(A, 1)]
        for M in modules:
            checked_modules += 1
            if not M.columns:
                continue
            report = ext_deg_window(M, 12)
            # a non-free module must show self-extensions inside the window
            assert report.last_nonzero_in_window is not None, (gens, M)
    assert checked_rings >= 8
    assert checked_modules >= 12 * checked_rings


def test_dual_route_certificates():
    via_ideal = certify("sgp(8,11,12,14,18)", root_rules=["R-ULCI"])
    via_glue = certify("sgp(8,11,12,14,18)", root_rules=["R-GLUE"])
    assert via_ideal.verdict == via_glue.verdict == "Certified"
    assert via_ideal.rule == "R-ULCI"
    assert via_glue.rule == "R-GLUE"
    assert via_glue.children[0].goal == "sgp(4,6,7,9)"
    for cert in (via_ideal, via_glue):
        jsonschema.validate(json.loads(cert_json(cert)), CERT_SCHEMA)
    assert via_ideal.citation == CITATIONS["R-ULCI"]
    assert via_glue.citation == CITATIONS["R-GLUE"]
    assert via_ideal.citation != via_glue.citation


def json_artifacts():
    """Every JSON surface the toolkit exposes, gathered in one pass."""
    chunks = []
    for text in ("sgp(3,4,5)", "sgp(8,11,12,14,18)", "glued(sgp(4,6,7,9),2,11)",
                 "qpow(sgp(3,4,5),1,1)"):
        chunks.append(cert_json(certify(text)))
    H = NumericalSemigroup.from_generators([8, 11, 12, 14, 18])
    I = SemigroupIdeal.from_generators(H, [8, 12, 14, 18])
    chunks.append(json.dumps(is_ulrich(I, 8).to_json_dict(), sort_keys=True))
    A = truncation_algebra(NumericalSemigroup.from_generators([3, 4, 5]), 3)
    chunks.append(json.dumps(
        ext_deg_window(residue_field(A), 12).to_json_dict(), sort_keys=True))
    for args in (
        ["sgp", "info", "--gens", "8,11,12,14,18", "--json"],
        ["ideal", "ulrich", "--gens", "8,11,12,14,18",
         "--ideal", "8,12,14,18", "--json"],
        ["ideal", "powers", "--gens", "8,11,12,14,18",
         "--ideal", "8,12,14,18", "--up-to", "5", "--json"],
        ["glue", "--gens", "4,6,7,9", "--n", "2", "--m", "11", "--json"],
        ["ext", "table", "--H", "3,4,5", "--q", "3", "--mod", "k",
         "--range", "0..8", "--json"],
        ["extdeg", "--H", "3,4,5", "--q", "3", "--mod", "k", "--json"],
        ["lemma42", "--n", "6", "--cmax", "10", "--json"],
        ["certify", "--ring", "glued(sgp(4,6,7,9),2,11)", "--json"],
    ):
        result = invoke(args)
        assert result.exit_code == 0, args
        chunks.append(result.output)
    return "\n".join(chunks).encode()


def test_json_outputs_bytewise_stable():
    assert json_artifacts() == json_artifacts()
