"""The frozen value types: construction, equality, hash, repr and
immutability, as callers and the certificate bytes rely on them."""

import pytest

from sackit import (
    NumericalSemigroup,
    SemigroupIdeal,
    certify,
    ext_deg_window,
    is_ulrich,
    parse_ring,
    quotient_algebra,
    residue_field,
    truncation_algebra,
)
from sackit.artinian import ExtWindowReport, MinimalResolution, Realization
from sackit.certify import (
    AbstractCI,
    Certificate,
    Citation,
    Premise,
    SemigroupRing,
    Truncation,
)
from sackit._cli_help import descriptor_grammar

H345 = NumericalSemigroup.from_generators([3, 4, 5])


def test_repr_strings_are_pinned():
    cert = certify("trunc(sgp(3,4,5),6)")
    assert repr(cert.premises[0]) == (
        "Premise(statement='k[H]/(t^6) with H=3,4,5 has radical index <= 3', "
        "status='Verified', evidence=(('index', 3), ('q', 6)))"
    )
    assert repr(certify("ffd(?,?)")) == (
        "Certificate(goal='ffd(?,?)', verdict='Unknown', rule=None, "
        "citation=None, premises=(), children=(), attempted=('R-FFD',))"
    )
    assert repr(cert.citation) == (
        "Citation(where='radical-cube-zero', "
        "quote='has radical cube zero … satisfies (SAC) by')"
    )
    assert repr(parse_ring("trunc(sgp(3,4,5),6)")) == (
        "Truncation(generators=(3, 4, 5), q=6)"
    )
    assert repr(AbstractCI()) == "AbstractCI()"
    assert repr(is_ulrich(SemigroupIdeal(H345, H345.generators), 3)) == (
        "UlrichReport(is_ulrich=True, reduction_q=3, colength=1, mu=3, "
        "layer_length=3, free_rank=3)"
    )
    window = ext_deg_window(residue_field(truncation_algebra(H345, 3)), 3)
    assert repr(window) == (
        "ExtWindowReport(last_nonzero_in_window=3, nonzero_at_boundary=True)"
    )
    # these print their generators or descriptor, not the Apery table or basis
    A = truncation_algebra(H345, 6)
    assert repr(H345) == "NumericalSemigroup(3,4,5)"
    assert repr(A) == "MonomialArtinianAlgebra(H=3,4,5; q=6; p=32003)"
    assert repr(residue_field(A)) == (
        "PresentedModule(rank0=1, relations=3, over H=3,4,5; q=6; p=32003)"
    )


def test_equality_and_hash_are_by_value():
    a, b = Truncation((3, 4, 5), 6), parse_ring("trunc(sgp(3,4,5),6)")
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(a) == hash(((3, 4, 5), 6))
    assert hash(AbstractCI()) == hash(()) and AbstractCI() == AbstractCI()
    assert a != Truncation((3, 4, 5), 7)
    assert Premise("s", "Asserted") == Premise("s", "Asserted", None)
    assert len({Citation("w", "q"), Citation("w", "q"), Citation("w", "r")}) == 2
    # an ideal is its generators; the residue table a length builds is no field
    I, J = (SemigroupIdeal(H345, (4, 5)) for _ in range(2))
    assert I == J and hash(I) == hash((H345, (4, 5)))
    assert I.colength() == 3  # 0, 3 and 6 lie outside
    assert I == J and hash(I) == hash(J)
    assert I != SemigroupIdeal(H345, (3, 4, 5))
    # a semigroup, its algebras and their modules, from two separate builds
    H = NumericalSemigroup.from_generators([3, 4, 5])
    K = NumericalSemigroup.from_generators([5, 4, 3, 8])
    assert H == K and H is not K and hash(H) == hash(K)
    # a cached_property is no field: reading it on one side changes nothing
    assert H.frobenius == 2 and H == K and hash(H) == hash(K)
    assert H != NumericalSemigroup.from_generators([3, 5, 7])
    A, B = truncation_algebra(H, 6), truncation_algebra(K, 6)
    assert A == B and hash(A) == hash(B)
    assert A._index and A == B and hash(A) == hash(B)
    assert A != truncation_algebra(H, 6, char=7) and A != truncation_algebra(H, 7)
    # the fields differ, though the basis is the same
    assert A != quotient_algebra(SemigroupIdeal.from_generators(H, [6]))
    assert residue_field(A) == residue_field(B)
    assert residue_field(A) != residue_field(truncation_algebra(H, 7))
    # a module's columns are dicts, so it has no hash
    with pytest.raises(TypeError):
        hash(residue_field(A))


def test_equality_needs_the_same_type():
    assert SemigroupRing((3, 4, 5)) != Truncation((3, 4, 5), 6)
    # equal field values are not enough across types
    assert ExtWindowReport(3, True) != Realization(3, True)
    assert Realization(3, True) != (3, True)
    assert SemigroupRing((3, 4, 5)) != ((3, 4, 5),)


def test_fields_cannot_be_assigned_or_deleted():
    desc = SemigroupRing((3, 4, 5))
    with pytest.raises(AttributeError):
        desc.generators = (2, 3)
    with pytest.raises(AttributeError):
        del desc.generators
    with pytest.raises(AttributeError):
        desc.extra = 1
    cert = certify("sgp(3,4,5)")
    with pytest.raises(AttributeError):
        cert.verdict = "Unknown"
    assert desc.generators == (3, 4, 5) and cert.verdict == "Certified"
    H = NumericalSemigroup.from_generators([3, 4, 5])
    A = truncation_algebra(H, 6)
    k = residue_field(A)
    for value, name in ((H, "generators"), (H, "frobenius"), (A, "char"),
                        (A, "_omega_store"), (k, "columns")):
        getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert H.generators == (3, 4, 5) and H.frobenius == 2 and A.char == 32003
    assert k.rank0 == 1 and len(k.columns) == 3


def test_keyword_construction_and_defaults():
    assert Premise(statement="s", status="Asserted").evidence is None
    cert = Certificate(goal="g", verdict="Unknown", rule=None, citation=None,
                       premises=(), children=())
    assert cert.attempted == ()
    assert cert == Certificate("g", "Unknown", None, None, (), (), ())
    assert ExtWindowReport(nonzero_at_boundary=False,
                           last_nonzero_in_window=None) == ExtWindowReport(None, False)
    res = MinimalResolution(module=None, betti=(1, 2))
    assert res.length == 1
    for bad in (lambda: Citation("w"), lambda: Citation("w", "q", "x"),
                lambda: Citation("w", where="v"), lambda: Citation("w", quot="q")):
        with pytest.raises(TypeError):
            bad()


def test_grammar_names_the_fields_in_order():
    # the grammar table renders each int slot by its field name
    forms = [line.split()[0] for line in descriptor_grammar().splitlines()[1:]]
    assert forms == [
        "sgp(a,b,...)", "trunc(sgp(a,b,...),q)", "glued(sgp(a,b,...),n,m)",
        "powser(ring)", "qpow(ring,power,regseq_len)",
        "upow(ring,(a,b,...),power)", "ci()", "ffd(ring|?,ring|?)",
    ]
