"""Certificate engine: parser, premises, rule routes, JSON schema.

Route expectations were frozen from engine runs after checking each one
against the underlying arithmetic by hand (see the premise evidence
assertions: every number in them is recomputed by the library calls
used here, not trusted from the engine).
"""

import hashlib
import json
from itertools import combinations
from math import gcd

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from sackit import (
    CERT_SCHEMA,
    CITATIONS,
    NumericalSemigroup,
    SemigroupIdeal,
    certify,
    parse_ring,
    quotient_algebra,
    truncation_algebra,
    validate_descriptor,
    verify_premise,
)
from sackit.certify import (
    MAX_NESTING,
    AbstractCI,
    AbstractWithFiniteFlatCover,
    Glued,
    ParameterPowerQuotient,
    PowerSeriesExt,
    SemigroupRing,
    Truncation,
    UlrichPowerQuotient,
)
from sackit.errors import MalformedDescriptor, UnknownPremiseKind


ROUND_TRIPS = [
    "sgp(3,4,5)",
    "sgp(8,11,12,14,18)",
    "trunc(sgp(8,11,12,14,18),11)",
    "glued(sgp(2,3),3,4)",
    "powser(sgp(3,4,5))",
    "qpow(sgp(2,3),2,3)",
    "qpow(ci(),2,3)",
    "upow(sgp(3,4,5),(3,4,5),2)",
    "ci()",
    "ffd(?,sgp(3,4,5))",
    "ffd(?,?)",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_parse_round_trip(text):
    desc = parse_ring(text)
    assert str(desc) == text
    assert parse_ring(str(desc)) == desc
    validate_descriptor(desc)


_ints = st.lists(st.integers(0, 10**6), min_size=1, max_size=4).map(tuple)
_int = st.integers(0, 10**6)


def _descriptors(depth):
    """Descriptor trees over every variant, nested up to `depth` rings deep;
    parse_ring does not validate, so the numbers need not make sense."""
    leaves = st.one_of(
        st.builds(SemigroupRing, _ints),
        st.builds(Truncation, _ints, _int),
        st.builds(Glued, st.builds(SemigroupRing, _ints), _int, _int),
        st.just(AbstractCI()),
    )
    if depth == 0:
        return leaves
    inner = _descriptors(depth - 1)
    return st.one_of(
        leaves,
        st.builds(PowerSeriesExt, inner),
        st.builds(ParameterPowerQuotient, inner, _int, _int),
        st.builds(UlrichPowerQuotient, inner, _ints, _int),
        st.builds(AbstractWithFiniteFlatCover, st.none() | inner, st.none() | inner),
    )


@settings(max_examples=300, deadline=None)
@given(_descriptors(3))
def test_parse_inverts_str(desc):
    assert parse_ring(str(desc)) == desc


def test_parse_tolerates_whitespace():
    assert parse_ring(" sgp( 3 , 4 ,5 ) ") == SemigroupRing((3, 4, 5))
    assert parse_ring("trunc(sgp(3,4,5), 3)") == Truncation((3, 4, 5), 3)


MALFORMED = [
    "",
    "   ",
    "sgp()",
    "sgp(0)",
    "sgp(-3,4)",
    "sgp(4,6)",          # gcd 2
    "sgp(?)",            # holes live only inside ffd(...)
    "trunc(sgp(3,4,5),2)",   # 2 is not a member
    "upow(sgp(3,4,5),(2),1)",
    "upow(sgp(3,4,5),(),1)",
    "qpow(sgp(2,3),0,1)",
    "glued(ci(),2,3)",
    "bogus(3)",
    "sgp(3,4,5) trailing",
    "sgp(3,4,5",
    "glued(sgp(2,3),0,4)",
    # integers longer than int() converts from text (4300 digits)
    pytest.param("sgp(" + "9" * 5000 + ",2)", id="sgp(long-int,2)"),
    pytest.param("trunc(sgp(3,4,5)," + "9" * 5000 + ")", id="trunc(sgp(3,4,5),long-int)"),
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_descriptors(text):
    with pytest.raises(MalformedDescriptor) as caught:
        certify(text)
    if not text.strip():
        assert str(caught.value) == "unexpected end of descriptor"
    with pytest.raises(MalformedDescriptor):
        certify(None)


@pytest.mark.parametrize("desc", [
    PowerSeriesExt(None),
    UlrichPowerQuotient(AbstractCI(), (), 1),
    Glued(AbstractCI(), 2, 3),
    # ring slots hold descriptors, never other values
    PowerSeriesExt(5),
    AbstractWithFiniteFlatCover(5, None),
    AbstractWithFiniteFlatCover(None, "sgp(3,4)"),
], ids=repr)
def test_malformed_descriptor_objects(desc):
    # built directly, past the parser: the validator alone must refuse them
    with pytest.raises(MalformedDescriptor):
        validate_descriptor(desc)
    with pytest.raises(MalformedDescriptor):
        certify(desc)


def test_nesting_limit():
    def nested(n):
        return "powser(" * n + "sgp(3,4,5)" + ")" * n

    def built(n):
        desc = SemigroupRing((3, 4, 5))
        for _ in range(n):
            desc = PowerSeriesExt(desc)
        return desc

    assert str(parse_ring(nested(MAX_NESTING))) == nested(MAX_NESTING)
    validate_descriptor(built(MAX_NESTING))
    for n in (MAX_NESTING + 1, 3000):
        with pytest.raises(MalformedDescriptor) as caught:
            parse_ring(nested(n))
        # built past the parser, the chain gets the parser's error, not a
        # RecursionError from the validator or the search
        with pytest.raises(MalformedDescriptor) as again:
            certify(built(n))
        assert str(again.value) == str(caught.value)


def test_nesting_limit_counts_no_hole():
    def around(n, desc):
        for _ in range(n):
            desc = PowerSeriesExt(desc)
        return desc

    # an ffd hole is no level: the validator and the parser agree on it
    holes = around(MAX_NESTING, AbstractWithFiniteFlatCover(None, None))
    validate_descriptor(holes)
    assert parse_ring(str(holes)) == holes
    inner = AbstractWithFiniteFlatCover(SemigroupRing((3, 4, 5)), None)
    fits = around(MAX_NESTING - 1, inner)
    validate_descriptor(fits)
    assert parse_ring(str(fits)) == fits
    # one more real level is refused by both
    for refuse in (validate_descriptor, lambda desc: parse_ring(str(desc))):
        with pytest.raises(MalformedDescriptor, match="nested deeper"):
            refuse(around(MAX_NESTING, inner))


def test_route_minimal_multiplicity():
    cert = certify("sgp(3,4,5)")
    assert (cert.verdict, cert.rule) == ("Certified", "R-MIN")
    assert all(p.status == "Verified" for p in cert.premises)
    ev = {k: v for p in cert.premises for k, v in (p.evidence or ())}
    H = NumericalSemigroup.from_generators([3, 4, 5])
    assert ev["e"] == H.multiplicity and ev["v"] == H.embedding_dim
    assert ev["colength"] == 1 and ev["q"] == 3


def test_route_radical_cube():
    cert = certify("sgp(4,5,6)")
    assert (cert.verdict, cert.rule) == ("Certified", "R-RAD3")
    statuses = sorted(p.status for p in cert.premises)
    assert statuses == ["Asserted", "Verified", "Verified"]
    ev = {k: v for p in cert.premises for k, v in (p.evidence or ())}
    assert ev["index"] == 3  # recomputed in test_artinian for this algebra


def test_route_hypersurface_cases():
    cert = certify("ci()")
    assert (cert.verdict, cert.rule) == ("Certified", "R-CI")
    assert cert.premises[0].status == "Asserted"
    c2 = certify("upow(sgp(3,4,5),(3,4,5),1)")
    assert (c2.verdict, c2.rule) == ("Certified", "R-CI")
    assert c2.premises[0].status == "Verified"


def test_route_modx_chains_to_truncation():
    cert = certify("trunc(sgp(8,11,12,14,18),11)")
    assert (cert.verdict, cert.rule) == ("Certified", "R-MODX")
    (child,) = cert.children
    assert child.rule == "R-RAD3"
    # the semigroup-ring goal reaches the same truncation rule directly
    top = certify("sgp(8,11,12,14,18)")
    assert (top.verdict, top.rule) == ("Certified", "R-RAD3")


def test_route_power_series():
    cert = certify("powser(sgp(3,4,5))")
    assert (cert.verdict, cert.rule) == ("Certified", "R-POW")
    assert cert.premises == ()
    (child,) = cert.children
    assert (child.goal, child.rule) == ("sgp(3,4,5)", "R-MIN")


def test_route_parameter_powers():
    good = certify("qpow(sgp(2,3),1,1)")
    assert (good.verdict, good.rule) == ("Certified", "R-QPOW")
    assert all(p.status == "Verified" for p in good.premises)
    # <3,4,5> is not gap symmetric, so the Gorenstein premise fails
    bad = certify("qpow(sgp(3,4,5),1,1)")
    assert (bad.verdict, bad.attempted) == ("Unknown", ("R-QPOW",))
    # abstract inner ring: Gorenstein is asserted, not verified
    ab = certify("qpow(ci(),2,3)")
    assert ab.verdict == "Certified"
    assert sorted(p.status for p in ab.premises) == ["Asserted", "Verified"]
    # over R/Q^l with l, n >= 2, Q^l is no longer generated by a regular
    # sequence, so the premise stays asserted
    kept = certify("qpow(qpow(powser(powser(sgp(2,3))),2,2),1,1)")
    assert kept.verdict == "Certified"
    assert [p.status for p in kept.premises].count("Asserted") == 1
    out_of_range = certify("qpow(sgp(2,3),5,3)")
    assert out_of_range.verdict == "Unknown"


@pytest.mark.parametrize("ring,twin", [
    ("qpow(powser(trunc(sgp(3,4,5),6)),1,1)", "qpow(powser(trunc(sgp(3,5),6)),1,1)"),
    ("qpow(glued(sgp(3,4,5),2,7),1,1)", "qpow(glued(sgp(3,5),2,9),1,1)"),
    ("qpow(powser(sgp(3,4,5)),1,2)", "qpow(powser(sgp(3,5)),1,2)"),
    ("qpow(qpow(powser(sgp(3,4,5)),1,1),1,1)", "qpow(qpow(powser(sgp(2,3)),1,1),1,1)"),
])
def test_qpow_checks_the_gorenstein_premise_it_can(ring, twin):
    # each inner ring is Gorenstein exactly when one numerical semigroup is
    # symmetric (t^q is regular on k[[H]] for trunc, and Q is generated by a
    # regular sequence for qpow(R,1,n)); <3,4,5> and <6,7,8,10> are not,
    # their twins <3,5>, <6,9,10> and <2,3> are
    refuted = certify(ring)
    assert (refuted.verdict, refuted.attempted) == ("Unknown", ("R-QPOW",))
    cert = certify(twin)
    assert (cert.verdict, cert.rule) == ("Certified", "R-QPOW")
    assert all(p.status == "Verified" for p in cert.premises)
    symmetric = [dict(p.evidence) for p in cert.premises if "gap symmetric" in p.statement]
    assert [e["gap_symmetric"] for e in symmetric] == [True]
    regular = [p for p in cert.premises if "non-zerodivisor" in p.statement]
    assert len(regular) == ("trunc(" in twin)


@pytest.mark.parametrize("refuted,held,depth", [
    ("qpow(sgp(2,3),2,3)", "qpow(sgp(2,3),1,1)", 1),
    ("qpow(glued(sgp(3,5),2,9),2,2)", "qpow(glued(sgp(3,5),2,9),1,1)", 1),
    ("qpow(trunc(sgp(2,3),4),1,1)", None, 0),
    ("qpow(powser(sgp(2,3)),3,3)", "qpow(powser(sgp(2,3)),2,2)", 2),
    ("qpow(powser(powser(trunc(sgp(2,3),4))),3,3)",
     "qpow(powser(powser(trunc(sgp(2,3),4))),1,2)", 2),
    ("qpow(upow(sgp(3,4,5),(3,4,5),1),1,2)", None, 0),
    ("qpow(qpow(sgp(2,3),1,1),1,1)", "qpow(qpow(powser(sgp(2,3)),1,1),1,1)", 1),
])
def test_qpow_checks_the_regular_sequence_against_depth(refuted, held, depth):
    # Q is generated by a regular sequence of length n, so n <= depth R:
    # 1 for k[[H]] and a gluing, 0 for the Artinian k[H]/(t^q) and
    # k[[H]]/I^p, one more per R[[T]], n less per R/Q^l.  Past it R-QPOW
    # fails; up to it the certificate says so
    cert = certify(refuted)
    assert (cert.verdict, cert.attempted) == ("Unknown", ("R-QPOW",))
    if held is not None:
        cert = certify(held)
        assert (cert.verdict, cert.rule) == ("Certified", "R-QPOW")
        (p_depth,) = [p for p in cert.premises if "depth R" in p.statement]
        assert p_depth.status == "Verified" and dict(p_depth.evidence)["depth"] == depth


def test_route_ulrich_powers():
    # R-UPOW runs upward only (R/I^l => R): certifying R/I^2 from R/I would
    # rest on "dim R >= 2", which is false for the 1-dimensional k[[H]]
    down = certify("upow(sgp(3,4,5),(3,4,5),2)")
    assert (down.verdict, down.rule, down.attempted) == ("Unknown", None, ("R-CI",))
    up = certify("sgp(3,4,5)", root_rules=["R-UPOW"])
    assert (up.verdict, up.rule) == ("Certified", "R-UPOW")
    (child,) = up.children
    assert (child.goal, child.rule) == ("upow(sgp(3,4,5),(3,4,5),1)", "R-CI")
    assert all(p.status == "Verified" for p in up.premises)


def test_route_finite_flat_cover():
    cert = certify("ffd(?,sgp(3,4,5))")
    assert (cert.verdict, cert.rule) == ("Certified", "R-FFD")
    assert cert.premises[0].status == "Asserted"
    assert cert.children[0].rule == "R-MIN"
    hole = certify("ffd(?,?)")
    assert (hole.verdict, hole.attempted) == ("Unknown", ("R-FFD",))


def test_route_gluing():
    cert = certify("glued(sgp(2,3),3,4)")
    assert (cert.verdict, cert.rule) == ("Certified", "R-GLUE")
    ev = dict(cert.premises[0].evidence)
    assert ev == {"m": 4, "n": 3, "result": [4, 6, 9]}
    assert cert.children[0].goal == "sgp(2,3)"
    # a structurally fine gluing whose preconditions fail stays Unknown
    bad = certify("glued(sgp(3,4,5),2,4)")
    assert bad.verdict == "Unknown"


def test_dual_routes_for_reference_ring():
    via_ideal = certify("sgp(8,11,12,14,18)", root_rules=["R-ULCI"])
    assert (via_ideal.verdict, via_ideal.rule) == ("Certified", "R-ULCI")
    ev = {k: v for p in via_ideal.premises for k, v in (p.evidence or ())}
    assert ev == {"colength": 2, "layer": 8, "mu": 4, "q": 8}
    via_glue = certify("sgp(8,11,12,14,18)", root_rules=["R-GLUE"])
    assert (via_glue.verdict, via_glue.rule) == ("Certified", "R-GLUE")
    assert via_glue.children[0].goal == "sgp(4,6,7,9)"
    assert via_ideal.citation != via_glue.citation


def test_unknown_is_reachable_and_terminates():
    # no rule applies to <6,7,11>; the mod-x rewrite would loop between the
    # ring and its truncation, so this also exercises the cycle guard
    cert = certify("sgp(6,7,11)")
    assert cert.verdict == "Unknown"
    assert cert.rule is None and cert.citation is None
    assert cert.attempted == (
        "R-CI", "R-MIN", "R-RAD3", "R-ULCI", "R-GLUE", "R-UPOW", "R-MODX"
    )


def test_depth_limit_and_stability():
    shallow = certify("glued(sgp(2,3),3,4)", depth=1)
    assert (shallow.verdict, shallow.attempted) == ("Unknown", ("R-GLUE",))
    for text in ROUND_TRIPS:
        assert certify(text, depth=8).to_json() == certify(text, depth=12).to_json()


def test_verify_premise_vocabulary():
    H = NumericalSemigroup.from_generators([8, 11, 12, 14, 18])
    ok, pr = verify_premise("ulrich", semigroup=H, ideal_gens=[8, 12, 14, 18])
    assert ok and pr.status == "Verified"
    assert dict(pr.evidence) == {"colength": 2, "layer": 8, "mu": 4, "q": 8}

    H345 = NumericalSemigroup.from_generators([3, 4, 5])
    ok, pr = verify_premise("min_mult", semigroup=H345)
    assert ok and dict(pr.evidence) == {"e": 3, "v": 3}
    ok, _ = verify_premise("min_mult", semigroup=H)
    assert not ok

    ok, pr = verify_premise("radical_index_le3", semigroup=H, q=8)
    assert ok and dict(pr.evidence)["index"] == 3

    ok, pr = verify_premise("gap_symmetric",
                            semigroup=NumericalSemigroup.from_generators([2, 3]))
    assert ok and dict(pr.evidence)["frobenius"] == 1
    ok, _ = verify_premise("gap_symmetric", semigroup=H345)
    assert not ok

    ok, pr = verify_premise("colength_le2", semigroup=H,
                            ideal_gens=[8, 12, 14, 18])
    assert ok and dict(pr.evidence) == {"colength": 2}

    ok, pr = verify_premise("emb_dim_le1", semigroup=H345, q=3)
    assert not ok and dict(pr.evidence) == {"embdim": 2}

    ok, pr = verify_premise(
        "glue_preconditions", inner_gens=[4, 6, 7, 9], n=2, m=11,
        expected=[8, 11, 12, 14, 18],
    )
    assert ok and dict(pr.evidence)["result"] == [8, 11, 12, 14, 18]
    ok, pr = verify_premise("glue_preconditions", inner_gens=[3, 4, 5], n=2, m=4)
    assert not ok and pr.status == "Asserted"  # rejected gluings carry no numbers
    # a glued semigroup past MAX_MULTIPLICITY is a rejected gluing
    ok, pr = verify_premise("glue_preconditions", inner_gens=[2, 3],
                            n=10**9, m=10**9 + 1)
    assert not ok and pr.statement.startswith("gluing rejected: multiplicity")

    with pytest.raises(UnknownPremiseKind):
        verify_premise("gorenstein", semigroup=H345)


def test_embedding_dimension_is_counted_past_the_dimension_cap():
    # the atoms of k[H]/(t^q) are counted without listing a basis, so R-CI
    # certifies a truncation of dimension q > MAX_DIMENSION; the radical
    # index lists the Apery set of q, so it is left unchecked there
    q = 1048583
    H = NumericalSemigroup.from_generators([3, q])
    ok, pr = verify_premise("emb_dim_le1", semigroup=H, q=q)
    assert (ok, pr.status, dict(pr.evidence)) == (True, "Verified", {"embdim": 1})
    ok, pr = verify_premise("radical_index_le3", semigroup=H, q=q)
    assert (ok, pr.status) == (False, "Asserted")
    assert pr.statement == (
        f"not checked: algebra dimension {q} is above the supported 1048576")
    cert = certify(f"trunc(sgp(3,{q}),{q})")
    assert (cert.verdict, cert.rule) == ("Certified", "R-CI")
    assert [dict(p.evidence) for p in cert.premises] == [{"embdim": 1}]


def walk(doc):
    yield doc
    for child in doc["children"]:
        yield from walk(child)


def test_json_schema_and_shape():
    docs = [json.loads(certify(t).to_json()) for t in ROUND_TRIPS]
    docs.append(json.loads(certify("sgp(6,7,11)").to_json()))
    for doc in docs:
        jsonschema.validate(doc, CERT_SCHEMA)
        assert doc["schema"] == "cert-v1"
        for node in walk(doc):
            assert ("schema" in node) == (node is doc)
            assert ("attempted" in node) == (node["verdict"] == "Unknown")
            if node["verdict"] == "Certified":
                assert node["rule"] in CITATIONS
                assert node["citation"] == {
                    "where": CITATIONS[node["rule"]].where,
                    "quote": CITATIONS[node["rule"]].quote,
                }
                for ch in node["children"]:
                    assert ch["verdict"] == "Certified"
            else:
                assert node["rule"] is None and node["citation"] is None
                assert node["premises"] == []
    # tampering breaks validation
    broken = json.loads(certify("sgp(3,4,5)").to_json())
    del broken["goal"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(broken, CERT_SCHEMA)
    extra = json.loads(certify("sgp(3,4,5)").to_json())
    extra["note"] = "x"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(extra, CERT_SCHEMA)


def test_json_is_deterministic():
    for text in ("sgp(8,11,12,14,18)", "glued(sgp(2,3),3,4)", "sgp(6,7,11)"):
        a = certify(text).to_json()
        b = certify(text).to_json()
        assert a == b
        assert a == json.dumps(json.loads(a), sort_keys=True, indent=2)


def test_render_smoke():
    text = certify("glued(sgp(2,3),3,4)").render()
    assert text.splitlines()[0] == "goal: glued(sgp(2,3),3,4)"
    assert "verdict: Certified" in text
    assert "R-GLUE" in text and "R-MIN" in text
    unknown = certify("qpow(sgp(3,4,5),1,1)").render()
    assert "attempted: R-QPOW" in unknown


def test_citation_fragments():
    assert "complete intersection" in CITATIONS["R-ULCI"].quote
    assert "(SAC)" in CITATIONS["R-GLUE"].quote
    assert sorted(CITATIONS) == [
        "R-CI", "R-FFD", "R-GLUE", "R-MIN", "R-MODX",
        "R-POW", "R-QPOW", "R-RAD3", "R-ULCI", "R-UPOW",
    ]
    wheres = [c.where for c in CITATIONS.values()]
    assert len(set(wheres)) == len(wheres)


# sha256 of the certificate JSON and render() over the corpus below; a
# refactor of the parser or the rule engine must keep every byte
CORPUS_SHA256 = "62e10c097df48980eb7a10fcda8e84ed10abbc3c4db6b0c20a44fd763b94cbf5"
DIGEST_CORPUS = ROUND_TRIPS + [
    "sgp(6,7,11)",
    "sgp(5,1001)",
    "glued(sgp(2,2001),3,4004)",
    "qpow(qpow(sgp(2,3),1,2),1,1)",
    "qpow(powser(sgp(2,3)),2,2)",
    "ffd(qpow(ci(),1,2),powser(sgp(2,3)))",
    "ffd(sgp(3,4,5),ffd(?,trunc(sgp(4,5,6),4)))",
    "powser(qpow(upow(sgp(3,4,5),(3,4,5),1),1,2))",
    "qpow(qpow(powser(sgp(2,3)),1,1),1,1)",
] + [
    "sgp(" + ",".join(map(str, gens)) + ")"
    for k in (2, 3)
    for gens in combinations(range(3, 13), k)
    if gcd(*gens) == 1
]


def test_certificate_bytes_are_frozen():
    digest = hashlib.sha256()
    for text in DIGEST_CORPUS:
        for rule in (None, "R-ULCI", "R-GLUE", "R-UPOW", "R-MODX"):
            for depth in (3, 8):
                cert = certify(text, depth=depth,
                               root_rules=None if rule is None else [rule])
                digest.update(
                    f"{text} {rule} {depth}\n{cert.to_json()}\n"
                    f"{cert.render()}\n".encode()
                )
    assert digest.hexdigest() == CORPUS_SHA256


def test_wide_two_generator_ring_is_pinned():
    # certify sgp(10007,10009) reads the invariants of two quotients of
    # dimension about 10^4 off the Apery set, without building them; the
    # algebras' invariants and the certificate bytes are those of the
    # O(dim^2) scans that the atom-based invariants replaced
    H = NumericalSemigroup.from_generators([10007, 10009])
    trunc = truncation_algebra(H, 10007)
    assert (trunc.radical_index(), trunc.embedding_dim()) == (10007, 1)
    quot = quotient_algebra(SemigroupIdeal.from_generators(H, [10009]))
    assert quot.embedding_dim() == 1
    cert = certify("sgp(10007,10009)")
    digest = hashlib.sha256(f"{cert.to_json()}\n{cert.render()}\n".encode())
    assert digest.hexdigest() == (
        "6fd1b30e4ddb0da3aa15fa979f460542c423f86a611486115b710f8796037165"
    )


def test_each_semigroup_is_built_once_per_certify_call(monkeypatch):
    # the validator, the rules and the premises of one call share one build
    # of each generator set; at multiplicity 10^6 a build is an Apery run of
    # about a second
    built = []
    original = NumericalSemigroup.from_generators.__func__

    def counting(cls, gens):
        gens = tuple(gens)
        built.append(tuple(sorted(set(gens))))
        return original(cls, gens)

    monkeypatch.setattr(NumericalSemigroup, "from_generators", classmethod(counting))
    for text, rules in (
        ("trunc(sgp(3,4,5),6)", None),
        ("trunc(sgp(3,4,5),6)", ["R-MODX"]),
        ("sgp(8,10,12,13)", None),  # R-GLUE on a semigroup ring
        ("glued(sgp(2,3),2,9)", None),
        ("upow(sgp(3,4,5),(3,4,5),2)", None),
        ("qpow(sgp(2,3),2,3)", None),
        ("sgp(6,10,15)", None),
    ):
        built.clear()
        certify(text, root_rules=rules)
        assert built and len(built) == len(set(built)), (text, rules, built)
    # the memo lives on the search of one call
    built.clear()
    certify("sgp(3,4,5)")
    certify("sgp(3,4,5)")
    assert built == [(3, 4, 5), (3, 4, 5)]
