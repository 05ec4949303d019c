"""Certificate engine: parser, premises, rule routes, JSON schema.

Route expectations were frozen from engine runs after checking each one
against the underlying arithmetic by hand (see the premise evidence
assertions: every number in them is recomputed by the library calls
used here, not trusted from the engine).
"""

import hashlib
import json
import sys
import time
import tracemalloc
from itertools import combinations, product
from math import gcd

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

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
    _glue_decompositions,
    _Search,
)
from sackit.errors import MalformedDescriptor, SackitError
from sackit.semigroup import MAX_MULTIPLICITY

from cli_runner import invoke
from test_artinian import radical_index
from test_semigroup import first_members


def cert_json(cert):
    """The JSON that `sackit certify --json` prints for ``cert``, less the
    final newline: cli.main's one json.dumps call."""
    return json.dumps(cert.to_json_dict(), sort_keys=True, indent=2)


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


def _descriptors(depth, ints=_ints, int_=_int, junk=st.nothing()):
    """Descriptor trees over every variant, nested up to `depth` rings deep;
    parse_ring does not validate, so the numbers need not make sense.  A
    value drawn from junk may stand in any field."""
    sgp = st.builds(SemigroupRing, ints | junk)
    leaves = st.one_of(
        sgp,
        st.builds(Truncation, ints | junk, int_ | junk),
        st.builds(Glued, sgp | junk, int_ | junk, int_ | junk),
        st.just(AbstractCI()),
    )
    if depth == 0:
        return leaves
    inner = _descriptors(depth - 1, ints, int_, junk) | junk
    return st.one_of(
        leaves,
        st.builds(PowerSeriesExt, inner),
        st.builds(ParameterPowerQuotient, inner, int_ | junk, int_ | junk),
        st.builds(UlrichPowerQuotient, inner, ints | junk, int_ | junk),
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
    # gcd(2, 4) = 2, so 2*H + <4> is no numerical semigroup, as sgp(4,6) is not
    "ffd(glued(sgp(3,4,5),2,4),sgp(2,3))",
    "ffd(powser(glued(sgp(3,4,5),2,4)),powser(sgp(2,3)))",
    # 4 is a minimal generator of <3,4,5> and 2 no member, so these are no
    # gluings, though no R-GLUE runs on the R of an ffd
    "glued(sgp(3,4,5),5,4)",
    "ffd(glued(sgp(3,4,5),5,4),sgp(2,3))",
    "qpow(ffd(glued(sgp(3,4,5),5,4),sgp(2,3)),1,1)",
    "glued(sgp(3,4,5),5,2)",
    # n = 1 is the minimal generator of <1>: 1*H + <4> is H, and 4 no generator
    "glued(sgp(2,3),1,4)",
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
    # integer slots hold ints, as the parser makes them: no float, bool,
    # string or list, and a gens slot no ring
    SemigroupRing((3.5, 4)),
    SemigroupRing("34"),
    SemigroupRing([3, 4, 5]),
    Glued(SemigroupRing((2, 3)), True, 5),
    ParameterPowerQuotient(SemigroupRing((2, 3)), True, True),
    Truncation(AbstractCI(), 3),
    UlrichPowerQuotient(SemigroupRing((3, 4, 5)), (3.0,), 1),
    # nor a negative one, which the parser never reads
    UlrichPowerQuotient(AbstractCI(), (-1,), 1),
    # nor one too long to print, which the parser refuses to read
    pytest.param(UlrichPowerQuotient(AbstractCI(), (10**5000,), 1),
                 id="UlrichPowerQuotient(AbstractCI(), (10**5000,), 1)"),
    pytest.param(ParameterPowerQuotient(AbstractCI(), 10**5000, 1),
                 id="ParameterPowerQuotient(AbstractCI(), 10**5000, 1)"),
    # a ring whose text parses back to it but that names no ring, as t^2 is
    # no member of k[[<3,4,5>]]; inside an ffd's R no rule would see that
    Truncation((3, 4, 5), 2),
    AbstractWithFiniteFlatCover(Truncation((3, 4, 5), 2), SemigroupRing((2, 3))),
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
    # R/Q^l with l, n >= 2 is never Gorenstein (its socle has dimension at
    # least n), so the premise is refuted, not asserted
    refuted = certify("qpow(qpow(powser(powser(sgp(2,3))),2,2),1,1)")
    assert (refuted.verdict, refuted.attempted) == ("Unknown", ("R-QPOW",))
    out_of_range = certify("qpow(sgp(2,3),5,3)")
    assert out_of_range.verdict == "Unknown"


@pytest.mark.parametrize("ring,twin", [
    ("qpow(powser(trunc(sgp(3,4,5),6)),1,1)", "qpow(powser(trunc(sgp(3,5),6)),1,1)"),
    ("qpow(glued(sgp(3,4,5),2,7),1,1)", "qpow(glued(sgp(3,5),2,9),1,1)"),
    ("qpow(powser(sgp(3,4,5)),1,2)", "qpow(powser(sgp(3,5)),1,2)"),
    ("qpow(qpow(powser(sgp(3,4,5)),1,1),1,1)", "qpow(qpow(powser(sgp(2,3)),1,1),1,1)"),
    ("qpow(qpow(powser(powser(sgp(2,3))),2,2),1,1)",
     "qpow(qpow(powser(powser(sgp(2,3))),1,2),1,1)"),
])
def test_qpow_checks_the_gorenstein_premise_it_can(ring, twin):
    # each inner ring is Gorenstein exactly when one numerical semigroup is
    # symmetric (t^q is regular on k[[H]] for trunc, and Q is generated by a
    # regular sequence for qpow(R,1,n)); <3,4,5> and <6,7,8,10> are not,
    # their twins <3,5>, <6,9,10> and <2,3> are.  R/Q^l with l, n >= 2 is
    # never Gorenstein, even over the symmetric <2,3>
    refuted = certify(ring)
    assert (refuted.verdict, refuted.attempted) == ("Unknown", ("R-QPOW",))
    cert = certify(twin)
    assert (cert.verdict, cert.rule) == ("Certified", "R-QPOW")
    assert all(p.status == "Verified" for p in cert.premises)
    symmetric = [dict(p.evidence) for p in cert.premises if "gap symmetric" in p.statement]
    assert [e["gap_symmetric"] for e in symmetric] == [True]
    regular = [p for p in cert.premises if "non-zerodivisor" in p.statement]
    assert len(regular) == ("trunc(" in twin)


def test_a_gluing_past_the_multiplicity_cap_gives_no_gorenstein_premise():
    # check() checks the gluing, not its multiplicity: 1048576*<2,3> + <1048577>
    # is past MAX_MULTIPLICITY, so Glued.gorenstein cannot decide and R-QPOW
    # fails, while the same shape with a small gluing is Certified
    assert 2 * 1048576 > MAX_MULTIPLICITY
    cert = certify("qpow(ffd(glued(sgp(2,3),1048576,1048577),sgp(2,3)),1,1)")
    assert (cert.verdict, cert.attempted) == ("Unknown", ("R-QPOW",))
    cert = certify("qpow(ffd(glued(sgp(2,3),5,7),sgp(2,3)),1,1)")
    assert (cert.verdict, cert.rule) == ("Certified", "R-QPOW")


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


SMALL_SGPS = [
    gens for k in (2, 3) for gens in combinations(range(2, 9), k)
    if gcd(*gens) == 1 and NumericalSemigroup.from_generators(gens).generators == gens
]


_scalars = st.one_of(
    st.integers(-2, 12), st.booleans(), st.floats(-2, 12), st.text(max_size=3), st.none(),
    st.just(10**5000),  # past the 4300 digits that int() and str() convert
)
_junk = _scalars | st.lists(_scalars, max_size=3) | st.lists(_scalars, max_size=3).map(tuple)
_some_ints = st.sampled_from(SMALL_SGPS) | st.lists(
    st.integers(-1, 12), min_size=1, max_size=4).map(tuple)


@settings(max_examples=500, deadline=None)
@given(_descriptors(3, _some_ints, st.integers(-1, 4))
       | _descriptors(3, _some_ints, st.integers(-1, 4), _junk))
def test_a_valid_descriptor_is_one_the_parser_makes(desc):
    # built directly with any field values, a descriptor the validator
    # passes prints as text that parses back to it
    try:
        validate_descriptor(desc)
    except MalformedDescriptor:
        return
    assert parse_ring(str(desc)) == desc


def sgp_text(gens):
    return "sgp(" + ",".join(map(str, gens)) + ")"


def symmetric(gens):
    # x in H exactly when F - x is not, for 0 <= x <= F
    H = NumericalSemigroup.from_generators(gens)
    return all(H.contains(x) != H.contains(H.frobenius - x) for x in range(H.frobenius + 1))


@pytest.mark.parametrize("ring", [
    "qpow(ffd(sgp(3,4,5),sgp(2,3)),1,1)",   # <3,4,5> is not symmetric
    "qpow(ffd(sgp(3,4,5),sgp(2,3)),2,5)",   # 5 > depth k[[H]] = 1
    "ffd(trunc(sgp(3,4,5),3),sgp(2,3))",    # depth S = 1 > depth R = 0
    "ffd(sgp(2,3),powser(sgp(2,3)))",       # depth S = 2 > depth R = 1
])
def test_ffd_answers_for_its_ring(ring):
    # ffd(R, S) stands for R: R-QPOW reads R's depth and Gorenstein premises,
    # not an assertion, and R-FFD refuses depth S > depth R, since fd_R S is
    # finite and S is module-finite (Auslander-Buchsbaum)
    cert = certify(ring)
    assert cert.verdict == "Unknown", cert.render()


def test_ffd_states_the_depths_it_compares():
    # two semigroup rings of one depth keep the asserted cover premise (the
    # grammar carries no structure map), and the certificate states both depths
    cert = certify("ffd(sgp(3,4,5),sgp(2,3))")
    assert (cert.verdict, cert.rule) == ("Certified", "R-FFD")
    assert [p.status for p in cert.premises] == ["Asserted", "Verified"]
    assert cert.premises[1].statement == "depth S=1 <= depth R=1"
    assert dict(cert.premises[1].evidence) == {"depth_R": 1, "depth_S": 1}
    # R-QPOW over it reads k[[<2,3>]]: symmetric, of depth 1
    cert = certify("qpow(ffd(sgp(2,3),trunc(sgp(3,5),3)),1,1)")
    assert (cert.verdict, cert.rule) == ("Certified", "R-QPOW")
    assert all(p.status == "Verified" for p in cert.premises)
    (child,) = cert.children
    assert child.premises[1].statement == "depth S=0 <= depth R=1"


def test_no_artinian_ring_has_a_semigroup_ring_as_finite_flat_cover():
    # k[H]/(t^m) has depth 0 and k[[H']] depth 1, for all 24 x 24 pairs
    assert len(SMALL_SGPS) == 24
    for gens, cover in product(SMALL_SGPS, repeat=2):
        ring = f"ffd(trunc({sgp_text(gens)},{gens[0]}),{sgp_text(cover)})"
        cert = certify(ring)
        assert (cert.verdict, cert.attempted) == ("Unknown", ("R-FFD",)), ring


def test_qpow_over_ffd_reads_the_ring_not_the_cover():
    # the cover <2,3> is symmetric; the ring decides, and so exactly the 7
    # non-symmetric H of the 24 end Unknown; a regular sequence of length
    # n >= 2 is longer than depth k[[H]] = 1 for all 24
    unknown = []
    for gens in SMALL_SGPS:
        ring = f"ffd({sgp_text(gens)},sgp(2,3))"
        cert = certify(f"qpow({ring},1,1)")
        if cert.verdict == "Unknown":
            unknown.append(gens)
        else:
            assert all(p.status == "Verified" for p in cert.premises), gens
        for power, n in ((1, 2), (2, 2), (1, 3), (3, 3)):
            assert certify(f"qpow({ring},{power},{n})").verdict == "Unknown", (gens, n)
    assert unknown == [gens for gens in SMALL_SGPS if not symmetric(gens)]
    assert len(unknown) == 7


@settings(max_examples=300, deadline=None)
@given(_descriptors(3, st.sampled_from(SMALL_SGPS), st.integers(1, 3)))
@example(Glued(SemigroupRing((2, 3)), 1, 4))  # 1*H + <4> is H, no gluing
def test_no_certificate_rests_on_a_premise_its_rings_refute(desc):
    # at every Certified R-QPOW node the regular sequence fits in depth R and
    # R is not refuted Gorenstein; at every R-FFD node depth S <= depth R; at
    # every R-GLUE node n >= 2 and m is a minimal generator of the gluing.
    # Small numbers, so that most trees validate
    try:
        cert = certify(desc)
    except MalformedDescriptor:
        return
    search = _Search()
    nodes = [cert] if cert.verdict == "Certified" else []
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children)
        ring = parse_ring(node.goal)
        if node.rule == "R-QPOW":
            ring_depth = ring.inner.depth()
            assert ring_depth is None or ring.regseq_len <= ring_depth, node.goal
            assert ring.inner.gorenstein(search) is not None, node.goal
        elif node.rule == "R-FFD":
            ring_depth, cover_depth = ring.depth(), ring.cover.depth()
            assert None in (ring_depth, cover_depth) or cover_depth <= ring_depth, node.goal
        elif node.rule == "R-GLUE":
            glue = dict(node.premises[0].evidence)
            assert glue["n"] >= 2 and glue["m"] in glue["result"], node.goal


def test_route_gluing():
    cert = certify("glued(sgp(2,3),3,4)")
    assert (cert.verdict, cert.rule) == ("Certified", "R-GLUE")
    ev = dict(cert.premises[0].evidence)
    assert ev == {"m": 4, "n": 3, "result": [4, 6, 9]}
    assert cert.children[0].goal == "sgp(2,3)"


def test_glue_candidates_match_the_divisor_loop():
    # n*H' + <m> = H needs n to divide every generator but m, and H' to have
    # gcd 1; the oracle tries every n in 2..max(gens) and keeps those, for
    # every semigroup with 2-5 minimal generators in 2..20
    def divisor_loop(gens):
        for n in range(2, max(gens) + 1):
            divisible = tuple(g // n for g in gens if g % n == 0)
            rest = tuple(g for g in gens if g % n != 0)
            if len(rest) == 1 and divisible and gcd(*divisible) == 1:
                yield divisible, n, rest[0]

    several = valid = 0
    for size in range(2, 6):
        for gens in combinations(range(2, 21), size):
            if gcd(*gens) != 1:
                continue
            H = NumericalSemigroup.from_generators(gens)
            if H.generators != gens:
                continue
            found = list(_glue_decompositions(H))
            assert found == list(divisor_loop(gens)), gens
            several += len(found) > 1
            # so R-GLUE needs no guard: each inner semigroup builds from its
            # minimal generators, and a valid gluing gives back exactly H's
            for inner, n, m in found:
                inner_H = NumericalSemigroup.from_generators(inner)
                assert inner_H.generators == inner, (gens, n)
                try:
                    glued = inner_H.glue_generators(n, m)
                except SackitError:  # m no member, or a generator: rejected
                    continue
                assert glued == H.generators, (gens, n)
                valid += 1
    assert several > 100  # the order of the candidates is compared too
    assert valid > 100


SGP_RULES = ("R-CI", "R-MIN", "R-RAD3", "R-ULCI", "R-GLUE", "R-UPOW", "R-MODX")


def test_a_verdict_does_not_depend_on_the_spelling():
    # one semigroup written ascending, descending and with a redundant
    # generator is one ring, so every wrapper and root rule gives it one
    # (verdict, rule); for an odd generator g, 3g is an odd member and no
    # minimal generator, so glued(., 2, 3g) is a valid gluing
    cases = 0
    for size in (2, 3, 4):
        for gens in combinations(range(2, 13), size):
            if gcd(*gens) != 1 or NumericalSemigroup.from_generators(gens).generators != gens:
                continue
            odd = 3 * next(g for g in gens if g % 2)
            spellings = (gens, gens[::-1], gens + (gens[0] + gens[1],))
            for wrap in ("{}", "powser({})", f"glued({{}},2,{odd})"):
                for rule in (None, *SGP_RULES):
                    seen = set()
                    for spelled in spellings:
                        ring = wrap.format("sgp(" + ",".join(map(str, spelled)) + ")")
                        cert = certify(ring, root_rules=None if rule is None else [rule])
                        seen.add((cert.verdict, cert.rule))
                    assert len(seen) == 1, (gens, wrap, rule, seen)
                    cases += 1
    assert cases == 131 * 3 * 8


def test_a_gluing_whose_inner_semigroup_is_past_the_cap_is_rejected():
    # <5, 2x, 2x + 2> is 2*<x, x + 1> + <5>, whose inner multiplicity x is
    # above MAX_MULTIPLICITY: R-GLUE rejects that candidate instead of failing
    x = MAX_MULTIPLICITY + 1
    cert = certify(f"sgp(5,{2 * x},{2 * x + 2})", root_rules=["R-GLUE"])
    assert (cert.verdict, cert.attempted) == ("Unknown", ("R-GLUE",))
    ok, pr = verify_premise("glue_preconditions", inner_gens=[x, x + 1], n=2, m=5)
    assert not ok and pr.statement.startswith("gluing rejected: multiplicity")


def test_dual_routes_for_reference_ring():
    via_ideal = certify("sgp(8,11,12,14,18)", root_rules=["R-ULCI"])
    assert (via_ideal.verdict, via_ideal.rule) == ("Certified", "R-ULCI")
    ev = {k: v for p in via_ideal.premises for k, v in (p.evidence or ())}
    assert ev == {"colength": 2, "embdim": 1, "layer": 8, "mu": 4, "q": 8}
    via_glue = certify("sgp(8,11,12,14,18)", root_rules=["R-GLUE"])
    assert (via_glue.verdict, via_glue.rule) == ("Certified", "R-GLUE")
    assert via_glue.children[0].goal == "sgp(4,6,7,9)"
    assert via_ideal.citation != via_glue.citation


def test_unknown_is_reachable_and_terminates():
    # no rule of the default order applies to <6,7,11>
    cert = certify("sgp(6,7,11)")
    assert cert.verdict == "Unknown"
    assert cert.rule is None and cert.citation is None
    assert cert.attempted == ("R-CI", "R-MIN", "R-RAD3", "R-ULCI", "R-GLUE")


def test_the_cycle_guard_stops_a_circular_root_modx_proof():
    # a root R-MODX reaches sgp(5,6,9) again through its truncation; that
    # grandchild is the goal itself, so it must not count as a proof
    assert certify("sgp(5,6,9)").rule == "R-ULCI"
    cert = certify("sgp(5,6,9)", root_rules=["R-MODX"])
    assert (cert.verdict, cert.attempted) == ("Unknown", ("R-MODX",))


def test_root_only_rules_certify_nothing_the_default_order_misses():
    # R-UPOW and R-MODX leave the default order of a semigroup ring because
    # R-ULCI and R-RAD3 certify every ring they do; the default search
    # certifies every ring that some root rule does
    rings = [
        "sgp(" + ",".join(map(str, gens)) + ")"
        for k in (2, 3, 4)
        for gens in combinations(range(3, 13), k)
        if gcd(*gens) == 1
        and NumericalSemigroup.from_generators(gens).generators == gens
    ]
    upow = modx = 0
    for ring in rings:
        by = {rule for rule in SGP_RULES
              if certify(ring, root_rules=[rule]).verdict == "Certified"}
        if "R-UPOW" in by:
            upow += 1
            assert "R-ULCI" in by, ring
        if "R-MODX" in by:
            modx += 1
            assert by & {"R-RAD3", "R-ULCI"}, ring
        assert (certify(ring).verdict == "Certified") == bool(by), ring
    assert upow and modx  # both rules certify some ring on their own


def test_depth_limit_and_stability():
    # the child that R-GLUE needs runs out of depth
    shallow = certify("glued(sgp(2,3),3,4)", depth=1)
    assert (shallow.verdict, shallow.attempted) == ("Unknown", ("R-GLUE",))
    # a root depth below 1 would search nothing, so it is an error
    for depth in (0, -1):
        with pytest.raises(SackitError, match=f"^depth must be >= 1, got {depth}$"):
            certify("sgp(3,4,5)", depth=depth)
    for text in ROUND_TRIPS:
        assert cert_json(certify(text, depth=8)) == cert_json(certify(text, depth=12))


def test_r_min_premises_hold_wherever_min_mult_does():
    # R-MIN keeps the Ulrich and colength premises on the maximal ideal M
    # without testing them: M + M = m + M once min_mult holds.  Checked over
    # every H of minimal multiplicity m <= 8 whose Apery set of m lies below 4m
    seen = 0
    for m in range(1, 9):
        for steps in product((1, 2, 3), repeat=m - 1):
            H = NumericalSemigroup.from_generators(
                [m] + [r + k * m for r, k in enumerate(steps, 1)])
            if not verify_premise("min_mult", semigroup=H)[0]:
                continue
            seen += 1
            for kind in ("ulrich", "colength_le2"):
                ok, pr = verify_premise(kind, semigroup=H, ideal_gens=H.generators)
                assert ok and pr.status == "Verified", (H, kind)
    assert seen == 512


def test_verify_premise_vocabulary():
    H = NumericalSemigroup.from_generators([8, 11, 12, 14, 18])
    ok, pr = verify_premise("ulrich", semigroup=H, ideal_gens=[8, 12, 14, 18])
    assert ok and pr.status == "Verified"
    assert dict(pr.evidence) == {"colength": 2, "layer": 8, "mu": 4, "q": 8}
    ok, pr = verify_premise("ulrich", semigroup=H, ideal_gens=(0,))
    assert (ok, pr.statement, pr.status) == (False, "no stable reduction found", "Asserted")

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

    ok, pr = verify_premise("glue_preconditions", inner_gens=[4, 6, 7, 9], n=2, m=11)
    assert ok and dict(pr.evidence)["result"] == [8, 11, 12, 14, 18]
    ok, pr = verify_premise("glue_preconditions", inner_gens=[3, 4, 5], n=2, m=4)
    assert not ok and pr.status == "Asserted"  # rejected gluings carry no numbers
    # a glued semigroup past MAX_MULTIPLICITY is a rejected gluing
    ok, pr = verify_premise("glue_preconditions", inner_gens=[2, 3],
                            n=10**9, m=10**9 + 1)
    assert not ok and pr.statement.startswith("gluing rejected: multiplicity")

    with pytest.raises(SackitError, match="^gorenstein$"):
        verify_premise("gorenstein", semigroup=H345)


def test_embedding_dimension_is_counted_past_the_dimension_cap():
    # the atoms of k[H]/(t^q) are counted without listing a basis, so R-CI
    # certifies a truncation of dimension q > MAX_DIMENSION; the radical
    # index is decided from sums of atoms, so it is checked there too
    q = 1048583
    H = NumericalSemigroup.from_generators([3, q])
    ok, pr = verify_premise("emb_dim_le1", semigroup=H, q=q)
    assert (ok, pr.status, dict(pr.evidence)) == (True, "Verified", {"embdim": 1})
    ok, pr = verify_premise("radical_index_le3", semigroup=H, q=q)
    assert (ok, pr.status) == (False, "Verified")
    assert dict(pr.evidence) == {"q": q, "witness": (3, 3, 3)}
    cert = certify(f"trunc(sgp(3,{q}),{q})")
    assert (cert.verdict, cert.rule) == ("Certified", "R-CI")
    assert [dict(p.evidence) for p in cert.premises] == [{"embdim": 1}]


def test_upow_atoms_match_the_power_oracle():
    # R-CI over k[H]/I^p reads the atoms off I's generators; the oracle builds
    # I^p by SemigroupIdeal.power: every semigroup on at most 3 generators in
    # 1..11, the zero ideal and the ideals on 1 or 2 of H's 8 least members
    # (0 among them, so the unit ideal too), and p in 1..3
    seen, tried = set(), 0
    for size in (1, 2, 3):
        for gens in combinations(range(1, 12), size):
            H = NumericalSemigroup.from_generators(gens) if gcd(*gens) == 1 else None
            if H is None or H in seen:
                continue
            seen.add(H)
            least = first_members(H, 8)
            for ideal in [(), *combinations(least, 1), *combinations(least, 2)]:
                for p in (1, 2, 3):
                    power = SemigroupIdeal.from_generators(H, ideal).power(p)
                    want = sum(not power.member(g) for g in H.generators)
                    ok, pr = verify_premise("emb_dim_le1", semigroup=H, ideal_gens=ideal,
                                            power=p)
                    assert (ok, dict(pr.evidence)) == (want <= 1, {"embdim": want}), (
                        gens, ideal, p)
                    tried += 1
    assert tried == 8547, tried


def test_upow_premise_builds_no_ideal_power(monkeypatch):
    # with power and product made to fail, R-CI still decides k[H]/I^p: at
    # p = 65536 over <10007,10009> the repeated squaring took over a minute
    rings = ["upow(sgp(10007,10009),(10007,10009),65536)",
             *(text for text in DIGEST_CORPUS if "upow(" in text)]
    assert len(rings) == 3
    before = [cert_json(certify(text)) for text in rings[1:]]

    def refuse(*args):
        raise AssertionError("no ideal power is built")

    monkeypatch.setattr(SemigroupIdeal, "power", refuse)
    monkeypatch.setattr(SemigroupIdeal, "product", refuse)
    cert = certify(rings[0])
    assert (cert.verdict, cert.attempted) == ("Unknown", ("R-CI",))
    assert [cert_json(certify(text)) for text in rings[1:]] == before


def test_upow_premise_refuses_a_power_below_one():
    # the membership checks come first, then the exponent, as when the
    # premise built I^p by SemigroupIdeal.power
    H = NumericalSemigroup.from_generators([3, 4, 5])
    for p in (0, -2):
        with pytest.raises(SackitError, match=rf"^power wants exponent >= 1, got {p}$"):
            verify_premise("emb_dim_le1", semigroup=H, ideal_gens=(3, 4, 5), power=p)
        with pytest.raises(SackitError, match="^2 is not a member of <3,4,5>$"):
            verify_premise("emb_dim_le1", semigroup=H, ideal_gens=(2,), power=p)


def test_radical_index_of_a_wide_truncation():
    # <m, m+1, m+3, ..., 2m-1> at q = m has e = m - 1 atoms: 2(m+1) - m = m + 2
    # is a gap, and every sum of three atoms is at least 3m + 3; sums outside
    # q + H are kept one per degree, so this takes about m*e membership tests,
    # where every triple of atoms (about e^3/6, 2*10^7 here) takes seconds
    m = 500
    H = NumericalSemigroup.from_generators([m, m + 1, *range(m + 3, 2 * m)])
    assert H.embedding_dim == m - 1
    start = time.perf_counter()
    ok, pr = verify_premise("radical_index_le3", semigroup=H, q=m)
    assert time.perf_counter() - start < 1.0
    assert (ok, pr.status, dict(pr.evidence)) == (True, "Verified", {"index": 3, "q": m})
    # at q = 4m every sum of at most three atoms is below q: the pairs fill
    # about 2m degrees, and the first triple found is the witness
    start = time.perf_counter()
    ok, pr = verify_premise("radical_index_le3", semigroup=H, q=4 * m)
    assert time.perf_counter() - start < 1.0
    assert (ok, dict(pr.evidence)) == (False, {"q": 4 * m, "witness": (m, m, m)})


def test_an_unstable_ideal_builds_no_table():
    # the maximal ideal of <20011, 20021> fails the stability test, which
    # reads membership off the generators (x - g in H); so the premise builds
    # no residue table, which would take about 40 bytes per class here (about
    # 800 KB)
    H = NumericalSemigroup.from_generators([20011, 20021])
    tracemalloc.start()
    try:
        ok, pr = verify_premise("ulrich", semigroup=H, ideal_gens=H.generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ok, pr.status) == (False, "Asserted")
    assert peak < 64 * 1024, peak


def test_r_min_verifies_the_witness_it_knows():
    # minimal multiplicity gives M + M = m + M, so R-MIN passes the witness m
    # to is_ulrich: its premise is the searched one, and it holds
    seen = set()
    for size in range(3, 7):
        for gens in combinations(range(3, 13), size):
            if gcd(*gens) != 1:
                continue
            H = NumericalSemigroup.from_generators(gens)
            if H in seen or not H.has_minimal_multiplicity():
                continue
            seen.add(H)
            searched = verify_premise("ulrich", semigroup=H, ideal_gens=H.generators)
            ok, witnessed = verify_premise("ulrich", semigroup=H, ideal_gens=H.generators,
                                           q=H.multiplicity)
            cert = certify(f"sgp({H})", root_rules=("R-MIN",))
            assert cert.rule == "R-MIN" and cert.premises[1] == witnessed, H
            assert (ok, witnessed) == searched, H
    assert len(seen) == 15, len(seen)


def test_r_min_searches_no_reduction(monkeypatch):
    want = cert_json(certify("sgp(3,4,5)"))

    def refuse(ideal):
        raise AssertionError("search_reduction was called")

    monkeypatch.setattr(sys.modules["sackit.certify"], "search_reduction", refuse)
    cert = certify("sgp(3,4,5)")
    assert cert.rule == "R-MIN" and cert_json(cert) == want


def walk(doc):
    yield doc
    for child in doc["children"]:
        yield from walk(child)


def test_json_schema_and_shape():
    docs = [json.loads(cert_json(certify(t))) for t in ROUND_TRIPS]
    docs.append(json.loads(cert_json(certify("sgp(6,7,11)"))))
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
    broken = json.loads(cert_json(certify("sgp(3,4,5)")))
    del broken["goal"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(broken, CERT_SCHEMA)
    extra = json.loads(cert_json(certify("sgp(3,4,5)")))
    extra["note"] = "x"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(extra, CERT_SCHEMA)


def test_json_is_deterministic():
    for text in ("sgp(8,11,12,14,18)", "glued(sgp(2,3),3,4)", "sgp(6,7,11)"):
        a = cert_json(certify(text))
        assert a == cert_json(certify(text))
        assert invoke(["certify", "--ring", text, "--json"]).output == a + "\n"


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
CORPUS_SHA256 = "09315174c5d6975275d49cf6a1fc6693018b0b730851f9ce87bac62274ef0a90"
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
                    f"{text} {rule} {depth}\n{cert_json(cert)}\n"
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
    assert (radical_index(trunc), trunc.embedding_dim()) == (10007, 1)
    quot = quotient_algebra(SemigroupIdeal.from_generators(H, [10009]))
    assert quot.embedding_dim() == 1
    cert = certify("sgp(10007,10009)")
    digest = hashlib.sha256(f"{cert_json(cert)}\n{cert.render()}\n".encode())
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
