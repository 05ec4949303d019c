"""Rule based certificates for the symmetric Auslander condition (SAC).

A certificate is a finite proof tree: the root names a ring by a structured
descriptor, each node applies one sufficiency rule and cites the theorem it
rests on, and every premise is either Verified (recomputed here, with the raw
numbers embedded as evidence) or Asserted (an explicit hypothesis this toolkit
cannot check, e.g. a Krull dimension bound or an external structure theorem).
Verified premises read only the semigroup and its ideals, so no algebra is
built: an Artinian quotient's radical index is a longest atom chain over the
Apery set, and its embedding dimension counts its atoms.

Verdicts are Certified or Unknown, never "fails": the rule set consists of
sufficient conditions only, so the absence of a derivation proves nothing.
Unknown nodes carry the trace of attempted rules.

The search is backward chaining over a fixed, per variant rule order, with
memoization keyed by (descriptor, remaining depth) and a stack guard that
fails cyclic derivations.  Everything is deterministic: repeated runs emit
byte identical JSON.
"""

from __future__ import annotations

import re

from ._record import Record
from .errors import (
    MalformedDescriptor,
    SackitError,
    TooLarge,
    UnknownPremiseKind,
)
from .ideals import SemigroupIdeal, is_ulrich, search_reduction
from .semigroup import NumericalSemigroup, radical_index

SCHEMA_VERSION = "cert-v1"


# ----------------------------------------------------------------------------
# ring descriptors


class _Descriptor(Record):
    """Base of the ring descriptors.  Each declares its text form once: HEAD
    is its head word and SLOTS names one slot kind (see _SLOT_KINDS) per
    field, in field order.  The parser, str(), validate_descriptor and
    descriptor_grammar all read these two class attributes."""

    def __str__(self) -> str:
        args = ",".join(
            _SLOT_KINDS[kind][2](getattr(self, name))
            for kind, name in zip(self.SLOTS, self._fields)
        )
        return f"{self.HEAD}({args})"


class SemigroupRing(_Descriptor):
    """k[[H]] for a numerical semigroup H."""

    HEAD = "sgp"
    SLOTS = ("ints",)
    generators: tuple[int, ...]


class Truncation(_Descriptor):
    """k[H]/(t^q), the Artinian truncation of k[[H]]."""

    HEAD = "trunc"
    SLOTS = ("gens", "int")
    generators: tuple[int, ...]
    q: int


class Glued(_Descriptor):
    """The semigroup ring of n*H + <m>, presented as a gluing."""

    HEAD = "glued"
    SLOTS = ("sgp", "int", "int")
    inner: SemigroupRing
    n: int
    m: int


class PowerSeriesExt(_Descriptor):
    """R[[T]] over an inner ring R."""

    HEAD = "powser"
    SLOTS = ("ring",)
    inner: "RingDescriptor"


class ParameterPowerQuotient(_Descriptor):
    """R/Q^power with Q generated by a regular sequence of length regseq_len."""

    HEAD = "qpow"
    SLOTS = ("ring", "int", "int")
    inner: "RingDescriptor"
    power: int
    regseq_len: int


class UlrichPowerQuotient(_Descriptor):
    """R/I^power for a declared Ulrich ideal I of the inner ring."""

    HEAD = "upow"
    SLOTS = ("ring", "(ints)", "int")
    inner: "RingDescriptor"
    ideal_gens: tuple[int, ...]
    power: int


class AbstractCI(_Descriptor):
    """A ring declared to be a complete intersection."""

    HEAD = "ci"
    SLOTS = ()


class AbstractWithFiniteFlatCover(_Descriptor):
    """A ring R with a module-finite extension S of finite flat dimension
    over R; ? leaves either one unspecified."""

    HEAD = "ffd"
    SLOTS = ("ring?", "ring?")
    inner: "RingDescriptor | None"
    cover: "RingDescriptor | None"


RingDescriptor = (
    SemigroupRing
    | Truncation
    | Glued
    | PowerSeriesExt
    | ParameterPowerQuotient
    | UlrichPowerQuotient
    | AbstractCI
    | AbstractWithFiniteFlatCover
)

_HEADS = {cls.HEAD: cls for cls in RingDescriptor.__args__}


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


_TOKEN = re.compile(r"\s*([a-z]+|\d+|[(),?])")

# Most rings that parse_ring accepts nested inside one another; the parser,
# the validator and the certificate search all recurse once per level.
MAX_NESTING = 64
_TOO_DEEP = f"descriptor nested deeper than {MAX_NESTING} levels"


def _tokenize(text: str):
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise MalformedDescriptor(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    """LL(1) descent over the grammar that HEAD and SLOTS declare."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise MalformedDescriptor("unexpected end of descriptor")
        if expected is not None and tok != expected:
            raise MalformedDescriptor(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def int_(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise MalformedDescriptor(f"expected an integer, got {tok!r}")
        try:
            return int(tok)
        except ValueError:  # past the interpreter's integer string limit
            raise MalformedDescriptor(
                f"integer of {len(tok)} digits is too long"
            ) from None

    def int_list(self):
        out = [self.int_()]
        while self.peek() == ",":
            self.take(",")
            out.append(self.int_())
        return tuple(out)

    def paren_ints(self):
        self.take("(")
        out = self.int_list()
        self.take(")")
        return out

    def ring(self, allow_hole=False):
        head = self.peek()
        if head is None:
            raise MalformedDescriptor("unexpected end of descriptor")
        if head == "?":
            if not allow_hole:
                raise MalformedDescriptor("'?' is only valid inside ffd(...)")
            self.take("?")
            return None
        # a hole is no descriptor, so only descriptors count as levels
        if self.depth > MAX_NESTING:
            raise MalformedDescriptor(_TOO_DEEP)
        cls = _HEADS.get(head)
        if cls is None:
            raise MalformedDescriptor(f"unknown descriptor head {head!r}")
        self.depth += 1
        desc = self.node(cls)
        self.depth -= 1
        return desc

    def node(self, cls):
        """HEAD(slot,...,slot) of one descriptor class."""
        self.take(cls.HEAD)
        self.take("(")
        args = []
        for i, kind in enumerate(cls.SLOTS):
            if i:
                self.take(",")
            args.append(_SLOT_KINDS[kind][1](self))
        self.take(")")
        return cls(*args)


def parse_ring(text: str) -> RingDescriptor:
    """Parse the descriptor mini-grammar; inverse of str() on descriptors."""
    parser = _Parser(_tokenize(text))
    desc = parser.ring()
    if parser.peek() is not None:
        raise MalformedDescriptor(
            f"trailing input after descriptor: {parser.peek()!r}"
        )
    return desc


def _semigroup(gens, build=None) -> NumericalSemigroup:
    """build(gens), by default NumericalSemigroup.from_generators(gens), with
    its errors raised as MalformedDescriptor."""
    try:
        return (build or NumericalSemigroup.from_generators)(gens)
    except SackitError as exc:
        raise MalformedDescriptor(f"bad semigroup {_ints(gens)}: {exc}") from exc


def _check_int(desc, value, build):
    if not isinstance(value, int) or value < 1:
        raise MalformedDescriptor(
            f"{desc.HEAD}() integer arguments must be >= 1, got {value!r}"
        )


def _check_ints(desc, values, build):
    if not values:
        raise MalformedDescriptor(f"{desc.HEAD}() needs a nonempty (a,b,...)")


def _check_sgp(desc, inner, build):
    if not isinstance(inner, SemigroupRing):
        raise MalformedDescriptor(f"{desc.HEAD}() needs a semigroup ring inside")


def _check_ring(desc, inner, build):
    if not isinstance(inner, _Descriptor):
        raise MalformedDescriptor(f"{desc.HEAD}() needs an inner ring, got {inner!r}")


def _check_members(H, xs, what):
    for x in xs:
        if x <= 0 or not H.contains(x):
            raise MalformedDescriptor(f"{what} {x} is not a positive member of H")


# slot kind -> (grammar placeholder, parse, text form, validate); validate
# takes (descriptor, value, the build_semigroup of validate_descriptor)
_SLOT_KINDS = {
    "int": ("{name}", _Parser.int_, str, _check_int),
    "ints": ("a,b,...", _Parser.int_list, _ints,
             lambda desc, gens, build: _semigroup(gens, build)),
    "(ints)": ("(a,b,...)", _Parser.paren_ints, lambda xs: f"({_ints(xs)})",
               _check_ints),
    "sgp": ("sgp(a,b,...)", lambda p: p.node(SemigroupRing), str, _check_sgp),
    "gens": ("sgp(a,b,...)", lambda p: p.node(SemigroupRing).generators,
             lambda gens: str(SemigroupRing(gens)),
             lambda desc, gens, build: _semigroup(gens, build)),
    "ring": ("ring", _Parser.ring, str, _check_ring),
    "ring?": ("ring|?", lambda p: p.ring(allow_hole=True),
              lambda inner: "?" if inner is None else str(inner),
              lambda desc, inner, build: (
                  inner is None or _check_ring(desc, inner, build))),
}


def validate_descriptor(desc, build_semigroup=None, _depth=0) -> None:
    """Structural well-formedness; raises MalformedDescriptor.

    Glue preconditions are deliberately not enforced here: they are premises
    that R-GLUE verifies, so a bad gluing yields Unknown, not an error.
    build_semigroup(generators), when given, builds each semigroup the
    check needs; certify() passes the memo of its search.  _depth counts the
    descriptors around desc, at most MAX_NESTING as parse_ring allows.
    """
    if not isinstance(desc, _Descriptor):
        raise MalformedDescriptor(f"not a ring descriptor: {desc!r}")
    if _depth > MAX_NESTING:
        raise MalformedDescriptor(_TOO_DEEP)
    for kind, name in zip(desc.SLOTS, desc._fields):
        value = getattr(desc, name)
        _SLOT_KINDS[kind][3](desc, value, build_semigroup)
        if isinstance(value, _Descriptor):
            validate_descriptor(value, build_semigroup, _depth + 1)
    if isinstance(desc, Truncation):
        _check_members(
            _semigroup(desc.generators, build_semigroup), (desc.q,),
            "truncation degree",
        )
    elif isinstance(desc, UlrichPowerQuotient) and isinstance(
        desc.inner, SemigroupRing
    ):
        _check_members(
            _semigroup(desc.inner.generators, build_semigroup), desc.ideal_gens,
            "ideal generator",
        )


def descriptor_grammar() -> str:
    """The descriptor grammar, one line per head, rendered from the table."""
    rows = []
    for cls in _HEADS.values():
        args = ",".join(
            _SLOT_KINDS[kind][0].format(name=name)
            for kind, name in zip(cls.SLOTS, cls._fields)
        )
        rows.append((f"{cls.HEAD}({args})", " ".join((cls.__doc__ or "").split())))
    width = max(len(form) for form, _ in rows)
    return f"Ring descriptors, nested at most {MAX_NESTING} deep:\n" + "\n".join(
        f"  {form.ljust(width)}  {doc}" for form, doc in rows
    )


# ----------------------------------------------------------------------------
# premises


class Premise(Record):
    statement: str
    status: str  # "Verified" | "Asserted"
    evidence: tuple | None = None  # sorted (key, value) pairs

    def to_json_dict(self) -> dict:
        d = {"statement": self.statement, "status": self.status}
        if self.evidence is not None:
            d["evidence"] = dict(self.evidence)
        return d


def _verified(statement: str, **evidence) -> Premise:
    return Premise(statement, "Verified", tuple(sorted(evidence.items())))


def _asserted(statement: str) -> Premise:
    return Premise(statement, "Asserted", None)


def _premise_ulrich(semigroup, ideal_gens, q=None):
    ideal = SemigroupIdeal.from_generators(semigroup, ideal_gens)
    if q is None:
        q = search_reduction(ideal)
    if q is None:
        return False, _asserted("no stable reduction found")
    report = is_ulrich(ideal, q)
    premise = _verified(
        f"I=({_ints(ideal.generators)}) with reduction q={q} is an Ulrich "
        f"ideal of H={semigroup}",
        colength=report.colength,
        mu=report.mu,
        layer=report.layer_length,
        q=q,
    )
    return report.is_ulrich, premise


def _premise_min_mult(semigroup):
    ok = semigroup.has_minimal_multiplicity()
    premise = _verified(
        f"H={semigroup} has minimal multiplicity",
        e=semigroup.multiplicity,
        v=semigroup.embedding_dim,
    )
    return ok, premise


def _truncation_atoms(semigroup, q):
    """The atoms of k[H]/(t^q) once q is a member: every minimal generator
    but q, since no larger one is q plus a member."""
    _check_members(semigroup, (q,), "truncation degree")
    return [g for g in semigroup.generators if g != q]


def _premise_radical_index_le3(semigroup, q):
    atoms = _truncation_atoms(semigroup, q)
    index = radical_index(semigroup.apery_set(q), atoms)
    premise = _verified(
        f"k[H]/(t^{q}) with H={semigroup} has radical index <= 3",
        index=index,
        q=q,
    )
    return index <= 3, premise


def _premise_glue_preconditions(
    inner_gens, n, m, expected=None, build_semigroup=None
):
    build = build_semigroup or NumericalSemigroup.from_generators
    inner = _semigroup(inner_gens, build)
    try:
        glued = build(inner.glue_generators(n, m))
    except SackitError as exc:
        return False, _asserted(f"gluing rejected: {exc}")
    ok = expected is None or glued.generators == tuple(expected)
    premise = _verified(
        f"{n}*H + <{m}> with H={inner} is a valid gluing",
        result=list(glued.generators),
        n=n,
        m=m,
    )
    return ok, premise


def _premise_gap_symmetric(semigroup):
    ok = semigroup.is_gap_symmetric()
    premise = _verified(
        f"H={semigroup} is gap symmetric, so k[[H]] is Gorenstein "
        f"(external criterion)",
        gap_symmetric=ok,
        frobenius=semigroup.frobenius,
    )
    return ok, premise


def _premise_colength_le2(semigroup, ideal_gens, power=1):
    ideal = SemigroupIdeal.from_generators(semigroup, ideal_gens).power(power)
    col = ideal.colength()
    premise = _verified(
        f"colength of ({_ints(ideal_gens)})^{power} over H={semigroup} "
        f"is <= 2",
        colength=col,
    )
    return col <= 2, premise


def _premise_emb_dim_le1(semigroup=None, ideal_gens=None, power=1, q=None):
    if ideal_gens is not None:
        ideal = SemigroupIdeal.from_generators(semigroup, ideal_gens).power(power)
        v = sum(not ideal.member(g) for g in semigroup.generators)
        what = f"k[H]/({_ints(ideal_gens)})^{power} with H={semigroup}"
    elif q is not None:
        v = len(_truncation_atoms(semigroup, q))
        what = f"k[H]/(t^{q}) with H={semigroup}"
    else:
        v = semigroup.embedding_dim
        what = f"k[[H]] with H={semigroup}"
    premise = _verified(f"{what} has embedding dimension <= 1", embdim=v)
    return v <= 1, premise


_PREMISE_DISPATCH = {
    "ulrich": _premise_ulrich,
    "min_mult": _premise_min_mult,
    "radical_index_le3": _premise_radical_index_le3,
    "glue_preconditions": _premise_glue_preconditions,
    "gap_symmetric": _premise_gap_symmetric,
    "colength_le2": _premise_colength_le2,
    "emb_dim_le1": _premise_emb_dim_le1,
}


def verify_premise(kind: str, **kwargs):
    """Check one premise from the closed vocabulary.

    Returns (ok, Premise); the Premise embeds the computed numbers whether
    or not the check passed.  A premise whose check would build an object
    above a size cap is not checked: (False, an Asserted Premise saying so).
    Unknown kinds raise UnknownPremiseKind.
    """
    try:
        fn = _PREMISE_DISPATCH[kind]
    except KeyError:
        raise UnknownPremiseKind(kind) from None
    try:
        return fn(**kwargs)
    except TooLarge as exc:
        return False, _asserted(f"not checked: {exc}")


# ----------------------------------------------------------------------------
# citations: the only quotes certificates are allowed to emit


class Citation(Record):
    where: str
    quote: str

    def to_json_dict(self) -> dict:
        return {"where": self.where, "quote": self.quote}


CITATIONS = {
    "R-CI": Citation(
        "complete-intersections",
        "All complete intersections (not necessarily local) satisfy (SAC)",
    ),
    "R-MODX": Citation(
        "nonzerodivisor-transfer",
        "x ∈ m be a non-zerodivisor on R",
    ),
    "R-POW": Citation(
        "power-series-extension",
        "if and only if R[[T]] satisfies",
    ),
    "R-ULCI": Citation(
        "ulrich-ci-quotient",
        "there exists an Ulrich ideal I such that R/I is a complete "
        "intersection",
    ),
    "R-MIN": Citation(
        "minimal-multiplicity",
        "has minimal multiplicity, hence satisfies (SAC)",
    ),
    "R-RAD3": Citation(
        "radical-cube-zero",
        "has radical cube zero … satisfies (SAC) by",
    ),
    "R-GLUE": Citation(
        "semigroup-gluing",
        "Consequently, if A satisfies (SAC), then so does R",
    ),
    "R-QPOW": Citation(
        "parameter-power-quotient",
        "R/Q^ℓ satisfies (SAC) for all integers 1 ≤ ℓ ≤ n",
    ),
    "R-UPOW": Citation(
        "ulrich-power-quotient",
        "If R/I^ℓ satisfies (SAC) … and μ(I) − dim R > 1, "
        "then R satisfies (SAC)",
    ),
    "R-FFD": Citation(
        "finite-flat-descent",
        "If S satisfies (SAC), then R satisfies (SAC)",
    ),
}


# ----------------------------------------------------------------------------
# certificates


class Certificate(Record):
    goal: str
    verdict: str  # "Certified" | "Unknown"
    rule: str | None
    citation: Citation | None
    premises: tuple[Premise, ...]
    children: tuple["Certificate", ...]
    attempted: tuple[str, ...] = ()

    def to_json_dict(self, root: bool = True) -> dict:
        d = {
            "goal": self.goal,
            "verdict": self.verdict,
            "rule": self.rule,
            "citation": None if self.citation is None else self.citation.to_json_dict(),
            "premises": [p.to_json_dict() for p in self.premises],
            "children": [c.to_json_dict(root=False) for c in self.children],
        }
        if self.verdict == "Unknown":
            d["attempted"] = list(self.attempted)
        if root:
            d["schema"] = SCHEMA_VERSION
        return d

    def to_json(self) -> str:
        import json  # on use: the import costs every command's start-up

        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}goal: {self.goal}", f"{pad}verdict: {self.verdict}"]
        if self.verdict == "Certified":
            cit = self.citation
            lines.append(f'{pad}rule: {self.rule}  [{cit.where}: "{cit.quote}"]')
            for p in self.premises:
                ev = "" if p.evidence is None else f"  {dict(p.evidence)}"
                lines.append(f"{pad}  - [{p.status}] {p.statement}{ev}")
            for child in self.children:
                lines.append(f"{pad}  from:")
                lines.append(child.render(indent + 2))
        else:
            lines.append(f"{pad}attempted: {', '.join(self.attempted) or '(none)'}")
        return "\n".join(lines)


CERT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "definitions": {
        "citation": {
            "type": "object",
            "required": ["where", "quote"],
            "properties": {
                "where": {"type": "string"},
                "quote": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "premise": {
            "type": "object",
            "required": ["statement", "status"],
            "properties": {
                "statement": {"type": "string"},
                "status": {"enum": ["Verified", "Asserted"]},
                "evidence": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "certificate": {
            "type": "object",
            "required": ["goal", "verdict", "rule", "citation", "premises", "children"],
            "properties": {
                "goal": {"type": "string"},
                "verdict": {"enum": ["Certified", "Unknown"]},
                "rule": {"type": ["string", "null"]},
                "citation": {
                    "anyOf": [
                        {"$ref": "#/definitions/citation"},
                        {"type": "null"},
                    ]
                },
                "premises": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/premise"},
                },
                "children": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/certificate"},
                },
                "attempted": {"type": "array", "items": {"type": "string"}},
                "schema": {"const": SCHEMA_VERSION},
            },
            "additionalProperties": False,
        },
    },
    "allOf": [{"$ref": "#/definitions/certificate"}],
    "required": ["schema"],
}


# ----------------------------------------------------------------------------
# the rule engine


class _Search:
    """State of one certify() call: the finished goals, the goals on the
    stack, and each semigroup built so far, by generator set, so that the
    validator, the rules and the premises of one call build it once."""

    def __init__(self):
        self.memo: dict = {}
        self.stack: set = set()
        self.semigroups: dict = {}

    def semigroup(self, gens) -> NumericalSemigroup:
        key = tuple(sorted(set(gens)))
        if key not in self.semigroups:
            self.semigroups[key] = NumericalSemigroup.from_generators(gens)
        return self.semigroups[key]


def _unknown(desc, attempted) -> Certificate:
    return Certificate(
        goal=str(desc),
        verdict="Unknown",
        rule=None,
        citation=None,
        premises=(),
        children=(),
        attempted=tuple(attempted),
    )


def _ulrich_candidates(H: NumericalSemigroup):
    """Deterministic candidate pool: the maximal ideal, then the ideal
    generated by all minimal generators but one, in drop order."""
    gens = H.generators
    yield gens
    if len(gens) > 1:
        for g in gens:
            yield tuple(x for x in gens if x != g)


def _child(desc, depth, search):
    """The certificate of desc one level down, or None unless Certified."""
    cert = _certify_inner(desc, depth - 1, search, _RULES.get(type(desc), ()))
    return cert if cert.verdict == "Certified" else None


def _ci_quotient(H, ideal_gens, power=1):
    """Premise that k[[H]]/I^power is a complete intersection: colength
    <= 2, else embedding dimension <= 1."""
    ok, pr = verify_premise(
        "colength_le2", semigroup=H, ideal_gens=ideal_gens, power=power
    )
    if not ok:
        ok, pr = verify_premise(
            "emb_dim_le1", semigroup=H, ideal_gens=ideal_gens, power=power
        )
    return ok, pr


def _nonzerodivisor(H, q) -> Premise:
    return _verified(f"t^{q} is a non-zerodivisor on k[[H]], H={H}", q=q)


# Each rule returns (premises, children) when it applies, its premises hold
# and its children are Certified, else None.


def _rule_ci_declared(desc, depth, search):
    return [_asserted("declared complete intersection")], []


def _rule_ci_sgp(desc, depth, search):
    ok, pr = verify_premise(
        "emb_dim_le1", semigroup=search.semigroup(desc.generators)
    )
    return ([pr], []) if ok else None


def _rule_ci_trunc(desc, depth, search):
    ok, pr = verify_premise(
        "emb_dim_le1", semigroup=search.semigroup(desc.generators), q=desc.q
    )
    return ([pr], []) if ok else None


def _rule_ci_upow(desc, depth, search):
    if not isinstance(desc.inner, SemigroupRing):
        return None
    H = search.semigroup(desc.inner.generators)
    ok, pr = _ci_quotient(H, desc.ideal_gens, desc.power)
    return ([pr], []) if ok else None


def _rule_min(desc, depth, search):
    H = search.semigroup(desc.generators)
    ok, p_min = verify_premise("min_mult", semigroup=H)
    if not ok:
        return None
    ok, p_ulr = verify_premise(
        "ulrich", semigroup=H, ideal_gens=H.generators, q=H.multiplicity
    )
    if not ok:
        return None
    ok, p_col = verify_premise(
        "colength_le2", semigroup=H, ideal_gens=H.generators
    )
    if not ok:
        return None
    return [p_min, p_ulr, p_col], []


_RAD3_EXTERNAL = _asserted(
    "Artinian local algebras with radical cube zero of this kind satisfy "
    "the symmetric Auslander condition (external structure theorem)"
)


def _rule_rad3_sgp(desc, depth, search):
    H = search.semigroup(desc.generators)
    q = H.multiplicity
    ok, p_rad = verify_premise("radical_index_le3", semigroup=H, q=q)
    return ([p_rad, _RAD3_EXTERNAL, _nonzerodivisor(H, q)], []) if ok else None


def _rule_rad3_trunc(desc, depth, search):
    H = search.semigroup(desc.generators)
    ok, p_rad = verify_premise("radical_index_le3", semigroup=H, q=desc.q)
    return ([p_rad, _RAD3_EXTERNAL], []) if ok else None


def _rule_ulci(desc, depth, search):
    H = search.semigroup(desc.generators)
    for gens in _ulrich_candidates(H):
        ok, p_ulr = verify_premise("ulrich", semigroup=H, ideal_gens=gens)
        if not ok:
            continue
        ok, p_ci = _ci_quotient(H, gens)
        if ok:
            return [p_ulr, p_ci], []
    return None


def _glue_decompositions(H: NumericalSemigroup):
    """Candidate (inner generators, n, m) with n*inner + <m> = H, n ascending."""
    gens = H.generators
    for n in range(2, max(gens) + 1):
        divisible = tuple(g // n for g in gens if g % n == 0)
        rest = tuple(g for g in gens if g % n != 0)
        if len(rest) == 1 and divisible:
            yield divisible, n, rest[0]


def _glue(candidates, expected, depth, search):
    """R-GLUE by the first candidate gluing that is valid, gives `expected`
    (if set) and has a Certified inner ring."""
    for inner_gens, n, m in candidates:
        try:
            ok, p_glue = verify_premise(
                "glue_preconditions", inner_gens=inner_gens, n=n, m=m,
                expected=expected, build_semigroup=search.semigroup,
            )
        except MalformedDescriptor:
            continue
        if not ok:
            continue
        child = _child(SemigroupRing(tuple(inner_gens)), depth, search)
        if child is not None:
            return [p_glue], [child]
    return None


def _rule_glue_sgp(desc, depth, search):
    H = search.semigroup(desc.generators)
    return _glue(_glue_decompositions(H), desc.generators, depth, search)


def _rule_glue_glued(desc, depth, search):
    return _glue([(desc.inner.generators, desc.n, desc.m)], None, depth, search)


def _rule_upow(desc, depth, search):
    # some Ulrich ideal I with mu(I) - dim R > 1 whose power quotient is
    # itself certified; the rule runs upward only (R/I^l => R), so it applies
    # to semigroup rings alone
    H = search.semigroup(desc.generators)
    for gens in _ulrich_candidates(H):
        ok, p_ulr = verify_premise("ulrich", semigroup=H, ideal_gens=gens)
        if not ok:
            continue
        mu = dict(p_ulr.evidence)["mu"]
        if mu - 1 <= 1:
            continue
        p_mu = _verified(
            f"mu(I) - dim R = {mu - 1} > 1 for I=({_ints(gens)})",
            mu=mu,
            dim=1,
        )
        child = _child(UlrichPowerQuotient(desc, tuple(gens), 1), depth, search)
        if child is not None:
            return [p_ulr, p_mu], [child]
    return None


def _modx(H, q, child_desc, depth, search):
    """R-MODX between k[[H]] and k[H]/(t^q), whichever one child_desc is."""
    child = _child(child_desc, depth, search)
    return None if child is None else ([_nonzerodivisor(H, q)], [child])


def _rule_modx_sgp(desc, depth, search):
    H = search.semigroup(desc.generators)
    q = H.multiplicity
    return _modx(H, q, Truncation(desc.generators, q), depth, search)


def _rule_modx_trunc(desc, depth, search):
    H = search.semigroup(desc.generators)
    return _modx(H, desc.q, SemigroupRing(desc.generators), depth, search)


def _rule_pow(desc, depth, search):
    child = _child(desc.inner, depth, search)
    return None if child is None else ([], [child])


def _rule_qpow(desc, depth, search):
    n, ring_depth = desc.regseq_len, _depth(desc.inner)
    if not 1 <= desc.power <= n or (ring_depth is not None and n > ring_depth):
        return None
    child = _child(desc.inner, depth, search)
    p_gor = None if child is None else _gorenstein(desc.inner, search)
    if p_gor is None:
        return None
    p_range = _verified(f"1 <= l={desc.power} <= n={n}", l=desc.power, n=n)
    p_depth = [] if ring_depth is None else [
        _verified(f"n={n} <= depth R={ring_depth}", depth=ring_depth, n=n)]
    return [p_range, *p_depth, *p_gor], [child]


def _depth(ring):
    """depth R, which bounds the length of a regular sequence, where the
    toolkit knows it: 1 for k[[H]] and a gluing, 0 for the Artinian
    k[H]/(t^q) and k[[H]]/I^p (I is m-primary), one more for each R[[T]],
    and n less for R/Q^l, Q generated by a regular sequence of length
    n <= depth R (Bruns & Herzog, ch. 1); else None."""
    if isinstance(ring, PowerSeriesExt):
        inner = _depth(ring.inner)
        return None if inner is None else inner + 1
    if isinstance(ring, ParameterPowerQuotient):
        inner, n = _depth(ring.inner), ring.regseq_len
        return None if inner is None or n > inner else inner - n
    if isinstance(ring, UlrichPowerQuotient):
        return 0 if isinstance(ring.inner, SemigroupRing) else None
    if isinstance(ring, (SemigroupRing, Glued)):
        return 1
    return 0 if isinstance(ring, Truncation) else None


def _gorenstein(ring, search):
    """Premises that the Certified ``ring`` is Gorenstein, or None when they
    fail.  k[[H]], k[H]/(t^q) (t^q is regular), a gluing (valid, since R-GLUE
    certified it) and R[[T]] are Gorenstein exactly when one numerical
    semigroup is symmetric.  R/Q^l is Gorenstein exactly when R is if l = 1
    or n = 1, since Q^l is then generated by a regular sequence (Bruns &
    Herzog, ch. 3).  The other rings keep an assertion."""
    if isinstance(ring, PowerSeriesExt) or (
        isinstance(ring, ParameterPowerQuotient) and 1 in (ring.power, ring.regseq_len)
    ):
        return _gorenstein(ring.inner, search)
    if isinstance(ring, AbstractCI):
        return [_asserted("complete intersections are Gorenstein")]
    if isinstance(ring, Glued):
        gens = search.semigroup(ring.inner.generators).glue_generators(ring.n, ring.m)
    elif isinstance(ring, (SemigroupRing, Truncation)):
        gens = ring.generators
    else:
        return [_asserted("the inner ring is Gorenstein")]
    H = search.semigroup(gens)
    ok, p_sym = verify_premise("gap_symmetric", semigroup=H)
    regular = [_nonzerodivisor(H, ring.q)] if isinstance(ring, Truncation) else []
    return regular + [p_sym] if ok else None


def _rule_ffd(desc, depth, search):
    if desc.cover is None:
        return None
    p_fd = _asserted(
        "the cover is module-finite with finite flat dimension over the ring"
    )
    child = _child(desc.cover, depth, search)
    return None if child is None else ([p_fd], [child])


# Fixed per-variant rule order: cheap combinatorial rules first.  R-RAD3
# precedes R-ULCI so rings reachable by both take the cheaper radical route.
_RULES = {
    SemigroupRing: (
        ("R-CI", _rule_ci_sgp),
        ("R-MIN", _rule_min),
        ("R-RAD3", _rule_rad3_sgp),
        ("R-ULCI", _rule_ulci),
        ("R-GLUE", _rule_glue_sgp),
        ("R-UPOW", _rule_upow),
        ("R-MODX", _rule_modx_sgp),
    ),
    Truncation: (
        ("R-CI", _rule_ci_trunc),
        ("R-RAD3", _rule_rad3_trunc),
        ("R-MODX", _rule_modx_trunc),
    ),
    Glued: (("R-GLUE", _rule_glue_glued),),
    PowerSeriesExt: (("R-POW", _rule_pow),),
    ParameterPowerQuotient: (("R-QPOW", _rule_qpow),),
    UlrichPowerQuotient: (("R-CI", _rule_ci_upow),),
    AbstractCI: (("R-CI", _rule_ci_declared),),
    AbstractWithFiniteFlatCover: (("R-FFD", _rule_ffd),),
}


def _certify_inner(desc, depth, search, order):
    """desc's certificate by the first (rule id, rule) of ``order`` that derives it."""
    if depth <= 0:
        return _unknown(desc, ("(depth limit)",))
    memo_key = (desc, depth)
    if memo_key in search.memo:
        return search.memo[memo_key]
    if desc in search.stack:
        return _unknown(desc, ("(cyclic goal)",))

    search.stack.add(desc)
    try:
        for rule_id, rule in order:
            found = rule(desc, depth, search)
            if found is not None:
                premises, children = found
                result = Certificate(
                    goal=str(desc),
                    verdict="Certified",
                    rule=rule_id,
                    citation=CITATIONS[rule_id],
                    premises=tuple(premises),
                    children=tuple(children),
                )
                break
        else:
            result = _unknown(desc, [rule_id for rule_id, _ in order])
    finally:
        search.stack.discard(desc)

    search.memo[memo_key] = result
    return result


def certify(goal, depth: int = 8, root_rules=None) -> Certificate:
    """Backward-chaining certificate search for "(SAC) holds" over ``goal``.

    root_rules restricts the rules tried at the root only (for exhibiting
    independent derivations); children always use the full per-variant
    order.  The result is a deterministic function of (goal, depth,
    root_rules).
    """
    if isinstance(goal, str):
        goal = parse_ring(goal)
    if goal is None:
        raise MalformedDescriptor("no descriptor given")
    search = _Search()
    validate_descriptor(goal, search.semigroup)
    # children search one level down, so nothing reads the root's memo entry
    order = _RULES.get(type(goal), ())
    if root_rules is not None:
        by_id = dict(order)
        order = tuple((r, by_id[r]) for r in root_rules if r in by_id)
    return _certify_inner(goal, depth, search, order)
