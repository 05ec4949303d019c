"""Rule based certificates for the symmetric Auslander condition (SAC).

A certificate is a finite proof tree: the root names a ring by a structured
descriptor, each node applies one sufficiency rule and cites the theorem it
rests on, and every premise is either Verified (recomputed here, with the raw
numbers embedded as evidence) or Asserted (an explicit hypothesis this toolkit
cannot check, e.g. a Krull dimension bound or an external structure theorem).
Verified premises read only the semigroup and its ideals, so no algebra is
built: an Artinian quotient's radical index is at most 3 when every sum of
three atoms lies in the ideal, and its embedding dimension counts its atoms.

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
from math import gcd

from ._record import Record
from .errors import MalformedDescriptor, NonPositive, SackitError, TooLarge, UnknownPremiseKind
from .ideals import SemigroupIdeal, is_ulrich, search_reduction
from .semigroup import NumericalSemigroup

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

    # What the search knows of the ring R it stands for: depth R, which bounds
    # a regular sequence (Bruns & Herzog, ch. 1), else None, and the premises
    # that R is Gorenstein (ch. 3), None when refuted, else an assertion
    DEPTH = None
    GORENSTEIN = "the inner ring is Gorenstein"

    def depth(self):
        return self.DEPTH

    def gorenstein(self, search):
        return [_asserted(self.GORENSTEIN)]


class SemigroupRing(_Descriptor):
    """k[[H]] for a numerical semigroup H."""

    HEAD = "sgp"
    SLOTS = ("ints",)
    DEPTH = 1
    generators: tuple[int, ...]

    def gorenstein(self, search, *regular):  # exactly when H is symmetric (Kunz)
        H = search.semigroup(self.generators)
        ok, p_sym = verify_premise("gap_symmetric", semigroup=H)
        return [*regular, p_sym] if ok else None


class Truncation(_Descriptor):
    """k[H]/(t^q), the Artinian truncation of k[[H]]."""

    HEAD = "trunc"
    SLOTS = ("gens", "int")
    DEPTH = 0
    generators: tuple[int, ...]
    q: int

    def gorenstein(self, search):  # t^q is regular on k[[H]]
        regular = _nonzerodivisor(search.semigroup(self.generators), self.q)
        return SemigroupRing(self.generators).gorenstein(search, regular)


class Glued(_Descriptor):
    """The semigroup ring of n*H + <m>, presented as a gluing."""

    HEAD = "glued"
    SLOTS = ("sgp", "int", "int")
    DEPTH = 1
    inner: SemigroupRing
    n: int
    m: int

    def gorenstein(self, search):
        try:  # validate_descriptor checked the gluing, not its multiplicity
            H = search.semigroup(self.inner.generators)
            return SemigroupRing(H.glue_generators(self.n, self.m)).gorenstein(search)
        except TooLarge:
            return None


class PowerSeriesExt(_Descriptor):
    """R[[T]] over an inner ring R."""

    HEAD = "powser"
    SLOTS = ("ring",)
    inner: "RingDescriptor"

    def depth(self):
        inner = self.inner.depth()
        return None if inner is None else inner + 1

    def gorenstein(self, search):
        return self.inner.gorenstein(search)


class ParameterPowerQuotient(_Descriptor):
    """R/Q^power with Q generated by a regular sequence of length regseq_len."""

    HEAD = "qpow"
    SLOTS = ("ring", "int", "int")
    inner: "RingDescriptor"
    power: int
    regseq_len: int

    def depth(self):
        inner, n = self.inner.depth(), self.regseq_len
        return None if inner is None or n > inner else inner - n

    def gorenstein(self, search):
        # as R if l = 1 or n = 1, Q^l being generated by a regular sequence;
        # never if l, n >= 2: gr_Q R = (R/Q)[X_1..X_n], so Q^(l-1)/Q^l is free
        # of rank binom(n+l-2, n-1) >= n over R/Q, and modulo a maximal
        # R/Q-regular sequence the socle has dimension at least n >= 2
        return self.inner.gorenstein(search) if 1 in (self.power, self.regseq_len) else None


class UlrichPowerQuotient(_Descriptor):
    """R/I^power for a declared Ulrich ideal I of the inner ring."""

    HEAD = "upow"
    SLOTS = ("ring", "(ints)", "int")
    inner: "RingDescriptor"
    ideal_gens: tuple[int, ...]
    power: int

    def depth(self):  # k[[H]]/I^p is Artinian, I being m-primary
        return 0 if isinstance(self.inner, SemigroupRing) else None


class AbstractCI(_Descriptor):
    """A ring declared to be a complete intersection."""

    HEAD = "ci"
    SLOTS = ()
    GORENSTEIN = "complete intersections are Gorenstein"


class AbstractWithFiniteFlatCover(_Descriptor):
    """A ring R with a module-finite extension S of finite flat dimension
    over R; ? leaves either one unspecified."""

    HEAD = "ffd"
    SLOTS = ("ring?", "ring?")
    inner: "RingDescriptor | None"
    cover: "RingDescriptor | None"

    def depth(self):  # the ring is R, and a hole knows what _Descriptor knows
        return (self.inner or super()).depth()

    def gorenstein(self, search):
        return (self.inner or super()).gorenstein(search)


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
    if type(value) is not int or value < 1:  # nor a bool
        raise MalformedDescriptor(
            f"{desc.HEAD}() integer arguments must be >= 1, got {value!r}"
        )


def _check_ints(desc, values, build=None):
    if not (type(values) is tuple and values  # as the parser makes them
            and all(type(x) is int and x >= 0 for x in values)):
        raise MalformedDescriptor(f"{desc.HEAD}() needs a nonempty (a,b,...), got {values!r}")
    return values


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
             lambda desc, gens, build: _semigroup(_check_ints(desc, gens), build)),
    "(ints)": ("(a,b,...)", _Parser.paren_ints, lambda xs: f"({_ints(xs)})",
               _check_ints),
    "sgp": ("sgp(a,b,...)", lambda p: p.node(SemigroupRing), str, _check_sgp),
    "gens": ("sgp(a,b,...)", lambda p: p.node(SemigroupRing).generators,
             lambda gens: str(SemigroupRing(gens)),
             lambda desc, gens, build: _semigroup(_check_ints(desc, gens), build)),
    "ring": ("ring", _Parser.ring, str, _check_ring),
    "ring?": ("ring|?", lambda p: p.ring(allow_hole=True),
              lambda inner: "?" if inner is None else str(inner),
              lambda desc, inner, build: (
                  inner is None or _check_ring(desc, inner, build))),
}


def validate_descriptor(desc, build_semigroup=None, _depth=0) -> None:
    """Structural well-formedness; raises MalformedDescriptor.

    Integer slots hold what the parser makes: ints, or nonempty tuples of ints.
    A glued(sgp(H),n,m) must meet every gluing precondition (m a member of H
    but no minimal generator, gcd(n, m) = 1), else it names no gluing, and no
    rule checks the R of an ffd(R, S); the glued semigroup itself is not built.
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
    elif isinstance(desc, Glued):
        try:  # the inner semigroup passed its own check above
            _semigroup(desc.inner.generators, build_semigroup).glue_generators(desc.n, desc.m)
        except SackitError as exc:
            raise MalformedDescriptor(f"bad gluing {desc}: {exc}") from exc
    elif isinstance(desc, UlrichPowerQuotient) and isinstance(
        desc.inner, SemigroupRing
    ):
        _check_members(
            _semigroup(desc.inner.generators, build_semigroup), desc.ideal_gens,
            "ideal generator",
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
    # m^r = 0 in k[H]/(t^q) when every sum of r atoms lies in the ideal q + H,
    # so sums outside it grow from sums outside it, kept one per degree (at
    # most min(q, e^r)); atoms ascend, so the first kept for a degree is least
    atoms = _truncation_atoms(semigroup, q)
    statement = f"k[H]/(t^{q}) with H={semigroup} has radical index <= 3"
    level = {0: ()}
    for r in (1, 2, 3):
        outside = {}
        for d, s in level.items():
            for a in atoms:
                if not semigroup.contains(d + a - q):
                    if r == 3:
                        return False, _verified(statement, q=q, witness=(*s, a))
                    outside.setdefault(d + a, (*s, a))
        if not outside:
            return True, _verified(statement, index=r, q=q)
        level = outside


def _premise_glue_preconditions(inner_gens, n, m, build_semigroup=None):
    build = build_semigroup or NumericalSemigroup.from_generators
    try:
        inner = build(inner_gens)
        glued = build(inner.glue_generators(n, m))
    except SackitError as exc:
        return False, _asserted(f"gluing rejected: {exc}")
    return True, _verified(
        f"{n}*H + <{m}> with H={inner} is a valid gluing",
        result=list(glued.generators),
        n=n,
        m=m,
    )


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
    or not the check passed.  Unknown kinds raise UnknownPremiseKind.
    """
    try:
        fn = _PREMISE_DISPATCH[kind]
    except KeyError:
        raise UnknownPremiseKind(kind) from None
    return fn(**kwargs)


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
    rule: str | None = None
    citation: Citation | None = None
    premises: tuple[Premise, ...] = ()
    children: tuple["Certificate", ...] = ()
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
    return Certificate(goal=str(desc), verdict="Unknown", attempted=tuple(attempted))


def _ulrich_candidates(H: NumericalSemigroup):
    """Deterministic candidate pool: the maximal ideal, then the ideal
    generated by all minimal generators but one, in drop order."""
    gens = H.generators
    yield gens
    if len(gens) > 1:
        for g in gens:
            yield tuple(x for x in gens if x != g)


def _child(desc, depth, search):
    """The certificate of desc one level down, or None unless Certified (and
    so None when no depth is left)."""
    if depth <= 1:
        return None
    cert = _certify_inner(desc, depth - 1, search, _RULES.get(type(desc), ()))
    return cert if cert.verdict == "Certified" else None


def _semigroup_ring(desc, search):
    """(H, q, truncated) of a sgp or trunc descriptor: H from its minimal
    generators, and q the multiplicity of H for k[[H]], where t^q is the
    regular element, or the degree of the truncation k[H]/(t^q) itself."""
    H = search.semigroup(desc.generators)
    truncated = isinstance(desc, Truncation)
    return H, desc.q if truncated else H.multiplicity, truncated


def _nonzerodivisor(H, q) -> Premise:
    return _verified(f"t^{q} is a non-zerodivisor on k[[H]], H={H}", q=q)


# Each rule returns (premises, children) when it applies, its premises hold
# and its children are Certified, else None.


def _rule_ci_declared(desc, depth, search):
    return [_asserted("declared complete intersection")], []


def _rule_ci(desc, depth, search):
    H, q, truncated = _semigroup_ring(desc, search)
    ok, pr = verify_premise("emb_dim_le1", semigroup=H, q=q if truncated else None)
    return ([pr], []) if ok else None


def _rule_ci_upow(desc, depth, search):
    if not isinstance(desc.inner, SemigroupRing):
        return None
    ok, pr = verify_premise(
        "emb_dim_le1", semigroup=search.semigroup(desc.inner.generators),
        ideal_gens=desc.ideal_gens, power=desc.power,
    )
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


def _rule_rad3(desc, depth, search):
    H, q, truncated = _semigroup_ring(desc, search)
    ok, p_rad = verify_premise("radical_index_le3", semigroup=H, q=q)
    regular = [] if truncated else [_nonzerodivisor(H, q)]
    return ([p_rad, _RAD3_EXTERNAL, *regular], []) if ok else None


def _rule_ulci(desc, depth, search):
    H = search.semigroup(desc.generators)
    for gens in _ulrich_candidates(H):
        ok, p_ulr = verify_premise("ulrich", semigroup=H, ideal_gens=gens)
        if not ok:
            continue
        ok, p_ci = verify_premise("emb_dim_le1", semigroup=H, ideal_gens=gens)
        if ok:
            return [p_ulr, p_ci], []
    return None


def _glue_decompositions(H: NumericalSemigroup):
    """Candidate (inner generators, n, m) with n*inner + <m> = H, n ascending:
    the inner generators have gcd 1, so n is the gcd of the generators but m."""
    gens = H.generators
    for n, i in sorted((gcd(*gens[:i], *gens[i + 1:]), i) for i in range(len(gens))):
        if n >= 2:
            yield tuple(g // n for g in gens[:i] + gens[i + 1:]), n, gens[i]


def _glue(candidates, depth, search):
    """R-GLUE by the first candidate gluing that is valid and has a Certified
    inner ring."""
    for inner_gens, n, m in candidates:
        ok, p_glue = verify_premise(
            "glue_preconditions", inner_gens=inner_gens, n=n, m=m,
            build_semigroup=search.semigroup,
        )
        if not ok:
            continue
        child = _child(SemigroupRing(tuple(inner_gens)), depth, search)
        if child is not None:
            return [p_glue], [child]
    return None


def _rule_glue_sgp(desc, depth, search):
    # candidates from H's minimal generators glue back to H however desc spells it
    H = search.semigroup(desc.generators)
    return _glue(_glue_decompositions(H), depth, search)


def _rule_glue_glued(desc, depth, search):
    return _glue([(desc.inner.generators, desc.n, desc.m)], depth, search)


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


def _rule_modx(desc, depth, search):
    # between k[[H]] and k[H]/(t^q), each the other's child, spelled as desc
    H, q, truncated = _semigroup_ring(desc, search)
    other = SemigroupRing(desc.generators) if truncated else Truncation(desc.generators, q)
    child = _child(other, depth, search)
    return None if child is None else ([_nonzerodivisor(H, q)], [child])


def _rule_pow(desc, depth, search):
    child = _child(desc.inner, depth, search)
    return None if child is None else ([], [child])


def _rule_qpow(desc, depth, search):
    n, ring_depth = desc.regseq_len, desc.inner.depth()
    if not 1 <= desc.power <= n or (ring_depth is not None and n > ring_depth):
        return None
    child = _child(desc.inner, depth, search)
    p_gor = None if child is None else desc.inner.gorenstein(search)
    if p_gor is None:
        return None
    p_range = _verified(f"1 <= l={desc.power} <= n={n}", l=desc.power, n=n)
    p_depth = [] if ring_depth is None else [
        _verified(f"n={n} <= depth R={ring_depth}", depth=ring_depth, n=n)]
    return [p_range, *p_depth, *p_gor], [child]


def _rule_ffd(desc, depth, search):
    # fd_R S is finite and S module-finite over R, so depth S <= depth R by
    # Auslander-Buchsbaum (Bruns & Herzog, Thm 1.3.3); every ring whose depth
    # is known is Cohen-Macaulay, so this also refuses dim S > dim R
    if desc.cover is None:
        return None
    premises = [_asserted(
        "the cover is module-finite with finite flat dimension over the ring")]
    ring_depth, cover_depth = desc.depth(), desc.cover.depth()
    if None not in (ring_depth, cover_depth):
        if cover_depth > ring_depth:
            return None
        premises.append(_verified(f"depth S={cover_depth} <= depth R={ring_depth}",
                                  depth_R=ring_depth, depth_S=cover_depth))
    child = _child(desc.cover, depth, search)
    return None if child is None else (premises, [child])


# Fixed per-variant rule order: cheap combinatorial rules first.  R-RAD3
# precedes R-ULCI so rings reachable by both take the cheaper radical route.
# R-UPOW and R-MODX of a semigroup ring are in _ROOT_ONLY below.
_RULES = {
    SemigroupRing: (
        ("R-CI", _rule_ci),
        ("R-MIN", _rule_min),
        ("R-RAD3", _rule_rad3),
        ("R-ULCI", _rule_ulci),
        ("R-GLUE", _rule_glue_sgp),
    ),
    Truncation: (
        ("R-CI", _rule_ci),
        ("R-RAD3", _rule_rad3),
        ("R-MODX", _rule_modx),
    ),
    Glued: (("R-GLUE", _rule_glue_glued),),
    PowerSeriesExt: (("R-POW", _rule_pow),),
    ParameterPowerQuotient: (("R-QPOW", _rule_qpow),),
    UlrichPowerQuotient: (("R-CI", _rule_ci_upow),),
    AbstractCI: (("R-CI", _rule_ci_declared),),
    AbstractWithFiniteFlatCover: (("R-FFD", _rule_ffd),),
}

# Rules that only a root named in root_rules runs, since at k[[H]] they
# certify nothing the order above leaves Unknown.  R-UPOW's child k[[H]]/I
# has one rule, R-CI: the embedding-dimension test that R-ULCI already ran on
# the same Ulrich candidates.  R-MODX's child k[H]/(t^m), m the multiplicity,
# has three: R-RAD3, on the premise of k[[H]]'s own R-RAD3; R-CI, which needs
# H to have at most two generators, and then R-ULCI certifies k[[H]] by a
# principal ideal; and R-MODX, back to k[[H]], which the stack guard fails.
_ROOT_ONLY = {SemigroupRing: (("R-UPOW", _rule_upow), ("R-MODX", _rule_modx))}


def _certify_inner(desc, depth, search, order):
    """desc's certificate by the first (rule id, rule) of ``order`` that
    derives it; depth is at least 1."""
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

    root_rules picks, in its order, the rules tried at the root only (for
    exhibiting independent derivations): those of the root's variant in
    _RULES, and at a semigroup ring also R-UPOW and R-MODX (_ROOT_ONLY).
    Children always use the order of _RULES.  The result is a deterministic
    function of (goal, depth, root_rules).  A child that runs out of depth is
    not Certified; a root depth below 1 would leave nothing to search, so it
    raises NonPositive.
    """
    if depth < 1:
        raise NonPositive(f"depth must be >= 1, got {depth}")
    if isinstance(goal, str):
        goal = parse_ring(goal)
    if goal is None:
        raise MalformedDescriptor("no descriptor given")
    search = _Search()
    validate_descriptor(goal, search.semigroup)
    # children search one level down, so nothing reads the root's memo entry
    order = _RULES.get(type(goal), ())
    if root_rules is not None:
        by_id = dict(order + _ROOT_ONLY.get(type(goal), ()))
        order = tuple((r, by_id[r]) for r in root_rules if r in by_id)
    return _certify_inner(goal, depth, search, order)
