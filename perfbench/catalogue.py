"""The fixed op catalogue of each workload and the seeded draw from it.

An op is one user-level computation run in a fresh interpreter: either a
``python -m sackit ...`` command line ("cli") or one call of
``minimal_resolution`` through ``perfbench/resolve_op.py`` ("resolve"), which
no subcommand exposes.

A workload is a list of op classes.  The ops of one class cost about the same
and differ only in inputs that leave the work unchanged (the field prime, a
neighbouring generator, another ring of the corpus).  A seed picks one variant
per draw of each class and shuffles the whole list, so every seed runs the same
mix of work on different inputs, which keeps the figures steady across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_CAP_S = 10.0  # wall cap of an ordinary op; the slowest takes about 6 s
PROBE_CAP_S = 1.0  # wall cap of a budget probe, a case that needs minutes or runs out
# of memory at the seed; kept short because the cap counts in wall_s
AS_CAP_BYTES = 1 << 30  # address-space cap of every op; the largest needs ~70 MB

# Three primes near 2^15: the dimensions are characteristic free and the
# arithmetic costs the same, so these variants change inputs, not work.
PRIMES = (None, "31991", "32009")


@dataclass(frozen=True)
class Op:
    kind: str  # "cli" or "resolve"
    args: tuple[str, ...]
    expect: str = "ok"  # "ok": exit 0; "error": exit 1 with "error: ..." on stderr
    check: str | None = None  # independent closed form, see checks.py
    probe: bool = False  # budget probe: hangs at the seed, so it has no recorded digest
    cap_s: float = DEFAULT_CAP_S

    @property
    def id(self) -> str:
        return " ".join((self.kind,) + self.args)


@dataclass(frozen=True)
class OpClass:
    name: str
    nominal_s: float  # wall time of one op of the class, spawn to exit, at the seed
    variants: tuple[Op, ...]
    draws: int = 1  # ops drawn from the class per repetition of the catalogue


def _cli(*args, **kw) -> Op:
    return Op("cli", tuple(args), **kw)


def _gens(gens) -> str:
    return ",".join(str(g) for g in gens)


def _with_primes(make):
    return tuple(make(() if p is None else ("--p", p)) for p in PRIMES)


# ---------------------------------------------------------------- ext-deep


def _ext(gens, q, mod, upto, tor=False):
    def make(prime):
        args = ["ext", "table", "--H", _gens(gens), "--q", str(q), "--mod", mod,
                "--range", f"0..{upto}", *prime]
        if tor:
            args.append("--tor")
        return _cli(*args)
    return _with_primes(make)


def _extdeg(gens, q, mod, window):
    return _with_primes(lambda prime: _cli(
        "extdeg", "--H", _gens(gens), "--q", str(q), "--mod", mod,
        "--window", str(window), *prime))


# Radical-square-zero truncations k[e..2e-1]/(t^e), where dim Ext^i(k,k) = (e-1)^i.
RSZ = [(2, 3), (3, 4, 5), (4, 5, 6, 7), (5, 6, 7, 8, 9)]


def _ext_closed_forms():
    """Small Ext tables with an independent closed form: dim Ext^i(k,k) over
    the radical-square-zero truncations, and Ext^{>=1}(A,A) = 0."""
    return tuple(
        _cli("ext", "table", "--H", _gens(g), "--q", str(g[0]), "--range", "0..6",
             "--json", check="ext_rsz") for g in RSZ
    ) + tuple(
        _cli("ext", "table", "--H", _gens(g), "--q", str(q), "--mod", "A",
             "--range", "0..4", "--json", check="ext_free")
        for g, q in [((3, 4, 5), 6), ((4, 6, 7, 9), 8), ((8, 11, 12, 14, 18), 8),
                     ((3, 5, 7), 9)]
    )


def _resolve(gens, q, mod, length, **kw):
    return _with_primes(lambda prime: Op(
        "resolve", ("--H", _gens(gens), "--q", str(q), "--mod", mod,
                    "--length", str(length), *prime), check="betti", **kw))


def _ext_deep():
    # Per algebra k[H]/(t^q): the cyclic summand, the depth of the Ext/Tor
    # tables of k and of cyc+k, the extdeg window, the measured seconds of
    # (ext k, tor k, ext cyc+k, extdeg k), and the draws per class; the
    # algebras whose Ext grows linearly are cheap and drawn three times, so
    # that the median falls among them.  Tor of k
    # over k[4,6,7,9]/(t^8) (None) is left out: it would repeat the heaviest
    # Ext table and put the high percentile at a gap between classes.
    table = [
        ((3, 4, 5), 6, "cyc(4)+k", 6, 5, 5, (1.45, 1.25, 0.45, 0.48), 1),
        ((3, 4, 5), 8, "cyc(4)+k", 5, 4, 4, (0.70, 0.70, 0.27, 0.37), 1),
        ((3, 5, 7), 9, "cyc(5)+k", 5, 4, 4, (1.00, 1.04, 0.35, 0.41), 1),
        ((4, 6, 7, 9), 8, "cyc(6)+k", 4, 3, 3, (2.1, None, 0.43, 0.49), 1),
        ((2, 5), 10, "cyc(5)+k", 10, 8, 8, (0.22, 0.22, 0.18, 0.18), 3),
        ((3, 7), 9, "cyc(7)+k", 10, 8, 8, (0.21, 0.21, 0.17, 0.17), 3),
        ((4, 5, 6), 8, "cyc(5)+k", 6, 5, 5, (0.29, 0.29, 0.26, 0.25), 3),
    ]
    out = []
    for gens, q, cyc, depth_k, depth_cyc, window, seconds, draws in table:
        t_ext, t_tor, t_cyc, t_deg = seconds
        tag = f"{_gens(gens)}/t^{q}"
        out.append(OpClass(f"ext k {tag}", t_ext, _ext(gens, q, "k", depth_k), draws))
        if t_tor is not None:
            out.append(OpClass(f"tor k {tag}", t_tor,
                               _ext(gens, q, "k", depth_k, tor=True), draws))
        out += [
            OpClass(f"ext {cyc} {tag}", t_cyc, _ext(gens, q, cyc, depth_cyc), draws),
            OpClass(f"extdeg k {tag}", t_deg, _extdeg(gens, q, "k", window), draws),
        ]
    out += [
        OpClass("ext closed forms", 0.15, _ext_closed_forms()),
        # The same two layers through minimal_resolution, which does not split
        # components; its Betti numbers are checked against ext_dims (the
        # ROADMAP row minimal_resolution(k, 6) over k[4..7]/(t^4)).
        OpClass("resolve k 4..7/t^4 to 6", 1.5, _resolve((4, 5, 6, 7), 4, "k", 6)),
        # Budget probe: OOM-killed at the seed (dense matrices, Betti numbers 5^i).
        OpClass("probe resolve k 6..11/t^6 to 6", PROBE_CAP_S, (
            Op("resolve", ("--H", "6,7,8,9,10,11", "--q", "6", "--mod", "k",
                           "--length", "6"), check="betti", probe=True,
               cap_s=PROBE_CAP_S),)),
    ]
    return out


# ---------------------------------------------------------------- semigroup-wide


def _sgp_info(*gens_list, json_out=False, **kw):
    extra = ("--json",) if json_out else ()
    return tuple(_cli("sgp", "info", "--gens", _gens(g), *extra, **kw) for g in gens_list)


def _semigroup_wide():
    # Mostly ops of 0.3 s and more, so that the median and the high percentile
    # fall on computing ops rather than on interpreter start, and inside a
    # cluster of ops of about the same cost rather than at a gap between
    # classes, where one op more or less would move them by a whole class:
    # the median among the certify ops over (5,~1000), p90 among the nine
    # sgp info ops over (2,~4000), which cost the same within 3%.
    big2 = [(2, 3999), (2, 4001), (2, 4003)]
    big5 = [(5, 999), (5, 1001), (5, 1003)]
    quad = [(101, 103, 107, 109)]
    return [
        OpClass("sgp info 2,~8000", 4.5, _sgp_info((2, 7999), (2, 8001), (2, 8003))),
        OpClass("sgp info 2,~4000", 1.05, _sgp_info(*big2), draws=3),
        OpClass("sgp info 5,~1000", 0.85, _sgp_info(*big5)),
        OpClass("sgp info 101,103,107,109", 0.4, _sgp_info(*quad), draws=4),
        OpClass("ideal powers 2,~8000", 0.39, tuple(
            _cli("ideal", "powers", "--gens", _gens(g), "--ideal", _gens(g),
                 "--up-to", "16", "--json", check="ulrich_layers")
            for g in [(2, 7999), (2, 8001), (2, 8003)]), draws=6),
        OpClass("certify 5,~1000", 0.34, tuple(
            _cli("certify", "--ring", f"sgp({_gens(g)})") for g in big5), draws=6),
        OpClass("ideal powers 101,103,107,109", 0.22, tuple(
            _cli("ideal", "powers", "--gens", "101,103,107,109", "--ideal", ideal,
                 "--up-to", "6") for ideal in ("101,103,107,109", "103,107,109")), draws=4),
        OpClass("ideal ulrich --q", 0.15, tuple(
            _cli("ideal", "ulrich", "--gens", _gens(g), "--ideal", _gens(g),
                 "--q", str(g[0])) for g in big2 + big5 + quad), draws=4),
        OpClass("glue", 0.16, tuple(
            _cli("glue", "--gens", _gens(g), "--n", str(n), "--m", str(m))
            for g, n, m in [((2, 3999), 3, 8000), ((2, 4001), 3, 8002),
                            ((2, 4003), 5, 8006)]), draws=2),
        OpClass("certify 2,~4000", 0.17, tuple(
            _cli("certify", "--ring", ring) for ring in (
                "glued(sgp(2,2001),3,4004)", "sgp(2,4001)", "sgp(2,4003)")), draws=2),
        OpClass("domain error", 0.13, (
            _cli("sgp", "info", "--gens", "4,6", expect="error"),
            _cli("certify", "--ring", "sgp(4,6)", expect="error"),
            _cli("ideal", "ulrich", "--gens", "3,4,5", "--ideal", "7", "--q", "3",
                 expect="error"),
            _cli("glue", "--gens", "3,4,5", "--n", "2", "--m", "4", expect="error"),
            _cli("ideal", "powers", "--gens", "3,5", "--ideal", "4", expect="error"),
        )),
        # Budget probes: each hangs at the seed (see ROADMAP baseline).
        OpClass("probe sgp info 1001,1003,1007", PROBE_CAP_S, _sgp_info(
            (1001, 1003, 1007), json_out=True, check="sgp_oracle", probe=True,
            cap_s=PROBE_CAP_S)),
        OpClass("probe sgp info 2,99999999", PROBE_CAP_S, _sgp_info(
            (2, 99999999), json_out=True, check="sgp_oracle", probe=True,
            cap_s=PROBE_CAP_S)),
    ]


WORKLOADS = {
    "ext-deep": _ext_deep,
    "semigroup-wide": _semigroup_wide,
}


def classes(workload: str) -> list[OpClass]:
    return WORKLOADS[workload]()


def draw(workload: str, seed: int, seconds: float) -> list[Op]:
    """The seed's op list: whole repetitions of the catalogue, about
    ``seconds`` of work at the seed, in a seeded order.  Each class deals its
    draws from its variants in a seeded order, so no variant is drawn twice
    before every variant has been drawn once: variants of one class differ in
    cost by up to 1.7x (``sgp info`` over (2,7999) and (2,8001)), and dealing
    them evenly keeps that out of the spread between seeds."""
    cats = classes(workload)
    per_rep = sum(c.nominal_s * c.draws for c in cats)
    reps = max(1, round(seconds / per_rep))
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for c in cats:
        deck = list(c.variants)
        rng.shuffle(deck)
        ops += [deck[i % len(deck)] for i in range(reps * c.draws)]
    rng.shuffle(ops)
    return ops
