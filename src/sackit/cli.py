"""Batch command line surface.

Every subcommand is deterministic: same arguments, same bytes out.  The
--json flag switches any subcommand to its JSON form; human and JSON
output always agree on the numeric fields.  Exit codes: 0 on success, 1 on
a domain error (reported on stderr), 2 on a usage error (click reports the
offending flag).

The default field characteristic is 32003 and can be overridden with the
SACKIT_PRIME environment variable or, where algebras are involved, --p.

`certify --help` prints the ring descriptor grammar for --ring.

Module mini-language for --mod: `k`, `A`, `cyc(g)`, joined with `+`,
e.g. `cyc(5)+A`.
"""

from __future__ import annotations

import functools
import json

import click

from . import __version__, artinian as ar
from .certify import CITATIONS, certify as run_certify, descriptor_grammar
from .errors import DomainError, MalformedDescriptor, SackitError
from .ideals import (
    SemigroupIdeal,
    is_ulrich,
    power_layer_lengths,
    search_reduction,
    ulrich_rank_formula,
    cumulative_rank_identity,
    estimate_ratio_holds,
)
from .semigroup import NumericalSemigroup


def _echo_json(data) -> None:
    click.echo(json.dumps(data, sort_keys=True, indent=2))


def _domain_guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SackitError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1)

    return wrapper


def _int_list(text: str, flag: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise click.BadParameter("expected comma-separated integers", param_hint=flag)


def _parse_range(text: str):
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise click.BadParameter("expected LO..HI", param_hint="--range")
    if lo < 0 or hi < lo:
        raise click.BadParameter("need 0 <= LO <= HI", param_hint="--range")
    return lo, hi


def parse_module_expr(algebra, text: str):
    """Module mini-language: k | A | cyc(g), summed with '+'."""
    total = None
    for raw in text.split("+"):
        part = raw.strip()
        if part == "k":
            piece = ar.residue_field(algebra)
        elif part == "A":
            piece = ar.free_module(algebra, 1)
        elif part.startswith("cyc(") and part.endswith(")"):
            body = part[4:-1]
            try:
                degree = int(body)
            except ValueError:
                raise MalformedDescriptor(f"bad cyclic degree {body!r}") from None
            piece = ar.cyclic_quotient(algebra, degree)
        else:
            raise MalformedDescriptor(f"bad module expression part {part!r}")
        total = piece if total is None else ar.direct_sum(total, piece)
    if total is None:
        raise MalformedDescriptor("empty module expression")
    return total


def _algebra_from_flags(gens_text, q, prime):
    H = NumericalSemigroup.from_generators(_int_list(gens_text, "--H"))
    return ar.truncation_algebra(H, q, char=prime)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="sackit")
def main() -> None:
    """Exact tools for numerical semigroups, Ulrich ideals, Ext/Tor tables
    over Artinian monomial algebras, and (SAC) certificates."""


# ---------------------------------------------------------------- sgp


@main.group()
def sgp() -> None:
    """Numerical semigroup inspection."""


@sgp.command("info")
@click.option("--gens", required=True, help="comma-separated generators")
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def sgp_info(gens: str, as_json: bool) -> None:
    """Invariants of the numerical semigroup generated by --gens."""
    H = NumericalSemigroup.from_generators(_int_list(gens, "--gens"))
    data = {
        "generators": list(H.generators),
        "multiplicity": H.multiplicity,
        "embedding_dim": H.embedding_dim,
        "frobenius": H.frobenius,
        "genus": H.genus,
        "minimal_multiplicity": H.has_minimal_multiplicity(),
        "almost_minimal_multiplicity": H.has_almost_minimal_multiplicity(),
        "gap_symmetric": H.is_gap_symmetric(),
        "apery_of_multiplicity": list(H.apery_set(H.multiplicity)),
    }
    if as_json:
        _echo_json(data)
        return
    width = max(len(k) for k in data)
    for key, value in data.items():
        if isinstance(value, list):
            value = ",".join(str(x) for x in value)
        click.echo(f"{key.ljust(width)}  {value}")


# ---------------------------------------------------------------- ideal


@main.group()
def ideal() -> None:
    """Monomial (semigroup) ideal computations."""


def _load_ideal(gens: str, ideal_gens: str):
    H = NumericalSemigroup.from_generators(_int_list(gens, "--gens"))
    return SemigroupIdeal.from_generators(H, _int_list(ideal_gens, "--ideal"))


@ideal.command("ulrich")
@click.option("--gens", required=True, help="semigroup generators")
@click.option("--ideal", "ideal_gens", required=True, help="ideal generators")
@click.option("--q", type=int, default=None, help="reduction degree (searched if omitted)")
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def ideal_ulrich(gens: str, ideal_gens: str, q: int | None, as_json: bool) -> None:
    """Ulrich test: stability I^2 = t^q I plus freeness of I/I^2."""
    I = _load_ideal(gens, ideal_gens)
    if q is None:
        q = search_reduction(I)
        if q is None:
            raise DomainError("no stable reduction degree among the generators")
    report = is_ulrich(I, q)
    if as_json:
        _echo_json(report.to_json_dict())
        return
    for key, value in sorted(report.to_json_dict().items()):
        click.echo(f"{key}={str(value).lower() if isinstance(value, bool) else value}")


@ideal.command("powers")
@click.option("--gens", required=True)
@click.option("--ideal", "ideal_gens", required=True)
@click.option("--up-to", "up_to", type=int, default=5, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def ideal_powers(gens: str, ideal_gens: str, up_to: int, as_json: bool) -> None:
    """Layer lengths l(I^i/I^(i+1)) against the rank-formula prediction."""
    I = _load_ideal(gens, ideal_gens)
    layers = power_layer_lengths(I, up_to)
    mu = I.mu()
    colength = I.colength()
    predicted = [ulrich_rank_formula(1, mu, i) * colength for i in range(1, up_to + 1)]
    data = {
        "mu": mu,
        "colength": colength,
        "layers": list(layers),
        "predicted": predicted,
        "matches": [a == b for a, b in zip(layers, predicted)],
    }
    if as_json:
        _echo_json(data)
        return
    click.echo(f"mu={mu} colength={colength}")
    click.echo("i    enumerated  predicted  match")
    for i, (got, want) in enumerate(zip(layers, predicted), start=1):
        click.echo(f"{str(i).ljust(4)} {str(got).ljust(11)} {str(want).ljust(10)} "
                   f"{str(got == want).lower()}")


# ---------------------------------------------------------------- glue


@main.command("glue")
@click.option("--gens", required=True, help="inner semigroup generators")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def glue_cmd(gens: str, n: int, m: int, as_json: bool) -> None:
    """Generators of the gluing n*H + <m>."""
    H = NumericalSemigroup.from_generators(_int_list(gens, "--gens"))
    glued = H.glue(n, m)
    if as_json:
        _echo_json({"generators": list(glued.generators)})
        return
    click.echo(str(glued))


# ---------------------------------------------------------------- ext


@main.group()
def ext() -> None:
    """Ext/Tor dimension tables over truncation algebras."""


@ext.command("table")
@click.option("--H", "gens_text", required=True, help="semigroup generators")
@click.option("--q", type=int, required=True, help="truncation degree")
@click.option("--mod", "mod_text", default="k", show_default=True)
@click.option("--range", "range_text", default="0..8", show_default=True)
@click.option("--p", "prime", type=int, default=None, help="field characteristic")
@click.option("--tor", "use_tor", is_flag=True, help="Tor instead of Ext")
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def ext_table(gens_text, q, mod_text, range_text, prime, use_tor, as_json) -> None:
    """dim Ext^i(M, M) (or Tor_i) for i in --range over k[H]/(t^q)."""
    lo, hi = _parse_range(range_text)
    algebra = _algebra_from_flags(gens_text, q, prime)
    module = parse_module_expr(algebra, mod_text)
    fn = ar.tor_dims if use_tor else ar.ext_dims
    dims = fn(module, module, hi)[lo:]
    data = {
        "algebra": algebra.descriptor(),
        "module": mod_text,
        "functor": "tor" if use_tor else "ext",
        "range": [lo, hi],
        "dims": list(dims),
    }
    if as_json:
        _echo_json(data)
        return
    cells = [(str(i), str(d)) for i, d in zip(range(lo, hi + 1), dims)]
    widths = [max(len(a), len(b)) for a, b in cells]
    click.echo(f"{data['functor']} over {data['algebra']}, M = {mod_text}")
    click.echo("i:   " + "  ".join(a.rjust(w) for (a, _), w in zip(cells, widths)))
    click.echo("dim: " + "  ".join(b.rjust(w) for (_, b), w in zip(cells, widths)))


@main.command("extdeg")
@click.option("--H", "gens_text", required=True)
@click.option("--q", type=int, required=True)
@click.option("--mod", "mod_text", required=True)
@click.option("--window", type=int, default=12, show_default=True)
@click.option("--p", "prime", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def extdeg(gens_text, q, mod_text, window, prime, as_json) -> None:
    """Bounded scan of dim Ext^i(M+A, M+A), 1 <= i <= window."""
    algebra = _algebra_from_flags(gens_text, q, prime)
    module = parse_module_expr(algebra, mod_text)
    report = ar.ext_deg_window(module, window)
    data = report.to_json_dict()
    if as_json:
        _echo_json(data)
        return
    click.echo(f"last_nonzero_in_window={data['last_nonzero_in_window']}")
    click.echo(f"nonzero_at_boundary={str(data['nonzero_at_boundary']).lower()}")


# ---------------------------------------------------------------- lemma42


@main.command("lemma42")
@click.option("--n", "n_max", type=int, default=8, show_default=True)
@click.option("--cmax", type=int, default=14, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def lemma42(n_max: int, cmax: int, as_json: bool) -> None:
    """Exhaustive rank-ratio and cumulative-identity sweep.

    For every 2 <= l <= n <= N and n <= c <= CMAX: the chain a_i of
    predicted layer ranks satisfies (1 + a_2 + ... + a_(l-1)) < a_l, and
    the telescoped rank identity holds for 3 <= l <= n.
    """
    if n_max < 2:
        raise DomainError("need --n >= 2")
    ratio_checked = 0
    ratio_failures = []
    identity_checked = 0
    identity_failures = []
    for n in range(2, n_max + 1):
        for c in range(n, cmax + 1):
            for ell in range(2, n + 1):
                chain = [ulrich_rank_formula(n, c, i - 1) for i in range(2, ell + 1)]
                ratio_checked += 1
                if not estimate_ratio_holds(chain):
                    ratio_failures.append([n, c, ell])
                if ell >= 3:
                    identity_checked += 1
                    if not cumulative_rank_identity(n, c, ell):
                        identity_failures.append([n, c, ell])
    data = {
        "n": n_max,
        "cmax": cmax,
        "ratio_checked": ratio_checked,
        "ratio_failures": ratio_failures,
        "identity_checked": identity_checked,
        "identity_failures": identity_failures,
    }
    if as_json:
        _echo_json(data)
        return
    click.echo(f"ratio checks:    {ratio_checked} run, {len(ratio_failures)} failed")
    click.echo(f"identity checks: {identity_checked} run, {len(identity_failures)} failed")
    for tag, failures in (("ratio", ratio_failures), ("identity", identity_failures)):
        for n, c, ell in failures:
            click.echo(f"FAIL {tag}: n={n} c={c} l={ell}")


# ---------------------------------------------------------------- certify


@main.command("certify", epilog="\b\n" + descriptor_grammar())
@click.option("--ring", required=True, help="ring descriptor, grammar below")
@click.option("--rule", type=click.Choice(sorted(CITATIONS)), default=None,
              help="restrict the root to one rule")
@click.option("--depth", type=int, default=8, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@_domain_guard
def certify_cmd(ring: str, rule: str | None, depth: int, as_json: bool) -> None:
    """Search for a (SAC) certificate for the described ring."""
    cert = run_certify(ring, depth=depth, root_rules=None if rule is None else [rule])
    if as_json:
        click.echo(cert.to_json())
        return
    click.echo(cert.render())
