"""Batch command line surface.

Every subcommand is deterministic: same arguments, same bytes out.  Each
command function returns ``(data, text)``: its JSON record and its text
form, which always agree on the numeric fields.  `main` alone renders one of
them (the record with --json, which every subcommand takes), prints and
flushes.  Exit codes: 0 on success, 1 on a domain error (reported on stderr)
or when the reader of stdout has gone, 2 on a usage error (reported on
stderr under the usage line, naming the offending flag).

`main` reads a valid command line off the `COMMANDS` table itself; help,
--version, --rule and usage errors go to an argparse parser built from the
same table, so a valid command never imports argparse.

The field characteristic comes from --p alone, on the two commands that
build an algebra (`ext table`, `extdeg`); it defaults to 32003.

`certify --help` prints the ring descriptor grammar for --ring.

Module mini-language for --mod: `k`, `A`, `cyc(g)`, joined with `+`,
e.g. `cyc(5)+A`.
"""

from __future__ import annotations

import os
import sys

# modules, not names: a lazy module compiles and runs only when a command
# first reaches into it, and `certify` is imported by the certify command alone
from . import __version__, artinian as ar, ideals, semigroup
from .errors import DomainError, MalformedDescriptor, SackitError


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        import argparse  # on a bad value only, as in the other error branches
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError("expected LO..HI") from None
    if lo < 0 or hi < lo:
        import argparse
        raise argparse.ArgumentTypeError("need 0 <= LO <= HI")
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


def _algebra(gens, q, prime):
    H = semigroup.NumericalSemigroup.from_generators(gens)
    return ar.truncation_algebra(H, q, char=prime)


def _key_values(data) -> str:
    """One ``key=value`` line per field, keys sorted, booleans lowercase."""
    return "\n".join(f"{key}={str(value).lower() if isinstance(value, bool) else value}"
                     for key, value in sorted(data.items()))


def sgp_info(gens):
    """Invariants of the numerical semigroup generated by --gens."""
    H = semigroup.NumericalSemigroup.from_generators(gens)
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
    shown = {k: ",".join(map(str, v)) if isinstance(v, list) else v for k, v in data.items()}
    width = max(len(k) for k in data)
    return data, "\n".join(f"{key.ljust(width)}  {value}" for key, value in shown.items())


def _load_ideal(gens, ideal):
    H = semigroup.NumericalSemigroup.from_generators(gens)
    return ideals.SemigroupIdeal.from_generators(H, ideal)


def ideal_ulrich(gens, ideal, q):
    """Ulrich test: stability I^2 = t^q I plus freeness of I/I^2."""
    I = _load_ideal(gens, ideal)
    if q is None:
        q = ideals.search_reduction(I)
        if q is None:
            raise DomainError("no stable reduction degree among the generators")
    data = ideals.is_ulrich(I, q).to_json_dict()
    return data, _key_values(data)


def ideal_powers(gens, ideal, up_to):
    """Layer lengths l(I^i/I^(i+1)) against the rank-formula prediction."""
    I = _load_ideal(gens, ideal)
    layers = ideals.power_layer_lengths(I, up_to)
    mu = I.mu()
    colength = I.colength()
    predicted = [ideals.ulrich_rank_formula(1, mu, i) * colength for i in range(1, up_to + 1)]
    data = {
        "mu": mu,
        "colength": colength,
        "layers": list(layers),
        "predicted": predicted,
        "matches": [a == b for a, b in zip(layers, predicted)],
    }
    lines = [f"mu={mu} colength={colength}", "i    enumerated  predicted  match"]
    for i, (got, want) in enumerate(zip(layers, predicted), start=1):
        lines.append(f"{str(i).ljust(4)} {str(got).ljust(11)} {str(want).ljust(10)} "
                     f"{str(got == want).lower()}")
    return data, "\n".join(lines)


def glue_cmd(gens, n, m):
    """Generators of the gluing n*H + <m>."""
    glued = semigroup.NumericalSemigroup.from_generators(gens).glue(n, m)
    return {"generators": list(glued.generators)}, str(glued)


def ext_table(gens, q, mod, bounds, prime, tor):
    """dim Ext^i(M, M) (or Tor_i) for i in --range over k[H]/(t^q)."""
    lo, hi = bounds
    algebra = _algebra(gens, q, prime)
    module = parse_module_expr(algebra, mod)
    fn = ar.tor_dims if tor else ar.ext_dims
    dims = fn(module, module, hi)[lo:]
    data = {
        "algebra": algebra.descriptor(),
        "module": mod,
        "functor": "tor" if tor else "ext",
        "range": [lo, hi],
        "dims": list(dims),
    }
    cells = [(str(i), str(d)) for i, d in zip(range(lo, hi + 1), dims)]
    widths = [max(len(a), len(b)) for a, b in cells]
    return data, "\n".join([
        f"{data['functor']} over {data['algebra']}, M = {mod}",
        "i:   " + "  ".join(a.rjust(w) for (a, _), w in zip(cells, widths)),
        "dim: " + "  ".join(b.rjust(w) for (_, b), w in zip(cells, widths))])


def extdeg(gens, q, mod, window, prime):
    """Bounded scan of dim Ext^i(M+A, M+A), 1 <= i <= window."""
    algebra = _algebra(gens, q, prime)
    data = ar.ext_deg_window(parse_module_expr(algebra, mod), window).to_json_dict()
    return data, _key_values(data)


def lemma42(n_max, cmax):
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
                chain = [ideals.ulrich_rank_formula(n, c, i - 1) for i in range(2, ell + 1)]
                ratio_checked += 1
                if not ideals.estimate_ratio_holds(chain):
                    ratio_failures.append([n, c, ell])
                if ell >= 3:
                    identity_checked += 1
                    if not ideals.cumulative_rank_identity(n, c, ell):
                        identity_failures.append([n, c, ell])
    data = {
        "n": n_max,
        "cmax": cmax,
        "ratio_checked": ratio_checked,
        "ratio_failures": ratio_failures,
        "identity_checked": identity_checked,
        "identity_failures": identity_failures,
    }
    lines = [f"ratio checks:    {ratio_checked} run, {len(ratio_failures)} failed",
             f"identity checks: {identity_checked} run, {len(identity_failures)} failed"]
    for tag, failures in (("ratio", ratio_failures), ("identity", identity_failures)):
        lines += [f"FAIL {tag}: n={n} c={c} l={ell}" for n, c, ell in failures]
    return data, "\n".join(lines)


def certify_cmd(ring, rule, depth):
    """Search for a (SAC) certificate for the described ring."""
    from .certify import certify

    cert = certify(ring, depth=depth, root_rules=None if rule is None else [rule])
    return cert.to_json_dict(), cert.render()


# ---------------------------------------------------------------- command table


def _flag(name, **options):
    return name, options


_GENS = _flag("--gens", type=_int_list, required=True, help="semigroup generators")
_IDEAL = _flag("--ideal", type=_int_list, required=True, help="ideal generators")
_H = _flag("--H", dest="gens", type=_int_list, required=True, help="semigroup generators")
_Q = _flag("--q", type=int, required=True, help="truncation degree")
_P = _flag("--p", dest="prime", type=int, help="field characteristic")
_JSON = _flag("--json", dest="as_json", action="store_true", help="print JSON")

_GROUPS = {
    "sgp": "Numerical semigroup inspection.",
    "ideal": "Monomial (semigroup) ideal computations.",
    "ext": "Ext/Tor dimension tables over truncation algebras.",
}

# command path -> (function, flags), where a two-word path names a command
# of a group; flag values are converted while parsing, and every command
# also takes --json (_JSON)
COMMANDS = {
    "sgp info": (sgp_info, [_GENS]),
    "ideal ulrich": (ideal_ulrich, [_GENS, _IDEAL, _flag(
        "--q", type=int, help="reduction degree (searched if omitted)")]),
    "ideal powers": (ideal_powers, [_GENS, _IDEAL, _flag(
        "--up-to", type=int, default=5, help="last power (default: %(default)s)")]),
    "glue": (glue_cmd, [
        _flag("--gens", type=_int_list, required=True, help="inner semigroup generators"),
        _flag("--n", type=int, required=True), _flag("--m", type=int, required=True)]),
    "ext table": (ext_table, [
        _H, _Q, _flag("--mod", default="k", help="module (default: %(default)s)"),
        _flag("--range", dest="bounds", metavar="LO..HI", type=_parse_range,
              default="0..8", help="degrees (default: %(default)s)"),
        _P, _flag("--tor", action="store_true", help="Tor instead of Ext")]),
    "extdeg": (extdeg, [_H, _Q, _flag("--mod", required=True, help="module"), _flag(
        "--window", type=int, default=12, help="last degree (default: %(default)s)"), _P]),
    "lemma42": (lemma42, [
        _flag("--n", dest="n_max", metavar="N", type=int, default=8, help="default: %(default)s"),
        _flag("--cmax", type=int, default=14, help="default: %(default)s")]),
    "certify": (certify_cmd, [
        _flag("--ring", required=True, help="ring descriptor, grammar below"),
        _flag("--rule", help="restrict the root to one rule"),  # choices set in `_parser`
        _flag("--depth", type=int, default=8, help="search depth (default: %(default)s)")]),
}


def _read(args: list[str]) -> dict | None:
    """What `_parser` would parse from ``args``, read off COMMANDS, or None
    to leave the line to it: help, --version, --rule (its choices live in
    certify), usage errors, and what argparse reads by rules not repeated
    here (options before the words, repeated or `=` flags, `-` values)."""
    path = next((p for p in COMMANDS if p.split() == args[:len(p.split())]), None)
    if path is None:
        return None
    fn, flags = COMMANDS[path]
    flags = dict([*flags, _JSON])
    given, words = {}, iter(args[len(path.split()):])
    for flag in words:
        if flag not in flags or flag in given or flag == "--rule":
            return None
        value = True if "action" in flags[flag] else next(words, "-")
        if value is not True and value.startswith("-"):
            return None
        given[flag] = value
    values = {"run": fn}
    for flag, options in flags.items():
        if options.get("required") and flag not in given:
            return None
        value = given.get(flag, options.get("default", False if "action" in options else None))
        try:
            value = options.get("type", str)(value) if isinstance(value, str) else value
        except Exception:  # ArgumentTypeError too: argparse converts again and reports it
            return None
        values[options.get("dest", flag[2:].replace("-", "_"))] = value
    return values


def _parser(prog: str | None, args: list[str]):
    """The parser of the command whose path ``args`` start with, or of every
    command (for help at the root or a group).  Only the command whose path
    the non-option words of ``args`` start with gets flags: the root and the
    groups take no values, so those words route argparse, and the other
    commands' flags (and certify's module) would only cost start-up."""
    import argparse  # help, --version and usage errors: `_read` takes the rest

    class _Formatter(argparse.RawDescriptionHelpFormatter):
        """Descriptions and epilogs as written, under a `Usage: ` line."""

        def add_usage(self, usage, actions, groups, prefix="Usage: "):
            super().add_usage(usage, actions, groups, prefix)

    paths = [path for path in COMMANDS if path.split() == args[:len(path.split())]]
    words = [arg for arg in args if not arg.startswith("-")]
    settings = {"formatter_class": _Formatter, "allow_abbrev": False}
    root = argparse.ArgumentParser(
        prog=prog, **settings,
        description="Exact tools for numerical semigroups, Ulrich ideals, Ext/Tor tables\n"
                    "over Artinian monomial algebras, and (SAC) certificates.")
    root.add_argument("--version", action="version", version=f"sackit, version {__version__}")
    levels = {"": root.add_subparsers(title="commands", metavar="COMMAND", required=True)}
    for path in paths or COMMANDS:
        fn, flags = COMMANDS[path]
        group, _, name = path.rpartition(" ")
        if group not in levels:
            about = _GROUPS[group]
            parent = levels[""].add_parser(group, help=about, description=about, **settings)
            levels[group] = parent.add_subparsers(
                title="commands", metavar="COMMAND", required=True)
        doc = "\n".join(line.strip() for line in (fn.__doc__ or "").splitlines())
        summary = doc.partition("\n")[0]
        if path.split() != words[:len(path.split())]:
            levels[group].add_parser(name, help=summary)
            continue
        if path == "certify":  # its rule names and grammar live in its module
            from .certify import CITATIONS, descriptor_grammar
        command = levels[group].add_parser(
            name, help=summary, description=doc,
            epilog=descriptor_grammar() if path == "certify" else None, **settings)
        for flag, options in (*flags, _JSON):
            if flag == "--rule":  # certify's rule names
                options = {**options, "choices": sorted(CITATIONS)}
            command.add_argument(flag, **options)
        command.set_defaults(run=fn)
    return root


class _Main:
    """The `sackit` entry point: `main` parses, runs one command, prints its
    record or text and always raises SystemExit (0, 1 on a domain error or
    when the reader of stdout has gone, 2 on a usage error)."""

    def main(self, args=None, prog_name=None):
        args = sys.argv[1:] if args is None else list(args)
        if hasattr(sys.stdout, "reconfigure"):  # certificate quotes are not ASCII
            sys.stdout.reconfigure(encoding="utf-8")
        try:
            try:
                options = _read(args) or vars(_parser(prog_name, args).parse_args(args))
                as_json = options.pop("as_json")
                data, text = options.pop("run")(**options)
                if as_json:
                    import json  # on use: the import costs every command's start-up

                    text = json.dumps(data, sort_keys=True, indent=2)
                print(text)
            except SackitError as exc:
                print(f"error: {exc}", file=sys.stderr)
                raise SystemExit(1)
            finally:
                # also after argparse printed help or the version and exited
                sys.stdout.flush()
        except BrokenPipeError:
            # `sackit ... | head -1`: the rest of the output has nowhere to
            # go, and the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(1)
        raise SystemExit(0)

    def __call__(self, args=None, prog_name=None):
        self.main(args, prog_name)


main = _Main()
