"""Batch command line surface.

Every subcommand is deterministic: same arguments, same bytes out.  Each
command function returns ``(data, text)``: its JSON record and its text
form, which always agree on the numeric fields.  `main` alone renders one of
them (the record with --json, which every subcommand takes), prints and
flushes.  Exit codes: 0 on success, 1 on a domain error (reported on stderr)
or when the reader of stdout has gone, 2 on a usage error (reported on
stderr under the usage line, naming the offending flag).  `main.main`
raises SystemExit with the code, for in-process callers; `main(...)`, the
console script and `python -m sackit`, flushes stdout and stderr and ends
the process with `os._exit`, without interpreter teardown.

`main` reads a valid command line off the `COMMANDS` table itself and
compiles only the code that command runs: the `ideal` and `lemma42` bodies
live in `_cli_ideal`, the `ext table` and `extdeg` bodies (with the --mod
mini-language) in `_cli_ext`, each loaded on dispatch.  Help, --version,
--rule and usage errors go to the argparse parser of `_cli_help`, built from
the same table, so a valid command never imports argparse.

The field characteristic comes from --p alone, on the two commands that
build an algebra (`ext table`, `extdeg`); it defaults to 32003.
`certify --help` prints the ring descriptor grammar for --ring.
"""

from __future__ import annotations

import importlib
import os
import sys

# a module, not names: a lazy module compiles and runs only when a command
# first reaches into it, and `certify` is imported by the certify command alone
from . import semigroup
from .errors import SackitError


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


def _key_values(data) -> str:
    """One ``key=value`` line per field, keys sorted, booleans lowercase."""
    return "\n".join(f"{key}={str(value).lower() if isinstance(value, bool) else value}"
                     for key, value in sorted(data.items()))


def sgp_info(gens):
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


def glue_cmd(gens, n, m):
    glued = semigroup.NumericalSemigroup.from_generators(gens).glue(n, m)
    return {"generators": list(glued.generators)}, str(glued)


def certify_cmd(ring, rule, depth):
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

# command path -> (body, flags, help), where a two-word path names a command
# of a group.  A body is "module.function", in this module or the module of
# its command family, which loads when the command runs; the first line of
# the help is the command's summary.  Flag values are converted while
# parsing, and every command also takes --json (_JSON)
COMMANDS = {
    "sgp info": ("cli.sgp_info", [_GENS],
                 "Invariants of the numerical semigroup generated by --gens."),
    "ideal ulrich": ("_cli_ideal.ideal_ulrich", [_GENS, _IDEAL, _flag(
        "--q", type=int, help="reduction degree (searched if omitted)")],
        "Ulrich test: stability I^2 = t^q I plus freeness of I/I^2."),
    "ideal powers": ("_cli_ideal.ideal_powers", [_GENS, _IDEAL, _flag(
        "--up-to", type=int, default=5, help="last power (default: %(default)s)")],
        "Layer lengths l(I^i/I^(i+1)) against the rank-formula prediction."),
    "glue": ("cli.glue_cmd", [
        _flag("--gens", type=_int_list, required=True, help="inner semigroup generators"),
        _flag("--n", type=int, required=True), _flag("--m", type=int, required=True)],
        "Generators of the gluing n*H + <m>."),
    "ext table": ("_cli_ext.ext_table", [
        _H, _Q, _flag("--mod", default="k", help="module (default: %(default)s)"),
        _flag("--range", dest="bounds", metavar="LO..HI", type=_parse_range,
              default="0..8", help="degrees (default: %(default)s)"),
        _P, _flag("--tor", action="store_true", help="Tor instead of Ext")],
        "dim Ext^i(M, M) (or Tor_i) for i in --range over k[H]/(t^q)."),
    "extdeg": ("_cli_ext.extdeg", [_H, _Q, _flag("--mod", required=True, help="module"), _flag(
        "--window", type=int, default=12, help="last degree (default: %(default)s)"), _P],
        "Bounded scan of dim Ext^i(M+A, M+A), 1 <= i <= window."),
    "lemma42": ("_cli_ideal.lemma42", [
        _flag("--n", dest="n_max", metavar="N", type=int, default=8, help="default: %(default)s"),
        _flag("--cmax", type=int, default=14, help="default: %(default)s")],
        "Exhaustive rank-ratio and cumulative-identity sweep.\n\n"
        "For every 2 <= l <= n <= N and n <= c <= CMAX: the chain a_i of\n"
        "predicted layer ranks satisfies (1 + a_2 + ... + a_(l-1)) < a_l, and\n"
        "the telescoped rank identity holds for 3 <= l <= n."),
    "certify": ("cli.certify_cmd", [
        _flag("--ring", required=True, help="ring descriptor, grammar below"),
        _flag("--rule", help="restrict the root to one rule"),  # choices set in `_cli_help`
        _flag("--depth", type=int, default=8, help="search depth (default: %(default)s)")],
        "Search for a (SAC) certificate for the described ring."),
}


def _read(args: list[str]) -> dict | None:
    """What `_parser` would parse from ``args``, read off COMMANDS, or None
    to leave the line to it: help, --version, --rule (its choices live in
    certify), usage errors, and what argparse reads by rules not repeated
    here (options before the words, repeated or `=` flags, a value that
    starts with `-` and no digit)."""
    path = next((p for p in COMMANDS if p.split() == args[:len(p.split())]), None)
    if path is None:
        return None
    run, flags, _ = COMMANDS[path]
    flags = dict([*flags, _JSON])
    given, words = {}, iter(args[len(path.split()):])
    for flag in words:
        if flag not in flags or flag in given or flag == "--rule":
            return None
        value = True if "action" in flags[flag] else next(words, "-")
        if value is not True and value.startswith("-") and not value[1:2].isdecimal():
            return None
        given[flag] = value
    values = {"run": run}
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
    """The argparse parser of `_cli_help`, for the lines `_read` declines."""
    from ._cli_help import parser  # argparse and the parser builder, off the run path

    return parser(prog, args)


class _Main:
    """The `sackit` entry point.  `main` parses, runs one command, prints its
    record or text and always raises SystemExit (0, 1 on a domain error or
    when the reader of stdout has gone, 2 on a usage error); in-process
    callers use it.  Calling the object runs `main` and ends the process with
    its exit code, after flushing stdout and stderr, by `os._exit`: the
    interpreter's teardown (module cleanup, a last collection, `atexit`
    handlers) would cost every one-shot command about 10 ms after its output
    is written."""

    def main(self, args=None, prog_name=None):
        args = sys.argv[1:] if args is None else list(args)
        if hasattr(sys.stdout, "reconfigure"):  # certificate quotes are not ASCII
            sys.stdout.reconfigure(encoding="utf-8")
        try:
            try:
                options = _read(args) or vars(_parser(prog_name, args).parse_args(args))
                as_json, run = options.pop("as_json"), options.pop("run")
                module, _, name = run.partition(".")  # loads a command family on dispatch
                run = getattr(importlib.import_module(f"{__package__}.{module}"), name)
                data, text = run(**options)
                if as_json:
                    import json  # on use: the import costs every command's start-up

                    text = json.dumps(data, sort_keys=True, indent=2)
                print(text)
            except SackitError as exc:
                print(f"error: {exc}", file=sys.stderr)
                raise SystemExit(1)
            except ValueError as exc:
                # str() and json.dumps refuse an int past the interpreter's
                # limit on decimal digits; input integers never get this far
                if "integer string conversion" not in str(exc):
                    raise
                print(f"error: a result has more than {sys.get_int_max_str_digits()} "
                      "decimal digits", file=sys.stderr)
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
        try:
            self.main(args, prog_name)
        except SystemExit as exc:
            if exc.code is not None and not isinstance(exc.code, int):
                raise  # a message to print: the interpreter's exit path does it
            code = exc.code or 0
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                try:
                    stream.flush()
                except (BrokenPipeError, ValueError):  # reader gone, or stream closed
                    pass
        os._exit(code)


main = _Main()
