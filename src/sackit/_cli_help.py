"""The argparse parser of the command line, built from `cli.COMMANDS` for
the lines `cli._read` declines (help, --version, --rule and usage errors),
and the ring descriptor grammar that `certify --help` prints."""

import argparse
import re

from . import __version__
from .cli import _JSON, COMMANDS

_GROUPS = {
    "sgp": "Numerical semigroup inspection.",
    "ideal": "Monomial (semigroup) ideal computations.",
    "ext": "Ext/Tor dimension tables over truncation algebras.",
}


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """Descriptions and epilogs as written, under a `Usage: ` line."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


def parser(prog: str | None, args: list[str]) -> argparse.ArgumentParser:
    """The parser of the command whose path ``args`` start with, or of every
    command (for help at the root or a group).  Only the command whose path
    the non-option words of ``args`` start with gets flags: the root and the
    groups take no values, so those words route argparse, and the other
    commands' flags (and certify's module) would only cost start-up."""
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
        run, flags, doc = COMMANDS[path]
        group, _, name = path.rpartition(" ")
        if group not in levels:
            about = _GROUPS[group]
            parent = levels[""].add_parser(group, help=about, description=about, **settings)
            levels[group] = parent.add_subparsers(
                title="commands", metavar="COMMAND", required=True)
        summary = doc.partition("\n")[0]
        if path.split() != words[:len(path.split())]:
            levels[group].add_parser(name, help=summary)
            continue
        if path == "certify":  # its rule names live in its module
            from .certify import CITATIONS
        command = levels[group].add_parser(
            name, help=summary, description=doc,
            epilog=descriptor_grammar() if path == "certify" else None, **settings)
        # -2,3 is a value, as in --gens=-2,3, not an unknown flag (none starts
        # with - and a digit); argparse would take only a plain number so
        command._negative_number_matcher = re.compile(r"-\d")
        for flag, options in (*flags, _JSON):
            if flag == "--rule":  # certify's rule names
                options = {**options, "choices": sorted(CITATIONS)}
            command.add_argument(flag, **options)
        command.set_defaults(run=run)
    return root


def descriptor_grammar() -> str:
    """The descriptor grammar, one line per head, rendered from the table."""
    from .certify import _HEADS, _SLOT_KINDS, MAX_NESTING

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
