"""Contract fuzzer for the command line: every line ends in a result with
exit 0, in exactly one ``error: `` line on stderr with exit 1, or in a usage
message with exit 2, and never in a traceback, a kill or a hang.

Run from anywhere (standard library only):

    python tools/fuzz.py --seed 1 --lines 400

``draw(seed, lines)`` draws the command lines from ``random.Random(seed)``:
the words of a command of ``sackit.cli.COMMANDS``, then its flags in a
shuffled order, a required one left out one time in ten and any other one
time in two, and one time in ten a stray flag.  A number is small, huge,
negative or malformed, or sits at or one past a cap (each cap that
``sackit.errors.TooLarge`` names, MAX_PRIME and MAX_NESTING); a generator
list may be the wide family <n, ..., 2n - 1> at the Apery edge cap.  A
``--ring`` is drawn from the heads and slot kinds of ``sackit.certify``,
nested up to MAX_NESTING + 1 deep.

The lines run one after another, each in a child ``python -m sackit`` under
a 1 GiB address-space limit and a 30 s wall cap.  One row is printed per
line: its number, how it ended, its time, the first 12 hex digits of the
sha256 of its stdout and stderr, and the line (shortened past 160
characters).  A find is any other ending: a traceback, another exit code, a
kill or the wall cap.  Exit status 0 when there is no find, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from sackit import _cli_ideal, artinian, ideals, semigroup  # noqa: E402
from sackit.certify import _HEADS, CITATIONS, MAX_NESTING  # noqa: E402
from sackit.cli import _JSON, COMMANDS, _int_list, _parse_range  # noqa: E402
from sackit.errors import TooLarge  # noqa: E402

MEMORY = 1 << 30
WALL_S = 30

# every cap TooLarge names, read off its docstring so that a new cap is drawn
# as soon as it is documented, and the two bounds that are not TooLarge caps
_HOMES = (semigroup, ideals, _cli_ideal, artinian)
CAPS = tuple(
    next(getattr(home, name) for home in _HOMES if hasattr(home, name))
    for name in re.findall(r"MAX_[A-Z_]+", TooLarge.__doc__)
) + (artinian.MAX_PRIME, MAX_NESTING)

_MALFORMED = ("", "x", "1.5", "0x10", "1e3", "--", "٣", " 7", "+3", "3_0")


def _number(rng: random.Random) -> str:
    """Small, huge (up to one digit past the interpreter's limit on decimal
    digits), negative, at or one past a cap, or malformed."""
    kind = rng.randrange(8)
    if kind < 3:
        return str(rng.randint(0, 20))
    if kind == 3:
        return "9" * rng.choice((12, 30, sys.get_int_max_str_digits(),
                                 sys.get_int_max_str_digits() + 1))
    if kind == 4:
        return str(-rng.choice((1, 2, 7, 10**30)))
    if kind == 5:
        return rng.choice(_MALFORMED)
    return str(rng.choice(CAPS) + rng.randint(0, 1))


def _numbers(rng: random.Random) -> str:
    """A generator list: a few numbers, the wide family <n, ..., 2n - 1> (its
    multiplicity times its length at the Apery edge cap from n = 2048 on, or
    one past it), two consecutive numbers at a cap, or malformed text."""
    kind = rng.randrange(8)
    if kind < 5:
        items = [str(rng.randint(-1, 30)) if rng.random() < 0.9 else _number(rng)
                 for _ in range(rng.randint(1, 5))]
    elif kind == 5:
        n = rng.choice((rng.randint(2, 60), 400, 800, 2048, 2049))
        items = range(n, 2 * n - rng.randint(0, 1) * (n // 2))
    elif kind == 6:
        cap = rng.choice(CAPS) + rng.randint(0, 1)
        items = (cap, cap + 1)
    else:
        return rng.choice(("3,,4", "3;4", "a,b", ",", "3,x", "-", "4..5"))
    return ",".join(map(str, items))


def _range(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(("3", "1..2..3", "a..b", "..", "5..", "-1..2"))
    lo = str(rng.randint(0, 8)) if rng.random() < 0.7 else _number(rng)
    hi = str(rng.randint(0, 12)) if rng.random() < 0.7 else _number(rng)
    return f"{lo}..{hi}"


def _module(rng: random.Random) -> str:
    parts = [rng.choice(("k", "A", f"cyc({_number(rng)})", "k", "A", "B", "cyc()", ""))
             for _ in range(rng.randint(1, 3))]
    return "+".join(parts)


def _prime(rng: random.Random) -> str:
    return str(rng.choice((2, 3, 5, 32003, 0, 1, 4, 32004, 2**64 - 59, 2**64 - 1,
                           artinian.MAX_PRIME, artinian.MAX_PRIME + 1, _number(rng))))


_LEAVES = [cls for cls in _HEADS.values()
           if not {"ring", "ring?"} & set(cls.SLOTS)]
_NESTS = [cls for cls in _HEADS.values()
          if {"ring", "ring?"} & set(cls.SLOTS)]


def _descriptor(rng: random.Random, levels: int) -> str:
    """A descriptor of ``levels`` nested rings down its first ring slot; its
    other ring slots hold a leaf or a hole."""
    cls = rng.choice(_LEAVES if levels <= 1 else _NESTS)
    args, nested = [], False
    for kind in cls.SLOTS:
        if kind in ("ring", "ring?") and not nested:
            nested = True
            args.append(_descriptor(rng, levels - 1))
        elif kind in ("ring", "ring?"):
            args.append("?" if kind == "ring?" and rng.random() < 0.5 else _descriptor(rng, 1))
        elif kind == "int":
            args.append(str(rng.randint(1, 9)) if rng.random() < 0.7 else _number(rng))
        elif kind == "ints":
            args.append(_numbers(rng))
        elif kind == "(ints)":
            args.append(f"({_numbers(rng)})")
        else:  # "sgp" and "gens"
            args.append(f"sgp({_numbers(rng)})")
    return f"{cls.HEAD}({','.join(args)})"


def _ring(rng: random.Random) -> str:
    levels = rng.choice((1, 1, 2, 2, 3, 4, MAX_NESTING, MAX_NESTING + 1))
    text = _descriptor(rng, levels)
    if rng.random() < 0.1:  # one character dropped
        at = rng.randrange(len(text))
        text = text[:at] + text[at + 1:]
    return text


def _value(rng: random.Random, flag: str, options: dict) -> str:
    kind = options.get("type")
    if flag == "--ring":
        return _ring(rng)
    if flag == "--rule":
        return rng.choice([*sorted(CITATIONS), "R-NOPE", ""])
    if flag == "--mod":
        return _module(rng)
    if flag == "--p":
        return _prime(rng)
    if kind is _int_list:
        return _numbers(rng)
    if kind is _parse_range:
        return _range(rng)
    return _number(rng)


def _line(rng: random.Random) -> list[str]:
    path = rng.choice(sorted(COMMANDS))
    flags = [*COMMANDS[path][1], _JSON]
    rng.shuffle(flags)
    args = path.split()
    for flag, options in flags:
        if rng.randrange(10 if options.get("required") else 2) == 0:
            continue
        args += [flag] if "action" in options else [flag, _value(rng, flag, options)]
    if rng.randrange(10) == 0:
        args += rng.choice((["--frobulate"], ["stray"], ["-h"], ["--json", "--json"]))
    return args


def draw(seed: int, lines: int) -> list[list[str]]:
    """The command lines of one run: the same for the same seed."""
    rng = random.Random(seed)
    return [_line(rng) for _ in range(lines)]


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(args: list[str]) -> tuple[str, str, float, str]:
    """How one line ended (``exit N``, ``timeout`` or ``signal N``), the
    digest of its output, its wall time in seconds and its stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "sackit", *args], env=env,
                              capture_output=True, timeout=WALL_S, preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return "timeout", "-", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    ending = f"signal {-done.returncode}" if done.returncode < 0 else f"exit {done.returncode}"
    digest = hashlib.sha256(done.stdout + b"\0" + done.stderr).hexdigest()[:12]
    return ending, digest, seconds, done.stderr.decode(errors="replace")


def find(ending: str, stderr: str) -> str | None:
    """What breaks the contract in one ending, or None when it keeps it."""
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if ending == "exit 0":
        return None
    if ending == "exit 1" and stderr.startswith("error: ") and stderr.count("\n") == 1:
        return None
    if ending == "exit 1":
        return f"exit 1 without one error line: {stderr[:200]!r}"
    if ending == "exit 2" and stderr.lower().startswith("usage: "):
        return None
    return ending


def _shown(args: list[str]) -> str:
    text = shlex.join(["sackit", *args])
    return text if len(text) <= 160 else f"{text[:150]} ... ({len(text)} chars)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lines", type=int, default=400)
    options = parser.parse_args(argv)
    finds = []
    for i, args in enumerate(draw(options.seed, options.lines)):
        ending, digest, seconds, stderr = run(args)
        broken = find(ending, stderr)
        print(f"{i:4}  {ending:9}  {seconds:6.2f}s  {digest:12}  {_shown(args)}", flush=True)
        if broken:
            finds.append(f"line {i}: {broken}\n  {shlex.join(['sackit', *args])}")
    print("\n".join(finds) or "no find",
          f"seed {options.seed}, {options.lines} lines, {len(finds)} finds", sep="\n")
    return 1 if finds else 0


if __name__ == "__main__":
    sys.exit(main())
