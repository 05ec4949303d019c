"""Run one op with spans around the public functions of every sackit layer.

    PYTHONPATH=src python3 perfbench/trace_child.py STATS.json cli sgp info --gens 3,4,5
    PYTHONPATH=src python3 perfbench/trace_child.py STATS.json resolve --H 3,4,5 --q 6 --length 4

The op runs exactly as in the untraced run (same stdout, stderr and exit
code); the span totals go to STATS.json.  Nothing is added to ``src/``: the
wrappers are installed from here, at every binding site.  Modules bind the
wrapped functions by name (``artinian`` does ``from .modp import rref``,
``cli`` imports ``certify as run_certify``), so each original is replaced in
every ``sackit.*`` namespace that holds it.  The op is refused (exit 70) if
a target no longer exists or any namespace still holds an unwrapped original
afterwards.

A span's self time is its duration minus the durations of the spans it
encloses, less the tracer's own cost: ``Span.add`` and ``mul`` are called
millions of times, and each wrapped call adds stack, clock and bookkeeping
work, part of it inside its own timed window and part in its caller's.  Both
parts are timed per call at child start on a wrapped no-op (``calibrate``) and
taken out of the self times; the total taken out is
``bench.trace_correction_s``.
The root span ``cli.dispatch`` covers the whole command, so its self time is
click parsing, output formatting and code outside every span.
"""

from __future__ import annotations

import json
import sys
import time

UNWRAPPED_EXIT = 70

# (module, attribute or Class.method, metric prefix, timed).  A timed wrapper
# opens a span; an untimed one only counts, so its time stays in its caller.
TARGETS = [
    ("sackit.semigroup", "NumericalSemigroup.from_generators", "semigroup.from_generators", True),
    ("sackit.semigroup", "NumericalSemigroup.has_almost_minimal_multiplicity",
     "semigroup.almost_min_mult", True),
    ("sackit.semigroup", "NumericalSemigroup.is_gap_symmetric", "semigroup.gap_symmetric", True),
    ("sackit.semigroup", "NumericalSemigroup.apery_set", "semigroup.apery_set", True),
    ("sackit.ideals", "SemigroupIdeal.from_generators", "ideals.from_generators", True),
    ("sackit.ideals", "SemigroupIdeal.power", "ideals.power", True),
    ("sackit.ideals", "SemigroupIdeal.complement", "ideals.complement", True),
    ("sackit.ideals", "SemigroupIdeal.relative_length", "ideals.relative_length", True),
    ("sackit.ideals", "is_ulrich", "ideals.is_ulrich", True),
    ("sackit.ideals", "search_reduction", "ideals.search_reduction", True),
    ("sackit.modp", "rref", "modp.rref", True),
    ("sackit.modp", "kernel_basis", "modp.kernel_basis", False),
    ("sackit.modp", "rank", "modp.rank", False),
    ("sackit.modp", "Span.add", "modp.span", True),
    ("sackit.artinian", "MonomialArtinianAlgebra.__init__", "artinian.algebra", True),
    ("sackit.artinian", "MonomialArtinianAlgebra.mul", "artinian.mul", True),
    ("sackit.artinian", "module_from_presentation", "artinian.minimalize", True),
    ("sackit.artinian", "residue_field", "artinian.minimalize", True),
    ("sackit.artinian", "cyclic_quotient", "artinian.minimalize", True),
    ("sackit.artinian", "ext_dims", "artinian.ext_dims", True),
    ("sackit.artinian", "tor_dims", "artinian.tor_dims", True),
    ("sackit.artinian", "minimal_resolution", "artinian.minimal_resolution", True),
    ("sackit.artinian", "_realize", "artinian.realization", True),
    ("sackit.artinian", "_syzygy_columns", "artinian.syzygy", False),
    ("sackit.certify", "parse_ring", "certify.parse", True),
    ("sackit.certify", "validate_descriptor", "certify.parse", True),
    ("sackit.certify", "certify", "certify.search", True),
    ("sackit.certify", "verify_premise", "certify.premise", True),
]


class Tracer:
    """Span totals kept in memory: calls and self time per metric prefix,
    plus work counts and sizes observed at the same boundaries."""

    def __init__(self, costs=None):
        self.spans: dict[str, list] = {}  # prefix -> [calls, self seconds]
        self.values: dict[str, float] = {}
        self.stack = [0.0]  # time of enclosed spans, one slot per open span
        # timed -> seconds one wrapped call adds (to its caller, to its own span)
        self.costs = costs or {True: (0.0, 0.0), False: (0.0, 0.0)}
        self.timed: dict[str, bool] = {}

    def _bump(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def _peak(self, key, value):
        self.values[key] = max(self.values.get(key, 0), value)

    def observe(self, prefix, args, result):
        """Work counts and sizes for the metrics that need more than calls."""
        if prefix == "semigroup.from_generators":
            self._peak("semigroup.frobenius_max", result.frobenius)
        elif prefix == "modp.rref":
            rows = args[0]
            cols = len(rows[0]) if rows else 0
            self._bump("modp.rref.cells", len(rows) * cols)
            self._peak("modp.rref.max_rows", len(rows))
            self._peak("modp.rref.max_cols", cols)
        elif prefix == "modp.span":
            self._bump("modp.span.useful", bool(result))
        elif prefix == "artinian.algebra":
            self._peak("artinian.algebra.dim_max", args[0].dim)
        elif prefix == "artinian.syzygy":
            self._bump("artinian.betti_sum", len(result))

    def wrap(self, prefix, fn, timed):
        spans, stack, observe = self.spans, self.stack, self.observe
        spans.setdefault(prefix, [0, 0.0])
        self.timed[prefix] = timed
        clock = time.perf_counter
        outer, inner = self.costs[timed]

        if not timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                spans[prefix][0] += 1
                observe(prefix, args, result)
                stack[-1] += outer
                return result
            return counted

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                enclosed = stack.pop()
                stack[-1] += duration + outer
                entry = spans[prefix]
                entry[0] += 1
                entry[1] += duration - enclosed - inner
            observe(prefix, args, result)
            return result
        return spanned

    def correction(self) -> float:
        """Tracer cost taken out of the self times."""
        return sum(calls * sum(self.costs[self.timed[prefix]])
                   for prefix, (calls, _) in self.spans.items() if prefix in self.timed)


def calibrate(timed: bool, calls=1000, repeats=5) -> tuple[float, float]:
    """Seconds one wrapped call adds beyond the call of the original, to its
    caller's self time and to its own span's: a timed loop of wrapped no-op
    calls against the same loop of plain calls, per call; the median of a
    few repeats."""
    def noop(*args):
        return None

    def loop(fn):
        for _ in range(calls):
            fn(1, 2)

    outer, inner = [], []
    for _ in range(repeats):
        probe = Tracer()
        probe.wrap("loop", loop, True)(probe.wrap("noop", noop, timed))
        start = time.perf_counter()
        loop(noop)
        plain = time.perf_counter() - start
        outer.append(probe.spans["loop"][1] - plain)
        inner.append(probe.spans["noop"][1] - plain)
    return tuple(max(0.0, sorted(x)[repeats // 2] / calls) for x in (outer, inner))


def _sackit_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sackit" or name.startswith("sackit."))]


def install(tracer: Tracer):
    """Wrap every target at every binding site.  Returns (originals, missing):
    a target that no longer exists is missing, and the op is refused."""
    originals, missing = [], []
    for module_name, attr, prefix, timed in TARGETS:
        *path, name = attr.split(".")
        try:
            owner = sys.modules[module_name]
            for part in path:
                owner = getattr(owner, part)
        except (KeyError, AttributeError):
            owner = None
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            missing.append(f"{module_name}.{attr}")
            continue
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = tracer.wrap(prefix, fn, timed)
        setattr(owner, name, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        originals.append(fn)
        for module in _sackit_namespaces():
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
    return originals, missing


def unwrapped(originals) -> list[str]:
    """Every sackit module or class attribute that still holds an original."""
    ids = {id(fn) for fn in originals}
    leaks = []
    for module in _sackit_namespaces():
        for key, value in vars(module).items():
            if id(value) in ids:
                leaks.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("sackit"):
                for name, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    if id(member) in ids:
                        leaks.append(f"{module.__name__}.{key}.{name}")
    return leaks


def main(argv) -> int:
    stats_path, kind, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    if kind == "cli":
        import sackit.cli  # noqa: F401  (the whole package, as `python -m sackit` loads it)
    else:
        import sackit  # noqa: F401
        import resolve_op
    import_s = time.perf_counter() - start

    tracer = Tracer({True: calibrate(True), False: calibrate(False)})
    originals, missing = install(tracer)
    if missing:
        print("perfbench: trace targets missing: " + ", ".join(missing), file=sys.stderr)
        return UNWRAPPED_EXIT
    leaks = unwrapped(originals)
    if leaks:
        print("perfbench: unwrapped originals left in " + ", ".join(sorted(leaks)),
              file=sys.stderr)
        return UNWRAPPED_EXIT

    code = 0
    start = time.perf_counter()
    try:
        if kind == "cli":
            sackit.cli.main.main(args=args, prog_name="python -m sackit")
        else:
            resolve_op.main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        total = time.perf_counter() - start
        tracer.spans["cli.dispatch"] = [1, total - tracer.stack[0]]
        tracer.values["cli.import_s"] = import_s
        tracer.values["bench.trace_correction_s"] = tracer.correction()
        with open(stats_path, "w") as fh:
            json.dump({"spans": tracer.spans, "values": tracer.values}, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
