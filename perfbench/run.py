"""sackit benchmark: per-op CLI latency, memory and failures, end to end and
per layer.

    python3 perfbench/run.py --workload ext-deep --seed 1 --seconds 50 --trace 0

Run from the root of a source tree (the package is not installed; every op
runs with PYTHONPATH=src).  Load model: a closed loop with one client; each op
is a fresh interpreter, so no cache of the library outlives an op.  The last
line of stdout is one JSON object; the lines before it are the same figures
for a reader.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import catalogue
import checks
from trace_child import UNWRAPPED_EXIT

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_RUNS = 15

# The speed reference: a fixed script of the standard library only, run in a
# fresh interpreter like an op.  It does interpreter start, imports and
# integer, dict and list work, the kinds of work the ops do, in about 0.1 s.
# The host's speed drifts by 20-30% within minutes (see README, "Noise"), and
# the reference, timed around every few ops, drifts with it.  Every time
# metric is scaled to the speed at which the reference takes REFERENCE_S.
REFERENCE_CODE = """\
import collections, fractions, itertools, json
d = {}
for i in range(120000):
    d[i % 977] = (d.get(i % 977, 0) * 31 + i) % 32003
rows = [[(i * j) % 32003 for j in range(60)] for i in range(60)]
for k in range(60):
    for r in rows:
        r[k] = (r[k] * 7 + 1) % 32003
"""
REFERENCE_S = 0.1
REFERENCE_EVERY = 4  # ops between two runs of the reference
COUNT_SUFFIXES = (".cells", ".useful", ".betti_sum", "_max", ".max_rows", ".max_cols")


@dataclass
class Outcome:
    op: catalogue.Op
    seconds: float
    maxrss_kb: int
    status: str  # "ok", "failed" or "budget_exceeded"
    reason: str
    stats: dict | None  # span totals of a traced op
    speed: float = 1.0  # REFERENCE_S / the reference's time around this op

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.speed

    @property
    def failed(self) -> bool:
        """Broke its expectation; a probe over its cap is expected at the seed."""
        return self.status == "failed" or (self.status == "budget_exceeded" and not self.op.probe)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (catalogue.AS_CAP_BYTES, catalogue.AS_CAP_BYTES))


def _env():
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("SACKIT_PRIME", None)
    return env


def spawn(argv, cap_s, tmp: Path):
    """Run argv under the caps.  Returns (seconds, exit code, stdout, stderr,
    ru_maxrss in KB, killed); the time runs from spawn to exit."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_env(),
                                preexec_fn=_limit_address_space)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], cap_s)
            killed = not ready
            if killed:
                os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
    proc.returncode = rc = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return seconds, rc, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss, killed


def command(op, traced: bool, stats_path) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "trace_child.py"), str(stats_path), op.kind, *op.args]
    if op.kind == "cli":
        return [sys.executable, "-m", "sackit", *op.args]
    return [sys.executable, str(HERE / "resolve_op.py"), *op.args]


def run_op(op, traced: bool, tmp: Path, expected: dict) -> Outcome:
    stats_path = tmp / "stats.json"
    stats_path.unlink(missing_ok=True)
    seconds, rc, out, err, maxrss, killed = spawn(command(op, traced, stats_path), op.cap_s, tmp)
    if traced and rc == UNWRAPPED_EXIT:
        raise SystemExit(err.decode().strip())
    status, reason = checks.verify(op, rc, out, err, killed, expected)
    stats = json.loads(stats_path.read_text()) if traced and stats_path.exists() else None
    return Outcome(op, seconds, maxrss, status, reason, stats)


def run_pass(ops, traced, tmp, expected, setup_times=None):
    """Run the op list; returns the outcomes, the reference times and the
    wall time of the ops, raw and scaled.  The reference runs before the
    first op and after every REFERENCE_EVERY ops; the ops of a block, and
    the `--help` calls among them, are scaled by REFERENCE_S over the mean
    of the two reference times around the block.  Given a list, it also
    appends the scaled times of SETUP_RUNS `--help` calls spread evenly over
    the pass, so that set-up is sampled over the same minutes as the ops;
    those calls and the reference are left out of the wall time."""
    slots = [] if setup_times is None else [i * len(ops) // SETUP_RUNS for i in range(SETUP_RUNS)]
    outcomes, elapsed, helps, refs = [], [], [], []
    for i, op in enumerate(ops):
        if i % REFERENCE_EVERY == 0:
            refs.append(time_reference(tmp))
        helps += [(i, time_help(tmp)) for _ in range(slots.count(i))]
        start = time.perf_counter()
        outcomes.append(run_op(op, traced, tmp, expected))
        elapsed.append(time.perf_counter() - start)
    refs.append(time_reference(tmp))

    def speed(i):
        block = i // REFERENCE_EVERY
        return REFERENCE_S / ((refs[block] + refs[block + 1]) / 2)

    for i, o in enumerate(outcomes):
        o.speed = speed(i)
    if setup_times is not None:
        setup_times += [seconds * speed(i) for i, seconds in helps]
    scaled = sum(seconds * speed(i) for i, seconds in enumerate(elapsed))
    return outcomes, refs, sum(elapsed), scaled


def time_reference(tmp: Path) -> float:
    seconds, rc, _, err, _, killed = spawn(
        [sys.executable, "-c", REFERENCE_CODE], catalogue.DEFAULT_CAP_S, tmp)
    if killed or rc != 0:
        raise SystemExit(f"perfbench: the speed reference failed (exit {rc}): "
                         + err.decode(errors="replace")[-500:])
    return seconds


def time_help(tmp: Path) -> float:
    """Wall time of `python -m sackit --help`: interpreter start, import of
    the package and the click group."""
    seconds, rc, out, err, _, killed = spawn(
        [sys.executable, "-m", "sackit", "--help"], catalogue.DEFAULT_CAP_S, tmp)
    if killed or rc != 0 or not out.startswith(b"Usage:"):
        raise SystemExit(f"perfbench: `python -m sackit --help` failed (exit {rc}): "
                         + err.decode(errors="replace")[-500:])
    return seconds


def high_percentile(times):
    """The highest percentile with at least ten samples beyond it (nearest
    rank), capped at p90.  Returns (value, rank)."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(1, min(math.ceil(0.9 * n), n - 10))
    return ordered[rank - 1], rank


def end_to_end(outcomes, raw_wall, wall_s, setup_times):
    # An op killed at its cap took the cap, a time the benchmark sets, so the
    # percentiles are over the ops that ended within their caps; killed ops
    # count in wall_s and ok_ratio.
    within = [o for o in outcomes if o.status != "budget_exceeded"]
    times = [o.scaled_s for o in within]
    raw = [o.seconds for o in within]
    p_high, rank = high_percentile(times)
    ok = sum(o.status == "ok" for o in outcomes)
    n, m = len(outcomes), len(times)
    metrics = {
        "op_p50_s": (statistics.median(times), "s", f"median of {m} ops within their caps "
                                                    f"(raw {statistics.median(raw):.4g} s)"),
        "op_p90_s": (p_high, "s", f"p{100 * rank / m:.0f} of {m} ops within their caps "
                                  f"(nearest rank, {m - rank} above; raw "
                                  f"{high_percentile(raw)[0]:.4g} s)"),
        "wall_s": (wall_s, "s", f"all {n} ops, spawn to exit, summed (raw {raw_wall:.4g} s)"),
        "peak_rss_mb": (max(o.maxrss_kb for o in within) / 1024.0, "MB",
                        f"largest ru_maxrss of {m} ops within their caps"),
        "ok_ratio": (ok / n, "1", f"{ok} of {n} ops correct within their caps; "
                                  f"fail_ratio {1 - ok / n:.4f}"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} `python -m sackit --help` "
                    "spread over the run"),
    }
    return metrics


PER_LAYER = [
    # (metric, unit, source): source is ("self", span), ("calls", span), ("value", key)
    # or ("ratio", key, span)
    ("cli.import_s", "s", ("value", "cli.import_s")),
    ("cli.dispatch_s", "s", ("self", "cli.dispatch")),
    ("semigroup.from_generators.calls", "count", ("calls", "semigroup.from_generators")),
    ("semigroup.from_generators.self_s", "s", ("self", "semigroup.from_generators")),
    ("semigroup.almost_min_mult.self_s", "s", ("self", "semigroup.almost_min_mult")),
    ("semigroup.gap_symmetric.self_s", "s", ("self", "semigroup.gap_symmetric")),
    ("semigroup.apery_set.self_s", "s", ("self", "semigroup.apery_set")),
    ("semigroup.frobenius_max", "1", ("value", "semigroup.frobenius_max")),
    ("ideals.from_generators.calls", "count", ("calls", "ideals.from_generators")),
    ("ideals.power.calls", "count", ("calls", "ideals.power")),
    ("ideals.power.self_s", "s", ("self", "ideals.power")),
    ("ideals.complement.self_s", "s", ("self", "ideals.complement")),
    ("ideals.relative_length.self_s", "s", ("self", "ideals.relative_length")),
    ("ideals.is_ulrich.self_s", "s", ("self", "ideals.is_ulrich")),
    ("ideals.search_reduction.self_s", "s", ("self", "ideals.search_reduction")),
    ("modp.rref.calls", "count", ("calls", "modp.rref")),
    ("modp.rref.self_s", "s", ("self", "modp.rref")),
    ("modp.rref.cells", "count", ("value", "modp.rref.cells")),
    ("modp.rref.max_rows", "1", ("value", "modp.rref.max_rows")),
    ("modp.rref.max_cols", "1", ("value", "modp.rref.max_cols")),
    ("modp.kernel_basis.calls", "count", ("calls", "modp.kernel_basis")),
    ("modp.rank.calls", "count", ("calls", "modp.rank")),
    ("modp.span.adds", "count", ("calls", "modp.span")),
    ("modp.span.self_s", "s", ("self", "modp.span")),
    ("modp.span.useful_ratio", "1", ("ratio", "modp.span.useful", "modp.span")),
    ("artinian.algebra.self_s", "s", ("self", "artinian.algebra")),
    ("artinian.algebra.dim_max", "1", ("value", "artinian.algebra.dim_max")),
    ("artinian.mul.calls", "count", ("calls", "artinian.mul")),
    ("artinian.mul.self_s", "s", ("self", "artinian.mul")),
    ("artinian.minimalize.self_s", "s", ("self", "artinian.minimalize")),
    ("artinian.ext_dims.self_s", "s", ("self", "artinian.ext_dims")),
    ("artinian.tor_dims.self_s", "s", ("self", "artinian.tor_dims")),
    ("artinian.minimal_resolution.self_s", "s", ("self", "artinian.minimal_resolution")),
    ("artinian.realization.self_s", "s", ("self", "artinian.realization")),
    ("artinian.betti_sum", "count", ("value", "artinian.betti_sum")),
    ("certify.parse.self_s", "s", ("self", "certify.parse")),
    ("certify.search.self_s", "s", ("self", "certify.search")),
    ("certify.premise.calls", "count", ("calls", "certify.premise")),
    ("certify.premise.self_s", "s", ("self", "certify.premise")),
    ("bench.trace_correction_s", "s", ("value", "bench.trace_correction_s")),
]

MAX_VALUES = ("semigroup.frobenius_max", "modp.rref.max_rows", "modp.rref.max_cols",
              "artinian.algebra.dim_max")


def merge_stats(outcomes):
    """Span totals over the ops of one pass: sums, and maxima for sizes."""
    spans, values = {}, {}
    for o in outcomes:
        if o.stats is None:
            continue
        for prefix, (calls, self_s) in o.stats["spans"].items():
            entry = spans.setdefault(prefix, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in o.stats["values"].items():
            combine = max if key in MAX_VALUES else (lambda a, b: a + b)
            values[key] = combine(values.get(key, 0), value)
    return spans, values


def per_layer(spans, values, overhead):
    metrics = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "value":
            value = values.get(source[1], 0)
        elif kind == "ratio":
            adds = spans.get(source[2], [0, 0.0])[0]
            value = values.get(source[1], 0) / adds if adds else 0.0
        else:
            entry = spans.get(source[1], [0, 0.0])
            value = entry[0] if kind == "calls" else entry[1]
        metrics[name] = (value, unit, "")
    metrics["bench.trace_overhead"] = (overhead, "1", "traced wall_s / untraced wall_s, both scaled")
    return metrics


def counts(spans, values):
    """The figures that must repeat exactly for the same ops."""
    out = {f"{prefix}.calls": entry[0] for prefix, entry in spans.items()}
    out.update({k: v for k, v in values.items() if k.endswith(COUNT_SUFFIXES)})
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def report(workload, seed, trace, ops, outcomes, metrics, extra=()):
    print(f"perfbench {workload} seed={seed} trace={trace}: {len(ops)} ops, "
          f"closed loop, one client; src/ has {src_lines()} lines")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")
    for line in extra:
        print("  " + line)
    for o in outcomes:
        if o.status != "ok":
            tag = "expected, budget probe" if o.status == "budget_exceeded" and o.op.probe else "FAILED"
            print(f"  {o.status} ({tag}): {o.op.id}: {o.reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sackit" / "__init__.py").is_file():
        print(f"perfbench: no sackit source tree at {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    # A traced run makes three passes over its op list (untraced, traced,
    # traced again), so its list is sized to a third of the time.
    ops = catalogue.draw(args.workload, args.seed, args.seconds / (3 if args.trace else 1))

    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    try:
        time_help(tmp)  # untimed: compiles the bytecode of a fresh checkout
        setup_times = []
        plain, refs, raw_wall, plain_wall = run_pass(ops, False, tmp, expected, setup_times)
        if args.trace == 0:
            runs = [plain]
            metrics = end_to_end(plain, raw_wall, plain_wall, setup_times)
            extra = [f"times scaled to the speed at which the reference takes {REFERENCE_S:g} s; "
                     f"it took {min(refs):.4g} to {max(refs):.4g} s, median "
                     f"{statistics.median(refs):.4g} s, over {len(refs)} runs"]
        else:
            traced, _, _, traced_wall = run_pass(ops, True, tmp, expected)
            again, _, _, _ = run_pass(ops, True, tmp, expected)
            runs = [plain, traced, again]
            spans, values = merge_stats(traced)
            first, repeat = counts(spans, values), counts(*merge_stats(again))
            differ = {k for k in first.keys() | repeat.keys() if first.get(k) != repeat.get(k)}
            if differ:
                print("perfbench: count metrics differ between two traced passes: "
                      + ", ".join(sorted(differ)), file=sys.stderr)
                return 1
            metrics = per_layer(spans, values, traced_wall / plain_wall)
            extra = [f"count metrics repeat exactly across two traced passes of {len(ops)} ops"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = [o for run in runs for o in run]
    failed = sum(o.failed for o in outcomes)
    report(args.workload, args.seed, args.trace, ops, outcomes, metrics, extra)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
