"""Record the benchmark's results on this commit in perfbench/baseline.json.

    python3 perfbench/baseline.py [--runs 10] [--seconds 50] [WORKLOAD ...]

Run from the repository root with nothing else running.  For each workload
it makes ``--runs`` untraced runs, one seed each, and reports per end-to-end
metric the median, the quartiles and the spread (IQR / median), which must
stay within the metric's bound in BENCHMARK.json.  It makes one traced run of
seed 1 per workload, times the ROADMAP baseline rows (median of 5), and
stores the line count of src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import catalogue
import run

ROADMAP_ROWS = [
    # (what, op, ROADMAP baseline seconds)
    ("CLI floor: sgp info --gens 3,4,5", catalogue.Op("cli", ("sgp", "info", "--gens", "3,4,5")), 0.13),
    ("CLI floor: certify --ring sgp(3,4,5)", catalogue.Op("cli", ("certify", "--ring", "sgp(3,4,5)")), 0.13),
    ("CLI floor: ext table --H 3,4,5 --q 3", catalogue.Op("cli", ("ext", "table", "--H", "3,4,5", "--q", "3")), 0.13),
    ("ext table --H 3,4,5 --q 6 --range 0..6",
     catalogue.Op("cli", ("ext", "table", "--H", "3,4,5", "--q", "6", "--range", "0..6")), 1.49),
    ("minimal_resolution(k, 6) over k[4..7]/(t^4)",
     catalogue.Op("resolve", ("--H", "4,5,6,7", "--q", "4", "--mod", "k", "--length", "6")), 1.5),
    ("sgp info --gens 101,103,107,109",
     catalogue.Op("cli", ("sgp", "info", "--gens", "101,103,107,109")), 0.57),
]


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench/baseline.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("workloads", nargs="*", default=list(catalogue.WORKLOADS))
    args = parser.parse_args(argv)

    path = run.HERE / "baseline.json"
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    record.update({
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, "
                   f"Python {platform.python_version()}",
        "src_lines": run.src_lines(),
        "seconds": args.seconds,
    })
    for workload in args.workloads:
        runs = [bench(workload, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        traced = bench(workload, 1, args.seconds, 1)
        record["workloads"][workload] = {
            "ops_per_run": runs[0]["attempted"],
            "end_to_end": metrics,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(workload, {k: round(v["spread"], 3) for k, v in metrics.items()}, flush=True)

    tmp = run.ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    rows = []
    for what, op, roadmap_s in ROADMAP_ROWS:
        times = [run.run_op(op, False, tmp, {}).seconds for _ in range(5)]
        rows.append({"row": what, "roadmap_s": roadmap_s, "median_s": statistics.median(times),
                     "best_s": min(times)})
    shutil.rmtree(tmp)
    record["roadmap_rows"] = rows
    path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
