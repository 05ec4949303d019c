"""Record the expected output of every op the seed can draw.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the repository root at the commit whose outputs are the reference.
For each op it stores the exit code and the SHA-256 of stdout in
perfbench/expected.json, after checking the expected exit code and every
closed form.  For resolve ops it also stores dim Ext^i(M, k) from the
component-splitting ext_dims path and refuses to record unless it equals the
Betti numbers of minimal_resolution.  Budget probes are not recorded: they
hang at the seed.  Prints the wall time of each op to calibrate the nominal
cost of each class in catalogue.py.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

import catalogue
import checks
import run

EXT_CAP_S = 120.0


def record(workload, tmp, book, problems):
    for cls in catalogue.classes(workload):
        times = []
        for op in cls.variants:
            if op.probe:
                continue
            seconds, rc, out, err, _, killed = run.spawn(
                run.command(op, traced=False, stats_path=None), op.cap_s, tmp)
            times.append(seconds)
            entry = {"rc": rc, "sha256": checks.digest(out)}
            if op.kind == "resolve":
                _, ext_rc, ext_out, _, _, _ = run.spawn(
                    run.command(op, traced=False, stats_path=None) + ["--ext"], EXT_CAP_S, tmp)
                entry["ext_k"] = json.loads(ext_out)["ext_k"] if ext_rc == 0 else None
            status, reason = checks.verify(op, rc, out, err, killed, {op.id: entry})
            if op.kind == "resolve" and status == "ok" and entry["ext_k"] != json.loads(out)["betti"]:
                status, reason = "failed", "minimal_resolution and ext_dims disagree"
            if status == "ok":
                book[op.id] = entry
            else:
                problems.append(f"{op.id}: {status}: {reason}")
        print(f"{workload:<15} {cls.name:<36} nominal {cls.nominal_s:5.2f} s  "
              f"measured median {statistics.median(times) if times else 0:5.2f} s "
              f"over {len(times)} variants", flush=True)


def main(argv) -> None:
    path = run.HERE / "expected.json"
    book = json.loads(path.read_text()) if path.exists() else {}
    tmp = run.ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    problems = []
    try:
        for workload in argv or sorted(catalogue.WORKLOADS):
            record(workload, tmp, book, problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if problems:
        raise SystemExit("not recorded:\n" + "\n".join(problems))
    path.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
