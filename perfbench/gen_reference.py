"""Measure the reference package's time for every benchmark operation.

Run once, from the repository root, on a host as quiet as can be had:

    python3 perfbench/gen_reference.py --repeats 3

run.py times every operation in relsrs and in reference/relsrs_reference, a
frozen copy of the package, back to back, and scales their ratio by the
reference's time for that operation.  This script writes those times to
data/reference_times.json.gz: for each workload, the fastest of --repeats
runs of each operation (every survey5 system under each of its four
symmetries, every frontier item, every recheck corpus line), and the fastest
of --repeats fresh-interpreter set-ups.  They are fixed scale factors that
make the benchmark's times read as seconds at the reference's speed on the
host that wrote them; they need no update unless reference/ changes, which
run.py refuses to run with.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys
import time

import run

SYMMETRIES = (None, "swap", "reverse", "both")


def keep_fastest(into: dict, result: run.PassResult) -> None:
    if result.failures:
        raise SystemExit(f"reference package failed: {result.failures[:3]}")
    for key, seconds in result.op_times.items():
        into[key] = min(seconds, into.get(key, seconds))


def setup_time(workload: str, repeats: int) -> float:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--setup-only", "--reference"]
    subprocess.run(cmd, cwd=run.ROOT, check=True)  # writes the bytecode cache
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=run.ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return min(times)


def four_digits(seconds: float) -> float:
    return float(f"{seconds:.4g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    reference = run.Api(run.import_reference())

    survey = run.Survey5(0, False)
    survey5: dict = {symmetry: {} for symmetry in SYMMETRIES}
    frontier = run.Frontier(0, False)
    frontier_times: dict = {}
    recheck = run.Recheck(0, False)
    recheck_times: dict = {}
    for rep in range(args.repeats):
        for symmetry in SYMMETRIES:
            # every system under the same symmetry; a seeded run picks one per system
            survey.symmetry = [symmetry] * survey.count
            keep_fastest(survey5[symmetry], survey.run_pass(reference))
        keep_fastest(frontier_times, frontier.run_pass(reference))
        keep_fastest(recheck_times, recheck.run_pass(reference))
        print(f"repeat {rep + 1} of {args.repeats} done", file=sys.stderr)

    enumerate_s = min(times.pop("enumerate") for times in survey5.values())
    table = {
        "reference_sha256": run.reference_digest(),
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "setup": {name: four_digits(setup_time(name, args.repeats)) for name in run.WORKLOADS},
        "survey5": {"enumerate": four_digits(enumerate_s)} | {
            symmetry or "none": [four_digits(times[i]) for i in range(survey.count)]
            for symmetry, times in survey5.items()
        },
        "frontier": {name: four_digits(s) for name, s in frontier_times.items()},
        # seed 0 keeps the corpus order, so operation i is corpus line i
        "recheck": [four_digits(recheck_times[i]) for i in range(len(recheck.work))],
    }
    blob = gzip.compress(json.dumps(table, separators=(",", ":")).encode(), mtime=0)
    (run.DATA / "reference_times.json.gz").write_bytes(blob)
    print(json.dumps({k: v for k, v in table.items() if k in ("setup", "frontier", "repeats")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
