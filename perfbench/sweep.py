"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/sweep.py --runs 10 [--trace] [--out perfbench/baseline.json]

For every workload in BENCHMARK.json it runs `run.py` once per seed (0, 1,
... runs-1), with the run length BENCHMARK.json fixes, and prints for each
end-to-end metric the median, the quartiles and the spread (q3 - q1) /
median, against a third of the metric's bound. --trace adds one traced run
per workload. --out writes everything, with the environment and the
wall-clock figures each run prints, as a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import environment  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=180).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    for line in lines:
        if line.startswith("wall-clock "):
            result["wall_clock"] = json.loads(line.split(" ", 1)[1])
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    report = {"environment": environment(ROOT),
              "run_seconds": bench["run_seconds"],
              "seeds": list(range(args.runs)),
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"], 0)
                for seed in report["seeds"]]
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "elapsed_s": [r["elapsed_s"] for r in runs],
                 "metrics": {},
                 "wall_clock": {name: summarize([r["wall_clock"][name]
                                                 for r in runs])
                                for name in ("units_per_s", "setup_s")}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = metric["unit"]
            entry["metrics"][name] = s
            steady = name == "setup_s" or s["spread"] < metric["bound"] / 3
            ok = ok and steady
            print("%-15s %-12s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %.4f  bound/3 %.4f %s"
                  % (workload, name, s["median"], s["q1"], s["q3"],
                     s["spread"], metric["bound"] / 3,
                     "" if steady else "WIDE"), flush=True)
        print("%-15s wall-clock units_per_s median %.6g spread %.4f"
              % (workload, entry["wall_clock"]["units_per_s"]["median"],
                 entry["wall_clock"]["units_per_s"]["spread"]), flush=True)
        print("%-15s failed %d of %d units; a run takes %.1f s at most"
              % (workload, entry["failed"], entry["attempted"],
                 max(entry["elapsed_s"])), flush=True)
        ok = ok and entry["failed"] == 0
        if args.trace:
            traced = run_once(workload, report["seeds"][0],
                              bench["run_seconds"], 1)
            entry["traced"] = {name: m["value"]
                               for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
