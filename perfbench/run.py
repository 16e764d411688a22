"""alphaperm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload hunt-marcus --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports alphaperm from ./src and
builds nothing. Each run starts fresh worker processes (--jobs 1 inside):
SETUP_PROBES of them only import alphaperm and make the first-call warm-up,
then one runs the workload's timed phase and checks its outputs.

--trace 0 reports the end-to-end metrics: units_per_s (median over batches
of units per second), setup_s (median set-up time of the fresh processes)
and peak_rss_mb (ru_maxrss of the timed process). --trace 1 reports the
per-layer metrics of an outside-in traced run and writes its spans to
.perfbench_out/spans-<workload>.tsv.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics. failed counts units
that raised or failed the correctness check; failed_frac = failed /
attempted is printed above it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import scaled  # noqa: E402
from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, program_seed  # noqa: E402

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150
# Claims are made on HELD_OUT_SEED, tuning happens on DEFAULT_SEED; the
# program seeds of the two differ from bit 20 up (see workloads.py).
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

END_TO_END_UNITS = {"units_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _git_commit(root: str):
    """The checked-out commit, or None outside a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: str) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": ("present" if importlib.util.find_spec("numba")
                  else "absent"),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(root),
    }


def _start_worker(args, tmp: str, extra=()):
    """Run one worker process to its end.

    Returns (set-up seconds, set-up seconds scaled to nominal machine
    speed, the worker's result line or None).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in %d s" % WORKER_TIMEOUT_S)
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    lines = dict(line.split(" ", 1) for line in out.splitlines()
                 if " " in line)
    if "ready" not in lines:
        raise RuntimeError("worker never reported set-up done")
    ready, spent, loop = map(float, lines["ready"].split())
    setup = ready - started - spent
    return setup, scaled(setup, loop), lines.get("result")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "alphaperm",
                                       "__init__.py")):
        print("error: no alphaperm sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    env = environment(ROOT)
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        setup = []   # (wall, scaled) per fresh process
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(_start_worker(args, tmp, ["--probe"])[:2])
        extra = []
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            extra = ["--spans", os.path.join(
                out_dir, "spans-%s.tsv" % args.workload)]
        wall, scaled, result_line = _start_worker(args, tmp, extra)
        setup.append((wall, scaled))
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result_line is None:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    worker = json.loads(result_line)

    if args.trace:
        units = dict(PER_LAYER_METRICS)
    else:
        worker["metrics"]["setup_s"] = statistics.median(s for _w, s in setup)
        units = END_TO_END_UNITS
    metrics = {name: {"value": worker["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = worker["attempted"], worker["failed"]

    print("env " + json.dumps(env, sort_keys=True))
    print("workload %s seed %d (default %d, held-out %d) program seeds "
          "%d + (batch << 8) trace %d seconds %d batches %d"
          % (args.workload, args.seed, DEFAULT_SEED, HELD_OUT_SEED,
             program_seed(args.seed, 0), args.trace, args.seconds,
             worker["batches"]))
    if args.trace:
        print("traced batches %d, batches whose output differed from the "
              "untraced run %d" % (worker["traced_batches"],
                                   worker["mismatched_batches"]))
        print("kernels.dp.subset_pairs is computed from n, not measured")
    else:
        print("wall-clock " + json.dumps({
            "units_per_s": worker["wall_units_per_s"],
            "setup_s": statistics.median(w for w, _s in setup),
            "setup_samples_s": [w for w, _s in setup]}))
    for name, m in metrics.items():
        print("metric %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("failed_frac %.6g (%d of %d units)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
