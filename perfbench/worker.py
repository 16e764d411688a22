"""One fresh process of the benchmark: import alphaperm, warm up, run one
workload's timed phase, check its outputs.

Started by run.py, never by hand. It prints `ready <monotonic time>` once
set-up is over (the parent measures set-up time from its own clock reading
before the start), and with --probe exits right there. Otherwise it prints
one `result <json>` line at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from calibration import SpeedSampler, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_cli():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import alphaperm
    from alphaperm import cli
    if not os.path.abspath(alphaperm.__file__).startswith(src + os.sep):
        raise ImportError("alphaperm imported from %s, not from %s"
                          % (alphaperm.__file__, src))
    return cli


def _run_batch(cli, batch, sampler) -> tuple:
    """Run one batch; each command is timed alone, with the machine's speed
    sampled while it runs. Returns (batch, outcome, wall seconds, scaled
    seconds); wall seconds leave out the time the sampler took."""
    from workloads import collect, run_call
    calls, wall, nominal = [], 0.0, 0.0
    for argv in batch.argvs:
        sampler.start()
        t0 = time.perf_counter()
        calls.append(run_call(cli, argv))
        dt = time.perf_counter() - t0
        spent, loop = sampler.stop()
        wall += dt - spent
        nominal += scaled(dt - spent, loop)
    return batch, collect(batch, calls), wall, nominal


def _rate(done, wall=False) -> float:
    """Median over batches of units per scaled (or wall) second."""
    return statistics.median(batch.units / (dt if wall else sdt)
                             for batch, _o, dt, sdt in done)


def _failed(wl, done) -> int:
    failed = 0
    for batch, outcome, _dt, _sdt in done:
        try:
            failed += wl.failed_units(batch, outcome)
        except Exception:  # an unreadable output is a failed batch
            traceback.print_exc()
            failed += batch.units
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    # set-up is sampled from here on: interpreter start-up before this
    # line is scaled by the speed measured after it
    sampler = SpeedSampler()
    sampler.start()
    cli = _import_cli()
    from workloads import BATCH_BITS, WORKLOADS, run_call
    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    for argv in wl.warmup_batch().argvs:
        run_call(cli, argv)
    ready = time.monotonic()
    spent, loop = sampler.stop()
    print("ready %.9f %.9f %.9f" % (ready, spent, loop), flush=True)
    if args.probe:
        return 0

    result = {"attempted": 0, "failed": 0, "metrics": {}}
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        done = []
        for b in range(1 << BATCH_BITS):
            done.append(_run_batch(cli, wl.batch(b), sampler))
            if time.perf_counter() >= deadline:
                break
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {"units_per_s": _rate(done),
                             "peak_rss_mb": rss_kb / 1024.0}
        result["wall_units_per_s"] = _rate(done, wall=True)
        result["batches"] = len(done)
    else:
        from tracing import Tracer
        # every batch runs untraced and at once again under the tracer: the
        # pair sees one machine speed, and gives the overhead and the
        # byte-identity check
        plain, traced = [], []
        tracer = Tracer()
        for b in range(1 << BATCH_BITS):
            plain.append(_run_batch(cli, wl.batch(b), sampler))
            tracer.request = b
            tracer.install()
            try:
                traced.append(_run_batch(cli, wl.batch(b), sampler))
            finally:
                tracer.uninstall()
            if time.perf_counter() >= deadline:
                break
        # traced outputs must be byte-identical to the untraced ones
        mismatched = [b1 for (b1, o1, _d1, _s1), (_b2, o2, _d2, _s2)
                      in zip(plain, traced) if o1.as_bytes() != o2.as_bytes()]
        units = sum(t[0].units for t in traced)
        # self times are scaled like their batch's time
        metrics = tracer.layer_metrics(
            units, {t[0].index: t[3] / t[2] for t in traced})
        # the tracer is a slowdown of alphaperm's own calls: its overhead in
        # scaled time should match its overhead in wall time
        metrics["trace.overhead_frac"] = statistics.median(
            1.0 - p[3] / t[3] for p, t in zip(plain, traced))
        metrics["trace.overhead_frac_wall"] = statistics.median(
            1.0 - p[2] / t[2] for p, t in zip(plain, traced))
        if args.spans:
            tracer.write_spans(args.spans)
        result["metrics"] = metrics
        result["batches"] = len(plain)
        result["traced_batches"] = len(traced)
        result["mismatched_batches"] = len(mismatched)
        result["failed"] += sum(batch.units for batch in mismatched)
        # verification skipped is not a speed-up: violations need the oracle
        if metrics["inequalities.violations"] > 0 \
                and metrics["inequalities.oracle.calls"] == 0:
            result["failed"] += units
        result["attempted"] += units
        done = plain
    result["attempted"] += sum(t[0].units for t in done)
    result["failed"] += _failed(wl, done)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
