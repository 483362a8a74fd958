"""f2froute benchmark: run one workload, or all four, and report metrics.

    python3 perfbench/run.py --workload route-failures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

One workload runs in this process. It is set up at least SETUP_REPEATS
times and until SETUP_SECONDS have gone into set-up; set-up time is the
median, and the last set-up is kept. The fixed operation list then runs
once as a warm-up that also runs the correctness checks, and then in
timed passes: at least TIMED_PASSES, more while another fits in
--seconds. Every timed pass makes the same timed calls, so each call has
one time per pass, and its fastest is the call's time. With --trace 0
the last stdout line reports the end-to-end metrics:

    setup_s      median set-up time
    work_s       sum over the timed calls of one pass of each call's time
    op_p50_ms    median over operations of each one's time
    op_p99_ms    99th percentile of the same per-operation times
    peak_rss_mb  peak resident memory of this process

Times are at reference speed (see measure.Speed): each is scaled by the
host's speed when it was taken, from a fixed pure-Python kernel timed
every tenth of a second between the operations. The record holds the
measured pass and set-up times and the kernel's quartiles.

With --trace 1 the workload is set up once with spans and once under
tracemalloc, then runs the warm-up, one untraced pass and one traced
pass; the last line reports the per-layer metrics of layers.PER_LAYER,
including the tracing overhead (traced minus untraced pass time).

`--workload all` runs each workload in a fresh child process and prints
every metric with its unit. Correctness checks run in every mode; the
line before the result holds the run record (machine, versions, source
revision, simulated outputs and check results).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
TIMED_PASSES = 2
NAMES = ("route-failures", "route-rp-attack", "churn", "dht-lookup")
END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="seconds-long sizes of the same workloads")
    return p.parse_args(argv)


def machine() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import networkx
    import scipy
    import source

    return {
        "git_revision": source.git_revision(),
        "src_sha256": source.src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
    }


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_passes(workload, seconds: float, recorder):
    """A warm-up pass that runs the checks, then the timed passes.

    Timed passes run while another fits in `seconds`, counted from the
    start of the warm-up, and at least TIMED_PASSES of them. Garbage is
    collected before each pass, outside the timing: every timed pass then
    starts from the same collector state and makes the same allocations,
    so a collection falls on the same calls in each. Returns the warm-up
    record and the list of timed records.
    """
    start = time.perf_counter()
    gc.collect()
    warm = recorder()
    workload.run_pass(warm, check=True)
    recs = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        rec = recorder()
        workload.run_pass(rec, check=False)
        recs.append(rec)
        now = time.perf_counter()
        if len(recs) >= TIMED_PASSES and now - start + (now - t0) > seconds:
            return warm, recs


def run_untraced(cls, params, seed, seconds):
    from measure import Recorder, Speed, percentile

    speed = Speed()
    setup_times, setup_raw = [], []
    workload = None
    while len(setup_raw) < SETUP_REPEATS or sum(setup_raw) < SETUP_SECONDS:
        workload = None
        gc.collect()
        before = speed.factor(force=True)
        t0 = time.perf_counter()
        workload = cls(seed, **params)
        setup_raw.append(time.perf_counter() - t0)
        setup_times.append(setup_raw[-1] * (before + speed.factor(force=True)) / 2)
    warm, recs = run_passes(workload, seconds, lambda: Recorder(speed=speed))
    # Each call's fastest time over the passes. Other tenants of a shared
    # host slow calls down, never speed them up; what the reference speed
    # leaves of that is short stalls, which rarely hit a call in every pass.
    latencies = [min(t) * 1e3 for t in zip(*(r.latencies for r in recs))]
    calls = [min(t) for t in zip(*(r.calls for r in recs))]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "work_s": sum(latencies) / 1e3 + sum(calls),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p99_ms": percentile(latencies, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "setup_runs": len(setup_raw),
        "setup_measured_s": statistics.median(setup_raw),
        "reference_kernel_ms": [x * 1e3 for x in statistics.quantiles(speed.kernel_s, n=4)],
        "warmup_work_s": warm.busy_s,
        "pass_work_s": [r.busy_s for r in recs],
        "passes": len(recs),
        "op_samples": len(latencies),
    }
    return workload, [warm] + recs, metrics, dict(END_TO_END), extra


def run_traced(cls, params, seed):
    import layers
    from measure import Recorder, Tracer

    tracer = Tracer(measure_alloc=True)
    with tracer.instrument(layers.TARGETS):
        cls(seed, **params)
    alloc_spans = tracer.take()
    gc.collect()
    tracer = Tracer()
    with tracer.instrument(layers.TARGETS):
        workload = cls(seed, **params)
    setup_spans = tracer.take()
    warm = Recorder()
    workload.run_pass(warm, check=True)
    gc.collect()
    plain = Recorder()
    workload.run_pass(plain, check=False)
    gc.collect()
    traced = Recorder(tracer)
    with tracer.instrument(layers.TARGETS):
        workload.run_pass(traced, check=False)
    work_spans = tracer.take()
    overhead = traced.busy_s - plain.busy_s
    metrics = layers.layer_metrics(setup_spans, alloc_spans, work_spans, workload.describe(), overhead)
    extra = {
        "untraced_work_s": plain.busy_s,
        "traced_work_s": traced.busy_s,
        "trace_overhead_s": overhead,
        "spans": len(setup_spans) + len(work_spans),
        "idle_layers": layers.idle_layers(setup_spans, work_spans),
    }
    return workload, [warm, plain, traced], metrics, dict(layers.PER_LAYER), extra


def run_one(args) -> int:
    try:
        from workloads import SMOKE, WORKLOADS
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    params = SMOKE[args.workload] if args.smoke else {}
    if args.trace:
        workload, recs, values, units, extra = run_traced(cls, params, args.seed)
    else:
        workload, recs, values, units, extra = run_untraced(cls, params, args.seed, args.seconds)
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    correct = failed == 0 and not workload.check_failures
    for name, unit in units.items():
        print(f"{args.workload:16s} {name:42s} {values[name]:>14.6g} {unit}")
    samples = len(recs[0].latencies)
    print(f"{args.workload:16s} ops attempted {attempted}, failed {failed}, latency samples {samples}, "
          f"checks {'passed' if correct else 'FAILED'}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **machine(),
        "os_threads": os_threads(),
        **extra,
        "outputs": workload.outputs(),
        "output_digest": workload.digest,
        "check_failures": workload.check_failures,
        "op_errors": [e for r in recs for e in r.errors][:5],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process; print every metric."""
    here = Path(__file__).resolve()
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(here), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        for key, metric in result["metrics"].items():
            print(f"{name:16s} {key:42s} {metric['value']:>14.6g} {metric['unit']}")
            totals["metrics"][f"{name}.{key}"] = metric
        checks = "passed" if result["correct"] else f"FAILED {record['check_failures']}"
        print(f"{name:16s} ops attempted {result['attempted']}, failed {result['failed']}, checks {checks}")
        print(f"{name:16s} outputs {json.dumps(record['outputs'])}")
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread per process: numerical libraries that scipy loads would
    # otherwise start a worker thread per core. Set before f2froute loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
