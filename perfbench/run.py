"""carpetdim benchmark: one workload per run, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 \
        --trace 0

Workloads: closed-form, covering-counts (see perfbench/README.md).  With ``--trace 0`` the last line carries the
end-to-end metrics (setup_s, ops_per_s, op_p50_ms, op_tail_ms,
peak_rss_mb); with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The lines before it, starting with '#', record the
environment, a host-speed probe and per-kind op medians for reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 5          # cold starts per run; setup_s is their median
MIN_TAIL_SAMPLES = 40     # below this a run reports its median as the tail
TAIL_BEYOND = 10          # samples that must lie beyond the tail rank


def load_package():
    """Import carpetdim from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import carpetdim
    from carpetdim import cli, geometry, moran, pointwise, systems
    if Path(carpetdim.__file__).resolve().parent != ROOT / "src" / "carpetdim":
        raise SystemExit("carpetdim imported from %s, not from this checkout"
                         % carpetdim.__file__)
    return SimpleNamespace(cli=cli, geometry=geometry, moran=moran,
                           pointwise=pointwise, systems=systems)


def cold_start(workload, seed, rounds):
    """Seconds from launching a fresh interpreter to 'ready': import
    carpetdim, generate and validate the workload's inputs."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "coldstart.py"), workload, str(seed),
         str(rounds)], stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise SystemExit("cold start failed (exit %s)" % code)
    return ready - start


def host_probe():
    """Milliseconds for a fixed pure-Python loop: a reference for how fast
    the host runs right now, never a metric."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def timed_pass(ops, tracer=None):
    """Run every op once, in order.  Returns (outputs, latencies, seconds);
    an op that raises keeps its exception as its output."""
    outputs, latencies = [], []
    clock = time.perf_counter
    begin = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = clock()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed op, never fatal
            out = exc
        latencies.append(clock() - start)
        outputs.append(out)
    return outputs, latencies, clock() - begin


def judge(ops, outputs, refs):
    """(errors, wrong): ops that raised, and ops whose output failed its
    check against the references."""
    errors = wrong = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            errors += 1
            continue
        try:
            ok = op.check(out, refs)
        except Exception:  # a malformed output is a wrong output
            ok = False
        wrong += not ok
    return errors, wrong


def tail(latencies):
    """The highest rank with TAIL_BEYOND samples beyond it; the median when
    the run holds too few samples for a tail."""
    ranked = sorted(latencies)
    if len(ranked) < MIN_TAIL_SAMPLES:
        return statistics.median(ranked)
    return ranked[len(ranked) - TAIL_BEYOND - 1]


def kind_medians(ops, latencies):
    by_kind = {}
    for op, lat in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).append(lat)
    return {kind: [len(v), round(1e3 * statistics.median(v), 3)]
            for kind, v in sorted(by_kind.items())}


def run_untraced(cd, workloads, args, rounds):
    setup, make_ops = workloads.WORKLOADS[args.workload]
    starts = [cold_start(args.workload, args.seed, rounds)
              for _ in range(SETUP_STARTS)]
    ops = make_ops(cd, setup(cd, args.seed, rounds))
    probe_before = host_probe()
    outputs, latencies, seconds = timed_pass(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_after = host_probe()
    errors, wrong = judge(ops, outputs, workloads.References(ROOT))
    failed = errors + wrong
    print("# host_probe_ms before=%.3f after=%.3f"
          % (probe_before, probe_after))
    print("# setup_starts_s " + json.dumps([round(s, 4) for s in starts]))
    print("# op_kinds [count, p50_ms] " + json.dumps(
        kind_medians(ops, latencies)))
    metrics = {
        "setup_s": (statistics.median(starts), "s"),
        "ops_per_s": ((len(ops) - failed) / seconds, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return len(ops), failed, wrong, metrics


def run_traced(cd, workloads, args, rounds):
    """An untraced pass, then the same op list traced, each on fresh
    caches; per-layer metrics come from the traced pass."""
    from tracing import Tracer
    setup, make_ops = workloads.WORKLOADS[args.workload]
    ops = make_ops(cd, setup(cd, args.seed, rounds))
    plain_out, _, plain_s = timed_pass(ops)
    # the traced pass starts from the same empty cache as the untraced one
    cd.geometry.box_dimension_estimate.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = make_ops(cd, setup(cd, args.seed, rounds))
        traced_out, _, traced_s = timed_pass(traced_ops, tracer)
    finally:
        tracer.uninstall()
    refs = workloads.References(ROOT)
    errors, wrong = judge(ops + traced_ops, plain_out + traced_out, refs)
    failed = errors + wrong
    tracer.write(OUT / ("trace-%s-%d.jsonl" % (args.workload, args.seed)))
    metrics = {name: (value, _unit(name))
               for name, value in tracer.metrics().items()}
    metrics["trace.overhead_ratio"] = (
        (len(traced_ops) / traced_s) / (len(ops) / plain_s), "ratio")
    return len(ops) + len(traced_ops), failed, wrong, metrics


def _unit(name):
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-form", "covering-counts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cd = load_package()
    import workloads
    print("# env " + json.dumps(environment()))
    if args.trace:
        # two passes share the run length
        rounds = workloads.rounds_for(args.workload, args.seconds / 2)
        attempted, failed, wrong, metrics = run_traced(cd, workloads, args,
                                                       rounds)
    else:
        rounds = workloads.rounds_for(args.workload, args.seconds)
        attempted, failed, wrong, metrics = run_untraced(cd, workloads, args,
                                                         rounds)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
