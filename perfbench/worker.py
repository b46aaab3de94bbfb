"""Measure one workload in this (fresh, single-threaded) process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       [--trace 0|1] [--setup-only] [--size full|tiny]

Prints one JSON object on its last line of standard output.  ``run.py``
starts this script once per measurement, so set-up time and peak RSS belong
to one workload.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 2
MAX_FAILURES_SHOWN = 5
# Passes run two at a time on each CPU the process may use, in turn.  On a
# shared host one vCPU can stay slow for a whole run while the other is not;
# left alone, the scheduler keeps a busy process on one CPU, so a run's
# per-op minima would depend on where it happened to start.  The second pass
# of each pair runs with warm caches.
CPUS = sorted(os.sched_getaffinity(0))
PASSES_PER_CPU = 2


def use_cpu(pass_index: int) -> int:
    """Move this process to the CPU the given pass runs on; returns that CPU."""
    cpu = CPUS[pass_index // PASSES_PER_CPU % len(CPUS)]
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {cpu})
    return cpu


def run_pass(ops, state, tracer=None):
    """Run every op once; returns (pass wall, per-op latencies, failure messages).

    As in ``timeit``, the cyclic garbage collector runs between passes and
    is paused during one: otherwise its pauses land on whichever op crosses
    the allocation threshold, which depends on the seeded op order.
    """
    state.counts.clear()
    latencies = []
    failures = []
    gc.collect()
    gc.disable()
    try:
        wall = _timed_ops(ops, tracer, latencies, failures)
    finally:
        gc.enable()
    if tracer is not None:
        tracer.counters.update(state.counts)
    return wall, latencies, failures


def _timed_ops(ops, tracer, latencies, failures) -> float:
    start = perf_counter()
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        t0 = perf_counter()
        try:
            result = op.call()
            latencies.append(perf_counter() - t0)
            ok = op.check(result)
        except Exception:  # a raising op is a failed op; keep measuring
            latencies.append(perf_counter() - t0)
            failures.append(f"{op.label}: {traceback.format_exc(limit=3).strip()}")
            continue
        if not ok:
            failures.append(f"{op.label}: wrong verdict")
    return perf_counter() - start


def best_latencies(passes):
    """Each op's fastest latency over the passes.

    On a shared machine other tenants slow some executions and not others;
    an op's fastest run over many passes is the figure that repeats from one
    run to the next, where its median drifts with the machine's load.
    """
    return [min(lat[i] for _, lat in passes) for i in range(len(passes[0][1]))]


def tail(values):
    """Highest percentile with at least ten values beyond it, and its level.

    Below 21 values that percentile is not above the median, so the maximum
    is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed, seconds, trace, size, workdir):
    import workloads
    from spans import PER_LAYER, Tracer

    wl = workloads.WORKLOADS[workload]
    state = wl.setup(seed, size, workdir)
    setup_s = perf_counter() - T0
    try:
        ops = wl.ops(state)
        untraced, traced, tracers = [], [], []
        failures = []
        attempted = 0
        cpu_walls = {}
        begin = perf_counter()
        while True:
            tracer = Tracer() if trace and len(untraced) > len(traced) else None
            cpu = use_cpu(len(untraced) + len(traced))
            if tracer is None:
                wall, lat, fails = run_pass(ops, state)
                untraced.append((wall, lat))
                cpu_walls.setdefault(cpu, []).append(wall)
            else:
                with tracer.installed():
                    wall, lat, fails = run_pass(ops, state, tracer)
                traced.append((wall, lat))
                tracers.append(tracer)
            attempted += len(ops)
            failures += fails
            done = len(untraced) + len(traced)
            elapsed = perf_counter() - begin
            if done >= MIN_PASSES and elapsed + elapsed / done > seconds:
                break
    finally:
        state.cleanup()

    import numpy

    per_op = best_latencies(untraced)
    tail_s, tail_pct = tail(per_op)
    out = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "wall_s": sum(per_op),
        "pass_wall_median_s": statistics.median(w for w, _ in untraced),
        "pass_wall_min_by_cpu_s": {str(c): min(w) for c, w in sorted(cpu_walls.items())},
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail_s,
        "op_tail_pct": tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        per_pass = [t.layer_metrics() for t in tracers]
        layer = {
            name: statistics.median(p[name] for p in per_pass)
            for name, _ in PER_LAYER
            if name != "trace.overhead_s"
        }
        layer["trace.overhead_s"] = sum(best_latencies(traced)) - sum(per_op)
        out["per_layer"] = layer
        out["traced_wall_s"] = [w for w, _ in traced]
        out["traced_self_s"] = [t.total_self_s() for t in tracers]
        out["layer_calls"] = {
            nm: calls for t in tracers[:1] for nm, (calls, _) in t.by_name().items()
        }
        save_spans(tracers, ROOT / ".perfbench-out" / f"spans-{workload}.npz")
    return out


def save_spans(tracers, path):
    """Write every traced pass's spans once, as flat columns with a pass index."""
    import numpy as np

    names = sorted({nm for t in tracers for nm in t.names})
    index = {nm: i for i, nm in enumerate(names)}
    cols = {"name": [], "start": [], "end": [], "parent": [], "op": [], "pass": []}
    for k, t in enumerate(tracers):
        a = t.arrays()
        remap = np.array([index[nm] for nm in t.names], dtype=np.int32)
        cols["name"].append(remap[a["name"]] if len(a["name"]) else a["name"])
        for key in ("start", "end", "parent", "op"):
            cols[key].append(a[key])
        cols["pass"].append(np.full(len(a["name"]), k, dtype=np.int32))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path, names=np.array(names), **{k: np.concatenate(v) for k, v in cols.items()}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench-out" / f"work-{args.workload}"
    if args.setup_only:
        import workloads

        state = workloads.WORKLOADS[args.workload].setup(args.seed, args.size, workdir)
        setup_s = perf_counter() - T0
        state.cleanup()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out = measure(args.workload, args.seed, args.seconds, args.trace, args.size, workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
