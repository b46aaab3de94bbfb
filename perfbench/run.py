"""qlocality benchmark: one workload, verdict-checked, in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-search, oracle-queries, geometry-scale, cli-pipeline (see
perfbench/README.md).  The default seed is 1; README.md names the held-out
seed reserved for confirming a claimed gain.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  Each metric is printed on
its own line with its unit, then one result record, then, as the last line,
the JSON result.  A wrong verdict, exit code or digest counts as a failed op
and makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("exact-search", "oracle-queries", "geometry-scale", "cli-pipeline")
DEFAULT_SEED = 1
# Fresh processes that only set up; with the measuring process itself they
# give the samples set-up time is the median of.  Half run before the
# measuring process and half after it, so the samples span the whole run
# rather than one stretch of the machine's load.
SETUP_SAMPLES = 8
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def git_sha() -> str:
    """HEAD of the repository this benchmark sits at the root of, if it is one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before a worker could start")
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qlocality" / "__init__.py").is_file():
        print(f"error: no qlocality sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setup_only = [*common, "--seconds", "0", "--setup-only"]
    rounds = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        setups = [run_worker(setup_only, deadline)["setup_s"] for _ in range(rounds)]
        res = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups += [run_worker(setup_only, deadline)["setup_s"] for _ in range(rounds)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    failed_ops = res["failed"] / res["attempted"]
    if args.trace:
        from spans import PER_LAYER

        metrics = {name: (res["per_layer"][name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {name: (res[name], unit) for name, unit in END_TO_END}

    print(
        f"# {args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
        f"{res['passes']} untraced + {res['traced_passes']} traced passes "
        f"of {res['ops_per_pass']} ops"
    )
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{res['op_tail_pct']:.1f} of {res['ops_per_pass']} per-op minima)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} processes)"
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed_ops {failed_ops:.6g} ratio  ({res['failed']}/{res['attempted']})")
    for failure in res["failures"]:
        print(f"# FAILED {failure}", file=sys.stderr)
    record = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "setup_samples_s": setups,
        "failed_ops": failed_ops,
        **{k: v for k, v in res.items() if k != "per_layer"},
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
