"""grwflash benchmark: four user-path workloads, end-to-end and per layer.

Run from the root of a source checkout (grwflash is imported from ``src/``):

    python3 perfbench/run.py                       # every workload, a table
    python3 perfbench/run.py --workload verify-1d --seed 3 --seconds 25
    python3 perfbench/run.py --workload oracle-2p --trace 1

With ``--workload``, the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it,
every workload runs in turn and a table of all metrics is printed first.

Each run is closed loop: one caller, one grwflash call at a time,
``--threads 1``, and BLAS limited to at most two threads.  Set-up is timed
in ``SETUP_SAMPLES`` fresh processes and reported as their median; the
workload itself runs in one more fresh process, so its peak memory is its
own.  Scratch files go to ``.perfbench_work/`` in the checkout; span files
of traced runs stay in ``.perfbench_work/spans/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-1d", "ensemble-2p", "oracle-2p", "kernel-tables")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _worker_env():
    env = dict(os.environ)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, work_dir, result, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", work_dir, "--result", result, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                          timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def run_workload(args):
    """One run of ``args.workload``; the result object the driver reads."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    result = os.path.join(work_dir, "result.json")
    try:
        setups = [_worker(args, work_dir, result, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        out = _worker(args, work_dir, result, deadline,
                      ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    walls = out["wall_s"]
    if args.trace:
        metrics = out.get("layers", {})
    elif walls:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(out["cpu_s"]),
            "items_per_s": statistics.median(out["items"] / w for w in walls),
            "peak_rss_mib": out["peak_rss_mib"],
        }
    else:
        metrics = {}
    return {
        "correct": out["failed"] == 0 and bool(metrics),
        "attempted": max(1, out["attempted"]),
        "failed": out["failed"],
        "metrics": metrics,
        "reps": len(walls),
        "failures": out["failures"],
        "machine": out["machine"],
    }


def _units(trace):
    if not trace:
        return END_TO_END
    sys.path.insert(0, HERE)
    from layers import METRIC_UNITS

    return METRIC_UNITS


def _print_table(results, trace):
    units = _units(trace)
    names = list(results)
    print(f"{'metric':<46}{'unit':>7}" + "".join(f"{n:>16}" for n in names))
    rows = list(units.items())
    if not trace:
        rows.append(("failed_frac", "1"))
    for metric, unit in rows:
        cells = []
        for n in names:
            r = results[n]
            v = (r["failed"] / r["attempted"] if metric == "failed_frac"
                 else r["metrics"].get(metric))
            cells.append(f"{v:>16.6g}" if v is not None else f"{'-':>16}")
        print(f"{metric:<46}{unit:>7}" + "".join(cells))


def main(argv=None):
    p = argparse.ArgumentParser(
        description="grwflash benchmark (see the module docstring)")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; default: all of them, with a table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grwflash", "__init__.py")):
        print(f"error: no grwflash sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args),
                                                               "workload": name}))
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for failure in results[name]["failures"]:
            print(f"{name}: {failure}", file=sys.stderr)

    print("machine: " + json.dumps(results[names[0]]["machine"], sort_keys=True))
    if args.workload:
        r = results[args.workload]
        print(f"{args.workload}: {r['reps']} untraced repetitions, "
              f"{r['attempted']} operations, {r['failed']} failed")
        units = _units(args.trace)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in r["metrics"].items()}
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
        return 0
    _print_table(results, args.trace)
    print(json.dumps({n: {k: r[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}
                      for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
