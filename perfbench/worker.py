"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; writes its measurements as JSON to ``--result``.
Set-up (imports, input generation, config parsing) is timed from the top of
this file.  ``--setup-only`` stops there.  Otherwise the workload repeats
untraced until its share of ``--seconds`` is spent, then, with ``--trace 1``,
repeats with every layer traced.  The first repetition's outputs are
checked; every later one must hash to the same digest.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir) for f in files)


def machine_record(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "commit": commit,
    }


class Run:
    """Repetitions of one workload with failure and digest bookkeeping."""

    def __init__(self, workload, inputs, out_dir):
        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None

    def _fail(self, what):
        self.failed += 1
        self.failures.append(what)

    def rep(self):
        """One timed repetition; ``(wall_s, cpu_s)`` or None if it raised."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            ops, failed, result = self.workload.run(self.inputs, self.out_dir)
        except Exception as exc:  # counted as a failed operation, run stops
            self.attempted += 1
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.attempted += ops
        if failed:
            self.failed += failed
            self.failures.append(f"{failed} of {ops} grwflash calls failed")
        digest = self.workload.digest(self.out_dir, result)
        if self.digest is None:
            self.digest = digest
            for name, ok, detail in self.workload.check(self.inputs, self.out_dir,
                                                        result):
                self.attempted += 1
                if not ok:
                    self._fail(f"check {name!r} failed: {detail}")
        else:
            self.attempted += 1
            if digest != self.digest:
                self._fail("outputs differ between two runs of one seed")
        return wall, cpu

    def repeat(self, budget, min_reps):
        """Repeat until ``budget`` seconds would be exceeded (``min_reps`` runs)."""
        walls, cpus = [], []
        start = time.perf_counter()
        while True:
            timed = self.rep()
            if timed is None:
                break
            walls.append(timed[0])
            cpus.append(timed[1])
            elapsed = time.perf_counter() - start
            if len(walls) >= min_reps and elapsed + statistics.median(walls) > budget:
                break
        return walls, cpus


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import grwflash

    package = os.path.realpath(os.path.dirname(grwflash.__file__))
    if package != os.path.realpath(os.path.join(src, "grwflash")):
        print(f"error: imported grwflash from {package}, not from {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    inputs = workload.setup(args.seed, args.work_dir)
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(out, fh)
        return 0

    run = Run(workload, inputs, os.path.join(args.work_dir, "out"))
    budget = args.seconds / (2 if args.trace else 1)
    walls, cpus = run.repeat(budget, min_reps=1 if args.trace else 2)
    out.update(
        wall_s=walls,
        cpu_s=cpus,
        items=workload.items(inputs),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_record(args.root),
    )
    if args.trace and walls:
        spans_dir = os.path.join(os.path.dirname(args.work_dir), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        out["layers"] = traced_reps(run, budget, statistics.median(walls),
                                    spans_dir, f"{args.workload}-{args.seed}")
    out.update(attempted=run.attempted, failed=run.failed, failures=run.failures)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


def traced_reps(run, budget, untraced_wall, spans_dir, run_id):
    """Repeat with every layer traced; median of each per-layer metric."""
    import layers
    from spans import SpanRecorder, rebound

    recorders, per_rep = [], []
    start = time.perf_counter()
    while True:
        rec = SpanRecorder(f"{run_id}-{len(recorders)}")
        with rebound(layers.bindings(rec)):
            timed = run.rep()
        if timed is None:
            break
        metrics = layers.layer_metrics(rec, timed[0])
        metrics["cli.output_bytes"] = _output_bytes(run.out_dir)
        per_rep.append(metrics)
        recorders.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(m["trace.wall_s"] for m in per_rep) > budget:
            break
    for rec in recorders:
        rec.write(os.path.join(spans_dir, f"spans-{rec.run_id}.csv"))
    if not per_rep:
        return {}
    out = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


if __name__ == "__main__":
    sys.exit(main())
