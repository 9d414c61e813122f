"""nodeflow benchmark: seeded closed-loop workloads with exact-answer checks.

Run from the repository root:

    python3 perfbench/run.py --workload wflow-directed --seed 1 --seconds 25 --trace 0

One caller in one process runs the workload's ops back to back (a closed
loop, no extra threads) for ``--seconds``, then checks every answer outside
the timed region.  With ``--trace 0`` the last line of standard output is a
JSON object carrying the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run (see ``tracing.py``).  Human-readable
lines before it give the environment, failure and check counts, and the
percentile behind ``solve_ms_tail``.

nodeflow is imported from ``src/`` next to this directory and nowhere else;
without it the benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import types
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 1
SETUP_REPS = 3
MODULES = ("rational", "lp", "network", "te", "wflow", "centrality", "srte",
           "fileio", "cli")

sys.path.insert(0, HERE)
# The checks may import scipy; keep its numeric libraries to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks  # noqa: E402  (benchmark-local modules, found through HERE)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Machine-speed calibration.  The host this benchmark was defined on switched
# between two speeds about 1.7x apart for stretches of seconds to minutes, so
# raw wall times of identical work spread by 0.3-0.5 between runs.  A fixed
# exact solve that uses no nodeflow code is timed every CALIBRATE_EVERY_S of
# the measured phase; each op's wall time is scaled by CALIBRATION_MS over
# the calibration times around it, which reports every timing at the speed
# at which the calibration solve takes CALIBRATION_MS.  Raw figures are
# printed beside the scaled ones.
CALIBRATION_MS = 20.0
CALIBRATE_EVERY_S = 0.5
CALIBRATION_WINDOW_S = 1.0


def import_nodeflow():
    """Import nodeflow afresh from SRC, as a namespace of its modules."""
    for name in [n for n in sys.modules if n == "nodeflow" or n.startswith("nodeflow.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("nodeflow")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "nodeflow"):
        raise ImportError(f"nodeflow was imported from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"nodeflow.{m}")
                                    for m in MODULES})


def environment(nf):
    backend = "mpq" if nf.rational.ONE.__class__.__name__ == "mpq" else "Fraction"
    try:
        import scipy
        checker = f"scipy {scipy.__version__} HiGHS duals, checked exactly"
    except ImportError:
        checker = "exact simplex only (no scipy)"
    return (f"python {sys.version.split()[0]}, rational backend {backend}, "
            f"nproc {os.cpu_count()}, checker {checker}")


class Speedometer:
    """Times the calibration solve and turns nearby samples into a factor."""

    def __init__(self):
        rng = random.Random(0)
        self.columns = [{r: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                         for r in rng.sample(range(8), 4)} for _ in range(20)]
        self.rhs = [Fraction(rng.randint(5, 20)) for _ in range(8)]
        self.at = []        # sample midpoints, increasing
        self.took = []      # sample durations, seconds
        self.last = -1e9

    def sample(self):
        t0 = time.perf_counter()
        checks.exact_max(self.columns, self.rhs)
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def factor(self, start, end):
        """CALIBRATION_MS over the median calibration time within
        CALIBRATION_WINDOW_S of the interval [start, end] (the nearest
        sample when none is that close)."""
        lo = bisect.bisect_left(self.at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CALIBRATION_WINDOW_S)
        near = self.took[lo:hi]
        if not near:
            i = min(max(bisect.bisect_left(self.at, start), 0), len(self.at) - 1)
            near = [self.took[i]]
        return CALIBRATION_MS / 1000 / statistics.median(near)


def set_up(workload, seed, scale, workdir):
    """Import, generate the pool (writing its instance files), warm up."""
    nf = import_nodeflow()
    pool = workload["build"](random.Random(seed), nf, workdir, scale)
    workload["op"](nf, pool[0])
    return nf, pool


def measure(workload, nf, pool, seconds, count=None, tracer=None, speed=None):
    """Run ops back to back, cycling through the pool, until ``seconds`` have
    passed (or exactly ``count`` ops), taking a calibration sample between
    ops every CALIBRATE_EVERY_S when given a Speedometer.  Returns (records,
    elapsed) with one (pool index, start, seconds, result or exception)
    record per op."""
    op = workload["op"]
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    if speed:
        speed.sample()
    while True:
        item = pool[i % len(pool)]
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(i, op, nf, item) if tracer else op(nf, item)
        except Exception as exc:  # a failed op is counted, not fatal
            result = exc
        t1 = time.perf_counter()
        records.append((i % len(pool), t0, t1 - t0, result))
        i += 1
        done = (count is not None and i >= count) or (count is None and t1 >= deadline)
        if speed and (done or t1 - speed.last >= CALIBRATE_EVERY_S):
            speed.sample()
        if done:
            return records, t1 - start


def check_all(workload, pool, records, reference):
    """Check every answer.  Returns (failed, wrong); prints what went wrong."""
    verified = {}
    failed = wrong = 0
    for idx, _, _, result in records:
        if isinstance(result, Exception):
            failed += 1
            if failed <= 3:
                print(f"failed op on pool item {idx}: {result!r}", file=sys.stderr)
            continue
        sig = workload["signature"](result)
        problems = []
        if verified.get(idx) != sig:
            problems = workload["check"](pool[idx], result)
            if reference is not None and idx < len(reference):
                got = workload["objective"](result)
                if got != reference[idx]:
                    problems.append(f"objective {got} differs from reference {reference[idx]}")
            if not problems:
                verified[idx] = sig
        if problems:
            wrong += 1
            if wrong <= 3:
                print(f"wrong answer on pool item {idx}: {problems[:3]}", file=sys.stderr)
    return failed, wrong


def tail(ms):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, samples)."""
    s = sorted(ms)
    if len(s) <= 10:
        return s[-1], 100.0, len(s)
    return s[-11], 100.0 * (len(s) - 10) / len(s), len(s)


def load_reference(name, seed, scale):
    if seed != DEFAULT_SEED or scale != "full" or not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def emit(correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def run(args):
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    speed = Speedometer()
    try:
        setup_raw, setup_scaled = [], []
        for _ in range(1 if args.trace else SETUP_REPS):
            speed.sample()
            t0 = time.perf_counter()
            nf, pool = set_up(workload, args.seed, args.scale, workdir)
            t1 = time.perf_counter()
            speed.sample()
            setup_raw.append(t1 - t0)
            setup_scaled.append((t1 - t0) * speed.factor(t0, t1))
        gc.collect()
        gc.freeze()   # the pool lives all run: keep it out of the collector's scans
        print(f"env: {environment(nf)}")
        print(f"workload {args.workload}: seed {args.seed}, pool {len(pool)}, "
              f"{args.seconds} s, trace {args.trace}")
        if args.trace:
            return traced_run(args, workload, nf, pool)
        records, elapsed = measure(workload, nf, pool, args.seconds, speed=speed)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, wrong = check_all(workload, pool, records,
                                  load_reference(args.workload, args.seed, args.scale))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(records)
    report(workload, pool, records, n, failed, wrong)
    raw, scaled = defaultdict(list), defaultdict(list)
    for idx, start, dt, _ in records:
        raw[idx].append(1000 * dt)
        scaled[idx].append(1000 * dt * speed.factor(start, start + dt))
    print(f"{len(raw)} instances ran {min(map(len, raw.values()))}-"
          f"{max(map(len, raw.values()))} times each; {n} ops in {elapsed:.2f} s; "
          f"calibration solve took {1000 * min(speed.took):.1f}-"
          f"{1000 * max(speed.took):.1f} ms over {len(speed.took)} samples")
    metrics = {}
    for label, times, setup in (("raw", raw, setup_raw), ("scaled", scaled, setup_scaled)):
        # One typical time per instance, the median of its ops: the run
        # passes over the pool several times.
        typical = [statistics.median(t) for t in times.values()]
        tail_ms, pct, samples = tail(typical)
        metrics[label] = {
            "solves_per_s": (1000 * len(typical) / sum(typical), "1/s"),
            "solve_ms_p50": (statistics.median(typical), "ms"),
            "solve_ms_tail": (tail_ms, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    print(f"solve_ms_tail is p{pct:.1f} of {samples} instances")
    print("raw wall-clock figures, before scaling to the calibration speed:")
    for name, (value, unit) in metrics["raw"].items():
        print(f"  raw {name} = {value:.6g} {unit}")
    emit(wrong == 0, n, failed, metrics["scaled"])
    return 0


def report(workload, pool, records, n, failed, wrong):
    print(f"ops {n}, distinct instances {len({r[0] for r in records})}, "
          f"failed_frac {failed / n:.4g}, wrong_frac {wrong / n:.4g}")
    decided = [pool[idx].get("decided") for idx in {r[0] for r in records}]
    if any(d is not None for d in decided):
        print(f"the path LP over all walks decided {sum(1 for d in decided if d)} of "
              f"{len(decided)} distinct instances; the rest met the max-flow bound only")


def traced_run(args, workload, nf, pool):
    """Untraced ops for half the time, then the same ops traced; the
    per-layer metrics come from the traced half."""
    plain, plain_s = measure(workload, nf, pool, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(nf)
    try:
        traced, traced_s = measure(workload, nf, pool, 0, count=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    records = plain + traced
    failed, wrong = check_all(workload, pool, records,
                              load_reference(args.workload, args.seed, args.scale))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(path)
    n = len(records)
    report(workload, pool, records, n, failed, wrong)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    values = tracer.metrics(traced_s)
    values["trace.solves_per_s"] = len(traced) / traced_s
    values["trace.untraced_solves_per_s"] = len(plain) / plain_s
    values["trace.overhead_solves_per_s"] = (values["trace.untraced_solves_per_s"]
                                             - values["trace.solves_per_s"])
    emit(wrong == 0, n, failed,
         {name: (float(values[name]), unit) for name, unit in tracing.LAYER_METRICS})
    return 0


def record_reference(args):
    """Solve and check the first ``--record-reference`` pool items of the
    default seed and store their exact objectives in reference.json."""
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        nf, pool = set_up(workload, DEFAULT_SEED, "full", workdir)
        records, _ = measure(workload, nf, pool, 0, count=args.record_reference)
        failed, wrong = check_all(workload, pool, records, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed or wrong:
        print(f"not recorded: {failed} failed, {wrong} wrong", file=sys.stderr)
        return 1
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref[args.workload] = [workload["objective"](r[3]) for r in records]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(records)} objectives for {args.workload}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's small instances")
    parser.add_argument("--record-reference", type=int, metavar="N", default=0,
                        help="record the default seed's first N exact objectives")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nodeflow", "__init__.py")):
        print(f"perfbench: no nodeflow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_reference:
        return record_reference(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
