"""harmcalc benchmark runner: one workload, one fresh process, one client.

    python3 bench/run.py --workload quadric-solve --seed 0 --seconds 15 --trace 0

Closed loop with one client and no threads.  The workload's operation list
is generated from the seed, run once untimed (warm-up; every result is
checked exactly there and, on the default seed, hashed against
`reference_hashes.json`), then run in whole passes until `--seconds` have
elapsed and at least the workload's minimum number of passes is done.  Every
timed result must hash to its checked warm-up result.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of traced passes, each traced
pass preceded by an untraced pass of the same operations so that their wall
times give `trace.overhead_frac`.  Spans are written to `.bench_out/`.
Reported times are scaled to a nominal host speed (see CAL_NOMINAL_S).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 11
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import harmcalc, harmcalc.cli\n"
    "harmcalc.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "if not harmcalc.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('harmcalc imported from outside the checkout')\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import run, statistics\n"
    "print(repr(t1 - t0), repr(statistics.median(run.calibrate() for _ in range(5))))\n"
)
# Tail percentile: the highest rung that keeps at least ten samples beyond
# it at the workload's guaranteed sample count (min passes x ops per pass),
# so every run of a workload reports the same percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Host speed.  On a shared host the same Python code runs up to ~1.8x faster
# or slower from one minute to the next.  A fixed Fraction kernel that lives
# here, so no library change moves it, is timed before every timed operation
# and in every setup subprocess.  Each time is scaled by CAL_NOMINAL_S over the
# median kernel time of the CAL_WINDOW samples around it, so reported times
# are seconds at the host speed at which the kernel takes CAL_NOMINAL_S.
CAL_NOMINAL_S = 0.0025
CAL_WINDOW = 9
_CAL_MATRIX = [[Fraction(1, i + j + 1) + (i == j) for j in range(8)] for i in range(8)]


def die(msg):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "harmcalc", "__init__.py")):
        die("no harmcalc sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import harmcalc

    if not os.path.abspath(harmcalc.__file__).startswith(SRC + os.sep):
        die("imported harmcalc from %s, not from the checkout" % harmcalc.__file__)


def measure_setup():
    """Median cold import + build_parser time over fresh interpreters."""
    times, cals = [], []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, SRC, HERE],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if i:  # the first run only writes the bytecode cache
            t, cal = map(float, out.stdout.split())
            times.append(t)
            cals.append(cal)
    return statistics.median(t * s for t, s in zip(times, speed_scale(cals)))


def calibrate():
    """Seconds for a fixed Fraction elimination and product chain."""
    t0 = time.perf_counter()
    rows = [r[:] for r in _CAL_MATRIX]
    for c in range(len(rows)):
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    x = Fraction(1)
    for i in range(1, 200):
        x = x * Fraction(i + 1, i + 3) + Fraction(1, i)
    return time.perf_counter() - t0


def speed_scale(cals):
    """Per sample: CAL_NOMINAL_S / median of the calibrations around it."""
    h = CAL_WINDOW // 2
    return [CAL_NOMINAL_S / statistics.median(cals[max(0, i - h):i + h + 1])
            for i in range(len(cals))]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def tail_rung(n):
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50.0


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics with Beta(q(n+1), (1-q)(n+1))
    weights.  Unlike a single order statistic it does not jump when the
    quantile falls between two clusters of operation costs, which keeps
    runs with different seeds comparable.
    """
    x = sorted(values)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    weights = []
    steps = 16  # Simpson's rule on each [i/n, (i+1)/n]
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + pdf(lo + steps * h) + inner) * h / 3)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


class Runner:
    def __init__(self, workload, ops, tracer=None):
        self.workload = workload
        self.ops = ops
        self.tracer = tracer
        self.expected = []  # warm-up hash per op, None when its check failed

    def run_op(self, i):
        """Run op i: (seconds, output hash or None if it raised, result, prepared)."""
        prepared = self.workload.prepare(self.ops[i])
        tr = self.tracer
        if tr is not None:
            tr.op = i
            tr.active = True
        t0 = time.perf_counter()
        try:
            result = prepared.call()
        except Exception as exc:  # an unexpected raise counts as a failure
            dt = time.perf_counter() - t0
            print("bench: op %d raised %s: %s" % (i, type(exc).__name__, exc), file=sys.stderr)
            return dt, None, None, prepared
        finally:
            if tr is not None:
                tr.active = False
        dt = time.perf_counter() - t0
        return dt, digest(prepared.render(result)), result, prepared

    def warm_up(self, reference):
        """Untimed pass: check every result exactly and record its hash."""
        failures = 0
        for i, op in enumerate(self.ops):
            _, h, result, prepared = self.run_op(i)
            problem = "raised" if h is None else prepared.check(result)
            if problem is None and reference is not None and reference[i] != h:
                problem = "output hash differs from the reference list"
            if problem:
                failures += 1
                print("bench: op %d (%s) failed: %s" % (i, op["kind"], problem), file=sys.stderr)
                h = None
            self.expected.append(h)
        return failures

    def timed_pass(self):
        """Per op: (calibration seconds, op seconds, passed)."""
        out = []
        for i in range(len(self.ops)):
            cal = calibrate()
            dt, h, _, _ = self.run_op(i)
            out.append((cal, dt, h is not None and h == self.expected[i]))
        return out


def scaled_times(samples):
    """Op seconds of timed-pass samples, scaled to the nominal host speed."""
    scale = speed_scale([cal for cal, _, _ in samples])
    return [dt * s for (_, dt, _), s in zip(samples, scale)]


def reference_hashes(name, seed, default_seed):
    if seed != default_seed:
        return None
    with open(os.path.join(HERE, "reference_hashes.json")) as fh:
        return json.load(fh)[name]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.ops(args.seed)

    setup_s = None if args.trace else measure_setup()

    runner = Runner(wl, ops)
    runner.warm_up(reference_hashes(wl.name, args.seed, workloads.DEFAULT_SEED))
    gc.collect()

    if args.trace:
        return trace_run(args, wl, runner, tracing)

    samples, passes = [], 0
    start = time.perf_counter()
    while passes < wl.min_passes or time.perf_counter() - start < args.seconds:
        samples += runner.timed_pass()
        passes += 1
    times = scaled_times(samples)
    latencies = [t for t, (_, _, ok) in zip(times, samples) if ok]
    wall = sum(times)
    attempted = len(samples)
    failed = attempted - len(latencies)
    rung = tail_rung(wl.min_passes * len(ops))
    n = len(latencies)
    metrics = {
        "ops_per_s": (n / wall if wall else 0.0, "op/s"),
        "latency_p50_s": (hd_quantile(latencies, 0.5) if n else 0.0, "s"),
        "latency_tail_s": (hd_quantile(latencies, rung / 100) if n else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    print("workload %s seed %d: %d passes, %d ops attempted, %d failed"
          % (wl.name, args.seed, passes, attempted, failed))
    print("  op time %.3f s measured, %.3f s at nominal host speed"
          % (sum(dt for _, dt, _ in samples), wall))
    for name, (value, unit) in metrics.items():
        note = " (p%g of n=%d)" % (rung, n) if name == "latency_tail_s" else ""
        print("  %-15s %.6g %s%s" % (name, value, unit, note))
    print("  %-15s %.6g ratio" % ("failed_frac", failed / attempted))
    emit(failed, attempted, metrics)
    return 0


def trace_run(args, wl, runner, tracing):
    tr = tracing.Tracer()
    runner.tracer = tr
    samples, traced, pairs = [], [], 0
    start = time.perf_counter()
    while pairs < 1 or time.perf_counter() - start < args.seconds:
        samples += runner.timed_pass()
        tr.install()
        try:
            samples += runner.timed_pass()
        finally:
            tr.uninstall()
        n = len(runner.ops)
        traced += [False] * n + [True] * n
        pairs += 1
    times = scaled_times(samples)
    untraced_wall = sum(t for t, on in zip(times, traced) if not on)
    traced_wall = sum(t for t, on in zip(times, traced) if on)
    attempted = len(samples)
    failed = sum(1 for _, _, ok in samples if not ok)
    overhead = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    metrics = tracing.per_layer(tr.stats, pairs, overhead)
    os.makedirs(OUT, exist_ok=True)
    tr.write_spans(os.path.join(OUT, "spans-%s-%d.jsonl" % (wl.name, args.seed)))
    print("workload %s seed %d traced: %d pass pairs, %d spans, overhead %.3f"
          % (wl.name, args.seed, pairs, len(tr.spans), overhead))
    for name, (value, unit) in metrics.items():
        print("  %-34s %.6g %s" % (name, value, unit))
    emit(failed, attempted, metrics)
    return 0


def emit(failed, attempted, metrics):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
