"""gluesat benchmark.

    python3 perfbench/run.py --workload solve-vanilla --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; gluesat is imported from ``src/``.
Workloads and metric names and units come from ``BENCHMARK.json``; the layer
of each metric and what it is expected to move are in
``perfbench/metrics.json``.  ``--workload all`` runs all four, one process
each.

``--trace 0`` sets up the workload, discards one warm-up op, then runs ops
until ``--seconds`` have passed and reports the end-to-end metrics from
medians over them; further set-ups spread over that window give the median
``setup_s``.  Gated timings are calibrated seconds (see ``calib.py``); the
report prints the raw wall-clock figures beside them.  ``--trace 1`` runs a
fixed number of ops, so every count repeats exactly for a given seed, each
once untraced and once traced; it reports the per-layer metrics of the
traced runs (and of one traced set-up), the tracing overhead on the same
ops, and writes the spans to ``.bench_out/trace-<workload>-seed<seed>.json``.

Both modes check the program's answers and count failures.  Every line
before the last is a readable report; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# pinned before anything imports numpy, so BLAS/OpenMP start one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import REF_S, Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOGUE = json.loads((HERE / "metrics.json").read_text())


def load_benchmark() -> dict:
    """BENCHMARK.json, with every metric it names checked against the
    catalogue, so the two files cannot drift apart unnoticed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[kind]]
        if set(names) != set(CATALOGUE[kind]):
            raise RuntimeError(f"{kind}: BENCHMARK.json has {names}, metrics.json {list(CATALOGUE[kind])}")
    if [w["name"] for w in bench["workloads"]] != list(CATALOGUE["workloads"]):
        raise RuntimeError("BENCHMARK.json and metrics.json list different workloads")
    return bench


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool):
        self.attempted += 1
        self.failed += not ok


def timed_op(wl, state, i, tracer, tally):
    """Prepare op i untimed, then run and time it; returns (start, seconds,
    work), or None if it raised or failed its check."""
    try:
        item = wl.prepare(state, i, tracer)
        t0 = time.perf_counter()
        with tracer.span("op"):
            work, ok = wl.op(state, item, i, tracer)
        dt = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        ok = False
    tally.record(ok)
    if not ok:
        print(f"op {i} of {wl.name} failed", file=sys.stderr)
        return None
    return t0, dt, work


def run_checks(wl, state, tracer, tally):
    try:
        oks = wl.checks(state, tracer)
    except Exception:
        traceback.print_exc()
        oks = [False]
    for ok in oks:
        tally.record(ok)
    if not all(oks):
        print(f"{wl.name}: {oks.count(False)} correctness check(s) failed", file=sys.stderr)


def tail(samples):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer samples.
    Below twenty samples that percentile is under the median."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_timed(wl, seed, seconds, tracer, tally):
    ref = Reference()
    inputs = wl.inputs(seed)                        # the benchmark's own work: untimed
    setups = []                                     # (start, seconds)

    def timed_setup():
        ref.sample()
        t0 = time.perf_counter()
        state = wl.setup(inputs, tracer)
        setups.append((t0, time.perf_counter() - t0))
        ref.sample()
        return state

    state = timed_setup()
    timed_op(wl, state, 0, tracer, tally)            # warm-up, discarded
    ops = []                                        # (start, seconds, work)
    start = time.perf_counter()
    i = 0
    while (elapsed := time.perf_counter() - start) < seconds:
        # the other set-ups are spread over the window (their state is
        # dropped), so setup_s is measured on the same machine as the ops
        if elapsed >= seconds * len(setups) / wl.setup_repeats:
            timed_setup()
            continue
        if ref.due():
            ref.sample()
        result = timed_op(wl, state, i, tracer, tally)
        i += 1
        if result is not None:
            ops.append(result)
    ref.sample()
    while len(setups) < wl.setup_repeats:
        timed_setup()
    run_checks(wl, state, tracer, tally)
    if not ops:
        raise RuntimeError(f"no {wl.name} op succeeded")

    def calibrated(timings):
        return [ref.calibrate(dt, t0 + dt / 2) for t0, dt, *_ in timings]

    op_s = calibrated(ops)
    tail_s, tail_pct = tail(op_s)
    n = len(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(calibrated(setups)),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    wall_s = [dt for _, dt, _ in ops]
    ref_s = [d for _, d in ref.samples]
    # the same numbers under the names each workload's users know them by
    report = [
        ("setup_s", metrics["setup_s"], "s", wl.setup_repeats, "median of set-ups, calibrated"),
        (f"{wl.op_label}_p50", metrics["op_s_p50"], "s", n, "median, calibrated"),
        (f"{wl.op_label}_tail", tail_s, "s", n, f"p{tail_pct:.1f}, calibrated"),
        ("setup_wall_s", statistics.median(dt for _, dt in setups), "s", wl.setup_repeats, "median, wall clock"),
        (f"{wl.op_label}_wall_p50", statistics.median(wall_s), "s", n, "median, wall clock"),
        (f"{wl.op_label}_wall_tail", tail(wall_s)[0], "s", n, f"p{tail_pct:.1f}, wall clock"),
        ("ref_s", statistics.median(ref_s), "s", len(ref_s),
         f"median reference kernel time; calibration scales by {REF_S} / nearby samples"),
    ]
    rates = [work / dt for _, dt, work in ops]
    if wl.rate_label:
        report.append((wl.rate_label, statistics.median(rates), "1/s", n, "median of per-op rates, wall clock"))
    for name, (value, unit, count) in wl.quality(state).items():
        report.append((name, value, unit, count, "mean over the first instances"))
    report.append(("peak_rss_mb", peak_rss_mb, "MB", 1, "whole process"))
    return metrics, report


def run_traced(wl, seed, tracer, tally, units):
    inputs = wl.inputs(seed)
    with tracer.installed():
        tracer.op = "setup"
        state = wl.setup(inputs, tracer)
        tracer.harvest()
    timed_op(wl, state, 0, tracer, tally)            # warm-up, discarded

    def traced_op(i):
        with tracer.installed():
            tracer.op = i
            result = timed_op(wl, state, i, tracer, tally)
            tracer.harvest()
        return result and result[1]

    plain, traced = [], []
    for i in range(wl.trace_ops):
        # each op runs untraced and traced, alternating which goes first
        if i % 2:
            traced.append(traced_op(i))
        result = timed_op(wl, state, i, tracer, tally)
        plain.append(result and result[1])
        if not i % 2:
            traced.append(traced_op(i))
    run_checks(wl, state, tracer, tally)
    metrics = tracer.layer_metrics()
    pairs = [t / p for t, p in zip(traced, plain) if t is not None and p is not None]
    if not pairs:
        raise RuntimeError(f"no {wl.name} op succeeded")
    metrics["trace.overhead_frac"] = statistics.median(pairs) - 1.0
    report = [(name, value, units[name], wl.trace_ops, "") for name, value in metrics.items()]
    return metrics, report


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": git_sha(),
    }


def run_all(args, workloads) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    codes = []
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    args = parse_args(argv, workloads)
    if not (SRC / "gluesat" / "__init__.py").is_file():
        print(f"perfbench: gluesat sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads)
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    tally = Tally()
    env = environment()
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if args.trace:
        metrics, report = run_traced(wl, args.seed, tracer, tally, units)
        path = ROOT / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": wl.name, "seed": args.seed, "env": env})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics, report = run_timed(wl, args.seed, args.seconds, tracer, tally)
    report.append(("failed_frac", tally.failed / tally.attempted, "", tally.attempted, "failed / attempted"))
    print(f"{'metric':36} {'value':>16} {'unit':6} {'samples':>7}  note")
    for name, value, unit, count, note in report:
        print(f"{name:36} {value:16.6g} {unit:6} {count:7d}  {note}")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {list(metrics)} do not match BENCHMARK.json {list(units)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
