"""Benchmark of symvertex: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload kernel-cold --seed 1 --seconds 25 \\
        --trace 0

Runs from the root of a source checkout and imports the package from
src/.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The workloads and their
metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_TRIALS = 11
PROBE_TIMEOUT = 60

# The benchmark forks children; keep BLAS from starting worker threads in
# the process that forks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, BENCH)
from workloads import WORKLOADS  # noqa: E402
from checker import CheckError  # noqa: E402
from child import ChildError  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "symvertex", "__init__.py")):
        raise ImportError("no symvertex package under %s" % SRC)
    sys.path.insert(0, SRC)
    import symvertex
    where = os.path.dirname(os.path.abspath(symvertex.__file__))
    if where != os.path.join(SRC, "symvertex"):
        raise ImportError("symvertex was imported from %s, not %s"
                          % (where, SRC))
    return symvertex


def setup_probe(args):
    """Set-up as a fresh process pays it: import, then input generation."""
    start = time.perf_counter()
    import numpy  # noqa: F401  (the package's only dependency)
    numpy_done = time.perf_counter()
    import_program()
    imported = time.perf_counter()
    WORKLOADS[args.workload](args.seed)
    done = time.perf_counter()
    return {"numpy_import_s": numpy_done - start,
            "import_s": imported - start,
            "setup_s": done - start}


def run_probes(args):
    """Median set-up over several fresh interpreters, one at a time."""
    runs = []
    for _ in range(SETUP_TRIALS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT)
        if proc.returncode != 0:
            raise ChildError("set-up probe failed: %s" % proc.stderr)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def peak_rss_mb():
    """Peak resident memory of this process and of its largest child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(workload, seconds, tracer):
    """Whole rounds until `seconds` have passed: (round times, records)."""
    walls, rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rounds.append(workload.round(len(rounds), tracer))
        walls.append(time.perf_counter() - t0)
    return walls, rounds


def write_spans(collector, args):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.jsonl"
                        % (args.workload, args.seed))
    with open(path, "w") as fh:
        fh.write(json.dumps(["pid", "span", "name", "start", "end",
                             "parent", "query"]) + "\n")
        for span in collector.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args)))
            return 0
        setup = run_probes(args)
        import_program()
    except (ImportError, ChildError, subprocess.TimeoutExpired) as e:
        print("perfbench: cannot set up the program: %s" % e,
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    tracer = collector = None
    if args.trace:
        from tracing import Collector, Tracer
        tracer, collector = Tracer(), Collector()
        tracer.install()
    try:
        walls, rounds = measure(workload, args.seconds, tracer)
    except ChildError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    peak = peak_rss_mb()

    ops = [op for ops_ in rounds for op in ops_]
    failed = sum(1 for op in ops if not op["ok"])
    correct = True
    try:
        workload.check(rounds)
    except CheckError as e:
        correct = False
        print("perfbench: check failed: %s" % e, file=sys.stderr)
    except ChildError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    if args.trace:
        for op in ops:
            if op.get("trace"):
                collector.add(op["trace"])
        cases = (workload.cases(rounds) if hasattr(workload, "cases")
                 else 0)
        metrics = collector.metrics(len(rounds), cases)
        metrics["setup.import_s"] = (setup["import_s"], "s")
        metrics["setup.numpy_import_s"] = (setup["numpy_import_s"], "s")
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
        print("spans written to %s" % os.path.relpath(
            write_spans(collector, args), ROOT))
    else:
        lat = workload.latencies(rounds)
        typical = [statistics.median(per_round) for per_round in lat]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (peak, "MB"),
            "query_p50_ms": (1000.0 * statistics.median(typical), "ms"),
        }
        print("%s: %d rounds, %d operations; query_p50_ms is the median of "
              "%d queries' median latencies over %d samples"
              % (args.workload, len(rounds), len(ops), len(lat),
                 sum(map(len, lat))))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-44s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
