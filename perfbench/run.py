"""possinfo benchmark: one closed-loop caller, four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload continuous-large --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off,
from call times scaled to a reference host speed (see ``speed.py``).
With ``--trace 1`` it runs a fixed list of blocks twice, block by block,
once plain and once with every public library function wrapped in a span,
and reports the per-layer metrics and the tracing overhead.  Either way it
checks every result against its reference after the timed part, prints a
human-readable report, and prints one JSON object as its last line.
"""

import os

# one thread for BLAS/OpenMP, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_TIMED_CALLS = 100  # so that at least ten samples lie beyond the 90th percentile
MAX_TIMED_FACTOR = 4  # a timed phase ends after this many times --seconds, even short of 100 calls
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("continuous-large", "sampling", "inference", "cli-batch")
MODULE_FILES = (
    "__init__", "approx_types", "approximation", "cli", "continuous", "discrete",
    "documents", "errors", "inference", "measures", "simplex",
)

END_TO_END_UNITS = {
    "throughput_calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "ratio",
    "warning_free_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(samples, q):
    """Nearest-rank q-th percentile and the number of samples strictly beyond its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Record:
    key: tuple  # (block, position): the distinct input
    seconds: float
    warned: bool
    error: str = None  # the call raised
    mismatch: bool = False  # a repeat of this input gave a different result
    start: float = 0.0  # perf_counter at the call's start
    kernel_s: float = 0.0  # time of the calibration kernel run right after the call


class Loop:
    """Closed loop: each call is issued after the previous one returns."""

    def __init__(self, workload, tracer=None, kernel=None):
        self.workload = workload
        self.tracer = tracer
        self.kernel = kernel  # untimed calibration run after every call (speed.kernel)
        self.first = {}  # key -> first result (or error) for that input
        self.records = []

    def execute(self, key, call):
        tracer = self.tracer
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.warnings = log
                root = tracer.root(call.kind, len(self.records))
            error = None
            t0 = time.perf_counter()
            try:
                result = call.run(*call.args)
            except Exception as e:  # a failed call is counted, and the loop goes on
                result, error = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            if tracer is not None:
                root[1], root[2] = t0, t1
                tracer.close(root)
        if error is None and call.after is not None:
            result = call.after(result)
        outcome = ("error", error) if error else ("ok", result)
        mismatch = False
        if key in self.first:
            mismatch = self.first[key] != outcome
        else:
            self.first[key] = outcome
        kernel_s = 0.0
        if self.kernel is not None:
            c0 = time.perf_counter()
            self.kernel()
            kernel_s = time.perf_counter() - c0
        self.records.append(Record(key, t1 - t0, bool(log), error, mismatch, t0, kernel_s))

    def run_block(self, b):
        block = self.workload.blocks[b % len(self.workload.blocks)]
        for j, call in enumerate(block):
            self.execute((b % len(self.workload.blocks), j), call)

    def timed(self, seconds):
        """Whole blocks until ``seconds`` have passed and MIN_TIMED_CALLS calls are done.

        Returns the wall time and the number of calls in each block run.
        """
        start = time.perf_counter()
        sizes = []
        b = 0
        while True:
            self.run_block(b)
            sizes.append(len(self.workload.blocks[b % len(self.workload.blocks)]))
            b += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(self.records) >= MIN_TIMED_CALLS:
                break
            if elapsed >= MAX_TIMED_FACTOR * seconds:
                break
        return elapsed, sizes


def check_results(workload, first):
    """Reference check of every distinct input run; returns {key: reason}."""
    reasons = {}
    for key, (status, result) in first.items():
        call = workload.blocks[key[0]][key[1]]
        if status == "error":
            reasons[key] = f"{call.kind} raised {result}"
            continue
        try:
            reason = call.check(result)
        except Exception as e:  # a check that cannot run counts the call as failed
            reason = f"{call.kind}: check raised {type(e).__name__}: {e}"
        if reason:
            reasons[key] = reason
    return reasons


def count_failed(records, reasons):
    return sum(1 for r in records if r.error or r.mismatch or r.key in reasons)


def setup(workloads, name, seed, workdir):
    """Inputs from the seed, input documents on disk, and one warm-up call per kind."""
    workload = workloads.build(name, seed, workdir)
    for call in workload.warmup:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            call.run(*call.args)
    return workload


def measure_setup(args):
    """Wall time of fresh processes that import possinfo and do the whole set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError("set-up process failed")
    return times


def source_lines():
    """Non-blank source lines per module of src/possinfo (0 for a module that is gone)."""
    counts = {}
    total = 0
    for name in sorted(os.listdir(os.path.join(SRC, "possinfo"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "possinfo", name), encoding="utf-8") as fh:
                n = sum(1 for line in fh if line.strip())
            counts[name[:-3]] = n
            total += n
    out = {f"{'init' if m == '__init__' else m}.source_lines": counts.get(m, 0) for m in MODULE_FILES}
    out["possinfo.source_lines"] = total
    return out


def run_record(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "source_lines": source_lines(),
    }


def report(args, record, metrics, samples, attempted, failed, reasons, notes):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("loop: closed, one caller, one single-threaded process; each call waits for the previous one")
    print("run record: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {unit:6s} {samples.get(name, '')}")
    for note in notes:
        print("note: " + note)
    for key, reason in list(reasons.items())[:20]:
        print(f"FAILED {key}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def block_rates(sizes, ms):
    """Calls per second of each block, from per-call times in ms laid out block after block."""
    rates, i = [], 0
    for n in sizes:
        rates.append(1e3 * n / sum(ms[i:i + n]))
        i += n
    return rates


def end_to_end(args, workloads, workload):
    import speed

    setup_times = measure_setup(args)
    for _ in range(20):  # warm the kernel's numpy paths before the clock runs
        speed.kernel()
    loop = Loop(workload, kernel=speed.kernel)
    wall, sizes = loop.timed(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons = check_results(workload, loop.first)
    records = loop.records
    attempted = len(records)
    failed = count_failed(records, reasons)
    warned = sum(r.warned for r in records)
    wall_ms = [1e3 * r.seconds for r in records]
    kernel_s = [r.kernel_s for r in records]
    latencies = speed.scaled_ms([r.start for r in records], [r.seconds for r in records], kernel_s)
    rates = block_rates(sizes, latencies)
    p90, beyond = percentile(latencies, 90)
    metrics = {
        # every block has the same mix, so each block's rate estimates the
        # throughput; their median damps what the scaling leaves of host load
        "throughput_calls_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "warning_free_ratio": (1.0 - warned / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    calls = f"n={attempted} calls"
    samples = {name: calls for name in metrics}
    samples["throughput_calls_per_s"] = f"n={len(rates)} blocks of {calls}"
    samples["latency_p90_ms"] = f"n={attempted} calls, {beyond} beyond"
    samples["setup_s"] = f"n={SETUP_REPEATS} processes: " + ", ".join(f"{t:.3f}" for t in setup_times)
    samples["peak_rss_mb"] = "n=1 process"
    raw_p90, _ = percentile(wall_ms, 90)
    q = statistics.quantiles(kernel_s, n=4)
    notes = [
        f"failed_ratio = {failed / attempted!r} ({failed} of {attempted}); success_ratio = 1 - failed_ratio",
        f"warned_ratio = {warned / attempted!r} ({warned} of {attempted}); warning_free_ratio = 1 - warned_ratio",
        f"timed wall {wall:.3f} s over {len(loop.first)} distinct inputs, calibration kernel included",
        f"times are scaled to a kernel time of {speed.REFERENCE_MS} ms; calibration kernel "
        f"median {1e3 * q[1]:.3f} ms, quartiles {1e3 * q[0]:.3f}-{1e3 * q[2]:.3f} ms",
        f"unscaled wall time: throughput {statistics.median(block_rates(sizes, wall_ms)):.6f} 1/s, "
        f"p50 {statistics.median(wall_ms):.6f} ms, p90 {raw_p90:.6f} ms",
    ]
    by_kind = {}
    for r, ms in zip(records, latencies):
        by_kind.setdefault(workload.blocks[r.key[0]][r.key[1]].kind, []).append(ms)
    for kind, ms in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        notes.append(f"{kind}: n={len(ms)} scaled median {statistics.median(ms):.3f} ms, max {max(ms):.3f} ms")
    if beyond < 10:
        notes.append(f"only {beyond} samples beyond the 90th percentile: the timed phase hit its time cap")
    return metrics, samples, attempted, failed, reasons, notes


def traced(args, workloads, workload, import_ms):
    import spans

    plain = Loop(workload)
    tracer = spans.Tracer()
    with_spans = Loop(workload, tracer)
    with_spans.first = plain.first  # traced results must equal the untraced ones
    plain_s = traced_s = 0.0
    for b in range(workload.trace_blocks):
        t0 = time.perf_counter()
        plain.run_block(b)
        t1 = time.perf_counter()
        tracer.install()
        try:
            with_spans.run_block(b)
        finally:
            tracer.uninstall()
        traced_s += time.perf_counter() - t1
        plain_s += t1 - t0
    reasons = check_results(workload, plain.first)
    records = plain.records + with_spans.records
    attempted = len(records)
    failed = count_failed(records, reasons)

    layer = spans.layer_metrics(tracer.spans)
    layer["cli.import_ms"] = (import_ms, "ms")
    layer["continuous.product_defect_probes"] = (workloads.known_product_defects(), "count")
    layer["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    for name, n in source_lines().items():
        layer[name] = (n, "lines")
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")
    tracer.write(trace_path)
    samples = {name: f"{len(with_spans.records)} traced calls" for name in layer}
    notes = [
        f"{len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}",
        "no wait times: one thread, no queues or locks, so no call waits for another",
        f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s over the same "
        f"{workload.trace_blocks} blocks",
        "continuous.product_defect_probes counts products that info_from_level gets wrong "
        "(known defect; these probes are not timed calls)",
    ]
    return layer, samples, attempted, failed, reasons, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "possinfo", "__init__.py")):
        print("error: src/possinfo not found; run from the root of a possinfo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import possinfo.cli  # everything the CLI imports, from a cold process

    import_ms = 1e3 * (time.perf_counter() - t0)
    if not os.path.abspath(possinfo.__file__).startswith(SRC + os.sep):
        print(f"error: possinfo imported from {possinfo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = setup(workloads, args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced(args, workloads, workload, import_ms)
        else:
            result = end_to_end(args, workloads, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, run_record(args.seed), *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
