"""nearfair benchmark: one workload per run, served by a single-threaded
closed loop (one client sends the next request when the previous one is
answered) inside this one process.

    python3 bench/run.py --workload round --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; nearfair is imported from ``src/``.
With ``--trace 0`` whole blocks of requests are served for about
``--seconds / PASSES``, the same requests are served again in the remaining
passes, and the end-to-end metrics are reported.  With ``--trace 1`` a fixed
number of blocks is served, each request untraced and then with span hooks
installed, and the per-layer metrics are reported.  Informational lines
come first; the last line of standard output is the JSON result.  See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 3  # set-up runs this often per run; setup_s is the median
WARMUP = 2  # requests served in each set-up
PASSES = 2  # timed passes over the same requests; a latency is the fastest
PROBE_REF_S = 0.010  # a round figure for probe_s() on a 2-core x86 VM; times are scaled to it
PROBES = 3  # probe runs after each block and each set-up
_now = time.perf_counter


def _import_library() -> float:
    """Import nearfair from this checkout's ``src/`` and return the time the
    imports took.  Exits with code 2 when the checkout holds no library."""
    if not (SRC / "nearfair" / "__init__.py").is_file():
        print(f"error: no nearfair sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(BENCH), str(SRC)]
    t0 = _now()
    global NearFairError, InvariantViolation, SERVE, WORKLOADS, NULL, Tracer, layer_metrics
    import nearfair
    from nearfair.errors import InvariantViolation, NearFairError
    from spans import NullTracer, Tracer, layer_metrics
    from workloads import SERVE, WORKLOADS
    NULL = NullTracer()

    if Path(nearfair.__file__).resolve().parent != (SRC / "nearfair").resolve():
        print(f"error: nearfair imported from {nearfair.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return _now() - t0


def unit_of(metric: str) -> str:
    """Units follow the metric name's suffix."""
    for suffix, unit in (
        ("_ms", "ms"), ("_s", "s"), ("_rps", "1/s"), ("_mb", "MB"),
        ("bytes_out", "bytes"), ("_ratio", "ratio"), ("_share", "ratio"),
        ("_use", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


class Run:
    """Outcomes of serving requests; ``serve`` records one serving."""

    def __init__(self):
        self.latencies: list[float] = []
        self.errors: list[str | None] = []
        self.incorrect: list[str] = []
        self.served: dict[int, object] = {}  # pool index -> Served, first serving

    def serve(self, index: int, req, tracer) -> None:
        t0 = _now()
        error = None
        try:
            out = SERVE[req.kind](req, tracer)
        except NearFairError as exc:
            error = type(exc).__name__
            if isinstance(exc, InvariantViolation):  # always a library bug
                self.incorrect.append(f"{error}: {exc}")
        except Exception as exc:  # a failed check or an untyped crash
            error = type(exc).__name__
            self.incorrect.append(f"{error}: {exc}")
        else:
            self.served.setdefault(index, out)
        self.latencies.append(_now() - t0)
        self.errors.append(error)

    def failures(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.errors:
            if e is not None:
                out[e] = out.get(e, 0) + 1
        return out


def digest(run: Run, count: int) -> str:
    """sha256 over the serialized outputs of pool requests 0..count-1 (a
    failed request contributes a marker), so vertex-choice changes show."""
    h = hashlib.sha256()
    for i in range(count):
        out = run.served.get(i)
        h.update(out.text.encode() if out is not None else b"<failed>")
        h.update(b"\0")
    return h.hexdigest()


def mean_use(values) -> float:
    values = [v for v in values if v is not None]
    return float(sum(values, Fraction(0)) / len(values)) if values else 0.0


def setup(workload, seed: int):
    rng = random.Random(f"{workload.name}:{seed}")
    pool = [req for _ in range(workload.blocks) for req in workload.block(rng)]
    warm = Run()
    for i, req in enumerate(pool[:WARMUP]):
        warm.serve(i, req, NULL)
    return pool


def probe_s() -> float:
    """Time one fixed exact-rational Gauss-Jordan elimination written here,
    independent of nearfair: how fast the shared machine runs pure-Python
    Fraction arithmetic at this moment.  The garbage collector is paused so
    that what the last request left on the heap does not enter the time."""
    rng = random.Random(0)
    n = 12
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)] for _ in range(n)]
    gc.disable()
    try:
        return _gauss_jordan(rows, n)
    finally:
        gc.enable()


def _gauss_jordan(rows: list[list[Fraction]], n: int) -> float:
    t0 = _now()
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        prow = rows[col] = [v * inv for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    return _now() - t0


def probe() -> list[float]:
    return [probe_s() for _ in range(PROBES)]


def speed(probes: list[float]) -> float:
    """The machine's speed relative to the reference (above 1 when faster)
    while ``probes`` were taken; measured times are multiplied by it."""
    return PROBE_REF_S / statistics.median(probes)


def timed_passes(pool, block_len: int, seconds: float) -> tuple[Run, list[float]]:
    """Serve whole blocks for about ``seconds / PASSES``, then serve the same
    requests ``PASSES - 1`` more times.  Returns the first pass, whose
    outcomes count, and each request's fastest serving, every serving scaled
    by the machine speed its pass measured: the machine is shared, its
    speed drifts by tens of percent within minutes, and bursts of load slow
    single servings."""
    first = Run()
    probes = [[]]
    i = 0
    start = _now()
    window = seconds / PASSES
    while True:
        for _ in range(block_len):
            first.serve(i, pool[i % len(pool)], NULL)
            i += 1
        probes[0] += probe()
        elapsed = _now() - start
        if elapsed + elapsed / (2 * (i // block_len)) >= window:  # nearest whole block
            break
    runs = [first]
    for _ in range(PASSES - 1):
        again = Run()
        probes.append([])
        for j in range(i):
            again.serve(j, pool[j % len(pool)], NULL)
            if (j + 1) % block_len == 0:
                probes[-1] += probe()
        runs.append(again)
    first.errors = [
        next((r.errors[j] for r in runs if r.errors[j] is not None), None) for j in range(i)
    ]
    first.incorrect = [line for r in runs for line in r.incorrect]
    speeds = [speed(p) for p in probes]
    print("machine speed per pass: " + ", ".join(f"{v:.3f}" for v in speeds))
    return first, [min(r.latencies[j] * v for r, v in zip(runs, speeds)) for j in range(i)]


def traced_run(pool, count: int, block_len: int) -> tuple[Run, dict, list[str]]:
    """Serve each of the first ``count`` requests untraced, then traced, so
    that both timings see the same interference; report per-layer metrics
    from the traced servings, times scaled by the machine speed."""
    plain = Run()
    run = Run()
    tracer = Tracer()
    probes = []
    for i, req in enumerate(pool[:count]):
        if i % block_len == 0:
            probes += probe()
        plain.serve(i, req, NULL)
        tracer.install()
        try:
            tracer.request = i
            with tracer.span("request"):
                run.serve(i, req, tracer)
        finally:
            tracer.uninstall()
    run.incorrect += plain.incorrect
    factor = speed(probes)
    print(f"machine speed: {factor:.3f}")
    metrics = {
        k: v * factor if unit_of(k) == "s" else v
        for k, v in layer_metrics(tracer.spans, tracer.missing).items()
    }
    metrics["trace.overhead_ratio"] = sum(run.latencies) / sum(plain.latencies)
    served = list(run.served.values())
    metrics["output.load_budget_use"] = mean_use(s.load_use for s in served)
    metrics["output.group_budget_use"] = mean_use(s.group_use for s in served)
    return run, metrics, tracer.missing


def percentile(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_library()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setups, probes = [], probe()
    for _ in range(SETUP_REPEATS):
        t0 = _now()
        pool = setup(workload, args.seed)
        setups.append(_now() - t0)
        probes += probe()
    setup_s = (import_s + statistics.median(setups)) * speed(probes)
    block_len = len(pool) // workload.blocks
    if any("redrawn" in req.args for req in pool):
        redrawn = sum(req.args["redrawn"] for req in pool)
        print(f"set-up redrew {redrawn} markets without a stable integral allocation")
    trace_count = workload.trace_blocks * block_len

    if args.trace:
        run, metrics, missing = traced_run(pool, trace_count, block_len)
        if missing:
            print(f"hooks missing, their metrics are absent: {', '.join(missing)}")
    else:
        run, lat = timed_passes(pool, block_len, args.seconds)
        attempted = len(lat)
        ok = sum(1 for e in run.errors if e is None)
        tail, beyond = percentile(sorted(lat), workload.tail_pct)
        metrics = {
            "throughput_rps": ok / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * tail,
            "certified_ratio": ok / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"{args.workload} seed {args.seed}: {attempted} requests "
            f"({attempted // block_len} blocks of {block_len}) served {PASSES} times; "
            f"tail = p{workload.tail_pct} with {beyond} of {attempted} samples beyond"
        )

    attempted = len(run.errors)
    failures = run.failures()
    failed = sum(failures.values())
    print(f"failures by class: {json.dumps(failures, sort_keys=True)}; "
          f"fail_ratio {failed / attempted:.4f}")
    if attempted >= trace_count:
        print(f"digest sha256:{digest(run, trace_count)} over the first {trace_count} requests")
    for line in run.incorrect[:5]:
        print(f"incorrect: {line}")
    print(json.dumps({
        "correct": not run.incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
