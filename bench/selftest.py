"""Self-test of the benchmark: run from the root of a checkout with

    python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that a short timed run
prints every end-to-end metric with its declared unit, that a traced run
prints every per-layer metric with its declared unit, and that two traced
runs on the same seed agree exactly on the counts and the output digest.
Exits non-zero on the first workload that fails.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("exactlp.calls", "rounding.iterations", "oracle.vertices", "oracle.roundings")
SEED = 11


def run(workload: str, trace: int, seconds: int = 1) -> tuple[list[str], dict]:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    for key in ("correct", "attempted", "failed", "metrics"):
        assert key in result, f"{where}: result lacks {key!r}"
    assert result["correct"] is True, f"{where}: outputs failed their checks"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"
    metrics = result["metrics"]
    for m in declared:
        assert m["name"] in metrics, f"{where}: metric {m['name']} missing"
        assert metrics[m["name"]]["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(metrics[m["name"]]["value"], (int, float)), f"{where}: {m['name']}"
    extra = set(metrics) - {m["name"] for m in declared}
    assert not extra, f"{where}: undeclared metrics {sorted(extra)}"


def info(lines: list[str], prefix: str) -> str:
    found = [line for line in lines if line.startswith(prefix)]
    assert found, f"no {prefix!r} line in {lines}"
    return found[0]


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        _, timed = run(name, 0)
        check_metrics(timed, SPEC["end_to_end"], f"{name} timed")
        lines_a, traced_a = run(name, 1)
        lines_b, traced_b = run(name, 1)
        check_metrics(traced_a, SPEC["per_layer"], f"{name} traced")
        for key in EXACT:
            a = traced_a["metrics"][key]["value"]
            b = traced_b["metrics"][key]["value"]
            assert a == b, f"{name}: {key} differs between same-seed traced runs: {a} != {b}"
        for prefix in ("failures by class", "digest"):
            assert info(lines_a, prefix) == info(lines_b, prefix), f"{name}: {prefix} differs"
        print(f"ok {name}: {info(lines_a, 'failures by class')}; {info(lines_a, 'digest')[:30]}...")
    return 0


if __name__ == "__main__":
    sys.exit(main())
