"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around the calls the
benchmark makes into nearfair, and around the names each nearfair module
binds from another layer, which the tracer swaps for timing wrappers while a
traced pass runs.  Timed passes install no wrapper.

A span is ``[name, start, end, parent, request, extra]``; spans stay in memory
until the run ends.  ``extra`` holds what the span's call returned that a
metric needs (LP size, iteration count, vertex count, ...).
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Optional

_now = time.perf_counter


def _lp_shape(args, result):
    lp = args[0]
    return (lp.n, len(lp.constraints), bool(result.optimal))


def _iterations(args, result):
    return result[1].iterations


def _count(args, result):
    return len(result)


def _truth(args, result):
    return bool(result)


# (module, bound name, span name, what to keep from the call).  Each entry is
# a name one nearfair module looks up as a global at call time, so replacing
# the module attribute intercepts every call that module makes through it.
HOOKS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("nearfair.rounding", "feasible_vertex", "exactlp.solve", _lp_shape),
    ("nearfair.rounding", "verify_approximation", "rounding.verify", None),
    ("nearfair.envyfree", "feasible_vertex", "exactlp.solve", _lp_shape),
    ("nearfair.fairness", "solve_vertex", "exactlp.solve", _lp_shape),
    ("nearfair.fairness", "feasible_vertex", "exactlp.solve", _lp_shape),
    ("nearfair.fairness", "max_group_utility", "fairness.group_lp", None),
    ("nearfair.fairness", "solve_fair_fractional", "fairness.fw", None),
    ("nearfair.fairness", "refine_to_vertex", "fairness.refine", None),
    ("nearfair.fairness", "iterative_round", "rounding.iterative_round", _iterations),
    ("nearfair.apportionment", "solve_vertex", "exactlp.solve", _lp_shape),
    ("nearfair.apportionment", "solve_lp_ma", "apportionment.lp", None),
    ("nearfair.apportionment", "iterative_round", "rounding.iterative_round", _iterations),
    ("nearfair.couples", "vertex_enumerate", "oracle.vertex_enumerate", _count),
    ("nearfair.couples", "enumerate_roundings", "oracle.enumerate_roundings", None),
    ("nearfair.couples", "stability_check", "couples.stability_check", None),
    ("nearfair.couples", "all_roundings_stable", "couples.dominance_test", _truth),
    ("nearfair.couples", "iterative_round", "rounding.iterative_round", _iterations),
    ("nearfair.exactlp", "vertex_rank", "exactlp.vertex_rank", None),
]


class NullTracer:
    """Stand-in for timed passes: a span does nothing."""

    @contextmanager
    def span(self, name: str):
        yield None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: Optional[int] = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.request, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block; the block may store ``extra`` on the yielded
        record (``rec[5] = ...``)."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    # -- hooks ----------------------------------------------------------------

    def _wrap(self, fn, name: str, keep: Optional[Callable]):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not its suspended lifetime
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx)
                        raise
                    tracer.spans[idx][5] = 1
                    tracer._close(idx)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    tracer.spans[idx][5] = keep(args, result)
                return result
            finally:
                tracer._close(idx)

        return wrapper

    def install(self) -> None:
        """Swap every hooked name that exists for its wrapper; a name a
        refactor removed is skipped and listed in ``missing``."""
        self.missing = []
        for module_name, attr, span_name, keep in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, keep))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_SOLVE_HOOKS = [
    f"{m}.{a}" for m, a, name, _ in HOOKS if name == "exactlp.solve"
]

# metric -> hooked names feeding it; a metric whose every feeding name is
# missing is reported absent.  Metrics built only from the benchmark's own
# spans have no entry and are always present.
METRIC_HOOKS: dict[str, list[str]] = {
    "exactlp.calls": _SOLVE_HOOKS,
    "exactlp.busy_s": _SOLVE_HOOKS,
    "exactlp.vars_mean": _SOLVE_HOOKS,
    "exactlp.rows_mean": _SOLVE_HOOKS,
    "exactlp.optimal_ratio": _SOLVE_HOOKS,
    "exactlp.vertex_rank_s": ["nearfair.exactlp.vertex_rank"],
    "exactlp.vertex_rank_share": ["nearfair.exactlp.vertex_rank"],
    "rounding.lp_calls": ["nearfair.rounding.feasible_vertex"],
    "rounding.verify_s": ["nearfair.rounding.verify_approximation"],
    "envyfree.lp_calls": ["nearfair.envyfree.feasible_vertex"],
    "fairness.fw_s": ["nearfair.fairness.solve_fair_fractional"],
    "fairness.refine_s": ["nearfair.fairness.refine_to_vertex"],
    "fairness.lp_calls": ["nearfair.fairness.solve_vertex", "nearfair.fairness.feasible_vertex"],
    "fairness.group_lp_calls": ["nearfair.fairness.max_group_utility"],
    "fairness.round_s": ["nearfair.fairness.iterative_round"],
    "couples.dominating_ratio": ["nearfair.couples.all_roundings_stable"],
    "couples.stability_checks": ["nearfair.couples.stability_check"],
    "couples.round_s": ["nearfair.couples.iterative_round"],
    "oracle.vertex_enumerate_s": ["nearfair.couples.vertex_enumerate"],
    "oracle.vertices": ["nearfair.couples.vertex_enumerate"],
    "oracle.roundings": ["nearfair.couples.enumerate_roundings"],
    "oracle.roundings_s": ["nearfair.couples.enumerate_roundings"],
    "apportionment.lp_s": ["nearfair.apportionment.solve_lp_ma"],
    "apportionment.lift_ratio": ["nearfair.apportionment.iterative_round"],
    "apportionment.round_s": ["nearfair.apportionment.iterative_round"],
}

PIPELINES = ("fairness.pipeline", "couples.pipeline", "apportionment.pipeline")


def layer_metrics(spans: list[list], missing: list[str]) -> dict[str, float]:
    """Fold spans into the per-layer metrics; see README.md for the map."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def parent_name(i: int) -> str:
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ""

    def pipeline_of(i: int) -> str:
        """Nearest enclosing pipeline or rounder span."""
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in PIPELINES or spans[p][0] == "rounding.iterative_round":
                return spans[p][0]
            p = spans[p][3]
        return ""

    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def total(name: str, where=lambda i: True) -> float:
        return sum(dur[i] for i in by.get(name, ()) if where(i))

    def count(name: str, where=lambda i: True) -> int:
        return sum(1 for i in by.get(name, ()) if where(i))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = by.get("exactlp.solve", [])
    shapes = [spans[i][5] for i in solves if spans[i][5] is not None]
    busy = total("exactlp.solve")
    rank_s = total("exactlp.vertex_rank")
    rounds = by.get("rounding.iterative_round", [])
    vertices = sum(spans[i][5] or 0 for i in by.get("oracle.vertex_enumerate", ()))
    dominating = count("couples.dominance_test", lambda i: spans[i][5])
    app_calls = count("apportionment.pipeline")

    m = {
        "exactlp.calls": len(solves),
        "exactlp.busy_s": busy,
        "exactlp.vertex_rank_s": rank_s,
        "exactlp.vertex_rank_share": ratio(rank_s, busy),
        "exactlp.vars_mean": ratio(sum(s[0] for s in shapes), len(shapes)),
        "exactlp.rows_mean": ratio(sum(s[1] for s in shapes), len(shapes)),
        "exactlp.optimal_ratio": ratio(sum(1 for s in shapes if s[2]), len(shapes)),
        "rounding.calls": len(rounds),
        "rounding.busy_s": sum(dur[i] for i in rounds),
        "rounding.self_s": sum(dur[i] - child[i] for i in rounds),
        "rounding.iterations": sum(spans[i][5] or 0 for i in rounds),
        "rounding.lp_calls": count(
            "exactlp.solve", lambda i: parent_name(i) == "rounding.iterative_round"
        ),
        "rounding.verify_s": total(
            "rounding.verify", lambda i: parent_name(i) == "rounding.iterative_round"
        ),
        "envyfree.greedy_s": total("envyfree.greedy"),
        "envyfree.round_s": total("envyfree.round"),
        "envyfree.lp_calls": count(
            "exactlp.solve", lambda i: parent_name(i) == "envyfree.round"
        ),
        "fairness.fw_s": total("fairness.fw"),
        "fairness.refine_s": total("fairness.refine"),
        "fairness.lp_calls": count(
            "exactlp.solve", lambda i: pipeline_of(i) == "fairness.pipeline"
        ),
        "fairness.group_lp_calls": count(
            "exactlp.solve", lambda i: parent_name(i) == "fairness.group_lp"
        ),
        "fairness.round_s": total(
            "rounding.iterative_round", lambda i: parent_name(i) == "fairness.pipeline"
        ),
        "couples.busy_s": total("couples.pipeline"),
        "couples.self_s": sum(dur[i] - child[i] for i in by.get("couples.pipeline", ())),
        "couples.dominating_ratio": ratio(dominating, vertices),
        "couples.stability_checks": count("couples.stability_check"),
        "couples.round_s": total(
            "rounding.iterative_round", lambda i: parent_name(i) == "couples.pipeline"
        ),
        "oracle.vertex_enumerate_s": total("oracle.vertex_enumerate"),
        "oracle.vertices": vertices,
        "oracle.roundings": count("oracle.enumerate_roundings", lambda i: spans[i][5]),
        "oracle.roundings_s": total("oracle.enumerate_roundings"),
        "apportionment.lp_s": total("apportionment.lp"),
        "apportionment.lift_ratio": ratio(
            count(
                "rounding.iterative_round",
                lambda i: pipeline_of(i) == "apportionment.pipeline",
            ),
            app_calls,
        ),
        "apportionment.round_s": total(
            "rounding.iterative_round",
            lambda i: pipeline_of(i) == "apportionment.pipeline",
        ),
        "schema.parse_s": total("schema.parse"),
        "schema.serialize_s": total("schema.serialize"),
        "schema.bytes_out": sum(spans[i][5] or 0 for i in by.get("schema.serialize", ())),
    }
    gone = set(missing)
    for metric, feeds in METRIC_HOOKS.items():
        if all(f in gone for f in feeds):
            del m[metric]
    return m
