"""Per-layer tracing for the benchmark's traced runs.

The program already records spans for the optimizer phases
(``optimizer.*``), ``executor.run``, ``stage:*``/``attempt*`` and
``convert:*``.  :class:`LayerProbe` adds spans around the public entry
points of the remaining layers by wrapping them from the benchmark's own
code; nothing inside ``src/`` changes.  :func:`self_times` then reduces a
span tree to per-layer *self* time: a span's duration minus the time its
children cover, so every second of a job lands in exactly one layer.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Iterable

from perfbench.report import median
from repro.api import service as api_service
from repro.api.service import RheemService
from repro.core.channels import ConversionPath
from repro.core.executor import Executor
from repro.core.optimizer import Optimizer
from repro.core.plancache import ExecutionPlanCache
from repro.core.resultstore import IntermediateResultStore
from repro.server import JobServer
from repro.server.shards import ProcessShard
from repro.trace import NO_TRACER

#: Span names the probe adds, per wrapped entry point.
CORE_WRAPS = (
    (Optimizer, "pick_best", "bench:optimizer.pick_best"),
    (Optimizer, "probe_reuse", "bench:optimizer.probe_reuse"),
    (ExecutionPlanCache, "get", "bench:plan_cache.get"),
    (ExecutionPlanCache, "put", "bench:plan_cache.put"),
    (IntermediateResultStore, "get", "bench:result_store.get"),
    (IntermediateResultStore, "offer", "bench:result_store.offer"),
    (Executor, "execute", "bench:executor.execute"),
    (ConversionPath, "apply", "bench:convert.path"),
)
SERVER_WRAPS = ((JobServer, "submit", "bench:server.submit"),)

#: Spans whose union the acceptance criterion calls the top-level layers.
TOP_LEVEL = frozenset({
    "optimizer.analyze", "optimizer.estimate", "optimizer.inflate",
    "optimizer.movement", "optimizer.enumerate", "optimizer.reuse_probe",
    "bench:plan_cache.get", "bench:plan_cache.put", "executor.run",
})
EXECUTOR_RUN = frozenset({"executor.run"})

#: Layer of each self-time key (see :func:`span_key`).
LAYER_OF = {
    "optimizer.analyze": "optimizer", "optimizer.estimate": "optimizer",
    "optimizer.inflate": "optimizer", "optimizer.movement": "optimizer",
    "optimizer.enumerate": "optimizer", "optimizer.pick_best": "optimizer",
    "optimizer.reuse_probe": "reuse", "optimizer.probe_reuse": "reuse",
    "plan_cache.get": "reuse", "plan_cache.put": "reuse",
    "result_store.get": "reuse", "result_store.offer": "reuse",
    "executor.run": "executor", "executor.execute": "executor",
    "executor.convert": "executor",
}


class LayerProbe:
    """Wraps public layer entry points; records spans while ``active``.

    Inactive wrappers cost one attribute check, so untraced jobs of a
    traced run stay comparable to an untraced run (the basis of
    ``trace.overhead_frac``).  Use as a context manager: the originals are
    restored on exit.
    """

    def __init__(self, tracer: Any = NO_TRACER) -> None:
        self.tracer = tracer
        self.active = False
        self._patches: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        #: Parent-side ``ProcessShard.run_job`` seconds minus the shard's
        #: own ``RheemService.submit`` seconds, one sample per job.
        self.pipe_s: list[float] = []

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def wrap_spans(self, targets: Iterable[tuple[Any, str, str]]) -> None:
        """Open a span named ``name`` around each ``owner.attr`` call."""
        for owner, attr, name in targets:
            def make(original: Callable, name: str = name) -> Callable:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    if not self.active:
                        return original(*args, **kwargs)
                    with self.tracer.span(name):
                        return original(*args, **kwargs)
                return wrapper
            self._patch(owner, attr, make)

    def wrap_server(self) -> None:
        """Time the API and the shard pipe of each served job.

        Shard processes are forked after these patches, so they inherit
        the service-side wrappers: ``RheemService.submit`` reports its own
        duration and the ``build_quanta`` time inside it as extra response
        fields, and the parent-side ``ProcessShard.run_job`` wrapper turns
        the difference into one pipe-time sample.
        """
        self.wrap_spans(SERVER_WRAPS)
        local = self._local

        def make_build(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    local.build_s = time.perf_counter() - start
            return wrapper

        def make_submit(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.active:
                    return original(*args, **kwargs)
                local.build_s = 0.0
                start = time.perf_counter()
                response = original(*args, **kwargs)
                response["bench_service_s"] = time.perf_counter() - start
                response["bench_build_s"] = local.build_s
                return response
            return wrapper

        def make_run_job(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                response = original(*args, **kwargs)
                if self.active and "bench_service_s" in response:
                    self.pipe_s.append(time.perf_counter() - start
                                       - response["bench_service_s"])
                return response
            return wrapper

        self._patch(api_service, "build_quanta", make_build)
        self._patch(RheemService, "submit", make_submit)
        self._patch(ProcessShard, "run_job", make_run_job)

    def __enter__(self) -> "LayerProbe":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ------------------------------------------------------------ aggregation
def _parts(node: Any) -> tuple[str, float, list, dict]:
    """(name, duration, children, attributes) of a Span or its JSON form."""
    if isinstance(node, dict):
        return (node["name"], node["duration"], node["children"],
                node["attributes"])
    return node.name, node.duration, node.children, node.attributes


def span_key(name: str, platform: str | None) -> str:
    """The self-time key a span's own time is charged to."""
    if name.startswith("bench:"):
        name = name[len("bench:"):]
        if name == "convert.path":
            return "executor.convert"
        return name
    if name.startswith(("stage:", "attempt")):
        return f"executor.compute.{platform or 'unknown'}"
    if name.startswith("convert:"):
        return "executor.convert"
    return name


def self_times(roots: Iterable[Any]) -> dict[str, float]:
    """Self seconds per :func:`span_key` over a forest of spans.

    Children that ran on parallel stage lanes can cover more than their
    parent's wall time; the parent's self time is then clamped at zero.
    """
    totals: dict[str, float] = {}

    def visit(node: Any, platform: str | None) -> None:
        name, duration, children, attributes = _parts(node)
        if name.startswith("stage:"):
            platform = attributes.get("platform", platform)
        covered = sum(_parts(child)[1] for child in children)
        key = span_key(name, platform)
        totals[key] = totals.get(key, 0.0) + max(0.0, duration - covered)
        for child in children:
            visit(child, platform)

    for root in roots:
        visit(root, None)
    return totals


def layer_totals(times: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer (optimizer, reuse, executor, api...)."""
    layers: dict[str, float] = {}
    for key, seconds in times.items():
        if key.startswith("executor.compute."):
            layer = "executor"
        elif key.startswith(("server.", "api.")):
            layer = "server"
        else:
            layer = LAYER_OF.get(key, "other")
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    """Counter increments between two ``metrics.snapshot()`` documents."""
    old = before.get("counters", {})
    return {name: value - old.get(name, 0.0)
            for name, value in after.get("counters", {}).items()}


def lock_delta(before: dict, after: dict) -> tuple[float, float]:
    """(wait, hold) seconds summed over every ``lock.*`` histogram."""
    def sums(snapshot: dict, prefix: str) -> float:
        return sum(hist.get("sum", 0.0)
                   for name, hist in snapshot.get("histograms", {}).items()
                   if name.startswith(prefix))
    return (sums(after, "lock.wait_s") - sums(before, "lock.wait_s"),
            sums(after, "lock.hold_s") - sums(before, "lock.hold_s"))


def inclusive_s(roots: Iterable[Any], names: frozenset[str]) -> float:
    """Summed duration of the outermost spans with a name in ``names``."""
    total = 0.0
    for root in roots:
        name, duration, children, __ = _parts(root)
        total += (duration if name in names
                  else inclusive_s(children, names))
    return total


def count_spans(roots: Iterable[Any], prefix: str) -> int:
    """How many spans in the forest have a name starting with ``prefix``."""
    total = 0
    for root in roots:
        name, __, children, ___ = _parts(root)
        total += name.startswith(prefix) + count_spans(children, prefix)
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class LayerRun:
    """Everything a traced run observed, reduced to per-layer metrics.

    Three scopes (listed per metric in ``perfbench/layers.json``):
    ``first`` is the cold first job, ``warm`` is the mean over the traced
    warm jobs, ``run`` covers the whole traced run.
    """

    def __init__(self) -> None:
        self.first_wall = 0.0
        self.first_times: dict[str, float] = {}
        self.first_counters: dict[str, float] = {}
        self.first_locks = (0.0, 0.0)
        self.first_top = 0.0
        self.first_roots_s = 0.0
        self.first_run_s = 0.0
        self.warm_times: dict[str, float] = {}
        self.warm_walls: list[float] = []
        self.warm_other: list[float] = []
        self.warm_run_s = 0.0
        self.warm_stages = 0
        self.warm_attempts = 0
        self.untraced: list[float] = []
        self.build_s: list[float] = []
        self.queue_wait_s: list[float] = []
        self.run_s: list[float] = []
        self.pipe_s: list[float] = []
        self.admit_s: list[float] = []
        self.plan_cache = (0.0, 0.0)
        self.result_store = (0.0, 0.0)

    def first(self, roots: list, wall: float, before: dict,
              after: dict) -> None:
        """Record the cold first job: its spans and counter increments."""
        self.first_wall = wall
        self.first_times = self_times(roots)
        self.first_counters = counter_delta(before, after)
        self.first_locks = lock_delta(before, after)
        self.first_top = inclusive_s(roots, TOP_LEVEL)
        self.first_roots_s = sum(_parts(root)[1] for root in roots)
        self.first_run_s = inclusive_s(roots, EXECUTOR_RUN)

    def warm(self, roots: list, wall: float) -> None:
        """Add one traced warm job."""
        for key, seconds in self_times(roots).items():
            self.warm_times[key] = self.warm_times.get(key, 0.0) + seconds
        self.warm_walls.append(wall)
        self.warm_other.append(
            max(0.0, wall - sum(_parts(root)[1] for root in roots)))
        self.warm_run_s += inclusive_s(roots, EXECUTOR_RUN)
        self.warm_stages += count_spans(roots, "stage:")
        self.warm_attempts += count_spans(roots, "attempt")

    def metrics(self, units: dict[str, str]) -> dict[str, float]:
        """A value for every per-layer metric in ``units``.

        A layer the workload never enters did no work: its time and
        counts are 0.
        """
        first, counters = self.first_times, self.first_counters
        jobs = len(self.warm_walls)
        warm = {key: seconds / jobs for key, seconds in self.warm_times.items()
                } if jobs else {}
        warm_layers = layer_totals(warm)
        enumerated = counters.get("optimizer.plans_enumerated", 0.0)
        pruned = counters.get("optimizer.plans_pruned", 0.0)
        path_hits = counters.get("conversion_cache.path_hits", 0.0)
        path_misses = counters.get("conversion_cache.path_misses", 0.0)
        traced_p50 = median(self.warm_walls)
        untraced_p50 = median(self.untraced)
        values = {
            "optimizer.analyze_s": first.get("optimizer.analyze", 0.0),
            "optimizer.estimate_s": first.get("optimizer.estimate", 0.0),
            "optimizer.inflate_s": first.get("optimizer.inflate", 0.0),
            "optimizer.movement_s": first.get("optimizer.movement", 0.0),
            "optimizer.enumerate_s": first.get("optimizer.enumerate", 0.0),
            "optimizer.plans_enumerated": enumerated,
            "optimizer.plans_pruned": pruned,
            "optimizer.prune_ratio": _ratio(pruned, enumerated),
            "optimizer.conversion_paths_solved": counters.get(
                "optimizer.conversion_paths_solved", 0.0),
            "conversion_cache.hit_ratio": _ratio(path_hits,
                                                 path_hits + path_misses),
            "optimizer.reuse_probe_s": warm.get("optimizer.reuse_probe", 0.0),
            "plan_cache.lookup_s": (warm.get("plan_cache.get", 0.0)
                                    + warm.get("plan_cache.put", 0.0)),
            "plan_cache.hit_ratio": _ratio(self.plan_cache[0],
                                           sum(self.plan_cache)),
            "result_store.hit_ratio": _ratio(self.result_store[0],
                                             sum(self.result_store)),
            "result_store.offer_s": first.get("result_store.offer", 0.0),
            "executor.run_s": self.first_run_s,
            "executor.convert_s": first.get("executor.convert", 0.0),
            "executor.stages": counters.get("executor.stages", 0.0),
            "executor.attempts": counters.get("executor.attempts", 0.0),
            "executor.conversions": counters.get("executor.conversions", 0.0),
            "executor.platform_startups": counters.get(
                "executor.platform_startups", 0.0),
            "warm.optimizer_s": warm_layers.get("optimizer", 0.0),
            "warm.executor.run_s": _ratio(self.warm_run_s, jobs),
            "warm.executor.stages": _ratio(self.warm_stages, jobs),
            "warm.executor.attempts": _ratio(self.warm_attempts, jobs),
            "warm.other_s": _mean(self.warm_other),
            "api.build_s": _mean(self.build_s),
            "server.admit_s": _mean(self.admit_s),
            "server.queue_wait_p50_s": median(self.queue_wait_s),
            "server.queue_wait_p99_s": (sorted(self.queue_wait_s)[
                int(0.99 * (len(self.queue_wait_s) - 1))]
                if self.queue_wait_s else 0.0),
            "server.run_p50_s": median(self.run_s),
            "server.pipe_s": _mean(self.pipe_s),
            "lock.wait_s": self.first_locks[0],
            "lock.hold_s": self.first_locks[1],
            "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0
                                    if untraced_p50 else 0.0),
            "trace.coverage_frac": _ratio(self.first_top, self.first_wall),
        }
        for name in units:
            if name.startswith("executor.compute_s."):
                platform = name[len("executor.compute_s."):]
                values[name] = first.get(f"executor.compute.{platform}", 0.0)
        return {name: float(values[name]) for name in units}

    def table(self) -> dict[str, Any]:
        """Busy seconds per layer, for the first job and a warm job."""
        first = layer_totals(self.first_times)
        first["other"] = max(0.0, self.first_wall - self.first_roots_s)
        jobs = len(self.warm_walls)
        warm = layer_totals({key: seconds / jobs for key, seconds
                             in self.warm_times.items()}) if jobs else {}
        # Served jobs: admission, queueing, the API and the pipe happen
        # outside the shard's per-job spans.
        serving = sum(map(_mean, (self.admit_s, self.queue_wait_s,
                                  self.build_s, self.pipe_s)))
        warm["server"] = serving
        warm["other"] = max(0.0, _mean(self.warm_other) - serving)
        return {
            "first": {"wall_s": self.first_wall, "layers": first},
            "warm": {"wall_s": _mean(self.warm_walls), "jobs": jobs,
                     "layers": warm},
            "self_s": {"first": self.first_times,
                       "warm": {key: seconds / jobs for key, seconds
                                in self.warm_times.items()} if jobs else {}},
        }
