#!/usr/bin/env python3
"""The repository's benchmark: job latency plus per-layer traces.

Run one workload::

    python3 perfbench/run.py --workload tpch_q5 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off (timings
in reference seconds, see :class:`Speedometer`, with the wall-clock values
in the report);
``--trace 1`` makes the separate traced run that yields the per-layer
metrics.  Both print a human-readable report and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--out FILE`` also saves the run (seed included) for
``compare``; ``--workload all`` runs every workload both ways, each in its
own process::

    python3 perfbench/run.py compare --base a.json ... --head b.json ...

Metric names, units, directions and bounds live in ``BENCHMARK.json``; the
layer -> metric -> workload mapping lives in ``perfbench/layers.json``.
The exit code is 0 only when every job's output matched its oracle.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.report import median  # noqa: E402  (needs the path above)

#: The workloads of BENCHMARK.json, then sgd_loop: it runs and the
#: self-tests use it, but the benchmark leaves it out (its ~15 s cold jobs
#: leave a run too little warm window to be steady; see perfbench/README.md).
WORKLOADS = ["tpch_q5", "wordcount", "server_mixed", "sgd_loop"]


# ------------------------------------------------------------ bookkeeping
def quantile(values: list[float], q: float) -> float:
    """The ``q``-quantile (inclusive method) of at least two samples."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _kernel() -> float:
    """Seconds taken by a fixed piece of dictionary-heavy Python."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(13_000):
        counts[i % 101] = counts.get(i % 101, 0) + (i & 7)
    return time.perf_counter() - start


def sample_main(argv: list[str]) -> int:
    """Sampler process (``run.py sample INTERVAL``): time the kernel every
    INTERVAL seconds until a line arrives on standard input, then print
    the ``(time, kernel seconds)`` marks as JSON and exit.  The first
    quarter second only warms the process up."""
    interval_s = float(argv[0])
    warm_until = time.perf_counter() + 0.25
    while time.perf_counter() < warm_until:
        _kernel()
    marks = [(time.perf_counter(), _kernel())]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], interval_s)[0]:
        marks.append((time.perf_counter(), _kernel()))
    print(json.dumps(marks), flush=True)
    return 0


class Speedometer:
    """Rescales wall-clock intervals to a reference CPU speed.

    On a shared 2-vCPU VM the same job ran up to 40% faster or slower from
    one stretch of seconds or minutes to the next, and a fixed kernel
    (:func:`_kernel`) moved with it.  An interval is reported in
    reference seconds: wall seconds times :attr:`REFERENCE_S` over the
    median kernel time of the marks near it (see :meth:`scales`).  Marks
    are taken one of two ways, so that the kernel never competes with the
    program for a CPU, which would let a change that adds CPU work slow
    the kernel too and so hide part of itself:

    * :meth:`sampling`: a sampler process times the kernel every 50 ms
      for the whole run.  This is for the fluent workloads, whose program
      runs in this process under the interpreter lock and holds at most
      one of the two vCPUs, leaving the other to the sampler.
    * :meth:`mark`: this process times the kernel while no job is in
      flight.  This is for server_mixed, whose shards and client threads
      use both vCPUs: serving pauses now and then for a mark.
    """

    #: The kernel's median time on the VM the benchmark was tuned on, so
    #: reference seconds are close to wall seconds there.
    REFERENCE_S = 0.002
    INTERVAL_S = 0.05
    #: Kernels per :meth:`mark`.
    KERNELS = 5
    #: Marks this close to an interval count for it, and at least the
    #: last mark before it and the first after it.
    NEAR_S = 0.2

    def __init__(self) -> None:
        self._times: list[float] = []
        self._kernels: list[float] = []

    def mark(self) -> None:
        kernel_s = statistics.median(_kernel() for __ in range(self.KERNELS))
        self._times.append(time.perf_counter())
        self._kernels.append(kernel_s)

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Marks from a sampler process for the duration of the block.

        The sampler is a plain child process (not a multiprocessing one,
        whose spawn method leaves a resource-tracker process behind), and
        it has ended by the time the block is left, on every path.
        """
        process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "sample",
             str(self.INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            process.stdout.readline()  # the first mark exists already
            yield
            out, __ = process.communicate("stop\n", timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
        for when, kernel_s in json.loads(out):
            self._times.append(when)
            self._kernels.append(kernel_s)

    def scales(self, spans: list[tuple[float, float]]) -> list[float]:
        """Reference over measured kernel time for each ``(start, end)``."""
        times = self._times
        out = []
        for start, end in spans:
            before = bisect.bisect_left(times, start)
            after = bisect.bisect_right(times, end)
            low = min(bisect.bisect_left(times, start - self.NEAR_S),
                      max(before - 1, 0))
            high = max(bisect.bisect_right(times, end + self.NEAR_S),
                       min(after + 1, len(times)))
            out.append(self.REFERENCE_S
                       / statistics.median(self._kernels[low:high]))
        return out


def timing_metrics(speed: Speedometer, setups: list, firsts: list,
                   warm: list, cold_power: float
                   ) -> tuple[dict[str, float], dict[str, Any]]:
    """The timing metrics in reference seconds, from ``(start, end)``
    spans, and the same in wall-clock seconds for the report.  Cold jobs
    are scaled by the speed ratio to the power ``cold_power``."""
    def reduce(scaled: bool) -> dict[str, float]:
        def lengths(spans: list, power: float = 1.0) -> list[float]:
            walls = [end - start for start, end in spans]
            if not scaled:
                return walls
            return [wall * scale ** power
                    for wall, scale in zip(walls, speed.scales(spans))]

        warm_s = lengths(warm)
        return {"setup_s": median(lengths(setups)),
                "first_job_s": median(lengths(firsts, cold_power)),
                "job_p50_s": median(warm_s),
                "job_p90_s": quantile(warm_s, 0.9)}

    return reduce(True), {"wall": reduce(False)}


class Tally:
    """Counts attempted and failed jobs; runs and checks fluent jobs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, error: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(error)

    def job(self, workload: Any, ctx: Any, index: int,
            **execute_kwargs: Any) -> tuple[Any, tuple[float, float]]:
        """Run job ``index``; returns (result or None, (start, end))."""
        start = time.perf_counter()
        try:
            result = workload.run(ctx, index, **execute_kwargs)
        except Exception as exc:  # noqa: BLE001 — counted, run continues
            self.record(False, f"job {index}: {type(exc).__name__}: {exc}")
            return None, (start, start)
        end = time.perf_counter()
        ok = workload.check(index, result)
        self.record(ok, f"job {index}: output differs from the oracle")
        return (result if ok else None), (start, end)


def outcome(tally: Tally, metrics: dict[str, float], units: dict[str, str]
            ) -> dict[str, Any]:
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


# ----------------------------------------------------------- fluent runs
def fluent_end_to_end(workload: Any, seconds: float, tally: Tally
                      ) -> tuple[dict[str, list], dict[str, float]]:
    """Rounds of fresh contexts, each with a cold job and a warm window.

    Only the contexts a cold job runs on are kept, and each cold job
    starts after an untimed full garbage collection, so that no earlier
    context's leftovers weigh on it.  Returns the ``(start, end)`` spans
    to time and the other metrics.  ``sim_runtime_s`` sums the simulated
    runtime of each distinct plan the run's correct jobs ran, a plan told
    by its platforms and stage count and valued by its first job (jobs
    run in the same order in every run of a seed).
    """
    setups: list[tuple[float, float]] = []
    firsts, warm = [], []
    plans: dict[tuple, float] = {}
    index = 1

    def set_up() -> list:
        contexts = []
        for __ in range(workload.setups_per_round):
            start = time.perf_counter()
            contexts.append(workload.setup())
            setups.append((start, time.perf_counter()))
        return contexts[-workload.colds_per_round:]

    def ran(result: Any) -> None:
        plans.setdefault((tuple(sorted(result.platforms)),
                          result.stage_count), result.runtime)

    for __ in range(workload.rounds):
        contexts = set_up()
        while contexts:
            ctx = contexts.pop(0)
            gc.collect()
            result, span = tally.job(workload, ctx, 0)
            if result is not None:
                firsts.append(span)
                ran(result)
        window = seconds * workload.window_share / workload.rounds
        start = time.perf_counter()
        while time.perf_counter() - start < window:
            workload.prepare(ctx, index)
            result, span = tally.job(workload, ctx, index)
            if result is not None:
                warm.append(span)
                ran(result)
            index += 1
    set_up()
    return ({"setups": setups, "firsts": firsts, "warm": warm},
            {"sim_runtime_s": sum(sorted(plans.values())),
             "peak_rss_mb": peak_rss_mb()})


def fluent_traced(workload: Any, seconds: float, tally: Tally
                  ) -> Any:
    """One traced context: a traced cold job, then a warm window that
    alternates traced and untraced jobs (for ``trace.overhead_frac``)."""
    from perfbench import layers as layers_mod
    from repro.trace import NO_TRACER

    ctx = workload.setup()
    tracer = ctx.enable_tracing()
    run = layers_mod.LayerRun()
    with layers_mod.LayerProbe(tracer) as probe:
        probe.wrap_spans(layers_mod.CORE_WRAPS)
        probe.active = True
        before = ctx.metrics.snapshot()
        result, (start, end) = tally.job(workload, ctx, 0)
        run.first(list(tracer.roots), end - start, before,
                  ctx.metrics.snapshot())
        del tracer.roots[:]
        index = 1
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            traced = index % 2 == 1
            probe.active = traced
            workload.prepare(ctx, index)
            kwargs = {} if traced else {"tracer": NO_TRACER}
            result, (start_job, end_job) = tally.job(workload, ctx, index,
                                                     **kwargs)
            if result is not None:
                if traced:
                    run.warm(list(tracer.roots), end_job - start_job)
                else:
                    run.untraced.append(end_job - start_job)
            del tracer.roots[:]
            index += 1
    stats = ctx.plan_cache.stats
    run.plan_cache = (stats["hits"], stats["misses"])
    stats = ctx.result_store.stats
    run.result_store = (stats["hits"], stats["misses"])
    return run


# ----------------------------------------------------------- server runs
def _serve(workload: Any, server: Any, seconds: float, tally: Tally,
           start_at: int, on_response: Any = None,
           speed: Speedometer | None = None) -> list[tuple[float, float]]:
    """Closed loop: ``workload.clients`` threads, one job in flight each.

    The window is served in segments of ``workload.segment_s``; between
    two, no job is in flight, the segment's outputs are checked and
    released, and ``speed`` (if given) marks.  Checking between segments
    keeps the oracle from competing with the server's own threads for the
    interpreter lock, and keeps the responses the benchmark holds (and so
    ``peak_rss_mb``) from growing with the number of jobs served; the
    window is extended by the time the checks take.  Returns the
    ``(start, end)`` spans of correct jobs.
    """
    from repro.server import JobState
    from perfbench.workloads import SHAPES

    done: list[tuple[int, Any, dict, tuple[float, float]]] = []
    cursor = iter(range(start_at, len(workload.sequence)))
    cursor_lock = threading.Lock()

    def client(until: float) -> None:
        while time.perf_counter() < until:
            with cursor_lock:
                position = next(cursor, None)
            if position is None:
                return
            start = time.perf_counter()
            job = server.submit(SHAPES[workload.sequence[position]])
            response = (job.response if job.state is JobState.REJECTED
                        else server.result(job.job_id, timeout=120))
            done.append((position, job, response,
                         (start, time.perf_counter())))

    spans = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        until = min(deadline, time.perf_counter() + workload.segment_s)
        threads = [threading.Thread(target=client, args=(until,))
                   for __ in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        checked_at = time.perf_counter()
        for position, job, response, span in done:
            ok = workload.check(workload.sequence[position], response)
            tally.record(ok, f"document {position}: "
                             f"{response.get('error', 'wrong output')}")
            if ok:
                spans.append(span)
                if on_response is not None:
                    on_response(job, response, span[1] - span[0])
        done.clear()
        deadline += time.perf_counter() - checked_at
        if speed is not None:
            speed.mark()
    return spans


def _start_server(workload: Any, tracing: bool
                  ) -> tuple[Any, tuple[float, float]]:
    """A fresh process-backend server, and the span of its set-up."""
    from repro.server import JobServer

    start = time.perf_counter()
    server = JobServer(workers=workload.workers, queue_size=4 * workload.workers,
                       backend="process", tracing=tracing,
                       context_factory=workload.context_factory)
    try:
        server.metrics_snapshot()  # returns once every shard serves requests
    except BaseException:
        server.shutdown()
        raise
    return server, (start, time.perf_counter())


def _first_document(workload: Any, server: Any, tally: Tally
                    ) -> tuple[dict, tuple[float, float]]:
    from perfbench.workloads import SHAPES

    shape = 0  # the most popular shape, whatever the seed
    start = time.perf_counter()
    response = server.submit_sync(SHAPES[shape], timeout=120)
    end = time.perf_counter()
    ok = workload.check(shape, response)
    tally.record(ok, f"document 0: {response.get('error', 'wrong output')}")
    return response, (start, end)


def server_end_to_end(workload: Any, seconds: float, tally: Tally,
                      speed: Speedometer
                      ) -> tuple[dict[str, list], dict[str, float]]:
    """Rounds of fresh servers, each with a cold document and a window."""
    setups: list[tuple[float, float]] = []
    firsts, warm = [], []

    def set_up(cold: bool) -> Any:
        server = None
        speed.mark()
        try:
            for __ in range(workload.setups_per_round):
                if server is not None:
                    server.shutdown()
                server, span = _start_server(workload, tracing=False)
                setups.append(span)
                speed.mark()  # every shard is up and idle
                if cold:
                    firsts.append(_first_document(workload, server, tally)[1])
                    speed.mark()
        except BaseException:
            if server is not None:
                server.shutdown()
            raise
        return server

    for __ in range(workload.rounds):
        with set_up(cold=True) as server:
            warm += _serve(workload, server, seconds / workload.rounds,
                           tally, 1 + len(warm), speed=speed)
    set_up(cold=False).shutdown()
    return ({"setups": setups, "firsts": firsts, "warm": warm},
            {"sim_runtime_s": workload.sim_runtime_s,
             "peak_rss_mb": peak_rss_mb()})


def server_traced(workload: Any, seconds: float, tally: Tally
                  ) -> Any:
    """Half the window untraced, half traced (server tracing + probe)."""
    from perfbench import layers as layers_mod
    from repro.trace import Tracer

    run = layers_mod.LayerRun()
    with layers_mod.LayerProbe(Tracer()) as probe:
        probe.wrap_server()
        server, __ = _start_server(workload, tracing=False)
        with server:
            run.untraced = [end - start for start, end in
                            _serve(workload, server, seconds / 2, tally, 1)]
        probe.active = True  # forked shards inherit the active wrappers
        server, __ = _start_server(workload, tracing=True)
        with server:
            before = server.metrics_snapshot()
            response, (start, end) = _first_document(workload, server, tally)
            run.first(response.get("trace", {}).get("spans", []),
                      end - start, before, server.metrics_snapshot())
            run.build_s.append(response.get("bench_build_s", 0.0))

            def on_response(job: Any, response: dict, latency: float) -> None:
                run.warm(response.get("trace", {}).get("spans", []), latency)
                run.build_s.append(response.get("bench_build_s", 0.0))
                run.queue_wait_s.append(job.wait_s)
                run.run_s.append(job.run_s)

            _serve(workload, server, seconds / 2, tally, 1, on_response)
            counters = server.metrics_snapshot()["counters"]
        run.pipe_s = list(probe.pipe_s)
        run.admit_s = [span.duration
                       for span in probe.tracer.find("bench:server.submit")]
    run.plan_cache = (counters.get("plan_cache.hits", 0.0),
                      counters.get("plan_cache.misses", 0.0))
    run.result_store = (counters.get("intermediate.hits", 0.0),
                        counters.get("intermediate.misses", 0.0))
    return run


# ---------------------------------------------------------- command line
def measure(name: str, seed: int, seconds: float, trace: bool
            ) -> dict[str, Any]:
    """Run one workload; returns the saved record (result, layers, ...)."""
    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    workload = (workloads.ServerMixed(seed) if name == "server_mixed"
                else workloads.FLUENT[name](seed))
    tally = Tally()
    record: dict[str, Any] = {"workload": name, "seed": seed,
                              "seconds": seconds, "trace": int(trace)}
    if trace:
        run = (server_traced if name == "server_mixed"
               else fluent_traced)(workload, seconds, tally)
        metrics = run.metrics(units)
        record["layers"] = run.table()
    else:
        speed = Speedometer()
        if name == "server_mixed":
            spans, metrics = server_end_to_end(workload, seconds, tally,
                                               speed)
        else:
            with speed.sampling():
                spans, metrics = fluent_end_to_end(workload, seconds, tally)
        timings, record["timings"] = timing_metrics(
            speed, cold_power=workload.cold_scale_power, **spans)
        metrics.update(timings)
    record["errors"] = tally.errors
    record["result"] = outcome(tally, metrics, units)
    return record


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.out:
                command += ["--out", f"{args.out}.{name}.{trace}.json"]
            completed = subprocess.run(command, cwd=ROOT, check=False)
            status = status or completed.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from perfbench import report
        return report.compare_main(argv[1:])
    if argv[:1] == ["sample"]:
        return sample_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Layered benchmark: job latency and per-layer traces.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured warm window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the run record as JSON")
    args = parser.parse_args(argv)
    # The program under test is the checkout's own src/, never an
    # installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from perfbench import report
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    for line in report.describe(record):
        print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
