"""Self-tests of the benchmark: metric catalogue, oracles, determinism and
sensitivity.  Slow (they run real workloads, ~12 minutes); run them with::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench import report, run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["bound"], m["better"] == "lower")
          for m in SPEC["end_to_end"]}


def values(record: dict) -> dict[str, float]:
    return {name: metric["value"]
            for name, metric in record["result"]["metrics"].items()}


def verdict(base: list[dict], head: list[dict], name: str) -> str:
    bound, lower = BOUNDS[name]
    return report.judge([values(r)[name] for r in base],
                        [values(r)[name] for r in head], bound, lower)[0]


def test_catalogue_matches_layer_map():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = [name for layer in layers["layers"].values()
              for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS[:-1]


def test_oracles_reject_wrong_outputs():
    wordcount = workloads.Wordcount(3)
    ctx = wordcount.setup()
    result = wordcount.run(ctx, 0)
    assert wordcount.check(0, result)
    result.outputs[0] = result.output[1:]
    assert not wordcount.check(0, result)

    q5 = workloads.TpchQ5(3)
    result = q5.run(q5.setup(), 0)
    assert q5.check(0, result)
    name, revenue = result.output[0]
    result.outputs[0] = [(name, revenue * 1.001)] + result.output[1:]
    assert not q5.check(0, result)


@pytest.fixture(scope="module")
def sgd_runs():
    """Two untraced sgd_loop runs.  The first cold job in a process pays
    for growing the heap, so the second one is the base for comparisons
    within this process."""
    return [run.measure("sgd_loop", 5, 1.0, trace=False) for __ in range(2)]


@pytest.mark.parametrize("name", ["tpch_q5", "wordcount", "sgd_loop"])
def test_counts_are_deterministic(name):
    first = values(run.measure(name, 7, 1.0, trace=True))
    second = values(run.measure(name, 7, 1.0, trace=True))
    for count in ("optimizer.plans_enumerated",
                  "optimizer.conversion_paths_solved", "executor.stages"):
        assert first[count] == second[count] > 0, count
    # The top-level layer spans account for the cold job's wall time.
    assert first["trace.coverage_frac"] >= 0.9


def test_sim_runtime_is_deterministic(sgd_runs):
    for name in ("tpch_q5", "wordcount"):
        assert (values(run.measure(name, 7, 1.0, trace=False))
                ["sim_runtime_s"]
                == values(run.measure(name, 7, 1.0, trace=False))
                ["sim_runtime_s"])
    first, second = (values(record)["sim_runtime_s"] for record in sgd_runs)
    assert first == second


def _slowed(original, factor: float):
    """``original`` made to take ``1 + factor`` times as long."""
    def slowed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            end = time.perf_counter() + factor * (time.perf_counter() - start)
            while time.perf_counter() < end:
                pass
    return slowed


def _sensitivity(monkeypatch, owner, attr: str) -> dict[str, dict]:
    """Verdicts of delayed against base runs, base and delayed alternating
    so that a drift of the machine's speed hits both sides."""
    delayed = _slowed(getattr(owner, attr), 1.0)
    runs: dict[tuple[str, bool], list] = {}
    for name, seconds, pairs in (("wordcount", 4.0, 2), ("sgd_loop", 1.0, 1)):
        for slow in (False, True) * pairs:
            with monkeypatch.context() as patch:
                if slow:
                    patch.setattr(owner, attr, delayed)
                runs.setdefault((name, slow), []).append(
                    run.measure(name, 5, seconds, trace=False))
    return {name: {metric: (verdict(runs[name, False], runs[name, True],
                                    metric),
                            [values(r)[metric] for r in runs[name, False]],
                            [values(r)[metric] for r in runs[name, True]])
                   for metric in ("first_job_s", "job_p50_s")}
            for name in ("wordcount", "sgd_loop")}


def test_optimizer_delay_flags_sgd_not_wordcount(monkeypatch, sgd_runs):
    """``sgd_runs`` first: the first cold sgd job in a process is slower."""
    from repro.core.channels import ChannelConversionGraph

    judged = _sensitivity(monkeypatch, ChannelConversionGraph,
                          "cheapest_path")
    assert judged["sgd_loop"]["first_job_s"][0] == "worse", judged
    for metric in ("first_job_s", "job_p50_s"):
        assert judged["wordcount"][metric][0] != "worse", judged


def test_engine_delay_flags_wordcount_not_sgd(monkeypatch, sgd_runs):
    from repro.platforms.dataflow import DataflowOperator

    judged = _sensitivity(monkeypatch, DataflowOperator, "execute")
    for metric in ("first_job_s", "job_p50_s"):
        assert judged["wordcount"][metric][0] == "worse", judged
    assert judged["sgd_loop"]["first_job_s"][0] != "worse", judged


def test_serving_delay_flags_server_mixed(monkeypatch):
    """Speed marks are taken with no job in flight, so CPU that the
    serving path adds in the shards cannot slow the kernel and hide
    itself.  The shards are forked after the patch and inherit it."""
    from repro.api import service

    delayed = _slowed(service.build_quanta, 4.0)
    runs: dict[bool, list] = {False: [], True: []}
    for slow in (False, True) * 2:
        with monkeypatch.context() as patch:
            if slow:
                patch.setattr(service, "build_quanta", delayed)
            runs[slow].append(run.measure("server_mixed", 5, 4.0,
                                          trace=False))
    judged = (verdict(runs[False], runs[True], "job_p50_s"),
              [values(r)["job_p50_s"] for r in runs[False]],
              [values(r)["job_p50_s"] for r in runs[True]])
    assert judged[0] == "worse", judged
