"""The benchmark's workloads: seeded inputs, set-up, one job, and its oracle.

Every workload object is built from a seed, which generates all of its
inputs up front (the program only ever sees the generated data).  Its
methods are then timed by :mod:`perfbench.run`:

* ``setup()`` builds a fresh context and loads the inputs (``setup_s``);
  a run makes ``rounds`` rounds of ``setups_per_round`` set-ups, a cold
  job on each of the last ``colds_per_round`` contexts and a share of the
  warm window (``window_share`` of ``--seconds``) on the last one, so that
  set-up and cold samples are spread over the whole run;
* ``prepare(ctx, i)`` stages job ``i``'s input, untimed;
* ``run(ctx, i, **execute_kwargs)`` submits job ``i`` (job 0 is the cold
  first job) through the public API;
* ``check(i, result)`` compares the job's output with an oracle that does
  not go through the program.

All four run on default configuration: no toggle of the program is set.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter, defaultdict
from typing import Any

from repro import RheemContext
from repro.api import RheemService
from repro.apps import ML4all, sgd_hinge
from repro.apps.dataciv import q5_quanta
from repro.core.executor import ExecutionResult
from repro.trace import NO_TRACER
from repro.workloads.points import ACTUAL_POINTS, DATASETS, labelled_points
from repro.workloads.text import zipf_lines
from repro.workloads.tpch import ROW_BYTES, TpchLite, _to_csv


def _close(a: Any, b: Any) -> bool:
    """Structural equality with a relative tolerance on floats.

    The program may sum floating-point values in another order than the
    oracle, which moves the last digits only.
    """
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


# ---------------------------------------------------------------- sgd_loop
class SgdLoop:
    """ML4all SGD (hinge loss, 50 iterations) on the HIGGS stand-in."""

    name = "sgd_loop"
    path = "hdfs://perfbench/points.csv"
    iterations = 50
    # A cold job spans about 15 s, and its wall time moves by up to 20%
    # from one to the next however the machine's speed is sampled, so a
    # run times two, and shortens its warm window to pay for them.
    rounds = 1
    setups_per_round = 9
    colds_per_round = 2
    window_share = 0.5
    #: Cold jobs here are mostly plan enumeration.  In the machine's fast
    #: stretches these sped up about half as much, in log terms, as the
    #: speed kernel, so they are scaled by the square root of its ratio
    #: (see the "Noise" section of perfbench/README.md).
    cold_scale_power = 0.5

    def __init__(self, seed: int) -> None:
        spec = DATASETS["higgs"]
        self.dimensions = spec.dimensions
        self.bytes_per_point = spec.bytes_per_point
        # The seed also draws the dataset slice (95-100% of HIGGS), so the
        # simulated plan cost is an input property, not a constant.
        percent = 95.0 + 5.0 * random.Random(seed).random()
        self.lines, __ = labelled_points(ACTUAL_POINTS, spec.dimensions,
                                         seed=seed)
        self.sim_factor = spec.sim_points * percent / 100.0 / len(self.lines)
        self.cold_output: Any = None

    def setup(self) -> RheemContext:
        ctx = RheemContext()
        ctx.vfs.write(self.path, self.lines, sim_factor=self.sim_factor,
                      bytes_per_record=self.bytes_per_point)
        return ctx

    def prepare(self, ctx: RheemContext, index: int) -> None:
        pass

    def run(self, ctx: RheemContext, index: int,
            **execute_kwargs: Any) -> ExecutionResult:
        return ML4all(ctx).train(self.path, sgd_hinge(self.dimensions),
                                 iterations=self.iterations, sample_size=10,
                                 **execute_kwargs)

    def check(self, index: int, result: ExecutionResult) -> bool:
        """Warm outputs must equal the cold output bit for bit."""
        weights = result.output[0]
        if index == 0:
            self.cold_output = weights
            return (len(weights) == self.dimensions
                    and all(math.isfinite(w) for w in weights)
                    and any(w != 0.0 for w in weights))
        return weights == self.cold_output


# ----------------------------------------------------------------- tpch_q5
def _tpch_inputs(generator: TpchLite) -> tuple[dict, list, list]:
    """Generated Q5 tables plus their Figure 2(d) placement.

    Returns ``(tables, files, relations)``: LINEITEM and ORDERS as HDFS
    CSV, NATION as a local CSV file, CUSTOMER/SUPPLIER/REGION as tables.
    """
    tables = {name: generator.table(name)
              for name in ("lineitem", "orders", "nation", "customer",
                           "supplier", "region")}
    files = [(f"{scheme}://tpch/{name}.csv",
              [_to_csv(name, row) for row in tables[name]],
              generator.sim_factor(name), ROW_BYTES[name])
             for scheme, name in (("hdfs", "lineitem"), ("hdfs", "orders"),
                                  ("file", "nation"))]
    relations = [(name, tables[name], generator.sim_factor(name),
                  ROW_BYTES[name])
                 for name in ("customer", "supplier", "region")]
    return tables, files, relations


def _load(ctx: RheemContext, files: list, relations: list) -> RheemContext:
    for path, lines, sim_factor, width in files:
        ctx.vfs.write(path, lines, sim_factor=sim_factor,
                      bytes_per_record=width)
    for name, rows, sim_factor, width in relations:
        ctx.pgres.create_table(name, sorted(rows[0]), rows,
                               sim_factor=sim_factor, bytes_per_row=width)
    return ctx


def q5_reference(tables: dict) -> list[tuple[str, float]]:
    """TPC-H Q5 in plain Python: revenue per ASIA nation in 1994."""
    asia = {r["regionkey"] for r in tables["region"] if r["name"] == "ASIA"}
    nations = {n["nationkey"]: n["name"] for n in tables["nation"]
               if n["regionkey"] in asia}
    customers = {c["custkey"]: c["nationkey"] for c in tables["customer"]
                 if c["nationkey"] in nations}
    orders = {o["orderkey"]: customers[o["custkey"]]
              for o in tables["orders"]
              if o["orderyear"] == 1994 and o["custkey"] in customers}
    suppliers = {s["suppkey"]: s["nationkey"] for s in tables["supplier"]}
    revenue: dict[str, float] = defaultdict(float)
    for line in tables["lineitem"]:
        nation = orders.get(line["orderkey"])
        if nation is not None and suppliers.get(line["suppkey"]) == nation:
            revenue[nations[nation]] += (line["extendedprice"]
                                         * (1.0 - line["discount"]))
    return sorted(revenue.items(), key=lambda item: -item[1])


class TpchQ5:
    """TPC-H Q5 over HDFS, the relational store and local files."""

    name = "tpch_q5"
    scale_factor = 0.1
    actual_scale = 20.0
    rounds = 3
    setups_per_round = 3
    # With one cold job per round, first_job_s spread 0.25 across seeds in
    # an unsteady stretch of the machine.
    colds_per_round = 2
    window_share = 1.0
    #: Cold jobs here are mostly plan enumeration.  In the machine's fast
    #: stretches these sped up about half as much, in log terms, as the
    #: speed kernel, so they are scaled by the square root of its ratio
    #: (see the "Noise" section of perfbench/README.md).
    cold_scale_power = 0.5

    def __init__(self, seed: int) -> None:
        tables, self.files, self.relations = _tpch_inputs(TpchLite(
            self.scale_factor, seed=seed, actual_scale=self.actual_scale))
        self.expected = q5_reference(tables)

    def setup(self) -> RheemContext:
        return _load(RheemContext(), self.files, self.relations)

    def prepare(self, ctx: RheemContext, index: int) -> None:
        pass

    def run(self, ctx: RheemContext, index: int,
            **execute_kwargs: Any) -> ExecutionResult:
        return q5_quanta(ctx, self.scale_factor,
                         "polystore").execute(**execute_kwargs)

    def check(self, index: int, result: ExecutionResult) -> bool:
        return _close(result.output, self.expected)


# --------------------------------------------------------------- wordcount
class Wordcount:
    """UDF-opaque wordcount, a fresh corpus file per job."""

    name = "wordcount"
    lines = 8_000
    corpora = 32
    sim_factor = 250.0
    rounds = 3
    setups_per_round = 3
    colds_per_round = 3
    window_share = 1.0
    cold_scale_power = 1.0  # engine compute tracks the kernel in full

    def __init__(self, seed: int) -> None:
        pool = zipf_lines(4_000, seed=seed)
        rng = random.Random(seed)
        # Job i reads corpus i % corpora under its own path, so neither the
        # plan cache nor the result store can serve it.
        self.texts = [rng.choices(pool, k=self.lines)
                      for __ in range(self.corpora)]
        self.expected = [Counter(word for line in text
                                 for word in line.split())
                         for text in self.texts]

    def _path(self, index: int) -> str:
        return f"hdfs://perfbench/corpus-{index}.txt"

    def setup(self) -> RheemContext:
        ctx = RheemContext()
        self.prepare(ctx, 0)
        return ctx

    def prepare(self, ctx: RheemContext, index: int) -> None:
        ctx.vfs.write(self._path(index), self.texts[index % self.corpora],
                      sim_factor=self.sim_factor, bytes_per_record=100.0)

    def run(self, ctx: RheemContext, index: int,
            **execute_kwargs: Any) -> ExecutionResult:
        return (ctx.read_text_file(self._path(index))
                .flat_map(str.split, bytes_per_record=12)
                .map(lambda word: (word, 1), bytes_per_record=16)
                .reduce_by_key(lambda pair: pair[0],
                               lambda a, b: (a[0], a[1] + b[1]))
                .execute(**execute_kwargs))

    def check(self, index: int, result: ExecutionResult) -> bool:
        counts = dict(result.output)
        return (len(counts) == len(result.output)
                and counts == self.expected[index % self.corpora])


# ------------------------------------------------------------ server_mixed
_TPCH_JOIN = [
    {"name": "orders_raw", "kind": "textfile_source",
     "path": "hdfs://tpch/orders.csv"},
    {"name": "orders", "kind": "map", "input": "orders_raw",
     "expr": "x.split('|')"},
    {"name": "lineitem_raw", "kind": "textfile_source",
     "path": "hdfs://tpch/lineitem.csv"},
    {"name": "lineitem", "kind": "map", "input": "lineitem_raw",
     "expr": "x.split('|')"},
    {"name": "ol", "kind": "join", "left": "orders", "right": "lineitem",
     "left_key": "x[0]", "right_key": "x[0]"},
    {"name": "customer", "kind": "table_source", "table": "customer"},
    {"name": "col", "kind": "join", "left": "customer", "right": "ol",
     "left_key": "str(x['custkey'])", "right_key": "x[0][1]"},
]
_REVENUE = "float(x[1][1][2]) * (1 - float(x[1][1][3]))"
_WORDS = [
    {"name": "lines", "kind": "textfile_source",
     "path": "hdfs://bench/corpus.txt"},
    {"name": "words", "kind": "flatmap", "input": "lines",
     "expr": "x.split()"},
]


def _doc(operators: list[dict]) -> dict:
    return {"operators": operators, "sink": {"name": operators[-1]["name"]}}


#: The served job shapes, most popular first (Zipf rank order): variants
#: of a Q5-style cross-store join and of wordcount.
SHAPES = [
    _doc(_TPCH_JOIN + [
        {"name": "revenue", "kind": "map", "input": "col", "expr": _REVENUE},
        {"name": "total", "kind": "reduce", "input": "revenue",
         "reducer": "a + b"}]),
    _doc(_WORDS + [
        {"name": "pairs", "kind": "map", "input": "words", "expr": "(x, 1)"},
        {"name": "counts", "kind": "reduceby", "input": "pairs",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"}]),
    _doc(_TPCH_JOIN + [
        {"name": "by_nation", "kind": "map", "input": "col",
         "expr": f"(x[0]['nationkey'], {_REVENUE})"},
        {"name": "revenue", "kind": "reduceby", "input": "by_nation",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"}]),
    _doc(_WORDS + [
        {"name": "long", "kind": "filter", "input": "words",
         "expr": "len(x) > 2"},
        {"name": "pairs", "kind": "map", "input": "long", "expr": "(x, 1)"},
        {"name": "counts", "kind": "reduceby", "input": "pairs",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"}]),
    _doc(_TPCH_JOIN + [
        {"name": "ones", "kind": "map", "input": "col", "expr": "1"},
        {"name": "rows", "kind": "reduce", "input": "ones",
         "reducer": "a + b"}]),
    _doc(_WORDS + [
        {"name": "lengths", "kind": "map", "input": "words",
         "expr": "(len(x), 1)"},
        {"name": "histogram", "kind": "reduceby", "input": "lengths",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"}]),
    _doc(_TPCH_JOIN + [
        {"name": "price", "kind": "map", "input": "col",
         "expr": "float(x[1][1][2])"},
        {"name": "top", "kind": "reduce", "input": "price",
         "reducer": "max(a, b)"}]),
    _doc(_WORDS + [
        {"name": "vocabulary", "kind": "distinct", "input": "words"}]),
]


def server_context(files: list, relations: list) -> RheemContext:
    """Context factory of every shard replica (and of the oracle)."""
    return _load(RheemContext(), files, relations)


def _canonical(output: Any) -> Any:
    """Unordered collection outputs in a fixed order for comparison."""
    if isinstance(output, list):
        return sorted(output, key=repr)
    return output


class ServerMixed:
    """A process-backend job server under two closed-loop clients."""

    name = "server_mixed"
    scale_factor = 0.01
    workers = 2
    clients = 2
    segment_s = 0.5  # serving pauses this often for an idle speed mark
    #: A server keeps every job it has served, so its memory grows with
    #: the jobs of its round, and those vary with the machine's speed.
    #: Many short rounds keep that share of ``peak_rss_mb`` small.
    rounds = 10
    setups_per_round = 3  # each fresh server also serves one cold document
    #: The cold document is mostly plan enumeration in a shard, as on
    #: tpch_q5; over 150 of them the log-log slope of its time on kernel
    #: time was 0.3-0.7, so it is scaled by the square root as well.
    cold_scale_power = 0.5
    max_documents = 200_000

    def __init__(self, seed: int) -> None:
        __, files, relations = _tpch_inputs(
            TpchLite(self.scale_factor, seed=seed))
        files.append(("hdfs://bench/corpus.txt", zipf_lines(60, seed=seed),
                      500.0, 100.0))
        self.context_factory = functools.partial(server_context, files,
                                                 relations)
        # Every block of 100 documents holds each shape in exact Zipf
        # proportion; the seed only shuffles the order within a block.
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(SHAPES))]
        block = [shape for shape, weight in enumerate(weights)
                 for __ in range(round(100 * weight / sum(weights)))]
        rng = random.Random(seed)
        #: Shape index of every submitted document, in submission order.
        self.sequence: list[int] = []
        while len(self.sequence) < self.max_documents:
            rng.shuffle(block)
            self.sequence += block
        # The oracle: each shape once on its own direct context.  Their
        # simulated makespans, summed, are the workload's sim_runtime_s.
        self.expected = []
        self.sim_runtime_s = 0.0
        for document in SHAPES:
            response = RheemService(self.context_factory()).submit(
                document, tracer=NO_TRACER)
            if response["status"] != "ok":
                raise RuntimeError(f"oracle run failed: {response}")
            self.expected.append(_canonical(response["output"]))
            self.sim_runtime_s += response["runtime"]

    def check(self, shape: int, response: dict) -> bool:
        return (response.get("status") == "ok"
                and _close(_canonical(response["output"]),
                           self.expected[shape]))


FLUENT = {cls.name: cls for cls in (SgdLoop, TpchQ5, Wordcount)}
