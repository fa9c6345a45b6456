"""Human-readable run reports and the ``compare`` mode.

``compare`` reads run records saved with ``--out`` and judges each
end-to-end metric per workload against the bound in ``BENCHMARK.json``:

* ``worse``: the head median is worse than the base median by more than
  the bound, and the base runs' own spread is within the bound (or every
  head run is worse than every base run);
* ``better``: the head median is better by more than both the bound and
  the base spread, and the head wins at least nine tenths of the
  index-paired runs;
* ``unresolved``: the base spread is wider than the bound, so a change
  of the bound's size cannot be told from noise;
* ``unchanged``: otherwise.

It then lists the layers whose self time moved (traced records).
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Layers in report order (see ``perfbench/layers.py``).
LAYERS = ("optimizer", "reuse", "executor", "server", "other")
#: Relative change of a layer's median self time that counts as a move.
LAYER_MOVE = 0.1


def median(values: list[float]) -> float:
    """The median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def describe(record: dict[str, Any]) -> list[str]:
    """Report lines for one run: metrics with units, then the layer table."""
    result = record["result"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"window {record['seconds']:g} s  trace {record['trace']}  "
             f"jobs {result['attempted']} (failed {result['failed']})"]
    lines += [f"  error: {error}" for error in record.get("errors", [])]
    wall = record.get("timings", {}).get("wall", {})
    for name, metric in result["metrics"].items():
        line = f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}"
        if name in wall:
            line += f"   (wall clock {wall[name]:.6g} s)"
        lines.append(line)
    table = record.get("layers")
    if table:
        lines.append(layer_table(table))
    return lines


def layer_table(table: dict[str, Any]) -> str:
    """Busy time and share per layer: the cold first job and a warm job."""
    first, warm = table["first"], table["warm"]
    rows = [f"  {'layer':<12}{'first job s':>13}{'share':>8}"
            f"{'warm job s':>13}{'share':>8}"]
    for layer in LAYERS:
        a = first["layers"].get(layer, 0.0)
        b = warm["layers"].get(layer, 0.0)
        rows.append(f"  {layer:<12}{a:>13.6f}{_share(a, first['wall_s']):>8}"
                    f"{b:>13.6f}{_share(b, warm['wall_s']):>8}")
    rows.append(f"  {'job wall':<12}{first['wall_s']:>13.6f}{'':>8}"
                f"{warm['wall_s']:>13.6f}  ({warm['jobs']} traced warm jobs)")
    return "\n".join(rows)


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


# ------------------------------------------------------------- compare
def _spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def judge(base: list[float], head: list[float], bound: float,
          lower_is_better: bool) -> tuple[str, float]:
    """Verdict and signed relative change (positive = worse)."""
    b_mid, h_mid = statistics.median(base), statistics.median(head)
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (h_mid - b_mid) / abs(b_mid) if b_mid else 0.0
    spread = _spread(base)

    def worse(h: float, b: float) -> bool:
        return sign * (h - b) > 0

    all_worse = all(worse(h, b) for h in head for b in base)
    all_better = all(worse(b, h) for h in head for b in base)
    if change > bound and (spread <= bound or all_worse):
        return "worse", change
    pairs = list(zip(base, head))
    wins = sum(worse(b, h) for b, h in pairs)
    if (-change > max(bound, spread) and wins >= 0.9 * len(pairs)) \
            or (-change > bound and all_better):
        return "better", change
    if spread > bound:
        return "unresolved", change
    return "unchanged", change


def _load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(
            record)
    return runs


def compare(base_paths: list[str], head_paths: list[str]) -> list[str]:
    """Verdict lines for every shared (workload, metric)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower")
              for m in spec["end_to_end"]}
    base, head = _load(base_paths), _load(head_paths)
    lines = []
    for (workload, trace), base_runs in sorted(base.items()):
        head_runs = head.get((workload, trace))
        if not head_runs:
            continue
        if trace == 0:
            for name, (bound, lower) in bounds.items():
                b = [r["result"]["metrics"][name]["value"] for r in base_runs]
                h = [r["result"]["metrics"][name]["value"] for r in head_runs]
                verdict, change = judge(b, h, bound, lower)
                lines.append(f"{workload:<14}{name:<16}{verdict:<12}"
                             f"{change:+8.1%} (bound {bound:.0%}, "
                             f"{len(b)} vs {len(h)} runs)")
        else:
            lines += _moved_layers(workload, base_runs, head_runs)
    return lines


def _moved_layers(workload: str, base_runs: list[dict],
                  head_runs: list[dict]) -> list[str]:
    """Self-time keys whose median moved by more than :data:`LAYER_MOVE`."""
    lines = []
    for scope in ("first", "warm"):
        keys = {key for run in base_runs + head_runs
                for key in run["layers"]["self_s"][scope]}
        for key in sorted(keys):
            b = statistics.median(r["layers"]["self_s"][scope].get(key, 0.0)
                                  for r in base_runs)
            h = statistics.median(r["layers"]["self_s"][scope].get(key, 0.0)
                                  for r in head_runs)
            if b and abs(h - b) / b > LAYER_MOVE:
                lines.append(f"{workload:<14}layer {scope}:{key:<30} "
                             f"{b:.6f} s -> {h:.6f} s ({(h - b) / b:+.1%})")
    return lines


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Judge head runs against base runs, metric by metric.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    for line in compare(args.base, args.head):
        print(line)
    return 0
