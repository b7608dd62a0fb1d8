"""Compare two sets of benchmark runs, parent against change.

    python3 bench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the untraced result files that bench/run.py writes to
.bench_results/ (copy them aside between commits).  Runs are paired by
(workload, seed).  For every workload and end-to-end metric of
BENCHMARK.json it prints both medians and quartiles, the pairs the change
won, and a verdict:

* improved   - the change wins at least 9/10 of the pairs, its median is
               better by more than the parent's interquartile distance, and
               no more operations failed than at the parent;
* unresolved - the parent's spread (IQR / median) exceeds the metric's
               bound and not every change run beats every parent run;
* worse      - the change's median is worse than the parent's by more than
               the bound;
* unchanged  - otherwise."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict]]:
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        prov = data["provenance"]
        runs.setdefault(prov["workload"], {})[prov["seed"]] = data
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float], more_failures: bool):
    """Parent and change values are paired by position."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = (p3 - p1) / pm
    all_better = all(better(c, p) for c in change for p in parent)
    if (wins >= 0.9 * len(parent) and better(cm, pm) and abs(cm - pm) > p3 - p1
            and not more_failures):
        return "improved", wins
    if spread > metric["bound"] and not all_better:
        return "unresolved", wins
    if worse_by > metric["bound"]:
        return "worse", wins
    return "unchanged", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    for workload in [w["name"] for w in spec["workloads"]]:
        pruns, cruns = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(pruns) & set(cruns))
        if not seeds:
            print(f"{workload}: no paired runs")
            continue
        pfail = sum(pruns[s]["result"]["failed"] for s in seeds)
        cfail = sum(cruns[s]["result"]["failed"] for s in seeds)
        patt = sum(pruns[s]["result"]["attempted"] for s in seeds)
        catt = sum(cruns[s]["result"]["attempted"] for s in seeds)
        print(f"{workload}: {len(seeds)} paired seeds; failed {pfail}/{patt} -> {cfail}/{catt}")
        print(f"  {'metric':<14} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32}"
              f" {'won':<6} verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [pruns[s]["result"]["metrics"][name]["value"] for s in seeds]
            cv = [cruns[s]["result"]["metrics"][name]["value"] for s in seeds]
            word, wins = verdict(metric, pv, cv, cfail / catt > pfail / patt)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            parent_text = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
            change_text = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
            print(f"  {name:<14} {parent_text:<32} {change_text:<32} {wins:>2}/{len(seeds):<3} "
                  f"{word} ({metric['unit']}, {metric['better']} is better, "
                  f"bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
