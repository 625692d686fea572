"""Compare the metrics of two sets of benchmark records.

    python3 perfbench/compare.py --base perfbench/out/A*.json --change perfbench/out/B*.json

Each set holds records of one workload written by run.py.  Prints, per
metric, the median of each set, the change as a share of the base median,
and the base set's quartile spread.  Records made on different kernel
backends or Python versions measure different programs, so such a
comparison is refused instead of being reported as a speed change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    base, change = load(args.base), load(args.change)
    records = base + change
    for field in ("backend", "python"):
        seen = sorted({str(r["environment"][field]) for r in records})
        if len(seen) > 1:
            print(f"NOT COMPARABLE: {field} differs across records: {', '.join(seen)}")
            return 1
    workloads = sorted({r["workload"] for r in records})
    if len(workloads) > 1:
        print(f"NOT COMPARABLE: workloads differ: {', '.join(workloads)}")
        return 1
    print(f"workload {workloads[0]}: {len(base)} base, {len(change)} change records")
    print(f"{'metric':52} {'base':>12} {'change':>12} {'delta':>8} {'base IQR':>10}")
    names = [n for n in base[0]["metrics"] if all(n in r["metrics"] for r in records)]
    for name in names:
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        delta = f"{(mb - ma) / ma:+8.1%}" if ma else "     n/a"
        print(f"{name:52} {ma:12.6g} {mb:12.6g} {delta} {spread(a):10.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
