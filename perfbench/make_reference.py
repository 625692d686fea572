"""Regenerate perfbench/reference.txt: the stdout digest of every item any
seed can draw, for every workload.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the reference.
Every item must also pass the semantic checks, or nothing is written.
Runs one fresh interpreter per core at a time; takes about ten minutes on two
cores, most of it the 4,000 Petersen items.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import checks
import run
import workloads

# items per fresh interpreter, so that each chunk stays well inside the
# pass timeout
CHUNK = {"explore": 10, "greedy": 3, "family": 100}


def digests_of(chunk: list[workloads.Item]) -> list[tuple[str, str, list[str]]]:
    _, report = run.spawn([list(i.argv) for i in chunk], False)
    out = []
    for item, result in zip(chunk, report["items"]):
        sha = checks.digest(result["stdout"])
        out.append((item.label, sha, checks.check(item, result, {item.label: sha})))
    return out


def main() -> int:
    chunks = []
    for workload in workloads.WORKLOADS:
        items = workloads.universe(workload)
        size = CHUNK[workload]
        chunks += [items[i : i + size] for i in range(0, len(items), size)]
    rows, bad = [], 0
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for done, result in enumerate(pool.map(digests_of, chunks), start=1):
            for label, sha, problems in result:
                rows.append(f"{label} {sha}")
                for problem in problems:
                    bad += 1
                    print(f"FAIL {label}: {problem}", file=sys.stderr)
            print(f"{done}/{len(chunks)} chunks", file=sys.stderr, flush=True)
    if bad:
        return 1
    header = [
        "# SHA-256 of the stdout of every benchmark item, by item label.",
        "# Regenerate with: python3 perfbench/make_reference.py",
    ]
    checks.REFERENCE_FILE.write_text("\n".join(header + rows) + "\n")
    print(f"wrote {len(rows)} digests to {checks.REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
