"""End-to-end and per-layer benchmark of the orispec CLI on the pure kernel.

    python3 perfbench/run.py --workload {explore,greedy,family} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The seed fixes the items (command lines) of
the workload; each pass runs all of them in a fresh interpreter
(perfbench/child.py) with ORISPEC_THREADS=1 and PYTHONHASHSEED=0, one process
at a time.  Passes repeat while the next one fits in --seconds.  Every item's
stdout is checked against a reference digest and by semantic checks
(checks.py).  Linux only: set-up time and peak RSS rely on a shared monotonic
clock and /proc/self/status.

--trace 0 reports the end-to-end metrics: wall_s (one pass, set-up
included), setup_s (spawn until orispec.cli is imported and the backend is
chosen; also sampled from interpreters that run no item, three before each
pass), item_max_s (slowest item of a pass) and peak_rss_mb (of the pass's
process), each the median over passes.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones
(tracing.py) and the tracing overhead.  The last line of stdout is the JSON
result; a full record of the run goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "orispec"
OUT = HERE / "out"

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import DEDUP_SEARCHES, TARGETS  # noqa: E402

SETUP_SAMPLES_PER_PASS = 3
PASS_TIMEOUT_S = 150
KERNEL_ORDERS = range(1, 17)  # up to the 16 vertices of the largest grids
CHILD_ENV = {"ORISPEC_THREADS": "1", "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def spawn(argvs: list[list[str]], trace: bool) -> tuple[float, dict]:
    """Run one pass in a fresh interpreter; (wall seconds, child report)."""
    env = {**os.environ, **CHILD_ENV}
    request = json.dumps({"items": argvs, "trace": trace})
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), repr(start)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(request, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"pass exceeded {PASS_TIMEOUT_S} s") from None
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {err.strip()[-500:]}")
    report = json.loads(out)
    if Path(report["orispec_file"]).resolve().parent != SRC.resolve():
        raise RuntimeError(f"imported orispec from {report['orispec_file']}, not {SRC}")
    return wall, report


def run_pass(items: list[workloads.Item], refs: dict[str, str], trace: bool) -> dict:
    try:
        wall, report = spawn([list(i.argv) for i in items], trace)
    except (RuntimeError, ValueError) as exc:  # the whole pass failed
        problem = str(exc)
        return {"trace": trace, "error": problem, "failed": len(items), "items": []}
    rows = []
    for item, result in zip(items, report["items"]):
        rows.append(
            {
                "label": item.label,
                "work": item.work,
                "seconds": result["seconds"],
                "digest": checks.digest(result["stdout"]),
                "problems": checks.check(item, result, refs),
            }
        )
    return {
        "trace": trace,
        "error": None,
        "failed": sum(1 for r in rows if r["problems"]),
        "wall_s": wall,
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "item_max_s": max(r["seconds"] for r in rows),
        "backend": report["backend"],
        "python": report["python"],
        "items": rows,
        "layers": report["trace"],
    }


def setup_samples(count: int) -> list[float]:
    """Set-up time of `count` fresh interpreters that run no item."""
    return [spawn([], False)[1]["setup_s"] for _ in range(count)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for _, _, key in TARGETS:
        if key.startswith("cli."):
            out.append((f"{key}.self_s", "s"))
            continue
        out += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
        if key == "kernel.charpoly_flat":
            for n in KERNEL_ORDERS:
                out += [(f"{key}.n{n}.calls", "count"), (f"{key}.n{n}.self_s", "s")]
        elif key == "kernel.sum_orientations_flat":
            out.append((f"{key}.charpolys", "count"))
        elif key in DEDUP_SEARCHES:
            out.append((f"{key}.distinct_ratio", "ratio"))
        elif key == "switching.switching_equivalent":
            out.append((f"{key}.hit_ratio", "ratio"))
        elif key == "graphs.enumerate_spanning_trees":
            out.append((f"{key}.trees", "count"))
    return out + [("trace.overhead_s", "s"), ("fail_rate", "ratio")]


def layer_values(layers: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (fail_rate and overhead aside)."""
    calls, self_s, counters = layers["calls"], layers["self_s"], layers["counters"]
    ordered = {k: v for k, v in calls.items() if k.startswith("kernel.charpoly_flat.n")}
    calls = {**calls, "kernel.charpoly_flat": sum(ordered.values())}
    self_s = {**self_s, "kernel.charpoly_flat": sum(self_s[k] for k in ordered)}

    def ratio(a: str, b: str) -> float:
        return counters.get(a, 0) / counters[b] if counters.get(b) else 0.0

    values = {}
    for name, _ in per_layer_names():
        key, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(key, 0)
        elif field == "self_s":
            values[name] = self_s.get(key, 0.0)
        elif field == "distinct_ratio":
            values[name] = ratio(f"{key}.distinct", f"{key}.charpolys")
        elif field == "hit_ratio":
            values[name] = calls.get(key, 0) and counters.get(f"{key}.hits", 0) / calls[key]
        elif field in ("charpolys", "trees"):
            values[name] = counters.get(name, 0)
    return values


def median_of(passes: list[dict], field: str) -> float:
    return statistics.median(p[field] for p in passes)


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's own repository; None outside a git checkout.
    GIT_DIR keeps git from searching the directories above the checkout."""
    env = {**os.environ, "GIT_DIR": str(ROOT / ".git")}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def print_report(args, env: dict, items, passes: list[dict], setups: list[float]) -> None:
    plain = [p for p in passes if p["error"] is None and not p["trace"]]
    traced = [p for p in passes if p["error"] is None and p["trace"]]
    print(f"orispec benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["backend"] != "pure":
        print(f"WARNING: backend {env['backend']!r}; compare only with runs on the same backend")
    failed = len(passes) - len(plain) - len(traced)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, {failed} failed; setup samples: {len(setups)}")
    if plain:
        print(f"{'item (untraced median)':44} {'work':>9} {'seconds':>10} {'us/work':>9}")
        for idx, item in enumerate(items):
            secs = statistics.median(p["items"][idx]["seconds"] for p in plain)
            print(f"{item.label[:44]:44} {item.work:9d} {secs:10.4f} {1e6 * secs / item.work:9.1f}")
    for p in passes:
        for row in p["items"]:
            for problem in row["problems"]:
                print(f"FAIL {row['label']}: {problem}")
        if p["error"]:
            print(f"FAIL pass: {p['error']}")


def print_layers(values: dict[str, float]) -> None:
    """Self time per module; the per-order kernel splits are in its total."""
    layers: dict[str, float] = {}
    for name, v in values.items():
        if name.endswith(".self_s") and name.count(".") == 2:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + v
    total = sum(layers.values())
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:12} self {secs:9.4f} s {secs / total:7.1%}")
    print(f"trace overhead: {values['trace.overhead_s']:+.3f} s per pass")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no orispec sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    items = workloads.build(args.workload, args.seed)
    refs = checks.load_reference()
    began = time.monotonic()
    setup_samples(1)  # warm-up: may still write bytecode caches
    setups: list[float] = []
    passes: list[dict] = []
    # start another pass (or untraced/traced pair) only while the last one
    # would still fit, so that a run lasts about --seconds on any machine;
    # set-up samples are spread over the run like the passes
    last = 0.0
    while not passes or time.monotonic() - began + last <= args.seconds:
        start = time.monotonic()
        setups += setup_samples(SETUP_SAMPLES_PER_PASS)
        passes.append(run_pass(items, refs, False))
        if args.trace:
            passes.append(run_pass(items, refs, True))
        last = time.monotonic() - start

    good = [p for p in passes if p["error"] is None]
    plain = [p for p in good if not p["trace"]]
    traced = [p for p in good if p["trace"]]
    if not plain or (args.trace and not traced):
        print_report(args, {"backend": None}, items, passes, setups)
        print("error: no pass completed", file=sys.stderr)
        return 1
    setups += [p["setup_s"] for p in good]
    env = {
        "backend": plain[0]["backend"],
        "python": plain[0]["python"],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        **CHILD_ENV,
    }
    attempted = len(items) * len(passes)
    failed = sum(p["failed"] for p in passes)

    if args.trace:
        per_pass = [layer_values(p["layers"]) for p in traced]
        values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        values["fail_rate"] = failed / attempted
        units = dict(per_layer_names())
    else:
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": statistics.median(setups),
            "item_max_s": median_of(plain, "item_max_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        units = {"wall_s": "s", "setup_s": "s", "item_max_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    print_report(args, env, items, passes, setups)
    if args.trace:
        print_layers(values)
    else:
        for name, m in metrics.items():
            count = len(setups) if name == "setup_s" else len(plain)
            print(f"{name} = {m['value']:.6g} {m['unit']} (median of {count})")
    print(f"fail_rate = {failed}/{attempted}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples": setups,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "metrics": metrics,
        "spans": traced[-1]["layers"]["spans"] if traced else [],
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
