"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The smoke tests run every workload once untraced and once traced, about a
minute on one core.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_draws_are_deterministic_per_seed(workload):
    for seed in SEEDS:
        assert workloads.build(workload, seed) == workloads.build(workload, seed)
    distinct = {tuple(i.label for i in workloads.build(workload, s)) for s in SEEDS}
    assert len(distinct) > 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_draw_has_a_reference_digest(workload):
    universe = {i.label: i for i in workloads.universe(workload)}
    refs = checks.load_reference()
    assert set(universe) <= set(refs)
    for seed in SEEDS:
        for item in workloads.build(workload, seed):
            assert universe[item.label] == item


def test_explore_draw_stays_within_its_work_budget():
    sweep, _ = workloads._explore_universe()
    for seed in range(500):
        sweep_item, *drawn = workloads.build("explore", seed)
        assert sweep_item == sweep
        assert drawn and sum(i.work for i in drawn) <= workloads.EXPLORE_BUDGET
        assert all(8 * i.work <= sweep.work for i in drawn)


def test_corpus_is_every_connected_graph_once():
    corpus = workloads.load_corpus()
    counts = [sum(1 for _, n, _ in corpus if n == k) for k in range(1, 7)]
    assert counts == [1, 1, 2, 6, 21, 112]
    ours = [nx.Graph(list(e)) if e else nx.empty_graph(n) for _, n, e in corpus]
    atlas = [g for g in nx.graph_atlas_g()[1:] if g.number_of_nodes() <= 6 and nx.is_connected(g)]
    assert len(atlas) == len(ours)
    for g in atlas:
        assert sum(1 for h in ours if nx.is_isomorphic(g, h)) == 1


def test_tree_counts_match_kirchhoff_by_enumeration():
    for k in range(1, 7):
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        assert workloads.spanning_tree_count(k, edges) == (k ** (k - 2) if k > 1 else 1)
    n, edges = workloads.petersen()
    assert workloads.spanning_tree_count(n, edges) == len(workloads.spanning_trees(n, edges)) == 2000
    n, edges = workloads.grid(3, 4)
    assert workloads.spanning_tree_count(n, edges) == len(workloads.spanning_trees(n, edges))


def test_checks_reject_a_tampered_output():
    item = workloads.universe("greedy")[0]
    _, report = run.spawn([list(item.argv)], False)
    result = report["items"][0]
    refs = checks.load_reference()
    assert checks.check(item, result, refs) == []
    data = json.loads(result["stdout"])
    data["results"][0]["certificate"]["verdict"] = "GT"
    tampered = {**result, "stdout": json.dumps(data, indent=2) + "\n"}
    problems = checks.check(item, tampered, refs)
    assert "stdout digest differs from the reference" in problems
    assert "verdict GT" in problems
    assert checks.check(item, {**result, "rc": 2}, refs)


def test_tracing_patches_every_namespace():
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import orispec, orispec.cli, importlib\n"
        "from tracing import TARGETS, Tracer\n"
        "originals = {}\n"
        "for mod, attr, _ in TARGETS:\n"
        "    if '.' not in attr:\n"
        "        originals[id(getattr(importlib.import_module('orispec.' + mod), attr))] = attr\n"
        "Tracer().install()\n"
        "left = [(m, k) for m, mod in sys.modules.items() if m.split('.')[0] == 'orispec'\n"
        "        for k, v in vars(mod).items() if id(v) in originals]\n"
        "from orispec.polynomials import AlgebraicRoot as R\n"
        "print(left, hasattr(R.compare, '__wrapped__'), hasattr(R.refine, '__wrapped__'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] True True"


def test_benchmark_json_lists_the_metrics_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_yields_every_metric_without_failures(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [*bench["command"], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in bench[section])
        if trace:
            assert result["metrics"]["fail_rate"]["value"] == 0
