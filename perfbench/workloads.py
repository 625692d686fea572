"""Seeded CLI workloads for the benchmark, and the estimated work of each item.

An item is one `orispec` command line.  `build(workload, seed)` draws a
workload's items from `universe(workload)`, the finite set of items any seed
can produce, so a reference digest can be stored for every item a run may
meet.  Nothing here imports orispec: the inputs and the work estimates are
computed independently of the code under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("explore", "greedy", "family")

CORPUS_FILE = Path(__file__).with_name("corpus.txt")

# Estimated work (Kirchhoff tree count x 2^m) of the n = 6 graphs drawn per
# explore pass: about 1.3 times the --max-n 5 sweep, and about 70% of the
# graphs a draw may pick, which keeps pass time within a few percent across
# seeds.
EXPLORE_BUDGET = 16384

# Grids stop at m = 9 cotree edges, so that a pass takes about 5 s and a run
# holds several passes: the auto route stays brute up to m = 16, the 3x6 grid
# (m = 10) alone takes 7-10 s and 4x5 (m = 12) ~40 s per tree.
GREEDY_GRIDS = ((3, 4), (3, 5), (4, 4))

# verify-expectation runs on this grid at bfs:0
EXPECTATION_GRID = (3, 5)

# The grid of the family workload: the 2x8 ladder has as many vertices as the
# 4x4 grid (degree-16 charpolys) but m = 7, so both commands take ~2 s
# together instead of ~11 s.
FAMILY_GRID = (2, 8)

PETERSEN_TREES_PER_PASS = 4


@dataclass(frozen=True)
class Item:
    """One command line with the benchmark's own knowledge of its input."""

    label: str
    argv: tuple[str, ...]
    n: int
    edges: tuple[tuple[int, int], ...]
    work: int

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def cotree_size(self) -> int:
        return len(self.edges) - self.n + 1


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def decode_graph6(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(n, sorted edges) of a graph6 string with n <= 62."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> k) & 1 for k in range(5, -1, -1))
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    edges = sorted(p for p, bit in zip(pairs, bits) if bit)
    return n, tuple(edges)


def spanning_tree_count(n: int, edges) -> int:
    """Kirchhoff's theorem: any cofactor of the Laplacian, by exact Bareiss
    elimination."""
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def explore_work(n: int, edges) -> int:
    """Charpolys `min_rho_partial` computes: spanning trees x 2^m."""
    return spanning_tree_count(n, edges) << (len(edges) - n + 1)


def load_corpus() -> list[tuple[str, int, tuple[tuple[int, int], ...]]]:
    out = []
    for line in CORPUS_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            n, edges = decode_graph6(line)
            out.append((line, n, edges))
    return out


def grid(rows: int, cols: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, tuple(sorted(edges))


def petersen() -> tuple[int, tuple[tuple[int, int], ...]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, tuple(sorted((min(e), max(e)) for e in edges))


def spanning_trees(n: int, edges) -> list[tuple[tuple[int, int], ...]]:
    """Every spanning tree as an edge subset, in combinations order."""
    out = []
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            out.append(subset)
    return out


def _edge_text(edges) -> str:
    return ";".join(f"{u} {v}" for u, v in edges)


# ---------------------------------------------------------------------------
# universes and seeded draws
# ---------------------------------------------------------------------------


def _explore_universe() -> tuple[Item, list[Item]]:
    """The `--max-n 5` sweep item and every n = 6 graph a draw may pick.

    A drawn graph weighs at most an eighth of the sweep (these are the n = 6
    graphs with m <= 4), so the sweep stays the slowest item of every pass
    and item_max_s does not depend on the draw.  Heavier graphs would make
    pass time depend on the seed: their time per unit of estimated work
    varies by a factor of two.
    """
    corpus = load_corpus()
    small = [(n, e) for _, n, e in corpus if n <= 5]
    sweep_work = sum(explore_work(n, e) for n, e in small)
    sweep = Item("explore:max-n5", ("explore", "--max-n", "5", "--json"), 5, (), sweep_work)
    level6 = []
    for g6, n, edges in corpus:
        work = explore_work(n, edges)
        if n == 6 and 8 * work <= sweep_work:
            argv = ("explore", "-g", g6, "--format", "graph6", "--json")
            level6.append(Item(f"explore:{g6}", argv, n, edges, work))
    return sweep, level6


def _grid_item(command: str, rows: int, cols: int, root: int) -> Item:
    n, edges = grid(rows, cols)
    argv = (command, "-g", _edge_text(edges), "--tree", f"bfs:{root}", "--json")
    label = f"{command}:grid{rows}x{cols}:bfs{root}"
    return Item(label, argv, n, edges, 1 << (len(edges) - n + 1))


def _petersen_items(index: int, tree) -> list[Item]:
    n, edges = petersen()
    spec = "edges:" + ",".join(f"{u}-{v}" for u, v in tree)
    work = 1 << (len(edges) - n + 1)
    return [
        Item(f"{cmd}:petersen:T{index}", (cmd, "-g", _edge_text(edges), "--tree", spec, "--json"), n, edges, work)
        for cmd in ("classify", "audit-family")
    ]


def _family_grid_items() -> list[Item]:
    return [_grid_item(cmd, *FAMILY_GRID, 0) for cmd in ("classify", "audit-family")]


def universe(workload: str) -> list[Item]:
    """Every item that some seed can put into the workload."""
    if workload == "explore":
        sweep, level6 = _explore_universe()
        return [sweep, *level6]
    if workload == "greedy":
        out = [
            _grid_item("find-orientation", r, c, root)
            for r, c in GREEDY_GRIDS
            for root in range(r * c)
        ]
        return out + [_grid_item("verify-expectation", *EXPECTATION_GRID, 0)]
    if workload == "family":
        n, edges = petersen()
        out = []
        for index, tree in enumerate(spanning_trees(n, edges)):
            out.extend(_petersen_items(index, tree))
        return out + _family_grid_items()
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> list[Item]:
    """The items of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "explore":
        sweep, level6 = _explore_universe()
        items, left = [sweep], EXPLORE_BUDGET
        for item in rng.sample(level6, len(level6)):
            if item.work <= left:
                items.append(item)
                left -= item.work
        return items
    if workload == "greedy":
        items = [
            _grid_item("find-orientation", r, c, rng.randrange(r * c)) for r, c in GREEDY_GRIDS
        ]
        return items + [_grid_item("verify-expectation", *EXPECTATION_GRID, 0)]
    if workload == "family":
        n, edges = petersen()
        trees = spanning_trees(n, edges)
        items = []
        for index in sorted(rng.sample(range(len(trees)), PETERSEN_TREES_PER_PASS)):
            items.extend(_petersen_items(index, trees[index]))
        return items + _family_grid_items()
    raise ValueError(f"unknown workload {workload!r}")
