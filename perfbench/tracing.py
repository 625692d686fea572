"""Per-layer tracing of orispec from outside the package.

`Tracer.install()` replaces each public function listed in TARGETS by a
wrapper, in every orispec namespace that holds it (the defining module, the
modules that import it by name, and the package root), and replaces the two
`AlgebraicRoot` methods on the class.  Each wrapper counts calls and self
time: its duration minus the time of the wrapped calls made inside it.  A
recursive call is folded into its outermost call.  Leaf calls only update
counters; spans are kept for items, CLI commands and the library calls a
command makes directly, and returned by `report()` when the pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, layer metric prefix).  Besides the layer functions this
# lists every library function the traced CLI commands call directly, so that
# a command's self time is only its own work: argument parsing, tree specs,
# JSON rendering and to_json apart from AlgebraicRoot.refine.
TARGETS = (
    ("kernel", "charpoly_flat", "kernel.charpoly_flat"),
    ("kernel", "sum_orientations_flat", "kernel.sum_orientations_flat"),
    ("polynomials", "sturm_chain", "polynomials.sturm_chain"),
    ("polynomials", "squarefree_part", "polynomials.squarefree_part"),
    ("polynomials", "isolate_largest_root", "polynomials.isolate_largest_root"),
    ("polynomials", "isolate_real_roots", "polynomials.isolate_real_roots"),
    ("polynomials", "AlgebraicRoot.compare", "polynomials.compare"),
    ("polynomials", "AlgebraicRoot.refine", "polynomials.refine"),
    ("hermitian", "charpoly_of_mixed", "hermitian.charpoly_of_mixed"),
    ("hermitian", "spectral_radius_of_charpoly", "hermitian.spectral_radius_of_charpoly"),
    ("matching", "matching_counts", "matching.matching_counts"),
    ("matching", "matching_radius", "matching.matching_radius"),
    ("matching", "matching_polynomial", "matching.matching_polynomial"),
    ("orientation", "conditional_sum_charpoly", "orientation.conditional_sum_charpoly"),
    ("orientation", "conditional_sum_fast", "orientation.conditional_sum_fast"),
    ("orientation", "greedy_orientation", "orientation.greedy_orientation"),
    ("orientation", "audit_interlacing_family", "orientation.audit_interlacing_family"),
    ("orientation", "expected_charpoly", "orientation.expected_charpoly"),
    ("explore", "canonical_form", "explore.canonical_form"),
    ("explore", "min_rho_complete", "explore.min_rho_complete"),
    ("explore", "min_rho_partial", "explore.min_rho_partial"),
    ("explore", "min_rho_all_mixed", "explore.min_rho_all_mixed"),
    ("explore", "guo_mohar_sweep", "explore.guo_mohar_sweep"),
    ("explore", "generate_corpus", "explore.generate_corpus"),
    ("explore", "explore_record", "explore.explore_record"),
    ("switching", "switching_equivalent", "switching.switching_equivalent"),
    ("switching", "classify_partial_orientations", "switching.classify_partial_orientations"),
    ("graphs", "enumerate_spanning_trees", "graphs.enumerate_spanning_trees"),
    ("graphs", "bfs_spanning_tree", "graphs.bfs_spanning_tree"),
    ("graphs", "build_mixed", "graphs.build_mixed"),
    ("graphs", "parse_edge_list", "graphs.parse_edge_list"),
    ("graphs", "parse_graph6", "graphs.parse_graph6"),
    ("graphs", "tree_from_edges", "graphs.tree_from_edges"),
    ("graphs", "cotree_edges", "graphs.cotree_edges"),
    ("cli", "cmd_explore", "cli.explore"),
    ("cli", "cmd_find_orientation", "cli.find-orientation"),
    ("cli", "cmd_verify_expectation", "cli.verify-expectation"),
    ("cli", "cmd_classify", "cli.classify"),
    ("cli", "cmd_audit_family", "cli.audit-family"),
)

# calls inside these count distinct charpolys against kernel charpolys
DEDUP_SEARCHES = ("explore.min_rho_complete", "explore.min_rho_partial")

# spans are kept down to this stack depth: 0 is the item, 1 the CLI command,
# 2 the library calls the command makes itself
SPAN_DEPTH = 2


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.item = -1  # index of the item being run, shared by its spans
        self._active: dict[str, int] = defaultdict(int)
        # one [time in wrapped children, span index or None] per open call
        self._stack: list[list] = []
        self._dedup: list | None = None  # [distinct charpolys, kernel charpolys]

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "orispec"]
        for module_name, attr, key in TARGETS:
            module = importlib.import_module(f"orispec.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(key, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(key, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def wrap(self, key: str, fn):
        clock = time.perf_counter
        stack = self._stack
        active = self._active
        calls = self.calls
        self_s = self.self_s
        observe = self._observer(key)

        def wrapper(*args, **kwargs):
            if active[key]:
                return fn(*args, **kwargs)
            depth = len(stack)
            frame = [0.0, len(self.spans) if depth <= SPAN_DEPTH else None]
            if frame[1] is not None:
                cause = stack[-1][1] if stack else None
                self.spans.append({"name": key, "item": self.item, "cause": cause})
            active[key] = 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[key] = 0
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] is not None:
                    self.spans[frame[1]].update(start=start, end=end)
            name = observe(args, kwargs, result) if observe else key
            calls[name] += 1
            self_s[name] += elapsed - frame[0]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        if key in DEDUP_SEARCHES:
            return self._dedup_wrapper(key, wrapper)
        return wrapper

    # -- derived counters --------------------------------------------------------

    def _observer(self, key: str):
        counters = self.counters
        if key == "kernel.charpoly_flat":
            names = {}

            def per_order(args, kwargs, result):
                if self._dedup is not None:
                    self._dedup[0].add(tuple(result))
                    self._dedup[1] += 1
                n = args[2] if len(args) > 2 else kwargs["n"]
                name = names.get(n)
                if name is None:
                    name = names[n] = f"{key}.n{n}"
                return name

            return per_order
        if key == "kernel.sum_orientations_flat":

            def charpolys(args, kwargs, result):
                tails = args[3] if len(args) > 3 else kwargs["tails"]
                counters[f"{key}.charpolys"] += 1 << len(tails)
                return key

            return charpolys
        if key == "switching.switching_equivalent":

            def hits(args, kwargs, result):
                counters[f"{key}.hits"] += result is not None
                return key

            return hits
        if key == "graphs.enumerate_spanning_trees":

            def trees(args, kwargs, result):
                counters[f"{key}.trees"] += len(result)
                return key

            return trees
        return None

    def _dedup_wrapper(self, key: str, inner):
        def wrapper(*args, **kwargs):
            outer, self._dedup = self._dedup, [set(), 0]
            try:
                return inner(*args, **kwargs)
            finally:
                distinct, total = self._dedup
                self._dedup = outer
                self.counters[f"{key}.distinct"] += len(distinct)
                self.counters[f"{key}.charpolys"] += total

        wrapper.__wrapped__ = inner.__wrapped__
        wrapper.__name__ = inner.__name__
        return wrapper

    # -- output ------------------------------------------------------------------

    def begin_item(self, index: int) -> None:
        """Open the span of one item; the command's span names it as cause."""
        self.item = index
        self.spans.append({"name": "item", "item": index, "cause": None, "start": time.perf_counter()})
        self._stack.append([0.0, len(self.spans) - 1])

    def end_item(self) -> None:
        _, span = self._stack.pop()
        self.spans[span]["end"] = time.perf_counter()

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": self.spans,
        }
