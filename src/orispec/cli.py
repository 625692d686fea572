"""Command line front end.

Exit codes: 0 success, 1 usage or input error, 2 mathematical defect (a
result that contradicts a proved statement, e.g. a greedy descent ending
above the matching bound or an expectation mismatch).

JSON output is versioned with "schema": "orispec/1" and always carries
exact data (integer coefficients, interval endpoints as strings) next to
any decimal approximation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .errors import ComputationDefect, OrispecError, ParseError
from .explore import explore_records, generate_corpus
from .graphs import (
    Edge,
    Graph,
    MixedGraph,
    SpanningTree,
    bfs_spanning_tree,
    cotree_edges,
    enumerate_spanning_trees,
    parse_edge_list,
    parse_graph6,
    parse_mixed,
    tree_from_edges,
)
from .hermitian import GainTable, charpoly_of_mixed, eigenvalues_numeric, hermitian_adjacency
from .matching import matching_counts, matching_polynomial, matching_radius
from .orientation import audit_interlacing_family, expected_charpoly, greedy_orientation
from .polynomials import IntPoly
from .switching import (
    classify_partial_orientations,
    equiv_to_oriented,
    equiv_to_unoriented,
    switching_equivalent,
)

SCHEMA = "orispec/1"


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; code 2 is reserved for mathematical defects
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _f(x: float) -> str:
    return f"{float(x):.4f}"


def _edge_str(e: Edge) -> str:
    return f"{e[0]}-{e[1]}"


def _signs_str(signs: Sequence[int]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _emit(data: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **data}, indent=2))


def _emit_line(data: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **data}, separators=(",", ":")))


def _poly_json(p: IntPoly) -> dict:
    return {"coeffs": p.to_json(), "text": str(p)}


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _load_source(spec: str) -> str:
    """Inline graph text, with ';' doubling as a line break, or @path."""
    if spec.startswith("@"):
        if not spec[1:]:
            raise ParseError("a file path must follow '@' (as in -g @graph.txt)")
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return spec.replace(";", "\n")


def read_mixed(spec: str, fmt: str) -> MixedGraph:
    text = _load_source(spec)
    if fmt == "edgelist":
        return MixedGraph.undirected(parse_edge_list(text))
    if fmt == "graph6":
        return MixedGraph.undirected(parse_graph6(text))
    if fmt == "mixed":
        return parse_mixed(text)
    raise ParseError(f"unknown format {fmt!r}")


def resolve_trees(spec: str, g: Graph, guard: bool) -> list[SpanningTree]:
    """Tree spec: 'bfs:<root>', 'edges:u-v,u-v,...', or 'all'."""
    g.require_connected()
    if spec == "all":
        return enumerate_spanning_trees(g, guard=guard)
    if spec.startswith("bfs:"):
        try:
            root = int(spec[4:])
        except ValueError:
            raise ParseError(f"bad tree root in {spec!r}") from None
        return [bfs_spanning_tree(g, root)]
    if spec.startswith("edges:"):
        pairs = []
        for part in spec[len("edges:"):].split(","):
            bits = part.split("-")
            if len(bits) != 2:
                raise ParseError(f"bad tree edge {part!r} (expected u-v)")
            try:
                pairs.append((int(bits[0]), int(bits[1])))
            except ValueError:
                raise ParseError(f"bad tree edge {part!r} (expected u-v)") from None
        return [tree_from_edges(g, pairs)]
    raise ParseError(f"unknown tree spec {spec!r} (use bfs:<root>, edges:..., or all)")


def _tree_json(t: SpanningTree) -> list[list[int]]:
    return sorted([u, v] for (u, v) in t.tree_edges)


def _tree_line(t: SpanningTree) -> str:
    return "tree: " + " ".join(_edge_str(e) for e in sorted(t.tree_edges))


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edge_list]}


def _mixed_json(d: MixedGraph) -> dict:
    return {
        "n": d.graph.n,
        "edges": [list(e) for e in d.graph.edge_list],
        "arcs": [list(a) for a in d.arcs()],
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_matching(args: argparse.Namespace) -> int:
    g = read_mixed(args.graph, args.format).graph
    profile = matching_counts(g)
    mu = matching_polynomial(g)
    rho = matching_radius(g)
    if args.json:
        _emit(
            {
                "command": "matching",
                "graph": _graph_json(g),
                "counts": list(profile.counts),
                "mu": _poly_json(mu),
                "rho": rho.to_json(),
            }
        )
    else:
        print(f"mu(x) = {mu}")
        print("matching counts: " + " ".join(str(c) for c in profile.counts))
        print(f"rho(mu) ~= {_f(rho.approx())}")
    return 0


def cmd_charpoly(args: argparse.Namespace) -> int:
    d = read_mixed(args.graph, args.format)
    phi = charpoly_of_mixed(d)
    if args.json:
        _emit({"command": "charpoly", "graph": _mixed_json(d), "phi": _poly_json(phi)})
    else:
        print(f"phi(x) = {phi}")
    return 0


def cmd_eigen(args: argparse.Namespace) -> int:
    d = read_mixed(args.graph, args.format)
    h = hermitian_adjacency(d)
    phi = charpoly_of_mixed(d)
    values = eigenvalues_numeric(h, eps=args.eps)
    if args.json:
        _emit(
            {
                "command": "eigen",
                "graph": _mixed_json(d),
                "eps": args.eps,
                "phi": _poly_json(phi),
                "eigenvalues": values,
            }
        )
    else:
        print(f"phi(x) = {phi}")
        print("eigenvalues ~= " + ", ".join(_f(v) for v in values))
    return 0


def cmd_find_orientation(args: argparse.Namespace) -> int:
    g = read_mixed(args.graph, args.format).graph
    guard = not args.unsafe_no_guards
    results = []
    for t in resolve_trees(args.tree, g, guard):
        cert = greedy_orientation(g, t, guard=guard)
        results.append((t, cert))
    if args.json:
        _emit(
            {
                "command": "find-orientation",
                "graph": _graph_json(g),
                "results": [
                    {"tree": _tree_json(t), "certificate": cert.to_json()}
                    for t, cert in results
                ],
            }
        )
        return 0
    for idx, (t, cert) in enumerate(results):
        if idx:
            print()
        print(_tree_line(t))
        for lv in cert.levels:
            picked = "+1" if lv.sign > 0 else "-1"
            print(
                f"  edge {_edge_str(lv.edge)} -> {picked}"
                f"  (top with +1 ~= {_f(lv.plus_largest.approx())},"
                f" with -1 ~= {_f(lv.minus_largest.approx())})"
            )
        signs = " ".join(
            f"{_edge_str(e)}:{'+1' if s > 0 else '-1'}"
            for e, s in zip(cert.signs.edges, cert.signs.signs)
        )
        print(f"signs: {signs if signs else '(none, tree graph)'}")
        print(f"phi(x) = {cert.final_charpoly}")
        print(f"lambda_max ~= {_f(cert.largest_eigenvalue.approx())}")
        print(f"rho(mu) ~= {_f(cert.matching_bound.approx())}")
        print(f"verdict: {cert.verdict}")
    return 0


def cmd_verify_expectation(args: argparse.Namespace) -> int:
    g = read_mixed(args.graph, args.format).graph
    guard = not args.unsafe_no_guards
    mu = matching_polynomial(g)
    results = []
    for t in resolve_trees(args.tree, g, guard):
        expected = expected_charpoly(g, t, guard=guard)
        results.append((t, expected, expected == mu))
    ok = all(r[2] for r in results)
    if args.json:
        _emit(
            {
                "command": "verify-expectation",
                "graph": _graph_json(g),
                "mu": _poly_json(mu),
                "results": [
                    {"tree": _tree_json(t), "expected": _poly_json(e), "pass": p}
                    for t, e, p in results
                ],
                "pass": ok,
            }
        )
    else:
        for idx, (t, expected, p) in enumerate(results):
            if idx:
                print()
            print(_tree_line(t))
            print(f"expected charpoly: {expected}")
            print(f"matching polynomial: {mu}")
            print("PASS" if p else "FAIL")
    return 0 if ok else 2


def cmd_audit_family(args: argparse.Namespace) -> int:
    g = read_mixed(args.graph, args.format).graph
    guard = not args.unsafe_no_guards
    results = [
        (t, audit_interlacing_family(g, t, guard=guard))
        for t in resolve_trees(args.tree, g, guard)
    ]
    ok = all(r.passed for _, r in results)
    if args.json:
        _emit(
            {
                "command": "audit-family",
                "graph": _graph_json(g),
                "results": [
                    {"tree": _tree_json(t), **r.to_json()} for t, r in results
                ],
                "pass": ok,
            }
        )
    else:
        for idx, (t, report) in enumerate(results):
            if idx:
                print()
            print(_tree_line(t))
            if report.passed:
                print(f"audited {report.nodes_checked} nodes: PASS")
            else:
                print(f"audited {report.nodes_checked} nodes: FAIL")
                for v in report.violations:
                    print(f"  {v}")
    return 0 if ok else 2


def cmd_switching(args: argparse.Namespace) -> int:
    d1 = read_mixed(args.graph, args.format)
    d2 = read_mixed(args.other, args.format)
    cert = switching_equivalent(d1, d2)
    if args.json:
        _emit(
            {
                "command": "switching",
                "graph": _mixed_json(d1),
                "other": _mixed_json(d2),
                "equivalent": cert is not None,
                "certificate": None if cert is None else cert.to_json(),
            }
        )
    else:
        if cert is None:
            print("equivalent: no")
        else:
            print("equivalent: yes")
            print(f"converse: {'yes' if cert.used_converse else 'no'}")
            print("phases: " + " ".join(str(p) for p in cert.map.phases))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    g = read_mixed(args.graph, args.format).graph
    guard = not args.unsafe_no_guards
    results = []
    for t in resolve_trees(args.tree, g, guard):
        classes = classify_partial_orientations(g, t, guard=guard)
        # class i is the converse pair of the i-th converse half
        co = cotree_edges(g, t)
        table = GainTable(g.n, t.tree_edges, co)
        polys = [IntPoly(table.unpack(p)) for p in table.sweep((), co, half=True)]
        results.append((t, list(zip(classes, polys))))
    if args.json:
        _emit(
            {
                "command": "classify",
                "graph": _graph_json(g),
                "results": [
                    {
                        "tree": _tree_json(t),
                        "cotree": [list(e) for e in cotree_edges(g, t)],
                        "classes": [
                            {
                                "size": len(members),
                                "members": [list(sv.signs) for sv in members],
                                "charpoly": _poly_json(phi),
                            }
                            for members, phi in rows
                        ],
                    }
                    for t, rows in results
                ],
            }
        )
        return 0
    for idx, (t, rows) in enumerate(results):
        if idx:
            print()
        print(_tree_line(t))
        co = cotree_edges(g, t)
        print("cotree: " + (" ".join(_edge_str(e) for e in co) if co else "(empty)"))
        total = sum(len(members) for members, _ in rows)
        print(f"{total} orientations in {len(rows)} classes")
        for ci, (members, phi) in enumerate(rows, start=1):
            labels = ", ".join(_signs_str(sv.signs) for sv in members)
            print(f"class {ci} (size {len(members)}): phi(x) = {phi}; members: {labels}")
    return 0


def cmd_lemma4(args: argparse.Namespace) -> int:
    g = read_mixed(args.graph, args.format).graph
    guard = not args.unsafe_no_guards
    results = []
    for t in resolve_trees(args.tree, g, guard):
        results.append((t, equiv_to_unoriented(g, t), equiv_to_oriented(g, t)))
    if args.json:
        _emit(
            {
                "command": "lemma4",
                "graph": _graph_json(g),
                "results": [
                    {
                        "tree": _tree_json(t),
                        "equiv_to_unoriented": u,
                        "equiv_to_oriented": o,
                    }
                    for t, u, o in results
                ],
            }
        )
    else:
        for idx, (t, u, o) in enumerate(results):
            if idx:
                print()
            print(_tree_line(t))
            print(f"equivalent to unoriented: {'yes' if u else 'no'}")
            print(f"equivalent to oriented: {'yes' if o else 'no'}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    guard = not args.unsafe_no_guards
    if args.graph is not None:
        graphs = [read_mixed(args.graph, args.format).graph]
    elif args.max_n is not None:
        graphs = generate_corpus(args.max_n, guard=guard)
    else:
        raise ParseError("explore needs --graph or --max-n")
    defects = 0
    inconsistent = 0
    for record in explore_records(graphs, guard=guard):
        if args.json:
            _emit_line(record)
        else:
            gm = "ok" if not record["guo_mohar"]["violations"] else "VIOLATION"
            line = (
                f"n={record['n']} graph6={record['graph6']}"
                f" min_complete~={_f(record['min_complete']['rho']['approx'])}"
                f" min_partial~={_f(record['min_partial']['rho']['approx'])}"
                f" complete_vs_partial={record['complete_vs_partial']}"
                f" consistent={'yes' if record['consistent'] else 'NO'}"
                f" guo_mohar={gm}"
            )
            print(line)
        if not record["consistent"]:
            inconsistent += 1
            print(
                f"CONJECTURE VIOLATION: graph6={record['graph6']} "
                f"complete_vs_partial={record['complete_vs_partial']}",
                file=sys.stderr,
            )
        if record["guo_mohar"]["violations"]:
            defects += 1
    if defects:
        print(f"defect: {defects} graph(s) violate rho(mixed) <= rho(G)", file=sys.stderr)
        return 2
    if inconsistent:
        # a counterexample to the conjecture is a finding, not an error
        print(f"note: {inconsistent} graph(s) inconsistent with the conjecture", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orispec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--unsafe-no-guards",
        action="store_true",
        help="disable cost guards (searches may become astronomically slow)",
    )

    graph_help = "inline graph text (';' separates lines) or @file"
    format_opt = _Parser(add_help=False)
    format_opt.add_argument(
        "--format",
        choices=("edgelist", "graph6", "mixed"),
        default="edgelist",
        help="input format (default edgelist)",
    )
    graph_opt = _Parser(add_help=False, parents=[format_opt])
    graph_opt.add_argument("-g", "--graph", help=graph_help)

    tree_opt = _Parser(add_help=False)
    tree_opt.add_argument(
        "--tree",
        default="bfs:0",
        help="spanning tree: bfs:<root>, edges:u-v,u-v,..., or all (default bfs:0)",
    )

    def add(name: str, func, parents: list, help_text: str, needs_graph: bool = True):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func, needs_graph=needs_graph)
        return p

    add("matching", cmd_matching, [common, graph_opt], "matching polynomial, counts, rho")
    add("charpoly", cmd_charpoly, [common, graph_opt], "exact charpoly of a mixed graph")
    eigen = add("eigen", cmd_eigen, [common, graph_opt], "numeric eigenvalues")
    eigen.add_argument("--eps", type=float, default=1e-9, help="target accuracy (default 1e-9)")
    add(
        "find-orientation",
        cmd_find_orientation,
        [common, graph_opt, tree_opt],
        "greedy partial orientation with certified bound",
    )
    add(
        "verify-expectation",
        cmd_verify_expectation,
        [common, graph_opt, tree_opt],
        "check average charpoly over orientations equals the matching polynomial",
    )
    add(
        "audit-family",
        cmd_audit_family,
        [common, graph_opt, tree_opt],
        "exhaustive interlacing audit of the sign-assignment tree",
    )
    switching = add(
        "switching",
        cmd_switching,
        [common, graph_opt],
        "switching-equivalence certificate for two mixed graphs",
    )
    switching.add_argument("--other", required=True, help="second graph (same format)")
    add(
        "classify",
        cmd_classify,
        [common, graph_opt, tree_opt],
        "switching classes of all partial orientations",
    )
    add(
        "lemma4",
        cmd_lemma4,
        [common, graph_opt, tree_opt],
        "equivalence to unoriented / fully oriented graphs",
    )
    explore = add(
        "explore",
        cmd_explore,
        [common, format_opt],
        "minimum-rho tiers and exact bound checks over a corpus",
        needs_graph=False,
    )
    source = explore.add_mutually_exclusive_group()
    source.add_argument("-g", "--graph", help=graph_help)
    source.add_argument("--max-n", type=int, help="sweep all connected graphs up to this order")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()` once per process, on the first `main` call rather
    than at import, so that a wrapper installed over a cmd_* function after
    import is the one the parser binds.  No argument has a mutable default,
    so one parser serves every call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.needs_graph and args.graph is None:
        print("error: a graph is required (use -g/--graph)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ComputationDefect as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 2
    except (OrispecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
