"""Command line front end.

Exit codes: 0 success, 1 usage or input error, 2 mathematical defect (a
result that contradicts a proved statement, e.g. a greedy descent ending
above the matching bound or an expectation mismatch).

The per-tree commands (find-orientation, verify-expectation, audit-family,
classify, lemma4) finish every tree of --tree before printing, so a tree
that is refused leaves stdout empty.  Their JSON holds "command", "graph",
the command's own head fields, "results" (one object per tree, "tree"
first) and, for the two with a verdict (verify-expectation, audit-family),
"pass"; those two exit 2 when the verdict fails on any tree.  Their text
prints each tree line and its body, with one blank line between trees.

JSON output is versioned with "schema": "orispec/1" and always carries
exact data (integer coefficients, interval endpoints as strings) next to
any decimal approximation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable, NamedTuple, Sequence

from .errors import ComputationDefect, OrispecError, ParseError
from .explore import explore_records, generate_corpus
from .graphs import (
    Edge,
    Graph,
    MixedGraph,
    SpanningTree,
    _spanning_trees,
    bfs_spanning_tree,
    parse_edge_list,
    parse_graph6,
    parse_mixed,
    tree_from_edges,
)
from .hermitian import charpoly_of_mixed, converse_half_charpolys
from .matching import matching_counts, matching_polynomial, matching_radius
from .orientation import AuditReport, audit_interlacing_family, expected_charpoly, greedy_orientation
from .polynomials import IntPoly, roots_numeric
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


def _load_source(spec: str | None) -> str:
    """Inline graph text, with ';' doubling as a line break, or @path."""
    if spec is None:
        raise ParseError("a graph is required (use -g/--graph)")
    if spec.startswith("@"):
        if not spec[1:]:
            raise ParseError("a file path must follow '@' (as in -g @graph.txt)")
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return spec.replace(";", "\n")


def read_mixed(spec: str | None, fmt: str) -> MixedGraph:
    text = _load_source(spec)
    if fmt == "edgelist":
        return MixedGraph.undirected(parse_edge_list(text))
    if fmt == "graph6":
        return MixedGraph.undirected(parse_graph6(text))
    if fmt == "mixed":
        return parse_mixed(text)
    raise ParseError(f"unknown format {fmt!r}")


def resolve_trees(spec: str, g: Graph, guard: bool) -> Iterable[SpanningTree]:
    """Tree spec: 'bfs:<root>', 'edges:u-v,u-v,...', or 'all'.  'all' builds
    each tree when it is asked for, so a per-tree guard refuses at the first."""
    g.require_connected()
    if spec == "all":
        return _spanning_trees(g, guard)
    if spec.startswith("bfs:"):
        try:
            root = int(spec[4:])
        except ValueError:
            raise ParseError(f"bad tree root in {spec!r}") from None
        return [bfs_spanning_tree(g, root)]
    if spec.startswith("edges:"):
        pairs = []
        for part in spec[len("edges:"):].split(","):
            try:
                u, v = map(int, part.split("-"))
            except ValueError:
                raise ParseError(f"bad tree edge {part!r} (expected u-v)") from None
            pairs.append((u, v))
        return [tree_from_edges(g, pairs)]
    raise ParseError(f"unknown tree spec {spec!r} (use bfs:<root>, edges:..., or all)")


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edge_list]}


def _mixed_json(d: MixedGraph) -> dict:
    return {**_graph_json(d.graph), "arcs": [list(a) for a in d.arcs()]}


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
    phi = charpoly_of_mixed(d)
    values = roots_numeric(phi, args.eps)
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


def _per_tree(args, command: str, solve, as_json, as_text, finish=None, head=None, verdict=False):
    """Run a per-tree command and print its envelope (see the module doc).

    `solve(g, t, guard)` makes the library calls on one tree; `finish(g,
    results)` maps the results once every tree, and so every guard, is done.
    `as_json(result)` gives a tree's fields after "tree", `head(results)` the
    command's fields before "results", and `as_text(result)` the lines under
    a tree line.  Only the format asked for is rendered.  A `verdict`
    command's results have `passed`.
    """
    g = read_mixed(args.graph, args.format).graph
    guard = not args.unsafe_no_guards
    trees, results = zip(*[(t, solve(g, t, guard)) for t in resolve_trees(args.tree, g, guard)])
    if finish is not None:
        results = finish(g, results)
    ok = not verdict or all(r.passed for r in results)
    if args.json:
        data = {"command": command, "graph": _graph_json(g), **(head(results) if head else {})}
        data["results"] = [
            {"tree": sorted([u, v] for (u, v) in t.tree_edges), **as_json(r)}
            for t, r in zip(trees, results)
        ]
        if verdict:
            data["pass"] = ok
        _emit(data)
    else:
        blocks = []
        for t, r in zip(trees, results):
            tree = "tree: " + " ".join(_edge_str(e) for e in sorted(t.tree_edges))
            blocks.append("\n".join([tree, *as_text(r)]))
        print("\n\n".join(blocks))
    return 0 if ok else 2


def cmd_find_orientation(args: argparse.Namespace) -> int:
    def as_json(cert):
        return {"certificate": cert.to_json()}

    def as_text(cert):
        for lv in cert.levels:
            yield (
                f"  edge {_edge_str(lv.edge)} -> {'+1' if lv.sign > 0 else '-1'}"
                f"  (top with +1 ~= {_f(lv.plus_largest.approx())},"
                f" with -1 ~= {_f(lv.minus_largest.approx())})"
            )
        signs = " ".join(
            f"{_edge_str(e)}:{'+1' if s > 0 else '-1'}"
            for e, s in zip(cert.signs.edges, cert.signs.signs)
        )
        yield f"signs: {signs if signs else '(none, tree graph)'}"
        yield f"phi(x) = {cert.final_charpoly}"
        yield f"lambda_max ~= {_f(cert.largest_eigenvalue.approx())}"
        yield f"rho(mu) ~= {_f(cert.matching_bound.approx())}"
        yield f"verdict: {cert.verdict}"

    return _per_tree(args, "find-orientation", greedy_orientation, as_json, as_text)


class _Expectation(NamedTuple):
    expected: IntPoly
    mu: IntPoly
    passed: bool


def cmd_verify_expectation(args: argparse.Namespace) -> int:
    def finish(g, expected):
        # mu_G only after every tree's guard: its vertex-subset recursion is
        # exponential on dense graphs
        mu = matching_polynomial(g)
        return [_Expectation(e, mu, e == mu) for e in expected]

    def head(results):
        return {"mu": _poly_json(results[0].mu)}

    def as_json(r):
        return {"expected": _poly_json(r.expected), "pass": r.passed}

    def as_text(r):
        return [
            f"expected charpoly: {r.expected}",
            f"matching polynomial: {r.mu}",
            "PASS" if r.passed else "FAIL",
        ]

    return _per_tree(
        args, "verify-expectation", expected_charpoly, as_json, as_text, finish, head, verdict=True
    )


def cmd_audit_family(args: argparse.Namespace) -> int:
    def as_text(report):
        yield f"audited {report.nodes_checked} nodes: {'PASS' if report.passed else 'FAIL'}"
        for v in report.violations:
            yield f"  {v}"

    return _per_tree(
        args, "audit-family", audit_interlacing_family, AuditReport.to_json, as_text, verdict=True
    )


def cmd_classify(args: argparse.Namespace) -> int:
    def solve(g, t, guard):
        classes = classify_partial_orientations(g, t, guard=guard)
        # every member's edges are the cotree, and there is always a class
        return classes[0][0].edges, list(zip(classes, converse_half_charpolys(g, t)))

    def as_json(result):
        cotree, rows = result
        return {
            "cotree": [list(e) for e in cotree],
            "classes": [
                {
                    "size": len(members),
                    "members": [list(sv.signs) for sv in members],
                    "charpoly": _poly_json(phi),
                }
                for members, phi in rows
            ],
        }

    def as_text(result):
        cotree, rows = result
        yield "cotree: " + (" ".join(_edge_str(e) for e in cotree) if cotree else "(empty)")
        yield f"{sum(len(members) for members, _ in rows)} orientations in {len(rows)} classes"
        for ci, (members, phi) in enumerate(rows, start=1):
            labels = ", ".join(_signs_str(sv.signs) for sv in members)
            yield f"class {ci} (size {len(members)}): phi(x) = {phi}; members: {labels}"

    return _per_tree(args, "classify", solve, as_json, as_text)


def cmd_lemma4(args: argparse.Namespace) -> int:
    def solve(g, t, guard):
        return {
            "equiv_to_unoriented": equiv_to_unoriented(g, t),
            "equiv_to_oriented": equiv_to_oriented(g, t),
        }

    def as_text(r):
        return [
            f"equivalent to unoriented: {'yes' if r['equiv_to_unoriented'] else 'no'}",
            f"equivalent to oriented: {'yes' if r['equiv_to_oriented'] else 'no'}",
        ]

    return _per_tree(args, "lemma4", solve, dict, as_text)


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

    json_opt = _Parser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="machine-readable output")
    guard_opt = _Parser(add_help=False)
    guard_opt.add_argument(
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
    one_graph = [json_opt, graph_opt]
    per_tree = [json_opt, guard_opt, graph_opt, tree_opt]

    def add(name: str, func, parents: list, help_text: str):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func)
        return p

    add("matching", cmd_matching, one_graph, "matching polynomial, counts, rho")
    add("charpoly", cmd_charpoly, one_graph, "exact charpoly of a mixed graph")
    eigen = add("eigen", cmd_eigen, one_graph, "numeric eigenvalues")
    eigen.add_argument("--eps", type=float, default=1e-9, help="target accuracy (default 1e-9)")
    add(
        "find-orientation",
        cmd_find_orientation,
        per_tree,
        "greedy partial orientation with certified bound",
    )
    add(
        "verify-expectation",
        cmd_verify_expectation,
        per_tree,
        "check average charpoly over orientations equals the matching polynomial",
    )
    add(
        "audit-family",
        cmd_audit_family,
        per_tree,
        "exhaustive interlacing audit of the sign-assignment tree",
    )
    switching = add(
        "switching",
        cmd_switching,
        one_graph,
        "switching-equivalence certificate for two mixed graphs",
    )
    switching.add_argument("--other", required=True, help="second graph (same format)")
    add("classify", cmd_classify, per_tree, "switching classes of all partial orientations")
    add("lemma4", cmd_lemma4, per_tree, "equivalence to unoriented / fully oriented graphs")
    explore = add(
        "explore",
        cmd_explore,
        [json_opt, guard_opt, format_opt],
        "minimum-rho tiers and exact bound checks over a corpus",
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
