"""Correctness checks on the output of one item.

Every item's stdout must hash to the reference digest recorded for it, and
must pass semantic checks that use only the benchmark's own knowledge of the
input and numpy: nothing here imports orispec.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Item

REFERENCE_FILE = Path(__file__).with_name("reference.txt")

# numpy eigenvalues against exact answers printed to 2^-20
EIG_TOL = 1e-5


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict[str, str]:
    refs = {}
    for line in REFERENCE_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            label, sha = line.split()
            refs[label] = sha
    return refs


def hermitian(n: int, undirected, arcs) -> np.ndarray:
    """Hermitian adjacency: 1 on undirected edges, i from tail to head."""
    h = np.zeros((n, n), dtype=complex)
    for u, v in undirected:
        h[u, v] = h[v, u] = 1
    for (u, v), s in arcs:
        h[u, v] = 1j * s
        h[v, u] = -1j * s
    return h


def _check_explore(item: Item, out: str) -> list[str]:
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    expected = 1 if item.edges else 31  # the n <= 5 corpus has 31 graphs
    problems = [] if len(records) == expected else [f"{len(records)} records, expected {expected}"]
    for rec in records:
        tag = rec.get("graph6")
        if rec["guo_mohar"]["violations"]:
            problems.append(f"{tag}: rho(mixed) <= rho(G) violated")
        n, edges = rec["n"], [tuple(e) for e in rec["edges"]]
        if item.edges and (n, tuple(edges)) != (item.n, item.edges):
            problems.append(f"{tag}: record is not the input graph")
        # each reported minimum is attained by its own witness
        complete = rec["min_complete"]
        h = hermitian(n, (), zip(map(tuple, complete["edges"]), complete["signs"]))
        partial = rec["min_partial"]
        h2 = hermitian(n, map(tuple, partial["tree"]), zip(map(tuple, partial["cotree"]), partial["signs"]))
        for name, mat, rho in (("complete", h, complete["rho"]), ("partial", h2, partial["rho"])):
            radius = max(abs(np.linalg.eigvalsh(mat)))
            if abs(radius - rho["approx"]) > EIG_TOL:
                problems.append(f"{tag}: min_{name} witness has rho {radius}, reported {rho['approx']}")
    return problems


def _check_find_orientation(item: Item, out: str) -> list[str]:
    problems = []
    for res in json.loads(out)["results"]:
        cert = res["certificate"]
        tree = {tuple(e) for e in res["tree"]}
        cotree = [tuple(e) for e in cert["edges"]]
        if len(tree) != item.n - 1 or tree | set(cotree) != set(item.edges):
            problems.append("tree and cotree do not partition the edges")
            continue
        if cert["verdict"] not in ("LT", "EQ"):
            problems.append(f"verdict {cert['verdict']}")
        lam = max(np.linalg.eigvalsh(hermitian(item.n, tree, zip(cotree, cert["signs"]))))
        bound_hi = float(Fraction(cert["matching_bound"]["interval"][1]))
        if lam > bound_hi + 1e-9:
            problems.append(f"lambda_max {lam} above the matching bound {bound_hi}")
        if abs(lam - cert["lambda_max"]["approx"]) > EIG_TOL:
            problems.append(f"lambda_max {lam}, reported {cert['lambda_max']['approx']}")
    return problems


def _check_verify_expectation(item: Item, out: str) -> list[str]:
    data = json.loads(out)
    mu = data["mu"]["coeffs"]
    problems = [] if data["pass"] else ["expectation differs from the matching polynomial"]
    # mu = x^n - |E| x^(n-2) + ...
    if mu[-1] != 1 or mu[-3] != -len(item.edges):
        problems.append("matching polynomial has wrong leading coefficients")
    return problems


def _check_classify(item: Item, out: str) -> list[str]:
    problems = []
    m = item.cotree_size
    for res in json.loads(out)["results"]:
        members = [tuple(s) for c in res["classes"] for s in c["members"]]
        if sum(c["size"] for c in res["classes"]) != 1 << m:
            problems.append(f"class sizes do not sum to 2^{m}")
        if len(set(members)) != 1 << m or any(len(s) != m for s in members):
            problems.append("members are not the 2^m sign vectors")
    return problems


def _check_audit_family(item: Item, out: str) -> list[str]:
    data = json.loads(out)
    problems = [] if data["pass"] else ["audit failed"]
    nodes = (1 << (item.cotree_size + 1)) - 1
    for res in data["results"]:
        if res["nodes_checked"] != nodes or res["violations"]:
            problems.append(f"audited {res['nodes_checked']} nodes, expected {nodes} without violations")
    return problems


SEMANTIC = {
    "explore": _check_explore,
    "find-orientation": _check_find_orientation,
    "verify-expectation": _check_verify_expectation,
    "classify": _check_classify,
    "audit-family": _check_audit_family,
}


def check(item: Item, result: dict, refs: dict[str, str]) -> list[str]:
    """Problems with one item's result; empty when it is correct.

    Exit code 0 is required.  The explore sweep prints a CONJECTURE
    VIOLATION line for D~{ on stderr with exit 0: that is a finding of the
    sweep, not a failure.
    """
    if result["error"]:
        return [result["error"].strip().splitlines()[-1]]
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()[-200:]}"]
    problems = []
    want = refs.get(item.label)
    if want is None:
        problems.append("no reference digest")
    elif digest(result["stdout"]) != want:
        problems.append("stdout digest differs from the reference")
    try:
        problems += SEMANTIC[item.command](item, result["stdout"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
