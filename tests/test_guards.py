"""Every size guard refuses in one format and lifts with guard=False."""

import pytest

from orispec import explore, graphs, orientation, switching
from orispec.errors import GuardLimit
from orispec.graphs import Graph, tree_from_edges

C4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C4_TREE = tree_from_edges(C4, [(0, 1), (1, 2), (2, 3)])
CONDITIONAL_SUMS = (orientation, "CONDITIONAL_SUM_GUARD_M")
TABLE_WALK = "conditional sums walk the 2^m cotree-edge sets of the cycle-expansion table"

# (call, guard constant, work, size name, size); each constant is lowered to
# size - 1, so the small input is refused and guard=False runs it cheaply
GUARDS = {
    "spanning-trees": (
        lambda guard: graphs.enumerate_spanning_trees(C4, guard=guard),
        (graphs, "SPANNING_TREE_GUARD_N"),
        "spanning-tree enumeration is exhaustive",
        "n",
        4,
    ),
    "corpus": (
        lambda guard: explore.generate_corpus(3, guard=guard),
        (explore, "CORPUS_GUARD_N"),
        "corpus generation is exhaustive",
        "max_n",
        3,
    ),
    "complete": (
        lambda guard: explore.min_rho_complete(C4, guard=guard),
        (explore, "MIN_COMPLETE_GUARD_M"),
        "complete-orientation search enumerates 2^m cases",
        "m",
        1,
    ),
    "partial": (
        lambda guard: explore.min_rho_partial(C4, guard=guard),
        (explore, "MIN_PARTIAL_GUARD_N"),
        "partial-orientation search is exhaustive over trees",
        "n",
        4,
    ),
    "all-mixed": (
        lambda guard: explore.min_rho_all_mixed(C4, guard=guard),
        (explore, "ALL_MIXED_GUARD_N"),
        "all-mixed search enumerates 3^|E| states",
        "n",
        4,
    ),
    "bound-sweep": (
        lambda guard: explore.guo_mohar_sweep(C4, guard=guard),
        (explore, "GUO_MOHAR_GUARD_M"),
        "bound sweep enumerates 2^m orientations",
        "m",
        1,
    ),
    "conditional-sum-brute": (
        lambda guard: orientation.conditional_sum_charpoly(C4, C4_TREE, guard=guard),
        CONDITIONAL_SUMS,
        "conditional sums enumerate 2^(m-k) completions",
        "m",
        1,
    ),
    "conditional-sum-table": (
        lambda guard: orientation.conditional_sum_fast(C4, C4_TREE, guard=guard),
        CONDITIONAL_SUMS,
        TABLE_WALK,
        "m",
        1,
    ),
    "greedy": (
        lambda guard: orientation.greedy_orientation(C4, C4_TREE, guard=guard),
        CONDITIONAL_SUMS,
        TABLE_WALK,
        "m",
        1,
    ),
    "expectation": (
        lambda guard: orientation.expected_charpoly(C4, C4_TREE, guard=guard),
        CONDITIONAL_SUMS,
        "the expectation walks the matchings of the m cotree edges",
        "m",
        1,
    ),
    "audit": (
        lambda guard: orientation.audit_interlacing_family(C4, C4_TREE, guard=guard),
        (orientation, "AUDIT_GUARD_M"),
        "the audit walks 2^(m+1)-1 prefixes",
        "m",
        1,
    ),
    "classify": (
        lambda guard: switching.classify_partial_orientations(C4, C4_TREE, guard=guard),
        (switching, "CLASSIFY_GUARD_M"),
        "classification enumerates 2^m orientations",
        "m",
        1,
    ),
}


@pytest.mark.parametrize("label", sorted(GUARDS))
def test_one_refusal_format(label, monkeypatch):
    call, (module, constant), work, name, size = GUARDS[label]
    call(True)  # admitted under the default limit
    monkeypatch.setattr(module, constant, size - 1)  # read at call time
    with pytest.raises(GuardLimit) as refused:
        call(True)
    assert str(refused.value) == f"{work}; {name}={size} exceeds {size - 1} (pass guard=False to override)"
    call(False)
