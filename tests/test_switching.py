import json
import random

import pytest

import oracles
from orispec import cli, switching
from orispec.errors import GuardLimit
from orispec.graphs import (
    Graph,
    MixedGraph,
    SignVector,
    bfs_spanning_tree,
    build_mixed,
    cotree_edges,
    enumerate_spanning_trees,
    sign_vectors,
    tree_from_edges,
)
from orispec.hermitian import charpoly_of_mixed
from orispec.switching import (
    SwitchingCertificate,
    SwitchingMap,
    apply_switching,
    classify_partial_orientations,
    converse,
    equiv_to_oriented,
    equiv_to_unoriented,
    switching_equivalent,
)


PETERSEN_EDGES = sorted(
    tuple(sorted(e))
    for i in range(5)
    for e in ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))
)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call in the
    returned list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def random_mixed(g, rng):
    states = {}
    for e in g.edges:
        r = rng.random()
        states[e] = None if r < 1 / 3 else (e if r < 2 / 3 else (e[1], e[0]))
    return MixedGraph.of(g, states)


class TestSwitchingMap:
    def test_phase_range(self):
        with pytest.raises(ValueError):
            SwitchingMap((0, 4))
        assert SwitchingMap((0, 1, 2, 3)).n == 4

    def test_json(self):
        j = SwitchingMap((0, 3)).to_json()
        assert j["phases"] == [0, 3]


class TestApplySwitching:
    def test_identity(self, c4):
        d = MixedGraph.undirected(c4)
        assert apply_switching(d, SwitchingMap((0,) * 4)) == d

    def test_turns_edge_into_arc(self):
        g = Graph.of(2, [(0, 1)])
        d = MixedGraph.undirected(g)
        out = apply_switching(d, SwitchingMap((0, 1)))
        assert out.direction(0, 1) == (0, 1)

    def test_global_unit_is_identity(self, ex1, ex1_path_tree):
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        d = build_mixed(ex1, ex1_path_tree, sv)
        assert apply_switching(d, SwitchingMap((2, 2, 2, 2))) == d

    def test_inadmissible_raises(self):
        g = Graph.of(2, [(0, 1)])
        d = MixedGraph.undirected(g)
        with pytest.raises(ValueError, match="inadmissible"):
            apply_switching(d, SwitchingMap((0, 2)))

    def test_size_mismatch(self, c4):
        with pytest.raises(ValueError):
            apply_switching(MixedGraph.undirected(c4), SwitchingMap((0, 0)))

    def test_preserves_charpoly(self, corpus5):
        # conjugation by a unitary diagonal never moves the spectrum
        rng = random.Random(53)
        for _ in range(40):
            g = rng.choice(corpus5)
            d = random_mixed(g, rng)
            phases = tuple(rng.randrange(4) for _ in range(g.n))
            try:
                out = apply_switching(d, SwitchingMap(phases))
            except ValueError:
                continue
            assert charpoly_of_mixed(out) == charpoly_of_mixed(d)


class TestConverse:
    def test_involution(self, corpus5):
        rng = random.Random(59)
        for _ in range(20):
            g = rng.choice(corpus5)
            d = random_mixed(g, rng)
            assert converse(converse(d)) == d

    def test_flips_phase_1_and_3(self):
        g = Graph.of(2, [(0, 1)])
        d = MixedGraph.of(g, {(0, 1): (0, 1)})
        assert converse(d).phase(0, 1) == 3
        assert d.phase(0, 1) == 1


class TestSwitchingEquivalent:
    def test_requires_same_graph(self, ex1, c4):
        with pytest.raises(ValueError):
            switching_equivalent(MixedGraph.undirected(ex1), MixedGraph.undirected(c4))

    def test_self_equivalence(self, ex1):
        d = MixedGraph.undirected(ex1)
        cert = switching_equivalent(d, d)
        assert cert is not None and cert.verify(d, d)
        assert cert.map.phases[0] == 0

    def test_converse_detected(self, ex1, ex1_path_tree):
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        d = build_mixed(ex1, ex1_path_tree, sv)
        cert = switching_equivalent(d, converse(d))
        assert cert is not None and cert.verify(d, converse(d))

    def test_matches_brute_force_on_partial_orientations(self, corpus5):
        # exhaustive 4^(n-1) * 2 witness search as the independent oracle
        for g in corpus5:
            t = bfs_spanning_tree(g, 0)
            co = cotree_edges(g, t)
            if len(co) > 3:
                continue
            ds = [
                build_mixed(g, t, SignVector.for_tree(g, t, s))
                for s in sign_vectors(len(co))
            ]
            for i in range(len(ds)):
                for j in range(i, len(ds)):
                    cert = switching_equivalent(ds[i], ds[j])
                    assert (cert is not None) == oracles.brute_switching_equivalent(
                        ds[i], ds[j]
                    )
                    if cert is not None:
                        assert cert.verify(ds[i], ds[j])

    def test_matches_brute_force_on_general_mixed(self, corpus5):
        rng = random.Random(61)
        pairs = 0
        while pairs < 40:
            g = rng.choice(corpus5)
            if g.n > 4:
                continue
            d1 = random_mixed(g, rng)
            d2 = random_mixed(g, rng)
            cert = switching_equivalent(d1, d2)
            assert (cert is not None) == oracles.brute_switching_equivalent(d1, d2)
            if cert is not None:
                assert cert.verify(d1, d2)
            pairs += 1

    def test_certificate_verify_rejects_wrong_pair(self, ex1, ex1_path_tree):
        sv1 = SignVector.for_tree(ex1, ex1_path_tree, (1, 1))
        sv2 = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        d1 = build_mixed(ex1, ex1_path_tree, sv1)
        d2 = build_mixed(ex1, ex1_path_tree, sv2)
        cert = SwitchingCertificate(SwitchingMap((0,) * 4), False)
        assert cert.verify(d1, d1)
        assert not cert.verify(d1, d2)


class TestClassification:
    def test_example_two_classes(self, ex1, ex1_path_tree):
        classes = classify_partial_orientations(ex1, ex1_path_tree)
        assert [len(c) for c in classes] == [2, 2]
        polys = set()
        for cls in classes:
            ps = {
                str(charpoly_of_mixed(build_mixed(ex1, ex1_path_tree, sv))) for sv in cls
            }
            assert len(ps) == 1
            polys |= ps
        assert polys == {"x^4-5x^2+2x+2", "x^4-5x^2-2x+2"}

    def test_c4_single_class(self, c4, c4_path_tree):
        classes = classify_partial_orientations(c4, c4_path_tree)
        assert len(classes) == 1 and len(classes[0]) == 2

    def test_members_sorted_lex(self, ex1, ex1_star_tree):
        classes = classify_partial_orientations(ex1, ex1_star_tree)
        flat = [sv.signs for cls in classes for sv in cls]
        assert sorted(flat) == sorted(s for s in sign_vectors(2))
        for cls in classes:
            assert [sv.signs for sv in cls] == sorted(sv.signs for sv in cls)

    def test_closed_form_matches_switching_search(self, corpus5):
        # the BFS tree of every graph, every other spanning tree up to m = 4,
        # and one Petersen tree (m = 6)
        petersen = Graph.of(10, PETERSEN_EDGES)
        cases = [(petersen, bfs_spanning_tree(petersen, 0))]
        for g in corpus5:
            cases.append((g, bfs_spanning_tree(g, 0)))
            cases += [(g, t) for t in enumerate_spanning_trees(g) if len(cotree_edges(g, t)) <= 4]
        for g, t in cases:
            assert classify_partial_orientations(g, t) == oracles.classify_by_switching_search(g, t)

    def test_classify_cli_makes_one_charpoly_per_class(self, capsys, monkeypatch, kernel_calls, sweep_charpolys):
        searches = count_calls(monkeypatch, switching, "switching_equivalent")
        petersen = ";".join(f"{u} {v}" for u, v in PETERSEN_EDGES)
        assert cli.main(["classify", "-g", petersen, "--json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        m = len(result["cotree"])
        assert m == 6 and len(result["classes"]) == 1 << (m - 1)
        assert len(searches) == 0
        assert len(sweep_charpolys) == 1 << (m - 1)
        assert kernel_calls == []

    def test_tree_graph_has_one_class(self, capsys, kernel_calls, sweep_charpolys):
        assert cli.main(["classify", "-g", "0 1;1 2;1 3", "--json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert result["cotree"] == []
        assert [(c["size"], c["members"]) for c in result["classes"]] == [(1, [[]])]
        assert result["classes"][0]["charpoly"]["text"] == "x^4-3x^2"
        assert sweep_charpolys == [4]
        assert kernel_calls == []

    def test_guard(self):
        n = 8
        g = Graph.of(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        with pytest.raises(GuardLimit):
            classify_partial_orientations(g, bfs_spanning_tree(g, 0))


class TestOrientedUnorientedCriteria:
    def test_tree_is_unoriented(self):
        g = Graph.of(4, [(0, 1), (1, 2), (1, 3)])
        t = bfs_spanning_tree(g, 0)
        assert equiv_to_unoriented(g, t)
        assert equiv_to_oriented(g, t)  # zero cotree edges satisfies both

    def test_c4_is_neither(self, c4, c4_path_tree):
        assert not equiv_to_unoriented(c4, c4_path_tree)
        assert not equiv_to_oriented(c4, c4_path_tree)

    def test_triangle_is_oriented(self):
        g = Graph.of(3, [(0, 1), (0, 2), (1, 2)])
        t = tree_from_edges(g, [(0, 1), (0, 2)])
        assert equiv_to_oriented(g, t)

    def test_matches_even_cycle_condition(self, corpus6):
        # parity criterion vs counting tree edges on even cycles directly
        for g in corpus6:
            for t in enumerate_spanning_trees(g):
                expected = oracles.even_cycle_tree_condition(g, set(t.tree_edges))
                assert equiv_to_oriented(g, t) == expected

    def test_oriented_criterion_certificate(self, ex1, ex1_star_tree):
        # the star tree of the worked example puts 0, 2, 3 at odd depth, so
        # the cotree edges (0, 3) and (2, 3) join same-parity vertices
        assert equiv_to_oriented(ex1, ex1_star_tree)
        assert not equiv_to_oriented(ex1, tree_from_edges(ex1, [(0, 1), (1, 2), (2, 3)]))
