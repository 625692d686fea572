import collections
import random

import oracles
import pytest

from orispec import cli, orientation, polynomials
from orispec.errors import GuardLimit
from orispec.graphs import (
    Graph,
    SignVector,
    bfs_spanning_tree,
    build_mixed,
    cotree_edges,
    enumerate_spanning_trees,
    sign_vectors,
    tree_from_edges,
)
from orispec.hermitian import GainTable, charpoly_of_mixed
from orispec.matching import matching_polynomial
from orispec.orientation import (
    _family_levels,
    _partial_terms,
    _prefix_sum,
    audit_interlacing_family,
    conditional_sum_charpoly,
    conditional_sum_fast,
    expected_charpoly,
    greedy_orientation,
    verify_bound,
)
from orispec.polynomials import (
    AlgebraicRoot,
    IntPoly,
    Order,
    compare_roots,
    is_real_rooted,
    isolate_largest_root,
    isolate_real_roots,
    roots_admit_common_interlacer,
    roots_from_sign_changes,
)


def sum_by_explicit_completions(g, t, prefix):
    """Oracle: build every completion as a mixed graph and add charpolys."""
    co = cotree_edges(g, t)
    total = IntPoly([0])
    for tail in sign_vectors(len(co) - len(prefix)):
        sv = SignVector.for_tree(g, t, tuple(prefix) + tail)
        total = total + charpoly_of_mixed(build_mixed(g, t, sv))
    return total


def all_prefixes(m):
    for k in range(m + 1):
        yield from sign_vectors(k)


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.of(rows * cols, edges)


class TestConditionalSums:
    def test_total_is_scaled_matching_polynomial(self, ex1, ex1_path_tree):
        total = conditional_sum_charpoly(ex1, ex1_path_tree)
        assert total == matching_polynomial(ex1) * IntPoly([4])

    def test_node_equals_sum_of_children(self, ex1, ex1_star_tree):
        for prefix in all_prefixes(1):
            parent = conditional_sum_charpoly(ex1, ex1_star_tree, prefix)
            plus = conditional_sum_charpoly(ex1, ex1_star_tree, (*prefix, 1))
            minus = conditional_sum_charpoly(ex1, ex1_star_tree, (*prefix, -1))
            assert parent == plus + minus

    def test_brute_matches_explicit_oracle(self, ex1, ex1_path_tree):
        for prefix in all_prefixes(2):
            got = conditional_sum_charpoly(ex1, ex1_path_tree, prefix)
            assert got == sum_by_explicit_completions(ex1, ex1_path_tree, prefix)

    def test_fast_matches_brute_on_examples(self, ex1, c4):
        for g in (ex1, c4):
            for t in enumerate_spanning_trees(g):
                m = len(cotree_edges(g, t))
                for prefix in all_prefixes(m):
                    assert conditional_sum_fast(g, t, prefix) == conditional_sum_charpoly(
                        g, t, prefix
                    )

    def test_fast_matches_brute_random(self, corpus6):
        rng = random.Random(47)
        pool = [g for g in corpus6 if len(g.edges) - (g.n - 1) <= 8]
        for _ in range(25):
            g = rng.choice(pool)
            t = bfs_spanning_tree(g, rng.randrange(g.n))
            m = len(cotree_edges(g, t))
            k = rng.randint(0, m)
            prefix = tuple(rng.choice((-1, 1)) for _ in range(k))
            assert conditional_sum_fast(g, t, prefix) == conditional_sum_charpoly(g, t, prefix)

    def test_prefix_sums_match_brute_along_descents(self, corpus5):
        # one table per (g, t), read at every prefix of the sign tree in
        # depth-first order, as the descent reads it along each path
        for g in [*corpus5, grid(3, 4)]:
            t = bfs_spanning_tree(g, 0)
            table = GainTable(g, t)
            m = table.m
            terms = _partial_terms(table)
            stack = [()]
            while stack:
                prefix = stack.pop()
                got = _prefix_sum(table, terms, prefix)
                assert got == conditional_sum_charpoly(g, t, prefix), (g.edges, prefix)
                if len(prefix) < m:
                    stack += [(*prefix, -1), (*prefix, 1)]

    def test_prefix_validation(self, ex1, ex1_path_tree):
        # 1.5 must not pass as +1 by truncation
        for summer in (conditional_sum_charpoly, conditional_sum_fast):
            for bad in [(0,), (1.5,), (1, -1.5), (1, 1, 1)]:
                with pytest.raises(ValueError):
                    summer(ex1, ex1_path_tree, bad)

    def test_guard(self):
        g = Graph.of(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        t = bfs_spanning_tree(g, 0)
        with pytest.raises(GuardLimit):
            conditional_sum_charpoly(g, t)
        with pytest.raises(GuardLimit):
            conditional_sum_fast(g, t)
        with pytest.raises(GuardLimit):
            expected_charpoly(g, t)
        with pytest.raises(GuardLimit):
            greedy_orientation(g, t)


class TestExpectedCharpoly:
    def test_equals_matching_polynomial_examples(self, ex1, c4):
        for g in (ex1, c4):
            mu = matching_polynomial(g)
            for t in enumerate_spanning_trees(g):
                assert expected_charpoly(g, t) == mu

    def test_corpus_sweep_all_roots(self, corpus5):
        for g in corpus5:
            mu = matching_polynomial(g)
            for root in range(g.n):
                assert expected_charpoly(g, bfs_spanning_tree(g, root)) == mu


class TestGreedyDescent:
    def test_example_path_tree(self, ex1, ex1_path_tree):
        cert = greedy_orientation(ex1, ex1_path_tree)
        assert cert.verdict is Order.LT
        assert str(cert.final_charpoly) == "x^4-5x^2+2x+2"
        assert abs(float(cert.largest_eigenvalue) - 1.8136) < 1e-3
        assert abs(float(cert.matching_bound) - 2.1358) < 1e-3
        assert len(cert.levels) == 2
        assert [lv.edge for lv in cert.levels] == [(0, 3), (1, 3)]
        assert cert.signs.signs == tuple(lv.sign for lv in cert.levels)

    def test_example_star_tree(self, ex1, ex1_star_tree):
        cert = greedy_orientation(ex1, ex1_star_tree)
        assert cert.verdict is Order.LT
        # only the class of x^4-5x^2+4 stays below the matching bound here
        assert str(cert.final_charpoly) == "x^4-5x^2+4"
        assert cert.largest_eigenvalue.compare_rational(2) is Order.EQ

    def test_c4_attains_equality(self, c4, c4_path_tree):
        # both signs give converse orientations of one mixed graph whose
        # charpoly is the matching polynomial itself, so the bound is tight
        cert = greedy_orientation(c4, c4_path_tree)
        assert cert.verdict is Order.EQ
        assert str(cert.final_charpoly) == "x^4-4x^2+2"

    def test_matches_brute_sum_descent(self, ex1, c4, corpus5, corpus6):
        k6 = Graph.of(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        cases = [(g, t) for g in (ex1, c4) for t in enumerate_spanning_trees(g)]
        graphs = [*corpus5, k6, *(g for g in corpus6 if len(g.edges) - (g.n - 1) <= 7)]
        cases += [(g, bfs_spanning_tree(g, 0)) for g in graphs]
        for g, t in cases:
            cert = greedy_orientation(g, t)
            signs, final = oracles.greedy_by_brute_sums(g, t)
            assert cert.signs.signs == signs, g.edges
            assert cert.final_charpoly == final

    def test_no_kernel_call_on_the_4x4_grid(self, capsys, monkeypatch, kernel_calls):
        # the descent and the expectation form no matrix: the table and the
        # matching polynomials serve every sum
        def brute(*args):
            raise AssertionError("brute conditional sum called")

        monkeypatch.setattr(orientation.kernel, "sum_orientations_flat", brute)
        graph = ";".join(f"{u} {v}" for u, v in sorted(grid(4, 4).edges))
        for command in ("find-orientation", "verify-expectation"):
            assert cli.main([command, "-g", graph, "--tree", "bfs:0", "--json"]) == 0
        assert '"pass": true' in capsys.readouterr().out
        assert kernel_calls == []

    def test_verdict_never_gt_on_corpus(self, corpus5):
        for g in corpus5:
            t = bfs_spanning_tree(g, 0)
            cert = greedy_orientation(g, t)
            assert cert.verdict in (Order.LT, Order.EQ)
            assert compare_roots(cert.largest_eigenvalue, cert.matching_bound) is cert.verdict

    def test_certificate_signs_reproduce_charpoly(self, ex1, ex1_path_tree):
        cert = greedy_orientation(ex1, ex1_path_tree)
        d = build_mixed(ex1, ex1_path_tree, cert.signs)
        assert charpoly_of_mixed(d) == cert.final_charpoly

    def test_level_trace_is_children_of_path(self, ex1, ex1_path_tree):
        cert = greedy_orientation(ex1, ex1_path_tree)
        prefix = ()
        for lv in cert.levels:
            plus = conditional_sum_charpoly(ex1, ex1_path_tree, (*prefix, 1))
            minus = conditional_sum_charpoly(ex1, ex1_path_tree, (*prefix, -1))
            assert compare_roots(lv.plus_largest, isolate_largest_root(plus)) is Order.EQ
            assert compare_roots(lv.minus_largest, isolate_largest_root(minus)) is Order.EQ
            prefix = (*prefix, lv.sign)

    def test_disconnected_rejected(self):
        g = Graph.of(4, [(0, 1), (2, 3)])
        with pytest.raises(Exception):
            greedy_orientation(g, tree_from_edges(Graph.of(2, [(0, 1)]), [(0, 1)]))


class TestAudit:
    def test_examples_pass(self, ex1, c4):
        for g in (ex1, c4):
            for t in enumerate_spanning_trees(g):
                m = len(cotree_edges(g, t))
                report = audit_interlacing_family(g, t)
                assert report.passed
                assert report.nodes_checked == 2 ** (m + 1) - 1

    def test_corpus_pass(self, corpus5):
        for g in corpus5:
            if len(g.edges) - (g.n - 1) > 6:
                continue
            report = audit_interlacing_family(g, bfs_spanning_tree(g, 0))
            assert report.passed

    def test_guard(self):
        g = Graph.of(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        with pytest.raises(GuardLimit):
            audit_interlacing_family(g, bfs_spanning_tree(g, 0))

    def test_json_shape(self, c4, c4_path_tree):
        j = audit_interlacing_family(c4, c4_path_tree).to_json()
        assert j["passed"] is True and j["violations"] == []


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.of(10, [tuple(sorted(e)) for e in edges])


def audit_cases(corpus5, every_tree=True):
    """(g, t): corpus <= 5 at every spanning tree (or the BFS tree) with
    m <= 4, and the Petersen graph at its BFS tree (m = 6)."""
    cases = []
    for g in corpus5:
        for t in enumerate_spanning_trees(g) if every_tree else [bfs_spanning_tree(g, 0)]:
            if len(cotree_edges(g, t)) <= 4:
                cases.append((g, t))
    g = petersen()
    return cases + [(g, bfs_spanning_tree(g, 0))]


class TestAuditReductions:
    """The audit isolates each distinct node polynomial once and checks each
    distinct pair of children once; tests/oracles.py keeps the audit that
    sweeps every leaf and checks every node on its own."""

    def test_levels_match_the_full_sweep(self, corpus5):
        for g, t in audit_cases(corpus5):
            co = cotree_edges(g, t)
            full = [IntPoly(p) for p in oracles.sign_sweep_by_tree_table(g.n, t.tree_edges, co, sign_vectors(len(co)))]
            levels = _family_levels(g, t, co)
            assert levels[-1] == full
            assert levels[0] == [sum(full, IntPoly.zero())]

    def test_matches_unreduced_audit(self, corpus5):
        for g, t in audit_cases(corpus5):
            assert audit_interlacing_family(g, t) == oracles.audit_interlacing_family_unreduced(g, t)

    @staticmethod
    def patch_both(monkeypatch, name, replacement):
        monkeypatch.setattr(orientation, name, replacement)
        monkeypatch.setattr(oracles, name, replacement)

    @pytest.mark.parametrize("rule", ["always", "left_top_above_right_top"])
    def test_forced_interlacer_violations_match(self, corpus5, monkeypatch, rule):
        def reject(left, right):
            if rule == "always":
                return False
            return compare_roots(left[-1], right[-1]) is not Order.GT

        self.patch_both(monkeypatch, "roots_admit_common_interlacer", reject)
        seen = 0
        for g, t in audit_cases(corpus5, every_tree=False):
            report = audit_interlacing_family(g, t)
            assert report == oracles.audit_interlacing_family_unreduced(g, t)
            seen += len(report.violations)
        assert seen > 20

    def test_forced_real_rootedness_violations_match(self, corpus5, monkeypatch):
        # drop the largest root of every polynomial with p(1) odd, on both of
        # the audit's routes (a walk, a certificate of sign changes) and on
        # the oracle's own full-degree isolation
        def lossy(isolate):
            def drop(p, *args):
                roots = isolate(p, *args)
                return roots[:-1] if roots is not None and p.evaluate(1) % 2 else roots

            return drop

        monkeypatch.setattr(orientation, "isolate_real_roots", lossy(isolate_real_roots))
        monkeypatch.setattr(orientation, "roots_from_sign_changes", lossy(roots_from_sign_changes))
        monkeypatch.setattr(oracles, "real_roots_full_degree", lossy(oracles.real_roots_full_degree))
        seen = 0
        for g, t in audit_cases(corpus5, every_tree=False):
            report = audit_interlacing_family(g, t)
            assert report == oracles.audit_interlacing_family_unreduced(g, t)
            seen += len(report.violations)
        assert seen > 20

    def test_walking_every_node_changes_no_report(self, corpus5, monkeypatch):
        # with the certificate disabled every parent is walked, as a leaf
        # is, and the reports still match the unreduced audit; with it, most
        # internal nodes of these cases are certified, of every shape:
        # symmetric of odd (0 a root) and even degree, and not symmetric
        certified = collections.Counter()

        def counting(p, points):
            roots = roots_from_sign_changes(p, points)
            certified[polynomials._mirror_parity(p), roots is not None] += 1
            return roots

        cases = audit_cases(corpus5)
        monkeypatch.setattr(orientation, "roots_from_sign_changes", counting)
        reports = [audit_interlacing_family(g, t) for g, t in cases]
        assert all(certified[e, True] > 2 * certified[e, False] for e in (None, 0, 1))
        monkeypatch.setattr(orientation, "roots_from_sign_changes", lambda p, points: None)
        for (g, t), report in zip(cases, reports):
            assert audit_interlacing_family(g, t) == report == oracles.audit_interlacing_family_unreduced(g, t)

    @pytest.mark.parametrize("graph", ["ladder", "petersen"])
    def test_one_gcd_per_distinct_pair(self, monkeypatch, graph):
        # the audit's comparisons read the gcd memo on the forms of its
        # roots: each distinct unordered pair of polynomials they compare
        # has its gcd computed once per audit (on Petersen some pairs recur
        # across nodes, and two equal children hand their roots, on their
        # form, to the parent), and forgetting the memo repeats gcds but
        # changes no report.  Only the audit's own comparisons are counted:
        # a walk's square-free parts and its merge of several factors' roots
        # are not the audit's comparisons
        g = grid(2, 8) if graph == "ladder" else petersen()
        t = bfs_spanning_tree(g, 0)
        pairs = []
        in_compare = []
        poly_gcd, compare = polynomials.poly_gcd, AlgebraicRoot.compare

        def counting_gcd(a, b):
            if in_compare:
                pairs.append(frozenset((a, b)))
            return poly_gcd(a, b)

        def audit_comparison(check):
            def wrapped(*roots):
                in_compare.append(check)
                try:
                    return check(*roots)
                finally:
                    in_compare.pop()

            return wrapped

        def forgetting_compare(self, other):
            self._form.gcds.clear()
            other._form.gcds.clear()
            return compare(self, other)

        monkeypatch.setattr(polynomials, "poly_gcd", counting_gcd)
        for name in ("roots_admit_common_interlacer", "compare_roots"):
            monkeypatch.setattr(orientation, name, audit_comparison(getattr(orientation, name)))
        report = audit_interlacing_family(g, t)
        assert report.passed
        assert len(pairs) == len(set(pairs)) > 20
        pairs.clear()
        monkeypatch.setattr(AlgebraicRoot, "compare", forgetting_compare)
        assert audit_interlacing_family(g, t) == report
        assert len(pairs) > len(set(pairs))

    @pytest.mark.parametrize("rule", ["criterion", "left_top_above_right_top"])
    def test_gcd_memo_changes_no_report(self, corpus5, monkeypatch, rule):
        # every comparison of the audit answers as it does between roots
        # isolated afresh, whose forms share no memo
        if rule != "criterion":

            def reject(left, right):
                return compare_roots(left[-1], right[-1]) is not Order.GT

            monkeypatch.setattr(orientation, "roots_admit_common_interlacer", reject)
        reports = [audit_interlacing_family(g, t) for g, t in audit_cases(corpus5)]
        assert rule == "criterion" or sum(len(r.violations) for r in reports) > 20
        compare = AlgebraicRoot.compare

        def fresh(root):
            (a, d), (b, _) = root.lo_ratio(), root.hi_ratio()
            return AlgebraicRoot._isolated(polynomials._Form(root.poly), a, b, d)

        def checked(self, other):
            want = compare(fresh(self), fresh(other))
            assert compare(self, other) is want
            return want

        monkeypatch.setattr(AlgebraicRoot, "compare", checked)
        assert [audit_interlacing_family(g, t) for g, t in audit_cases(corpus5)] == reports

    def test_work_on_the_ladder(self, capsys, monkeypatch, kernel_calls, gain_tables):
        # audit-family on the 2x8 ladder at bfs:0 (m = 7): one table, one
        # sweep of half of the 128 leaves, each distinct leaf polynomial
        # walked once, the one internal polynomial with two equal children
        # copied from them and each other distinct internal one certified
        # once by sign changes at its children's separators, none walked.
        # All 100 are symmetric of degree 16: the walks list only their 8
        # nonnegative roots and mirror the rest, and the interlacer checks
        # read half of each pair of root lists (walking all 100 in full lists
        # 1,600 roots, and the full checks make 5,564 compares)
        g = grid(2, 8)
        t = bfs_spanning_tree(g, 0)
        co = cotree_edges(g, t)
        leaves = [IntPoly(p) for p in oracles.sign_sweep_by_tree_table(g.n, t.tree_edges, co, sign_vectors(len(co)))]
        internal, copied = set(), set()
        level = leaves
        while len(level) > 1:
            pairs = [(level[2 * i], level[2 * i + 1]) for i in range(len(level) // 2)]
            level = [a + b for a, b in pairs]
            internal.update(level)
            copied.update(a + b for a, b in pairs if a == b)

        isolations, certified = [], []

        def recording(p):
            isolations.append(p)
            return isolate_real_roots(p)

        def certifying(p, points):
            roots = roots_from_sign_changes(p, points)
            if roots is not None:
                certified.append(p)
            return roots

        walked, compares = [], []
        walk, compare = polynomials._walk, AlgebraicRoot.compare

        def counting_walk(*args, **kwargs):
            for root in walk(*args, **kwargs):
                walked.append(root)
                yield root

        def counting_compare(self, other, **kwargs):
            compares.append(None)
            return compare(self, other, **kwargs)

        monkeypatch.setattr(orientation, "isolate_real_roots", recording)
        monkeypatch.setattr(orientation, "roots_from_sign_changes", certifying)
        monkeypatch.setattr(polynomials, "_walk", counting_walk)
        monkeypatch.setattr(AlgebraicRoot, "compare", counting_compare)
        graph = ";".join(f"{u} {v}" for u, v in sorted(g.edges))
        assert cli.main(["audit-family", "-g", graph, "--tree", "bfs:0", "--json"]) == 0
        assert '"passed": true' in capsys.readouterr().out
        assert gain_tables.built == [7]
        assert gain_tables.sweeps == [(False, 64)]
        assert kernel_calls == []
        assert len(isolations) == len(set(isolations)) == len(set(leaves)) == 36
        assert len(copied) == 1 and len(internal) == 64
        assert len(certified) == len(set(certified)) == len(internal - copied) == 63
        assert set(isolations).isdisjoint(internal)
        assert all(p.degree == 16 and not any(p.coeffs[1::2]) for p in internal.union(leaves))
        assert len(walked) == 288
        assert len(compares) <= 2100


class TestCommonInterlacerAgainstCombinations:
    """Cross-check the exact interlacer test against convex combinations.

    Two monic real-rooted polynomials of one degree admit a common
    interlacer exactly when every convex combination is real-rooted; a
    rational grid of combinations gives an independent exact probe.
    """

    @staticmethod
    def grid_combos_real_rooted(f, g):
        return all(
            is_real_rooted(f * IntPoly([j]) + g * IntPoly([10 - j])) for j in range(11)
        )

    def test_sibling_pairs_from_families(self, ex1, c4):
        for g in (ex1, c4):
            for t in enumerate_spanning_trees(g):
                m = len(cotree_edges(g, t))
                for k in range(m):
                    for prefix in sign_vectors(k):
                        plus = conditional_sum_charpoly(g, t, (*prefix, 1))
                        minus = conditional_sum_charpoly(g, t, (*prefix, -1))
                        assert roots_admit_common_interlacer(
                            isolate_real_roots(plus), isolate_real_roots(minus)
                        )
                        assert self.grid_combos_real_rooted(plus, minus)

    def test_known_negative_pair(self):
        f = IntPoly([2, -3, 1])  # roots 1, 2
        g = IntPoly([12, -7, 1])  # roots 3, 4
        assert not roots_admit_common_interlacer(isolate_real_roots(f), isolate_real_roots(g))
        assert not self.grid_combos_real_rooted(f, g)

    def test_known_positive_pair(self):
        f = IntPoly([3, -4, 1])  # roots 1, 3
        g = IntPoly([8, -6, 1])  # roots 2, 4
        assert roots_admit_common_interlacer(isolate_real_roots(f), isolate_real_roots(g))
        assert self.grid_combos_real_rooted(f, g)


class TestVerifyBound:
    def test_path_tree_classes(self, ex1, ex1_path_tree):
        # x^4-5x^2+2x+2 stays below the matching bound, its converse class
        # (the -2x coefficient) exceeds it
        by_poly = {}
        for signs in sign_vectors(2):
            sv = SignVector.for_tree(ex1, ex1_path_tree, signs)
            phi = charpoly_of_mixed(build_mixed(ex1, ex1_path_tree, sv))
            by_poly[str(phi)] = verify_bound(ex1, ex1_path_tree, sv)
        assert by_poly["x^4-5x^2+2x+2"] is Order.LT
        assert by_poly["x^4-5x^2-2x+2"] is Order.GT

    def test_star_tree_classes(self, ex1, ex1_star_tree):
        verdicts = {}
        for signs in sign_vectors(2):
            sv = SignVector.for_tree(ex1, ex1_star_tree, signs)
            phi = charpoly_of_mixed(build_mixed(ex1, ex1_star_tree, sv))
            verdicts[str(phi)] = verify_bound(ex1, ex1_star_tree, sv)
        assert verdicts["x^4-5x^2+4"] is Order.LT
        assert all(v is Order.GT for p, v in verdicts.items() if p != "x^4-5x^2+4")

    def test_c4_both_signs_tie_at_bound(self, c4, c4_path_tree):
        for s in (-1, 1):
            sv = SignVector.for_tree(c4, c4_path_tree, (s,))
            assert verify_bound(c4, c4_path_tree, sv) is Order.EQ

    def test_at_least_one_good_tree_on_corpus(self, corpus5):
        # the descent theorem promises a good orientation for some signs of
        # any fixed tree; spot-check that verify_bound finds one
        for g in corpus5[:10]:
            t = bfs_spanning_tree(g, 0)
            co = cotree_edges(g, t)
            results = [
                verify_bound(g, t, SignVector.for_tree(g, t, signs))
                for signs in sign_vectors(len(co))
            ]
            assert any(r in (Order.LT, Order.EQ) for r in results)
