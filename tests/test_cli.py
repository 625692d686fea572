import argparse
import hashlib
import importlib.util
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orispec import cli, explore, graphs, matching, orientation, switching
from orispec.errors import ComputationDefect
from orispec.polynomials import IntPoly, roots_numeric

EX1 = "0 1;1 2;2 3;0 3;1 3"
C4 = "0 1;1 2;2 3;0 3"
H1_MIXED = "0 1;1 2;2 3;0 > 3"
D1_MIXED = "0 1;1 2;2 3;0 > 3;3 > 1"
K5 = ";".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5))
K7 = ";".join(f"{u} {v}" for u in range(7) for v in range(u + 1, 7))
# K7 with the arc u -> v on every edge with u + v even
K7_MIXED = ";".join(
    f"{u} > {v}" if (u + v) % 2 == 0 else f"{u} {v}" for u in range(7) for v in range(u + 1, 7)
)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# SHA-256 of `explore --max-n 6 --json` stdout; a faster search must keep it
EXPLORE_MAX_N6_SHA256 = "6a9e8cad87265d6bbb155f57e42e570c22108bbbe99f9b9556572027f5cb5019"
# SHA-256 of `find-orientation --json` stdout on the 5x5 grid, by BFS root
GRID5X5_SHA256 = {
    0: "33fac6832f6695a46c6513b8a992dcfb64e725ad8e21b6d9aabaa9afd4e5954b",
    12: "576a689cb83a4bb4233ec763c18d65fca8694e049c8a5ebec156a9e51b02012e",
}

# SHA-256 of each per-tree command's stdout with `--tree all`, by graph and
# format: the multi-tree text with its blank lines, and the JSON envelope
PER_TREE_SHA256 = {
    ("find-orientation", "EX1", "text"): "4b25e0f6340f3338660b0ccdfb89fbbbaff9a489cdff56444789dc31eb309a59",
    ("find-orientation", "EX1", "json"): "5901a0e4d2e1d9d8d78d60ba971ee52022bd87fae2ca1a268630af15bfde9339",
    ("find-orientation", "C4", "text"): "f06b4cbeb35814cd98daa328a7c8f2ecda1dcf92dca99123cafaa9fbcaf58ef1",
    ("find-orientation", "C4", "json"): "ab7adb75bc5d6feb55da909a2ec90f6238c93c9bccf905b480ca7adc93b2d6c1",
    ("verify-expectation", "EX1", "text"): "a30107b884535b15fb6b8691c1d103dba29c2fba0bc1e28c9af3dc13c4d010d8",
    ("verify-expectation", "EX1", "json"): "f9c965952dd75e5c05f6c5b1f2466d777015bec80268ef636dc20d7a778218e5",
    ("verify-expectation", "C4", "text"): "55e005a9f4b657703d104a2163c52e763fb0ab2dd42bd5d345f612ea6c1b54fe",
    ("verify-expectation", "C4", "json"): "6db7d9fd6f81039eb4447ef056dbb8035c0f5b8e8528eef8179fed5e52701ba3",
    ("audit-family", "EX1", "text"): "a50528a4535204ecc3046dc33271abcf887fa605c36e04a586e84d0edaf0a4f9",
    ("audit-family", "EX1", "json"): "55336d4d376fd6e8080da25bf295c6a13972948146b7345ab777c143b0119f24",
    ("audit-family", "C4", "text"): "2558a2c162f612142bf37bfaa19cc9e79c8b32c7b58293f90448fbd0276b165c",
    ("audit-family", "C4", "json"): "2cd459fd51081609fac5c25b63544f8ff311352428dceb4ce2e5e10938580e97",
    ("classify", "EX1", "text"): "7db12629aa03a3131a27ef618b0a31fc15dd675189d326756455c52195cb25d6",
    ("classify", "EX1", "json"): "0796b09e97e12fd2fdaa7fad57770771f750ac9b3c559a1dbb446469f07794c8",
    ("classify", "C4", "text"): "71b22deb75a352f23942d52d55dedb867ea1e2373db5afda6aa476518a840175",
    ("classify", "C4", "json"): "8f457f80d41f8adfe25f9762fd702610901647635747d7ceca0849210ba66a0e",
    ("lemma4", "EX1", "text"): "a5aa32f88520a7a1eeb11d3f26bb98c3cd7e3626a3e8c9fa21d6939405564d4e",
    ("lemma4", "EX1", "json"): "58cef77ab5eb8227438071d7f68d3a1a369ae2c181f9989183b52445c9443726",
    ("lemma4", "C4", "text"): "1043ce155b8d21f07a1fc096e805da65a6adcc69c480af87c59423517185f022",
    ("lemma4", "C4", "json"): "992c10ecb8133deeef535adb1adc674f65f63056f6adbe1e7e00c527e4700a20",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert data["schema"] == "orispec/1"
    return code, data, err


class TestMatching:
    def test_example_text(self, capsys):
        code, out, _ = run(capsys, "matching", "-g", EX1)
        assert code == 0
        assert "mu(x) = x^4-5x^2+2" in out
        assert "matching counts: 1 5 2" in out
        assert "rho(mu) ~= 2.1358" in out

    def test_example_json(self, capsys):
        code, data, _ = run_json(capsys, "matching", "-g", EX1)
        assert code == 0
        assert data["mu"]["coeffs"] == [2, 0, -5, 0, 1]
        assert data["counts"] == [1, 5, 2]

    def test_graph6_input(self, capsys):
        code, out, _ = run(capsys, "matching", "-g", "Cl", "--format", "graph6")
        assert code == 0
        assert "mu(x) = x^4-4x^2+2" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(EX1.replace(";", "\n") + "\n")
        code, out, _ = run(capsys, "matching", "-g", f"@{path}")
        assert code == 0
        assert "mu(x) = x^4-5x^2+2" in out

    @pytest.mark.parametrize("argv", [("matching",), ("find-orientation", "--tree", "all")])
    def test_one_recursion_per_graph(self, capsys, argv):
        # the counts, mu and its radius, or every tree's gain table and
        # matching bound, share one memo of K4 - e
        memos = matching.induced_matching_polynomials
        memos.cache_clear()
        code, _, _ = run(capsys, *argv, "-g", EX1)
        assert code == 0
        assert memos.cache_info().misses == 1


class TestCharpolyAndEigen:
    def test_charpoly_mixed(self, capsys):
        code, out, _ = run(capsys, "charpoly", "-g", H1_MIXED, "--format", "mixed")
        assert code == 0
        assert "phi(x) = x^4-4x^2+2" in out

    def test_charpoly_json_arcs(self, capsys):
        code, data, _ = run_json(capsys, "charpoly", "-g", D1_MIXED, "--format", "mixed")
        assert code == 0
        assert data["phi"]["text"] == "x^4-5x^2+2x+2"
        assert data["graph"]["arcs"] == [[0, 3], [3, 1]]

    def test_eigen_values(self, capsys):
        code, out, _ = run(capsys, "eigen", "-g", D1_MIXED, "--format", "mixed")
        assert code == 0
        assert "1.8136" in out and "-2.3429" in out

    def test_eigen_json_sorted(self, capsys):
        code, data, _ = run_json(capsys, "eigen", "-g", C4)
        assert code == 0
        assert data["eigenvalues"] == sorted(data["eigenvalues"])
        assert data["eigenvalues"] == pytest.approx([-2, 0, 0, 2], abs=1e-6)

    # nan and inf are not finite, and 5e-324 is below the smallest normal
    # float
    @pytest.mark.parametrize("eps", ["nan", "inf", "5e-324"])
    def test_eigen_rejects_unusable_eps(self, capsys, eps):
        code, out, err = run(capsys, "eigen", "-g", "0 1;1 2", "--eps", eps)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "eps" in err

    # refinement stops at R * 2^-52, R the charpoly's root radius, so the
    # values come out at float resolution
    @pytest.mark.parametrize(
        "graph, eps", [(D1_MIXED, "1e-30"), (K7_MIXED, "1e-16")], ids=["D1-1e-30", "K7-1e-16"]
    )
    def test_eigen_eps_below_float_resolution(self, capsys, graph, eps):
        code, data, err = run_json(capsys, "eigen", "-g", graph, "--format", "mixed", "--eps", eps)
        assert code == 0 and err == ""
        _, default, _ = run_json(capsys, "eigen", "-g", graph, "--format", "mixed")
        assert data["eigenvalues"] == pytest.approx(default["eigenvalues"], abs=1e-8)

    @pytest.mark.parametrize("eps", [None, "1e-30"], ids=["default", "1e-30"])
    def test_eigen_prints_the_exact_roots(self, capsys, eps):
        # every printed eigenvalue is the midpoint of a certified interval
        # around a root of the printed charpoly
        argv = ["eigen", "-g", K7_MIXED, "--format", "mixed"] + (["--eps", eps] if eps else [])
        code, data, _ = run_json(capsys, *argv)
        assert code == 0
        phi = IntPoly(data["phi"]["coeffs"])
        assert data["eigenvalues"] == roots_numeric(phi, data["eps"])

    def test_eigen_makes_one_kernel_call(self, capsys, kernel_calls):
        code, _, _ = run(capsys, "eigen", "-g", K7_MIXED, "--format", "mixed")
        assert code == 0
        assert kernel_calls == [7]


class TestFindOrientation:
    def test_example_trace(self, capsys):
        code, out, _ = run(
            capsys, "find-orientation", "-g", EX1, "--tree", "edges:0-1,1-2,2-3"
        )
        assert code == 0
        assert "tree: 0-1 1-2 2-3" in out
        assert "edge 0-3 ->" in out and "edge 1-3 ->" in out
        assert "phi(x) = x^4-5x^2+2x+2" in out
        assert "lambda_max ~= 1.8136" in out
        assert "rho(mu) ~= 2.1358" in out
        assert "verdict: LT" in out

    def test_all_trees_c4(self, capsys):
        code, out, _ = run(capsys, "find-orientation", "-g", C4, "--tree", "all")
        assert code == 0
        assert out.count("verdict: EQ") == 4

    def test_json_certificate(self, capsys):
        code, data, _ = run_json(
            capsys, "find-orientation", "-g", EX1, "--tree", "edges:0-1,1-2,2-3"
        )
        assert code == 0
        cert = data["results"][0]["certificate"]
        assert cert["verdict"] == "LT"
        assert len(cert["levels"]) == 2


class TestVerifyAndAudit:
    def test_verify_all_trees(self, capsys):
        code, out, _ = run(capsys, "verify-expectation", "-g", EX1, "--tree", "all")
        assert code == 0
        assert out.count("PASS") == 8 and "FAIL" not in out

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        from orispec.polynomials import IntPoly

        monkeypatch.setattr(cli, "matching_polynomial", lambda g: IntPoly([1]))
        code, out, _ = run(capsys, "verify-expectation", "-g", C4)
        assert code == 2
        assert "FAIL" in out

    def test_audit(self, capsys):
        code, out, _ = run(capsys, "audit-family", "-g", EX1)
        assert code == 0
        assert "audited 7 nodes: PASS" in out

    def test_audit_json(self, capsys):
        code, data, _ = run_json(capsys, "audit-family", "-g", C4, "--tree", "all")
        assert code == 0
        assert data["pass"] is True
        assert all(r["nodes_checked"] == 3 for r in data["results"])


class TestSwitching:
    def test_converse_pair(self, capsys):
        other = "0 1;1 2;2 3;3 > 0"
        code, out, _ = run(
            capsys, "switching", "-g", H1_MIXED, "--other", other, "--format", "mixed"
        )
        assert code == 0
        assert "equivalent: yes" in out
        assert "converse:" in out and "phases:" in out

    def test_inequivalent_pair(self, capsys):
        d1 = "0 1;1 2;2 3;0 3;1 3"
        d2 = "0 1;1 2;2 3;0 > 3;3 > 1"
        code, data, _ = run_json(
            capsys, "switching", "-g", d1, "--other", d2, "--format", "mixed"
        )
        assert code == 0
        assert data["equivalent"] is False and data["certificate"] is None

    def test_requires_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["switching", "-g", H1_MIXED])
        assert exc.value.code == 1


class TestClassifyAndLemma4:
    def test_classify_example(self, capsys):
        code, out, _ = run(capsys, "classify", "-g", EX1, "--tree", "edges:0-1,1-2,2-3")
        assert code == 0
        assert "4 orientations in 2 classes" in out
        assert "phi(x) = x^4-5x^2+2x+2" in out
        assert "phi(x) = x^4-5x^2-2x+2" in out

    def test_classify_c4_single_class(self, capsys):
        code, data, _ = run_json(capsys, "classify", "-g", C4)
        assert code == 0
        classes = data["results"][0]["classes"]
        assert len(classes) == 1 and classes[0]["size"] == 2
        assert classes[0]["charpoly"]["text"] == "x^4-4x^2+2"

    def test_lemma4_tree_graph(self, capsys):
        code, out, _ = run(capsys, "lemma4", "-g", "0 1;1 2;1 3")
        assert code == 0
        assert "equivalent to unoriented: yes" in out
        assert "equivalent to oriented: yes" in out

    def test_lemma4_star_vs_path_tree(self, capsys):
        code, out, _ = run(capsys, "lemma4", "-g", EX1, "--tree", "edges:0-1,1-2,1-3")
        assert code == 0
        assert "equivalent to unoriented: no" in out
        assert "equivalent to oriented: yes" in out
        code, out, _ = run(capsys, "lemma4", "-g", EX1, "--tree", "edges:0-1,1-2,2-3")
        assert "equivalent to oriented: no" in out


class TestPerTreeCommands:
    @pytest.mark.parametrize("command, graph, fmt", list(PER_TREE_SHA256))
    def test_all_trees_are_byte_identical(self, capsys, command, graph, fmt):
        argv = [command, "-g", {"EX1": EX1, "C4": C4}[graph], "--tree", "all"]
        code, out, err = run(capsys, *argv, *(["--json"] if fmt == "json" else []))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == PER_TREE_SHA256[command, graph, fmt]

    def test_verify_refuses_before_the_matching_polynomial(self, capsys, monkeypatch):
        # mu_G's vertex-subset recursion is exponential on dense graphs, so
        # a refused tree must not wait for it
        calls = []
        original = cli.matching_polynomial

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(cli, "matching_polynomial", counting)
        k8 = ";".join(f"{u} {v}" for u in range(8) for v in range(u + 1, 8))
        code, out, err = run(capsys, "verify-expectation", "-g", k8)
        assert code == 1 and out == ""
        assert "m=21 exceeds 20" in err
        assert calls == []

    @pytest.mark.parametrize("n", [8, 10])
    def test_tree_all_refuses_at_the_first_tree(self, capsys, spanning_trees_built, n):
        # every spanning tree of Kn has m = (n-1)(n-2)/2, so the first tree's
        # guard refuses them all, before any later tree or mask is made:
        # K10 has 10^8 spanning trees
        kn = ";".join(f"{u} {v}" for u in range(n) for v in range(u + 1, n))
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "-g", kn, "--tree", "all")
        assert time.perf_counter() - start < 5
        assert code == 1 and out == "" and f"m={(n - 1) * (n - 2) // 2} exceeds" in err
        assert len(spanning_trees_built) == 1

    def test_tree_all_guard_comes_before_any_tree(self, capsys, spanning_trees_built):
        # K11 is refused by the tree guard before any listing
        k11 = ";".join(f"{u} {v}" for u in range(11) for v in range(u + 1, 11))
        code, out, err = run(capsys, "classify", "-g", k11, "--tree", "all")
        assert code == 1 and out == ""
        assert err.startswith("error: spanning-tree enumeration is exhaustive; n=11 exceeds 10")
        assert spanning_trees_built == []

    @pytest.mark.parametrize(
        "command, module, limit",
        [
            ("find-orientation", orientation, "CONDITIONAL_SUM_GUARD_M"),
            ("verify-expectation", orientation, "CONDITIONAL_SUM_GUARD_M"),
            ("audit-family", orientation, "AUDIT_GUARD_M"),
            ("classify", switching, "CLASSIFY_GUARD_M"),
            ("lemma4", graphs, "SPANNING_TREE_GUARD_N"),
        ],
    )
    def test_unsafe_no_guards_reaches_the_library(self, capsys, monkeypatch, command, module, limit):
        # EX1 has n = 4 and m = 2 cotree edges, so a limit of 1 refuses it
        monkeypatch.setattr(module, limit, 1)
        argv = [command, "-g", EX1, "--tree", "all"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "exceeds 1" in err
        code, out, err = run(capsys, *argv, "--unsafe-no-guards")
        assert code == 0 and out.startswith("tree: ") and err == ""

    @pytest.mark.parametrize("command", ["matching", "charpoly", "eigen", "switching"])
    def test_commands_without_guards_reject_the_flag(self, capsys, command):
        argv = [command, "-g", "0 1", "--unsafe-no-guards"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + (["--other", "0 1"] if command == "switching" else []))
        assert exc.value.code == 1
        assert "unrecognized arguments: --unsafe-no-guards" in capsys.readouterr().err


class TestExplore:
    def test_single_graph_text(self, capsys):
        code, out, err = run(capsys, "explore", "-g", C4)
        assert code == 0
        assert "min_complete~=1.4142" in out
        assert "min_partial~=1.8478" in out
        assert "consistent=yes" in out and "guo_mohar=ok" in out
        assert err == ""

    def test_single_graph_json(self, capsys):
        code, out, err = run(capsys, "explore", "-g", C4, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "orispec/1"
        assert data["complete_vs_partial"] == "LT"
        assert data["guo_mohar"]["violations"] == []

    def test_corpus_sweep(self, capsys):
        code, out, _ = run(capsys, "explore", "--max-n", "3", "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in lines] == [1, 2, 3, 3]
        assert all(r["consistent"] for r in lines)

    def test_conjecture_violation_reported_not_fatal(self, capsys):
        code, out, err = run(capsys, "explore", "-g", K5)
        assert code == 0
        assert "consistent=NO" in out
        assert "CONJECTURE VIOLATION" in err

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "explore", "--max-n", "4", "--json")
        _, out2, _ = run(capsys, "explore", "--max-n", "4", "--json")
        assert out1 == out2

    def test_needs_graph_or_max_n(self, capsys):
        code, _, err = run(capsys, "explore")
        assert code == 1 and "error:" in err

    def test_guard_refusal(self, capsys):
        code, _, err = run(capsys, "explore", "--max-n", "8")
        assert code == 1
        assert "error:" in err

    def test_guard_refusal_before_any_search(self, capsys):
        # K7 passes both min-rho guards but has m = 15 > 12 for the bound
        # sweep; the refusal must come before the searches, not after them
        start = time.perf_counter()
        code, out, err = run(capsys, "explore", "-g", K7)
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert "m=15" in err and err.rstrip().endswith("(pass guard=False to override)")

    def test_unsafe_no_guards_lifts_record_guards(self, capsys, monkeypatch):
        # K4 has m = 3; with the bound-sweep limit lowered to 2 the default
        # run is refused and the flag must reach every search of the record
        monkeypatch.setattr(explore, "GUO_MOHAR_GUARD_M", 2)
        k4 = ";".join(f"{u} {v}" for u in range(4) for v in range(u + 1, 4))
        code, out, err = run(capsys, "explore", "-g", k4, "--json")
        assert code == 1 and out == ""
        assert "m=3 exceeds 2" in err
        code, out, err = run(capsys, "explore", "-g", k4, "--json", "--unsafe-no-guards")
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["n"] == 4 and record["guo_mohar"]["violations"] == []

    def test_guard_refusal_beyond_graph6(self, capsys):
        # graph6 has no short form for 64 vertices: the refusal names the
        # graph by its place in the input
        path64 = ";".join(f"{v} {v + 1}" for v in range(63))
        code, out, err = run(capsys, "explore", "-g", path64)
        assert code == 1 and out == ""
        assert err.startswith("error: graph 1 (n=64): ") and "n=64 exceeds 7" in err

    @pytest.mark.parametrize("n", [5000, 258048])
    def test_refusal_of_a_large_graph_is_short(self, capsys, n):
        # the refusal's name does not grow with the graph (a graph6 name has
        # n^2/6 characters), and past graph6's 258,047 vertices the guard
        # message still comes, not an encoder error
        path = ";".join(f"{v} {v + 1}" for v in range(n - 1))
        code, out, err = run(capsys, "explore", "-g", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: graph 1 (n={n}): ") and f"n={n} exceeds 7" in err
        assert len(err) < 200

    def test_record_beyond_62_vertices(self, capsys):
        path64 = graphs.Graph.of(64, [(v, v + 1) for v in range(63)])
        text = ";".join(f"{u} {v}" for u, v in path64.edge_list)
        code, data, err = run_json(capsys, "explore", "-g", text, "--unsafe-no-guards")
        assert code == 0 and err == ""
        assert data["n"] == 64 and data["graph6"] == graphs.encode_graph6(path64)
        assert graphs.parse_graph6(data["graph6"]) == path64

    def test_graph_and_max_n_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explore", "-g", C4, "--max-n", "3"])
        assert exc.value.code == 1
        assert "not allowed with" in capsys.readouterr().err

    def test_records_print_before_a_later_one_fails(self, capsys, monkeypatch):
        original = explore.explore_record
        computed = []

        def failing_second(g, guard=True):
            computed.append(g)
            if len(computed) == 2:
                raise ComputationDefect("second record")
            return original(g, guard)

        monkeypatch.setattr(explore, "explore_record", failing_second)
        code, out, err = run(capsys, "explore", "--max-n", "3", "--json")
        assert code == 2 and err == "defect: second record\n"
        assert out.splitlines() == [
            json.dumps({"schema": cli.SCHEMA, **original(computed[0])}, separators=(",", ":"))
        ]


class TestPlumbing:
    def test_missing_graph(self, capsys):
        code, _, err = run(capsys, "matching")
        assert code == 1 and "graph is required" in err

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_disconnected_input(self, capsys):
        code, _, err = run(capsys, "find-orientation", "-g", "0 1;2 3")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "command", ["find-orientation", "verify-expectation", "classify", "lemma4", "audit-family", "explore"]
    )
    def test_empty_graph(self, capsys, command):
        code, out, err = run(capsys, command, "-g", "n=0")
        assert code == 1 and out == ""
        assert "graph has no vertices" in err

    @pytest.mark.parametrize(
        "command", ["matching", "classify", "find-orientation", "verify-expectation", "audit-family"]
    )
    def test_too_deep_input(self, capsys, command):
        # the matching polynomial's expansion recurses once per vertex: a
        # 1,100-vertex path goes past the interpreter's recursion limit
        path = ";".join(f"{v} {v + 1}" for v in range(1099))
        code, out, err = run(capsys, command, "-g", path)
        assert code == 1 and out == ""
        assert err.startswith("error: the input is too deep to process: the matching polynomial of 1100 vertices")
        assert err.count("\n") == 1

    def test_parse_error_line_number(self, capsys):
        code, _, err = run(capsys, "matching", "-g", "0 1;zzz")
        assert code == 1 and "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "matching", "-g", "@/no/such/file")
        assert code == 1 and "error:" in err

    def test_at_without_a_path(self, capsys):
        code, out, err = run(capsys, "matching", "-g", "@")
        assert code == 1 and out == ""
        assert "file path must follow '@'" in err and "Errno" not in err

    def test_bad_tree_spec(self, capsys):
        code, _, err = run(capsys, "lemma4", "-g", C4, "--tree", "dfs:0")
        assert code == 1 and "tree spec" in err

    @pytest.mark.parametrize("spec", ["edges:0-1,1-0", "edges:0-1,1-0,1-2"])
    def test_repeated_tree_edge(self, capsys, spec):
        # 1-0 is the edge 0-1 again, whether or not n-1 edges were given
        code, out, err = run(capsys, "classify", "-g", "0 1;1 2;0 2", "--tree", spec)
        assert code == 1 and out == ""
        assert "tree edge 1-0 is given twice" in err


class TestParserCache:
    ARGVS = (("matching", "-g", EX1, "--json"), ("explore", "-g", C4, "--json"), ("lemma4", "-g", C4))

    @pytest.fixture
    def built(self, monkeypatch):
        """One entry per `build_parser()` call, from an empty parser cache."""
        calls = []
        build = cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_one_parser_per_process(self, capsys, built):
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert len(built) == len(self.ARGVS)
        built.clear()
        cli._parser.cache_clear()
        assert [run(capsys, *argv) for argv in self.ARGVS] == fresh
        assert built == [1]

    def test_no_action_has_a_mutable_default(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for p in (parser, *sub.choices.values()):
            for action in p._actions:
                assert isinstance(action.default, (type(None), str, int, float)), (p.prog, action.dest)
            assert set(p._defaults) <= {"func"}

    def test_traced_pass_binds_the_wrapped_command(self):
        # perfbench/child.py installs its tracer after import and before the
        # first `main` call; the cached parser must dispatch to the wrapper
        request = json.dumps({"items": [["explore", "-g", C4, "--json"]] * 2, "trace": True})
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), repr(time.monotonic())],
            input=request,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        report = json.loads(proc.stdout)
        first, second = report["items"]
        assert first["rc"] == second["rc"] == 0 and first["stdout"] == second["stdout"]
        assert report["trace"]["calls"]["cli.explore"] == 2
        assert report["trace"]["self_s"]["cli.explore"] > 0


@pytest.fixture(scope="module")
def benchmark_items():
    """The benchmark's items by label, from perfbench/workloads.py (which
    does not import orispec)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        return {item.label: item for name in workloads.WORKLOADS for item in workloads.universe(name)}
    finally:
        del sys.modules[spec.name]


# 12 of the Petersen graph's 2,000 spanning trees, by their index in the
# benchmark's listing, each under classify and audit-family
PETERSEN_SAMPLE = [
    f"{command}:petersen:T{index}"
    for index in sorted(random.Random(0).sample(range(2000), 12))
    for command in ("classify", "audit-family")
]


# SHA-256 of each benchmark item's stdout, by item label
REFERENCE_DIGESTS = dict(
    line.split()
    for line in (PERFBENCH / "reference.txt").read_text().splitlines()
    if line and not line.startswith("#")
)

# every item of the explore and greedy workloads: they print root intervals,
# which depend on each root's refinement history
PRINTED_INTERVAL_ITEMS = [
    label
    for label in REFERENCE_DIGESTS
    if label.split(":")[0] in ("explore", "find-orientation", "verify-expectation")
]


class TestBenchmarkReference:
    @pytest.mark.parametrize(
        "label",
        [
            "classify:grid2x8:bfs0",
            "classify:petersen:T0",
            "audit-family:grid2x8:bfs0",
            "audit-family:petersen:T0",
            *PETERSEN_SAMPLE,
            *PRINTED_INTERVAL_ITEMS,
        ],
    )
    def test_stdout_matches_reference_digest(self, capsys, benchmark_items, label):
        code, out, _ = run(capsys, *benchmark_items[label].argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE_DIGESTS[label]

    def test_explore_max_n6_is_byte_identical(self, capsys):
        code, out, err = run(capsys, "explore", "--max-n", "6", "--json")
        assert code == 0
        assert "note: 7 graph(s) inconsistent with the conjecture" in err
        assert hashlib.sha256(out.encode()).hexdigest() == EXPLORE_MAX_N6_SHA256

    @pytest.mark.parametrize("root", sorted(GRID5X5_SHA256))
    def test_find_orientation_5x5_is_byte_identical(self, capsys, root):
        edges = [(v, v + 1) for v in range(25) if v % 5 < 4] + [(v, v + 5) for v in range(20)]
        graph = ";".join(f"{u} {v}" for u, v in sorted(edges))
        code, out, _ = run(capsys, "find-orientation", "-g", graph, "--tree", f"bfs:{root}", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GRID5X5_SHA256[root]
