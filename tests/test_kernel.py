import random

import pytest

import oracles
from orispec import kernel
from orispec.errors import ComputationDefect


def random_unit_hermitian(rng: random.Random, n: int):
    re = [0] * (n * n)
    im = [0] * (n * n)
    for u in range(n):
        for v in range(u + 1, n):
            kind = rng.randrange(4)
            if kind == 1:
                re[u * n + v] = re[v * n + u] = 1
            elif kind == 2:
                im[u * n + v] = 1
                im[v * n + u] = -1
            elif kind == 3:
                im[u * n + v] = -1
                im[v * n + u] = 1
    return re, im


class TestPureKernel:
    def test_empty_and_single(self):
        assert kernel.charpoly_flat([], [], 0) == [1]
        assert kernel.charpoly_flat([0], [0], 1) == [0, 1]

    def test_single_edge(self):
        # H = [[0,1],[1,0]] -> x^2 - 1
        assert kernel.charpoly_flat([0, 1, 1, 0], [0, 0, 0, 0], 2) == [-1, 0, 1]

    def test_single_arc(self):
        # H = [[0,i],[-i,0]] has the same spectrum as an edge
        assert kernel.charpoly_flat([0, 0, 0, 0], [0, 1, -1, 0], 2) == [-1, 0, 1]

    def test_matches_interpolation_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 6)
            re, im = random_unit_hermitian(rng, n)
            assert kernel.charpoly_flat(re, im, n) == oracles.charpoly_by_interpolation(re, im, n)

    def test_rejects_non_hermitian(self):
        # A = [[0, i], [1, 0]]: A^2 = iI, so a power trace goes complex
        re = [0, 0, 1, 0]
        im = [0, 1, 0, 0]
        with pytest.raises(ComputationDefect):
            kernel.charpoly_flat(re, im, 2)

    def test_sum_orientations_equals_loop(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 5)
            re, im = random_unit_hermitian(rng, n)
            free = [(u, v) for u in range(n) for v in range(u + 1, n) if re[u * n + v] == 0 and im[u * n + v] == 0]
            free = free[:3]
            tails = [e[0] for e in free]
            heads = [e[1] for e in free]
            total = kernel.sum_orientations_flat(re, im, n, tails, heads)
            # direct reference: loop over sign tuples, sum charpolys
            expect = [0] * (n + 1)
            for mask in range(1 << len(free)):
                im2 = list(im)
                for j, (u, v) in enumerate(free):
                    s = 1 if (mask >> j) & 1 == 0 else -1
                    im2[u * n + v] = s
                    im2[v * n + u] = -s
                for i, c in enumerate(kernel.charpoly_flat(re, im2, n)):
                    expect[i] += c
            assert total == expect


class TestDispatch:
    """The validated public entries of the one (pure) kernel."""

    def test_backend_reports(self):
        assert kernel.backend_name() == "pure"

    def test_dispatch_large_n_uses_pure(self):
        # no order limit: arbitrary-precision arithmetic throughout
        n = 14
        re = [0] * (n * n)
        im = [0] * (n * n)
        for v in range(1, n):
            re[0 * n + v] = re[v * n + 0] = 1  # star K_{1,13}
        got = kernel.charpoly_flat(re, im, n)
        assert got[n] == 1
        # star spectrum: +-sqrt(13) and zeros -> x^14 - 13x^12
        assert got[n - 2] == -13
        assert all(c == 0 for i, c in enumerate(got) if i not in (n, n - 2))

    def test_dispatch_non_unit_entries_use_pure(self):
        # entries need not be Gaussian units
        re = [0, 2, 2, 0]
        im = [0, 0, 0, 0]
        assert kernel.charpoly_flat(re, im, 2) == [-4, 0, 1]

    def test_flat_validation(self):
        with pytest.raises(ValueError):
            kernel.charpoly_flat([0, 1], [0, 0], 2)
