"""Matching counts and the matching polynomial."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .errors import ComputationDefect
from .graphs import Graph
from .polynomials import AlgebraicRoot, IntPoly, isolate_largest_root


@dataclass(frozen=True)
class MatchingProfile:
    """counts[k] is the number of k-edge matchings; counts[0] is always 1."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts or self.counts[0] != 1:
            raise ValueError("a matching profile starts with the empty matching")

    @property
    def max_size(self) -> int:
        return len(self.counts) - 1


@functools.lru_cache(maxsize=1)
def induced_matching_polynomials(g: Graph) -> Callable[[int], tuple[int, ...]]:
    """mu(G[U]) for the vertex masks U of g (bit v for vertex v).

    The returned function gives the ascending coefficients of the matching
    polynomial of the subgraph induced on U, of degree |U|, by expanding at
    the lowest vertex v of U:

        mu(U) = x mu(U - v) - sum_{w in N(v) & U} mu(U - v - w).

    Every mask met is memoised for the life of the function, so one function
    serves all the vertex-deleted subgraphs of one graph.  The function of
    the last graph asked for is kept with its memo, so one recursion serves
    every caller on an equal graph (`Graph` hashes by value).
    """
    neighbours = [sum(1 << w for w in a) for a in g.adjacency]
    memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def mu(mask: int) -> tuple[int, ...]:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        rest = mask ^ low
        out = [0, *mu(rest)]
        others = neighbours[low.bit_length() - 1] & rest
        while others:
            w = others & -others
            others ^= w
            for k, c in enumerate(mu(rest ^ w)):
                out[k] -= c
        result = memo[mask] = tuple(out)
        return result

    return mu


def matching_counts(g: Graph) -> MatchingProfile:
    """Count matchings of every size: m_k is (-1)^k times the coefficient of
    x^(n-2k) in the matching polynomial."""
    mu = induced_matching_polynomials(g)((1 << g.n) - 1)
    counts = [(-1) ** k * mu[g.n - 2 * k] for k in range(g.n // 2 + 1)]
    while counts[-1] == 0:
        counts.pop()
    return MatchingProfile(tuple(counts))


def matching_polynomial(g: Graph) -> IntPoly:
    """mu(x) = sum_k (-1)^k m_k x^(n-2k)."""
    return IntPoly(induced_matching_polynomials(g)((1 << g.n) - 1))


def matching_radius(g: Graph) -> AlgebraicRoot:
    """Largest root of the matching polynomial (needs at least one vertex)."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    mu = matching_polynomial(g)
    # mu is even or odd with the parity of n; cheap sanity assertion before
    # trusting its largest root as a two-sided spectral bound
    expected = mu if g.n % 2 == 0 else -mu
    if mu.reflected() != expected:
        raise ComputationDefect("matching polynomial lost its parity symmetry")
    return isolate_largest_root(mu)
