"""Seeded graph6 input for the ``stream10`` workload, and the exact
distance charpoly each line must be classed under.

Every graph is connected and has ORDER vertices: a uniformly random labeled
tree (a random Pruefer sequence) plus a uniformly random number of extra
edges, from none (a tree) to every missing edge (K10).  Sparse graphs keep
a large diameter, so a few percent of the lines have a largest distance
above 5, where the program's int64 fingerprint bound fails at order 10.

This module encodes graph6, builds distance matrices and computes
characteristic polynomials itself, and imports nothing from the program,
so neither the input nor the expected classes depend on the code under
test.  The same seed gives byte-identical output.
"""

from __future__ import annotations

import random
from itertools import combinations
from operator import mul

ORDER = 10
PAIRS = list(combinations(range(ORDER), 2))


def random_connected_graph(rng: random.Random) -> list[tuple[int, int]]:
    """Edge list of a random tree on ORDER vertices plus random extra edges."""
    prufer = [rng.randrange(ORDER) for _ in range(ORDER - 2)]
    degree = [1] * ORDER
    for v in prufer:
        degree[v] += 1
    edges = set()
    for v in prufer:
        leaf = min(u for u in range(ORDER) if degree[u] == 1)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(ORDER) if degree[x] == 1)
    edges.add((u, w))
    missing = [p for p in PAIRS if p not in edges]
    extra = rng.randint(0, len(missing))
    edges.update(rng.sample(missing, extra))
    return sorted(edges)


def to_graph6(n: int, edges) -> str:
    """graph6 line: bias-63 header, upper triangle column-major, 6-bit
    groups with zero padding."""
    adjacent = set(edges)
    bits = [1 if (i, j) in adjacent else 0
            for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[k:k + 6])), 2)
            for k in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(map(chr, body))


def random_graphs(seed: int, count: int) -> list[list[tuple[int, int]]]:
    rng = random.Random(seed)
    return [random_connected_graph(rng) for _ in range(count)]


def distance_matrix(n: int, edges) -> list[list[int]]:
    """Shortest-path distances by BFS from every vertex; ValueError if the
    graph is disconnected."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if -1 in dist:
            raise ValueError("graph is disconnected")
        rows.append(dist)
    return rows


def charpoly(matrix) -> tuple[int, ...]:
    """Coefficients of det(L*I - M), degree-descending, over Python ints.

    Faddeev-LeVerrier: with B = A*M_{k-1}, c_k = -tr(B)/k and
    M_k = B + c_k*I, starting from M_0 = I.  Each division is exact.
    """
    n = len(matrix)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        columns = list(zip(*m))
        b = [[sum(map(mul, row, col)) for col in columns] for row in matrix]
        c, rest = divmod(-sum(b[i][i] for i in range(n)), k)
        if rest:
            raise ArithmeticError("Faddeev-LeVerrier division not exact")
        coeffs.append(c)
        for i in range(n):
            b[i][i] += c
        m = b
    return tuple(coeffs)
