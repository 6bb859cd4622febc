"""Independent brute-force oracles shared by the mate and acceptance tests.

All edge subsets, bucketed by a cheap invariant, deduplicated by a
permutation backtracking isomorphism test.  Deliberately shares no code
with the canonical-augmentation generator it cross-checks.
"""

from itertools import combinations, permutations

from specgraph.graphs import Graph


def bf_connected(rows, n):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        m = rows[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def bf_invariant(rows, n):
    degs = [bin(r).count("1") for r in rows]
    per_vertex = []
    for v in range(n):
        nbr = tuple(sorted(degs[w] for w in range(n) if rows[v] >> w & 1))
        per_vertex.append((degs[v], nbr))
    return tuple(sorted(per_vertex))


def bf_isomorphic(r1, r2, n):
    d1 = [bin(r).count("1") for r in r1]
    d2 = [bin(r).count("1") for r in r2]
    if sorted(d1) != sorted(d2):
        return False
    image = [-1] * n
    used = [False] * n

    def place(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or d1[v] != d2[w]:
                continue
            ok = True
            for u in range(v):
                if (r1[v] >> u & 1) != (r2[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
        return False

    return place(0)


def bf_class_reps(n, connected=True):
    """One labeled graph (bit rows) per isomorphism class on n vertices,
    only the connected classes unless connected is False."""
    pairs = list(combinations(range(n), 2))
    buckets = {}
    reps = []
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        b = bits
        idx = 0
        while b:
            if b & 1:
                i, j = pairs[idx]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            b >>= 1
            idx += 1
        if connected and not bf_connected(rows, n):
            continue
        key = bf_invariant(rows, n)
        rows_t = tuple(rows)
        for rep in buckets.get(key, []):
            if bf_isomorphic(rows_t, rep, n):
                break
        else:
            buckets.setdefault(key, []).append(rows_t)
            reps.append(rows_t)
    return reps


def brute_force_connected_count(n):
    return len(bf_class_reps(n))


def bf_lex_least(rows, n):
    """The relabeling of rows whose upper-triangle column-major bit string
    (column j = adjacency of vertex j to vertices 0..j-1, read in order)
    is least over all n! vertex orderings."""
    best = None
    for perm in permutations(range(n)):
        key = [rows[perm[j]] >> perm[i] & 1
               for j in range(1, n) for i in range(j)]
        if best is None or key < best[0]:
            best = (key, perm)
    perm = best[1]
    return tuple(sum((rows[perm[i]] >> perm[j] & 1) << j for j in range(n))
                 for i in range(n))


def random_connected(rng, n, p=0.45):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        rows = [0] * n
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        if bf_connected(rows, n):
            return Graph(n, tuple(rows))


def fl_charpoly(matrix):
    """det(M - L*I) coefficients, ascending, by Faddeev-LeVerrier in plain
    Python ints with every division checked; shares no code with
    exactpoly."""
    A = [[int(x) for x in row] for row in matrix]
    n = len(A)
    c = [0] * (n + 1)
    c[n] = 1
    M = [row[:] for row in A]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                M[i][i] += c[n - k + 1]
            M = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        q, r = divmod(-sum(M[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division not exact"
        c[n - k] = q
    return tuple(-x for x in c) if n % 2 else tuple(c)
