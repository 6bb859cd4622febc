"""Helpers shared by the unit and acceptance tests.

Independent brute-force oracles: all edge subsets (those whose vertex
degrees do not increase with the label, by default), bucketed by a cheap
invariant, deduplicated by a permutation backtracking isomorphism test;
queue BFS distances; a bit-list graph6 encoder.
They deliberately share no code with the canonical-augmentation generator
they cross-check.  Also the paper's T(a,b) interval table, checked exactly
on a characteristic polynomial; enumerate_connected, which reads that
generator's output one order at a time; and the decoder of mate's
fingerprints, which tests the charpoly texts the class tables carry.
"""

from itertools import combinations, permutations

from specgraph import forms, mate
from specgraph.exactpoly import IntPoly, root_counts
from specgraph.graphs import Graph, distance_matrix
from specgraph.verify import _TOL, _decimal, _versus


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


def bf_distances(rows, n):
    """All-pairs distances as lists, by one queue BFS per source over
    neighbour lists; None if some vertex is unreachable.  Shares no code
    with graphs.distance_matrix."""
    nbrs = [[w for w in range(n) if rows[v] >> w & 1] for v in range(n)]
    dist = []
    for s in range(n):
        d = [None] * n
        d[s] = 0
        queue = [s]
        for v in queue:
            for w in nbrs[v]:
                if d[w] is None:
                    d[w] = d[v] + 1
                    queue.append(w)
        if None in d:
            return None
        dist.append(d)
    return dist


def bf_graph6(rows, n):
    """The graph6 line of a graph, bit by bit as formats.txt lays it out:
    the size header, then the upper triangle column by column, six bits to
    a byte, most significant first, zero-padded.  Shares no code with
    graphs.to_graph6."""
    if n <= 62:
        out = [n + 63]
    else:
        out = [126] + [(n >> shift & 63) + 63 for shift in (12, 6, 0)]
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        out.append(63 + sum(b << (5 - t) for t, b in enumerate(bits[k:k + 6])))
    return bytes(out).decode("ascii")


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


def bf_class_reps(n, connected=True, degree_sorted=True):
    """One labeled graph (bit rows) per isomorphism class on n vertices,
    only the connected classes unless connected is False.  With
    degree_sorted, only labelings whose degrees do not increase from
    vertex 0 to vertex n-1 are tried: relabeling by decreasing degree
    gives every class one, and the filter prunes most of the 2^(n(n-1)/2)
    subsets before the costlier tests.  The subsets are walked in reflected
    Gray-code order: step s toggles the edge at the lowest set bit of s,
    which changes two rows and two degrees."""
    pairs = list(combinations(range(n), 2))
    buckets = {}
    reps = []
    rows = [0] * n
    degs = [0] * n
    for step in range(1 << len(pairs)):
        if step:
            i, j = pairs[(step & -step).bit_length() - 1]
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
            d = 1 if rows[i] >> j & 1 else -1
            degs[i] += d
            degs[j] += d
        if degree_sorted and degs != sorted(degs, reverse=True):
            continue
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
    """A connected graph of order n, each edge drawn with probability p;
    the edges are redrawn until the graph is connected."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        rows = [0] * n
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        if bf_connected(rows, n):
            return Graph(n, tuple(rows))


def largest_distance(g):
    return max(max(row) for row in distance_matrix(g))


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


def interval_table_violations(p):
    """The rows of T(a,b)'s interval table (forms) that the real-rooted
    order-n charpoly p violates, decided exactly by root counts: a printed
    4-decimal end gets PAPER_TOL of slack, 0 and the open ends none, and
    lambda_5..lambda_{n-1} = -2 is the multiplicity of -2 being n - 5 (with
    lambda_4 > -2 > lambda_n from the other rows)."""
    n = p.degree
    bad = []
    if _versus(p, 1, _decimal(forms.LAMBDA1_LOW) - _TOL) < 0:
        bad.append(f"lambda1 below {forms.LAMBDA1_LOW}")
    for k, low, high in ((2, forms.LAMBDA2_LOW, forms.LAMBDA2_HIGH),
                         (3, forms.LAMBDA3_LOW, forms.LAMBDA3_HIGH),
                         (4, forms.LAMBDA4_LOW, forms.LAMBDA4_HIGH)):
        if (_versus(p, k, _decimal(low) - _TOL) < 0
                or _versus(p, k, high) >= 0):
            bad.append(f"lambda{k} outside [{low}, {high})")
    mult = root_counts(p, -2)[1]
    if mult != n - 5:
        bad.append(f"-2 has multiplicity {mult}, not {n - 5}")
    if _versus(p, n, _decimal(forms.LAMBDA_N_HIGH) + _TOL) > 0:
        bad.append(f"lambda_n above {forms.LAMBDA_N_HIGH}")
    return bad


def enumerate_connected(n):
    """The built-in generator's one graph per class of connected graphs on
    n vertices, 1 <= n <= 9."""
    yield from mate._connected_children(mate._parents(n))


def decode_fingerprint(fp: bytes) -> tuple[int, ...]:
    """Charpoly coefficients, degree-descending, of a mate fingerprint."""
    coeffs = []
    i = 0
    while i < len(fp):
        length = fp[i]
        coeffs.append(int.from_bytes(fp[i + 1:i + 1 + length], "big",
                                     signed=True))
        i += 1 + length
    return tuple(coeffs)


def fingerprint_text(fp: bytes) -> str:
    """The charpoly text of a mate fingerprint."""
    return IntPoly(tuple(reversed(decode_fingerprint(fp)))).text()
