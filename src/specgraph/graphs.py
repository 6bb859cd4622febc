"""Small simple graphs as bit-row adjacency, with the named-graph catalog.

Vertices are 0..n-1 and each adjacency row is one Python int used as a
bitmask, so n is capped at 64.  Everything here is immutable and pure:
graphs, distance matrices (all n breadth-first searches grown at once as
one n*n-bit int of balls, the levels counted in byte lanes), the graph6
codec and the one isomorphism engine, a canonical labeling search whose
form decides isomorphism and whose automorphism generators drive
generation in specgraph.mate.

Named families:

    T:a,b   extended double star: centers of K_{1,a} and K_{1,b} joined
            to a common middle vertex.  Canonical labeling is
            (center1, middle, center2, a leaves, b leaves) so that the
            distance matrix comes out in the standard block layout.
    S:a,b   double star (centers joined by an edge)
    P:n C:n K:n   path, cycle, complete graph
    H1..H7, P6    the six-vertex obstructions (path v1..v5 plus one
                  extra vertex with a prescribed attachment)
    F1..F3, K4, F4   the diameter-3 obstructions (P4 plus attachments)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

MAX_VERTICES = 64


class GraphError(ValueError):
    pass


class DisconnectedError(GraphError):
    """Raised by operations that require a connected graph."""


class Graph6Error(GraphError):
    """Malformed graph6 input; carries the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on n <= 64 vertices, adjacency as bit rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise GraphError("row count does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise GraphError(f"row {i} has bits beyond vertex range")
            if row >> i & 1:
                raise GraphError(f"self-loop at vertex {i}")
        # every set bit (i, j) needs its mirror (j, i): O(edges)
        rows = self.rows
        for i, row in enumerate(rows):
            while row:
                low = row & -row
                row ^= low
                j = low.bit_length() - 1
                if not rows[j] >> i & 1:
                    raise GraphError("adjacency not symmetric at "
                                     f"({min(i, j)},{max(i, j)})")

    @classmethod
    def _unchecked(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph from rows that are valid by construction, without
        __post_init__'s checks: for decoders and generators whose rows
        are symmetric, loop-free and within n <= 64 vertices."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return bin(self.rows[v]).count("1")

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.rows[i] >> j & 1]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


# ---------------------------------------------------------------------------
# graph6 codec (formats.txt layout: 6-bit groups, bias-63 printable bytes,
# upper-triangle column-major bit order, zero padding)

def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 63..258047 use the 126-prefixed 18-bit form; we only ever need 63..64
    return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])


# a 6-bit group with its bit order reversed: graph6 puts the first edge bit
# of a group in its high bit, the packed edge int below in its low bit
_REV6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    # bit k of edges is edge bit k: column j holds (i, j) for i < j
    edges = 0
    k = 0
    for j in range(1, g.n):
        edges |= (g.rows[j] & (1 << j) - 1) << k
        k += j
    out = bytearray(_g6_header(g.n))
    out += bytes(_REV6[edges >> s & 63] + 63 for s in range(0, k, 6))
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line.  Raises Graph6Error with a byte offset."""
    raw = text.rstrip("\r\n")
    if not raw:
        raise Graph6Error("empty input", 0)
    try:
        data = raw.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"character {raw[exc.start]!r} outside graph6 "
                          "range 63..126", exc.start) from None
    if min(data) < 63 or max(data) > 126:
        off, byte = next((off, byte) for off, byte in enumerate(data)
                         if not 63 <= byte <= 126)
        raise Graph6Error(f"byte {byte!r} outside graph6 range 63..126", off)
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graphs beyond 258047 vertices unsupported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated extended size header", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_off = 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_off = 1
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 1..{MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error("body shorter than the edge bit count requires",
                          body_off + len(body))
    if len(body) > nbytes:
        raise Graph6Error("trailing bytes after edge bits", body_off + nbytes)
    edges = 0
    for byte in reversed(body):
        edges = edges << 6 | _REV6[byte - 63]
    # padding bits must be zero
    if edges >> nbits:
        raise Graph6Error("nonzero padding bits", body_off + nbytes - 1)
    rows = [0] * n
    k = 0
    for j in range(1, n):
        col = edges >> k & (1 << j) - 1
        k += j
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return Graph._unchecked(n, tuple(rows))


# ---------------------------------------------------------------------------
# named-graph catalog

def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _extended_double_star(a: int, b: int) -> Graph:
    # labeling: 0 = center1, 1 = middle, 2 = center2, then a leaves, b leaves
    if a < 0 or b < 0:
        raise GraphError("double-star sizes must be nonnegative")
    edges = [(0, 1), (1, 2)]
    edges += [(0, 3 + i) for i in range(a)]
    edges += [(2, 3 + a + j) for j in range(b)]
    return Graph.from_edges(a + b + 3, edges)


def _double_star(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise GraphError("double-star sizes must be nonnegative")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + j) for j in range(b)]
    return Graph.from_edges(a + b + 2, edges)


# six-vertex obstructions: path v0..v4 plus v5 attached to the listed vertices
_H_ATTACH = {
    "H1": (0, 1, 2, 3, 4),
    "H2": (0, 1, 2, 3),
    "H3": (1, 2, 3),
    "H4": (0, 1, 2),
    "H5": (1, 2),
    "H6": (0, 1),
    "H7": (2,),
}

# diameter-3 obstructions: path v0..v3 plus v4 attached to the listed vertices
_F_ATTACH = {
    "F1": (0, 1, 2, 3),
    "F2": (0, 1, 2),
    "F3": (0, 1),
}


def named_graph(family: str, *params: int) -> Graph:
    """Build a catalog graph: T/S take (a, b); P/C/K take n; H*, F*, P6, K4
    take no parameters."""
    fam = family.upper() if family[:1] in "tspck" else family
    if fam == "T":
        (a, b) = params
        return _extended_double_star(a, b)
    if fam == "S":
        (a, b) = params
        return _double_star(a, b)
    if fam == "P":
        (n,) = params
        if n < 1:
            raise GraphError("P_n requires n >= 1")
        return Graph.from_edges(n, _path_edges(n))
    if fam == "C":
        (n,) = params
        if n < 3:
            raise GraphError("C_n requires n >= 3")
        return Graph.from_edges(n, _path_edges(n) + [(n - 1, 0)])
    if fam == "K":
        (n,) = params
        if n < 1:
            raise GraphError("K_n requires n >= 1")
        return Graph.from_edges(n, list(combinations(range(n), 2)))
    if params:
        raise GraphError(f"family {family!r} takes no parameters")
    if fam in _H_ATTACH:
        edges = _path_edges(5) + [(v, 5) for v in _H_ATTACH[fam]]
        return Graph.from_edges(6, edges)
    if fam in _F_ATTACH:
        edges = _path_edges(4) + [(v, 4) for v in _F_ATTACH[fam]]
        return Graph.from_edges(5, edges)
    if fam == "P6":
        return Graph.from_edges(6, _path_edges(6))
    if fam == "K4":
        return named_graph("K", 4)
    if fam == "F4":
        # path v0..v3 plus six vertices each adjacent to v1 and v2
        edges = _path_edges(4)
        for v in range(4, 10):
            edges += [(1, v), (2, v)]
        return Graph.from_edges(10, edges)
    raise GraphError(f"unknown graph family {family!r}")


# ---------------------------------------------------------------------------
# reachability and distances

def _bfs_reach(rows, start: int, within: int = -1) -> int:
    """Bitmask of the vertices reachable from start over bit rows, through
    the vertices of the mask within only."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= rows[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    return _bfs_reach(g.rows, 0) == (1 << g.n) - 1


_BITS_TO_LANES = bytes.maketrans(b"01", b"\0\1")


def _lanes(mask: int, spec: str) -> int:
    """The bits of mask spread one to a byte: bit k becomes byte lane k,
    for spec the zero-padded binary format of the mask's width."""
    return int.from_bytes(
        format(mask, spec).encode().translate(_BITS_TO_LANES), "big")


@lru_cache(maxsize=MAX_VERTICES)
def _ball_constants(n: int) -> tuple[str, int, int, int, int]:
    """For order n: the n*n-bit format spec, the full mask, col0 (bit s*n
    for every s), the identity (bit s*n+s) and the byte lanes of the
    identity's complement, the k = 0 term of every distance."""
    spec = f"0{n * n}b"
    full = (1 << n * n) - 1
    eye = ((1 << n * n + n) - 1) // ((1 << n + 1) - 1)
    return spec, full, full // ((1 << n) - 1), eye, _lanes(full ^ eye, spec)


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distances as a tuple of int tuples, from all n
    breadth-first searches at once.

    The balls B_k(s) = {v : d(s, v) <= k} sit in one n*n-bit int, row s
    at bits s*n .. s*n+n-1.  B_1 = I | A, and

        B_{k+1} = B_k | OR_v ((B_k >> v) & col0) * rows[v],

    where col0 holds bit s*n for every s: (B_k >> v) & col0 marks each
    row s whose ball holds v, and the product drops v's neighbourhood
    into every such row.  rows[v] < 2^n, so the shifted copies occupy
    disjoint rows and no carry crosses into the next one.

    Then d(s, v) = #{k >= 0 : v not in B_k(s)}.  Each level's complement
    is added as one byte lane per bit (lane s*n+v), and a lane never
    exceeds the largest distance, at most 63 < 256, so lanes never spill
    into their neighbours.  The search stops when B is full; a level
    that does not grow B before then means a disconnected graph.
    """
    n = g.n
    rows = g.rows
    spec, full, col0, eye, acc = _ball_constants(n)
    adjacency = 0
    for row in reversed(rows):
        adjacency = adjacency << n | row
    ball = eye | adjacency
    while ball != full:
        acc += _lanes(full ^ ball, spec)
        grown = ball
        for v, row in enumerate(rows):
            grown |= (ball >> v & col0) * row
        if grown == ball:
            raise DisconnectedError("distance matrix requires a connected graph")
        ball = grown
    return tuple(zip(*[iter(acc.to_bytes(n * n, "little"))] * n))


# ---------------------------------------------------------------------------
# canonical labeling (McKay & Piperno, "Practical graph isomorphism II",
# J. Symbolic Comput. 60, 2014)

def _nbr_key(rows, deg, u):
    """Degree of u, then the multiset of its neighbours' degrees, as one
    integer that compares the degree first: the degree from bit 64 up,
    below it a 4-bit count of neighbours per degree (exact up to order
    16, and an invariant of u at any order)."""
    key = deg[u] << 64
    m = rows[u]
    while m:
        low = m & -m
        m ^= low
        key += 1 << 4 * deg[low.bit_length() - 1]
    return key


def _refine(rows, cells, active):
    """The equitable refinement of the ordered partition cells (vertex
    bitmasks), splitting by each splitter popped from active.

    A cell splits by the number of neighbours its vertices have in the
    splitter; the fragments take its place in ascending order of that
    count and become splitters in turn.  No step looks at vertex numbers,
    so relabeling the graph and the partition relabels the result.
    """
    while active:
        sp = active.pop()
        out = []
        for c in cells:
            if c & (c - 1):
                parts: dict[int, int] = {}
                m = c
                while m:
                    low = m & -m
                    m ^= low
                    k = (rows[low.bit_length() - 1] & sp).bit_count()
                    parts[k] = parts.get(k, 0) | low
                if len(parts) > 1:
                    frags = [parts[k] for k in sorted(parts)]
                    out += frags
                    active += frags
                    continue
            out.append(c)
        cells = out
    return cells


def _search(rows, cells):
    """Canonical labeling search from an equitable ordered partition that
    every automorphism preserves.

    Individualize a vertex of the first non-singleton cell, refine, and
    recurse; the canonical leaf is the one with the greatest relabeled
    rows.  At a node on the first path, a child in the orbit of an
    explored child is skipped.  A leaf that relabels the rows as the
    first or the best leaf did yields an automorphism; only a match with
    the first leaf ends the search back to the first path, because the
    best leaf's path may part from it deeper down.  The automorphisms
    found generate the whole group.

    Returns the canonical leaf as (labeling, certificate), the
    generators and the orbit finder.
    """
    n = len(rows)
    uf = list(range(n))
    gens = []
    first = best = None  # (labeling, relabeled rows)

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def leaf(cells):
        """True when the leaf matched the first leaf."""
        nonlocal first, best
        lab = [c.bit_length() - 1 for c in cells]
        pos = [0] * n
        for i, v in enumerate(lab):
            pos[v] = i
        cert = []
        for v in lab:
            r = 0
            m = rows[v]
            while m:
                low = m & -m
                m ^= low
                r |= 1 << pos[low.bit_length() - 1]
            cert.append(r)
        if first is None:
            first = best = (lab, cert)
            return False
        for ref, ref_cert in (first, best):
            if cert == ref_cert:
                perm = [0] * n
                for a, b in zip(ref, lab):
                    perm[a] = b
                gens.append(tuple(perm))
                for a, b in enumerate(perm):
                    a, b = find(a), find(b)
                    if a != b:
                        uf[a] = b
                return ref is first[0]
        if cert > best[1]:
            best = (lab, cert)
        return False

    def visit(cells, on_first):
        """True when a first-leaf match ended the search below a node off
        the first path."""
        t = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if t is None:
            return leaf(cells)
        cell = cells[t]
        explored: list[int] = []
        m = cell
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if on_first and explored:
                root = find(w)
                if any(find(u) == root for u in explored):
                    continue
            found = visit(_refine(rows, cells[:t] + [low, cell ^ low]
                                  + cells[t + 1:], [low]),
                          on_first and not explored)
            explored.append(w)
            if found and not on_first:
                return True
        return False

    visit(cells, True)
    return best, gens, find


def canonical_form(g: Graph) -> tuple[int, ...]:
    """The rows of g relabeled by its canonical labeling: equal for two
    graphs of one order iff they are isomorphic.

    The search starts from the equitable refinement of the partition into
    cells of equal _nbr_key, in ascending key order.
    """
    rows = g.rows
    deg = [r.bit_count() for r in rows]
    keyed: dict[int, int] = {}
    for u in range(g.n):
        key = _nbr_key(rows, deg, u)
        keyed[key] = keyed.get(key, 0) | 1 << u
    cells = [keyed[key] for key in sorted(keyed)]
    (_, cert), _, _ = _search(rows, _refine(rows, cells, cells[:]))
    return tuple(cert)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)
