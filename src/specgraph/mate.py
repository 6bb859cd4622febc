"""Isomorphism-free enumeration of small graphs and the cospectral-mate
search.

Generation is orderly: a labeled graph is kept iff its labeling is the
lexicographically least one (upper-triangle column-major bit string over
all vertex orderings, decided by branch-and-bound with early exit, twin
pruning and automorphism-orbit pruning at the root).  Deleting the last
vertex of a lex-least labeling leaves a lex-least labeling, so extending
every canonical graph by one vertex and keeping the canonical children
enumerates every isomorphism class exactly once with no seen-set.  Because
the lex-least parent of a connected graph may be disconnected, generation
runs over all graphs and connectivity is filtered at yield time.

Work is shared per parent.  The automorphisms the parent's own canonical
test found (orbit-merging leaves and twin transpositions) stay with it, and
of each orbit of attachment subsets under them only the subset giving the
least new column is tested: relabeling the child by an automorphism that
fixes the new vertex changes nothing but that column, so no other subset
of the orbit can give a lex-least child.  The parent's columns and
per-vertex lanes are built once and each child adds one bit per lane.
Every subset still tested gets the full lex-least search, so the kept
labelings are exactly those of the unpruned generator.

Cospectrality is decided exactly: the fingerprint is the coefficient
vector of the distance characteristic polynomial, encoded degree-descending
as length-prefixed two's-complement bytes.  Equal fingerprints therefore
mean identical exact charpolys; no float ever touches a classing decision.
Fingerprinting is one exactpoly.charpoly_rows call per chunk: every matrix
whose largest entry a rigorously computed magnitude bound admits goes
through one int64 batch, and all the others through one batch modulo
word-size primes lifted exactly by the Chinese remainder theorem, so a few
large-diameter graphs do not slow down the rest of their chunk.

Both class tables run one pipeline: a source of tasks, one worker that
fingerprints a task's graphs a chunk at a time, and one merge in the
parent.  The built-in source is level n-1 cut into slices of parents,
each task generating its own connected children; the graph6 source is the
stream cut into chunks as it is read, so on a pool the workers start on
the first chunks while the rest are still being parsed.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import islice
from multiprocessing import get_context

from .exactpoly import IntPoly, charpoly_rows
from .graphs import (
    Graph,
    _bfs_reach,
    distance_matrix,
    from_graph6,
    is_isomorphic,
    named_graph,
    to_graph6,
)
from .verify import VerificationResult

BUILTIN_MAX_ORDER = 9
_CHUNK = 4096


# ---------------------------------------------------------------------------
# orderly generation

@cache
def _subset_tables(k: int) -> tuple[list[int], list[int]]:
    """Per-k tables over attachment subsets S of a k-vertex parent.

    col[S] is the new vertex's column (bit i of S becomes bit k-1-i; the
    map is its own inverse), lane[S] puts bit i of S into lane i.
    """
    col = [int(f"{s:0{k}b}"[::-1], 2) for s in range(1 << k)]
    lane = [0] * (1 << k)
    for s in range(1, 1 << k):
        low = s & -s
        lane[s] = lane[s ^ low] | 1 << ((low.bit_length() - 1) << 4)
    return col, lane


def _canonical_search(rows, targets, spread):
    """Lex-least test of one labeling: None if some vertex ordering gives
    a smaller column-major bit string, otherwise the automorphisms the
    search found (orbit-merging leaves and twin transpositions).

    Lane w of packed holds vertex w's column against the ordering chosen
    so far, in 16 bits; targets[d] is the identity's column d repeated in
    every lane, spread[v] puts bit v of each row in that row's lane, and
    free holds bit 15 of the lane of every vertex not yet placed.  Lanes
    never exceed 10 bits, so one subtraction compares every lane with the
    target without a borrow crossing lanes.
    """
    n = len(rows)
    lo = ((1 << (n << 4)) - 1) // 0xFFFF
    hi = lo << 15
    uf = list(range(n))
    order = [0] * n
    gens = []
    twins = set()

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def dfs(depth, free, packed):
        if depth == n:
            merged = False
            for pos in range(n):
                a, b = find(pos), find(order[pos])
                if a != b:
                    uf[a] = b
                    merged = True
            if merged:
                gens.append(tuple(order))
            return True
        t = targets[depth]
        if ((packed | hi) - t) & free != free:
            # a free lane is below the target: a strictly smaller string
            # exists under the equal prefix
            return False
        ties = free & ~(((packed ^ t) | hi) - lo)
        if not ties & (ties - 1):
            if not ties:
                return True
            v = (ties.bit_length() >> 4) - 1
            order[depth] = v
            return dfs(depth + 1, free ^ ties, (packed << 1) | spread[v])
        tried: list[int] = []
        while ties:
            bit = ties & -ties
            ties ^= bit
            v = (bit.bit_length() >> 4) - 1
            if depth == 0:
                root = find(v)
                if any(find(u) == root for u in tried):
                    continue
            for u in tried:
                if (rows[u] ^ rows[v]) & ~(1 << u | 1 << v) == 0:
                    twins.add((u, v))
                    break
            else:
                tried.append(v)
                order[depth] = v
                if not dfs(depth + 1, free ^ bit, (packed << 1) | spread[v]):
                    return False
        return True

    if not dfs(0, hi, 0):
        return None
    for u, v in sorted(twins):
        perm = list(range(n))
        perm[u], perm[v] = v, u
        gens.append(tuple(perm))
    return gens


def _attachment_reps(k: int, gens, col) -> list[int] | range:
    """Attachment subsets whose new column is least in their orbit under
    the group the automorphisms gens generate, ascending.

    Relabeling a child P+S by an automorphism of P that fixes the new
    vertex keeps every prefix column and turns the last one into
    col(sigma(S)), so only the orbit's least column can be lex-least.
    """
    size = 1 << k
    if not gens:
        return range(size)
    images = []
    for g in gens:
        img = [0] * size
        for s in range(1, size):
            low = s & -s
            img[s] = img[s ^ low] | 1 << g[low.bit_length() - 1]
        images.append(img)
    seen = bytearray(size)
    reps = []
    for c in range(size):
        s = col[c]
        if seen[s]:
            continue
        seen[s] = 1
        reps.append(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for img in images:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    reps.sort()
    return reps


def _canonical_children(rows: tuple[int, ...], gens):
    """The canonical one-vertex extensions of a canonical labeling, each
    with the automorphisms its test found, in attachment-subset order.

    gens are automorphisms of the parent; passing none tests every
    subset.  The parent's columns and lanes are built once; a child adds
    one bit to each lane and takes the new vertex's lane from a table.
    """
    k = len(rows)
    col, lane = _subset_tables(k)
    lo = ((1 << ((k + 1) << 4)) - 1) // 0xFFFF
    targets = []
    for j in range(k):
        c = 0
        for i in range(j):
            c = (c << 1) | (rows[j] >> i & 1)
        targets.append(c * lo)
    spread = [
        sum(((rows[w] >> v) & 1) << (w << 4) for w in range(k))
        for v in range(k)
    ]
    top = k << 4
    for s in _attachment_reps(k, gens, col):
        child = tuple(
            r | ((s >> i & 1) << k) for i, r in enumerate(rows)) + (s,)
        lanes = [sp | ((s >> v & 1) << top) for v, sp in enumerate(spread)]
        lanes.append(lane[s])
        found = _canonical_search(child, targets + [col[s] * lo], lanes)
        if found is not None:
            yield child, found


def _canonical_level(n: int) -> list[tuple[tuple[int, ...], list]]:
    """All canonical labeled graphs on exactly n vertices, each with the
    automorphisms its canonical test found; level 0 is the empty graph."""
    level = [((), [])]
    for _ in range(n):
        level = [c for rows, gens in level
                 for c in _canonical_children(rows, gens)]
    return level


def _connected_children(parents):
    """Connected canonical children of (rows, automorphisms) parents."""
    for rows, gens in parents:
        for child, _ in _canonical_children(rows, gens):
            if _bfs_reach(child, 0) == (1 << len(child)) - 1:
                yield Graph(len(child), child)


def enumerate_connected(n: int):
    """One representative per isomorphism class of connected graphs on n
    vertices, for 1 <= n <= 9."""
    if not 1 <= n <= BUILTIN_MAX_ORDER:
        raise ValueError(
            f"built-in generation covers 1..{BUILTIN_MAX_ORDER} vertices; "
            "supply an external graph6 stream for larger orders")
    yield from _connected_children(_canonical_level(n - 1))


# ---------------------------------------------------------------------------
# fingerprints

def _encode_coeffs(desc) -> bytes:
    out = bytearray()
    for c in desc:
        c = int(c)
        b = c.to_bytes(max(1, (c.bit_length() + 8) // 8), "big", signed=True)
        out.append(len(b))
        out.extend(b)
    return bytes(out)


def decode_fingerprint(fp: bytes) -> tuple[int, ...]:
    """Charpoly coefficients, degree-descending."""
    coeffs = []
    i = 0
    while i < len(fp):
        length = fp[i]
        coeffs.append(int.from_bytes(fp[i + 1:i + 1 + length], "big",
                                     signed=True))
        i += 1 + length
    return tuple(coeffs)


def fingerprint_text(fp: bytes) -> str:
    desc = decode_fingerprint(fp)
    return IntPoly(tuple(reversed(desc))).text()


def _fingerprints(dists: list) -> list[bytes]:
    """Fingerprints of equal-size distance matrices, in input order."""
    if not dists:
        return []
    return [_encode_coeffs(row[::-1]) for row in charpoly_rows(dists)]


def fingerprint(g: Graph) -> bytes:
    """Canonical byte encoding of the exact distance charpoly; equal bytes
    iff equal polynomials, invariant under relabeling."""
    return _fingerprints([distance_matrix(g)])[0]


# ---------------------------------------------------------------------------
# classing

@dataclass
class CospectralClasses:
    order: int
    classes: dict[bytes, tuple[str, ...]]
    total: int

    def _by_charpoly(self) -> list[tuple[str, bytes, tuple[str, ...]]]:
        """(charpoly text, fingerprint, members) per class, ordered by the
        text, which is rendered once per class."""
        rows = [(fingerprint_text(fp), fp, members)
                for fp, members in self.classes.items()]
        rows.sort(key=lambda row: row[0])
        return rows

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "order": self.order,
            "total_graphs": self.total,
            "class_count": len(self.classes),
            "classes": [
                {"charpoly": text, "members": list(members)}
                for text, _, members in self._by_charpoly()
            ],
        }

    def to_csv(self) -> str:
        lines = ["fingerprint,size"]
        for _, fp, members in self._by_charpoly():
            digest = hashlib.sha256(fp).hexdigest()[:16]
            lines.append(f"{digest},{len(members)}")
        return "\n".join(lines) + "\n"


def _finish(order: int, acc: dict, total: int) -> CospectralClasses:
    classes = {fp: tuple(sorted(members))
               for fp, members in sorted(acc.items())}
    return CospectralClasses(order, classes, total)


def _pool_size(jobs: int) -> int:
    """Worker count for jobs: at least one, at most one per CPU."""
    return max(1, min(jobs, os.cpu_count() or 1))


def _class_part(graphs) -> tuple[int, dict]:
    """Graph count and fingerprint -> graph6 members of an iterable of
    graphs, fingerprinted _CHUNK at a time."""
    part: dict[bytes, list[str]] = {}
    count = 0
    graphs = iter(graphs)
    while chunk := list(islice(graphs, _CHUNK)):
        fps = _fingerprints([distance_matrix(g) for g in chunk])
        for g, fp in zip(chunk, fps):
            part.setdefault(fp, []).append(to_graph6(g))
        count += len(chunk)
    return count, part


def _children_part(parents) -> tuple[int, dict]:
    """The built-in task: the class part of a parent slice's connected
    children."""
    return _class_part(_connected_children(parents))


def _classify(work, tasks, jobs: int) -> tuple[int, dict]:
    """Run work over tasks on up to jobs workers and merge the (count,
    part) results.

    The pool forks before the first task is drawn, so tasks may come from
    a generator that the pool's feeder thread runs while workers are busy;
    an exception it raises reaches the caller.  The merge is order-
    independent and _finish sorts, so results are bitwise identical for
    any task split and any worker count.
    """
    jobs = _pool_size(jobs)
    acc: dict[bytes, list[str]] = {}
    total = 0
    with (get_context("fork").Pool(jobs) if jobs > 1
          else nullcontext()) as pool:
        parts = (pool.imap_unordered(work, tasks) if pool is not None
                 else map(work, tasks))
        for count, part in parts:
            total += count
            for fp, members in part.items():
                acc.setdefault(fp, []).extend(members)
    return total, acc


def cospectral_classes(stream, jobs: int = 1) -> CospectralClasses:
    """Group connected same-order graphs by exact distance charpoly.

    The stream is cut into _CHUNK-graph tasks as it is read, checked to
    share one order.
    """
    orders: list[int] = []

    def chunks():
        chunk = []
        for g in stream:
            if not orders:
                orders.append(g.n)
            elif g.n != orders[0]:
                raise ValueError(
                    f"mixed orders in stream: {g.n} after {orders[0]}")
            chunk.append(g)
            if len(chunk) == _CHUNK:
                yield chunk
                chunk = []
        if not orders:
            raise ValueError("empty graph stream")
        if chunk:
            yield chunk

    total, acc = _classify(_class_part, chunks(), jobs)
    return _finish(orders[0], acc, total)


def cospectral_classes_builtin(n: int, jobs: int = 1) -> CospectralClasses:
    """Classes over all connected graphs of order n from the built-in
    generator; level n-1 is split into parent slices, one task each."""
    if not 1 <= n <= BUILTIN_MAX_ORDER:
        raise ValueError(
            f"built-in generation covers 1..{BUILTIN_MAX_ORDER} vertices")
    parents = _canonical_level(n - 1)
    jobs = _pool_size(jobs)
    # one serial task keeps a single part dict; workers get 8 slices each
    step = max(1, len(parents) // (jobs * 8)) if jobs > 1 else len(parents)
    tasks = [parents[i:i + step] for i in range(0, len(parents), step)]
    total, acc = _classify(_children_part, tasks, jobs)
    return _finish(n, acc, total)


# ---------------------------------------------------------------------------
# graph6 ingestion

def ingest_graph6(path, on_error=None):
    """Stream graphs from a file of graph6 lines.

    Blank lines are skipped; malformed lines are reported through on_error
    (line number, message) and the stream continues.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                yield from_graph6(text)
            except Exception as exc:  # malformed line; keep streaming
                if on_error is not None:
                    on_error(lineno, str(exc))


# ---------------------------------------------------------------------------
# determined-by-spectrum verdict

def tab_order(a: int, b: int) -> int:
    """Order of T(a,b), checking that the pair is one the determined-by-
    spectrum sweep accepts."""
    if a < 1 or b < 1:
        raise ValueError("the determined-by-spectrum sweep needs a, b >= 1")
    return a + b + 3


def ds_verdict(a: int, b: int,
               classes: CospectralClasses) -> VerificationResult:
    """Exhaustive check that no non-isomorphic connected graph of order
    a+b+3 shares T(a,b)'s exact distance charpoly, against the class
    table of that order."""
    n = tab_order(a, b)
    if classes.order != n:
        raise ValueError(
            f"graph source has order {classes.order}, T({a},{b}) needs {n}")
    target = named_graph("T", a, b)
    fp = fingerprint(target)
    members = classes.classes.get(fp, ())
    witnesses = []
    if len(members) != 1:
        mates = [g6 for g6 in members
                 if not is_isomorphic(from_graph6(g6), target)]
        witnesses.append({"check": "unique fingerprint class",
                          "class_size": len(members),
                          "cospectral_mates": mates})
    elif not is_isomorphic(from_graph6(members[0]), target):
        witnesses.append({"check": "class member is T(a,b)",
                          "member": members[0]})
    details = {
        "a": a, "b": b, "order": n,
        "total_graphs": classes.total,
        "class_size": len(members),
        "charpoly": fingerprint_text(fp),
        "witnesses": witnesses,
    }
    return VerificationResult(f"ds:T({a},{b})",
                              "fail" if witnesses else "pass", details)
