"""Isomorphism-free enumeration of small connected graphs and the
cospectral-mate search.

Generation is McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998) over connected graphs only.  Level k
holds one connected graph per class, with generators of its automorphism
group.  A child is P+S for a nonempty attachment subset S, one per orbit
of subsets under Aut(P), and is kept iff its new vertex lies in the
Aut(G)-orbit of a canonically chosen deletion vertex m(G).  m(G) is always
a non-cut vertex, so G - m(G) is connected: every connected graph of order
n is reached from exactly one class of order n-1, and no disconnected
graph is ever built.

The orbit question is settled by the cheapest test that decides it: the
degree and the multiset of neighbour degrees over non-cut vertices; then
the first cell of tied vertices after equitable refinement, whose cells
are ordered by invariants, never by vertex numbers; at the last level, a
cell that holds only the new vertex and its twins; and only then the
canonical labeling search of specgraph.graphs (refinement,
individualization, automorphism pruning), the package's one isomorphism
engine, which every graph kept at an intermediate level also gets for its
automorphism generators.  Every level the program builds, and the
class table's total, is checked against A001349: an incomplete generating
set would give duplicate children, a wrong deletion rule would lose
classes.

Cospectrality is decided exactly: the fingerprint is the coefficient
vector of the distance characteristic polynomial, encoded degree-descending
as length-prefixed two's-complement bytes.  Equal fingerprints therefore
mean identical exact charpolys; no float ever touches a classing decision.
Fingerprinting is one exactpoly.charpoly_rows call per chunk: every matrix
whose largest entry a rigorously computed magnitude bound admits goes
through one int64 batch, and all the others through one batch modulo
word-size primes lifted exactly by the Chinese remainder theorem, so a few
large-diameter graphs do not slow down the rest of their chunk.

Every class table runs one pipeline: a source of tasks, one worker that
fingerprints a task's graphs a chunk at a time, and one merge in the
parent, which also gathers the tasks' input diagnostics.  The built-in
source is level n-1 cut into slices of parents, each task generating its
own connected children; the graph6 source is the file cut into chunks of
numbered lines as it is read, each task parsing and checking its own
lines through ingest_graph6, so the parent only reads and on a pool the
workers start on the first chunks while the rest are still being read.

A determined-by-spectrum verdict passes or fails only if its class table
holds exactly A001349(n) pairwise non-isomorphic graphs; else it is
inconclusive.  The rule is the same for every table; what differs is how
the members are known to be distinct: a built-in table is generated, so
they are by construction, while a graph6 stream's are counted by
canonical forms.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import islice
from multiprocessing import get_context

from .exactpoly import IntPoly, charpoly_rows
from .graphs import (
    Graph,
    GraphError,
    _bfs_reach,
    _nbr_key,
    _refine,
    _search,
    canonical_form,
    distance_matrix,
    from_graph6,
    is_connected,
    is_isomorphic,
    named_graph,
    to_graph6,
)
from .verify import VerificationResult

BUILTIN_MAX_ORDER = 9
_CHUNK = 4096


# ---------------------------------------------------------------------------
# canonical augmentation

# OEIS A001349: connected graphs on n unlabeled vertices, n = 0..10
CONNECTED_COUNTS = (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571)


def _attachment_reps(k: int, gens) -> list[int] | range:
    """The least attachment subset S of each orbit of nonempty subsets of
    a k-vertex parent under the group gens generate, ascending; the empty
    subset alone when k = 0.

    P+S and P+sigma(S) are isomorphic for every automorphism sigma of P,
    so one subset per orbit gives every child class.
    """
    size = 1 << k
    if not gens:
        return range(1 if k else 0, size)
    images = []
    for g in gens:
        img = [0]
        for i in range(k):
            bit = 1 << g[i]
            img += [x | bit for x in img]
        images.append(img)
    seen = bytearray(size)
    reps = []
    for s in range(1, size):
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
    return reps


def _children(rows: tuple[int, ...], gens, last: bool = False):
    """The accepted one-vertex extensions P+S of a connected parent P, in
    attachment-subset order, each with generators of its automorphism
    group.  When last, generators are found only where _decide searched
    and () stands for them elsewhere.

    gens are automorphisms of P; passing none tests every subset.  A child
    whose new vertex v is of smaller degree than some non-cut vertex is
    rejected here, before its rows are built.
    """
    k = len(rows)
    pdeg = [r.bit_count() for r in rows]
    # u is a non-cut vertex of P+S iff S meets every component of P-u; for
    # a non-cut vertex of P (k > 1) that fails only when S = {u}
    pcut = []
    for u in range(k):
        comps = _components(rows, ((1 << k) - 1) ^ 1 << u)
        if len(comps) > 1:
            pcut.append((u, comps))
    for s in _attachment_reps(k, gens):
        dv = s.bit_count()
        cut = s if dv == 1 and k > 1 else 0
        for u, comps in pcut:
            if not all(c & s for c in comps):
                cut |= 1 << u
        ties = 0
        for u, d in enumerate(pdeg):
            d += s >> u & 1
            if d >= dv and not cut >> u & 1:
                if d > dv:
                    break
                ties |= 1 << u
        else:
            child = tuple(r | 1 << k if s >> i & 1 else r
                          for i, r in enumerate(rows)) + (s,)
            found = _decide(child, ties, last)
            if found is not None:
                yield child, found


def _decide(child, ties, last: bool):
    """Whether the new vertex v (the last) of a connected child is in the
    orbit of the canonical deletion vertex: None if not, else generators
    of the child's automorphism group, or () at the last level unless a
    search ran.

    No non-cut vertex has a greater degree than v, and ties masks the
    other non-cut vertices of v's degree.  The deletion vertex is the
    non-cut vertex of greatest _nbr_key; among ties, it is the first
    vertex of the canonical labeling in the first cell of the refined
    partition, the cell that holds only tied vertices.  The cheapest test
    that settles it decides: the key; the refined cell; at the last level,
    a cell of v and its twins; else _search.
    """
    v = len(child) - 1
    bit_v = 1 << v
    deg = [r.bit_count() for r in child]
    tied = bit_v
    if ties:
        kv = _nbr_key(child, deg, v)
        while ties:
            low = ties & -ties
            ties ^= low
            ku = _nbr_key(child, deg, low.bit_length() - 1)
            if ku > kv:
                return None
            if ku == kv:
                tied |= low
    if last and tied == bit_v:
        return ()
    keyed: dict[int, int] = {}
    for u in range(v):
        if not tied >> u & 1:
            key = _nbr_key(child, deg, u)
            keyed[key] = keyed.get(key, 0) | 1 << u
    cells = [tied] + [keyed[key] for key in sorted(keyed)]
    cells = _refine(child, cells, cells[:])
    cell = cells[0]
    if not cell & bit_v:
        return None
    if last and all(not (child[u] ^ child[v]) & ~(1 << u | bit_v)
                    for u in range(v) if cell >> u & 1):
        # v alone, or v and its twins: one orbit
        return ()
    (lab, _), gens, find = _search(child, cells)
    return gens if find(lab[0]) == find(v) else None


def _components(rows, mask: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced on mask."""
    comps = []
    while mask:
        comp = _bfs_reach(rows, (mask & -mask).bit_length() - 1, mask)
        comps.append(comp)
        mask ^= comp
    return comps


def _check_count(what: str, n: int, count: int) -> None:
    """Raise unless count is A001349(n)."""
    if count != CONNECTED_COUNTS[n]:
        raise RuntimeError(
            f"{what}: {count} connected graphs of order {n}, but "
            f"A001349({n}) = {CONNECTED_COUNTS[n]}")


def _level(n: int) -> list[tuple[tuple[int, ...], list]]:
    """One labeled connected graph per class on n vertices, each with
    generators of its automorphism group; level 0 is the empty graph.
    Every level is checked against A001349."""
    level = [((), [])]
    for k in range(1, n + 1):
        level = [c for rows, gens in level for c in _children(rows, gens)]
        _check_count("level", k, len(level))
    return level


def _parents(n: int) -> list[tuple[tuple[int, ...], list]]:
    """Level n-1, the parents of the connected graphs of order n."""
    if not 1 <= n <= BUILTIN_MAX_ORDER:
        raise ValueError(
            f"built-in generation covers 1..{BUILTIN_MAX_ORDER} vertices; "
            "supply an external graph6 stream for larger orders")
    return _level(n - 1)


def _connected_children(parents):
    """The order-n graphs from (rows, generators) parents of order n-1."""
    for rows, gens in parents:
        for child, _ in _children(rows, gens, last=True):
            yield Graph._unchecked(len(child), child)


def enumerate_connected(n: int):
    """One representative per isomorphism class of connected graphs on n
    vertices, for 1 <= n <= 9."""
    yield from _connected_children(_parents(n))


# ---------------------------------------------------------------------------
# fingerprints

def _encode_coeffs(desc) -> bytes:
    out = bytearray()
    for c in desc:
        size = (c.bit_length() + 8) // 8
        out.append(size)
        out += c.to_bytes(size, "big", signed=True)
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


def _fingerprints(dists) -> list[bytes]:
    """Fingerprints of a nonempty list of equal-size distance matrices, in
    input order."""
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
    # members built by canonical augmentation, so pairwise non-isomorphic
    generated: bool

    def _by_charpoly(self) -> list[tuple[str, bytes, tuple[str, ...]]]:
        """(charpoly text, fingerprint, members) per class, ordered by the
        text, which is rendered once per class."""
        rows = [(fingerprint_text(fp), fp, members)
                for fp, members in self.classes.items()]
        rows.sort(key=lambda row: row[0])
        return rows

    def distinct_sizes(self) -> list[int]:
        """The number of pairwise non-isomorphic members of each class:
        the member count in a generated table.  Elsewhere isomorphic
        graphs are cospectral, so only classes of two or more members need
        canonical forms."""
        if self.generated:
            return [len(members) for members in self.classes.values()]
        return [len({canonical_form(from_graph6(g6)) for g6 in members})
                if len(members) > 1 else 1
                for members in self.classes.values()]

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


def _finish(order: int, acc: dict, total: int,
            generated: bool) -> CospectralClasses:
    classes = {fp: tuple(sorted(members))
               for fp, members in sorted(acc.items())}
    return CospectralClasses(order, classes, total, generated)


def _pool_size(jobs: int) -> int:
    """Worker count for jobs: at least one, at most one per CPU."""
    return max(1, min(jobs, os.cpu_count() or 1))


def _class_part(graphs) -> tuple[int, dict]:
    """Graph count and fingerprint -> graph6 members of an iterable of
    same-order graphs, fingerprinted _CHUNK at a time."""
    part: dict[bytes, list[str]] = {}
    count = 0
    graphs = iter(graphs)
    while chunk := list(islice(graphs, _CHUNK)):
        fps = _fingerprints([distance_matrix(g) for g in chunk])
        for g, fp in zip(chunk, fps):
            part.setdefault(fp, []).append(to_graph6(g))
        count += len(chunk)
    return count, part


def _children_part(parents) -> tuple[int, dict, list]:
    """The built-in task: the class part of a parent slice's connected
    children, with no diagnostics."""
    return (*_class_part(_connected_children(parents)), [])


def ingest_graph6(lines, order: int, problems: list):
    """The connected graphs of order `order` in (line number, text) graph6
    lines.

    Blank lines are skipped.  A malformed line, a disconnected graph (no
    distance matrix) or a graph of another order is skipped with a (line
    number, message) diagnostic appended to problems.
    """
    for lineno, line in lines:
        text = line.strip()
        if not text:
            continue
        try:
            g = from_graph6(text)
        except GraphError as exc:
            problems.append((lineno, str(exc)))
            continue
        if not is_connected(g):
            problems.append((lineno, "disconnected graph"))
        elif g.n != order:
            problems.append((lineno, f"order {g.n}, expected {order}"))
        else:
            yield g


def _graph6_part(order: int, lines) -> tuple[int, dict, list]:
    """The graph6 task: the class part of a chunk of numbered lines of a
    stream, with the diagnostics of the lines ingest_graph6 skipped."""
    problems: list[tuple[int, str]] = []
    return (*_class_part(ingest_graph6(lines, order, problems)), problems)


def _classify(work, tasks, jobs: int) -> tuple[int, dict, list]:
    """Run work over tasks on up to jobs workers and merge the (count,
    part, diagnostics) results; the diagnostics come back sorted, so in
    line order.

    The pool forks before the first task is drawn, so tasks may come from
    a generator that the pool's feeder thread runs while workers are busy;
    an exception it raises reaches the caller.  The merge is order-
    independent and _finish sorts, so results are bitwise identical for
    any task split and any worker count.
    """
    jobs = _pool_size(jobs)
    acc: dict[bytes, list[str]] = {}
    problems: list[tuple[int, str]] = []
    total = 0
    with (get_context("fork").Pool(jobs) if jobs > 1
          else nullcontext()) as pool:
        parts = (pool.imap_unordered(work, tasks) if pool is not None
                 else map(work, tasks))
        for count, part, found in parts:
            total += count
            problems += found
            for fp, members in part.items():
                acc.setdefault(fp, []).extend(members)
    return total, acc, sorted(problems)


def cospectral_classes_builtin(n: int, jobs: int = 1) -> CospectralClasses:
    """Classes over all connected graphs of order n from the built-in
    generator; level n-1 is split into parent slices, one task each.
    Raises RuntimeError unless both levels hold A001349 graphs."""
    parents = _parents(n)
    jobs = _pool_size(jobs)
    # one serial task keeps a single part dict; workers get 8 slices each
    step = max(1, len(parents) // (jobs * 8)) if jobs > 1 else len(parents)
    tasks = [parents[i:i + step] for i in range(0, len(parents), step)]
    total, acc, _ = _classify(_children_part, tasks, jobs)
    _check_count("class table", n, total)
    return _finish(n, acc, total, True)


def cospectral_classes_graph6(
        path, order: int, jobs: int = 1
) -> tuple[CospectralClasses, list[tuple[int, str]]]:
    """Classes over the connected graphs of order `order` in a file of
    graph6 lines, and the (line number, message) diagnostics of the lines
    skipped (see ingest_graph6), in line order.

    This process only reads the file, _CHUNK numbered lines per task; the
    tasks, on a pool the workers, parse their lines.  No graph of the
    order at all raises ValueError.
    """
    def chunks():
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            lines = enumerate(fh, 1)
            while chunk := list(islice(lines, _CHUNK)):
                yield chunk

    total, acc, problems = _classify(partial(_graph6_part, order), chunks(),
                                     jobs)
    if not total:
        raise ValueError(f"no connected graph of order {order} in {path}")
    return _finish(order, acc, total, False), problems


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
    table of that order.

    The table covers every connected graph of order n only if it holds
    exactly A001349(n), known for n <= 10, pairwise non-isomorphic graphs.
    Any other table gives an inconclusive verdict that carries the
    expected and the distinct counts.
    """
    n = tab_order(a, b)
    if classes.order != n:
        raise ValueError(
            f"graph source has order {classes.order}, T({a},{b}) needs {n}")
    target = named_graph("T", a, b)
    fp = fingerprint(target)
    members = classes.classes.get(fp, ())
    mates = [g6 for g6 in members
             if not is_isomorphic(from_graph6(g6), target)]
    witnesses = []
    if len(members) != 1:
        witnesses.append({"check": "unique fingerprint class",
                          "class_size": len(members),
                          "cospectral_mates": mates})
    elif mates:
        witnesses.append({"check": "class member is T(a,b)",
                          "member": members[0]})
    details = {
        "a": a, "b": b, "order": n,
        "total_graphs": classes.total,
        "class_size": len(members),
        "charpoly": fingerprint_text(fp),
        "witnesses": witnesses,
    }
    expected = CONNECTED_COUNTS[n] if n < len(CONNECTED_COUNTS) else None
    distinct = sum(classes.distinct_sizes())
    if classes.total == distinct == expected:
        status = "fail" if witnesses else "pass"
    else:
        status = "inconclusive"
        details.update(expected_graphs=expected, distinct_graphs=distinct)
    return VerificationResult(f"ds:T({a},{b})", status, details)
