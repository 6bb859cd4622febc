"""Graph core: named catalog, BFS distances, canonical forms and
isomorphism, graph6 codec."""

import random
from functools import cache
from itertools import combinations

import pytest
from oracle_utils import (
    bf_class_reps,
    bf_distances,
    bf_graph6,
    bf_isomorphic,
    largest_distance,
    random_connected,
)

from specgraph import mate
from specgraph.graphs import (
    DisconnectedError,
    Graph,
    Graph6Error,
    GraphError,
    canonical_form,
    distance_matrix,
    from_graph6,
    is_connected,
    is_isomorphic,
    named_graph,
    to_graph6,
)


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


@cache
def connected_graphs(n):
    """One connected graph per class of order n, as a list."""
    return [Graph(n, rows) for rows, _ in mate._level(n)]


class TestGraphType:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_rejects_one_flipped_bit_in_either_triangle(self):
        rows = list(named_graph("P", 4).rows)
        for i, j in ((0, 2), (2, 0)):
            flipped = rows.copy()
            flipped[i] ^= 1 << j
            with pytest.raises(GraphError,
                               match=r"not symmetric at \(0,2\)"):
                Graph(4, tuple(flipped))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(GraphError):
            Graph(2, (0b100, 0b001))

    def test_vertex_cap(self):
        with pytest.raises(GraphError):
            Graph(65, tuple([0] * 65))


class TestNamedGraphs:
    def test_t11_shape(self):
        g = named_graph("T", 1, 1)
        assert g.n == 5
        assert g.edge_count() == 4
        assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 2, 2, 2]

    @pytest.mark.parametrize("a", range(0, 5))
    @pytest.mark.parametrize("b", range(0, 5))
    def test_tab_vertex_count(self, a, b):
        assert named_graph("T", a, b).n == a + b + 3

    def test_h1_as_drawn(self):
        g = named_graph("H1")
        assert g.n == 6 and g.edge_count() == 9
        assert all(g.adjacent(v, 5) for v in range(5))

    def test_h_family_edge_counts(self):
        sizes = {"H1": 9, "H2": 8, "H3": 7, "H4": 7, "H5": 6, "H6": 6, "H7": 5}
        for fam, m in sizes.items():
            g = named_graph(fam)
            assert g.n == 6 and g.edge_count() == m

    def test_f_family_shapes(self):
        assert named_graph("F1").edge_count() == 7
        assert named_graph("F2").edge_count() == 6
        assert named_graph("F3").edge_count() == 5
        f4 = named_graph("F4")
        assert f4.n == 10 and f4.edge_count() == 15
        assert named_graph("K4").edge_count() == 6

    def test_p6_is_path(self):
        g = named_graph("P6")
        assert is_isomorphic(g, named_graph("P", 6))

    def test_bad_parameters(self):
        with pytest.raises(GraphError):
            named_graph("C", 2)
        with pytest.raises(GraphError):
            named_graph("T", -1, 2)
        with pytest.raises(GraphError):
            named_graph("Q", 3)


class TestDistances:
    def test_p3(self):
        d = distance_matrix(named_graph("P", 3))
        assert d == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_t11_block_layout(self):
        # golden matrix written out from the canonical labeling
        # (center1, middle, center2, a-leaf, b-leaf)
        d = distance_matrix(named_graph("T", 1, 1))
        assert d == (
            (0, 1, 2, 1, 3),
            (1, 0, 1, 2, 2),
            (2, 1, 0, 3, 1),
            (1, 2, 3, 0, 4),
            (3, 2, 1, 4, 0),
        )

    def test_tab_block_layout_general(self):
        # block structure: leaves of one side are mutually at distance 2,
        # opposite leaves at distance 4
        a, b = 3, 2
        d = distance_matrix(named_graph("T", a, b))
        for i in range(a):
            for j in range(b):
                assert d[3 + i][3 + a + j] == 4
        for i in range(a):
            for j in range(a):
                assert d[3 + i][3 + j] == (0 if i == j else 2)

    def test_k4_is_j_minus_i(self):
        d = distance_matrix(named_graph("K", 4))
        assert all(d[i][j] == (0 if i == j else 1)
                   for i in range(4) for j in range(4))

    def test_disconnected_raises(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(DisconnectedError):
            distance_matrix(g)

    def test_diameter_examples(self):
        assert largest_distance(named_graph("T", 1, 1)) == 4
        assert largest_distance(named_graph("K", 5)) == 1
        assert largest_distance(named_graph("P", 6)) == 5

    def test_tab_diameter_always_4(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert largest_distance(named_graph("T", a, b)) == 4

    def test_distance_matrix_invariants_random(self):
        rng = random.Random(2024)
        graphs = [random_connected(rng, rng.randint(2, 10), 0.45)
                  for _ in range(40)]
        graphs += [named_graph(f) for f in
                   ("H1", "H2", "H3", "H4", "H5", "H6", "H7", "F1", "F2",
                    "F3", "F4", "K4", "P6")]
        graphs += [named_graph("T", 2, 3), named_graph("C", 7)]
        for g in graphs:
            d = distance_matrix(g)
            n = g.n
            for i in range(n):
                assert d[i][i] == 0
                for j in range(n):
                    assert d[i][j] == d[j][i]
                    if i != j:
                        assert d[i][j] >= 1
                        assert (d[i][j] == 1) == g.adjacent(i, j)
                    for k in range(n):
                        assert d[i][k] <= d[i][j] + d[j][k]


class TestDistancesAgainstOracle:
    """distance_matrix against queue BFS."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_connected_graph(self, n):
        for g in connected_graphs(n):
            assert distance_matrix(g) == tuple(
                map(tuple, bf_distances(g.rows, g.n)))

    @pytest.mark.parametrize("name", [("C", 27), ("P", 27), ("T", 12, 12),
                                      ("P", 64), ("K", 64), ("K", 1)])
    def test_single_large_graphs(self, name):
        g = named_graph(*name)
        assert distance_matrix(g) == tuple(
            map(tuple, bf_distances(g.rows, g.n)))

    def test_random_connected_graphs_of_every_order_to_64(self):
        # a random spanning tree under a random labeling, each vertex v
        # hung from one of the w before it, plus each other edge with
        # probability p: w = 2 gives diameters near 2n/3, p = 0.5 short
        # ones; odd orders put n*n off a multiple of 8
        rng = random.Random(21)
        for n in range(9, 65):
            for w, p in ((2, 0.0), (n, 0.05), (n, 0.5)):
                label = rng.sample(range(n), n)
                edges = {(label[v], label[rng.randrange(max(v - w, 0), v)])
                         for v in range(1, n)}
                edges |= {e for e in combinations(range(n), 2)
                          if rng.random() < p}
                g = Graph.from_edges(n, edges)
                assert distance_matrix(g) == tuple(
                    map(tuple, bf_distances(g.rows, n))), (n, p)

    def test_entries_are_python_ints(self):
        for g in (named_graph("K", 1), named_graph("P", 9),
                  named_graph("T", 2, 3), named_graph("K", 64)):
            d = distance_matrix(g)
            assert type(d) is tuple
            assert all(type(row) is tuple and len(row) == g.n for row in d)
            assert all(type(x) is int for row in d for x in row)

    def test_disconnected_graphs_raise(self):
        # P63 plus an isolated vertex: the balls stop growing only after
        # 62 levels, when every path vertex's ball is full
        for g in (Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
                  Graph(2, (0, 0)), Graph.from_edges(64, [(0, 63)]),
                  Graph.from_edges(64, [(i, i + 1) for i in range(62)])):
            assert bf_distances(g.rows, g.n) is None
            with pytest.raises(DisconnectedError):
                distance_matrix(g)


class TestConnectivity:
    def test_examples(self):
        assert is_connected(named_graph("T", 3, 5))
        assert is_connected(named_graph("C", 7))
        assert not is_connected(Graph(2, (0, 0)))


class TestGraph6:
    def test_decode_star(self):
        g = from_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_single_vertex(self):
        assert from_graph6("@").n == 1
        assert to_graph6(Graph(1, (0,))) == "@"

    def test_encode_p2(self):
        assert to_graph6(named_graph("P", 2)) == "A_"

    def test_non_printable_byte(self):
        with pytest.raises(Graph6Error):
            from_graph6("D?\x07")

    def test_non_ascii_character(self):
        # not read as "?", which would decode "Dé{" as the star "D?{"; the
        # replacement character stands for a byte a stream could not decode
        for text in ("Dé{", "D\ufffd{"):
            with pytest.raises(Graph6Error) as err:
                from_graph6(text)
            assert err.value.offset == 1

    def test_error_carries_offset(self):
        with pytest.raises(Graph6Error) as err:
            from_graph6("D?\x07")
        assert err.value.offset == 2

    def test_truncated_body(self):
        with pytest.raises(Graph6Error):
            from_graph6("D?")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            from_graph6("D?{{")

    def test_nonzero_padding(self):
        # P2 body has 1 real bit; force a padding bit on
        with pytest.raises(Graph6Error):
            from_graph6("A" + chr(63 + 0b100001))

    def test_roundtrip_random(self):
        rng = random.Random(1234)
        for _ in range(500):
            g = random_connected(rng, rng.randint(1, 12), 0.4) \
                if rng.random() < 0.8 else random_graph(rng.randint(1, 12), 0.3, rng)
            assert from_graph6(to_graph6(g)) == g

    def test_roundtrip_large_header(self):
        g = Graph.from_edges(63, [(i, i + 1) for i in range(62)])
        s = to_graph6(g)
        assert s.startswith(chr(126))
        assert from_graph6(s) == g
        g64 = Graph.from_edges(64, [(i, i + 1) for i in range(63)])
        assert from_graph6(to_graph6(g64)) == g64


    @pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 11, 62, 63, 64])
    def test_codec_against_bitwise_oracle(self, n):
        rng = random.Random(n)
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        # every single edge, so every bit position, then random graphs
        graphs = [Graph.from_edges(n, [e]) for e in pairs[:200]]
        graphs += [random_graph(n, p, rng) for p in (0.1, 0.5, 0.9)
                   for _ in range(5)]
        for g in graphs:
            line = bf_graph6(g.rows, n)
            assert to_graph6(g) == line
            assert from_graph6(line) == g

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 10, 64])
    def test_every_nonzero_padding_rejected(self, n):
        nbits = n * (n - 1) // 2
        pad = -nbits % 6
        line = bf_graph6(named_graph("K", n).rows, n)
        for value in range(1, 1 << pad):
            bad = line[:-1] + chr(63 + (ord(line[-1]) - 63 | value))
            with pytest.raises(Graph6Error) as err:
                from_graph6(bad)
            assert err.value.offset == len(line) - 1


class TestIsomorphism:
    def test_relabeled_pair(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng.randint(2, 9), 0.45, rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert is_isomorphic(g, h)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_bruteforce(self, n):
        # every graph on n vertices against a relabeled copy of every
        # graph with its edge count
        rng = random.Random(n)
        reps = bf_class_reps(n, connected=False)
        copies = [random_relabeling(rows, rng) for rows in reps]
        pairs = 0
        for rows in reps:
            g = Graph(n, rows)
            for h in copies:
                if g.edge_count() == h.edge_count():
                    assert is_isomorphic(g, h) == bf_isomorphic(rows, h.rows,
                                                                n)
                    pairs += 1
        assert pairs >= len(reps)

    def test_distinguishes(self):
        assert not is_isomorphic(named_graph("P", 5), named_graph("C", 5))
        assert not is_isomorphic(named_graph("T", 2, 2), named_graph("S", 2, 3))
        assert not is_isomorphic(shrikhande(), rook_4x4())
        assert not is_isomorphic(named_graph("P", 3), named_graph("P", 4))


def random_relabeling(rows, rng):
    """The graph on rows with its vertices renamed by a random
    permutation."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        for w in range(len(rows)):
            if r >> w & 1:
                out[perm[v]] |= 1 << perm[w]
    return Graph(len(rows), tuple(out))


def shrikhande():
    # Z4 x Z4, u ~ v when v - u is one of +-(0,1), +-(1,0), +-(1,1)
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph.from_edges(16, [
        (u, v) for u, v in combinations(range(16), 2)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps])


def rook_4x4():
    return Graph.from_edges(16, [
        (u, v) for u, v in combinations(range(16), 2)
        if u // 4 == v // 4 or u % 4 == v % 4])


def paley_13():
    squares = {x * x % 13 for x in range(1, 13)}
    return Graph.from_edges(13, [(u, v) for u, v in combinations(range(13), 2)
                                 if (v - u) % 13 in squares])


def petersen():
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, 5 + i) for i in range(5)])


def hypercube_q4():
    return Graph.from_edges(16, [(u, v) for u, v in combinations(range(16), 2)
                                 if (u ^ v).bit_count() == 1])


class TestCanonicalForm:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_invariant_under_relabeling_every_connected_graph(self, n):
        rng = random.Random(n)
        for rows, _ in mate._level(n):
            form = canonical_form(Graph(n, rows))
            for _ in range(3):
                assert canonical_form(random_relabeling(rows, rng)) == form

    @pytest.mark.parametrize("build", [shrikhande, rook_4x4, paley_13,
                                       petersen, hypercube_q4])
    def test_invariant_under_relabeling_symmetric_graphs(self, build):
        # strongly regular and vertex-transitive graphs, whose searches
        # find leaves equal to the best leaf off the first path; pruning
        # back to the first path there loses the canonical leaf for some
        # labelings of the Shrikhande graph
        g = build()
        form = canonical_form(g)
        rng = random.Random(16)
        for _ in range(100):
            assert canonical_form(random_relabeling(g.rows, rng)) == form

    def test_form_is_its_own_form(self):
        g = shrikhande()
        form = canonical_form(g)
        assert sorted(r.bit_count() for r in form) == [6] * 16
        assert is_isomorphic(Graph(16, form), g)

    def test_distinct_across_classes(self):
        forms = {canonical_form(Graph(7, rows)) for rows, _ in mate._level(7)}
        assert len(forms) == 853
        # cospectral, with equal parameters srg(16, 6, 2, 2)
        assert canonical_form(shrikhande()) != canonical_form(rook_4x4())
