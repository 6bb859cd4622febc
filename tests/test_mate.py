"""Enumeration, fingerprints, cospectral classes, determined-by-spectrum."""

import dataclasses
import json
import random
from itertools import combinations, islice, permutations

import pytest

from specgraph import exactpoly, mate
from specgraph.exactpoly import charpoly_exact, charpoly_rows
from specgraph.forms import tab_charpoly_expanded
from specgraph.graphs import (
    Graph,
    distance_matrix,
    from_graph6,
    named_graph,
    to_graph6,
)
from specgraph.mate import (
    cospectral_classes_builtin,
    cospectral_classes_graph6,
    decode_fingerprint,
    ds_verdict,
    enumerate_connected,
    fingerprint,
    fingerprint_text,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


from oracle_utils import (
    bf_class_reps,
    bf_connected as _bf_connected,
    bf_invariant as _bf_invariant,
    bf_isomorphic as _bf_isomorphic,
    bf_lex_least,
    brute_force_connected_count,
    fl_charpoly,
)

# all graphs on n vertices up to isomorphism (OEIS A000088)
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def random_connected(rng, n, p=0.45):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        rows = [0] * n
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        if _bf_connected(rows, n):
            return Graph(n, tuple(rows))


def broom(n, d):
    """Path v0..vd with the other n-d-1 vertices as leaves on v1; its
    largest distance is d, and broom(n, n-1) is the path P_n."""
    edges = [(i, i + 1) for i in range(d)] + [(1, v) for v in range(d + 1, n)]
    return Graph.from_edges(n, edges)


def largest_distance(g):
    return max(max(row) for row in distance_matrix(g))


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_known_counts(self, n):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_bruteforce_oracle(self, n):
        assert (sum(1 for _ in enumerate_connected(n))
                == brute_force_connected_count(n))

    def test_all_connected_and_distinct(self):
        seen = set()
        for g in enumerate_connected(6):
            assert g.n == 6
            s = to_graph6(g)
            assert s not in seen
            seen.add(s)

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_unchecked_graphs_pass_the_checks(self, n):
        # the generator builds its graphs without Graph's checks
        for g in enumerate_connected(n):
            assert Graph(g.n, g.rows) == g
            assert _bf_connected(g.rows, n)

    def test_pairwise_nonisomorphic_n5(self):
        graphs = list(enumerate_connected(5))
        for g, h in combinations(graphs, 2):
            assert not _bf_isomorphic(g.rows, h.rows, 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="graph6"):
            next(enumerate_connected(10))
        with pytest.raises(ValueError):
            next(enumerate_connected(0))


def _iso_classes(graphs, n):
    """One representative per isomorphism class of graphs (bit rows), by
    the brute-force oracle."""
    buckets = {}
    for rows in graphs:
        bucket = buckets.setdefault(_bf_invariant(rows, n), [])
        if not any(_bf_isomorphic(rows, rep, n) for rep in bucket):
            bucket.append(rows)
    return [rep for bucket in buckets.values() for rep in bucket]


def _group_order(gens, n):
    """Order of the permutation group gens generate, by closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _bf_aut_order(rows, n):
    return sum(all((rows[p[i]] >> p[j] & 1) == (rows[i] >> j & 1)
                   for i in range(n) for j in range(i + 1, n))
               for p in permutations(range(n)))


class TestOrderlyGenerator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_level_counts(self, n):
        # the intermediate levels (with automorphism searches) and the
        # last level (without) against A001349
        assert len(mate._level(n)) == CONNECTED_COUNTS[n]
        assert (sum(1 for _ in enumerate_connected(n))
                == CONNECTED_COUNTS[n])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_kept_labelings_are_lex_least(self, n):
        # the kept labelings, each taken to its lex-least form, are the
        # brute-force classes, once each
        kept = sorted(bf_lex_least(rows, n) for rows, _ in mate._level(n))
        last = sorted(bf_lex_least(g.rows, n) for g in enumerate_connected(n))
        oracle = sorted(bf_lex_least(rows, n) for rows in bf_class_reps(n))
        assert kept == last == oracle

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_pruning_keeps_the_unpruned_children(self, n):
        skipped = 0
        for rows, gens in mate._level(n - 1):
            k = len(rows)
            for last in (False, True):
                unpruned = [c for c, _ in mate._children(rows, [], last)]
                pruned = [c for c, _ in mate._children(rows, gens, last)]
                assert set(pruned) <= set(unpruned)
                classes = _iso_classes(pruned, n)
                assert len(classes) == len(pruned)
                assert len(_iso_classes(classes + unpruned, n)) \
                    == len(classes)
            reps = set(mate._attachment_reps(k, gens))
            skipped += (1 << k) - 1 - len(reps)
        assert skipped or n <= 3

    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_kept_automorphisms_are_automorphisms(self, n):
        for rows, gens in mate._level(n):
            for g in gens:
                assert sorted(g) == list(range(n))
                assert all((rows[g[i]] >> g[j] & 1) == (rows[i] >> j & 1)
                           for i in range(n) for j in range(n))
            if n <= 6:
                # the generators span the whole group
                assert _group_order(gens, n) == _bf_aut_order(rows, n)

    def test_count_gate(self, monkeypatch):
        # a parent built without one of its generators gives duplicate
        # children, and the program refuses the level
        reps = mate._attachment_reps
        monkeypatch.setattr(mate, "_attachment_reps",
                            lambda k, gens: reps(k, gens[1:]))
        with pytest.raises(RuntimeError, match="A001349"):
            cospectral_classes_builtin(6)
        monkeypatch.undo()
        # the class table's own total: one graph lost in the last level
        children = mate._connected_children
        monkeypatch.setattr(mate, "_connected_children",
                            lambda parents: islice(children(parents), 1, None))
        with pytest.raises(RuntimeError, match="class table: 111"):
            cospectral_classes_builtin(6)


class TestEnumerationSpotCheckN8:
    def test_sampled_labeled_graphs_are_covered(self):
        reps = {}
        for g in enumerate_connected(8):
            reps.setdefault(_bf_invariant(g.rows, 8), []).append(g.rows)
        rng = random.Random(88)
        for _ in range(60):
            g = random_connected(rng, 8)
            bucket = reps.get(_bf_invariant(g.rows, 8), [])
            matches = sum(bool(_bf_isomorphic(g.rows, rep, 8))
                          for rep in bucket)
            assert matches == 1

    def test_sampled_rep_pairs_nonisomorphic(self):
        reps = {}
        for g in enumerate_connected(8):
            reps.setdefault(_bf_invariant(g.rows, 8), []).append(g.rows)
        rng = random.Random(99)
        collided = [bucket for bucket in reps.values() if len(bucket) > 1]
        for bucket in rng.sample(collided, min(60, len(collided))):
            a, b = rng.sample(bucket, 2)
            assert not _bf_isomorphic(a, b, 8)


class TestFingerprint:
    def test_isomorphic_orientations_agree(self):
        assert fingerprint(named_graph("T", 1, 2)) == \
            fingerprint(named_graph("T", 2, 1))

    def test_t22_decodes_to_closed_form(self):
        fp = fingerprint(named_graph("T", 2, 2))
        desc = decode_fingerprint(fp)
        assert tuple(reversed(desc)) == tab_charpoly_expanded(2, 2).coeffs

    def test_p5_differs_from_c5(self):
        assert fingerprint(named_graph("P", 5)) != \
            fingerprint(named_graph("C", 5))

    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_connected(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v])
                                     for u, v in g.edges()])
            assert fingerprint(g) == fingerprint(h)

    def test_matches_exact_charpoly_path(self, monkeypatch):
        # the int64 batch against the modular batch
        rng = random.Random(21)
        graphs = [random_connected(rng, rng.randint(2, 9))
                  for _ in range(40)]
        fast = [fingerprint(g) for g in graphs]
        monkeypatch.setattr(exactpoly, "_int64_safe", lambda n, m: False)
        slow = [fingerprint(g) for g in graphs]
        assert fast == slow

    def test_int64_guard_boundaries(self):
        assert exactpoly._int64_safe(9, 8)
        assert exactpoly._int64_safe(10, 5)
        assert not exactpoly._int64_safe(10, 6)
        assert not exactpoly._int64_safe(19, 18)

    def test_text(self):
        fp = fingerprint(named_graph("P", 2))
        assert fingerprint_text(fp) == "L^2 - 1"

    def test_exact_values_match_charpoly(self):
        for name in (("T", 2, 3), ("C", 8), ("K", 5)):
            g = named_graph(*name)
            desc = decode_fingerprint(fingerprint(g))
            assert tuple(reversed(desc)) == \
                charpoly_exact(distance_matrix(g)).coeffs


class TestInt64Guard:
    """The per-matrix path choice at the edge of the int64 bound: every
    distance matrix is admitted at order 9, and at order 10 exactly those
    whose largest distance is at most 5; the rest go through the modular
    batch."""

    @staticmethod
    def order10_with_largest(target, count=6):
        # long random caterpillars plus a few chords, seeded
        rng = random.Random(40 + target)
        found = [broom(10, target)]
        while len(found) < count:
            edges = {(rng.randrange(max(0, v - 3), v), v) for v in range(1, 10)}
            for _ in range(rng.randint(0, 2)):
                u, v = sorted(rng.sample(range(10), 2))
                edges.add((u, v))
            g = Graph.from_edges(10, sorted(edges))
            if largest_distance(g) == target:
                found.append(g)
        return found

    @pytest.mark.parametrize("order,largest", [(9, 8), (9, 7), (9, 6),
                                               (10, 5), (10, 6)])
    def test_dtypes_agree_at_boundary(self, monkeypatch, order, largest):
        # the natural path and the modular batch, against the oracle
        graphs = ([broom(9, largest)] if order == 9
                  else self.order10_with_largest(largest))
        assert all(largest_distance(g) == largest for g in graphs)
        assert exactpoly._int64_safe(order, largest) == \
            ((order, largest) != (10, 6))
        dists = [distance_matrix(g) for g in graphs]
        want = [list(fl_charpoly(d)) for d in dists]
        assert charpoly_rows(dists) == want
        fps = [decode_fingerprint(fingerprint(g)) for g in graphs]
        monkeypatch.setattr(exactpoly, "_int64_safe", lambda n, m: False)
        assert charpoly_rows(dists) == want
        assert [decode_fingerprint(fingerprint(g)) for g in graphs] == fps \
            == [tuple(reversed(row)) for row in want]

    def test_mixed_chunk_in_order_with_bigint_only_for_unsafe(
            self, monkeypatch):
        # one int64 batch for the safe graphs, one modular batch for the
        # unsafe ones
        rng = random.Random(9)
        safe = [random_connected(rng, 10) for _ in range(60)]
        unsafe = [broom(10, 6), broom(10, 8), named_graph("P", 10)]
        assert all(largest_distance(g) <= 5 for g in safe)
        graphs = (safe[:1] + unsafe[:1] + safe[1:30] + unsafe[1:2]
                  + safe[30:] + unsafe[2:])
        real = exactpoly._recurrence
        calls = []

        def recording(A, primes=None, inverses=None):
            calls.append((A.shape, primes))
            return real(A, primes, inverses)

        monkeypatch.setattr(exactpoly, "_recurrence", recording)
        fps = mate._fingerprints([distance_matrix(g) for g in graphs])
        primes = exactpoly._moduli(10, 9)[0]
        assert calls == [((60, 10, 10), None),
                         ((len(primes), 3, 10, 10), primes)]
        assert [decode_fingerprint(fp) for fp in fps] == [
            tuple(reversed(fl_charpoly(distance_matrix(g))))
            for g in graphs]


def write_graph6(path, graphs):
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    return path


def stream_classes(tmp_path, graphs, order, jobs=1):
    """The class table of the graphs through a graph6 file; the file's
    lines must all be connected graphs of the order."""
    classes, problems = cospectral_classes_graph6(
        write_graph6(tmp_path / "stream.g6", graphs), order, jobs=jobs)
    assert problems == []
    return classes


class TestClasses:
    def test_n5_sizes_sum(self):
        cc = cospectral_classes_builtin(5)
        assert cc.order == 5
        assert cc.total == 21
        assert sum(len(m) for m in cc.classes.values()) == 21

    def test_single_graph_stream(self, tmp_path):
        cc = stream_classes(tmp_path, [named_graph("T", 1, 1)], 5)
        assert cc.total == 1
        assert len(cc.classes) == 1

    def test_duplicate_stream_members_share_class(self, tmp_path):
        g = named_graph("T", 1, 1)
        cc = stream_classes(tmp_path, [g, g], 5)
        assert len(cc.classes) == 1
        (members,) = cc.classes.values()
        assert len(members) == 2

    def test_mixed_orders_rejected(self, tmp_path):
        path = write_graph6(tmp_path / "mixed.g6",
                            [named_graph("P", 3), named_graph("P", 4)])
        classes, problems = cospectral_classes_graph6(path, 3)
        assert classes.total == 1
        assert problems == [(2, "order 4, expected 3")]

    def test_empty_stream_rejected(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no connected graph"):
            cospectral_classes_graph6(path, 5)

    def test_parallel_output_identical(self, fake_pools, tmp_path):
        serial = cospectral_classes_builtin(6, jobs=1)
        parallel = cospectral_classes_builtin(6, jobs=2)
        a = json.dumps(serial.to_json_dict(), sort_keys=True)
        b = json.dumps(parallel.to_json_dict(), sort_keys=True)
        assert a == b
        assert serial.to_csv() == parallel.to_csv()
        # built-in parent slices, serial and pooled, against the stream path
        streamed = {
            n: stream_classes(tmp_path, enumerate_connected(n),
                              n).to_json_dict()
            for n in range(1, 7)}
        for n, doc in streamed.items():
            assert cospectral_classes_builtin(n, jobs=1).to_json_dict() == doc
        pools = fake_pools(2)
        for n, doc in streamed.items():
            assert cospectral_classes_builtin(n, jobs=2).to_json_dict() == doc
        assert pools == [[2, None]] * 6

    def test_chunked_stream_identical(self, tmp_path, monkeypatch):
        graphs = list(enumerate_connected(6))
        one = stream_classes(tmp_path, graphs, 6, jobs=1)
        monkeypatch.setattr(mate, "_CHUNK", 7)
        many = stream_classes(tmp_path, graphs, 6, jobs=2)
        assert one.to_json_dict() == many.to_json_dict()

    def test_first_cospectral_mates_at_order_7(self):
        # no mates through order 6; eleven genuinely cospectral pairs at 7
        assert all(len(m) == 1 for m in
                   cospectral_classes_builtin(6).classes.values())
        cc = cospectral_classes_builtin(7)
        multi = {fp: m for fp, m in cc.classes.items() if len(m) > 1}
        assert len(multi) == 11
        for fp, members in multi.items():
            graphs = [from_graph6(g6) for g6 in members]
            # defensive re-check: identical exact charpolys, yet nonisomorphic
            desc = decode_fingerprint(fp)
            for g in graphs:
                assert tuple(reversed(desc)) == \
                    charpoly_exact(distance_matrix(g)).coeffs
            for g, h in combinations(graphs, 2):
                assert not _bf_isomorphic(g.rows, h.rows, 7)

    def test_jobs_clamped_to_cpu_count(self, fake_pools, monkeypatch,
                                       tmp_path):
        pools = fake_pools(3)
        serial = cospectral_classes_builtin(5, jobs=1).to_json_dict()
        assert cospectral_classes_builtin(5, jobs=10 ** 6).to_json_dict() \
            == serial
        monkeypatch.setattr(mate, "_CHUNK", 4)
        assert stream_classes(tmp_path, enumerate_connected(5), 5,
                              jobs=10 ** 6).to_json_dict() == serial
        assert pools == [[3, None], [3, None]]
        fake_pools(None)
        cospectral_classes_builtin(5, jobs=10 ** 6)
        stream_classes(tmp_path, enumerate_connected(5), 5, jobs=10 ** 6)
        assert len(pools) == 2

    def test_pool_closed_when_stream_is_rejected(self, fake_pools, tmp_path):
        pools = fake_pools(2)
        with pytest.raises(FileNotFoundError):
            cospectral_classes_graph6(tmp_path / "missing.g6", 5, jobs=2)
        with pytest.raises(IsADirectoryError):
            cospectral_classes_graph6(tmp_path, 5, jobs=2)
        assert pools == [[2, FileNotFoundError], [2, IsADirectoryError]]

    def test_feed_errors_reach_caller_through_real_pool(self, real_pool,
                                                        tmp_path):
        for path, error in ((tmp_path / "missing.g6", FileNotFoundError),
                            (tmp_path, IsADirectoryError)):
            with pytest.raises(error) as exc:
                cospectral_classes_graph6(path, 5, jobs=2)
            # raised by the pool's feeder thread, delivered as a task result
            assert exc.traceback[-1].path.name == "pool.py"

    def test_json_shape(self):
        doc = cospectral_classes_builtin(4).to_json_dict()
        assert doc["schema"] == 1
        assert doc["order"] == 4
        assert doc["total_graphs"] == 6
        for cls in doc["classes"]:
            assert set(cls) == {"charpoly", "members"}
            assert cls["members"] == sorted(cls["members"])

    def test_csv_shape(self):
        text = cospectral_classes_builtin(4).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "fingerprint,size"
        assert len(lines) == 1 + 6  # n=4: all classes singletons


def read_graph6(path, order, jobs=1):
    """The sorted members and the diagnostics of a graph6 file's table."""
    classes, problems = cospectral_classes_graph6(path, order, jobs=jobs)
    members = sorted(g6 for m in classes.classes.values() for g6 in m)
    assert classes.total == len(members)
    return members, problems


class TestIngest:
    def test_valid_lines(self, tmp_path):
        path = tmp_path / "graphs.g6"
        graphs = list(enumerate_connected(4))[:3]
        path.write_text("\n".join(to_graph6(g) for g in graphs) + "\n")
        assert read_graph6(path, 4) == (
            sorted(to_graph6(g) for g in graphs), [])

    def test_malformed_line_among_valid(self, tmp_path):
        path = tmp_path / "graphs.g6"
        good = [to_graph6(g) for g in list(enumerate_connected(4))[:4]]
        path.write_text("\n".join(good[:2] + ["???bad"] + good[2:]) + "\n")
        members, problems = read_graph6(path, 4)
        assert members == sorted(good)
        assert len(problems) == 1
        assert problems[0][0] == 3

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "graphs.g6"
        p3 = to_graph6(named_graph("P", 3))
        path.write_text("\n\n" + p3 + "\n\n")
        assert read_graph6(path, 3) == ([p3], [])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        with pytest.raises(ValueError, match="no connected graph of order"):
            read_graph6(path, 4)

    def test_wrong_order_lines_are_diagnostics(self, tmp_path):
        path = tmp_path / "graphs.g6"
        five = [to_graph6(g) for g in list(enumerate_connected(5))[:3]]
        four = to_graph6(named_graph("P", 4))
        path.write_text("\n".join(five[:1] + [four] + five[1:]) + "\n")
        assert read_graph6(path, 5) == (sorted(five),
                                        [(2, "order 4, expected 5")])

    def test_no_line_of_the_order_raises(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(to_graph6(named_graph("P", 4)) + "\n")
        with pytest.raises(ValueError, match="order 5"):
            read_graph6(path, 5)

    def test_ingest_yields_graphs_and_records_problems(self):
        p4, c4 = named_graph("P", 4), named_graph("C", 4)
        lines = [(3, to_graph6(p4) + "\n"), (4, "  \n"), (5, "???bad"),
                 (6, to_graph6(Graph.from_edges(4, [(0, 1), (2, 3)]))),
                 (7, to_graph6(named_graph("P", 3))), (9, to_graph6(c4))]
        problems = []
        assert list(mate.ingest_graph6(lines, 4, problems)) == [p4, c4]
        assert [ln for ln, _ in problems] == [5, 6, 7]
        assert problems[1:] == [(6, "disconnected graph"),
                                (7, "order 3, expected 4")]

    def test_members_are_reencoded(self, tmp_path):
        # a 4-byte size header is valid graph6 below order 63 too, but the
        # member is the short-header encoding
        path = tmp_path / "graphs.g6"
        t11 = to_graph6(named_graph("T", 1, 1))
        path.write_text("~??D" + t11[1:] + "\n")
        assert read_graph6(path, 5) == ([t11], [])


class TestDsVerdict:
    def test_t11_builtin(self):
        r = ds_verdict(1, 1, cospectral_classes_builtin(5))
        assert r.ok
        assert r.details["class_size"] == 1
        assert r.details["total_graphs"] == 21

    def test_n7_pairs(self):
        classes = cospectral_classes_builtin(7)
        for a, b in ((2, 2), (3, 1), (1, 3)):
            r = ds_verdict(a, b, classes=classes)
            assert r.ok, (a, b, r.details)
        assert classes.total == 853

    def test_precomputed_classes_reused(self):
        classes = cospectral_classes_builtin(5)
        assert ds_verdict(1, 1, classes=classes).ok

    def test_order_mismatch(self):
        classes = cospectral_classes_builtin(5)
        with pytest.raises(ValueError, match="order"):
            ds_verdict(2, 2, classes=classes)

    def test_failure_path_reports_mates(self, tmp_path):
        g = named_graph("T", 1, 1)
        fake = stream_classes(tmp_path, [g, g], 5)
        r = ds_verdict(1, 1, classes=fake)
        assert not r.ok
        assert r.details["witnesses"][0]["class_size"] == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ds_verdict(0, 1, cospectral_classes_builtin(4))

    @pytest.mark.parametrize("pool", ["serial", "real_pool"])
    def test_builtin_and_stream_tables_agree(self, tmp_path, request, pool):
        # one rule for both sources: the same graphs give the same verdicts
        jobs = 1
        if pool == "real_pool":
            request.getfixturevalue("real_pool")
            jobs = 2
        for n in range(5, 8):
            builtin = cospectral_classes_builtin(n)
            stream = stream_classes(tmp_path, enumerate_connected(n), n,
                                    jobs=jobs)
            assert (builtin.generated, stream.generated) == (True, False)
            for a in range(1, n - 3):
                b = n - 3 - a
                want = ds_verdict(a, b, builtin).to_json_dict()
                assert want["status"] == "pass"
                assert ds_verdict(a, b, stream).to_json_dict() == want

    def test_builtin_table_with_a_wrong_total_is_inconclusive(self):
        classes = dataclasses.replace(cospectral_classes_builtin(5),
                                      total=20)
        r = ds_verdict(1, 1, classes)
        assert r.status == "inconclusive"
        assert (r.details["expected_graphs"],
                r.details["distinct_graphs"]) == (21, 21)

    def test_generated_members_need_no_canonical_forms(self, monkeypatch,
                                                       tmp_path):
        def no_canonical_form(g):
            raise AssertionError("canonical form of a generated member")

        builtin = cospectral_classes_builtin(7)
        monkeypatch.setattr(mate, "canonical_form", no_canonical_form)
        assert builtin.distinct_sizes() == [
            len(m) for m in builtin.classes.values()]
        assert max(builtin.distinct_sizes()) == 2
        # a stream's members are counted distinct by canonical forms
        g = named_graph("T", 1, 1)
        with pytest.raises(AssertionError, match="canonical form"):
            stream_classes(tmp_path, [g, g], 5).distinct_sizes()
