"""End-to-end CLI: exit codes, formats, determinism, JSON schema."""

import hashlib
import json
import os

import pytest

from oracle_utils import enumerate_connected
from specgraph import mate, verify
from specgraph.cli import main, parse_graph_spec
from specgraph.forms import EXPECTED_EXCEPTIONS
from specgraph.graphs import Graph, named_graph, to_graph6


GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "verify_all_default.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphSpecGrammar:
    def test_named_with_params(self):
        assert parse_graph_spec("T:1,1").n == 5
        assert parse_graph_spec("C:7").n == 7
        assert parse_graph_spec("K:4").n == 4

    def test_fixed_names(self):
        assert parse_graph_spec("H3").n == 6
        assert parse_graph_spec("F4").n == 10
        assert parse_graph_spec("P6").n == 6
        # every case family of the catalog, with no list kept in the CLI
        for name in EXPECTED_EXCEPTIONS:
            assert parse_graph_spec(name) == named_graph(name)

    def test_graph6_literal(self):
        g = parse_graph_spec("D?{")
        assert g.n == 5 and g.degree(4) == 4

    def test_garbage_rejected(self):
        from specgraph.cli import UsageError
        with pytest.raises(UsageError):
            parse_graph_spec("T:1")
        with pytest.raises(UsageError):
            parse_graph_spec("ZZZZ:")
        # a parameterised family without its parameters is not a name
        with pytest.raises(UsageError):
            parse_graph_spec("T")


class TestSpectrum:
    def test_t11_text(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "T:1,1", "--format", "text")
        assert code == 0
        assert "8.288216" in out
        assert "-5.236068" in out
        assert "charpoly:" in out

    def test_k4(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "K:4", "--format", "text")
        assert code == 0
        assert "3.000000" in out and "-1.000000" in out

    def test_p2(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "P:2", "--format", "text")
        assert code == 0
        assert "1.000000, -1.000000" in out

    def test_json_with_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "T:1,1", "--matrix",
                               "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["distance_matrix"][0] == [0, 1, 2, 1, 3]
        assert len(doc["eigenvalues"]) == 5
        assert "timestamp" not in doc

    def test_timestamp_present_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "P:3")
        assert code == 0
        assert "timestamp" in json.loads(out)

    def test_bad_spec_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "T:x,y")
        assert code == 2
        assert "error" in err

    def test_disconnected_graph_exit_2(self, capsys):
        # B? is two isolated vertices: no distance matrix
        code, out, err = run_cli(capsys, "spectrum", "B?")
        assert (code, out) == (2, "")
        assert err.startswith("error: 'B?': ")
        assert "connected" in err and "Traceback" not in err

    def test_csv_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "T:1,1", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestVerify:
    def test_lemma22_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma22", "--max-ab", "4",
                               "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["lemma"] == "lemma22" and doc["status"] == "pass"

    def test_case_h3_reports_exception(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "case:H3", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["exceptions"] == [{"a": 3, "b": 4, "c": 3}]

    def test_hats1_mentions_28abc(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hats:1", "--no-timestamp")
        assert code == 0
        assert "28*a'*b'*c'" in out

    def test_case_f2_fails_exit_1(self, capsys):
        # the a=2 case satisfies every submatrix bound, so the claimed
        # empty exception list cannot be reproduced by a sound sweep
        code, out, _ = run_cli(capsys, "verify", "case:F2", "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert doc["witnesses"]

    def test_unknown_lemma_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "lemma99")
        assert code == 2
        assert "unknown lemma" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem31",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "lemma,status"
        assert out.splitlines()[1] == "theorem31,pass"

    def test_fg_roots_small_bound(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "fg-roots", "--max-c", "5",
                               "--no-timestamp")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("verify", "lemma22", "--max-ab", "0"),
        ("verify", "cycles", "--max-n", "5"),
        ("verify", "fg-roots", "--max-c", "0"),
        ("verify", "theorem31", "--max-ab", "0"),
        ("verify", "interlacing", "--max-ab", "0"),
        ("report", "--max-ab", "0")])
    def test_out_of_range_bound_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be >=" in err

    def test_all_past_64_vertices_exit_2(self, capsys):
        # T(31,31) would have 65 vertices; lemma22, the first verifier,
        # refuses the bound before it computes anything
        code, out, err = run_cli(capsys, "verify", "all", "--max-ab", "31",
                                 "--no-timestamp")
        assert (code, out) == (2, "")
        assert err == ("error: lemma22: max_ab must be <= 30: T(a,b) has "
                       "a+b+3 vertices, and graphs hold at most 64\n")

    def test_all_at_max_ab_1(self, capsys):
        # theorem31 has one unordered pair at max_ab 1; only F2 fails
        code, out, err = run_cli(capsys, "verify", "all", "--max-ab", "1",
                                 "--format", "csv")
        assert (code, err) == (1, "")
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert rows.pop("case:F2") == "fail"
        assert rows["theorem31"] == "pass"
        assert set(rows.values()) == {"pass"}

    def test_all_at_benchmark_bounds(self, capsys):
        # the verify-wide workload's bounds: every verifier passes except
        # case:F2, whose one exception is a=2
        code, out, _ = run_cli(capsys, "verify", "all", "--max-ab", "12",
                               "--max-n", "24", "--max-c", "300",
                               "--no-timestamp")
        assert code == 1
        results = json.loads(out)["results"]
        assert [r["lemma"] for r in results] == list(verify.VERIFIER_IDS)
        assert [r["lemma"] for r in results if r["status"] != "pass"] == \
            ["case:F2"]
        f2 = next(r for r in results if r["lemma"] == "case:F2")
        assert f2["status"] == "fail"
        assert f2["exceptions"] == [{"a": 2}]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "cycles", "--max-n", "9",
                               "--out", str(target), "--no-timestamp")
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["lemma"] == "cycles"
        # the file holds the bytes stdout gets, one newline after the JSON
        _, out, _ = run_cli(capsys, "verify", "cycles", "--max-n", "9",
                            "--no-timestamp")
        assert target.read_text() == out and out.endswith("}\n")

    @pytest.mark.parametrize("argv", [("verify", "hats:1"),
                                      ("mate-search", "--n", "4")])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv):
        # a usage error, not a traceback with exit 1 ("a check failed")
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err

    def test_unwritable_out_fails_before_the_work(self, capsys, tmp_path,
                                                  monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("class table built for an unwritable --out")

        monkeypatch.setattr(mate, "cospectral_classes_builtin", build)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "mate-search", "--n", "8",
                                 "--out", str(target))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot write {str(target)!r}: "
                       "No such file or directory\n")

    def test_directory_out_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "hats:1",
                                 "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot write {str(tmp_path)!r}: "
                       "Is a directory\n")

    def test_existing_out_untouched_by_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "it"
        target.write_text("kept\n")
        code, out, _ = run_cli(capsys, "verify", "lemma22", "--max-ab", "0",
                               "--out", str(target))
        assert (code, out) == (2, "")
        assert target.read_text() == "kept\n"


def json_mismatches(got, want, path="$", tol=1e-9):
    """Paths where two JSON documents differ: any difference in structure,
    keys, strings, ints or booleans, and floats more than tol apart."""
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if abs(got - want) <= tol else [path]
    if type(got) is not type(want):
        return [path]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [path]
        return [p for k in want
                for p in json_mismatches(got[k], want[k], f"{path}.{k}", tol)]
    if isinstance(want, list):
        if len(got) != len(want):
            return [path]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in json_mismatches(g, w, f"{path}[{i}]", tol)]
    return [] if got == want else [path]


class TestVerifyGolden:
    """verify all at the default bounds against a committed report made
    with the earlier Jacobi eigensolver: floats within 1e-9, all else
    equal.  Eigenvalue digits depend on the numpy/BLAS build; verdicts
    must not."""

    def test_verify_all_matches_golden(self, capsys):
        with open(GOLDEN, encoding="utf-8") as fh:
            want = json.load(fh)
        code, out, _ = run_cli(capsys, "verify", "all", "--no-timestamp")
        assert code == 1  # case:F2, by design
        assert json_mismatches(json.loads(out), want) == []

    def test_comparison_catches_changes(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            want = json.load(fh)
        case = want["results"][3]["cases"][0]
        assert isinstance(case["eigenvalue"]["value"], float)
        for mutate in (
                lambda d: d["results"][3]["cases"][0]["eigenvalue"].update(
                    value=case["eigenvalue"]["value"] + 2e-9),
                lambda d: d["results"][3]["cases"][0]["eigenvalue"].update(
                    index=case["eigenvalue"]["index"] + 1),
                lambda d: d["results"][3]["cases"][0].update(
                    verdict="infeasible-excluded"),
                lambda d: d["results"][12].update(status="pass"),
                lambda d: d["results"].pop()):
            got = json.loads(json.dumps(want))
            mutate(got)
            assert json_mismatches(got, want)
        nudged = json.loads(json.dumps(want))
        nudged["results"][3]["cases"][0]["eigenvalue"]["value"] += 5e-10
        assert json_mismatches(nudged, want) == []


class TestMateSearch:
    def test_tab_11_text(self, capsys):
        code, out, _ = run_cli(capsys, "mate-search", "--tab", "1,1",
                               "--format", "text")
        assert code == 0
        assert "DS: PASS, class size 1 of 21 graphs" in out

    def test_n6_class_table(self, capsys):
        code, out, _ = run_cli(capsys, "mate-search", "--n", "6",
                               "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_graphs"] == 112
        assert sum(len(c["members"]) for c in doc["classes"]) == 112

    def test_jobs_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, "mate-search", "--tab", "2,1",
                                 "--jobs", "1", "--no-timestamp")
        code2, out2, _ = run_cli(capsys, "mate-search", "--tab", "2,1",
                                 "--jobs", "2", "--no-timestamp")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_jobs_and_env_clamped_to_cpu_count(self, capsys, monkeypatch,
                                               tmp_path, fake_pools):
        pools = fake_pools(2)
        monkeypatch.setattr(mate, "_CHUNK", 4)
        path = tmp_path / "n5.g6"
        path.write_text("\n".join(to_graph6(g)
                                  for g in enumerate_connected(5)) + "\n")
        code, _, _ = run_cli(capsys, "mate-search", "--n", "5",
                             "--jobs", "1000000")
        assert code == 0
        monkeypatch.setenv("SPECGRAPH_JOBS", "1000000")
        code, _, _ = run_cli(capsys, "mate-search", "--n", "5",
                             "--input", str(path))
        assert code == 0
        assert pools == [[2, None], [2, None]]

    @pytest.mark.parametrize("command", ["mate-search", "report"])
    @pytest.mark.parametrize("flag,env", [
        ("0", None), ("-2", None), (None, "0"), (None, "abc")])
    def test_jobs_below_one_exit_2(self, capsys, monkeypatch, command,
                                   flag, env):
        if env is not None:
            monkeypatch.setenv("SPECGRAPH_JOBS", env)
        argv = [command] + (["--n", "5"] if command == "mate-search" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--jobs", flag] if flag is not None else []))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "SPECGRAPH_JOBS" in err
        assert repr(flag if flag is not None else env) in err

    def test_verify_ignores_jobs_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECGRAPH_JOBS", "abc")
        code, out, _ = run_cli(capsys, "verify", "lemma22", "--max-ab", "2",
                               "--format", "csv")
        assert (code, out) == (0, "lemma,status\nlemma22,pass\n")

    def test_tab_csv_rejected_before_generation(self, capsys, monkeypatch):
        # the CSV is the class table alone and would drop the verdict
        def no_generation(*args, **kwargs):
            raise AssertionError("class table built for a rejected format")

        monkeypatch.setattr(mate, "cospectral_classes_builtin",
                            no_generation)
        code, out, err = run_cli(capsys, "mate-search", "--tab", "2,3",
                                 "--format", "csv")
        assert (code, out) == (2, "")
        assert err.startswith("error: --format csv ")

    def test_csv_summary(self, capsys):
        code, out, _ = run_cli(capsys, "mate-search", "--n", "5",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "fingerprint,size"
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 21

    def test_input_stream(self, capsys, tmp_path):
        path = tmp_path / "n5.g6"
        path.write_text("\n".join(to_graph6(g)
                                  for g in enumerate_connected(5)) + "\n")
        code, out, _ = run_cli(capsys, "mate-search", "--tab", "1,1",
                               "--input", str(path), "--format", "text")
        assert code == 0
        assert "DS: PASS" in out

    def test_input_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        good = [to_graph6(g) for g in enumerate_connected(4)]
        path.write_text("\n".join(good[:2] + ["@@@@bad@@@"] + good[2:])
                        + "\n")
        code, out, _ = run_cli(capsys, "mate-search", "--n", "4",
                               "--input", str(path), "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["input_diagnostics"]) == 1

    def test_disconnected_line_is_a_diagnostic(self, capsys, tmp_path):
        # D?? is the empty graph on five vertices
        path = tmp_path / "n4.g6"
        good = [to_graph6(g) for g in enumerate_connected(4)]
        path.write_text("\n".join(good[:3] + ["D??"] + good[3:]) + "\n")
        code, out, _ = run_cli(capsys, "mate-search", "--n", "4",
                               "--input", str(path), "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["input_diagnostics"] == ["line 4: disconnected graph"]
        assert doc["total_graphs"] == 6

    def test_wrong_order_line_is_a_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "n5.g6"
        good = [to_graph6(g) for g in enumerate_connected(5)]
        four = to_graph6(next(enumerate_connected(4)))
        path.write_text("\n".join(good[:5] + [four] + good[5:]) + "\n")
        code, out, _ = run_cli(capsys, "mate-search", "--tab", "1,1",
                               "--input", str(path), "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["input_diagnostics"] == ["line 6: order 4, expected 5"]
        assert doc["total_graphs"] == 21
        assert doc["ds"]["status"] == "pass"

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_diagnostics_warned_on_stderr(self, capsys, tmp_path, fmt):
        good = [to_graph6(g) for g in enumerate_connected(5)]
        four = to_graph6(next(enumerate_connected(4)))
        clean, mixed = tmp_path / "clean.g6", tmp_path / "mixed.g6"
        clean.write_text("\n".join(good) + "\n")
        mixed.write_text("\n".join(good[:5] + [four] + good[5:]) + "\n")
        runs = [run_cli(capsys, "mate-search", "--n", "5", "--input",
                        str(path), "--format", fmt, "--no-timestamp")
                for path in (clean, mixed)]
        assert runs[0] == (0, runs[1][1], "")
        assert runs[1] == (0, runs[0][1],
                           "warning: line 6: order 4, expected 5\n")

    def test_stream_copies_are_not_mates(self, capsys, tmp_path):
        path = tmp_path / "copies.g6"
        path.write_text(3 * (to_graph6(named_graph("T", 1, 1)) + "\n"))
        code, out, _ = run_cli(capsys, "mate-search", "--n", "5", "--input",
                               str(path), "--format", "text")
        assert code == 0
        assert out == ("order 5: 3 graphs, 1 charpoly classes\n"
                       "classes with cospectral mates: 0\n")
        code, out, _ = run_cli(capsys, "mate-search", "--n", "7",
                               "--format", "text")
        assert code == 0
        assert "classes with cospectral mates: 11\n" in out

    def _faulty_stream(self, tmp_path):
        # with three lines per task, each fault falls in its own chunk
        good = [to_graph6(g) for g in enumerate_connected(5)]
        lines = (good[:1] + ["???bad"] + good[1:5] + ["D??"] + good[5:9]
                 + [to_graph6(named_graph("P", 4))] + good[9:])
        path = tmp_path / "faulty.g6"
        path.write_text("\n".join(lines) + "\n")
        return path, ["line 2: vertex count 0 outside 1..64 (byte offset 0)",
                      "line 7: disconnected graph",
                      "line 12: order 4, expected 5"]

    def test_pool_parse_matches_serial(self, capsys, tmp_path, real_pool):
        path, diagnostics = self._faulty_stream(tmp_path)
        outs = []
        for jobs in ("1", "2"):
            target = tmp_path / f"jobs{jobs}.json"
            code, _, _ = run_cli(capsys, "mate-search", "--tab", "1,1",
                                 "--input", str(path), "--jobs", jobs,
                                 "--no-timestamp", "--out", str(target))
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["input_diagnostics"] == diagnostics
        assert doc["total_graphs"] == 21
        code, out, err = run_cli(capsys, "mate-search", "--tab", "1,1",
                                 "--input", str(path), "--jobs", "2",
                                 "--format", "text")
        assert code == 0
        assert err == "".join(f"warning: {d}\n" for d in diagnostics)

    def test_no_graph_of_the_order_closes_the_pool(self, capsys, tmp_path,
                                                   fake_pools):
        pools = fake_pools(2)
        path, _ = self._faulty_stream(tmp_path)
        code, out, err = run_cli(capsys, "mate-search", "--n", "6",
                                 "--input", str(path), "--jobs", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: no connected graph of order 6")
        assert pools == [[2, None]]

    def test_input_of_another_order_exit_2(self, capsys, tmp_path):
        path = tmp_path / "n5.g6"
        path.write_text("\n".join(to_graph6(g)
                                  for g in enumerate_connected(5)) + "\n")
        code, out, err = run_cli(capsys, "mate-search", "--n", "6",
                                 "--input", str(path), "--format", "text")
        assert code == 2
        assert out == ""
        assert "order 6" in err

    @pytest.mark.parametrize("n,digest", [
        (7, "adb23a7ef007ebebe8bdd2ac1323cd10fd7c6237ef5ce53ba4a655d7ab5a87ba"),
        (8, "c902e27686badf31e61228d21bf4fc05cd2b4fc8562090e15676da1c70b8071d"),
    ])
    def test_csv_golden(self, capsys, n, digest):
        # fingerprint digests and class sizes only, so any member
        # labelings give the same bytes
        code, out, _ = run_cli(capsys, "mate-search", "--n", str(n),
                               "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_external_source_keeps_parse_errors(self, capsys, tmp_path):
        path = tmp_path / "n5.g6"
        lines = [to_graph6(g) for g in enumerate_connected(5)]
        path.write_text("\n".join(lines[:2] + ["???bad"] + lines[2:]) + "\n")
        code, out, _ = run_cli(capsys, "mate-search", "--tab", "1,1",
                               "--input", str(path), "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["ds"]["status"] == "pass"
        assert doc["ds"]["total_graphs"] == 21
        (diagnostic,) = doc["input_diagnostics"]
        assert diagnostic.startswith("line 3:")

    def test_external_source(self, capsys, tmp_path):
        path = tmp_path / "n5.g6"
        path.write_text("\n".join(
            to_graph6(g) for g in enumerate_connected(5)) + "\n")
        code, out, _ = run_cli(capsys, "mate-search", "--tab", "1,1",
                               "--input", str(path), "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["ds"]["status"] == "pass"
        assert doc["ds"]["total_graphs"] == 21
        assert "input_diagnostics" not in doc

    def _stream_ds(self, capsys, tmp_path, graphs, *fmt, tab="1,1"):
        path = tmp_path / "stream.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        return run_cli(capsys, "mate-search", "--tab", tab, "--input",
                       str(path), "--no-timestamp", *fmt)

    def test_partial_stream_is_inconclusive(self, capsys, tmp_path):
        t11 = named_graph("T", 1, 1)
        code, out, _ = self._stream_ds(capsys, tmp_path, [t11])
        assert code == 1
        ds = json.loads(out)["ds"]
        assert ds["status"] == "inconclusive"
        assert (ds["expected_graphs"], ds["distinct_graphs"]) == (21, 1)
        code, out, _ = self._stream_ds(capsys, tmp_path, [t11], "--format",
                                       "text")
        assert code == 1
        assert ("DS: INCONCLUSIVE, class size 1 of 1 graphs "
                "(1 distinct, 21 expected)") in out
        # one member dropped from a full stream
        graphs = list(enumerate_connected(5))
        code, out, _ = self._stream_ds(capsys, tmp_path, graphs[1:])
        assert code == 1
        ds = json.loads(out)["ds"]
        assert ds["status"] == "inconclusive"
        assert (ds["expected_graphs"], ds["distinct_graphs"]) == (21, 20)

    def test_duplicated_stream_is_inconclusive(self, capsys, tmp_path):
        t11 = named_graph("T", 1, 1)
        code, out, _ = self._stream_ds(capsys, tmp_path, [t11] * 3)
        assert code == 1
        ds = json.loads(out)["ds"]
        assert ds["status"] == "inconclusive"
        assert ds["class_size"] == 3
        assert (ds["expected_graphs"], ds["distinct_graphs"]) == (21, 1)

    def test_duplicate_for_missing_is_inconclusive(self, capsys, tmp_path):
        # 21 lines, but one graph twice (the second copy relabeled) and
        # another missing
        graphs = list(enumerate_connected(5))
        g = graphs[0]
        perm = list(reversed(range(5)))
        graphs[-1] = Graph.from_edges(5, [(perm[u], perm[v])
                                          for u, v in g.edges()])
        assert graphs[-1] != g
        code, out, _ = self._stream_ds(capsys, tmp_path, graphs)
        assert code == 1
        doc = json.loads(out)
        assert doc["total_graphs"] == 21
        assert doc["ds"]["status"] == "inconclusive"
        assert doc["ds"]["distinct_graphs"] == 20

    def test_stream_beyond_known_counts_is_inconclusive(self, capsys,
                                                         tmp_path):
        # A001349 is hard-coded up to order 10; T(4,4) has order 11
        code, out, _ = self._stream_ds(capsys, tmp_path,
                                       [named_graph("T", 4, 4)],
                                       "--format", "text", tab="4,4")
        assert code == 1
        assert ("DS: INCONCLUSIVE, class size 1 of 1 graphs "
                "(1 distinct, unknown expected)") in out

    def test_order_mismatch_exit_2(self, capsys, tmp_path):
        path = tmp_path / "n5.g6"
        path.write_text("\n".join(to_graph6(g)
                                  for g in enumerate_connected(5)) + "\n")
        code, _, err = run_cli(capsys, "mate-search", "--tab", "2,2",
                               "--input", str(path))
        assert code == 2
        assert "order" in err

    def test_bad_tab_rejected_before_generation(self, capsys, monkeypatch):
        def no_generation(*args, **kwargs):
            raise AssertionError("class table built for a rejected --tab")

        monkeypatch.setattr(mate, "cospectral_classes_builtin",
                            no_generation)
        code, _, err = run_cli(capsys, "mate-search", "--tab", "0,6")
        assert code == 2
        assert "a, b >= 1" in err

    def test_missing_selector_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mate-search")
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "mate-search", "--n", "5",
                               "--input", "/nonexistent/file.g6")
        assert code == 2

    def test_missing_file_through_real_pool_exit_2(self, capsys, real_pool):
        # the file is opened by the pool's feeder thread, not the caller
        code, _, err = run_cli(capsys, "mate-search", "--n", "5",
                               "--input", "/nonexistent/file.g6",
                               "--jobs", "2")
        assert code == 2
        assert "No such file" in err


class TestReport:
    def test_small_bounds_report(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--max-ab", "3",
                               "--max-n", "9", "--max-c", "3",
                               "--no-timestamp")
        # case:F2 fails (its a=2 case beats every spectral test; the sweep
        # reports it honestly); everything else passes
        assert code == 1
        doc = json.loads(out)
        failing = [r["lemma"] for r in doc["results"]
                   if r["status"] == "fail"]
        assert failing == ["case:F2"]
        ds = [r for r in doc["results"] if r["lemma"].startswith("ds:")]
        # orders 5..8 with a <= b
        assert len(ds) == 1 + 1 + 2 + 2
        assert all(r["status"] == "pass" for r in ds)

    def test_all_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--all"])
        assert exc.value.code == 2
        assert "--all" in capsys.readouterr().err

    def test_csv_one_row_per_lemma(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--max-ab", "2",
                               "--max-n", "8", "--max-c", "2",
                               "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "lemma,status"
        assert any(line.startswith("lemma22,") for line in lines)
        assert any(line.startswith("ds:T(1,1),") for line in lines)

    def test_text_one_line_per_result(self, capsys):
        argv = ("report", "--max-ab", "2", "--max-n", "8", "--max-c", "2")
        code, out, _ = run_cli(capsys, *argv, "--format", "text")
        assert code == 1
        _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        statuses = [row.rsplit(",", 1) for row in csv_out.splitlines()[1:]]
        assert out.splitlines() == [
            f"{lemma}: {status}"
            + (" (1 witnesses)" if lemma == "case:F2" else "")
            for lemma, status in statuses]
        assert "ds:T(2,3): pass" in out

    def test_report_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--max-ab", "2",
                               "--max-n", "8", "--max-c", "2",
                               "--no-timestamp")
        doc = json.loads(out)
        assert doc["schema"] == 1
        for r in doc["results"]:
            assert r["schema"] == 1
            assert "witnesses" in r
