"""Verifier suite: pass status at desk bounds, witnesses on injected faults."""

import json
import math
from fractions import Fraction

import pytest

from specgraph import forms, verify
from specgraph.exactpoly import IntPoly, charpoly_exact
from specgraph.graphs import distance_matrix, named_graph
from specgraph.spectra import Spectrum, eigenvalues_sym
from specgraph.verify import (
    run_verifier,
    verify_case,
    verify_cycle_lemmas,
    verify_fg_roots,
    verify_hats,
    verify_interlacing_bounds,
    verify_lemma22,
    verify_theorem31,
)


class TestLemma22:
    def test_passes_at_8(self):
        r = verify_lemma22(8)
        assert r.ok
        assert r.details["pairs_checked"] == 64

    def test_passes_at_1(self):
        assert verify_lemma22(1).ok

    def test_passes_at_21(self):
        # T(21,21) has 45 vertices, within the cap of 64; 21 is the least
        # max_ab with 3 * max_ab + 3 > 64, so a bound on 3 * max_ab fails
        assert verify_lemma22(21).ok

    def test_past_64_vertices_raises_before_any_charpoly(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("charpoly computed before the bound check")

        monkeypatch.setattr(verify, "charpoly_rows", unreachable)
        monkeypatch.setattr(verify, "charpoly_exact", unreachable)
        with pytest.raises(ValueError, match="max_ab must be <= 30: "
                                             r"T\(a,b\) has a\+b\+3 vertices"):
            verify_lemma22(31)

    def test_one_charpoly_rows_call_per_order(self, monkeypatch):
        # orders 5..13 at max_ab 5, each stack holding every T(a,b) of
        # its order, and each row equal to the one-matrix charpoly
        calls = []
        real = verify.charpoly_rows

        def checking(stack):
            rows = real(stack)
            calls.append((len(stack[0]), len(stack)))
            assert [IntPoly(row) for row in rows] == \
                [charpoly_exact(d) for d in stack]
            return rows

        monkeypatch.setattr(verify, "charpoly_rows", checking)
        assert verify_lemma22(5).ok
        assert calls == [(n, min(n - 4, 14 - n)) for n in range(5, 14)]

    def test_witnesses_in_pair_order(self, monkeypatch):
        # stacks run by order, witnesses still come a-major, then b
        real = forms.p_ab
        monkeypatch.setattr(forms, "p_ab", lambda a, b: real(a, b) + 1)
        r = verify_lemma22(3)
        assert [(w["a"], w["b"]) for w in r.details["witnesses"]] == [
            (a, b) for a in (1, 2, 3) for b in (1, 2, 3)]

    def test_mutated_constant_fails_with_witness(self, monkeypatch):
        real = forms.p_ab
        monkeypatch.setattr(forms, "p_ab", lambda a, b: real(a, b) + 1)
        r = verify_lemma22(3)
        assert not r.ok
        w = r.details["witnesses"][0]
        assert w["a"] == 1 and w["b"] == 1
        assert w["coefficient_diff"][0]["power"] == 0

    def test_witness_past_both_degrees(self, monkeypatch):
        # a closed form off only at L^40, far above T(1,1)'s degree 5,
        # still names the power it differs at
        real = forms.minus_two_run
        monkeypatch.setattr(forms, "minus_two_run",
                            lambda e, q: real(e, q) + IntPoly([0] * 40 + [1]))
        r = verify_lemma22(1)
        assert not r.ok
        assert r.details["witnesses"] == [
            {"a": 1, "b": 1, "coefficient_diff": [
                {"power": 40, "closed": 1, "derived": 0}]}]


class TestInterlacing:
    def test_passes(self):
        assert verify_interlacing_bounds(8).ok

    def test_t11_equality_case_included(self):
        assert verify_interlacing_bounds(1).ok

    @pytest.mark.parametrize("max_ab", [0, -3])
    def test_rejects_empty_range(self, max_ab):
        with pytest.raises(ValueError):
            verify_interlacing_bounds(max_ab)

    def test_principal_refuses_a_short_or_long_index_list(self):
        # D(T(1,1)) is D(T(2,2)) on (0, 1, 2, 3, 5); an index list cut
        # short or run long, and rows of the wrong length, are refused
        big = distance_matrix(named_graph("T", 2, 2))
        small = distance_matrix(named_graph("T", 1, 1))
        at = (0, 1, 2, 3, 5)
        assert verify._principal(big, small, at)
        assert not verify._principal(big, small, at[:4])
        assert not verify._principal(big, small, ())
        assert not verify._principal(big, small, at + (6,))
        assert not verify._principal(big, small[:4], at[:4])

    def test_witness_names(self, monkeypatch):
        # charpolys with every root far above and far below every bound,
        # for T(1,1) and T(c,c) alike, name each of the eight checks, from
        # forms' interval table, in the reported text
        names = set()
        for value in (100, -100):
            monkeypatch.setattr(verify, "charpoly_exact",
                                lambda d, v=value: IntPoly([-v, 1]) ** len(d))
            names |= {w["bound"] for w in
                      verify_interlacing_bounds(1).details["witnesses"]}
        assert names == {
            "lambda1 >= 8.2882", "lambda2 >= -0.5578", "lambda3 >= -0.7639",
            "lambda4 >= -1.7304", "lambda_n <= -5.2361",
            "lambda2 <= lambda2(Tcc) < 0",
            "lambda3 <= lambda3(Tcc) < -0.4226",
            "lambda4 <= lambda4(Tcc) < -1.5774"}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_upper_bound_at_an_exact_tcc_eigenvalue(self, monkeypatch, k):
        # a bound 1e-12 above the largest lambda_k(T(c,c)), c <= 3, holds;
        # 1e-12 below it, exactly the pairs with that c = max(a,b) fail
        tops = {c: eigenvalues_sym(distance_matrix(named_graph("T", c, c)))
                .nth(k) for c in (1, 2, 3)}
        c = max(tops, key=tops.get)
        for shift in (1e-12, -1e-12):
            high = tops[c] + shift
            monkeypatch.setattr(verify, "_UPPER_BOUNDS", ((k, high),))
            witnesses = verify_interlacing_bounds(3).details["witnesses"]
            assert [(w["a"], w["b"]) for w in witnesses] == (
                [] if shift > 0 else
                [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)
                 if max(a, b) == c])
            assert {w["bound"] for w in witnesses} <= {
                f"lambda{k} <= lambda{k}(Tcc) < {high:g}"}

    def test_a_matrix_off_the_subtree_fails_its_pairs(self, monkeypatch):
        # T(2,1)'s two leaves at center 0 moved to distance 3: it is no
        # longer D(T(2,2)) restricted, and T(1,1) still sits in it at
        # (0, 1, 2, 3, 5), so only T(2,1)'s three upper bounds fail
        real = verify.distance_matrix

        def moved(g):
            d = [list(row) for row in real(g)]
            if g == named_graph("T", 2, 1):
                d[3][4] = d[4][3] = 3
            return tuple(map(tuple, d))

        monkeypatch.setattr(verify, "distance_matrix", moved)
        witnesses = verify_interlacing_bounds(2).details["witnesses"]
        assert [(w["a"], w["b"], w["bound"]) for w in witnesses] == [
            (2, 1, f"lambda{k} <= lambda{k}(Tcc) < {high:g}")
            for k, high in verify._UPPER_BOUNDS]


class TestCycles:
    def test_passes(self):
        r = verify_cycle_lemmas(12)
        assert r.ok
        assert r.details["minus2_requirement_if_submatrix"]["8"] == 3

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            verify_cycle_lemmas(7)

    @pytest.mark.parametrize("fault", [
        "moved by 1e-8", "one value dropped", "a value's window overlaps"])
    def test_closed_spectrum_fault_fails(self, monkeypatch, fault):
        # C6's distance spectrum is 9, 0, 0, -1, -4, -4; in the last fault
        # -1 + 1e-9 stands in for 9, so each window holds its count but 9
        # is in none
        true = forms.cycle_spectrum_closed(6).values
        faulty = {
            "moved by 1e-8": (9 + 1e-8, *true[1:]),
            "one value dropped": true[1:],
            "a value's window overlaps": (0, 0, -1 + 1e-9, -1, -4, -4),
        }[fault]
        real = forms.cycle_spectrum_closed
        monkeypatch.setattr(forms, "cycle_spectrum_closed",
                            lambda n: Spectrum(faulty) if n == 6 else real(n))
        r = verify_cycle_lemmas(8)
        assert [w["n"] for w in r.details["witnesses"]] == [6]
        assert r.details["witnesses"][0]["numeric"] == pytest.approx(true)

    @pytest.mark.parametrize("name,fact", [
        ("C5_LAMBDA3", "lambda3(C5)="),
        ("CAPPED_C7_LAMBDA5", "capped C7 lambda5 = ")])
    @pytest.mark.parametrize("shift", [1e-4, -1e-4])
    def test_moved_reference_fails(self, monkeypatch, name, fact, shift):
        # the true values, -0.381966 and -1.554958, sit within 5e-5 of the
        # printed ones; 1e-4 away they do not
        moved = round(getattr(forms, name) + shift, 4)
        monkeypatch.setattr(forms, name, moved)
        r = verify_cycle_lemmas(8)
        assert [w["fact"] for w in r.details["witnesses"]] == \
            [f"{fact}{moved:.4f}"]


class TestVersus:
    def test_tab_minus_two_run(self):
        # T(2,2): lambda1..4 above -2, lambda5 = lambda6 = -2, lambda7 below
        p = charpoly_exact(distance_matrix(named_graph("T", 2, 2)))
        assert [verify._versus(p, k, -2) for k in range(1, 8)] == \
            [1, 1, 1, 1, 0, 0, -1]

    def test_complete_graph(self):
        p = charpoly_exact(distance_matrix(named_graph("K", 4)))
        assert [verify._versus(p, k, -1) for k in range(1, 5)] == \
            [1, 0, 0, 0]
        assert verify._versus(p, 1, 3) == 0
        assert verify._versus(p, 1, 2.5) == 1
        assert verify._versus(p, 4, -0.9999) == -1

    def test_float_bound_read_as_decimal(self):
        p = charpoly_exact(forms.forbidden_template("F4").instantiate({"a": 3}))
        assert verify._versus(p, 2, 0.0) == 0
        assert verify._versus(p, 2, 1e-12) == -1
        assert verify._versus(p, 2, -1e-12) == 1


class TestRootsIn:
    # (L + 2)^2 L (L - 1): roots -2 twice, 0 and 1
    p = IntPoly([2, 1]) ** 2 * IntPoly([0, 1]) * IntPoly([-1, 1])

    def test_half_open(self):
        assert verify._roots_in(self.p, -2, 0) == 2
        assert verify._roots_in(self.p, Fraction(-5, 2), -2) == 0
        assert verify._roots_in(self.p, 0) == 2
        assert verify._roots_in(self.p, hi=-2) == 0

    def test_closed(self):
        assert verify._roots_in(self.p, -2, 0, closed=True) == 3
        assert verify._roots_in(self.p, hi=-2, closed=True) == 2
        assert verify._roots_in(self.p, Fraction(-1, 2), 1, closed=True) \
            == 2

    def test_unbounded(self):
        assert verify._roots_in(self.p) == 4
        assert verify._roots_in(self.p, Fraction(1, 2)) == 1


class TestCaseTables:
    def test_h3_exception(self):
        r = verify_case("H3")
        assert r.details["enumerated"] == 12
        assert r.details["exceptions"] == [{"a": 3, "b": 4, "c": 3}]
        assert r.ok

    def test_h3_exception_records_both_indices(self):
        rows = verify_case("H3").details["cases"]
        row = [r for r in rows if r["verdict"] == "exception"][0]
        assert abs(row["lambda4"] + 1.0) <= 1e-9
        assert abs(row["lambda5"] + 2.0) <= 1e-9

    def test_h7_exception(self):
        r = verify_case("H7")
        assert r.details["exceptions"] == [
            {"a": 3, "b": 4, "c": 2, "d": 3, "e": 2}]
        assert r.ok

    def test_p6_exception_and_filter(self):
        r = verify_case("P6")
        assert r.details["enumerated"] == 288
        assert r.details["exceptions"] == [
            {"a": 2, "b": 3, "c": 4, "d": 3, "e": 3, "f": 2}]
        # the unfiltered sweep hits lambda5 = -2 on four more assignments,
        # all metric-infeasible (c=5 with the side conditions broken)
        spurious = [row for row in r.details["cases"]
                    if row["verdict"] == "infeasible-excluded"
                    and abs(row["eigenvalue"]["value"] + 2.0) <= 1e-9]
        assert len(spurious) == 4
        assert all(row["assignment"]["c"] == 5 for row in spurious)
        assert r.ok

    def test_no_exception_families(self):
        for fam in ("H1", "H2", "H4", "H5", "H6", "F1"):
            r = verify_case(fam)
            assert r.details["exceptions"] == [], fam
            assert r.ok, fam

    def test_enumeration_counts(self):
        assert verify_case("H5").details["enumerated"] == 24
        assert verify_case("H6").details["enumerated"] == 72
        assert verify_case("H7").details["enumerated"] == 48

    def test_h6_carries_typo_note(self):
        assert verify_case("H6").details["note"] is not None
        assert "note" not in verify_case("H5").details

    def test_f3_exceptions_only_at_a2(self):
        r = verify_case("F3")
        exceptions = r.details["exceptions"]
        assert exceptions and all(e["a"] == 2 for e in exceptions)
        # (2,3) is refuted spectrally even though its a=2; (2,2) is not
        assert exceptions == [{"a": 2, "b": 2}]
        assert r.ok

    def test_f3_judged_by_its_expected_table(self, monkeypatch):
        # F3 is held to forms.EXPECTED_EXCEPTIONS like the other twelve:
        # an exception list other than the expected one is a failure
        monkeypatch.setitem(forms.EXPECTED_EXCEPTIONS, "F3",
                            ({"a": 2, "b": 3},))
        r = verify_case("F3")
        assert not r.ok
        assert r.details["witnesses"] == [
            {"check": "exceptional tuples", "expected": [{"a": 2, "b": 3}],
             "got": [{"a": 2, "b": 2}]}]

    def test_f2_sound_sweep_disagrees_with_claimed_no_exceptions(self):
        # exact computation: F2 with a=2 satisfies every submatrix bound
        # (lambda2, lambda3, lambda4 all strictly inside their intervals,
        # and the -2 run is empty for m=5), so the sound sweep reports it
        # as an exception; the claimed expected list is empty
        r = verify_case("F2")
        assert r.details["exceptions"] == [{"a": 2}]
        assert not r.ok
        assert r.details["witnesses"][0]["got"] == [{"a": 2}]

    def test_k4(self):
        r = verify_case("K4")
        assert r.details["enumerated"] == 1
        row = r.details["cases"][0]
        assert row["verdict"] == "contradiction-confirmed"
        assert row["eigenvalue"]["index"] == 4
        assert abs(row["eigenvalue"]["value"] + 1.0) <= 1e-9
        assert r.ok

    def test_f4(self):
        r = verify_case("F4")
        assert r.details["exceptions"] == []
        by_a = {row["assignment"]["a"]: row for row in r.details["cases"]}
        assert by_a[2]["eigenvalue"]["index"] == 9
        assert abs(by_a[2]["eigenvalue"]["value"] + 2.0) > 1e-6
        assert by_a[3]["eigenvalue"]["index"] == 2
        assert abs(by_a[3]["eigenvalue"]["value"]) <= 1e-9
        assert r.ok

    def test_f4_a3_follows_exact_lambda2_at_the_bound(self, monkeypatch):
        # lambda2 = 0 exactly at a=3 (LAPACK gives about 1.3e-16), so a
        # bound just above 0 must let the row through and one just below
        # must refute it at lambda2
        def a3_row(bound):
            monkeypatch.setattr(forms, "LAMBDA2_HIGH", bound)
            rows = verify_case("F4").details["cases"]
            return next(r for r in rows if r["assignment"] == {"a": 3})

        row = a3_row(1e-12)
        assert row["verdict"] == "exception"
        row = a3_row(-1e-12)
        assert row["verdict"] == "contradiction-confirmed"
        assert row["eigenvalue"]["index"] == 2

    def test_rows_cover_full_product_in_order(self):
        for fam in ("H2", "H3", "F3"):
            rows = verify_case(fam).details["cases"]
            t = forms.forbidden_template(fam)
            assert len(rows) == math.prod(map(len, t.domains.values()))
            assignments = [tuple(r["assignment"].items()) for r in rows]
            assert assignments == sorted(set(assignments))

    def test_feasible_counts_recorded(self):
        details = verify_case("P6").details
        assert 0 < details["feasible"] < details["enumerated"]


class TestHats:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_passes(self, k):
        r = verify_hats(k)
        assert r.ok, r.details

    def test_p1_at_minus2_recorded(self):
        assert verify_hats(1).details["p1_at_minus2"] == "28*a'*b'*c'"

    def test_one_charpoly_rows_call_per_k(self, monkeypatch):
        calls = []
        real = verify.charpoly_rows

        def counting(stack):
            calls.append(len(stack))
            return real(stack)

        monkeypatch.setattr(verify, "charpoly_rows", counting)
        for k in range(1, 6):
            assert verify_hats(k).ok
        assert calls == [8, 4, 4, 4, 4]

    def test_mutated_p_fails_determinant_check(self, monkeypatch):
        real = forms.appendix_p

        def bad_p(k):
            p = real(k)
            p[(1, 0, 0, 0)] += 1  # + L
            return p
        monkeypatch.setattr(forms, "appendix_p", bad_p)
        r = verify_hats(2)
        assert not r.ok
        w = r.details["witnesses"][0]
        assert "det" in w["check"]
        # 5-tuple exponent keys, [derived, reference] values
        assert w["term_diffs"] == {"(1, 0, 0, 0, 0)": [-64, -63]}

    def test_mutated_q_fails_quotient_check(self, monkeypatch):
        real = forms.appendix_q

        def bad_q(k):
            q = real(k)
            q[(0, 0, 0, 0)] += 1
            return q
        monkeypatch.setattr(forms, "appendix_q", bad_q)
        r = verify_hats(3)
        assert not r.ok
        checks = [w["check"] for w in r.details["witnesses"]]
        assert any("q3" in c or "a'+b'" in c for c in checks)

    def test_p1_at_minus2_checked_on_its_own(self, monkeypatch):
        # a bumped matrix with its own determinant as the reference passes
        # the determinant check and fails the evaluation at -2
        real = forms.hat_matrix

        def bumped(k, *sizes):
            q = real(k, *sizes)
            q[0][0] += 1
            return q

        monkeypatch.setattr(forms, "hat_matrix", bumped)
        terms = verify._hat_terms(1)
        monkeypatch.setattr(forms, "appendix_p", lambda k: dict(terms))
        r = verify_hats(1)
        assert r.details["witnesses"][0] == {
            "check": "p1(-2) = 28*a'*b'*c'", "got": {"(1, 1, 1)": 48}}
        assert [w["check"] for w in r.details["witnesses"][1:]] == [
            "p1 == (-L-2)^1 * q1 at c' = 0"]

    @pytest.mark.parametrize("table", ["p", "q"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_table_bump_fails(self, monkeypatch, table, k):
        # +1 on each term, and on three more exponents: (0,0,0,0),
        # (3,1,1,0) and the a'^2 term (2,2,0,0) that no table has
        ref = getattr(forms, f"appendix_{table}")
        exps = sorted(ref(k).keys() | {(0, 0, 0, 0), (3, 1, 1, 0),
                                       (2, 2, 0, 0)})
        for exp in exps:
            def bumped(kk, _e=exp):
                t = ref(kk)
                t[_e] = t.get(_e, 0) + 1
                return t
            monkeypatch.setattr(forms, f"appendix_{table}", bumped)
            r = verify_hats(k)
            assert not r.ok, exp
            if table == "p":
                assert r.details["witnesses"][0]["term_diffs"][
                    str((*exp, 0))][1] == ref(k).get(exp, 0) + 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_hat_matrix_entry_bump_fails(self, monkeypatch, k):
        real = forms.hat_matrix
        dim = len(real(k, *(1,) * (3 if k == 1 else 2)))
        for i in range(dim):
            for j in range(dim):
                def bumped(kk, *sizes, _i=i, _j=j):
                    q = real(kk, *sizes)
                    q[_i][_j] += 1
                    return q
                monkeypatch.setattr(forms, "hat_matrix", bumped)
                r = verify_hats(k)
                assert not r.ok, (i, j)
                assert "det" in r.details["witnesses"][0]["check"]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            verify_hats(0)


class TestTheorem31:
    def test_passes(self):
        r = verify_theorem31(8)
        assert r.ok
        assert r.details["unordered_pairs"] == 36

    def test_sum_equal_product_differs(self):
        # (1,4) and (2,3): same sum, different product
        assert (1 + 4, 1 * 4) != (2 + 3, 2 * 3)
        assert verify_theorem31(4).ok


class TestFgRoots:
    def test_passes_to_100(self):
        assert verify_fg_roots(100).ok

    def test_passes_c1_alone(self):
        assert verify_fg_roots(1).ok

    def test_printed_lambda4_bound_fails_from_c_4469(self):
        # a known deviation: f_c's least root, lambda4(T(c,c)), rises above
        # the printed -1.5774 at c = 4469 (it tends to -1 - 1/sqrt(3));
        # a wrong f moves this boundary
        assert verify_fg_roots(4468).ok
        assert verify_fg_roots(4469).details["witnesses"] == [
            {"check": "one f root in [-1.7304, -1.5774)", "c": 4469,
             "roots": 0}]

    @pytest.mark.parametrize("name,power", [
        ("f_poly", 0), ("f_poly", 1), ("f_poly", 2), ("f_poly", 3),
        ("g_poly", 0), ("g_poly", 2)])
    def test_perturbed_coefficient_misplaces_a_root(self, monkeypatch, name,
                                                    power):
        # caught by the root counts themselves, not only by the two
        # identity checks beside them
        original = getattr(forms, name)
        monkeypatch.setattr(
            forms, name, lambda c: original(c) + IntPoly([0] * power + [1]))
        checks = {w["check"]
                  for w in verify_fg_roots(3).details["witnesses"]}
        assert checks - {"g*f == p_cc symbolically", "T(c,c) factorization"}

    @pytest.mark.parametrize("power", [0, 1, 2, 3])
    def test_f_builder_bump_trips_both_identities(self, monkeypatch, power):
        # f_poly builds both the integer f_c and f over Z[c], so a fault in
        # it reaches the symbolic identity g*f == p_cc as well
        real = forms.f_poly
        monkeypatch.setattr(
            forms, "f_poly", lambda c: real(c) + IntPoly([0] * power + [1]))
        checks = {w["check"]
                  for w in verify_fg_roots(3).details["witnesses"]}
        assert {"g*f == p_cc symbolically", "T(c,c) factorization"} <= checks


class TestRunVerifier:
    def test_dispatch(self):
        assert run_verifier("lemma22", max_ab=2).ok
        assert run_verifier("case:H2").ok
        assert run_verifier("hats:1").ok
        assert run_verifier("fg-roots", max_c=3).ok
        assert run_verifier("theorem31", max_ab=3).ok
        assert run_verifier("cycles", max_n=9).ok

    def test_unknown(self):
        with pytest.raises(ValueError):
            run_verifier("lemma99")
        with pytest.raises(ValueError):
            run_verifier("case:H9")
        with pytest.raises(ValueError):
            run_verifier("hats:6")

    def test_every_id_dispatches_to_its_verifier(self, monkeypatch):
        # each id reaches the verifier of its name, with its own bound
        seen = []
        for name in ("verify_lemma22", "verify_interlacing_bounds",
                     "verify_cycle_lemmas", "verify_case", "verify_hats",
                     "verify_theorem31", "verify_fg_roots"):
            monkeypatch.setattr(
                verify, name,
                lambda *args, _n=name: seen.append((_n, *args)))
        for lemma in verify.VERIFIER_IDS:
            run_verifier(lemma, max_ab=2, max_n=9, max_c=4)
        assert seen == [
            ("verify_lemma22", 2), ("verify_interlacing_bounds", 2),
            ("verify_cycle_lemmas", 9),
            *(("verify_case", f) for f in forms.CASE_FAMILIES),
            *(("verify_hats", k) for k in range(1, 6)),
            ("verify_theorem31", 2), ("verify_fg_roots", 4)]


class TestReportSchema:
    def test_json_roundtrip(self):
        for r in (verify_lemma22(2), verify_case("H3"), verify_hats(1),
                  verify_theorem31(3), verify_cycle_lemmas(9)):
            doc = r.to_json_dict()
            assert doc["schema"] == 1
            assert doc["status"] in ("pass", "fail")
            assert "witnesses" in doc
            assert json.loads(json.dumps(doc, sort_keys=True)) == json.loads(
                json.dumps(doc, sort_keys=True))

    def test_fail_results_carry_witnesses(self, monkeypatch):
        real = forms.p_ab
        monkeypatch.setattr(forms, "p_ab", lambda a, b: real(a, b) + 1)
        r = verify_lemma22(2)
        assert r.details["witnesses"]
