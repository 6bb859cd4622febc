"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 includes the
order-9 exhaustive sweep and the n=7 brute-force count oracle, so the full
run takes several minutes (parallelized over the available CPUs).

Criterion 5's F2 sub-item is implemented verbatim and marked
xfail(strict=True): exact computation shows the F2, a=2 case satisfies
every submatrix bound, so "no exceptions" is unattainable by any sound
spectral sweep.  That case is excluded by the structural common-neighbor
argument (a=2 forces a shared neighbor of the path endpoints, which leads
to a forbidden C4, C5 or F1), not by an eigenvalue test, and the case
table reports it honestly as an exception.
"""

import os
import time
from contextlib import contextmanager

import pytest

from oracle_utils import (
    brute_force_connected_count,
    interval_table_violations,
)
from specgraph import forms, mate, verify
from specgraph.exactpoly import (
    IntPoly,
    MPoly,
    bareiss_det,
    charpoly_exact,
    root_counts,
)
from specgraph.forms import (
    appendix_p,
    appendix_q,
    capped_cycle_matrix,
    cycle_spectrum_closed,
    hat_matrix,
    tab_charpoly_closed,
)
from specgraph.graphs import distance_matrix, named_graph
from specgraph.mate import cospectral_classes_builtin, ds_verdict
from specgraph.spectra import eigenvalues_sym

PAPER_TOL = 5e-5
JOBS = max(1, os.cpu_count() or 1)


@contextmanager
def criterion(number, label):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS ({time.time() - t0:.1f}s)")


def test_criterion_1_closed_charpoly_identity():
    with criterion(1, "closed charpoly identity a,b<=8"):
        for a in range(1, 9):
            for b in range(1, 9):
                exponent, reduced = tab_charpoly_closed(a, b)
                assert exponent == a + b - 2
                closed = IntPoly([-2, -1]) ** exponent * reduced
                exact = charpoly_exact(
                    distance_matrix(named_graph("T", a, b)))
                assert closed == exact, (a, b)


def test_criterion_2_t11_spectrum():
    with criterion(2, "T(1,1) reference spectrum at 5e-5"):
        s = eigenvalues_sym(distance_matrix(named_graph("T", 1, 1)))
        refs = (8.2882, -0.5578, -0.7639, -1.7304, -5.2361)
        assert s.n == 5
        for got, ref in zip(s.values, refs):
            assert abs(got - ref) <= PAPER_TOL, (got, ref)


def test_criterion_3_cycle_spectra():
    with criterion(3, "cycle spectra closed forms and -2 multiplicity"):
        for n in range(3, 13):
            closed = cycle_spectrum_closed(n)
            numeric = eigenvalues_sym(distance_matrix(named_graph("C", n)))
            assert closed.n == numeric.n == n
            for x, y in zip(closed.values, numeric.values):
                assert abs(x - y) <= 1e-9, n
        c4 = eigenvalues_sym(distance_matrix(named_graph("C", 4)))
        assert abs(c4.nth(2)) <= 1e-9
        c5 = eigenvalues_sym(distance_matrix(named_graph("C", 5)))
        assert abs(c5.nth(3) - (-0.3820)) <= PAPER_TOL
        for n in range(8, 13):
            mult = root_counts(
                charpoly_exact(distance_matrix(named_graph("C", n))), -2)[1]
            assert mult <= 2, (n, mult)
            assert n - 5 >= 3  # the run a submatrix would need


def test_criterion_4_capped_cycles():
    with criterion(4, "capped cycle matrices lambda5"):
        s6 = eigenvalues_sym(capped_cycle_matrix(6))
        assert abs(s6.nth(5) + 3.0) <= 1e-9
        s7 = eigenvalues_sym(capped_cycle_matrix(7))
        assert abs(s7.nth(5) - (-1.5550)) <= PAPER_TOL


def test_criterion_5_case_tables():
    with criterion(5, "forbidden case tables (except F2, see below)"):
        h3 = verify.run_case_table("H3")
        assert h3.exceptions == [{"a": 3, "b": 4, "c": 3}]
        h3_row = [r for r in h3.rows if r["verdict"] == "exception"][0]
        assert abs(h3_row["lambda4"] + 1.0) <= 1e-9
        assert verify.run_case_table("H7").exceptions == [
            {"a": 3, "b": 4, "c": 2, "d": 3, "e": 2}]
        assert verify.run_case_table("P6").exceptions == [
            {"a": 2, "b": 3, "c": 4, "d": 3, "e": 3, "f": 2}]
        for fam in ("H1", "H2", "H4", "H5", "H6", "F1"):
            assert verify.run_case_table(fam).exceptions == [], fam
        f3 = verify.run_case_table("F3")
        assert f3.exceptions and all(e["a"] == 2 for e in f3.exceptions)
        f4 = verify.run_case_table("F4")
        assert f4.exceptions == []
        f4_rows = {r["assignment"]["a"]: r for r in f4.rows}
        assert f4_rows[2]["eigenvalue"]["index"] == 9
        assert abs(f4_rows[2]["eigenvalue"]["value"] + 2.0) > 1e-6
        assert f4_rows[3]["eigenvalue"]["index"] == 2
        assert abs(f4_rows[3]["eigenvalue"]["value"]) <= 1e-9
        k4 = verify.run_case_table("K4")
        assert k4.exceptions == []
        assert abs(k4.rows[0]["eigenvalue"]["value"] + 1.0) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="F2 with a=2 has spectrum {5.6854, -0.2284, -1, -1.6403, "
           "-2.8167}; exact sign changes certify every submatrix bound "
           "holds, so no sound spectral sweep can report 'no exceptions' "
           "(that case is excluded by the structural common-neighbor "
           "argument, not by an eigenvalue)")
def test_criterion_5_f2_no_exceptions_as_stated():
    with criterion(5, "F2 -> no exceptions (as stated)"):
        assert verify.run_case_table("F2").exceptions == []


def test_criterion_6_hat_identities():
    with criterion(6, "hat determinants, divisibility, a'+b' = -4"):
        lam = MPoly.var("L")
        neg = -lam - 2
        ap, bp, cp = MPoly.var("a'"), MPoly.var("b'"), MPoly.var("c'")
        for k in range(1, 6):
            assert bareiss_det(hat_matrix(k)) == appendix_p(k), k
        assert appendix_p(1).substitute("L", -2) == 28 * ap * bp * cp
        assert appendix_p(1).substitute("c'", 0).divexact(
            neg) == appendix_q(1)
        for k in range(2, 6):
            assert appendix_p(k).divexact(
                neg ** (k - 1)) == appendix_q(k), k
        for k in range(1, 6):
            equation = (appendix_q(k).coeff_of("L", 0)
                        - (16 + 8 * (ap + bp + (k - 1))))
            alpha = equation.coeff_of("a'", 1)
            assert not alpha.is_zero() and not alpha.variables(), k
            assert equation == alpha.constant_term() * (ap + bp + 4), k


def test_criterion_7_fg_roots_and_factorization():
    with criterion(7, "f/g root intervals c=1..100 and T(c,c) factorization"):
        r = verify.verify_fg_roots(100)
        assert r.ok, r.details["witnesses"]
        for c in range(1, 7):
            closed = (IntPoly([-2, -1]) ** (2 * c - 2)
                      * forms.g_poly(c) * forms.f_poly(c))
            assert closed == charpoly_exact(
                distance_matrix(named_graph("T", c, c))), c


def test_criterion_8_interval_table():
    with criterion(8, "spectrum interval table a,b<=8"):
        for a in range(1, 9):
            for b in range(1, 9):
                p = charpoly_exact(distance_matrix(named_graph("T", a, b)))
                assert interval_table_violations(p) == [], (a, b)
                mult = root_counts(p, -2)[1]
                assert mult == a + b - 2, (a, b, mult)


def test_criterion_9_determined_by_spectrum():
    with criterion(9, "exhaustive mate search n=5..9 and count oracle"):
        for n in range(4, 8):
            builtin = sum(1 for _ in mate.enumerate_connected(n))
            expected = {4: 6, 5: 21, 6: 112, 7: 853}[n]
            assert builtin == expected, n
            assert brute_force_connected_count(n) == expected, n
        for n in range(5, 10):
            classes = cospectral_classes_builtin(n, jobs=JOBS)
            for a in range(1, n - 3):
                b = n - 3 - a
                if a > b:
                    continue
                r = ds_verdict(a, b, classes=classes)
                assert r.ok, (a, b, r.details)
                assert r.details["class_size"] == 1


def test_criterion_10_mutation_sensitivity():
    with criterion(10, "single-coefficient mutation detection"):
        t0 = time.time()
        # p_ab: bump each lambda-power coefficient in turn
        for power in range(6):
            def mutated(a, b, _p=power):
                exponent, reduced = forms.tab_charpoly_closed(a, b)
                bump = [0] * (_p + 1)
                bump[_p] = 1
                return exponent, reduced + IntPoly(bump)
            r = verify.verify_lemma22(2, closed_form=mutated)
            assert not r.ok, power
            witness = r.details["witnesses"][0]
            assert {"a", "b", "coefficient_diff"} <= set(witness)

        # reference hat tables: every single-term bump is distinguishable
        # from the re-derived determinants and quotients, which only need
        # computing once per k
        lam = MPoly.var("L")
        neg = -lam - 2
        for k in range(1, 6):
            det = bareiss_det(hat_matrix(k))
            src = det.substitute("c'", 0) if k == 1 else det
            quot = src.divexact(neg ** max(1, k - 1))
            for exp in forms.appendix_p(k).terms:
                mutant = forms.appendix_p(k) + MPoly({exp: 1})
                assert mutant != det, (k, exp)
            for exp in forms.appendix_q(k).terms:
                mutant = forms.appendix_q(k) + MPoly({exp: 1})
                assert mutant != quot, (k, exp)

        # verifier-level spot checks: the failure is localized to the k and
        # check that was mutated
        for k in (1, 3, 5):
            exp = sorted(forms.appendix_p(k).terms)[0]
            r = verify.verify_hats(
                k, ref_p=lambda kk, _e=exp: forms.appendix_p(kk)
                + MPoly({_e: 1}))
            assert not r.ok, k
            assert any("det" in w["check"] or "p" in w["check"]
                       for w in r.details["witnesses"])
        for k in (2, 4):
            exp = sorted(forms.appendix_q(k).terms)[0]
            r = verify.verify_hats(
                k, ref_q=lambda kk, _e=exp: forms.appendix_q(kk)
                + MPoly({_e: 1}))
            assert not r.ok, k
        assert time.time() - t0 < 30.0
