"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 includes the
order-9 exhaustive sweep and the n=7 brute-force count oracle, about 9 s
on 2 cores (the sweep runs on every available CPU).

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
from itertools import product

import pytest

from oracle_utils import (
    brute_force_connected_count,
    enumerate_connected,
    interval_table_violations,
)
from specgraph import forms, verify
from specgraph.exactpoly import (
    IntPoly,
    charpoly_exact,
    charpoly_rows,
    root_counts,
)
from specgraph.forms import (
    appendix_p,
    appendix_q,
    capped_cycle_matrix,
    cycle_spectrum_closed,
    hat_matrix,
    p_ab,
    tab_charpoly_expanded,
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
                closed = IntPoly([-2, -1]) ** (a + b - 2) * p_ab(a, b)
                assert tab_charpoly_expanded(a, b) == closed
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
        def case(family):
            return verify.verify_case(family).details

        h3 = case("H3")
        assert h3["exceptions"] == [{"a": 3, "b": 4, "c": 3}]
        h3_row = [r for r in h3["cases"] if r["verdict"] == "exception"][0]
        assert abs(h3_row["lambda4"] + 1.0) <= 1e-9
        assert case("H7")["exceptions"] == [
            {"a": 3, "b": 4, "c": 2, "d": 3, "e": 2}]
        assert case("P6")["exceptions"] == [
            {"a": 2, "b": 3, "c": 4, "d": 3, "e": 3, "f": 2}]
        for fam in ("H1", "H2", "H4", "H5", "H6", "F1"):
            assert case(fam)["exceptions"] == [], fam
        f3 = case("F3")
        assert f3["exceptions"] and all(e["a"] == 2
                                        for e in f3["exceptions"])
        f4 = case("F4")
        assert f4["exceptions"] == []
        f4_rows = {r["assignment"]["a"]: r for r in f4["cases"]}
        assert f4_rows[2]["eigenvalue"]["index"] == 9
        assert abs(f4_rows[2]["eigenvalue"]["value"] + 2.0) > 1e-6
        assert f4_rows[3]["eigenvalue"]["index"] == 2
        assert abs(f4_rows[3]["eigenvalue"]["value"]) <= 1e-9
        k4 = case("K4")
        assert k4["exceptions"] == []
        assert abs(k4["cases"][0]["eigenvalue"]["value"] + 1.0) <= 1e-9

@pytest.mark.xfail(
    strict=True,
    reason="F2 with a=2 has spectrum {5.6854, -0.2284, -1, -1.6403, "
           "-2.8167}; exact sign changes certify every submatrix bound "
           "holds, so no sound spectral sweep can report 'no exceptions' "
           "(that case is excluded by the structural common-neighbor "
           "argument, not by an eigenvalue)")
def test_criterion_5_f2_no_exceptions_as_stated():
    with criterion(5, "F2 -> no exceptions (as stated)"):
        assert verify.verify_case("F2").details["exceptions"] == []


def _l_polys(table):
    """{(a', b', c') exponents: polynomial in L} of a {(L, a', b', c'):
    coefficient} table."""
    top = max(exp[0] for exp in table)
    return {exp[1:]: IntPoly([table.get((i, *exp[1:]), 0)
                              for i in range(top + 1)]) for exp in table}


def _hat_determinant(k):
    """det(Q - L*I) as {(a', b', c'): polynomial in L}: charpolys at the
    class sizes in {0, 1}, then inclusion-exclusion over the corners."""
    m = 3 if k == 1 else 2
    corners = list(product((0, 1), repeat=m))
    values = charpoly_rows([hat_matrix(k, *s) for s in corners])
    out = {}
    for S in corners:
        poly = IntPoly()
        for T, row in zip(corners, values):
            if all(t <= s for t, s in zip(T, S)):
                poly = poly + (-1) ** (sum(S) - sum(T)) * IntPoly(row)
        if poly:
            out[(*S, *(0,) * (3 - m))] = poly
    return out


def _evaluate(polys, sizes):
    total = IntPoly()
    for mono, poly in polys.items():
        weight = 1
        for size, e in zip(sizes, mono):
            weight *= size ** e
        total = total + weight * poly
    return total


def test_criterion_6_hat_identities():
    with criterion(6, "hat determinants, divisibility, a'+b' = -4"):
        for k in range(1, 6):
            p, q = _l_polys(appendix_p(k)), _l_polys(appendix_q(k))
            det = _hat_determinant(k)
            assert det == p, k
            # the affine premise, away from the corners
            m = 3 if k == 1 else 2
            sizes = list(product((2, 3), repeat=m))
            for s, row in zip(sizes, charpoly_rows(
                    [hat_matrix(k, *s) for s in sizes])):
                assert IntPoly(row) == _evaluate(p, s), (k, s)
            # p_k (at c' = 0) = (-L-2)^max(1, k-1) * q_k, monomial-wise
            run = IntPoly([-2, -1]) ** max(1, k - 1)
            assert {mono: run * poly for mono, poly in q.items()} == {
                mono: poly for mono, poly in p.items() if not mono[2]}, k
            # const(q_k) - (16 + 8(a'+b'+k-1)) = alpha * (a'+b'+4)
            const = {mono: poly(0) for mono, poly in q.items() if poly(0)}
            alpha = const.get((1, 0, 0), 0) - 8
            assert alpha != 0, k
            assert const == {
                mono: c for mono, c in {
                    (0, 0, 0): 16 + 8 * (k - 1) + 4 * alpha,
                    (1, 0, 0): 8 + alpha, (0, 1, 0): 8 + alpha}.items()
                if c}, k
            assert verify.verify_hats(k).ok, k
        p1 = _l_polys(appendix_p(1))
        assert {mono: poly(-2) for mono, poly in p1.items()
                if poly(-2)} == {(1, 1, 1): 28}


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
            builtin = sum(1 for _ in enumerate_connected(n))
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
        # mutations run per reference: p_ab, the hat tables, the matrices
        runs = [0, 0, 0]
        # p_ab: bump each lambda-power coefficient in turn
        for power in range(6):
            def mutated(a, b, _p=power):
                return p_ab(a, b) + IntPoly([0] * _p + [1])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(forms, "p_ab", mutated)
                r = verify.verify_lemma22(2)
            runs[0] += 1
            assert not r.ok, power
            witness = r.details["witnesses"][0]
            assert {"a", "b", "coefficient_diff"} <= set(witness)

        # reference hat tables: every single-term bump, and a bump at three
        # exponents besides (an a'^2 term among them, which no table has),
        # fails the verifier, at the check of the table that was bumped
        extra = {(0, 0, 0, 0), (3, 1, 1, 0), (2, 2, 0, 0)}
        for k in range(1, 6):
            for table in ("p", "q"):
                ref = getattr(forms, f"appendix_{table}")
                for exp in sorted(ref(k).keys() | extra):
                    def bumped(kk, _e=exp, _ref=ref):
                        t = _ref(kk)
                        t[_e] = t.get(_e, 0) + 1
                        return t
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(forms, f"appendix_{table}", bumped)
                        r = verify.verify_hats(k)
                    runs[1] += 1
                    assert not r.ok, (k, table, exp)
                    checks = [w["check"] for w in r.details["witnesses"]]
                    assert any(c.startswith("det") for c in checks) \
                        == (table == "p"), (k, table, exp, checks)

        # the hat matrices: +1 on any one entry fails the determinant check
        for k in range(1, 6):
            dim = len(hat_matrix(k, *(1,) * (3 if k == 1 else 2)))
            for i, j in product(range(dim), repeat=2):
                def builder(kk, *sizes, _i=i, _j=j):
                    q = hat_matrix(kk, *sizes)
                    q[_i][_j] += 1
                    return q
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(forms, "hat_matrix", builder)
                    r = verify.verify_hats(k)
                runs[2] += 1
                assert not r.ok, (k, i, j)
                assert r.details["witnesses"][0]["check"].startswith("det")
        assert runs == [6, 252, 266]
        assert time.time() - t0 < 30.0
