"""Closed-form catalog: transcriptions, templates, hat matrices, intervals."""

import pytest

from oracle_utils import interval_table_violations

from specgraph.exactpoly import IntPoly, MPoly, charpoly_exact
from specgraph.forms import (
    MatrixTemplate,
    appendix_p,
    appendix_q,
    capped_cycle_matrix,
    cycle_spectrum_closed,
    f_poly,
    f_poly_sym,
    forbidden_template,
    g_poly,
    g_poly_sym,
    hat_matrix,
    metric_feasible,
    p_ab,
    p_cc_sym,
    tab_charpoly_closed,
    tab_charpoly_expanded,
)
from specgraph.graphs import distance_matrix, named_graph
from specgraph.spectra import PAPER_TOL, eigenvalues_sym


class TestPab:
    def test_1_1_coefficients(self):
        p = p_ab(1, 1)
        assert p.coeffs[0] == 32
        assert p.coeffs[4] == 0
        assert p.coeffs[5] == -1

    def test_0_0_constant(self):
        assert p_ab(0, 0).coeffs[0] == 16

    def test_symmetry(self):
        for a in range(0, 9):
            for b in range(0, 9):
                assert p_ab(a, b) == p_ab(b, a)

    def test_symmetry_large(self):
        for a in range(9, 11):
            for b in range(0, 11):
                assert p_ab(a, b) == p_ab(b, a)


class TestClosedCharpoly:
    def test_t11_exponent_zero(self):
        exponent, reduced = tab_charpoly_closed(1, 1)
        assert exponent == 0
        s = eigenvalues_sym(distance_matrix(named_graph("T", 1, 1)))
        for lam in s.values:
            assert abs(reduced(lam)) < 1e-6 * 32

    def test_exponent(self):
        assert tab_charpoly_closed(4, 3)[0] == 5

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            tab_charpoly_closed(1, 0)

    def test_matches_exact_charpoly_full_grid(self):
        for a in range(1, 9):
            for b in range(1, 9):
                derived = charpoly_exact(
                    distance_matrix(named_graph("T", a, b)))
                assert tab_charpoly_expanded(a, b) == derived


class TestFG:
    def test_f_at_c1(self):
        assert f_poly(1) == IntPoly([8, 18, 6, -1])

    def test_g_roots_radical(self):
        import math
        for c in range(1, 9):
            g = g_poly(c)
            for root in (-(c + 2) + math.sqrt(c * c + 4 * c),
                         -(c + 2) - math.sqrt(c * c + 4 * c)):
                assert abs(g(root)) < 1e-9 * max(1.0, root * root)

    def test_quintic_identity_symbolic(self):
        assert g_poly_sym() * f_poly_sym() == p_cc_sym()

    def test_factorization_against_exact(self):
        for c in range(1, 7):
            closed = (IntPoly([-2, -1]) ** (2 * c - 2)
                      * g_poly(c) * f_poly(c))
            derived = charpoly_exact(
                distance_matrix(named_graph("T", c, c)))
            assert closed == derived


class TestCycleSpectra:
    def test_c4(self):
        got = cycle_spectrum_closed(4).values
        for x, y in zip(got, (4.0, 0.0, -2.0, -2.0)):
            assert abs(x - y) < 1e-12

    def test_c5(self):
        s = cycle_spectrum_closed(5)
        assert abs(s.nth(1) - 6.0) < 1e-12
        assert abs(s.nth(3) - (-0.3820)) <= PAPER_TOL

    def test_c6_size_and_top(self):
        s = cycle_spectrum_closed(6)
        assert s.n == 6
        assert s.nth(1) == 9.0

    def test_matches_numeric_3_to_12(self):
        for n in range(3, 13):
            closed = cycle_spectrum_closed(n)
            numeric = eigenvalues_sym(distance_matrix(named_graph("C", n)))
            assert closed.n == numeric.n == n
            for x, y in zip(closed.values, numeric.values):
                assert abs(x - y) <= 1e-9

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            cycle_spectrum_closed(2)


class TestCappedCycles:
    def test_row0_n6(self):
        assert capped_cycle_matrix(6)[0] == (0, 1, 2, 2, 2, 1)

    def test_lambda5_values(self):
        s6 = eigenvalues_sym(capped_cycle_matrix(6))
        assert abs(s6.nth(5) + 3.0) <= 1e-9
        s7 = eigenvalues_sym(capped_cycle_matrix(7))
        assert abs(s7.nth(5) - (-1.5550)) <= PAPER_TOL

    def test_other_sizes_rejected(self):
        with pytest.raises(ValueError):
            capped_cycle_matrix(5)


class TestTemplates:
    def test_h2_domains(self):
        t = forbidden_template("H2")
        assert t.n == 6
        assert t.domains == {"a": (2, 3), "b": (2, 3)}

    def test_p6_domains(self):
        t = forbidden_template("P6")
        assert t.domains == {"a": (2, 3), "b": (2, 3, 4), "c": (2, 3, 4, 5),
                             "d": (2, 3), "e": (2, 3, 4), "f": (2, 3)}
        assert t.assignment_count() == 288

    def test_f4_shape(self):
        t = forbidden_template("F4")
        assert t.n == 10
        assert t.domains == {"a": (2, 3)}

    def test_h5_count(self):
        assert forbidden_template("H5").assignment_count() == 24

    def test_h1_k4_no_parameters(self):
        assert forbidden_template("H1").params == []
        k4 = forbidden_template("K4")
        assert k4.params == []
        assert k4.instantiate({}) == distance_matrix(named_graph("K", 4))

    def test_h1_entries_are_its_distances(self):
        t = forbidden_template("H1")
        assert t.instantiate({}) == distance_matrix(named_graph("H1"))

    def test_instantiate_and_feasibility(self):
        t = forbidden_template("P6")
        good = t.instantiate({"a": 2, "b": 3, "c": 4, "d": 3, "e": 3, "f": 2})
        assert metric_feasible(good)
        # c=5 with a=2 breaks the triangle inequality through v4
        bad = t.instantiate({"a": 2, "b": 4, "c": 5, "d": 3, "e": 4, "f": 3})
        assert not metric_feasible(bad)

    def test_p6_conditional_constraints_equal_metric_filter(self):
        # the printed side conditions (c=5 forces a=d=f=3, b=e=4; c=4 forces
        # b,e >= 3) coincide with plain triangle-inequality feasibility
        t = forbidden_template("P6")
        for asg in t.assignments():
            conditional = True
            if asg["c"] == 5:
                conditional = (asg["a"] == asg["d"] == asg["f"] == 3
                               and asg["b"] == asg["e"] == 4)
            elif asg["c"] == 4:
                conditional = asg["b"] >= 3 and asg["e"] >= 3
            metric = metric_feasible(t.instantiate(asg))
            if conditional != metric:
                # the explicit conditions are necessary; metric may be finer
                assert metric is False and conditional is True

    def test_assignments_lexicographic(self):
        t = forbidden_template("H3")
        asgs = list(t.assignments())
        assert len(asgs) == 12
        assert asgs[0] == {"a": 2, "b": 2, "c": 2}
        assert asgs[-1] == {"a": 3, "b": 4, "c": 3}
        assert asgs == sorted(asgs, key=lambda d: tuple(d.values()))

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixTemplate("bad", ((0, "a"), ("b", 0)), {"a": (1,), "b": (1,)})
        with pytest.raises(ValueError):
            MatrixTemplate("bad", ((1, 2), (2, 0)), {})
        with pytest.raises(ValueError):
            MatrixTemplate("bad", ((0, "a"), ("a", 0)), {})

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            forbidden_template("H9")


class TestHatMatrices:
    def test_k1_entries(self):
        m = hat_matrix(1)
        lam = MPoly.var("L")
        assert m[0][0] == -lam
        assert m[3][3] == 2 * MPoly.var("a'") - 2 - lam
        assert m[2][5] == MPoly.var("c'")
        assert len(m) == 6

    def test_k3_shape(self):
        m = hat_matrix(3)
        assert len(m) == 7
        # hat block: -L diagonal, 2 off-diagonal
        assert m[3][4] == MPoly.const(2)
        assert m[4][4] == -MPoly.var("L")

    def test_k2_full_transcription(self):
        lam, ap, bp = (MPoly.var("L"), MPoly.var("a'"), MPoly.var("b'"))
        one, two = MPoly.const(1), MPoly.const(2)
        expected = [
            [-lam, one, one, one, ap, 2 * bp],
            [one, -lam, one, one, 2 * ap, bp],
            [one, one, -lam, two, 2 * ap, 2 * bp],
            [one, one, two, -lam, 2 * ap, 2 * bp],
            [one, two, two, two, 2 * ap - 2 - lam, 3 * bp],
            [two, one, two, two, 3 * ap, 2 * bp - 2 - lam],
        ]
        assert hat_matrix(2) == expected

    def test_k5_shape(self):
        m = hat_matrix(5)
        assert len(m) == 9
        assert m[8][8] == 2 * MPoly.var("b'") - 2 - MPoly.var("L")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hat_matrix(6)
        with pytest.raises(ValueError):
            hat_matrix(0)


class TestAppendixTables:
    def test_p1_leading(self):
        assert appendix_p(1).coeff_of("L", 6) == MPoly.const(1)

    def test_q3_constant(self):
        ap, bp = MPoly.var("a'"), MPoly.var("b'")
        assert appendix_q(3).coeff_of("L", 0) == 8 + 2 * ap + 2 * bp

    def test_q1_partial_evaluation_at_zero(self):
        ap, bp = MPoly.var("a'"), MPoly.var("b'")
        assert appendix_q(1).coeff_of("L", 0) == 8 + 6 * ap + 6 * bp

    def test_p1_at_minus_two(self):
        spec = appendix_p(1).substitute("L", -2)
        assert spec.text() == "28*a'*b'*c'"

    def test_p5_leading(self):
        assert appendix_p(5).coeff_of("L", 9) == MPoly.const(-1)

    def test_q_tables_consistent_with_p(self):
        # internal consistency of the transcription: multiplying the reduced
        # form back recovers the full table
        lam = MPoly.var("L")
        neg = -lam - 2
        assert neg * appendix_q(1) == appendix_p(1).substitute("c'", 0)
        for k in range(2, 6):
            assert neg ** (k - 1) * appendix_q(k) == appendix_p(k)

    def test_divisibility_via_poly_div(self):
        lam = MPoly.var("L")
        q3 = appendix_p(3).divexact((-lam - 2) ** 2)
        assert q3 == appendix_q(3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            appendix_p(0)
        with pytest.raises(ValueError):
            appendix_q(6)


class TestIntervalTable:
    """The table checked exactly on the charpoly (oracle_utils)."""

    def violations(self, *name):
        return interval_table_violations(
            charpoly_exact(distance_matrix(named_graph(*name))))

    def test_t11_passes(self):
        assert self.violations("T", 1, 1) == []

    def test_t52_passes(self):
        assert self.violations("T", 5, 2) == []

    def test_full_grid_passes(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert self.violations("T", a, b) == [], (a, b)

    def test_c8_fails(self):
        # C8's spectrum is 16, 0 (three times), -1.17 and -6.83 (twice
        # each): lambda2 = 0 exactly is outside [-0.5578, 0)
        bad = self.violations("C", 8)
        assert "lambda2 outside [-0.5578, 0.0)" in bad
        assert "-2 has multiplicity 0, not 3" in bad
