"""LAPACK eigenvalues, spectrum type, Cauchy interlacing."""

import random

import pytest

from specgraph.exactpoly import charpoly_exact
from specgraph.forms import cycle_spectrum_closed
from specgraph.graphs import (
    Graph,
    distance_matrix,
    is_connected,
    named_graph,
)
from specgraph.spectra import (
    PAPER_TOL,
    Spectrum,
    eigenvalues_sym,
)

T11_REFERENCE = (8.2882, -0.5578, -0.7639, -1.7304, -5.2361)


def spectrum_of(g):
    return eigenvalues_sym(distance_matrix(g))


def interlaces(parent, child, tol):
    """Cauchy interlacing of a principal submatrix's eigenvalues mu_i:
    lambda_{n-m+i} - tol <= mu_i <= lambda_i + tol for i = 1..m."""
    n, m = parent.n, child.n
    return all(parent.nth(n - m + i) - tol <= child.nth(i)
               <= parent.nth(i) + tol for i in range(1, m + 1))


def submatrix(matrix, rows):
    return [[matrix[i][j] for j in rows] for i in rows]


def random_connected(rng, lo=2, hi=10, p=0.45):
    while True:
        n = rng.randint(lo, hi)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


class TestSpectrumType:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum((1.0, 2.0))

    def test_nth(self):
        s = Spectrum((3.0, 1.0, -2.0))
        assert s.nth(1) == 3.0
        assert s.nth(3) == -2.0
        with pytest.raises(IndexError):
            s.nth(4)
        with pytest.raises(IndexError):
            s.nth(0)

    def test_nth_1_is_max(self):
        rng = random.Random(1)
        for _ in range(20):
            vals = sorted((rng.uniform(-5, 5) for _ in range(6)), reverse=True)
            s = Spectrum(tuple(vals))
            assert s.nth(1) == max(vals)


class TestEigenvaluesSym:
    def test_t11_reference_values(self):
        s = spectrum_of(named_graph("T", 1, 1))
        assert s.n == 5
        for got, want in zip(s.values, T11_REFERENCE):
            assert abs(got - want) <= PAPER_TOL

    def test_c5_third_eigenvalue(self):
        s = spectrum_of(named_graph("C", 5))
        assert abs(s.nth(3) - (-0.3820)) <= PAPER_TOL
        assert abs(s.nth(1) - 6.0) <= 1e-9

    def test_k4(self):
        s = spectrum_of(named_graph("K", 4))
        assert abs(s.nth(1) - 3.0) <= 1e-9
        for i in (2, 3, 4):
            assert abs(s.nth(i) - (-1.0)) <= 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigenvalues_sym([[0.0, 1.0], [0.5, 0.0]])

    def test_deterministic(self):
        d = distance_matrix(named_graph("T", 3, 2))
        a = eigenvalues_sym(d)
        b = eigenvalues_sym(d)
        assert a.values == b.values

    def test_trace_and_frobenius_identities(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_connected(rng)
            d = distance_matrix(g)
            s = spectrum_of(g)
            n = g.n
            assert abs(sum(s.values)) <= 1e-8 * n
            frob = sum(x * x for row in d for x in row)
            sq = sum(v * v for v in s.values)
            assert abs(sq - frob) <= 1e-6 * max(frob, 1.0)

    def test_agrees_with_exact_charpoly(self):
        names = [("T", 1, 1), ("T", 3, 2), ("C", 7), ("C", 12), ("K", 5),
                 ("P", 6), ("H3",), ("F4",), ("T", 4, 4)]
        for name in names:
            g = named_graph(*name)
            d = distance_matrix(g)
            p = charpoly_exact(d)
            for lam in spectrum_of(g).values:
                # coefficient scale at the evaluation point; a bound in terms
                # of max |c_i| alone is unreachable in doubles once |lam| > 1
                scale = max(abs(c) * max(1.0, abs(lam)) ** i
                            for i, c in enumerate(p.coeffs))
                assert abs(p(lam)) <= 1e-6 * scale

    def test_matches_closed_cycle_spectra(self):
        for n in range(3, 41):
            closed = cycle_spectrum_closed(n)
            got = spectrum_of(named_graph("C", n))
            assert got.n == closed.n == n
            assert max(abs(a - b) for a, b in
                       zip(got.values, closed.values)) <= 1e-9

    def test_complete_graph_minus_one_run(self):
        for n in range(2, 16):
            s = spectrum_of(named_graph("K", n))
            assert list(s.values) == sorted(s.values, reverse=True)
            assert abs(s.nth(1) - (n - 1)) <= 1e-9
            assert sum(abs(v + 1.0) <= 1e-9 for v in s.values) == n - 1
            assert all(abs(s.nth(i) + 1.0) <= 1e-9 for i in range(2, n + 1))

    def test_eigenvalue_product_matches_determinant(self):
        rng = random.Random(19)
        for _ in range(20):
            g = random_connected(rng, hi=8)
            d = distance_matrix(g)
            det = charpoly_exact(d)(0)  # det(M - 0*I)
            prod = 1.0
            for v in spectrum_of(g).values:
                prod *= v
            assert abs(prod - det) <= 1e-6 * max(abs(det), 1.0)


class TestCompare:
    def test_isomorphic_orientations(self):
        s, t = (spectrum_of(named_graph("T", 1, 2)),
                spectrum_of(named_graph("T", 2, 1)))
        assert s.n == t.n
        assert all(abs(s.nth(i) - t.nth(i)) <= 1e-9
                   for i in range(1, s.n + 1))

    def test_different_graphs(self):
        s, t = (spectrum_of(named_graph("T", 1, 1)),
                spectrum_of(named_graph("C", 5)))
        assert s.n == t.n
        assert any(abs(s.nth(i) - t.nth(i)) > 1e-3
                   for i in range(1, s.n + 1))


class TestInterlacing:
    def test_t11_inside_t23(self):
        parent_graph = named_graph("T", 2, 3)
        d = distance_matrix(parent_graph)
        # canonical T(1,1) block: spine plus first leaf of each side
        sub = submatrix(d, [0, 1, 2, 3, 3 + 2])
        parent = eigenvalues_sym(d)
        child = eigenvalues_sym(sub)
        assert interlaces(parent, child, 1e-9)
        assert parent.nth(1) >= 8.2882 - PAPER_TOL
        assert parent.nth(parent.n) <= -5.2361 + PAPER_TOL

    def test_tab_inside_tcc(self):
        for a in range(1, 6):
            for b in range(1, 6):
                c = max(a, b)
                parent = spectrum_of(named_graph("T", c, c))
                child = spectrum_of(named_graph("T", a, b))
                assert interlaces(parent, child, 1e-9)

    def test_random_principal_submatrices(self):
        rng = random.Random(101)
        for _ in range(200):
            g = random_connected(rng, lo=3, hi=10)
            d = distance_matrix(g)
            m = rng.randint(1, g.n)
            subset = rng.sample(range(g.n), m)
            parent = eigenvalues_sym(d)
            child = eigenvalues_sym(submatrix(d, subset))
            assert interlaces(parent, child, 1e-9)
