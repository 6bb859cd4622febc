"""Exact polynomial kernels: FL charpoly, Bareiss, division, root counts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracle_utils import fl_charpoly
from specgraph import exactpoly
from specgraph.exactpoly import (
    ExactDivisionError,
    IntPoly,
    MPoly,
    bareiss_det,
    charpoly_exact,
    charpoly_rows,
    root_counts,
)
from specgraph.graphs import distance_matrix, named_graph


def cofactor_det(M):
    """Independent oracle: textbook cofactor expansion."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = MPoly()
    for j in range(n):
        if M[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def random_mpoly(rng, vars_=("L", "a'", "b'"), max_terms=3, max_coeff=4):
    p = MPoly()
    for _ in range(rng.randint(0, max_terms)):
        term = MPoly.const(rng.randint(-max_coeff, max_coeff))
        for v in vars_:
            term = term * MPoly.var(v) ** rng.randint(0, 1)
        p = p + term
    return p


class TestIntPoly:
    def test_trim_and_degree(self):
        assert IntPoly([1, 2, 0, 0]).degree == 1
        assert IntPoly([]).is_zero()
        assert IntPoly([0]).is_zero()

    def test_arith(self):
        p = IntPoly([1, 1])          # 1 + L
        q = IntPoly([-1, 1])         # -1 + L
        assert p * q == IntPoly([-1, 0, 1])
        assert p + q == IntPoly([0, 2])
        assert p - p == IntPoly([])
        assert p ** 3 == IntPoly([1, 3, 3, 1])

    def test_eval(self):
        p = IntPoly([-1, 0, 1])
        assert p(3) == 8
        assert p(Fraction(1, 2)) == Fraction(-3, 4)

    def test_text(self):
        assert IntPoly([-1, 0, 1]).text() == "L^2 - 1"
        assert IntPoly([]).text() == "0"
        assert IntPoly([2, -1]).text() == "-L + 2"


class TestMPoly:
    def test_construction_drops_zeros(self):
        p = MPoly({(0, 0, 0, 0, 0): 0, (1, 0, 0, 0, 0): 2})
        assert p == MPoly.var("L") * 2

    def test_ring_ops(self):
        a = MPoly.var("a'")
        b = MPoly.var("b'")
        assert (a + b) * (a - b) == a * a - b * b
        assert (a + 1) ** 2 == a * a + 2 * a + 1

    def test_substitute_constant(self):
        lam = MPoly.var("L")
        c = MPoly.var("c")
        f = -(lam ** 3) + 6 * c * lam ** 2 + (12 * c + 6) * lam + (4 * c + 4)
        f1 = f.substitute("c", 1)
        assert f1 == -(lam ** 3) + 6 * lam ** 2 + 18 * lam + 8

    def test_substitute_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_mpoly(rng)
            assert p.substitute("a'", MPoly.var("a'")) == p

    def test_substitute_poly(self):
        lam = MPoly.var("L")
        p = lam ** 2
        assert p.substitute("L", lam + 1) == lam ** 2 + 2 * lam + 1

    def test_text_order(self):
        a, b = MPoly.var("a'"), MPoly.var("b'")
        lam = MPoly.var("L")
        p = lam ** 2 - 4 * a * b + 28 * a * b * MPoly.var("c'")
        assert p.text() == "L^2 + 28*a'*b'*c' - 4*a'*b'"


class TestCharpoly:
    def test_p2(self):
        assert charpoly_exact([[0, 1], [1, 0]]) == IntPoly([-1, 0, 1])

    def test_k4_roots(self):
        p = charpoly_exact(distance_matrix(named_graph("K", 4)))
        assert p(3) == 0
        assert root_counts(p, -1)[1] == 3
        assert p.coeffs[-1] == 1  # (-1)^4

    def test_leading_and_trace_coefficients(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 6)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                M[i][i] = rng.randint(-3, 3)
            p = charpoly_exact(M)
            assert p.degree == n
            assert p.coeffs[n] == (-1) ** n
            tr = sum(M[i][i] for i in range(n))
            if n >= 1:
                assert p.coeffs[n - 1] == (-1) ** (n - 1) * tr

    def test_agrees_with_cofactor_oracle(self):
        rng = random.Random(17)
        lam = MPoly.var("L")
        for _ in range(20):
            n = rng.randint(1, 5)
            M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            sym = [[MPoly.const(M[i][j]) - (lam if i == j else 0)
                    for j in range(n)] for i in range(n)]
            coeffs = charpoly_exact(M).coeffs
            assert cofactor_det(sym).terms == {
                (i, 0, 0, 0, 0): c for i, c in enumerate(coeffs) if c}

    def test_1x1(self):
        assert charpoly_exact([[5]]) == IntPoly([5, -1])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            charpoly_exact([[1, 2]])


def sylvester_hadamard(order):
    H = [[1]]
    while len(H) < order:
        H = [row + row for row in H] + [row + [-x for x in row] for row in H]
    return H


class TestCharpolyRows:
    def test_dtypes_agree_with_charpoly_exact(self, monkeypatch):
        # the int64 batch and the modular batch, against the oracle
        rng = random.Random(13)
        stacks = [[[[rng.randint(-5, 5) for _ in range(n)]
                    for _ in range(n)] for _ in range(8)]
                  for n in range(1, 7)]
        want = [[list(fl_charpoly(M)) for M in stack] for stack in stacks]
        assert [charpoly_rows(stack) for stack in stacks] == want
        for stack, rows in zip(stacks, want):
            assert [list(charpoly_exact(M).coeffs) for M in stack] == rows
        monkeypatch.setattr(exactpoly, "_int64_safe", lambda n, m: False)
        assert [charpoly_rows(stack) for stack in stacks] == want

    def test_rows_keep_dtype(self):
        # every row is Python ints, whichever batch made it
        rows = charpoly_rows([[[0, 2], [2, 0]]])
        assert rows == [[-4, 0, 1]]
        assert all(type(c) is int for c in rows[0])
        # entries past int64
        row = charpoly_rows([[[2 ** 70, 1], [1, 0]]])[0]
        assert all(type(c) is int for c in row)
        assert row == [-1, -(2 ** 70), 1]

    def test_wide_random_signed_matrices_exact(self):
        rng = random.Random(29)
        for n in (1, 2, 3, 7, 16, 30):
            M = [[rng.randint(-2 ** 30, 2 ** 30) for _ in range(n)]
                 for _ in range(n)]
            assert tuple(charpoly_rows([M])[0]) == fl_charpoly(M)
            assert charpoly_exact(M).coeffs == fl_charpoly(M)

    def test_inexact_division_raises_on_both_dtypes(self):
        # the unreduced int64 recurrence wraps on these entries and its
        # trace at k=3 is then not divisible by 3; the guard sends the
        # matrix to the modular batch, which gets it right
        big = [[2 ** 30 + 1, 1, 0], [1, 2 ** 30, 1], [0, 1, 3]]
        assert not exactpoly._int64_safe(3, 2 ** 30 + 1)
        with pytest.raises(ArithmeticError):
            exactpoly._recurrence(np.array([big], dtype=np.int64))
        assert tuple(charpoly_rows([big])[0]) == fl_charpoly(big)
        assert charpoly_exact(big).coeffs == fl_charpoly(big)
        # a half-integer diagonal, whose tr(A(A - I)) = -1/2 is not
        # divisible by 2, is refused before any arithmetic
        half = Fraction(1, 2)
        with pytest.raises(ValueError):
            charpoly_rows([[[half, 0], [0, half]]])

    def test_hadamard_16_meets_the_bound(self, monkeypatch):
        H = sylvester_hadamard(16)
        want = fl_charpoly(H)
        # det(H) = 16^(16/2) = 2^32 is Hadamard's bound with m = 1
        assert want[0] == 2 ** 32
        assert tuple(charpoly_rows([H])[0]) == want
        monkeypatch.setattr(exactpoly, "_int64_safe", lambda n, m: False)
        assert tuple(charpoly_rows([H])[0]) == want
        assert charpoly_exact(H)(0) == 2 ** 32

    def test_mixed_stack_in_input_order_one_batch_each(self, monkeypatch):
        rng = random.Random(31)
        n = 8
        small = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                 for _ in range(6)]
        wide = [[[rng.randint(-2 ** 40, 2 ** 40) for _ in range(n)]
                 for _ in range(n)] for _ in range(3)]
        stack = small[:2] + wide[:1] + small[2:5] + wide[1:] + small[5:]
        calls = []
        real = exactpoly._recurrence

        def recording(A, primes=None, inverses=None):
            calls.append((A.shape, primes))
            return real(A, primes, inverses)

        monkeypatch.setattr(exactpoly, "_recurrence", recording)
        assert [tuple(r) for r in charpoly_rows(stack)] == \
            [fl_charpoly(M) for M in stack]
        primes = exactpoly._moduli(n, 2 ** 40)[0]
        assert calls == [((6, n, n), None),
                         ((len(primes), 3, n, n), primes)]

    def test_moduli_conditions(self):
        # at (6, 8) one prime exceeds the bound but not twice the bound
        for n, m in ((1, 1), (6, 8), (10, 9), (27, 13), (30, 2 ** 30)):
            primes, inverses, weights, product = exactpoly._moduli(n, m)
            bound = max(math.comb(n, i) * (math.isqrt(i ** i - 1) + 1) * m ** i
                        for i in range(n + 1))
            assert product == math.prod(primes)
            assert product > 2 * bound
            for j, p in enumerate(primes):
                assert n < p < 2 ** 26 and 2 * n * p * p < 2 ** 63
                assert all(p % d for d in range(2, math.isqrt(p) + 1))
                assert all(k * inverses[k, j, 0] % p == 1
                           for k in range(1, n + 1))
        # past order 1024 the cap on 2*n*p^2 is the binding one
        p = exactpoly._moduli(1100, 1)[0][0]
        assert 2 * 1100 * p * p < 2 ** 63 and p < 2 ** 26 - 2 ** 20

    def test_non_integer_input_rejected(self):
        half = Fraction(1, 2)
        for bad in ([[[half, 1], [1, 0]]], [[[0.5, 0], [0, 1]]],
                    [[[1.0, 0.0], [0.0, 1.0]]], [[["1", "0"], ["0", "1"]]]):
            with pytest.raises(ValueError):
                charpoly_rows(bad)
        with pytest.raises(ValueError):
            charpoly_exact([[half]])

    def test_not_a_stack_of_square_matrices(self):
        with pytest.raises(ValueError):
            charpoly_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            charpoly_rows([[[1, 2]]])
        with pytest.raises(ValueError):
            charpoly_exact([])


class TestBareiss:
    def test_1x1(self):
        q = MPoly.var("a'") + 3
        assert bareiss_det([[q]]) == q

    def test_2x2(self):
        lam = MPoly.var("L")
        det = bareiss_det([[-lam, MPoly.const(1)], [MPoly.const(1), -lam]])
        assert det == lam ** 2 - 1

    def test_int_entries_promoted(self):
        assert bareiss_det([[2, 1], [1, 2]]) == MPoly.const(3)

    def test_zero_pivot_row_swap(self):
        assert bareiss_det([[0, 1], [1, 0]]) == MPoly.const(-1)

    def test_singular(self):
        a = MPoly.var("a'")
        assert bareiss_det([[a, a], [a, a]]).is_zero()

    def test_agrees_with_cofactor_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 4)
            M = [[random_mpoly(rng) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(M) == cofactor_det(M)


class TestDivision:
    def test_trivial(self):
        lam = MPoly.var("L")
        assert (lam ** 2 - 1).divexact(lam + 1) == lam - 1

    def test_roundtrip_random(self):
        rng = random.Random(31)
        done = 0
        while done < 200:
            a = random_mpoly(rng, max_terms=4)
            b = random_mpoly(rng, max_terms=3)
            if b.is_zero():
                continue
            assert (a * b).divexact(b) == a
            done += 1

    def test_inexact_raises(self):
        lam = MPoly.var("L")
        with pytest.raises(ExactDivisionError):
            (lam ** 2 + 1).divexact(lam + 1)

    def test_coefficient_inexact_raises(self):
        lam = MPoly.var("L")
        with pytest.raises(ExactDivisionError):
            (3 * lam).divexact(2 * lam)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            MPoly.const(1).divexact(MPoly())


class TestRootMultiplicity:
    def test_simple(self):
        p = IntPoly([-1, 0, 1])
        assert root_counts(p, 1)[1] == 1
        assert root_counts(p, 2)[1] == 0

    def test_t22_minus_two(self):
        p = charpoly_exact(distance_matrix(named_graph("T", 2, 2)))
        assert root_counts(p, -2)[1] == 2

    def test_t43_minus_two(self):
        p = charpoly_exact(distance_matrix(named_graph("T", 4, 3)))
        assert root_counts(p, -2)[1] == 5

    def test_constructed_multiplicity(self):
        p = IntPoly([2, 1]) ** 4 * IntPoly([-3, 1])
        assert root_counts(p, -2)[1] == 4
        assert root_counts(p, 3)[1] == 1

    def test_deflation_leaves_nonroot(self):
        rng = random.Random(41)
        for _ in range(40):
            r = rng.randint(-3, 3)
            k = rng.randint(0, 4)
            q = IntPoly([rng.randint(1, 5), rng.randint(-4, 4), 1])
            while q(r) == 0:
                q = q + 1
            p = IntPoly([-r, 1]) ** k * q
            assert root_counts(p, r)[1] == k
            deflated = p
            for _ in range(k):
                coeffs = deflated.coeffs
                quot = [0] * (len(coeffs) - 1)
                acc = 0
                for i in range(len(coeffs) - 1, 0, -1):
                    acc = coeffs[i] + acc * r
                    quot[i - 1] = acc
                deflated = IntPoly(quot)
            assert deflated(r) != 0


def _random_symmetric(rng, n):
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-5, 5)
    return M


class TestRootCounts:
    """(above, at) against eigvalsh; a threshold within 1e-4 but not 1e-7
    of an eigenvalue is one the float oracle cannot place, and is skipped."""

    def check_against_eigvalsh(self, seed, threshold):
        rng = random.Random(seed)
        checked = 0
        for _ in range(250):
            M = _random_symmetric(rng, rng.randint(1, 10))
            values = np.linalg.eigvalsh(np.array(M, dtype=float))
            t = threshold(rng)
            gaps = np.abs(values - float(t))
            if np.any((gaps > 1e-7) & (gaps < 1e-4)):
                continue
            want = (int(np.sum(values > float(t) + 1e-7)),
                    int(np.sum(gaps <= 1e-7)))
            assert root_counts(charpoly_exact(M), t) == want, (M, t)
            checked += 1
        assert checked >= 240

    def test_integer_thresholds(self):
        self.check_against_eigvalsh(
            61, lambda rng: rng.randint(-8, 8))

    def test_rational_thresholds(self):
        self.check_against_eigvalsh(
            62, lambda rng: Fraction(rng.randint(-40, 40), rng.randint(2, 7)))

    def test_integer_eigenvalues_are_hit(self):
        # singular integer matrices put an eigenvalue exactly at 0
        rng = random.Random(63)
        hits = 0
        for _ in range(100):
            n = rng.randint(2, 8)
            M = _random_symmetric(rng, n)
            M[-1] = list(M[0])
            for i in range(n):
                M[i][-1] = M[i][0]
            values = np.linalg.eigvalsh(np.array(M, dtype=float))
            above, at = root_counts(charpoly_exact(M), 0)
            assert at >= 1
            assert above == int(np.sum(values > 1e-7))
            assert at == int(np.sum(np.abs(values) <= 1e-7))
            hits += at
        assert hits >= 100

    def test_complete_graph_at_minus_one(self):
        for n in range(2, 9):
            p = charpoly_exact(distance_matrix(named_graph("K", n)))
            assert root_counts(p, -1) == (1, n - 1)
            assert root_counts(p, n - 1) == (0, 1)
            assert root_counts(p, Fraction(-3, 2)) == (n, 0)

    def test_c4_at_zero(self):
        p = charpoly_exact(distance_matrix(named_graph("C", 4)))
        assert root_counts(p, 0) == (1, 1)

    def test_tab_at_minus_two(self):
        for a in range(1, 6):
            for b in range(1, 6):
                p = charpoly_exact(distance_matrix(named_graph("T", a, b)))
                assert root_counts(p, -2) == (4, a + b - 2), (a, b)

    def test_rational_root(self):
        # (2L + 3)^2 (L - 1): roots -3/2 twice and 1
        p = IntPoly([3, 2]) ** 2 * IntPoly([-1, 1])
        assert root_counts(p, Fraction(-3, 2)) == (1, 2)
        assert root_counts(p, Fraction(-7, 5)) == (1, 0)
        assert root_counts(p, Fraction(-8, 5)) == (3, 0)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            root_counts(IntPoly(), 0)

