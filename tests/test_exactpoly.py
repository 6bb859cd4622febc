"""Exact polynomial kernels: IntPoly, FL charpoly, root counts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracle_utils import fl_charpoly
from specgraph import exactpoly
from specgraph.exactpoly import (
    IntPoly,
    charpoly_exact,
    charpoly_rows,
    root_counts,
)
from specgraph.graphs import distance_matrix, named_graph


def cofactor_det(M):
    """Independent oracle: textbook cofactor expansion of a matrix of
    IntPoly entries."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = IntPoly()
    for j in range(n):
        if not M[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


class TestIntPoly:
    def test_trim_and_degree(self):
        assert IntPoly([1, 2, 0, 0]).degree == 1
        assert not IntPoly([])
        assert not IntPoly([0])
        assert IntPoly([0, 1])

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

    def test_zc_coefficients(self):
        # polynomials in L whose coefficients are polynomials in c
        c = IntPoly([0, 1])
        p, q = IntPoly([c, 1]), IntPoly([-c, 1])         # L + c, L - c
        assert p * q == IntPoly([IntPoly([0, 0, -1]), 0, 1])  # L^2 - c^2
        assert p + q == IntPoly([0, 2])
        # a constant c-polynomial equals and is stored as its int
        assert IntPoly([IntPoly([3]), c]) == IntPoly([3, c])
        assert IntPoly([IntPoly([3]), c]).coeffs == (3, c)
        # trailing zero c-polynomials are trimmed
        assert IntPoly([c, IntPoly([0]), IntPoly()]).degree == 0
        assert not p - p
        # equal polynomials hash equal
        assert hash(IntPoly([IntPoly([3]), c])) == hash(IntPoly([3, c]))
        assert len({p * q, IntPoly([-c * c, 0, 1]), p}) == 2
        assert repr(q) == "IntPoly([IntPoly([0, -1]), 1])"

    def test_hash_agrees_with_int_equality(self):
        # a constant equals its int and zero equals 0, so each hashes alike
        assert IntPoly([3]) == 3 and hash(IntPoly([3])) == hash(3)
        assert IntPoly() == 0 and hash(IntPoly()) == hash(0)
        assert 3 in {IntPoly([3])} and IntPoly([3]) in {3}
        assert 0 in {IntPoly()} and IntPoly([IntPoly([-7])]) in {-7}
        assert {IntPoly([1, 1]): "x"}.get(1) is None

    def test_text(self):
        assert IntPoly([-1, 0, 1]).text() == "L^2 - 1"
        assert IntPoly([]).text() == "0"
        assert IntPoly([2, -1]).text() == "-L + 2"
        assert IntPoly([-1, 3, 0, -2]).text() == "-2*L^3 + 3*L - 1"


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
        for _ in range(20):
            n = rng.randint(1, 5)
            M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            sym = [[IntPoly([M[i][j], -1 if i == j else 0])
                    for j in range(n)] for i in range(n)]
            assert cofactor_det(sym) == charpoly_exact(M)

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
    def test_dtypes_agree_with_charpoly_exact(self, force_modular):
        # the float64 pass and the modular batch, against the oracle
        rng = random.Random(13)
        stacks = [[[[rng.randint(-5, 5) for _ in range(n)]
                    for _ in range(n)] for _ in range(8)]
                  for n in range(1, 7)]
        want = [[list(fl_charpoly(M)) for M in stack] for stack in stacks]
        assert [charpoly_rows(stack) for stack in stacks] == want
        for stack, rows in zip(stacks, want):
            assert [list(charpoly_exact(M).coeffs) for M in stack] == rows
        force_modular()
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

    def test_uint64_past_int64_is_not_wrapped(self):
        # a uint64 stack that fits int64 keeps the int64 float pass;
        # one with an entry of 2^63 or more goes to Python ints whole
        top = 2 ** 64 - 1
        for stack in (np.array([[[top]]], dtype=np.uint64), [[[top]]],
                      np.array([[[2 ** 63, 1], [1, 0]]], dtype=np.uint64)):
            assert exactpoly._integer_stack(stack).dtype == object
        assert charpoly_rows(np.array([[[top]]], dtype=np.uint64)) == \
            [[top, -1]]
        assert charpoly_rows([[[top]]]) == [[top, -1]]
        assert charpoly_rows(np.array([[[2 ** 63, 1], [1, 0]]],
                                      dtype=np.uint64)) == \
            [[-1, -(2 ** 63), 1]]
        fits = np.array([[[2 ** 63 - 1, 1], [1, 0]]], dtype=np.uint64)
        assert exactpoly._integer_stack(fits).dtype == np.int64
        assert charpoly_rows(fits) == [[-1, -(2 ** 63 - 1), 1]]

    def test_wide_random_signed_matrices_exact(self):
        rng = random.Random(29)
        for n in (1, 2, 3, 7, 16, 30):
            M = [[rng.randint(-2 ** 30, 2 ** 30) for _ in range(n)]
                 for _ in range(n)]
            assert tuple(charpoly_rows([M])[0]) == fl_charpoly(M)
            assert charpoly_exact(M).coeffs == fl_charpoly(M)

    def test_inexact_division_raises_on_both_dtypes(self, monkeypatch):
        # these entries fail the certificate, so the matrix goes to the
        # modular batch, which gets it right
        big = [[2 ** 30 + 1, 1, 0], [1, 2 ** 30, 1], [0, 1, 3]]
        assert not exactpoly._float_pass(np.array([big]))[1].any()
        assert tuple(charpoly_rows([big])[0]) == fl_charpoly(big)
        assert charpoly_exact(big).coeffs == fl_charpoly(big)
        # with the certificate waived the float64 products round, and the
        # trace at k=3 is then not divisible by 3: the guard raises
        monkeypatch.setattr(exactpoly, "_EXACT", math.inf)
        with pytest.raises(ArithmeticError):
            charpoly_rows([big])
        # a stack with an entry past int64 never enters the float64 pass
        huge = [[2 ** 70, 1], [1, 0]]
        assert tuple(charpoly_rows([huge])[0]) == fl_charpoly(huge)
        # a half-integer diagonal, whose tr(A(A - I)) = -1/2 is not
        # divisible by 2, is refused before any arithmetic
        half = Fraction(1, 2)
        with pytest.raises(ValueError):
            charpoly_rows([[[half, 0], [0, half]]])

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_all_minus_one_is_exact_at_the_float64_bound(self,
                                                        force_modular, n):
        # every residue of -1 is p - 1, so the modular batch's float64
        # products come closest to 2*n*p^2 here; they must stay exact up
        # to order 64, the largest graph the package builds
        force_modular()
        M = [[-1] * n for _ in range(n)]
        want = IntPoly([0, -1]) ** (n - 1) * IntPoly([-n, -1])
        assert tuple(want.coeffs) == fl_charpoly(M)
        assert charpoly_rows([M]) == [list(want.coeffs)]

    def test_hadamard_16_meets_the_bound(self, force_modular):
        H = sylvester_hadamard(16)
        want = fl_charpoly(H)
        # det(H) = 16^(16/2) = 2^32 is Hadamard's bound with m = 1
        assert want[0] == 2 ** 32
        assert tuple(charpoly_rows([H])[0]) == want
        force_modular()
        assert tuple(charpoly_rows([H])[0]) == want
        assert charpoly_exact(H)(0) == 2 ** 32

    def test_mixed_stack_in_input_order_one_batch_each(self, monkeypatch):
        # three float64 blocks of four, whose wide matrices fail the
        # certificate and make up the one modular batch, in input order
        rng = random.Random(31)
        n = 8
        small = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                 for _ in range(6)]
        wide = [[[rng.randint(-2 ** 40, 2 ** 40) for _ in range(n)]
                 for _ in range(n)] for _ in range(3)]
        stack = small[:2] + wide[:1] + small[2:5] + wide[1:] + small[5:]
        largest = max(abs(x) for M in wide for row in M for x in row)
        passes, batches = [], []
        real_pass, real_recurrence = exactpoly._float_pass, \
            exactpoly._recurrence

        def recording_pass(A):
            coeffs, exact = real_pass(A)
            passes.append(exact.tolist())
            return coeffs, exact

        def recording_recurrence(A, primes, inverses):
            batches.append((A.shape, primes))
            assert (A[0] == np.array(wide) % primes[0]).all()
            return real_recurrence(A, primes, inverses)

        monkeypatch.setattr(exactpoly, "_BLOCK", 4)
        monkeypatch.setattr(exactpoly, "_float_pass", recording_pass)
        monkeypatch.setattr(exactpoly, "_recurrence", recording_recurrence)
        assert [tuple(r) for r in charpoly_rows(stack)] == \
            [fl_charpoly(M) for M in stack]
        primes = exactpoly._moduli(n, largest)[0]
        assert passes == [[True, True, False, True],
                          [True, True, False, False], [True]]
        assert batches == [((len(primes), 3, n, n), primes)]

    def test_certificate_is_load_bearing(self):
        # without the check the float64 products round on every one of
        # these; with it they go to the modular batch
        rng = random.Random(37)
        stack = [[[rng.randint(-2 ** 20, 2 ** 20) for _ in range(4)]
                  for _ in range(4)] for _ in range(200)]
        assert [tuple(r) for r in charpoly_rows(stack)] == \
            [fl_charpoly(M) for M in stack]

    def test_moduli_conditions(self):
        # at (6, 8) one prime exceeds the bound but not twice the bound
        for n, m in ((1, 1), (6, 8), (10, 9), (27, 13), (30, 2 ** 30)):
            primes, inverses, weights, product = exactpoly._moduli(n, m)
            bound = max(math.comb(n, i) * (math.isqrt(i ** i - 1) + 1) * m ** i
                        for i in range(n + 1))
            assert product == math.prod(primes)
            assert product > 2 * bound
            for j, p in enumerate(primes):
                # products of residues are exact in float64 below 2^53
                assert n < p < 2 ** 26 and 2 * n * p * p < 2 ** 53
                assert all(p % d for d in range(2, math.isqrt(p) + 1))
                assert all(k * inverses[k, j, 0] % p == 1
                           for k in range(1, n + 1))
        # the cap on 2*n*p^2 shrinks the primes as the order grows
        p = exactpoly._moduli(1100, 1)[0][0]
        assert 2 * 1100 * p * p < 2 ** 53 and p < 2 ** 21

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

