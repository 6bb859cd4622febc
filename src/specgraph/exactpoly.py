"""Exact univariate polynomials and the package's one exact engine.

IntPoly is a polynomial in the eigenvalue variable L over the
arbitrary-precision integers, or over Z[c] when its coefficients are
themselves IntPolys in the common star size c.  The kernels built on it
are Faddeev-LeVerrier characteristic polynomials of stacks of integer
matrices (in float64 with a per-matrix 2^53 certificate, otherwise modulo
primes p with 2*n*p^2 < 2^53 and lifted by the Chinese remainder theorem)
and root counts above and at a rational (Descartes' rule of signs after a
Taylor shift), the one rule by which the package places a root.  The only
floats are these two passes' BLAS float64 matrix products, whose partial
sums are integers below 2^53 and so exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import comb, isqrt

import numpy as np


class IntPoly:
    """Polynomial in L; coeffs[i] is the L^i coefficient, an int or, over
    Z[c], an IntPoly in c.  A constant IntPoly coefficient is stored as
    its int, so equal polynomials hash equal; anything else goes through
    int().  An IntPoly operand of +, - or * is another polynomial in L."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [x if isinstance(x, IntPoly) and x.degree > 0
             else int(x(0) if isinstance(x, IntPoly) else x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as the int it equals, and zero as 0
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash(self.coeffs or 0)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = IntPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation; x may be int, Fraction or float."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def text(self) -> str:
        """poly_text of the coefficients; int coefficients only."""
        return poly_text(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


def poly_text(coeffs) -> str:
    """Signed terms in descending powers of L of ascending int
    coefficients, as "-L^2 + 3*L - 1"; "0" when every one is zero."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        coeff = coeffs[i]
        if not coeff:
            continue
        mono = f"L^{i}" if i > 1 else "L" if i else ""
        mag = abs(coeff)
        body = (str(mag) if not mono else mono if mag == 1
                else f"{mag}*{mono}")
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# exact characteristic polynomials (one batched Faddeev-LeVerrier: a float64
# pass whose products a per-matrix certificate proves exact, and for the
# matrices it cannot certify, a pass modulo primes small enough for exact
# float64 products with a Chinese-remainder lift)

# every integer of magnitude below 2^53 is a float64, and so is every sum
# or product of two of them whose result stays below it
_EXACT = 2.0 ** 53
# matrices per float64 pass, which bounds the pass's working memory
_BLOCK = 512


def _hadamard_bounds(n: int, m: int) -> list[int]:
    """|c_{n-i}| <= C(n,i) i^{i/2} m^i for an n x n matrix whose entries
    are at most m in absolute value: c_{n-i} sums C(n,i) principal i x i
    minors, each bounded by Hadamard's inequality."""
    return [comb(n, i) * (isqrt(i ** i) + 1) * m ** i for i in range(n + 1)]


def _float_pass(A) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, exact) for a stack A (m, n, n) of int64 matrices:
    det(L*I - A) coefficients, ascending, by Faddeev-LeVerrier in float64,
    and a flag per matrix that its row is exact.

    Let S be the sum of a matrix's |entries|.  The flag holds while
    S < 2^53 and, before each product A @ M' with M' = M + c*I,
    S * max|M'| < 2^53.  Then every partial sum of every entry of A and of
    A @ M', and of their traces, is an integer below 2^53: the BLAS
    products are exact in any summation order, with or without FMA, and
    so is M + c*I, whose rounding would first show in max|M'|.  A matrix's
    work matrix is zeroed once its flag fails, and the pass stops when no
    flag is left.  An exact trace of an integer matrix's k-th step is
    divisible by k, so a remainder raises ArithmeticError.
    """
    m, n = A.shape[0], A.shape[-1]
    diag = np.arange(n)
    Af = A.astype(np.float64)
    S = np.abs(Af).sum(axis=(1, 2))
    exact = S < _EXACT
    M = Af.copy()
    coeffs = np.zeros((m, n + 1))
    coeffs[:, n] = 1
    for k in range(1, n + 1):
        if k > 1:
            M[:, diag, diag] += coeffs[:, n - k + 1, None]
            exact &= S * np.abs(M).max(axis=(1, 2)) < _EXACT
            if not exact.any():
                break
            M[~exact] = 0
            M = Af @ M
        tr = -np.trace(M, axis1=1, axis2=2)
        if np.fmod(tr, k).any():
            raise ArithmeticError("interior division not exact")
        coeffs[:, n - k] = tr / k
    return coeffs, exact


@cache
def _prime_below(q: int) -> int:
    p = q - 1
    while p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p -= 1
    return p


@lru_cache(maxsize=64)
def _moduli(n: int, max_entry: int):
    """The largest primes p > n with 2*n*p^2 < 2^53 (so p < 2^26),
    descending, until their product exceeds twice the coefficient bound;
    with them, the inverses of 1..n modulo each prime and the CRT
    weights.  The 2^53 cap keeps _recurrence's float64 products exact."""
    need = 2 * max(_hadamard_bounds(n, max(max_entry, 1)))
    p = isqrt((2 ** 52 - 1) // n)
    primes, product = [], 1
    while product <= need:
        p = _prime_below(p)
        if p <= n:
            raise ValueError(f"no word-size primes left for order {n}")
        primes.append(p)
        product *= p
    inverses = np.array([[pow(k, -1, p) if k else 0 for p in primes]
                         for k in range(n + 1)], dtype=np.int64)[..., None]
    weights = [product // p * pow(product // p, -1, p) for p in primes]
    return primes, inverses, weights, product


def _recurrence(A, primes, inverses) -> np.ndarray:
    """det(L*I - A) coefficients, ascending, modulo each prime, by
    Faddeev-LeVerrier, of a stack A (len(primes), ..., n, n) of int64
    matrices whose matrices in A[j] are reduced modulo primes[j].

    Each division by k is a product with the inverse of k.  Entries stay
    below p and a shifted work matrix below 2p, so every partial sum of a
    matmul is a non-negative integer below 2*n*p^2 < 2^53: the product
    runs as a BLAS float64 matmul, exact in any summation order and with
    or without FMA, and comes back to int64 for the reduction.
    """
    n = A.shape[-1]
    diag = np.arange(n)
    coeffs = np.zeros(A.shape[:-2] + (n + 1,), dtype=np.int64)
    coeffs[..., n] = 1
    p = np.array(primes, dtype=np.int64)[:, None]
    Af = A.astype(np.float64)
    M = A.copy()
    for k in range(1, n + 1):
        if k > 1:
            M[..., diag, diag] += coeffs[..., n - k + 1, None]
            M = (Af @ M).astype(np.int64)
            M %= p[..., None, None]
        tr = -np.trace(M, axis1=-2, axis2=-1)
        coeffs[..., n - k] = tr % p * inverses[k] % p
    return coeffs


def _integer_stack(stack) -> np.ndarray:
    """The stack as int64, or as Python ints where an entry does not fit;
    ValueError for anything that is not a stack of square integer
    matrices."""
    A = np.asarray(stack)
    if A.dtype == object:
        if not all(isinstance(x, (int, np.integer)) for x in A.flat):
            raise ValueError("expected integer matrices")
        try:
            A = A.astype(np.int64)
        except OverflowError:
            pass
    elif A.dtype == np.uint64 and A.size and int(A.max()) >> 63:
        # an entry of 2^63 or more would wrap negative in int64
        A = A.astype(object)
    elif A.dtype.kind in "biu":
        A = A.astype(np.int64, copy=False)
    else:
        raise ValueError("expected integer matrices")
    if A.ndim != 3 or A.shape[1] != A.shape[2] or A.shape[1] == 0:
        raise ValueError("expected a stack of nonempty square matrices")
    return A


def charpoly_rows(stack) -> list[list[int]]:
    """det(M - L*I) coefficients, ascending, as Python ints, one row per
    matrix of a stack of equal-size square integer matrices, in input
    order.  Leading term is (-1)^n L^n.

    One Faddeev-LeVerrier recurrence, run in two ways.  Every int64
    matrix first runs in float64, _BLOCK matrices at a time, with a
    per-matrix 2^53 certificate checked before every product (see
    _float_pass); the rows it certifies are exact.  The matrices it
    cannot certify, and every stack with an entry past int64, whose
    |entries| sum past 2^53 at once, run as one batch modulo each of the
    largest primes p with 2*n*p^2 < 2^53.  Every coefficient obeys
    |c_{n-i}| <= C(n,i) i^{i/2} m^i, m a matrix's largest |entry|; the
    batch takes as many primes as make their product exceed twice that
    bound at its largest m, and the Chinese remainder theorem with
    symmetric residues then gives every coefficient exactly.
    """
    A = _integer_stack(stack)
    n = A.shape[1]
    sign = -1 if n % 2 else 1
    rows: list = [None] * len(A)
    flagged = []
    if A.dtype == np.int64:
        for start in range(0, len(A), _BLOCK):
            coeffs, exact = _float_pass(A[start:start + _BLOCK])
            coeffs *= sign
            exact_rows = coeffs[exact].astype(np.int64).tolist()
            for i, row in zip(np.flatnonzero(exact).tolist(), exact_rows):
                rows[start + i] = row
            flagged += (start + np.flatnonzero(~exact)).tolist()
    else:
        flagged = list(range(len(A)))
    if flagged:
        B = A[flagged]
        primes, inverses, weights, product = _moduli(
            n, max(int(B.max()), -int(B.min())))
        residues = _recurrence(
            np.stack([B % p for p in primes]).astype(np.int64),
            primes, inverses)
        lifted = sum(w * r for w, r in zip(weights, residues.astype(object)))
        lifted %= product
        lifted = np.where(lifted > product // 2, lifted - product, lifted)
        for i, row in zip(flagged, (sign * lifted).tolist()):
            rows[i] = row
    return rows


def charpoly_exact(matrix) -> IntPoly:
    """det(M - L*I) for a square integer matrix, exactly: a stack of one
    through charpoly_rows."""
    return IntPoly(charpoly_rows([matrix])[0])


# ---------------------------------------------------------------------------
# root counts

def root_counts(p: IntPoly, value) -> tuple[int, int]:
    """(above, at) for an integer or Fraction value = r/s: the roots of p
    greater than value, and the multiplicity of value as a root.

    The descending coefficients of s^n p(y/s), Taylor-shifted by r, are
    those of q(y) = s^n p((y + r)/s), whose positive roots and zero roots
    are p's roots above and at value.  ``at`` counts q's trailing zero
    coefficients and is exact for any p.  ``above`` counts q's sign
    changes (Descartes' rule of signs), which is exact when every root of
    p is real, as for the characteristic polynomial of a symmetric matrix.
    """
    if not p:
        raise ValueError("zero polynomial has no well-defined root counts")
    q = Fraction(value)
    num, den = q.numerator, q.denominator
    a = [c * den ** i for i, c in enumerate(reversed(p.coeffs))]
    n = len(a) - 1
    for top in range(n, 0, -1):
        for j in range(1, top + 1):
            a[j] += num * a[j - 1]
    at = 0
    while a[n - at] == 0:
        at += 1
    signs = [c > 0 for c in a if c]
    above = sum(x != y for x, y in zip(signs, signs[1:]))
    return above, at

