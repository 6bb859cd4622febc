"""Exact polynomial arithmetic and fraction-free linear algebra.

Two polynomial types, both over arbitrary-precision integers:

    IntPoly  univariate in the eigenvalue variable L
    MPoly    sparse multivariate in (L, a', b', c', c), stored as a map
             from exponent vectors to nonzero integer coefficients

plus the exact kernels built on them: Faddeev-LeVerrier characteristic
polynomials of stacks of integer matrices (in int64 where a proven bound
rules out overflow, modulo word-size primes with a Chinese-remainder lift
otherwise), Bareiss fraction-free determinants of polynomial matrices,
exact division, and root counts above and at a rational (Descartes' rule
of signs after a Taylor shift), the one rule by which the package places
a root.  No floats anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import comb, isqrt
from operator import itemgetter

import numpy as np

VARS = ("L", "a'", "b'", "c'", "c")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_ZERO_EXP = (0, 0, 0, 0, 0)


class ExactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


class IntPoly:
    """Univariate integer polynomial; coeffs[i] is the L^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(int(x) for x in c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
        return _join_terms((_l_power(i), c) for i, c
                           in reversed(tuple(enumerate(self.coeffs))) if c)

    def __repr__(self):
        return f"IntPoly({self.text()})"


# parameters in name order (a', b', c, c'), as indices into an exponent
_PARAMS = tuple((_VAR_INDEX[p], p) for p in sorted(VARS[1:]))
_RANK = itemgetter(0, *(i for i, _ in _PARAMS))


def _term_key(item):
    """The L power, then the parameter powers in name order; exponents
    are distinct, so the descending order is total."""
    return _RANK(item[0])


def _l_power(k: int) -> str:
    return f"L^{k}" if k > 1 else "L" if k else ""


def _monomial(exp) -> str:
    """L first, then the parameters in name order, joined by '*'."""
    factors = [_l_power(exp[0])] if exp[0] else []
    factors += [p if exp[i] == 1 else f"{p}^{exp[i]}"
                for i, p in _PARAMS if exp[i]]
    return "*".join(factors)


def _render_terms(items) -> str:
    """Canonical text of (exponent, coefficient) items: descending L
    powers, parameters in name order."""
    return _join_terms((_monomial(exp), coeff) for exp, coeff
                       in sorted(items, key=_term_key, reverse=True))


def _join_terms(terms) -> str:
    """The one renderer: ordered (monomial, coefficient) terms, '' the
    constant monomial, as signed text."""
    parts = []
    for mono, coeff in terms:
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts) or "0"


class MPoly:
    """Sparse polynomial in (L, a', b', c', c) with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    self.terms[tuple(exp)] = int(coeff)

    @classmethod
    def const(cls, value: int) -> "MPoly":
        return cls({_ZERO_EXP: value})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        exp = [0] * len(VARS)
        exp[_VAR_INDEX[name]] = 1
        return cls({tuple(exp): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other)
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return MPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = MPoly()
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MPoly.const(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MPoly()
            return MPoly({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                     e1[3] + e2[3], e1[4] + e2[4])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        p = MPoly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def variables(self) -> set[str]:
        used = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(VARS[i])
        return used

    def coeff_of(self, name: str, power: int) -> "MPoly":
        """Coefficient of name**power, as a polynomial in the other
        variables."""
        i = _VAR_INDEX[name]
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == power:
                e = list(exp)
                e[i] = 0
                out[tuple(e)] = c
        return MPoly(out)

    def constant_term(self) -> int:
        return self.terms.get(_ZERO_EXP, 0)

    def substitute(self, name: str, value) -> "MPoly":
        """Exact substitution of one variable by an int or an MPoly."""
        if isinstance(value, int):
            value = MPoly.const(value)
        i = _VAR_INDEX[name]
        # group by power of the substituted variable, then Horner
        by_power: dict[int, MPoly] = {}
        for exp, c in self.terms.items():
            e = list(exp)
            k = e[i]
            e[i] = 0
            part = by_power.setdefault(k, MPoly())
            part.terms[tuple(e)] = part.terms.get(tuple(e), 0) + c
        acc = MPoly()
        for k in range(max(by_power, default=0), -1, -1):
            acc = acc * value + by_power.get(k, MPoly())
        return acc

    def divexact(self, den: "MPoly") -> "MPoly":
        """Exact polynomial division; raises ExactDivisionError on any
        remainder."""
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        den_items = sorted(den.terms.items(), reverse=True)
        den_lead_exp, den_lead_coeff = den_items[0]
        rem = dict(self.terms)
        quot: dict[tuple, int] = {}
        while rem:
            lead_exp = max(rem)
            lead_coeff = rem[lead_exp]
            exp = tuple(a - b for a, b in zip(lead_exp, den_lead_exp))
            if any(e < 0 for e in exp) or lead_coeff % den_lead_coeff:
                raise ExactDivisionError(
                    f"not divisible: leading term {lead_exp} vs {den_lead_exp}")
            c = lead_coeff // den_lead_coeff
            quot[exp] = c
            for dexp, dcoeff in den_items:
                e = (exp[0] + dexp[0], exp[1] + dexp[1], exp[2] + dexp[2],
                     exp[3] + dexp[3], exp[4] + dexp[4])
                s = rem.get(e, 0) - c * dcoeff
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return MPoly(quot)

    def text(self) -> str:
        return _render_terms(list(self.terms.items()))

    def __repr__(self):
        return f"MPoly({self.text()})"


L = MPoly.var("L")


# ---------------------------------------------------------------------------
# exact characteristic polynomials (one batched Faddeev-LeVerrier, in int64
# machine words where a proven bound rules out overflow, modulo word-size
# primes with a Chinese-remainder lift otherwise)

def _hadamard_bounds(n: int, m: int) -> list[int]:
    """|c_{n-i}| <= C(n,i) i^{i/2} m^i for an n x n matrix whose entries
    are at most m in absolute value: c_{n-i} sums C(n,i) principal i x i
    minors, each bounded by Hadamard's inequality."""
    return [comb(n, i) * (isqrt(i ** i) + 1) * m ** i for i in range(n + 1)]


@cache
def _int64_safe(n: int, max_entry: int) -> bool:
    """Rigorous overflow bound for the unreduced int64 recurrence.

    The k-th work matrix is A^k + c_{n-1}A^{k-1} + ... so its entries are
    bounded by a computable sum of the coefficient bounds; the next matmul
    amplifies by at most n*m.
    """
    m = max(max_entry, 1)
    cb = _hadamard_bounds(n, m)
    cmax = max(cb)
    limit = 2 ** 62
    for k in range(1, n + 1):
        bk = sum(cb[k - j] * n ** (j - 1) * m ** j for j in range(1, k + 1))
        if bk > limit or n * m * (bk + cmax) > limit:
            return False
    return True


@cache
def _prime_below(q: int) -> int:
    p = q - 1
    while p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p -= 1
    return p


@lru_cache(maxsize=64)
def _moduli(n: int, max_entry: int):
    """The largest primes p < 2^26 with p > n and 2*n*p^2 < 2^63, descending,
    until their product exceeds twice the coefficient bound; with them, the
    inverses of 1..n modulo each prime and the CRT weights."""
    need = 2 * max(_hadamard_bounds(n, max(max_entry, 1)))
    p = min(2 ** 26, isqrt((2 ** 62 - 1) // n))
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


def _recurrence(A, primes=None, inverses=None) -> np.ndarray:
    """det(L*I - A) coefficients, ascending, of a stack A (..., n, n) of
    int64 matrices, by Faddeev-LeVerrier.

    Unreduced when primes is None: the caller has ruled out overflow, and
    since every division by k is exact for integer matrices a remainder
    raises ArithmeticError.  Otherwise A has a leading axis of primes, the
    matrices in A[j] are reduced modulo primes[j], and each division is a
    product with the inverse of k: entries stay below p, a shifted work
    matrix below 2p, and a matmul below 2*n*p^2 < 2^63.
    """
    n = A.shape[-1]
    diag = np.arange(n)
    coeffs = np.zeros(A.shape[:-2] + (n + 1,), dtype=np.int64)
    coeffs[..., n] = 1
    if primes is not None:
        p = np.array(primes, dtype=np.int64)[:, None]
    M = A.copy()
    for k in range(1, n + 1):
        if k > 1:
            M[..., diag, diag] += coeffs[..., n - k + 1, None]
            M = A @ M
            if primes is not None:
                M %= p[..., None, None]
        tr = -np.trace(M, axis1=-2, axis2=-1)
        if primes is None:
            q = tr // k
            if (q * k != tr).any():
                raise ArithmeticError("interior division not exact")
        else:
            q = tr % p * inverses[k] % p
        coeffs[..., n - k] = q
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

    One Faddeev-LeVerrier recurrence, run twice over parts of the stack.
    Every coefficient obeys |c_{n-i}| <= C(n,i) i^{i/2} m^i, m the
    matrix's largest |entry|.  The matrices whose m lets that bound rule
    out int64 overflow run as one unreduced int64 batch.  All others run
    as one batch modulo each of the largest primes p < 2^26 with
    2*n*p^2 < 2^63, as many as make their product exceed twice the
    bound at the batch's largest m; the Chinese remainder theorem with
    symmetric residues then gives every coefficient exactly.
    """
    A = _integer_stack(stack)
    n = A.shape[1]
    sign = -1 if n % 2 else 1
    largest = [max(hi, -lo) for hi, lo in zip(A.max(axis=(1, 2)).tolist(),
                                              A.min(axis=(1, 2)).tolist())]
    safe = np.array([A.dtype == np.int64 and _int64_safe(n, m)
                     for m in largest], dtype=bool)
    rows: list = [None] * len(A)
    if safe.any():
        direct = _recurrence(A if safe.all() else A[safe])
        direct *= sign
        for i, row in zip(np.flatnonzero(safe).tolist(), direct.tolist()):
            rows[i] = row
    if not safe.all():
        where = np.flatnonzero(~safe)
        primes, inverses, weights, product = _moduli(
            n, max(largest[i] for i in where))
        B = A[where]
        residues = _recurrence(
            np.stack([B % p for p in primes]).astype(np.int64),
            primes, inverses)
        lifted = sum(w * r for w, r in zip(weights, residues.astype(object)))
        lifted %= product
        lifted = np.where(lifted > product // 2, lifted - product, lifted)
        for i, row in zip(where.tolist(), (sign * lifted).tolist()):
            rows[i] = row
    return rows


def charpoly_exact(matrix) -> IntPoly:
    """det(M - L*I) for a square integer matrix, exactly: a stack of one
    through charpoly_rows."""
    return IntPoly(charpoly_rows([matrix])[0])


# ---------------------------------------------------------------------------
# fraction-free determinant of polynomial matrices

def bareiss_det(matrix) -> MPoly:
    """Exact determinant by Bareiss fraction-free elimination.

    Entries may be MPoly or int.  All interior divisions are exact by the
    Bareiss identity; a remainder would mean a broken invariant, so it is a
    hard fault rather than a recoverable error.
    """
    M = [[e if isinstance(e, MPoly) else MPoly.const(e) for e in row]
         for row in matrix]
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    if n == 1:
        return M[0][0]
    sign = 1
    prev = MPoly.const(1)
    for k in range(n - 1):
        if M[k][k].is_zero():
            for i in range(k + 1, n):
                if not M[i][k].is_zero():
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return MPoly()
        pivot = M[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * M[i][j] - M[i][k] * M[k][j]
                try:
                    M[i][j] = num.divexact(prev)
                except ExactDivisionError as exc:
                    raise AssertionError(
                        "Bareiss interior division failed; elimination "
                        "invariant broken") from exc
            M[i][k] = MPoly()
        prev = pivot
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


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
    if p.is_zero():
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

