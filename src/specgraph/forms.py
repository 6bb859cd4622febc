"""Closed-form reference catalog for the extended-double-star analysis.

Everything here is a *transcription*: closed-form polynomials, parametric
distance-matrix templates for the forbidden-subgraph sweeps, the symbolic
hat matrices for the diameter-3 case split, and the reference p1..p5 /
q1..q5 coefficient tables.  Nothing in this module re-derives anything;
re-derivation lives in specgraph.verify, which checks these tables against
independently computed determinants and BFS charpolys.  Keeping the two
sides separate is what makes those checks meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .exactpoly import IntPoly, MPoly
from .graphs import distance_matrix, named_graph
from .spectra import Spectrum

# interval table for the spectrum of T(a,b), a,b >= 1:
#   lam1 in [8.2882, inf)        lam2 in [-0.5578, 0)
#   lam3 in [-0.7639, -0.4226)   lam4 in [-1.7304, -1.5774)
#   lam5..lam_{n-1} = -2         lam_n in (-inf, -5.2361]
LAMBDA1_LOW = 8.2882
LAMBDA2_LOW, LAMBDA2_HIGH = -0.5578, 0.0
LAMBDA3_LOW, LAMBDA3_HIGH = -0.7639, -0.4226
LAMBDA4_LOW, LAMBDA4_HIGH = -1.7304, -1.5774
LAMBDA_N_HIGH = -5.2361


def _build_pab(a, b) -> tuple:
    """Coefficients of L^0..L^5 of 16+8a+8b + (40+36a+36b+8ab)L
    + (28+44a+44b+24ab)L^2 + (2+18a+18b+12ab)L^3 + (-4+2a+2b)L^4 - L^5,
    with a, b int or MPoly."""
    ab = a * b
    return (16 + 8 * a + 8 * b,
            40 + 36 * a + 36 * b + 8 * ab,
            28 + 44 * a + 44 * b + 24 * ab,
            2 + 18 * a + 18 * b + 12 * ab,
            -4 + 2 * a + 2 * b,
            -1)


def p_ab(a: int, b: int) -> IntPoly:
    """Reduced quintic factor of T(a,b)'s distance characteristic
    polynomial."""
    if a < 0 or b < 0:
        raise ValueError("star sizes must be nonnegative")
    return IntPoly(_build_pab(a, b))


def p_cc_sym() -> MPoly:
    """p_{c,c} with the common star size c left symbolic."""
    c, lam = MPoly.var("c"), MPoly.var("L")
    return sum((k * lam ** i for i, k in enumerate(_build_pab(c, c))),
               MPoly())


def tab_charpoly_closed(a: int, b: int) -> tuple[int, IntPoly]:
    """(exponent, reduced quintic) with the full closed form equal to
    (-L-2)^exponent * reduced."""
    if a < 0 or b < 0:
        raise ValueError("star sizes must be nonnegative")
    if a + b < 2:
        raise ValueError("closed form needs a+b >= 2")
    return a + b - 2, p_ab(a, b)


def tab_charpoly_expanded(a: int, b: int) -> IntPoly:
    exponent, reduced = tab_charpoly_closed(a, b)
    return IntPoly([-2, -1]) ** exponent * reduced


def f_poly(c: int) -> IntPoly:
    """-L^3 + 6c L^2 + (12c+6) L + (4c+4)."""
    if c < 1:
        raise ValueError("f is used for c >= 1")
    return IntPoly([4 * c + 4, 12 * c + 6, 6 * c, -1])


def g_poly(c: int) -> IntPoly:
    """L^2 + (2c+4) L + 4, with roots -(c+2) +- sqrt(c^2+4c)."""
    if c < 1:
        raise ValueError("g is used for c >= 1")
    return IntPoly([4, 2 * c + 4, 1])


def f_poly_sym() -> MPoly:
    lam, c = MPoly.var("L"), MPoly.var("c")
    return -(lam ** 3) + 6 * c * lam ** 2 + (12 * c + 6) * lam + (4 * c + 4)


def g_poly_sym() -> MPoly:
    lam, c = MPoly.var("L"), MPoly.var("c")
    return lam ** 2 + (2 * c + 4) * lam + 4


def cycle_spectrum_closed(n: int) -> Spectrum:
    """Distance eigenvalues of the cycle C_n in closed form.

    Odd n=2p+1: (n^2-1)/4 and -sec^2(pi j / n)/4 twice for j=1..p.
    Even n=2p:  n^2/4, zero with multiplicity p-1, -csc^2(pi(2j-1)/n)
    twice for j=1..floor(p/2), and -1 when p is odd.
    """
    if n < 3:
        raise ValueError("cycles need n >= 3")
    vals: list[float] = []
    p = n // 2
    if n % 2:
        vals.append((n * n - 1) / 4)
        for j in range(1, p + 1):
            v = -0.25 / math.cos(math.pi * j / n) ** 2
            vals += [v, v]
    else:
        vals.append(n * n / 4)
        vals += [0.0] * (p - 1)
        for j in range(1, p // 2 + 1):
            v = -1.0 / math.sin(math.pi * (2 * j - 1) / n) ** 2
            vals += [v, v]
        if p % 2:
            vals.append(-1.0)
    vals.sort(reverse=True)
    return Spectrum(tuple(vals))


# 4-decimal eigenvalue facts quoted for the cycle cases
C5_LAMBDA3 = -0.3820
CAPPED_C7_LAMBDA5 = -1.5550


def capped_cycle_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Cycle distances capped at 2 -- the residual diameter-2 case for
    n = 6, 7 once larger distances are excluded."""
    if n not in (6, 7):
        raise ValueError("capped cycle matrices are defined for n in {6, 7}")
    return tuple(
        tuple(min(min(abs(i - j), n - abs(i - j)), 2) for j in range(n))
        for i in range(n))


# ---------------------------------------------------------------------------
# parametric distance-matrix templates for the forbidden-subgraph sweeps

@dataclass
class MatrixTemplate:
    """Symmetric zero-diagonal matrix whose unknown entries range over small
    finite domains."""

    name: str
    entries: tuple[tuple, ...]
    domains: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError("template must be square")
            if row[i] != 0:
                raise ValueError("template diagonal must be zero")
            for j in range(n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"template asymmetric at ({i},{j})")
                e = self.entries[i][j]
                if isinstance(e, str) and e not in self.domains:
                    raise ValueError(f"parameter {e!r} has no domain")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def params(self) -> list[str]:
        return sorted(self.domains)

    def assignment_count(self) -> int:
        count = 1
        for dom in self.domains.values():
            count *= len(dom)
        return count

    def assignments(self):
        """Full Cartesian product, lexicographic in the sorted parameters."""
        names = self.params
        for combo in product(*(self.domains[p] for p in names)):
            yield dict(zip(names, combo))

    def instantiate(self, assignment: dict) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(assignment[e] if isinstance(e, str) else e for e in row)
            for row in self.entries)


def metric_feasible(matrix) -> bool:
    """Triangle inequality over all triples; assignments that fail cannot
    occur as principal submatrices of any distance matrix."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    return False
    return True


def _h1_entries():
    return distance_matrix(named_graph("H1"))


_TEMPLATE_TABLE = {
    "H2": (
        ((0, 1, 2, 2, "a", 1),
         (1, 0, 1, 2, "b", 1),
         (2, 1, 0, 1, 2, 1),
         (2, 2, 1, 0, 1, 1),
         ("a", "b", 2, 1, 0, 2),
         (1, 1, 1, 1, 2, 0)),
        {"a": (2, 3), "b": (2, 3)},
    ),
    "H3": (
        ((0, 1, 2, "a", "b", 2),
         (1, 0, 1, 2, "c", 1),
         (2, 1, 0, 1, 2, 1),
         ("a", 2, 1, 0, 1, 1),
         ("b", "c", 2, 1, 0, 2),
         (2, 1, 1, 1, 2, 0)),
        {"a": (2, 3), "b": (2, 3, 4), "c": (2, 3)},
    ),
    "H4": (
        ((0, 1, 2, "a", "b", 1),
         (1, 0, 1, 2, "c", 1),
         (2, 1, 0, 1, 2, 1),
         ("a", 2, 1, 0, 1, 2),
         ("b", "c", 2, 1, 0, "d"),
         (1, 1, 1, 2, "d", 0)),
        {"a": (2, 3), "b": (2, 3, 4), "c": (2, 3), "d": (2, 3)},
    ),
    "H5": (
        ((0, 1, 2, "a", "b", 2),
         (1, 0, 1, 2, "c", 1),
         (2, 1, 0, 1, 2, 1),
         ("a", 2, 1, 0, 1, 2),
         ("b", "c", 2, 1, 0, "d"),
         (2, 1, 1, 2, "d", 0)),
        {"a": (2, 3), "b": (2, 3, 4), "c": (2, 3), "d": (2, 3)},
    ),
    "H6": (
        ((0, 1, 2, "a", "b", 1),
         (1, 0, 1, 2, "c", 1),
         (2, 1, 0, 1, 2, 2),
         ("a", 2, 1, 0, 1, "d"),
         ("b", "c", 2, 1, 0, "e"),
         (1, 1, 2, "d", "e", 0)),
        {"a": (2, 3), "b": (2, 3, 4), "c": (2, 3), "d": (2, 3),
         "e": (2, 3, 4)},
    ),
    "H7": (
        ((0, 1, 2, "a", "b", "c"),
         (1, 0, 1, 2, "d", 2),
         (2, 1, 0, 1, 2, 1),
         ("a", 2, 1, 0, 1, 2),
         ("b", "d", 2, 1, 0, "e"),
         ("c", 2, 1, 2, "e", 0)),
        {"a": (2, 3), "b": (2, 3, 4), "c": (2, 3), "d": (2, 3),
         "e": (2, 3)},
    ),
    "P6": (
        ((0, 1, 2, "a", "b", "c"),
         (1, 0, 1, 2, "d", "e"),
         (2, 1, 0, 1, 2, "f"),
         ("a", 2, 1, 0, 1, 2),
         ("b", "d", 2, 1, 0, 1),
         ("c", "e", "f", 2, 1, 0)),
        {"a": (2, 3), "b": (2, 3, 4), "c": (2, 3, 4, 5), "d": (2, 3),
         "e": (2, 3, 4), "f": (2, 3)},
    ),
    "F1": (
        ((0, 1, 2, "a", 1),
         (1, 0, 1, 2, 1),
         (2, 1, 0, 1, 1),
         ("a", 2, 1, 0, 1),
         (1, 1, 1, 1, 0)),
        {"a": (2, 3)},
    ),
    "F2": (
        ((0, 1, 2, "a", 1),
         (1, 0, 1, 2, 1),
         (2, 1, 0, 1, 1),
         ("a", 2, 1, 0, 2),
         (1, 1, 1, 2, 0)),
        {"a": (2, 3)},
    ),
    "F3": (
        ((0, 1, 2, "a", 1),
         (1, 0, 1, 2, 1),
         (2, 1, 0, 1, 2),
         ("a", 2, 1, 0, "b"),
         (1, 1, 2, "b", 0)),
        {"a": (2, 3), "b": (2, 3)},
    ),
    "K4": (
        ((0, 1, 1, 1),
         (1, 0, 1, 1),
         (1, 1, 0, 1),
         (1, 1, 1, 0)),
        {},
    ),
    "F4": (
        ((0, 1, 2, "a", 2, 2, 2, 2, 2, 2),
         (1, 0, 1, 2, 1, 1, 1, 1, 1, 1),
         (2, 1, 0, 1, 1, 1, 1, 1, 1, 1),
         ("a", 2, 1, 0, 2, 2, 2, 2, 2, 2),
         (2, 1, 1, 2, 0, 2, 2, 2, 2, 2),
         (2, 1, 1, 2, 2, 0, 2, 2, 2, 2),
         (2, 1, 1, 2, 2, 2, 0, 2, 2, 2),
         (2, 1, 1, 2, 2, 2, 2, 0, 2, 2),
         (2, 1, 1, 2, 2, 2, 2, 2, 0, 2),
         (2, 1, 1, 2, 2, 2, 2, 2, 2, 0)),
        {"a": (2, 3)},
    ),
}

CASE_FAMILIES = ("H1", "H2", "H3", "H4", "H5", "H6", "H7", "P6",
                 "F1", "F2", "F3", "K4", "F4")


def forbidden_template(family: str) -> MatrixTemplate:
    if family == "H1":
        return MatrixTemplate("H1", _h1_entries(), {})
    if family not in _TEMPLATE_TABLE:
        raise ValueError(f"no case template for family {family!r}")
    entries, domains = _TEMPLATE_TABLE[family]
    return MatrixTemplate(family, entries, dict(domains))


# ---------------------------------------------------------------------------
# symbolic hat matrices (diameter-3 case split)
#
# Row/column order: x2, x3, the k hats, then one representative each for the
# a'-class and b'-class of pendant neighbors.  k = 1 carries the extra
# c'-class of neighbors hanging off the single hat.

def hat_matrix(k: int) -> list[list[MPoly]]:
    lam = MPoly.var("L")
    ap, bp, cp = MPoly.var("a'"), MPoly.var("b'"), MPoly.var("c'")
    one, two = MPoly.const(1), MPoly.const(2)
    if k == 1:
        return [
            [-lam, one, one, ap, 2 * bp, 2 * cp],
            [one, -lam, one, 2 * ap, bp, 2 * cp],
            [one, one, -lam, 2 * ap, 2 * bp, cp],
            [one, two, two, 2 * ap - 2 - lam, 3 * bp, 3 * cp],
            [two, one, two, 3 * ap, 2 * bp - 2 - lam, 3 * cp],
            [two, two, one, 3 * ap, 3 * bp, 2 * cp - 2 - lam],
        ]
    if not 2 <= k <= 5:
        raise ValueError("hat matrices are defined for k in 1..5")
    dim = k + 4
    A, B = dim - 2, dim - 1
    M = [[two for _ in range(dim)] for _ in range(dim)]
    M[0][0] = M[1][1] = -lam
    M[0][1] = M[1][0] = one
    for i in range(k):
        h = 2 + i
        M[h][h] = -lam
        M[0][h] = M[h][0] = one
        M[1][h] = M[h][1] = one
    M[0][A], M[0][B] = ap, 2 * bp
    M[1][A], M[1][B] = 2 * ap, bp
    for i in range(k):
        M[2 + i][A], M[2 + i][B] = 2 * ap, 2 * bp
    M[A][0], M[A][1] = one, two
    M[A][A], M[A][B] = 2 * ap - 2 - lam, 3 * bp
    M[B][0], M[B][1] = two, one
    M[B][A], M[B][B] = 3 * ap, 2 * bp - 2 - lam
    return M


# ---------------------------------------------------------------------------
# reference tables for the one-to-five-hat determinants p_k and their
# reduced quotients q_k; rows are (coeff, L, a', b', c') exponents

_P_TABLE = {
    1: (
        (-16, 0, 0, 0, 0), (-12, 0, 1, 0, 0), (-12, 0, 0, 1, 0),
        (-12, 0, 0, 0, 1),
        (-48, 1, 0, 0, 0), (-52, 1, 1, 0, 0), (-52, 1, 0, 1, 0),
        (-12, 1, 1, 1, 0), (-52, 1, 0, 0, 1), (-12, 1, 1, 0, 1),
        (-12, 1, 0, 1, 1),
        (-48, 2, 0, 0, 0), (-79, 2, 1, 0, 0), (-79, 2, 0, 1, 0),
        (-30, 2, 1, 1, 0), (-79, 2, 0, 0, 1), (-30, 2, 1, 0, 1),
        (-30, 2, 0, 1, 1), (-9, 2, 1, 1, 1),
        (-12, 3, 0, 0, 0), (-54, 3, 1, 0, 0), (-54, 3, 0, 1, 0),
        (-22, 3, 1, 1, 0), (-54, 3, 0, 0, 1), (-22, 3, 1, 0, 1),
        (-22, 3, 0, 1, 1), (-8, 3, 1, 1, 1),
        (9, 4, 0, 0, 0), (-17, 4, 1, 0, 0), (-17, 4, 0, 1, 0),
        (-5, 4, 1, 1, 0), (-17, 4, 0, 0, 1), (-5, 4, 1, 0, 1),
        (-5, 4, 0, 1, 1),
        (6, 5, 0, 0, 0), (-2, 5, 1, 0, 0), (-2, 5, 0, 1, 0),
        (-2, 5, 0, 0, 1),
        (1, 6, 0, 0, 0),
    ),
    2: (
        (-16, 0, 0, 0, 0), (-8, 0, 1, 0, 0), (-8, 0, 0, 1, 0),
        (-64, 1, 0, 0, 0), (-40, 1, 1, 0, 0), (-40, 1, 0, 1, 0),
        (-8, 1, 1, 1, 0),
        (-88, 2, 0, 0, 0), (-70, 2, 1, 0, 0), (-70, 2, 0, 1, 0),
        (-24, 2, 1, 1, 0),
        (-48, 3, 0, 0, 0), (-52, 3, 1, 0, 0), (-52, 3, 0, 1, 0),
        (-20, 3, 1, 1, 0),
        (-5, 4, 0, 0, 0), (-17, 4, 1, 0, 0), (-17, 4, 0, 1, 0),
        (-5, 4, 1, 1, 0),
        (4, 5, 0, 0, 0), (-2, 5, 1, 0, 0), (-2, 5, 0, 1, 0),
        (1, 6, 0, 0, 0),
    ),
    3: (
        (32, 0, 0, 0, 0), (8, 0, 1, 0, 0), (8, 0, 0, 1, 0),
        (176, 1, 0, 0, 0), (60, 1, 1, 0, 0), (60, 1, 0, 1, 0),
        (8, 1, 1, 1, 0),
        (336, 2, 0, 0, 0), (150, 2, 1, 0, 0), (150, 2, 0, 1, 0),
        (40, 2, 1, 1, 0),
        (296, 3, 0, 0, 0), (161, 3, 1, 0, 0), (161, 3, 0, 1, 0),
        (54, 3, 1, 1, 0),
        (122, 4, 0, 0, 0), (84, 4, 1, 0, 0), (84, 4, 0, 1, 0),
        (28, 4, 1, 1, 0),
        (15, 5, 0, 0, 0), (21, 5, 1, 0, 0), (21, 5, 0, 1, 0),
        (5, 5, 1, 1, 0),
        (-4, 6, 0, 0, 0), (2, 6, 1, 0, 0), (2, 6, 0, 1, 0),
        (-1, 7, 0, 0, 0),
    ),
    4: (
        (-64, 0, 0, 0, 0),
        (-448, 1, 0, 0, 0), (-64, 1, 1, 0, 0), (-64, 1, 0, 1, 0),
        (-1072, 2, 0, 0, 0), (-272, 2, 1, 0, 0), (-272, 2, 0, 1, 0),
        (-48, 2, 1, 1, 0),
        (-1248, 3, 0, 0, 0), (-416, 3, 1, 0, 0), (-416, 3, 0, 1, 0),
        (-112, 3, 1, 1, 0),
        (-780, 4, 0, 0, 0), (-312, 4, 1, 0, 0), (-312, 4, 0, 1, 0),
        (-96, 4, 1, 1, 0),
        (-252, 5, 0, 0, 0), (-124, 5, 1, 0, 0), (-124, 5, 0, 1, 0),
        (-36, 5, 1, 1, 0),
        (-29, 6, 0, 0, 0), (-25, 6, 1, 0, 0), (-25, 6, 0, 1, 0),
        (-5, 6, 1, 1, 0),
        (4, 7, 0, 0, 0), (-2, 7, 1, 0, 0), (-2, 7, 0, 1, 0),
        (1, 8, 0, 0, 0),
    ),
    5: (
        (128, 0, 0, 0, 0), (-32, 0, 1, 0, 0), (-32, 0, 0, 1, 0),
        (1088, 1, 0, 0, 0), (-16, 1, 1, 0, 0), (-16, 1, 0, 1, 0),
        (-32, 1, 1, 1, 0),
        (3104, 2, 0, 0, 0), (368, 2, 1, 0, 0), (368, 2, 0, 1, 0),
        (4432, 3, 0, 0, 0), (904, 3, 1, 0, 0), (904, 3, 0, 1, 0),
        (160, 3, 1, 1, 0),
        (3608, 4, 0, 0, 0), (950, 4, 1, 0, 0), (950, 4, 0, 1, 0),
        (240, 4, 1, 1, 0),
        (1724, 5, 0, 0, 0), (539, 5, 1, 0, 0), (539, 5, 0, 1, 0),
        (150, 5, 1, 1, 0),
        (454, 6, 0, 0, 0), (172, 6, 1, 0, 0), (172, 6, 0, 1, 0),
        (44, 6, 1, 1, 0),
        (47, 7, 0, 0, 0), (29, 7, 1, 0, 0), (29, 7, 0, 1, 0),
        (5, 7, 1, 1, 0),
        (-4, 8, 0, 0, 0), (2, 8, 1, 0, 0), (2, 8, 0, 1, 0),
        (-1, 9, 0, 0, 0),
    ),
}

_Q_TABLE = {
    1: (
        (8, 0, 0, 0, 0), (6, 0, 1, 0, 0), (6, 0, 0, 1, 0),
        (20, 1, 0, 0, 0), (23, 1, 1, 0, 0), (23, 1, 0, 1, 0),
        (6, 1, 1, 1, 0),
        (14, 2, 0, 0, 0), (28, 2, 1, 0, 0), (28, 2, 0, 1, 0),
        (12, 2, 1, 1, 0),
        (-1, 3, 0, 0, 0), (13, 3, 1, 0, 0), (13, 3, 0, 1, 0),
        (5, 3, 1, 1, 0),
        (-4, 4, 0, 0, 0), (2, 4, 1, 0, 0), (2, 4, 0, 1, 0),
        (-1, 5, 0, 0, 0),
    ),
    2: (
        (8, 0, 0, 0, 0), (4, 0, 1, 0, 0), (4, 0, 0, 1, 0),
        (28, 1, 0, 0, 0), (18, 1, 1, 0, 0), (18, 1, 0, 1, 0),
        (4, 1, 1, 1, 0),
        (30, 2, 0, 0, 0), (26, 2, 1, 0, 0), (26, 2, 0, 1, 0),
        (10, 2, 1, 1, 0),
        (9, 3, 0, 0, 0), (13, 3, 1, 0, 0), (13, 3, 0, 1, 0),
        (5, 3, 1, 1, 0),
        (-2, 4, 0, 0, 0), (2, 4, 1, 0, 0), (2, 4, 0, 1, 0),
        (-1, 5, 0, 0, 0),
    ),
    3: (
        (8, 0, 0, 0, 0), (2, 0, 1, 0, 0), (2, 0, 0, 1, 0),
        (36, 1, 0, 0, 0), (13, 1, 1, 0, 0), (13, 1, 0, 1, 0),
        (2, 1, 1, 1, 0),
        (46, 2, 0, 0, 0), (24, 2, 1, 0, 0), (24, 2, 0, 1, 0),
        (8, 2, 1, 1, 0),
        (19, 3, 0, 0, 0), (13, 3, 1, 0, 0), (13, 3, 0, 1, 0),
        (5, 3, 1, 1, 0),
        (2, 4, 1, 0, 0), (2, 4, 0, 1, 0),
        (-1, 5, 0, 0, 0),
    ),
    4: (
        (8, 0, 0, 0, 0),
        (44, 1, 0, 0, 0), (8, 1, 1, 0, 0), (8, 1, 0, 1, 0),
        (62, 2, 0, 0, 0), (22, 2, 1, 0, 0), (22, 2, 0, 1, 0),
        (6, 2, 1, 1, 0),
        (29, 3, 0, 0, 0), (13, 3, 1, 0, 0), (13, 3, 0, 1, 0),
        (5, 3, 1, 1, 0),
        (2, 4, 0, 0, 0), (2, 4, 1, 0, 0), (2, 4, 0, 1, 0),
        (-1, 5, 0, 0, 0),
    ),
    5: (
        (8, 0, 0, 0, 0), (-2, 0, 1, 0, 0), (-2, 0, 0, 1, 0),
        (52, 1, 0, 0, 0), (3, 1, 1, 0, 0), (3, 1, 0, 1, 0),
        (-2, 1, 1, 1, 0),
        (78, 2, 0, 0, 0), (20, 2, 1, 0, 0), (20, 2, 0, 1, 0),
        (4, 2, 1, 1, 0),
        (39, 3, 0, 0, 0), (13, 3, 1, 0, 0), (13, 3, 0, 1, 0),
        (5, 3, 1, 1, 0),
        (4, 4, 0, 0, 0), (2, 4, 1, 0, 0), (2, 4, 0, 1, 0),
        (-1, 5, 0, 0, 0),
    ),
}


def _from_table(rows) -> MPoly:
    terms = {}
    for coeff, lam, ap, bp, cp in rows:
        terms[(lam, ap, bp, cp, 0)] = coeff
    return MPoly(terms)


def appendix_p(k: int) -> MPoly:
    """Reference k-hat determinant polynomial p_k."""
    if k not in _P_TABLE:
        raise ValueError("p_k is tabulated for k in 1..5")
    return _from_table(_P_TABLE[k])


def appendix_q(k: int) -> MPoly:
    """Reference reduced quotient q_k with p_k = (-L-2)^{k-1} q_k (after
    c' = 0 for k = 1)."""
    if k not in _Q_TABLE:
        raise ValueError("q_k is tabulated for k in 1..5")
    return _from_table(_Q_TABLE[k])
