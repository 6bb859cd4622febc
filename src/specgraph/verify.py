"""Re-derivation checks: every computational claim gets recomputed from
scratch and compared against the transcribed references in
specgraph.forms.

Each verifier returns a VerificationResult whose details serialize to the
versioned JSON report schema ({"schema": 1, "lemma", "status", "cases",
"witnesses", ...}).  Failures always carry a concrete witness.  Every
verifier takes only its bound, its family or k, and looks each reference
up in forms when it runs, so a fault injected into any transcription by
patching forms is detected with a localized witness.

Every verdict is exact: root counts on an integer charpoly
(exactpoly.root_counts) place every eigenvalue against a bound, a closed
cycle value or a 4-decimal reference, the last read as its decimal text
with PAPER_TOL of slack.  Floats from eigenvalues_sym are only reported,
in case-table rows and in witnesses.

verify_case builds a forbidden-subgraph case table and judges it in one
pass; each row's verdict is "contradiction-confirmed", "exception" or
"infeasible-excluded" (see verify_case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, product, zip_longest
from math import ceil, floor

from . import forms
from .exactpoly import IntPoly, charpoly_exact, charpoly_rows, root_counts
from .graphs import MAX_VERTICES, distance_matrix, named_graph
from .spectra import PAPER_TOL, eigenvalues_sym

# T(a,b)'s interval table (forms): the lower bounds it inherits from
# T(1,1), and the upper bounds every principal submatrix of its distance
# matrix must satisfy besides an exact -2 run at positions 5..m-1
_T11_LOWS = ((1, forms.LAMBDA1_LOW), (2, forms.LAMBDA2_LOW),
             (3, forms.LAMBDA3_LOW), (4, forms.LAMBDA4_LOW))
_UPPER_BOUNDS = ((2, forms.LAMBDA2_HIGH), (3, forms.LAMBDA3_HIGH),
                 (4, forms.LAMBDA4_HIGH))


@dataclass
class VerificationResult:
    lemma: str
    status: str
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {"schema": 1, "lemma": self.lemma, "status": self.status}
        out.update(self.details)
        out.setdefault("witnesses", [])
        return out


def _result(lemma: str, witnesses: list, details: dict | None = None
            ) -> VerificationResult:
    d = dict(details or {})
    d["witnesses"] = witnesses
    return VerificationResult(lemma, "fail" if witnesses else "pass", d)


def _decimal(t) -> Fraction:
    """t read exactly as its decimal text (a paper value like -1.7304);
    ints and Fractions are kept as they are."""
    return Fraction(str(t))


_TOL = _decimal(PAPER_TOL)
_WINDOW = Fraction(1, 10 ** 9)  # half-width around closed cycle values
_GRID = 2 ** 40  # window ends round outward to multiples of 1/_GRID


def _versus(p: IntPoly, k: int, t) -> int:
    """Exact sign of lambda_k - t, where lambda_k is the k-th largest root
    of p, every root of p is real (p the charpoly of a symmetric matrix,
    say) and t is read as its decimal text."""
    above, at = root_counts(p, _decimal(t))
    return 1 if above >= k else 0 if above + at >= k else -1


def _near(p: IntPoly, k: int, ref) -> bool:
    """lambda_k of p within PAPER_TOL of the 4-decimal reference ref."""
    t = _decimal(ref)
    return _versus(p, k, t - _TOL) >= 0 >= _versus(p, k, t + _TOL)


# ---------------------------------------------------------------------------
# closed charpoly identity

def verify_lemma22(max_ab: int = 8) -> VerificationResult:
    """(-L-2)^(a+b-2) * p_ab expands to the exact BFS charpoly for every
    1 <= a,b <= max_ab (integer-exact), one charpoly_rows stack per order
    a+b+3."""
    if max_ab < 1:
        raise ValueError("max_ab must be >= 1")
    if 2 * max_ab + 3 > MAX_VERTICES:
        raise ValueError(f"max_ab must be <= {(MAX_VERTICES - 3) // 2}: "
                         f"T(a,b) has a+b+3 vertices, and graphs hold at "
                         f"most {MAX_VERTICES}")
    pairs = sorted(product(range(1, max_ab + 1), repeat=2), key=sum)
    charpolys = {}
    for _, group in groupby(pairs, key=sum):
        group = list(group)
        rows = charpoly_rows([distance_matrix(named_graph("T", a, b))
                              for a, b in group])
        charpolys.update(zip(group, map(IntPoly, rows)))
    witnesses = []
    for (a, b), derived in sorted(charpolys.items()):
        expanded = forms.tab_charpoly_expanded(a, b)
        if expanded != derived:
            diff = [
                {"power": i, "closed": x, "derived": y}
                for i, (x, y) in enumerate(zip_longest(
                    expanded.coeffs, derived.coeffs, fillvalue=0))
                if x != y
            ]
            witnesses.append({"a": a, "b": b, "coefficient_diff": diff[:5]})
    return _result("lemma22", witnesses, {"pairs_checked": max_ab * max_ab})


# ---------------------------------------------------------------------------
# interlacing bounds

def _principal(big, small, at) -> bool:
    """small is big's principal submatrix on the rows and columns at.  An
    index list whose length is not small's order is refused, so no entry
    of small goes uncompared."""
    return (len(at) == len(small)
            and all(len(row) == len(at) for row in small)
            and all(big[i][j] == x for i, row in zip(at, small)
                    for j, x in zip(at, row)))


def verify_interlacing_bounds(max_ab: int = 8) -> VerificationResult:
    """The five bounds inherited from T(1,1) below and the three from
    T(c,c), c = max(a,b), above, for all 1 <= a,b <= max_ab.  Cauchy:
    lambda_k(A) >= lambda_k(B) >= lambda_{k+n-m}(A) for B an m x m
    principal submatrix of a symmetric n x n A.  Subtrees keep distances:
    D(T(1,1)) is D(T(a,b)) on (0, 1, 2, 3, 3+a), and D(T(a,b)) is D(T(c,c))
    on i -> i (i < 3+a), 3+a+j -> 3+c+j, both checked by integer equality."""
    if max_ab < 1:
        raise ValueError("max_ab must be >= 1")
    tcc = {c: distance_matrix(named_graph("T", c, c))
           for c in range(1, max_ab + 1)}
    polys = {c: charpoly_exact(d) for c, d in tcc.items()}
    # T(1,1)'s eigenvalues round to the bounds: PAPER_TOL of slack
    p11 = polys[1]
    lows = [(f"lambda{k} >= {t:g}", _versus(p11, k, _decimal(t) - _TOL) >= 0)
            for k, t in _T11_LOWS]
    lows.append((f"lambda_n <= {forms.LAMBDA_N_HIGH:g}",
                 _versus(p11, 5, _decimal(forms.LAMBDA_N_HIGH) + _TOL) <= 0))
    highs = {c: [(f"lambda{k} <= lambda{k}(Tcc) < {high:g}",
                  _versus(p, k, high) < 0) for k, high in _UPPER_BOUNDS]
             for c, p in polys.items()}
    witnesses = []
    for a in range(1, max_ab + 1):
        for b in range(1, max_ab + 1):
            c = max(a, b)
            d = distance_matrix(named_graph("T", a, b))
            below = _principal(d, tcc[1], (0, 1, 2, 3, 3 + a))
            above = _principal(tcc[c], d,
                               (*range(3 + a), *range(3 + c, 3 + c + b)))
            failed = [name for name, ok in lows if not (ok and below)]
            failed += [name for name, ok in highs[c] if not (ok and above)]
            witnesses += [{"a": a, "b": b, "bound": name} for name in failed]
    return _result("interlacing", witnesses, {"pairs_checked": max_ab * max_ab})


# ---------------------------------------------------------------------------
# cycle spectra

def _window(v) -> tuple[Fraction, Fraction]:
    """[v - 1e-9, v + 1e-9] for v read exactly, each end rounded outward to
    a multiple of 2^-40: a Taylor shift by such a short dyadic costs less
    than one by a denominator of 2^k * 10^9."""
    v = Fraction(v)
    return (Fraction(floor((v - _WINDOW) * _GRID), _GRID),
            Fraction(ceil((v + _WINDOW) * _GRID), _GRID))


def verify_cycle_lemmas(max_n: int = 12) -> VerificationResult:
    """Closed cycle spectra (each closed value v, read exactly, holds its
    multiplicity of charpoly roots in its _window, and the windows are
    disjoint), the small-cycle and capped-matrix eigenvalue facts, and the
    exact -2 multiplicity cap for n >= 8."""
    if max_n < 8:
        raise ValueError("max_n must be >= 8")
    witnesses = []
    dm = {n: distance_matrix(named_graph("C", n)) for n in range(3, max_n + 1)}
    polys = {n: charpoly_exact(d) for n, d in dm.items()}
    for n, p in polys.items():
        closed = forms.cycle_spectrum_closed(n)
        runs = [(*_window(v), len([*g])) for v, g in groupby(closed.values)]
        if closed.n != n or any(
                lo <= hi for (lo, _, _), (_, hi, _) in zip(runs, runs[1:])
        ) or any(_roots_in(p, lo, hi, closed=True) != k
                 for lo, hi, k in runs):
            witnesses.append({"n": n, "closed": list(closed.values),
                              "numeric": list(eigenvalues_sym(dm[n]).values)})

    if _versus(polys[4], 2, 0) != 0:
        witnesses.append({"fact": "lambda2(C4)=0",
                          "got": eigenvalues_sym(dm[4]).nth(2)})
    if not _near(polys[5], 3, forms.C5_LAMBDA3):
        witnesses.append({"fact": f"lambda3(C5)={forms.C5_LAMBDA3:.4f}",
                          "got": eigenvalues_sym(dm[5]).nth(3)})
    for n in (6, 7):
        if _versus(polys[n], 5, -2) == 0:
            witnesses.append({"fact": f"lambda5(C{n}) != -2",
                              "got": eigenvalues_sym(dm[n]).nth(5)})

    for n in range(8, max_n + 1):
        mult = root_counts(polys[n], -2)[1]
        if mult > 2:
            witnesses.append({"fact": f"mult(-2) of C{n} <= 2", "got": mult})

    capped = {n: forms.capped_cycle_matrix(n) for n in (6, 7)}
    if _versus(charpoly_exact(capped[6]), 5, -3) != 0:
        witnesses.append({"fact": "capped C6 lambda5 = -3",
                          "got": eigenvalues_sym(capped[6]).nth(5)})
    if not _near(charpoly_exact(capped[7]), 5, forms.CAPPED_C7_LAMBDA5):
        witnesses.append({"fact": "capped C7 lambda5 = "
                                  f"{forms.CAPPED_C7_LAMBDA5:.4f}",
                          "got": eigenvalues_sym(capped[7]).nth(5)})
    return _result("cycles", witnesses,
                   {"max_n": max_n,
                    "minus2_requirement_if_submatrix": {
                        str(n): n - 5 for n in range(8, max_n + 1)}})


# ---------------------------------------------------------------------------
# forbidden-subgraph case tables

def verify_case(family: str) -> VerificationResult:
    """Enumerate every parameter assignment of a family's matrix template,
    classify each row, and hold the exceptional assignments to
    forms.EXPECTED_EXCEPTIONS, plus per-family pinned eigenvalue facts.

    Verdicts: "contradiction-confirmed" when the spectral test rules the
    row out, "exception" when it does not and the row is metric-feasible,
    "infeasible-excluded" when only the triangle inequality rules it out.
    The spectral test is exact (_versus on the row's charpoly); only the
    reported eigenvalue fields are floats.
    """
    template = forms.forbidden_template(family)
    m = template.n
    assignments = list(template.assignments())
    matrices = [template.instantiate(a) for a in assignments]
    polys = [IntPoly(row) for row in charpoly_rows(matrices)]
    rows = []
    exceptions = []
    for assignment, matrix, p in zip(assignments, matrices, polys):
        feasible = forms.metric_feasible(matrix)
        s = eigenvalues_sym(matrix)
        if m >= 10:
            # -2 run required at positions 5..m-1; inspect lambda_{m-1}
            # first, then lambda2 once the run is intact
            run = _versus(p, 5, -2) == 0 == _versus(p, m - 1, -2)
            refuted = not run or _versus(p, 2, forms.LAMBDA2_HIGH) >= 0
            index = 2 if run and refuted else m - 1
        elif m >= 6:
            # lambda5 must equal -2 exactly
            refuted, index = _versus(p, 5, -2) != 0, 5
        else:
            # 4- and 5-vertex families: the three submatrix bounds; the
            # violated index is lambda4 in every refuted case
            refuted = any(_versus(p, k, high) >= 0
                          for k, high in _UPPER_BOUNDS)
            index = 4
        verdict = ("contradiction-confirmed" if refuted
                   else "exception" if feasible else "infeasible-excluded")
        row = {
            "assignment": assignment,
            "eigenvalue": {"index": index, "value": s.nth(index)},
            "verdict": verdict,
            "feasible": feasible,
        }
        if verdict == "exception":
            row["lambda4"] = s.nth(4)
            if m >= 5:
                row["lambda5"] = s.nth(5)
            exceptions.append(assignment)
        rows.append(row)

    witnesses = []
    expected = [dict(e) for e in forms.EXPECTED_EXCEPTIONS[family]]
    if exceptions != expected:
        witnesses.append({"check": "exceptional tuples",
                          "expected": expected,
                          "got": exceptions})

    if family == "H3":
        exc = [(r, p) for r, p in zip(rows, polys)
               if r["verdict"] == "exception"]
        if not any(_versus(p, 4, -1) == 0 for _, p in exc):
            witnesses.append({"check": "lambda4 = -1 at the H3 exception",
                              "rows": [r for r, _ in exc]})
    if family == "K4":
        if _versus(polys[0], 4, -1) != 0:
            witnesses.append({"check": "lambda4(K4) = -1",
                              "got": rows[0]["eigenvalue"]["value"]})
    if family == "F4":
        by_a = {r["assignment"]["a"]: r for r in rows}
        poly_a = dict(zip(by_a, polys))
        if _versus(poly_a[2], 9, -2) == 0:
            witnesses.append({"check": "a=2 fails the -2 run",
                              "row": by_a[2]})
        if by_a[2]["eigenvalue"]["index"] != 9:
            witnesses.append({"check": "a=2 inspected at lambda9",
                              "row": by_a[2]})
        if _versus(poly_a[3], 2, 0) != 0:
            witnesses.append({"check": "a=3 gives lambda2 = 0",
                              "row": by_a[3]})
        if by_a[3]["eigenvalue"]["index"] != 2:
            witnesses.append({"check": "a=3 inspected at lambda2",
                              "row": by_a[3]})

    details = {"family": family, "enumerated": len(assignments),
               "feasible": sum(r["feasible"] for r in rows),
               "cases": rows, "exceptions": exceptions}
    if family in forms.CASE_NOTES:
        details["note"] = forms.CASE_NOTES[family]
    return _result(f"case:{family}", witnesses, details)


# ---------------------------------------------------------------------------
# hat determinants

def _by_monomial(table: dict) -> dict:
    """{(a', b', c') exponents: the polynomial in L multiplying them} of a
    {(L, a', b', c') exponents: coefficient} table."""
    rows: dict[tuple, dict] = {}
    for (power, *mono), coeff in table.items():
        rows.setdefault(tuple(mono), {})[power] = coeff
    return {mono: IntPoly([row.get(i, 0) for i in range(max(row) + 1)])
            for mono, row in rows.items()}


def _hat_terms(k: int) -> dict:
    """det(Q - L*I) for Q = forms.hat_matrix(k, *sizes), as {(L, a', b',
    c') exponents: coefficient}, from its values at the sizes in {0, 1}."""
    m = 3 if k == 1 else 2
    corners = list(product((0, 1), repeat=m))
    values = [IntPoly(row) for row in charpoly_rows(
        [forms.hat_matrix(k, *sizes) for sizes in corners])]
    terms = {}
    for S in corners:
        e_S = IntPoly()
        for T, value in zip(corners, values):
            if all(t <= s for t, s in zip(T, S)):
                e_S = e_S + (-1) ** (sum(S) - sum(T)) * value
        for power, coeff in enumerate(e_S.coeffs):
            if coeff:
                terms[(power, *S, *(0,) * (3 - m))] = coeff
    return terms


def verify_hats(k: int) -> VerificationResult:
    """The k-hat determinant p_k = det(Q - L*I), Q the class quotient
    forms.hat_matrix, against the reference p_k term by term; then
    p_k (at c' = 0 for k = 1) = (-L-2)^{max(1, k-1)} q_k, the k=1
    evaluation p1(-2) = 28a'b'c', and the constant-term reduction to
    a'+b' = -4, each compared one monomial in a', b', c' at a time.

    One charpoly_rows call gives p_k exactly.  A pendant class size s_j
    scales column j of Q - L*I alone (that column is s_j times D_k's
    column j, less 2 + L in row j), and a determinant is linear in each
    column, so p_k is affine in each of a', b', c': a sum over the sets S
    of pendant classes of prod_{j in S} s_j times a polynomial e_S in L.
    Its values at the 2^m corners, every size 0 or 1, fix each e_S by
    Moebius inversion, e_S = sum over T within S of (-1)^{|S|-|T|} times
    the value with the sizes in T at 1 and the rest at 0: no degree guess
    and no float.
    """
    if not 1 <= k <= 5:
        raise ValueError("k in 1..5")
    witnesses = []

    derived = _hat_terms(k)
    pk = forms.appendix_p(k)
    diff = {exp: [derived.get(exp, 0), pk.get(exp, 0)]
            for exp in derived.keys() | pk.keys()
            if derived.get(exp, 0) != pk.get(exp, 0)}
    if diff:
        # exponents of (L, a', b', c', c), the fifth always 0 here
        witnesses.append({"check": f"det(hat matrix {k}) == p{k}",
                          "term_diffs": {str((*exp, 0)): v for exp, v
                                         in sorted(diff.items())[:5]}})

    p_polys, q_polys = _by_monomial(pk), _by_monomial(forms.appendix_q(k))
    if k == 1:
        at_minus2 = {mono: p(-2) for mono, p in sorted(p_polys.items())
                     if p(-2)}
        if at_minus2 != {(1, 1, 1): 28}:
            witnesses.append({"check": "p1(-2) = 28*a'*b'*c'",
                              "got": {str(mono): v
                                      for mono, v in at_minus2.items()}})
    exponent = max(1, k - 1)
    want = {mono: p for mono, p in p_polys.items() if not mono[2]}
    got = {mono: forms.minus_two_run(exponent, q)
           for mono, q in q_polys.items()}
    zero = IntPoly()
    bad = sorted(mono for mono in want.keys() | got.keys()
                 if want.get(mono, zero) != got.get(mono, zero))
    if bad:
        witnesses.append({
            "check": f"p{k} == (-L-2)^{exponent} * q{k}"
                     + (" at c' = 0" if k == 1 else ""),
            "monomials": {str(mono): [list(want.get(mono, zero).coeffs),
                                      list(got.get(mono, zero).coeffs)]
                          for mono in bad[:5]}})

    # vertex-count identity a+b = a'+b'+k-1, then
    # const(q_k) = const(p_ab) = 16 + 8(a+b) must force a'+b' = -4
    const_q = {mono: q(0) for mono, q in q_polys.items()}
    target = {(0, 0, 0): 16 + 8 * (k - 1), (1, 0, 0): 8, (0, 1, 0): 8}
    equation = {mono: c for mono in sorted(const_q.keys() | target.keys())
                if (c := const_q.get(mono, 0) - target.get(mono, 0))}
    alpha = equation.get((1, 0, 0), 0)
    if not alpha or equation != {(0, 0, 0): 4 * alpha, (1, 0, 0): alpha,
                                 (0, 1, 0): alpha}:
        witnesses.append({"check": "constant terms force a'+b' = -4",
                          "equation": {str(mono): coeff
                                       for mono, coeff in equation.items()}})
    return _result(f"hats:{k}", witnesses,
                   {"p_terms": len(pk),
                    "p1_at_minus2": "28*a'*b'*c'" if k == 1 else None})


# ---------------------------------------------------------------------------
# sum/product determination

def verify_theorem31(max_ab: int = 8) -> VerificationResult:
    """(a+b, a*b) is injective on unordered pairs, and the full expanded
    charpolys are pairwise distinct as exact coefficient vectors."""
    if max_ab < 1:
        raise ValueError("max_ab must be >= 1")
    witnesses = []
    pairs = [(a, b) for a in range(1, max_ab + 1)
             for b in range(a, max_ab + 1)]
    seen_sig: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in pairs:
        sig = (a + b, a * b)
        if sig in seen_sig:
            witnesses.append({"check": "(sum, product) injective",
                              "pairs": [seen_sig[sig], (a, b)]})
        seen_sig[sig] = (a, b)
    seen_poly: dict[tuple[int, ...], tuple[int, int]] = {}
    for a, b in pairs:
        coeffs = forms.tab_charpoly_expanded(a, b).coeffs
        if coeffs in seen_poly:
            witnesses.append({"check": "expanded charpolys distinct",
                              "pairs": [seen_poly[coeffs], (a, b)]})
        seen_poly[coeffs] = (a, b)
    return _result("theorem31", witnesses, {"unordered_pairs": len(pairs)})


# ---------------------------------------------------------------------------
# f/g root intervals and the T(c,c) factorization

def _roots_in(p: IntPoly, lo=None, hi=None, closed=False) -> int:
    """Roots of p, with multiplicity, in [lo, hi), or in [lo, hi] when
    closed; a missing end is unbounded.  One root_counts call per given
    end.  Exact when every root of p is real.  With lo given and neither
    end a root, a count of 1 certifies exactly one root there even if p
    has complex roots (Budan-Fourier: from lo to hi, the sign changes
    root_counts reads drop by the roots in between plus an even number)."""
    count = p.degree
    if lo is not None:
        count = sum(root_counts(p, lo))
    if hi is not None:
        above, at = root_counts(p, hi)
        count -= above if closed else above + at
    return count


def _interval(lo, hi=None):
    """(text, lo, hi) for the printed interval [lo, hi), hi None for
    [lo, inf)."""
    text = f"[{lo:g}, {'inf' if hi is None else format(hi, 'g')})"
    return text, _decimal(lo), None if hi is None else _decimal(hi)


# the printed intervals holding f_c's three roots; for c = 1 the printed
# -1.7304 truncates the root itself (about -1.7304158), so there the first
# interval starts at -1.7305
_F_INTERVALS = (_interval(forms.LAMBDA4_LOW, forms.LAMBDA4_HIGH),
                _interval(forms.LAMBDA2_LOW, forms.LAMBDA3_HIGH),
                _interval(forms.LAMBDA1_LOW))
_F1_INTERVALS = (_interval(-1.7305, forms.LAMBDA4_HIGH), *_F_INTERVALS[1:])


def verify_fg_roots(max_c: int = 100) -> VerificationResult:
    """Exactly one f-root in each printed interval, the c=1 roots within
    PAPER_TOL of the printed values, g's lower root at most -5.2361 and its
    upper root in [-0.7639, 0) (both at PAPER_TOL), all by exact root
    counts; and the T(c,c) factorization identity for c = 1..6."""
    if max_c < 1:
        raise ValueError("max_c must be >= 1")
    witnesses = []
    g_low_top = _decimal(forms.LAMBDA_N_HIGH) + _TOL
    g_high_low = _decimal(forms.LAMBDA3_LOW) - _TOL
    g_high_top = _decimal(forms.LAMBDA2_HIGH)

    f1 = forms.f_poly(1)
    for k, ref in ((3, forms.LAMBDA4_LOW), (2, forms.LAMBDA2_LOW),
                   (1, forms.LAMBDA1_LOW)):
        if not _near(f1, k, ref):
            witnesses.append({"check": "c=1 root proximity", "k": k,
                              "reference": ref})
    for c in range(1, max_c + 1):
        f = forms.f_poly(c)
        for text, lo, hi in _F1_INTERVALS if c == 1 else _F_INTERVALS:
            count = _roots_in(f, lo, hi)
            if count != 1:
                witnesses.append({"check": f"one f root in {text}", "c": c,
                                  "roots": count})

        # g's two roots are real (discriminant 4c^2 + 16c > 0)
        g = forms.g_poly(c)
        if _roots_in(g, hi=g_low_top, closed=True) < 1:
            witnesses.append({"check": "g lower root <= "
                                       f"{forms.LAMBDA_N_HIGH:g}", "c": c})
        if _roots_in(g, g_high_low) < 1 or _roots_in(g, g_high_top) > 0:
            witnesses.append({"check": "g upper root in "
                                       f"[{forms.LAMBDA3_LOW:g}, "
                                       f"{forms.LAMBDA2_HIGH:g})", "c": c})

    # factorization: (-L-2)^(2c-2) * g * f == charpoly(D(T(c,c))), and the
    # symbolic quintic identity g*f == p_{c,c}, over Z[c]
    fg = forms.g_poly(forms.C) * forms.f_poly(forms.C)
    if fg != forms.p_ab(forms.C, forms.C):
        # one list of c-coefficients per power of L
        witnesses.append({"check": "g*f == p_cc symbolically",
                          "got": [list((IntPoly() + x).coeffs)
                                  for x in fg.coeffs]})
    for c in range(1, 7):
        closed = forms.minus_two_run(2 * c - 2,
                                     forms.g_poly(c) * forms.f_poly(c))
        derived = charpoly_exact(distance_matrix(named_graph("T", c, c)))
        if closed != derived:
            witnesses.append({"check": "T(c,c) factorization", "c": c})
    return _result("fg-roots", witnesses, {"max_c": max_c})


# ---------------------------------------------------------------------------
# aggregate

# every verifier in report order, called with (max_ab, max_n, max_c)
_VERIFIERS = {
    "lemma22": lambda ab, n, c: verify_lemma22(ab),
    "interlacing": lambda ab, n, c: verify_interlacing_bounds(ab),
    "cycles": lambda ab, n, c: verify_cycle_lemmas(n),
    **{f"case:{f}": lambda ab, n, c, f=f: verify_case(f)
       for f in forms.CASE_FAMILIES},
    **{f"hats:{k}": lambda ab, n, c, k=k: verify_hats(k)
       for k in range(1, 6)},
    "theorem31": lambda ab, n, c: verify_theorem31(ab),
    "fg-roots": lambda ab, n, c: verify_fg_roots(c),
}
VERIFIER_IDS = tuple(_VERIFIERS)


def run_verifier(lemma_id: str, max_ab: int = 8, max_n: int = 12,
                 max_c: int = 100) -> VerificationResult:
    if lemma_id not in _VERIFIERS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    return _VERIFIERS[lemma_id](max_ab, max_n, max_c)
