"""Exact rational cone membership via phase-1 simplex.

Decides whether a target vector lies in the nonnegative rational cone of
a list of generators.  Returns nonnegative coefficients on success and a
separating functional y on failure, with y . v_i <= 0 for every generator
and y . target > 0 (Farkas certificate).  Bland's rule guarantees
termination; all arithmetic is in ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ConeResult:
    inside: bool
    coefficients: tuple[Fraction, ...] | None  # on success, one per generator
    certificate: tuple[Fraction, ...] | None   # on failure, separating functional


def exact_lp_cone_membership(vectors, target) -> ConeResult:
    vectors = [[Fraction(x) for x in v] for v in vectors]
    target = [Fraction(x) for x in target]
    k = len(target)
    n = len(vectors)
    for v in vectors:
        if len(v) != k:
            raise ValueError("generator dimension mismatch")

    if all(t == 0 for t in target):
        return ConeResult(True, tuple(Fraction(0) for _ in range(n)), None)
    if n == 0:
        return ConeResult(False, None, tuple(target))

    # sign-normalize rows so the right-hand side is nonnegative
    flips = [Fraction(-1) if target[j] < 0 else Fraction(1) for j in range(k)]
    rhs = [t * f for t, f in zip(target, flips)]
    cols = [[vectors[i][j] * flips[j] for j in range(k)] for i in range(n)]

    # tableau over columns: n structural + k artificial + 1 rhs
    width = n + k + 1
    tab = [[Fraction(0)] * width for _ in range(k)]
    for j in range(k):
        for i in range(n):
            tab[j][i] = cols[i][j]
        tab[j][n + j] = Fraction(1)
        tab[j][width - 1] = rhs[j]
    basis = [n + j for j in range(k)]

    def objective_row():
        # reduced costs for minimizing the sum of artificials
        z = [Fraction(0)] * width
        for j in range(k):
            if basis[j] >= n:  # artificial basic variable has cost 1
                for c in range(width):
                    z[c] += tab[j][c]
        red = [(Fraction(1) if c >= n else Fraction(0)) - z[c] for c in range(width - 1)]
        return red, z[width - 1]

    while True:
        red, value = objective_row()
        enter = None
        for c in range(n + k):
            if red[c] < 0:
                enter = c  # Bland: smallest index
                break
        if enter is None:
            break
        leave, best = None, None
        for j in range(k):
            if tab[j][enter] > 0:
                ratio = tab[j][width - 1] / tab[j][enter]
                if best is None or ratio < best or (ratio == best and basis[j] < basis[leave]):
                    leave, best = j, ratio
        if leave is None:
            break  # unbounded cannot happen in phase 1; defensive
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for j in range(k):
            if j != leave and tab[j][enter]:
                f = tab[j][enter]
                tab[j] = [x - f * y for x, y in zip(tab[j], tab[leave])]
        basis[leave] = enter

    _, value = objective_row()
    if value == 0:
        coeffs = [Fraction(0)] * n
        for j in range(k):
            if basis[j] < n:
                coeffs[basis[j]] = tab[j][width - 1]
        return ConeResult(True, tuple(coeffs), None)

    # dual vector y = c_B B^{-1}, read from the artificial columns
    y = [Fraction(0)] * k
    for j in range(k):
        cb = Fraction(1) if basis[j] >= n else Fraction(0)
        if cb:
            for t in range(k):
                y[t] += tab[j][n + t]
    cert = tuple(y[t] * flips[t] for t in range(k))
    return ConeResult(False, None, cert)
