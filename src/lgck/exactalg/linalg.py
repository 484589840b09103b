"""Exact linear algebra over one matrix format: a list of sparse rows.

A matrix is a list of rows {column: nonzero entry}.  A row never stores a
zero, so matrices are equal exactly when their rows are equal dicts.
Entries support +, -, * and truth testing (zero iff falsy), and ``/``
wherever a matrix is eliminated: ``Fraction``, ``Cyclo``, and for products
``MultiPoly`` and ``DiffForm``; ``int`` is promoted to ``Fraction`` before
any division.  Dense input is converted once, at the edge, by ``sparse``.

A row does not record its matrix's width.  Products and equality need
none: an m x 0 matrix times a 0 x p one is m empty rows, the m x p zero
map.  The calls that enumerate columns take it: ``nullspace`` (one vector
per free column), ``solve`` (the column of the right-hand side),
``transpose`` (one row per column) and ``is_nonsingular`` (square).

``mat_mul`` is Gustavson's row-by-row product (ACM TOMS 4(3), 1978): row i
accumulates x * b[t] over the entries x = a[i][t] only, and drops the sums
that cancel.  ``_echelon``, the only elimination, reduces rows one at a
time against the pivot rows found so far, so rows that meet no pivot cost
no arithmetic.  ``rank`` counts its pivots, and ``rref`` back-substitutes
them into the reduced row echelon form, on which ``nullspace``, ``solve``
and ``inverse`` are built; that form is unique, so their results do not
depend on the order of elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def sparse(mat):
    """The sparse rows of a dense matrix (a list of lists)."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def identity(n: int, one=Fraction(1)):
    return [{i: one} for i in range(n)]


def transpose(rows, width: int):
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def mat_mul(a, b):
    """The product a . b, row by row; entries that cancel are dropped.  The
    right factor may also be a mapping from the columns of a to rows."""
    out = []
    for row_a in a:
        row = {}
        for t, x in row_a.items():
            try:
                right = b[t]
            except IndexError:
                raise ValueError(f"inner dimensions differ: {len(b)} rows on the right") from None
            for j, y in right.items():
                row[j] = row[j] + x * y if j in row else x * y
        out.append({j: x for j, x in row.items() if x} if row else row)
    return out


def _subtract(row, f, pivot):
    """row -= f * pivot in place, dropping the entries that cancel."""
    for c, y in pivot.items():
        x = row.get(c, 0) - f * y
        if x:
            row[c] = x
        else:
            del row[c]


def _echelon(rows) -> dict:
    """Forward elimination: {lead column: reduced row}.

    Each row is reduced against the pivot rows found so far until its
    leading (smallest) column is new, and then becomes the pivot row of
    that column; a row that reduces to nothing is dropped.  Pivot rows are
    kept in the order of the input rows they came from.
    """
    pivots = {}
    for row in rows:
        row = {c: Fraction(x) if isinstance(x, int) else x
               for c, x in row.items() if x}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            _subtract(row, row[col] / pivot[col], pivot)  # clears col
    return pivots


def integral(values) -> tuple[tuple[int, ...], int]:
    """A sequence of rationals as integer numerators over their least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def integer_echelon(rows) -> list:
    """An echelon basis of the lattice the integer rows span, by Euclid
    down each column: [(pivot column, pivot > 0, {later column: entry})],
    pivot columns increasing.  The rows are dense integer vectors."""
    rows, out = [list(r) for r in rows if any(r)], []
    for col in range(len(rows[0]) if rows else 0):
        while len(live := [r for r in rows if r[col]]) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r[:] = [a - q * b for a, b in zip(r, piv)]
        if live:
            piv, sign = live[0], 1 if live[0][col] > 0 else -1
            rows.remove(piv)
            out.append((col, sign * piv[col],
                        {c: sign * x for c, x in enumerate(piv) if c > col and x}))
    return out


def rank(rows) -> int:
    return len(_echelon(rows))


def rref(rows) -> dict:
    """Reduced row echelon form as {pivot column: row}.

    Each pivot row has a 1 at its pivot column and nothing at any other
    pivot column; zero rows are left out.
    """
    pivots = _echelon(rows)
    reduced = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        # clearing column c touches only c and non-pivot columns
        for c, f in [(c, x) for c, x in row.items() if c in reduced]:
            _subtract(row, f, reduced[c])
        recip = row[col] ** (-1)  # one inversion per pivot
        reduced[col] = {c: x * recip for c, x in row.items()}
    return dict(sorted(reduced.items()))


def nullspace(rows, width: int, one=Fraction(1)):
    """Basis of the right kernel, one sparse vector per non-pivot column."""
    reduced = rref(rows)
    basis = []
    for f in (f for f in range(width) if f not in reduced):
        v = {f: one}
        for c, row in reduced.items():
            if f in row:
                v[c] = -row[f]
        basis.append(v)
    return basis


def solve(rows, rhs: dict, width: int):
    """One solution {column: x} of rows . x = rhs (free variables 0), or None
    if inconsistent; ``rhs`` is sparse too, {row: entry}."""
    reduced = rref([{**row, width: rhs[i]} if i in rhs else row
                    for i, row in enumerate(rows)])
    if width in reduced:  # a row 0 = nonzero
        return None
    return {c: row[width] for c, row in reduced.items() if width in row}


def inverse(rows, one=Fraction(1)):
    """The inverse of a square matrix, or None if it is singular or has a
    column at or past its number of rows."""
    n = len(rows)
    if any(c >= n for row in rows for c in row):
        return None
    reduced = rref([{**row, n + i: one} for i, row in enumerate(rows)])
    if any(i not in reduced for i in range(n)):
        return None
    return [{c - n: x for c, x in reduced[i].items() if c >= n} for i in range(n)]


def is_nonsingular(rows, width: int) -> bool:
    return len(rows) == width == rank(rows)
