"""Exact linear algebra: one matrix product and one elimination.

Dense matrices are lists of rows; entries support +, -, * and truth
testing (zero iff falsy), and ``/`` too wherever a matrix is eliminated.
``Fraction``, ``Cyclo`` and (for products) ``MultiPoly`` all qualify;
``int`` entries are promoted to ``Fraction`` before any division.

``mat_mul`` is Gustavson's row-by-row sparse product (ACM TOMS 4(3),
1978): row i of the result accumulates x * b[t] over the nonzero entries
x = a[i][t] only, and skips the zero entries of b[t].

``_echelon`` is the only elimination.  It reduces sparse rows
({column: entry}) one at a time against the pivot rows found so far, so
rows that meet no pivot cost no arithmetic.  ``sparse_rank`` counts its
pivots, and ``rref`` back-substitutes and normalizes them into the reduced
row echelon form, on which ``nullspace``, ``solve`` and ``inverse`` are
built.  The reduced form of a matrix is unique, so those results do not
depend on the order of elimination.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int, one=Fraction(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product a . b; an all-zero row of a gives a row of y - y."""
    if any(len(row) != len(b) for row in a):
        raise ValueError(f"inner dimensions differ: {len(b)} rows on the right")
    if not a or not b or not b[0]:
        return [[] for _ in a]
    zero = b[0][0] - b[0][0]
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row_a in a:
        row = [zero] * len(b[0])
        for x, row_b in zip(row_a, sparse_b):
            if x:
                for j, y in row_b:
                    row[j] = row[j] + x * y
        out.append(row)
    return out


def _sparse(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def _subtract(row, f, pivot):
    """row -= f * pivot in place, dropping the entries that cancel."""
    for c, y in pivot.items():
        x = row.get(c, 0) - f * y
        if x:
            row[c] = x
        else:
            del row[c]


def _echelon(rows) -> dict:
    """Forward elimination of sparse rows: {lead column: reduced row}.

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


def integer_echelon(rows) -> list:
    """An echelon basis of the lattice the integer rows span, by Euclid
    down each column: [(pivot column, pivot > 0, {later column: entry})],
    pivot columns increasing."""
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


def sparse_rank(rows) -> int:
    """Rank of a matrix given as sparse rows ({column: entry})."""
    return len(_echelon(rows))


def rref(mat) -> dict:
    """Reduced row echelon form as {pivot column: row}, rows sparse.

    Each pivot row has a 1 at its pivot column and nothing at any other
    pivot column; zero rows are left out.
    """
    pivots = _echelon(_sparse(mat))
    reduced = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        # clearing column c touches only c and non-pivot columns
        for c, f in [(c, x) for c, x in row.items() if c in reduced]:
            _subtract(row, f, reduced[c])
        recip = row[col] ** (-1)  # one inversion per pivot
        reduced[col] = {c: x * recip for c, x in row.items()}
    return dict(sorted(reduced.items()))


def rank(mat) -> int:
    return sparse_rank(_sparse(mat))


def nullspace(mat, one=Fraction(1)):
    """Basis of the right kernel, one vector per non-pivot column."""
    if not mat:
        return []
    reduced, zero = rref(mat), one - one
    basis = []
    for f in (f for f in range(len(mat[0])) if f not in reduced):
        v = [zero] * len(mat[0])
        v[f] = one
        for c, row in reduced.items():
            if f in row:
                v[c] = -row[f]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of mat*x = rhs (free variables 0), or None if inconsistent."""
    if not mat:
        return [] if not any(rhs) else None
    ncols = len(mat[0])
    reduced = rref([list(r) + [b] for r, b in zip(mat, rhs)])
    if ncols in reduced:  # a row 0 = nonzero
        return None
    sample = rhs[0] if rhs else mat[0][0]
    zero = sample - sample
    x = [zero] * ncols
    for c, row in reduced.items():
        x[c] = row.get(ncols, zero)
    return x


def inverse(mat, one=Fraction(1)):
    """The inverse of a square matrix, or None if it is singular or not square."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    reduced = rref([list(row) + e for row, e in zip(mat, identity(n, one))])
    if any(i not in reduced for i in range(n)):
        return None
    zero = one - one
    return [[reduced[i].get(n + j, zero) for j in range(n)] for i in range(n)]


def is_nonsingular(mat) -> bool:
    return not mat or len(mat) == len(mat[0]) == rank(mat)
