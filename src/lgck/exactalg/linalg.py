"""Exact linear algebra over any field-like element type.

Matrices are lists of lists whose entries support +, -, *, / and truth
testing (zero iff falsy).  Works for ``Fraction`` and ``Cyclo`` alike.
``sparse_rank`` takes sparse rows ({column: entry}) instead.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def _rref(rows):
    """Row-reduce in place; returns pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        recip = rows[r][c] ** (-1)  # one inversion per pivot
        rows[r] = [x * recip if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rref(mat):
    rows = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in mat]
    pivots = _rref(rows)
    return rows, pivots


def rank(mat) -> int:
    if not mat or not mat[0]:
        return 0
    _, pivots = rref(mat)
    return len(pivots)


def nullspace(mat, one=Fraction(1)):
    """Basis of the right kernel."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref(mat)
    zero = one - one
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of mat*x = rhs, or None if inconsistent."""
    if not mat:
        return [] if not any(rhs) else None
    ncols = len(mat[0])
    aug = [list(r) + [b] for r, b in zip(mat, rhs)]
    rows, pivots = rref(aug)
    for row in rows:
        if not any(row[:-1]) and row[-1]:
            return None
    sample = rhs[0] if rhs else mat[0][0]
    zero = sample - sample
    x = [zero] * ncols
    for r, c in enumerate(pivots):
        if c < ncols:
            x[c] = rows[r][-1]
        elif rows[r][-1]:
            return None
    return x


def inverse(mat, one=Fraction(1)):
    n = len(mat)
    zero = one - one
    rows = [list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(mat)]
    pivots = _rref(rows)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def det(mat):
    n = len(mat)
    if n == 0:
        return Fraction(1)
    rows = [list(r) for r in mat]
    sample = rows[0][0]
    zero = sample - sample
    result = None
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            return zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        p = rows[c][c]
        result = p if result is None else result * p
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result * sign if sign == 1 else -result


def sparse_rank(rows) -> int:
    """Rank of a matrix given as sparse rows ({column: entry}).

    Exact elimination that only touches nonzero entries: each row is
    reduced against the pivot rows found so far until its leading column
    is new, and then becomes the pivot row of that column.  Rows that
    meet no pivot cost no arithmetic at all.
    """
    pivots = {}  # leading column -> pivot row
    for row in rows:
        row = {c: Fraction(x) if isinstance(x, int) else x
               for c, x in row.items() if x}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            f = row[col] / pivot[col]
            for c, y in pivot.items():
                x = row.get(c, 0) - f * y  # exactly 0 at col
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def is_nonsingular(mat) -> bool:
    if not mat:
        return True
    return len(mat) == len(mat[0]) and sparse_rank(
        {j: x for j, x in enumerate(r) if x} for r in mat) == len(mat)
