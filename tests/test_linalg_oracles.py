"""Independent oracles for the exact linear-algebra kernel.

The elimination routines are checked against ``sympy.Matrix`` on random
rational matrices (rank-deficient, empty and non-square ones included),
and ``mat_mul`` against a naive triple loop over every entry type the
library multiplies: ``Fraction``, ``Cyclo`` and ``MultiPoly``.  Over
``Cyclo`` the elimination is checked through products alone: every
nullspace vector is sent to 0, there are ncols - rank of them, an
inverse is a two-sided one, and a matrix with none has a kernel vector.
``integer_echelon`` is checked against the ``sympy`` determinant and rank.
The library works on sparse rows; the tests draw dense matrices, convert
them with ``sparse`` and compare through the dense view ``dense``.
"""

from fractions import Fraction

import pytest

from lgck.exactalg import Cyclo, MultiPoly
from lgck.exactalg.linalg import (
    identity,
    integer_echelon,
    inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve,
    sparse,
    transpose,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

sympy = pytest.importorskip("sympy")

fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def matrices(draw, entries=fractions, rows=None, cols=None):
    """Random matrices, some with rows that are combinations of earlier
    rows (so rank-deficient), including empty and all-zero ones."""
    n = draw(st.integers(0, 5)) if rows is None else rows
    m = draw(st.integers(0, 5)) if cols is None else cols
    mat = [[draw(entries) for _ in range(m)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n and rows is None else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(fractions)
        mat.append([x + c * y for x, y in zip(mat[i], mat[j])])
    return mat


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    mat = draw(matrices(rows=n, cols=n))
    if n > 1 and draw(st.booleans()):  # force a dependent row
        mat[-1] = [x + y for x, y in zip(mat[0], mat[1])]
    return mat


def sym(mat):
    return sympy.Matrix(len(mat), len(mat[0]),
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in mat for x in row])


def frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def dense(vec: dict, width: int, zero=Fraction(0)) -> list:
    return [vec.get(j, zero) for j in range(width)]


def width_of(mat) -> int:
    return len(mat[0]) if mat else 0


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_and_rank_match_sympy(mat):
    reduced = rref(sparse(mat))
    if not mat or not mat[0]:
        assert reduced == {} and rank(sparse(mat)) == 0
        return
    ref, pivots = sym(mat).rref()
    assert tuple(reduced) == pivots
    assert rank(sparse(mat)) == sym(mat).rank() == len(pivots)
    for k, col in enumerate(pivots):
        dense = [reduced[col].get(j, Fraction(0)) for j in range(len(mat[0]))]
        assert dense == [frac(x) for x in ref.row(k)]


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(mat):
    if not mat:
        assert nullspace([], 0) == []
        return
    width = width_of(mat)
    basis = nullspace(sparse(mat), width)
    ours = [dense(v, width) for v in basis]
    theirs = [[frac(x) for x in v] for v in sym(mat).nullspace()]
    assert ours == theirs
    if ours:
        assert not any(mat_mul(sparse(mat), transpose(basis, width)))


@settings(max_examples=120, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_sympy(mat, data):
    rhs = data.draw(st.lists(fractions, min_size=len(mat), max_size=len(mat)))
    x = solve(sparse(mat), sparse([rhs])[0], width_of(mat))
    if not mat:
        assert x == {}
        return
    a = sym(mat)
    consistent = a.rank() == a.row_join(sym([[b] for b in rhs])).rank()
    assert (x is not None) == consistent
    if consistent:
        x = dense(x, width_of(mat))
        assert [sum((r[j] * x[j] for j in range(len(x))), Fraction(0))
                for r in mat] == rhs
        pivots = set(a.rref()[1])
        assert all(x[j] == 0 for j in range(len(x)) if j not in pivots)


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_inverse_matches_sympy(mat):
    n = len(mat)
    if n == 0:
        assert inverse([]) == []
        return
    inv = inverse(sparse(mat))
    if sym(mat).det() == 0:
        assert inv is None
    else:
        assert inv == sparse([[frac(x) for x in sym(mat).inv().row(i)] for i in range(n)])
        assert mat_mul(sparse(mat), inv) == identity(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_non_square(n, m, data):
    if n == m:
        m += 1
    mat = data.draw(matrices(rows=n, cols=m))
    if m > n and not any(x for row in mat for x in row[n:]):
        # sparse rows carry no width: past column n all zero, they are the n x n block
        assert inverse(sparse(mat)) == inverse(sparse([row[:n] for row in mat]))
    else:
        assert inverse(sparse(mat)) is None


# -- elimination over Cyclo, checked through products only -------------------

cyclo_sums = st.builds(
    lambda order, coeffs, zero: Cyclo.zero() if zero else Cyclo(order, coeffs),
    st.sampled_from([1, 3, 4, 5, 12]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.booleans())


@settings(max_examples=60, deadline=None)
@given(matrices(cyclo_sums))
def test_cyclo_nullspace_is_kernel(mat):
    width = width_of(mat)
    basis = nullspace(sparse(mat), width, Cyclo.one())
    if not mat:
        assert basis == []
        return
    assert len(basis) == width - rank(sparse(mat))
    for v in basis:
        assert not any(mat_mul(sparse(mat), transpose([v], width)))
    for v in basis:  # a coordinate where v alone is nonzero: independent
        assert any(all(j not in w for w in basis if w is not v) for j in v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.data())
def test_cyclo_inverse_is_two_sided(n, data):
    mat = data.draw(matrices(cyclo_sums, rows=n, cols=n))
    if n > 1 and data.draw(st.booleans()):  # force a dependent row
        mat[-1] = [x + y for x, y in zip(mat[0], mat[1])]
    one, rows = Cyclo.one(), sparse(mat)
    inv = inverse(rows, one)
    assert (inv is None) == (rank(rows) < n)
    if inv is None:  # a nonzero kernel vector certifies singularity
        v = nullspace(rows, n, one)[0]
        assert v and not any(mat_mul(rows, transpose([v], n)))
    else:
        assert mat_mul(rows, inv) == identity(n, one) == mat_mul(inv, rows)


# -- the one product ----------------------------------------------------------

def naive_mul(a, b, zero):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


cyclos = st.builds(
    lambda k, c: c * Cyclo.root_of_unity(5) ** k if c else Cyclo.zero(),
    st.integers(0, 4), st.integers(-2, 2))
XY = ("x", "y")
polys = st.builds(
    lambda c, a, b: MultiPoly(XY, {(a, b): Fraction(c)} if c else {}),
    st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))
ZEROS = {"fraction": (fractions, Fraction(0)), "cyclo": (cyclos, Cyclo.zero()),
         "poly": (polys, MultiPoly.zero(XY))}


@pytest.mark.parametrize("kind", sorted(ZEROS))
@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
       data=st.data())
def test_mat_mul_matches_triple_loop(kind, dims, data):
    entries, zero = ZEROS[kind]
    n, k, m = dims
    a = data.draw(matrices(entries, rows=n, cols=k))
    b = data.draw(matrices(entries, rows=k, cols=m))
    if data.draw(st.booleans()):
        a[0] = [a[0][0] - a[0][0]] * k  # an all-zero row
    got = mat_mul(sparse(a), sparse(b))
    assert [dense(row, m, zero) for row in got] == naive_mul(a, b, zero)
    assert got == sparse(naive_mul(a, b, zero))  # no stored zero
    for row_a, row in zip(a, got):
        if not any(row_a):
            assert row == {}


def test_mat_mul_shapes():
    one = Fraction(1)
    with pytest.raises(ValueError, match="1 rows on the right"):
        mat_mul([{0: one, 1: one}], [{0: one, 1: one}])
    with pytest.raises(ValueError):
        mat_mul([{0: one}, {0: one, 1: one}], [{0: one}])
    assert mat_mul([], [{0: one}]) == []
    assert mat_mul([{0: one}], [{}]) == [{}]
    assert mat_mul(identity(2), sparse([[one, 2 * one], [3 * one, 4 * one]])) == \
        sparse([[1, 2], [3, 4]])
    # products that cancel leave an empty row, not a stored zero
    assert mat_mul([{0: one, 1: one}], [{0: one, 1: one}, {0: -one}]) == [{1: one}]
    assert mat_mul([{0: one, 1: -one}], [{0: one}, {0: one}]) == [{}]
    # the nullspace of no rows is the standard basis of the given width
    assert nullspace([], 3) == identity(3)
    assert solve([], {}, 2) == {}
    # a row with a column at or past the number of rows is not square
    assert inverse([{0: one, 1: one}]) is None
    assert inverse([{0: one}, {0: one}]) is None


@pytest.mark.parametrize("m", range(4))
def test_mat_mul_empty_inner_dimension(m):
    """An m x 0 matrix times a 0 x p one is m empty rows, the m x p zero
    map whatever p is; a column past the right factor's rows is refused."""
    assert mat_mul([{} for _ in range(m)], []) == [{}] * m
    assert mat_mul([{0: Fraction(1)}] * m, [{}]) == [{}] * m
    assert mat_mul([{}] * m, [{0: Fraction(1)}, {}]) == [{}] * m
    if m:
        with pytest.raises(ValueError, match="0 rows on the right"):
            mat_mul([{0: Fraction(1)}] * m, [])


def _reduce(v, echelon):
    v = list(v)
    for col, pivot, tail in echelon:
        k = v[col] // pivot
        v[col] -= k * pivot
        for c, x in tail.items():
            v[c] -= k * x
    return v


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=3))))
def test_integer_echelon_spans_the_rows_lattice(data):
    """Each row reduces to 0 against the echelon basis, so the lattice it
    spans contains the rows'; integer combinations of the rows appended
    change nothing, and the pivots multiply to |det| (the covolume), so
    on a nonsingular square block the two lattices are equal."""
    square, combos = data
    rows = square + [[sum(c * r[j] for c, r in zip(cs, square)) for j in range(len(square))]
                     for cs in combos]
    echelon = integer_echelon(rows)
    assert [col for col, _, _ in echelon] == sorted({col for col, _, _ in echelon})
    assert all(pivot > 0 and all(c > col for c in tail) for col, pivot, tail in echelon)
    assert all(not any(_reduce(r, echelon)) for r in rows)
    assert len(echelon) == sympy.Matrix(square).rank()
    det = abs(int(sympy.Matrix(square).det()))
    if det:
        prod = 1
        for _, pivot, _ in echelon:
            prod *= pivot
        assert prod == det
