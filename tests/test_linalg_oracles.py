"""Independent oracles for the exact linear-algebra kernel.

The elimination routines are checked against ``sympy.Matrix`` on random
rational matrices (rank-deficient, empty and non-square ones included),
and ``mat_mul`` against a naive triple loop over every entry type the
library multiplies: ``Fraction``, ``Cyclo`` and ``MultiPoly``.  Over
``Cyclo`` the elimination is checked through products alone: every
nullspace vector is sent to 0, there are ncols - rank of them, an
inverse is a two-sided one, and a matrix with none has a kernel vector.
"""

from fractions import Fraction

import pytest

from lgck.exactalg import Cyclo, MultiPoly, zeta
from lgck.exactalg.linalg import (
    identity,
    inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve,
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


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_and_rank_match_sympy(mat):
    reduced = rref(mat)
    if not mat or not mat[0]:
        assert reduced == {} and rank(mat) == 0
        return
    ref, pivots = sym(mat).rref()
    assert tuple(reduced) == pivots
    assert rank(mat) == sym(mat).rank() == len(pivots)
    for k, col in enumerate(pivots):
        dense = [reduced[col].get(j, Fraction(0)) for j in range(len(mat[0]))]
        assert dense == [frac(x) for x in ref.row(k)]


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(mat):
    if not mat:
        assert nullspace(mat) == []
        return
    ours = nullspace(mat)
    theirs = [[frac(x) for x in v] for v in sym(mat).nullspace()]
    assert ours == theirs
    if ours:
        kernel = [list(c) for c in zip(*ours)]
        assert all(not x for row in mat_mul(mat, kernel) for x in row)


@settings(max_examples=120, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_sympy(mat, data):
    rhs = data.draw(st.lists(fractions, min_size=len(mat), max_size=len(mat)))
    x = solve(mat, rhs)
    if not mat:
        assert x == ([] if not any(rhs) else None)
        return
    a = sym(mat)
    consistent = a.rank() == a.row_join(sym([[b] for b in rhs])).rank()
    assert (x is not None) == consistent
    if consistent:
        assert [sum((r[j] * x[j] for j in range(len(x))), Fraction(0))
                for r in mat] == rhs
        pivots = set(a.rref()[1])
        assert all(x[j] == 0 for j in range(len(x)) if j not in pivots)


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_inverse_matches_sympy(mat):
    n = len(mat)
    if n == 0:
        assert inverse(mat) == []
        return
    inv = inverse(mat)
    if sym(mat).det() == 0:
        assert inv is None
    else:
        assert inv == [[frac(x) for x in sym(mat).inv().row(i)] for i in range(n)]
        assert mat_mul(mat, inv) == identity(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_non_square(n, m, data):
    if n == m:
        m += 1
    assert inverse(data.draw(matrices(rows=n, cols=m))) is None


# -- elimination over Cyclo, checked through products only -------------------

cyclo_sums = st.builds(
    lambda order, coeffs, zero: Cyclo.zero() if zero else Cyclo(order, coeffs),
    st.sampled_from([1, 3, 4, 5, 12]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.booleans())


@settings(max_examples=60, deadline=None)
@given(matrices(cyclo_sums))
def test_cyclo_nullspace_is_kernel(mat):
    basis = nullspace(mat, Cyclo.one())
    if not mat:
        assert basis == []
        return
    assert len(basis) == len(mat[0]) - rank(mat)
    for v in basis:
        assert all(not x for row in mat_mul(mat, [[x] for x in v]) for x in row)
    for v in basis:  # a coordinate where v alone is nonzero: independent
        assert any(x and all(not w[j] for w in basis if w is not v)
                   for j, x in enumerate(v))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.data())
def test_cyclo_inverse_is_two_sided(n, data):
    mat = data.draw(matrices(cyclo_sums, rows=n, cols=n))
    if n > 1 and data.draw(st.booleans()):  # force a dependent row
        mat[-1] = [x + y for x, y in zip(mat[0], mat[1])]
    one = Cyclo.one()
    inv = inverse(mat, one)
    assert (inv is None) == (rank(mat) < n)
    if inv is None:  # a nonzero kernel vector certifies singularity
        v = nullspace(mat, one)[0]
        assert any(v) and not any(x for row in mat_mul(mat, [[x] for x in v]) for x in row)
    else:
        assert mat_mul(mat, inv) == identity(n, one) == mat_mul(inv, mat)


# -- the one product ----------------------------------------------------------

def naive_mul(a, b, zero):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


cyclos = st.builds(
    lambda k, c: c * zeta(5) ** k if c else Cyclo.zero(),
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
    got = mat_mul(a, b)
    assert got == naive_mul(a, b, zero)
    for row_a, row in zip(a, got):
        if not any(row_a):
            assert all(type(x) is type(zero) and not x for x in row)


def test_mat_mul_shapes():
    one = Fraction(1)
    with pytest.raises(ValueError):
        mat_mul([[one, one]], [[one, one]])
    with pytest.raises(ValueError):
        mat_mul([[one], [one, one]], [[one]])
    assert mat_mul([], [[one]]) == []
    assert mat_mul([[one]], [[]]) == [[]]
    assert mat_mul(identity(2), [[one, 2 * one], [3 * one, 4 * one]]) == \
        [[1, 2], [3, 4]]
