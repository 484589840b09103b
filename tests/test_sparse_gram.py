"""The selection-rule sparse Gram blocks and the sparse exact rank."""

from fractions import Fraction

import pytest

from lgck.exactalg import Cyclo
from lgck.exactalg.linalg import is_nonsingular, rank, sparse_rank
from lgck.glsm import GlsmModel
from lgck.orbifold import GroupElement
from lgck.statespace import StateSpace

from corpus import corpus

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def dense_gram(state, phases):
    """The dense construction with no selection rule: one residue call per
    entry, and the inversion scalar exp(pi i t / d_w) computed afresh."""
    space = state.space(phases)
    other = state.space(GroupElement(phases).inverse().phases)
    if space.narrow:
        return [[Cyclo.one()]]
    model = state.model
    fixed = sorted(space.sector.fixed_support)
    charge_sum = sum(model.r_charges[i] for i in fixed)
    scalars = []
    for exp in other.basis:
        t = Fraction(sum(model.r_charges[i] * a for i, a in zip(fixed, exp)) + charge_sum)
        order = 2 * model.d_w * t.denominator
        scalars.append(Cyclo.root_of_unity(order, t.numerator % order))
    calc = space.calculator
    mat = []
    for e1 in space.basis:
        row = []
        for e2, s in zip(other.basis, scalars):
            r = calc.residue_of_monomial(tuple(a + b for a, b in zip(e1, e2)))
            row.append(r * s * Fraction(1, state.group_order) if r else Cyclo.zero())
        mat.append(row)
    return mat


def assert_grams_match(state, name):
    for sec in state.sectors:
        phases = sec.element.phases
        expected = dense_gram(state, phases)
        got = state.gram_matrix(phases)
        assert len(got) == len(expected), name
        for row_got, row_exp in zip(got, expected):
            assert len(row_got) == len(row_exp), name
            assert all(x == y for x, y in zip(row_got, row_exp)), name
        assert state.gram_strings(phases) == [[str(x) for x in row] for row in expected]
        assert state.gram_nonsingular(phases) == is_nonsingular(expected) is True


@pytest.mark.parametrize("name,model", corpus(), ids=[n for n, _ in corpus()])
def test_sparse_gram_matches_dense_corpus(name, model):
    assert_grams_match(StateSpace(model), name)


@pytest.mark.parametrize("psi", [Fraction(-1, 2), Fraction(7, 3)])
def test_sparse_gram_matches_dense_dwork_quintic(psi):
    """The Dwork quintic has a non-monomial Groebner basis, so the sparse
    Gram goes through the weighted-degree buckets."""
    names = [f"x{i}" for i in range(1, 6)]
    sign = "-" if psi < 0 else "+"
    model = GlsmModel.from_dict({
        "variables": names, "torus_weights": [[1] * 5], "finite_generators": [],
        "chi": [5], "nu": [0], "r_charges": [1] * 5, "d_w": 5,
        "potential": " + ".join(f"{v}^5" for v in names)
                     + f" {sign} {abs(psi)}*x1*x2*x3*x4*x5",
    })
    state = StateSpace(model)
    assert not state.space((Fraction(0),) * 5).calculator.monomial_gb
    assert_grams_match(state, f"dwork psi={psi}")


# -- sparse exact rank --------------------------------------------------------

def _sparse(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


fractions = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4))
cyclos = st.builds(
    lambda order, coeffs, zero: Cyclo.zero() if zero else Cyclo(order, coeffs),
    st.sampled_from([1, 3, 4, 5]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.booleans())


@st.composite
def matrices(draw, entries):
    """Random sparse matrices, some with rows that are sums of earlier
    rows (so rank-deficient), including empty and all-zero ones."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    mat = [[draw(entries) for _ in range(m)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mat.append([x + y for x, y in zip(mat[i], mat[j])])
    return mat


@settings(max_examples=80, deadline=None)
@given(matrices(fractions))
def test_sparse_rank_matches_dense_fraction(mat):
    assert sparse_rank(_sparse(mat)) == rank(mat)


@settings(max_examples=40, deadline=None)
@given(matrices(cyclos))
def test_sparse_rank_matches_dense_cyclo(mat):
    assert sparse_rank(_sparse(mat)) == rank(mat)


def test_sparse_rank_edge_cases():
    assert sparse_rank([]) == rank([]) == 0
    zeros = [[Fraction(0)] * 3 for _ in range(4)]
    assert sparse_rank(_sparse(zeros)) == rank(zeros) == 0
    assert sparse_rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 0}]) == 1  # ints, explicit zero
    assert is_nonsingular([]) and not is_nonsingular(zeros)
    assert is_nonsingular([[0, 1], [1, 0]]) and not is_nonsingular([[1, 2], [2, 4]])
