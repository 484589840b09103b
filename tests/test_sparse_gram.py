"""The selection-rule sparse Gram blocks and the sparse exact elimination,
each checked against a dense reference kept in this file."""

import json
from fractions import Fraction

import pytest

from lgck.cli import _json_text
from lgck.exactalg import Cyclo
from lgck.exactalg.linalg import is_nonsingular, rank, rref, sparse
from lgck.glsm import GlsmModel
from lgck.orbifold import GroupElement
from lgck.statespace import ResidueCalculator, StateSpace

from corpus import corpus

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def dense_gram(state, phases):
    """The dense construction with no selection rule: one unfiltered normal
    form per entry, read at the socle and normalized so res(hessian) = mu,
    and the inversion scalar exp(pi i t / d_w) computed afresh."""
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
            nf = calc.ideal.monomial_normal_form(tuple(a + b for a, b in zip(e1, e2)))
            c = nf.get(calc.socle_monomial)
            row.append(c * calc.milnor_number / calc.socle_coeff * s
                       * Fraction(1, state.group_order) if c else Cyclo.zero())
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
        dense = [[str(x) for x in row] for row in expected]
        assert _json_text(state.gram_block(phases)) == json.dumps(dense, indent=2)
        width = len(expected[0]) if expected else 0
        assert state.gram_nonsingular(phases) == is_nonsingular(sparse(expected), width) is True


@pytest.mark.parametrize("name,model", corpus(), ids=[n for n, _ in corpus()])
def test_sparse_gram_matches_dense_corpus(name, model):
    assert_grams_match(StateSpace(model), name)


@pytest.mark.parametrize("psi", [Fraction(-1, 2), Fraction(7, 3)])
def test_sparse_gram_matches_dense_dwork_quintic(psi):
    """The Dwork quintic has a non-monomial Groebner basis, so its residues
    are socle coefficients of genuine normal forms."""
    names = [f"x{i}" for i in range(1, 6)]
    sign = "-" if psi < 0 else "+"
    model = GlsmModel.from_dict({
        "variables": names, "torus_weights": [[1] * 5], "finite_generators": [],
        "chi": [5], "nu": [0], "r_charges": [1] * 5, "d_w": 5,
        "potential": " + ".join(f"{v}^5" for v in names)
                     + f" {sign} {abs(psi)}*x1*x2*x3*x4*x5",
    })
    state = StateSpace(model)
    ideal = state.space((Fraction(0),) * 5).calculator.ideal
    assert any(len(g.terms) > 1 for g in ideal.basis)
    assert_grams_match(state, f"dwork psi={psi}")


# -- the symmetry-class partner index -------------------------------------------

def _lg(names, charges, d_w, potential):
    return GlsmModel.from_dict({
        "variables": names, "torus_weights": [charges], "finite_generators": [],
        "chi": [d_w], "nu": [0], "r_charges": charges, "d_w": d_w,
        "potential": potential})


X5, X4 = [f"x{i}" for i in range(1, 6)], [f"x{i}" for i in range(1, 5)]
QUINTIC = " + ".join(f"{v}^5" for v in X5)
DEFORMED = {
    "dwork_-1/2": lambda: _lg(X5, [1] * 5, 5, QUINTIC + " - 1/2*x1*x2*x3*x4*x5"),
    "dwork_7/3": lambda: _lg(X5, [1] * 5, 5, QUINTIC + " + 7/3*x1*x2*x3*x4*x5"),
    "quintic_x1cube": lambda: _lg(X5, [1] * 5, 5, QUINTIC + " + 2*x1^3*x2*x3"),
    "loop_5": lambda: _lg(X5, [1] * 5, 4, "x1^3*x2 + x2^3*x3 + x3^3*x4 + x4^3*x5 + x5^3*x1"),
    "chain_4": lambda: _lg(["x", "y", "z", "u"], [20, 21, 18, 27], 81,
                           "x^3*y + y^3*z + z^3*u + u^3"),
    "quartic_z8": lambda: _lg(X4, [1] * 4, 4,
                              " + ".join(f"{v}^4" for v in X4) + " + z8^3*x1^2*x2^2"),
}


@pytest.mark.parametrize("name", sorted(DEFORMED))
def test_nonzero_residues_lie_in_the_socle_class(name):
    """Oracle for the selection rule: wherever the unfiltered normal form of
    a product of degree-complementary standard monomials meets the socle,
    the product is in the socle's symmetry class."""
    model = DEFORMED[name]()
    calc = ResidueCalculator(model.potential,
                             [Fraction(c, model.d_w) for c in model.r_charges])
    by_degree = {}
    for e in calc.standard_monomials:
        by_degree.setdefault(calc.weighted_degree(e), []).append(e)
    sums = {tuple(a + b for a, b in zip(e1, e2))
            for deg, left in by_degree.items() for e1 in left
            for e2 in by_degree.get(calc.socle_degree - deg, ())}
    nonzero = [e for e in sums
               if calc.ideal.monomial_normal_form(e).get(calc.socle_monomial)]
    assert calc.socle_monomial in nonzero
    assert all(calc.symmetry_class(e) == calc.socle_class for e in nonzero)


def test_dwork_gram_residue_calls(monkeypatch):
    """20,404 residue_of_monomial calls with weighted-degree partners alone."""
    calls = []
    original = ResidueCalculator.residue_of_monomial
    monkeypatch.setattr(ResidueCalculator, "residue_of_monomial",
                        lambda calc, exp: calls.append(exp) or original(calc, exp))
    state = StateSpace(DEFORMED["dwork_-1/2"]())
    for sec in state.sectors:
        state.gram_rows(sec.element.phases)
    assert 0 < len(calls) <= 204


FERMAT = [(n, m) for n, m in corpus()
          if all(sum(1 for a in e if a) == 1 for e in m.potential.terms)]


@pytest.mark.parametrize("name,model", FERMAT, ids=[n for n, _ in FERMAT])
def test_fermat_partner_is_socle_minus_e1(name, model):
    state = StateSpace(model)
    for sec in state.sectors:
        space = state.space(sec.element.phases)
        if space.narrow:
            continue
        other = state.space(sec.element.inverse().phases)
        calc = space.calculator
        for e1, row in zip(space.basis, state.gram_rows(sec.element.phases)):
            dual = tuple(s - a for s, a in zip(calc.socle_monomial, e1))
            partners = {e2 for e2 in other.basis
                        if calc.symmetry_class(e2) == calc.symmetry_class(dual)}
            assert partners == {dual} & set(other.basis) == {other.basis[j] for j in row}


# -- sparse exact rank --------------------------------------------------------

def dense_rref(mat):
    """Dense Gauss-Jordan elimination, kept here as a reference that shares
    no code with the library's sparse elimination: (rows, pivot columns),
    zero rows left in place at the bottom."""
    rows = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in mat]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        recip = rows[r][c] ** (-1)
        rows[r] = [x * recip for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def assert_matches_dense(mat):
    rows, pivots = dense_rref(mat)
    assert rank(sparse(mat)) == len(pivots)
    assert rref(sparse(mat)) == {c: sparse([row])[0] for c, row in zip(pivots, rows)}


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
    assert_matches_dense(mat)


@settings(max_examples=40, deadline=None)
@given(matrices(cyclos))
def test_sparse_rank_matches_dense_cyclo(mat):
    assert_matches_dense(mat)


def test_sparse_rank_edge_cases():
    assert rank([]) == 0
    zeros = [[Fraction(0)] * 3 for _ in range(4)]
    assert rank(sparse(zeros)) == 0
    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 0}]) == 1  # ints, explicit zero
    assert is_nonsingular([], 0) and not is_nonsingular(sparse(zeros), 3)
    assert is_nonsingular(sparse([[0, 1], [1, 0]]), 2)
    assert not is_nonsingular(sparse([[1, 2], [2, 4]]), 2)
