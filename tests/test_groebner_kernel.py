"""The Groebner kernel: reduced bases against sympy, memoized monomial
normal forms against direct reduction, and the heap pair queue against
the min-over-all-pairs selection it replaced."""

import heapq
from fractions import Fraction

import pytest

from lgck.exactalg import MultiPoly, PolyIdeal, buchberger, drl_key, jacobian_ideal
from lgck.exactalg import groebner

from corpus import corpus

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

XYZ = ("x", "y", "z")


def dwork_quintic(psi) -> MultiPoly:
    names = [f"x{i}" for i in range(1, 6)]
    w = MultiPoly.parse(" + ".join(f"{v}^5" for v in names), names)
    return w + MultiPoly.monomial(names, (1,) * 5, psi)


def quartic_fourfold(c) -> MultiPoly:
    names = [f"x{i}" for i in range(1, 7)]
    w = MultiPoly.parse(" + ".join(f"{v}^4" for v in names), names)
    return w + MultiPoly.monomial(names, (1, 1, 1, 1, 0, 0), c)


def as_rational_terms(p: MultiPoly) -> frozenset:
    return frozenset((e, c.as_fraction()) for e, c in p.terms.items())


# -- buchberger against sympy ----------------------------------------------

def sympy_reduced_basis(polys, variables) -> set:
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(variables)
    exprs = [sum(sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)
                 * sympy.prod([g ** a for g, a in zip(gens, e)])
                 for e, c in p.terms.items()) for p in polys]
    out = set()
    for g in sympy.groebner(exprs, *gens, order="grevlex").polys:
        lc = g.LC(order="grevlex")  # Poly.monic() would divide by the lex one
        out.add(frozenset((tuple(m), Fraction(int((c / lc).p), int((c / lc).q)))
                          for m, c in g.terms()))
    return out


terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(terms, min_size=1, max_size=3))
def test_buchberger_matches_sympy_random_ideals(gens):
    polys = [MultiPoly(XYZ, t) for t in gens]
    ours = {as_rational_terms(g) for g in buchberger(polys)}
    assert ours == sympy_reduced_basis(polys, XYZ)


def test_buchberger_matches_sympy_dwork_quintic():
    w = dwork_quintic(Fraction(-1, 2))
    parts = [w.derivative(v) for v in w.variables]
    basis = jacobian_ideal(w).basis
    assert len(basis) == 96
    assert {as_rational_terms(g) for g in basis} == sympy_reduced_basis(parts, w.variables)


# -- memoized monomial normal forms ------------------------------------------

def monomials(n, degree):
    """Every exponent vector in n variables of total degree <= degree."""
    if n == 0:
        yield ()
        return
    for a in range(degree + 1):
        for rest in monomials(n - 1, degree - a):
            yield (a,) + rest


def assert_memo_matches_reduction(w: MultiPoly):
    """Every monomial up to one degree past the socle, asked largest first so
    the memo is filled through its explicit stack rather than bottom-up."""
    ideal = jacobian_ideal(w)
    std = ideal.quotient_basis()
    top = max(sum(e) for e in std) + 1
    for e in sorted(monomials(len(w.variables), top), key=drl_key, reverse=True):
        direct = ideal.normal_form(MultiPoly.monomial(w.variables, e)).terms
        assert ideal.monomial_normal_form(e) == direct, e


@pytest.mark.parametrize("name,model", corpus(), ids=[n for n, _ in corpus()])
def test_monomial_normal_form_corpus(name, model):
    assert_memo_matches_reduction(model.potential)


@pytest.mark.parametrize("psi", [Fraction(-1, 2), Fraction(7, 3)])
def test_monomial_normal_form_dwork_quintic(psi):
    assert_memo_matches_reduction(dwork_quintic(psi))


def test_monomial_normal_form_quartic_fourfold():
    assert_memo_matches_reduction(quartic_fourfold(Fraction(3)))


def test_monomial_normal_form_deep_chain():
    """x^5000 walks a chain 5000 monomials deep, far past the recursion limit."""
    ideal = PolyIdeal([MultiPoly.parse("x^3 - x")])
    assert ideal.monomial_normal_form((5000,)) == {(2,): 1}
    assert ideal.monomial_normal_form((4999,)) == {(1,): 1}


# -- the heap pair queue ------------------------------------------------------

def min_selection_order(generators) -> list:
    """The pair loop Buchberger had before the heap: each step takes
    min(pairs.items(), key=...) over a dict of every pending pair."""
    basis = [groebner._monic(g) for g in generators if g]
    sugars = [max(map(sum, g.terms)) for g in basis]

    def pair_data(i, j):
        ei, ej = basis[i].leading()[0], basis[j].leading()[0]
        lcm = groebner._lcm_exp(ei, ej)
        sugar = max(sugars[i] - sum(ei), sugars[j] - sum(ej)) + sum(lcm)
        return (sugar, sum(lcm), drl_key(lcm), i, j), lcm

    pairs = {(j, i): pair_data(j, i) for i in range(len(basis)) for j in range(i)}
    processed, order = set(), []
    while pairs:
        (i, j), (_, lcm) = min(pairs.items(), key=lambda kv: kv[1][0])
        del pairs[(i, j)]
        processed.add((i, j))
        order.append((i, j))
        ei, ej = basis[i].leading()[0], basis[j].leading()[0]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        if any(k not in (i, j) and groebner._divides(basis[k].leading()[0], lcm)
               and (min(i, k), max(i, k)) in processed
               and (min(j, k), max(j, k)) in processed for k in range(len(basis))):
            continue
        r = groebner.reduce_full(groebner._spoly(basis[i], basis[j]), basis)
        if r:
            basis.append(groebner._monic(r))
            sugars.append(max(map(sum, r.terms)))
            new = len(basis) - 1
            pairs.update({(k, new): pair_data(k, new) for k in range(new)})
    return order


def heap_order(monkeypatch, generators) -> list:
    """The pairs ``buchberger`` pops from its heap, in order."""
    popped, pop = [], heapq.heappop

    def heappop(heap):
        item = pop(heap)
        if len(item) == 4:  # (drl_key(lcm), i, j, lcm)
            popped.append(item[1:3])
        return item

    monkeypatch.setattr(groebner.heapq, "heappop", heappop)
    buchberger(generators)
    monkeypatch.undo()
    return popped


def jacobian(w: MultiPoly) -> list:
    return [w.derivative(v) for v in w.variables]


@pytest.mark.parametrize("gens", [
    jacobian(dwork_quintic(Fraction(-1, 2))),
    jacobian(quartic_fourfold(Fraction(-2, 3))),
    jacobian(MultiPoly.parse("x^4*y + y^4*z + z^4*u + u^4*x")),
    [MultiPoly.parse(t, XYZ) for t in ("x^3 - y*z + 1", "y^2*x - z", "z^3 + x*y^2 - x")],
], ids=["dwork", "quartic_fourfold", "loop_4", "inhomogeneous"])
def test_heap_pops_in_min_selection_order(monkeypatch, gens):
    order = heap_order(monkeypatch, gens)
    assert order and order == min_selection_order(gens)


@settings(max_examples=30, deadline=None)
@given(st.lists(terms, min_size=2, max_size=3))
def test_heap_pops_in_min_selection_order_random(gens):
    polys = [MultiPoly(XYZ, t) for t in gens]
    with pytest.MonkeyPatch.context() as mp:
        assert heap_order(mp, polys) == min_selection_order(polys)
