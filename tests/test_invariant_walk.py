"""The staircase walk that builds each broad sector's basis in exponent space.

``quotient_basis(rows, d)`` carries the group's characters down the walk
and keeps only the x^e with (e + 1) invariant, where the 1 is the twist by
dx on the fixed locus.  Every sector basis must equal the standard
monomials of its restricted potential, filtered one at a time through the
``fixes`` witness, and the walk's count must be the number of all standard
monomials (the Milnor number).
"""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from lgck.exactalg import MultiPoly
from lgck.glsm import GlsmModel
from lgck.orbifold import DiagonalGroup, GroupElement
from lgck.statespace import SectorSpace, StateSpace

from conftest import make_quintic_lg
from corpus import corpus, fermat_model
from witnesses import fixes

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def assert_walk_is_the_filter(model: GlsmModel) -> int:
    """Check every broad sector of ``model``; return its number of fixed loci."""
    group = DiagonalGroup.of(model)
    loci = set()
    for space in StateSpace(model).spaces.values():
        if space.narrow:
            continue
        fixed = sorted(space.element.fixed_support())
        calc = space.calculator
        std = calc.ideal.quotient_basis()
        assert space.basis == [e for e in std if fixes(group, [a + 1 for a in e], fixed)], \
            (model.potential.canonical_str(), fixed)
        assert calc.milnor_number == len(std)
        loci.add(tuple(fixed))
    return len(loci)


def _with_potential(model: GlsmModel, potential: str) -> GlsmModel:
    config = model.to_dict()
    config["potential"] = potential
    return GlsmModel.from_dict(config)


def _listed_mirror_quintic() -> GlsmModel:
    config = make_quintic_lg().to_dict()
    config["finite_generators"] = [[f"{a}/5" for a in v] for v in product(range(5), repeat=5)
                                   if sum(v) % 5 == 0]
    return GlsmModel.from_dict(config)


NAMED = {
    "fermat_3_4_gmax": lambda: fermat_model([3] * 4, extra_generators=[
        ["1/3" if j == i else "0" for j in range(4)] for i in range(4)]),
    "dwork_quintic": lambda: _with_potential(
        fermat_model([5] * 5), "x1^5+x2^5+x3^5+x4^5+x5^5-1/2*x1*x2*x3*x4*x5"),
    "quartic_fourfold": lambda: _with_potential(
        fermat_model([4] * 6), "x1^4+x2^4+x3^4+x4^4+x5^4+x6^4-2/3*x1*x2*x3*x4"),
}


@pytest.mark.parametrize("name,model", corpus(), ids=[name for name, _ in corpus()])
def test_walk_matches_the_filter_on_the_corpus(name, model):
    assert assert_walk_is_the_filter(model) >= 1


@pytest.mark.parametrize("name", sorted(NAMED))
def test_walk_matches_the_filter_on_named_models(name):
    assert assert_walk_is_the_filter(NAMED[name]()) >= 1


def test_walk_matches_the_filter_on_the_listed_mirror_quintic():
    assert assert_walk_is_the_filter(_listed_mirror_quintic()) == 26


# -- random invertible potentials with random groups between J and G_max -------

def _atom(kind, a, b):
    """(exponent rows, weights) of x^a, x^a + x y^b or x^a y + x y^b."""
    if kind == "fermat":
        return [[a]], [Fraction(1, a)]
    if kind == "chain":
        return [[a, 0], [1, b]], [Fraction(1, a), Fraction(a - 1, a * b)]
    return [[a, 1], [1, b]], [Fraction(b - 1, a * b - 1), Fraction(a - 1, a * b - 1)]


def _inverse_columns(rows):
    """The columns of the inverse of a 1 x 1 or 2 x 2 integer matrix."""
    if len(rows) == 1:
        return [[Fraction(1, rows[0][0])]]
    (p, q), (r, s) = rows
    det = p * s - q * r
    return [[Fraction(s, det), Fraction(-r, det)], [Fraction(-q, det), Fraction(p, det)]]


@st.composite
def invertible_models(draw):
    """A sum of one to three Fermat, chain and loop atoms in at most four
    variables, orbifolded by J and one or two random elements of G_max."""
    atoms = draw(st.lists(st.tuples(st.sampled_from(["fermat", "chain", "loop"]),
                                    st.integers(2, 4), st.integers(2, 4)),
                          min_size=1, max_size=3))
    terms, weights, gmax = [], [], []
    for kind, a, b in atoms:
        rows, q = _atom(kind, a, b)
        if len(weights) + len(q) > 4:
            break
        names = [f"x{len(weights) + k + 1}" for k in range(len(q))]
        terms += ["*".join(f"{v}^{e}" for v, e in zip(names, row) if e) for row in rows]
        gmax += [[Fraction(0)] * len(weights) + col for col in _inverse_columns(rows)]
        weights += q
    n = len(weights)
    gmax = [g + [Fraction(0)] * (n - len(g)) for g in gmax]
    generators = [[sum((c * g[i] for c, g in zip(coeffs, gmax)), Fraction(0)) % 1
                   for i in range(n)]
                  for coeffs in draw(st.lists(st.lists(st.integers(0, 11), min_size=len(gmax),
                                                       max_size=len(gmax)),
                                              min_size=1, max_size=2))]
    d = lcm(*(q.denominator for q in weights))
    charges = [int(q * d) for q in weights]
    return GlsmModel.from_dict({
        "variables": [f"x{i}" for i in range(1, n + 1)], "torus_weights": [charges],
        "finite_generators": [[str(p) for p in g] for g in generators],
        "chi": [d], "nu": [0], "r_charges": charges, "d_w": d,
        "potential": " + ".join(terms)})


@settings(max_examples=40, deadline=None)
@given(invertible_models())
def test_walk_matches_the_filter_on_random_groups(model):
    assert_walk_is_the_filter(model)


# -- basis labels -----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 12), min_size=n, max_size=n).map(tuple), max_size=6)))
def test_labels_are_the_canonical_monomials(exps):
    """Labels printed from the exponents are ``canonical_str`` of the monomial,
    with the zero vector printed as 1."""
    n = len(exps[0]) if exps else 3
    names = tuple(f"x{i}" for i in range(1, n + 1))
    exps = [(0,) * n] + exps
    space = SectorSpace(GroupElement([0] * n), names, exps, Fraction(0), calculator=object())
    assert space.basis_labels() == [MultiPoly.monomial(names, e, 1).canonical_str()
                                    for e in exps]
