"""The Chern form wedged over recorded tensor factors against the matrix
route on the whole factorization, the Finiteness Theorem against the
enumeration of standard monomials, and the unit on both routes."""

import random
from fractions import Fraction

import pytest

from lgck import matfact
from lgck.exactalg import MultiPoly, jacobian_ideal
from lgck.exactalg.groebner import PolyIdeal
from lgck.glsm import GlsmModel
from lgck.matfact import (
    Factorization,
    FactorizationError,
    chern_char,
    chern_character_form,
    koszul,
    unit_class,
)

from corpus import corpus
from witnesses import cdga_element_from_covector, cdga_factorization, koszul_cdga, tensor


def plain(f):
    """The same factorization with no recorded factors: the matrix route."""
    out = Factorization(f.variables, f.parities, f.delta, f.potential)
    assert out.factors == (out,)
    return out


def linear_pair(rng, names, a, b, quadratic):
    """tau, sigma: independent linear forms in x_a, x_b; tau may carry x_a^2."""
    while True:
        c = [rng.randint(-3, 3) for _ in range(4)]
        if c[0] * c[3] - c[1] * c[2]:
            break
    x, y = MultiPoly.var(names, names[a]), MultiPoly.var(names, names[b])
    tau = x * c[0] + y * c[1]
    if quadratic:
        tau = tau + x * x * rng.randint(1, 2)
    return tau, x * c[2] + y * c[3]


def rank_one(rng, names, a, b, quadratic):
    tau, sigma = linear_pair(rng, names, a, b, quadratic)
    return koszul([tau], [sigma])


def cyclic_koszul(rng, r, n):
    """Rank-r Koszul data whose k-th pair lives on x_2k, x_2k+1 and x_2k+2
    (indices mod n), so that neighbouring pairs share a variable, as in
    the benchmark's Koszul pool on 3 variables."""
    names = tuple(f"x{i}" for i in range(n))
    tau, sigma = [], []
    for k in range(r):
        t, s = linear_pair(rng, names, 2 * k % n, (2 * k + 1) % n, k == 0 and rng.random() < 0.5)
        tau.append(t + MultiPoly.var(names, names[(2 * k + 2) % n]) * rng.randint(-1, 1))
        sigma.append(s)
    return koszul(tau, sigma)


def test_koszul_factors_match_matrix_route():
    """r = 1..4 on the pool's 3 variables (where the form of rank r >= 2 is
    zero) and on 2r variables (where its top degree is the Jacobian
    determinant).  Its own generator leaves the shared ``rng`` as it was."""
    rng = random.Random("chern-factors")
    top_nonzero = 0
    for r, n, draws in ((1, 2, 4), (2, 3, 4), (3, 3, 3), (4, 3, 2),
                        (2, 4, 4), (3, 6, 2), (4, 8, 1)):
        for _ in range(draws):
            f = cyclic_koszul(rng, r, n)
            assert len(f.factors) == r
            form = chern_character_form(f)
            assert form == chern_character_form(plain(f))
            top_nonzero += not form.component(n).is_zero() and 2 * r == n
    assert top_nonzero >= 6


def test_tensor_factors_match_matrix_route():
    """Internal and external tensor products of Koszul data, nested, and a
    Koszul factorization tensored with a folded cdga factorization."""
    rng = random.Random("chern-tensor-factors")
    names = ("x0", "x1", "x2", "x3")
    inner = [rank_one(rng, names, a, b, a == 0) for a, b in ((0, 1), (2, 3), (1, 2))]
    pair = tensor(inner[0], inner[1])
    triple = tensor(pair, inner[2])
    ext = tensor(koszul([MultiPoly.parse("a + b^2")], [MultiPoly.parse("b")]),
                 koszul([MultiPoly.parse("c"), MultiPoly.parse("e")],
                        [MultiPoly.parse("c + d"), MultiPoly.parse("e - f^2")]),
                 external=True)
    algebra = koszul_cdga([MultiPoly.parse("u", ("u", "v")), MultiPoly.parse("v", ("u", "v"))])
    folded = cdga_factorization(algebra, cdga_element_from_covector(
        algebra, [MultiPoly.parse("u + v^2", ("u", "v")), MultiPoly.parse("u - v", ("u", "v"))]))
    mixed = tensor(koszul([MultiPoly.parse("2*p + q")], [MultiPoly.parse("p - q")]), folded,
                   external=True)
    for f, n_factors in ((pair, 2), (triple, 3), (ext, 3), (mixed, 2)):
        assert len(f.factors) == n_factors
        assert all(g.variables == f.variables for g in f.factors)
        form = chern_character_form(f)
        assert form == chern_character_form(plain(f))
    assert not chern_character_form(pair).component(4).is_zero()
    assert not chern_character_form(ext).component(6).is_zero()


def test_multiplicativity_against_matrix_route():
    """The matrix route on the whole tensor product equals the wedge of the
    factors' Chern forms, for Koszul and folded cdga factors."""
    rng = random.Random("chern-multiplicative")
    names = ("x0", "x1", "x2", "x3")
    algebra = koszul_cdga([MultiPoly.var(names, "x2")])
    folded = cdga_factorization(algebra, cdga_element_from_covector(
        algebra, [MultiPoly.parse("x3 + x2^2", names)]))
    for _ in range(4):
        f1, f2 = rank_one(rng, names, 0, 1, True), rank_one(rng, names, 1, 2, False)
        for g in (f2, folded):
            lhs = chern_character_form(plain(tensor(f1, g)))
            assert lhs == chern_character_form(f1).wedge(chern_character_form(g))


def _matrix_route_only(monkeypatch):
    monkeypatch.setattr(matfact, "chern_character_form",
                        lambda f: matfact._matrix_chern_form(plain(f)))


# Koszul-route units; their reports were recorded before the Chern form was
# wedged over factors.  The J-fixed variables are listed out of sorted order.
KOSZUL_UNITS = {
    "rank1": ({"variables": ["y", "x", "z"], "torus_weights": [[1, -1, 0]],
               "r_charges": [0, 2, 1], "d_w": 2, "potential": "x*y + z^2"},
              {"sector": ["0", "0", "1/2"], "coefficients": ["1"], "degree": "0",
               "route": "koszul todd-chern"}),
    "rank2": ({"variables": ["p", "a", "q", "b", "z"], "torus_weights": [[1, -1, 1, -1, 0]],
               "r_charges": [0, 2, 0, 2, 1], "d_w": 2,
               "potential": "a*p + b*q + a*p^2 + z^2"},
              {"sector": ["0", "0", "0", "0", "1/2"], "coefficients": ["1", "2"],
               "degree": "0", "route": "koszul todd-chern"}),
}


@pytest.mark.parametrize("name", sorted(KOSZUL_UNITS))
def test_koszul_unit_unchanged(name, monkeypatch):
    config, want = KOSZUL_UNITS[name]
    model = GlsmModel.from_dict({"finite_generators": [], "chi": [1], "nu": [0], **config})
    assert unit_class(model).to_jsonable() == want
    _matrix_route_only(monkeypatch)
    assert unit_class(model).to_jsonable() == want


def test_unit_unchanged_across_corpus(monkeypatch):
    """Every corpus unit is the narrow generator of the J-sector, on both routes."""
    models = corpus()
    got = [unit_class(model).to_jsonable() for _, model in models]
    for (name, model), report in zip(models, got):
        assert report == {"sector": [str(p) for p in model.j_phases], "coefficients": ["1"],
                          "degree": "0", "route": "narrow generator"}, name
    _matrix_route_only(monkeypatch)
    assert [unit_class(model).to_jsonable() for _, model in models] == got


# -- finiteness without enumeration ----------------------------------------------

def _finite_both_ways(ideal: PolyIdeal) -> bool:
    finite = ideal.pure_power_bounds() is not None
    assert finite == (ideal.quotient_basis() is not None)
    return finite


def test_finiteness_on_corpus_jacobians():
    models = corpus()
    assert len(models) == 20
    for name, model in models:
        assert _finite_both_ways(jacobian_ideal(model.potential)), name


def test_finiteness_refuses_pool_koszul_r4_2():
    """The benchmark pool's koszul_r4_2 has a non-isolated potential, so
    ``chern`` refuses it."""
    names = ("x", "y", "z")
    tau = [MultiPoly.parse(t, names) for t in ("x - 3*y", "2*y + z", "-x", "x + y")]
    sigma = [MultiPoly.parse(s, names) for s in ("2*x + 2*y", "y", "-2*z + 2*x", "-2*x + 3*y")]
    f = koszul(tau, sigma)
    assert not _finite_both_ways(jacobian_ideal(f.potential))
    with pytest.raises(FactorizationError, match="non-isolated"):
        chern_char(f)


def test_finiteness_on_random_ideals():
    rng = random.Random("finiteness")
    outcomes = set()
    for _ in range(80):
        names = ("x", "y", "z")[:rng.randint(1, 3)]
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = MultiPoly.zero(names)
            for _ in range(rng.randint(1, 3)):
                exp = tuple(rng.randint(0, 3) for _ in names)
                p = p + MultiPoly.monomial(names, exp, Fraction(rng.randint(-2, 2)))
            gens.append(p)
        outcomes.add(_finite_both_ways(PolyIdeal(gens)))
    assert outcomes == {True, False}
