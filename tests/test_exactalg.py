"""Exact arithmetic, polynomials, Groebner bases, cone membership."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from lgck.exactalg import (
    Cyclo,
    MultiPoly,
    PolyIdeal,
    exact_lp_cone_membership,
    jacobian_ideal,
)
from lgck.exactalg.linalg import identity, inverse, mat_mul, rank, solve, sparse

from conftest import scale_variables


# -- cyclotomic arithmetic ----------------------------------------------------

@pytest.mark.parametrize("n", list(range(1, 61)))
def test_root_of_unity_relations(n):
    z = Cyclo.root_of_unity(n)
    assert z ** n == 1
    total = Cyclo.zero()
    for k in range(n):
        total = total + z ** k
    if n == 1:
        assert total == 1
    else:
        assert total == 0


def test_cross_order_promotion():
    # zeta_3 embedded in Q(zeta_12)
    z3 = Cyclo.root_of_unity(3)
    z12 = Cyclo.root_of_unity(12)
    assert z3 == z12 ** 4
    assert z3 * z12 ** 8 == 1


def test_field_inverse(rng):
    for _ in range(25):
        n = rng.choice([4, 5, 8, 12])
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(4)]
        x = sum((c * Cyclo.root_of_unity(n) ** k for k, c in enumerate(coeffs)), Cyclo.zero())
        if x.is_zero():
            continue
        assert x * x.inverse() == 1
        assert (1 / x) * x == 1


# -- polynomial engine --------------------------------------------------------

def test_parse_print_roundtrip():
    samples = [
        "x1^5 + x2^5",
        "(3/2)*z5^2*x^2*y + x - 1",
        "x*y - y^2 + (1/3)",
        "2*x^3*y^2 - z7*x",
    ]
    for text in samples:
        p = MultiPoly.parse(text)
        assert MultiPoly.parse(p.canonical_str(), p.variables) == p


def test_derivative_and_substitution():
    w = MultiPoly.parse("x^3 + x*y^2")
    assert w.derivative("x") == MultiPoly.parse("3*x^2 + y^2", w.variables)
    scaled = scale_variables(w, [Cyclo.root_of_unity(6), Cyclo.root_of_unity(6) ** 2])
    # x -> z6 x, y -> z6^2 y: x^3 -> z6^3 x^3 = -x^3, x y^2 -> z6^5 x y^2
    expect = MultiPoly.parse("x^3", w.variables) * (Cyclo.root_of_unity(6) ** 3) \
        + MultiPoly.parse("x*y^2", w.variables) * (Cyclo.root_of_unity(6) ** 5)
    assert scaled == expect


def test_variable_name_guard():
    with pytest.raises(ValueError):
        MultiPoly.parse("z5*x", ("z5", "x"))


# -- Groebner bases -----------------------------------------------------------

def test_groebner_already_reduced():
    gens = [MultiPoly.parse("x^2", ("x", "y")), MultiPoly.parse("y", ("x", "y"))]
    ideal = PolyIdeal(gens)
    assert sorted(g.canonical_str() for g in ideal.basis) == ["x^2", "y"]


def test_groebner_linear_elimination():
    gens = [MultiPoly.parse("x + y"), MultiPoly.parse("x - y")]
    ideal = PolyIdeal(gens)
    assert sorted(g.canonical_str() for g in ideal.basis) == ["x", "y"]


def test_fermat_jacobian_basis():
    w = MultiPoly.parse("+".join(f"x{i}^5" for i in range(1, 6)))
    ideal = jacobian_ideal(w)
    leads = sorted(exp for exp in ideal.leading_exponents())
    expect = []
    for i in range(5):
        e = [0] * 5
        e[i] = 4
        expect.append(tuple(e))
    assert leads == sorted(expect)


def test_normal_forms():
    w = MultiPoly.parse("x^5 + y^5")
    ideal = jacobian_ideal(w)
    assert ideal.normal_form(MultiPoly.parse("x^5", w.variables)).is_zero()
    p = MultiPoly.parse("x^3*y^3", w.variables)
    assert ideal.normal_form(p) == p  # no leading-term divisibility
    line = PolyIdeal([MultiPoly.parse("x", ("x", "y"))])
    sq = MultiPoly.parse("x^2 + 2*x*y + y^2", ("x", "y"))
    assert line.normal_form(sq) == MultiPoly.parse("y^2", ("x", "y"))


def test_quotient_basis_small():
    a2 = jacobian_ideal(MultiPoly.parse("x^3"))
    assert a2.quotient_basis() == [(0,), (1,)]  # milnor number 2


def test_quotient_basis_fermat_product_oracle():
    # Milnor number of a Fermat sum is the product of (a_i - 1)
    for exps in [(3, 4), (2, 2, 2), (5, 5), (3, 3, 3)]:
        names = tuple(f"x{i}" for i in range(1, len(exps) + 1))
        w = MultiPoly.parse(" + ".join(f"{v}^{a}" for v, a in zip(names, exps)))
        basis = jacobian_ideal(w).quotient_basis()
        product = 1
        for a in exps:
            product *= a - 1
        assert len(basis) == product


def test_quotient_basis_quintic_box():
    w = MultiPoly.parse("+".join(f"x{i}^5" for i in range(1, 6)))
    basis = jacobian_ideal(w).quotient_basis()
    assert len(basis) == 1024
    assert all(all(0 <= a <= 3 for a in exp) for exp in basis)


def test_quotient_basis_infinite():
    w = MultiPoly.parse("x^2*y")
    assert jacobian_ideal(w).quotient_basis() is None


def test_normal_form_multiplicativity(rng):
    w = MultiPoly.parse("x^4 + y^3 + x*y^2")
    ideal = jacobian_ideal(w)
    names = w.variables
    for _ in range(20):
        def random_poly():
            out = MultiPoly.zero(names)
            for _ in range(rng.randint(1, 4)):
                exp = (rng.randint(0, 4), rng.randint(0, 4))
                out = out + MultiPoly.monomial(names, exp,
                                               Fraction(rng.randint(-3, 3)))
            return out
        p, q = random_poly(), random_poly()
        lhs = ideal.normal_form(p * q)
        rhs = ideal.normal_form(ideal.normal_form(p) * ideal.normal_form(q))
        assert lhs == rhs


# -- exact cone membership ----------------------------------------------------

def test_cone_membership_basic():
    r = exact_lp_cone_membership([[1, 0], [0, 1]], [2, 3])
    assert r.inside and list(r.coefficients) == [2, 3]
    r = exact_lp_cone_membership([[1, 0]], [0, 1])
    assert not r.inside
    y = r.certificate
    assert y[0] * 1 + y[1] * 0 <= 0 and y[0] * 0 + y[1] * 1 > 0


def test_cone_membership_quintic_column():
    cols = [[1, 0]] * 5 + [[-5, 1]]
    assert exact_lp_cone_membership(cols, [1, 0]).inside


def test_cone_empty_generators():
    r = exact_lp_cone_membership([], [1, 2])
    assert not r.inside and r.certificate is not None
    assert sum(c * t for c, t in zip(r.certificate, [1, 2])) > 0
    r = exact_lp_cone_membership([], [0, 0])
    assert r.inside


def test_farkas_duality_random(rng):
    """Exactly one of membership/separation, and certificates verify by
    direct substitution."""
    for _ in range(60):
        k = rng.randint(1, 4)
        m = rng.randint(1, 6)
        vectors = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(k)] for _ in range(m)]
        if rng.random() < 0.5:
            lam = [Fraction(rng.randint(0, 4)) for _ in range(m)]
            target = [sum(lam[i] * vectors[i][j] for i in range(m))
                      for j in range(k)]
        else:
            target = [Fraction(rng.randint(-6, 6)) for _ in range(k)]
        res = exact_lp_cone_membership(vectors, target)
        if res.inside:
            coeffs = res.coefficients
            assert all(c >= 0 for c in coeffs)
            recon = [sum(coeffs[i] * vectors[i][j] for i in range(m))
                     for j in range(k)]
            assert recon == [Fraction(t) for t in target]
        else:
            y = res.certificate
            assert sum(a * b for a, b in zip(y, target)) > 0
            for v in vectors:
                assert sum(a * b for a, b in zip(y, v)) <= 0


# -- exact linear algebra -----------------------------------------------------

def leibniz_det(mat):
    """The determinant as a signed sum over permutations."""
    total = Fraction(0)
    for perm in permutations(range(len(mat))):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        total += (-1) ** inversions * prod(mat[i][perm[i]] for i in range(len(perm)))
    return total


def test_linalg_roundtrip(rng):
    for _ in range(15):
        n = rng.randint(1, 4)
        mat = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        d = leibniz_det(mat)
        inv = inverse(sparse(mat))
        if d == 0:
            assert inv is None
            assert rank(sparse(mat)) < n
        else:
            assert mat_mul(sparse(mat), inv) == identity(n)
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            x = solve(sparse(mat), sparse([rhs])[0], n)
            assert [sum(mat[i][j] * x.get(j, 0) for j in range(n)) for i in range(n)] == rhs


def test_linalg_over_cyclotomics():
    z = Cyclo.root_of_unity(5)
    mat = [[Cyclo.one(), z], [z ** 4, Cyclo.one()]]
    # determinant 1 - 1 = 0: singular
    assert inverse(sparse(mat), one=Cyclo.one()) is None
    mat2 = [[Cyclo.one(), z], [Cyclo.zero(), Cyclo.one()]]
    inv = inverse(sparse(mat2), one=Cyclo.one())
    assert inv[0][1] == -z
