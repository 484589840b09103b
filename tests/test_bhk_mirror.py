"""Berglund-Hübsch-Krawitz mirror symmetry of state spaces, as an oracle.

For an invertible potential W = sum_i prod_j x_j^(A_ij) and a group
J in G in G_max(W), the dual group is

    G^T = {theta in G_max(W^T) : x^(A^T theta) is G-invariant},

and H^{p,q}(W, G) = H^{c-p,q}(W^T, G^T), c the central charge
(Berglund-Hübsch 1993; Krawitz 2010; Ebeling-Gusein-Zade-Takahashi 2016).
A class x^e dx_fixed in sector g has the bidegree

    (w + age - sum q, N_g - w + age - sum q),   w = sum_fixed (e_i + 1) q_i,

with N_g = dim Fix(g) and w = 0 on a narrow sector; the two entries sum to
the degree ``sector_space`` reports.  Both sides are read off
``sector_space(model, h, group)`` summed over the elements h of the group.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from lgck.exactalg.linalg import inverse, mat_mul, sparse
from lgck.glsm import GlsmModel
from lgck.orbifold import DiagonalGroup
from lgck.statespace import sector_space

from witnesses import fixes

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _model(a) -> GlsmModel:
    """The LG model of the potential with exponent matrix ``a`` (rows are monomials)."""
    n = len(a)
    names = [f"x{j}" for j in range(1, n + 1)]
    q = [sum(row.values()) for row in _inverse(a)]  # A q = 1
    d = lcm(*(x.denominator for x in q))
    charges = [int(x * d) for x in q]
    return GlsmModel.from_dict({
        "variables": names, "torus_weights": [charges], "finite_generators": [],
        "chi": [d], "nu": [0], "r_charges": charges, "d_w": d,
        "potential": " + ".join("*".join(f"{v}^{e}" for v, e in zip(names, row) if e)
                                for row in a)})


def _inverse(a):
    inv = inverse(sparse(a))
    assert mat_mul(sparse(a), inv) == [{i: 1} for i in range(len(a))]
    return inv


def _columns(rows):
    """The columns of sparse square rows, as dense phase vectors."""
    n = len(rows)
    return [[rows[i].get(k, Fraction(0)) for i in range(n)] for k in range(n)]


def _gmax(a) -> DiagonalGroup:
    """G_max(W): the theta with A theta integral, generated by the columns of A^-1."""
    return DiagonalGroup(_columns(_inverse(a)))


def _dual_group(a, group: DiagonalGroup) -> DiagonalGroup:
    transposed = [list(col) for col in zip(*a)]
    members = []
    for theta in _gmax(transposed).elements():
        character = [sum(row[i] * theta.phases[i] for i in range(len(a))) for row in transposed]
        assert all(c.denominator == 1 for c in character)
        if fixes(group, [int(c) for c in character]):
            members.append(theta)
    return DiagonalGroup(members)


def _table(model: GlsmModel, group: DiagonalGroup) -> Counter:
    """dim H^{p,q}, summed over the sectors of ``group``."""
    weights = [Fraction(c, model.d_w) for c in model.r_charges]
    table, memo = Counter(), {}
    for h in group.elements():
        space = sector_space(model, h, group, memo)
        fixed, age = sorted(h.fixed_support()), h.age()
        for exp in [()] if space.narrow else space.basis:
            w = sum(((e + 1) * weights[i] for i, e in zip(fixed, exp)), Fraction(0))
            p, q = w + age - model.q, len(fixed) - w + age - model.q
            assert p + q == space.degree
            table[p, q] += 1
    return table


def _assert_mirror(a, group: DiagonalGroup) -> Counter:
    model = _model(a)
    dual = _dual_group(a, group)
    assert dual.order * group.order == _gmax(a).order
    c_hat = sum(1 - 2 * Fraction(c, model.d_w) for c in model.r_charges)
    table = _table(model, group)
    mirror = _table(_model([list(col) for col in zip(*a)]), dual)
    assert table == Counter({(c_hat - p, q): k for (p, q), k in mirror.items()})
    return table


def test_quintic_and_its_order_625_dual():
    """The quintic with <J> has the Hodge diamond of the quintic threefold,
    and its dual (SL in G_max, order 625) the mirror diamond."""
    a = [[5 * (i == j) for j in range(5)] for i in range(5)]
    table = _assert_mirror(a, DiagonalGroup([[Fraction(1, 5)] * 5]))
    assert table == Counter({(0, 3): 1, (1, 2): 101, (2, 1): 101, (3, 0): 1,
                             (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})


@st.composite
def exponent_matrices(draw, max_vars=4):
    """Block-diagonal exponent matrices of Fermat x^a, loop x1^a1 x2 + ... +
    xk^ak x1 and chain x1^a1 x2 + ... + xk^ak blocks."""
    blocks, room = [], max_vars
    while room and (not blocks or draw(st.booleans())):
        kind = draw(st.sampled_from(("fermat", "loop", "chain")[:1 if room == 1 else 3]))
        k = 1 if kind == "fermat" else draw(st.integers(2, room))
        blocks.append((kind, draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))))
        room -= k
    n = max_vars - room
    a, offset = [[0] * n for _ in range(n)], 0
    for kind, exponents in blocks:
        k = len(exponents)
        for i, e in enumerate(exponents):
            a[offset + i][offset + i] = e
            if kind == "loop" or (kind == "chain" and i + 1 < k):
                a[offset + i][offset + (i + 1) % k] = 1
        offset += k
    return a


@settings(max_examples=40, deadline=None)
@given(exponent_matrices(), st.lists(st.lists(st.integers(0, 60), min_size=4, max_size=4),
                                     max_size=2))
def test_bigraded_state_space_is_mirror_symmetric(a, coefficients):
    """J in G in G_max(W), G generated by J and random elements of G_max."""
    n = len(a)
    columns = _columns(_inverse(a))
    j = [sum(row) for row in zip(*columns)]
    extra = [[sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(n)]
             for coeffs in coefficients]
    _assert_mirror(a, DiagonalGroup([j, *extra]))
