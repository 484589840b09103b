"""Group enumeration, sectors, ages."""

import random
from fractions import Fraction

import pytest

from lgck.orbifold import GroupElement, Sector, enumerate_group, group_order, inertia_sectors

from conftest import make_quintic_glsm


def test_enumerate_cyclic():
    group = enumerate_group([GroupElement([Fraction(1, 5)] * 5)])
    assert len(group) == 5


def test_enumerate_klein():
    group = enumerate_group([GroupElement([Fraction(1, 2), 0]),
                             GroupElement([0, Fraction(1, 2)])])
    assert len(group) == 4


def test_generator_and_inverse_agree():
    g1 = enumerate_group([GroupElement([Fraction(1, 3), Fraction(1, 3)])])
    g2 = enumerate_group([GroupElement([Fraction(2, 3), Fraction(2, 3)])])
    assert g1 == g2


def _fraction_closure(gens):
    """Reference: the breadth-first closure under GroupElement products,
    with Fraction phases throughout."""
    identity = GroupElement([0] * len(gens[0].phases))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                if (y := x * g) not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def test_enumerate_group_matches_fraction_search(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = [GroupElement([Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 4, 6, 10]))
                              for _ in range(n)]) for _ in range(rng.randint(1, 3))]
        got = enumerate_group(gens)
        want = _fraction_closure(gens)
        assert [h.phases for h in got] == [h.phases for h in want]
        assert set(got) == set(want)
        assert all(type(p) is Fraction and 0 <= p < 1 for h in got for p in h.phases)


def test_group_order_bound():
    with pytest.raises(ValueError):
        enumerate_group([GroupElement([Fraction(1, 101)])], bound=50)


def test_age_values():
    assert GroupElement([0, 0]).age() == 0
    for k in range(1, 5):
        assert GroupElement([Fraction(k, 5)] * 5).age() == k
    assert GroupElement([Fraction(1, 2), Fraction(1, 2)]).age() == 1


def test_age_inverse_sum_property():
    """h.age() + h^{-1}.age() = number of moving coordinates."""
    gens = [GroupElement([Fraction(1, 5), Fraction(2, 5), 0, Fraction(1, 2)])]
    for h in enumerate_group(gens):
        moving = sum(1 for p in h.phases if p != 0)
        assert h.age() + h.inverse().age() == moving
        assert h.fixed_support() == h.inverse().fixed_support()


def test_quintic_sectors(quintic_lg):
    sectors = inertia_sectors(quintic_lg)
    assert len(sectors) == 5
    broad = [s for s in sectors if not s.narrow]
    assert len(broad) == 1
    assert broad[0].fixed_support == frozenset(range(5))
    narrow_ages = sorted(s.age for s in sectors if s.narrow)
    assert narrow_ages == [1, 2, 3, 4]


def test_trivial_group_single_broad_sector():
    from lgck.glsm import GlsmModel
    model = GlsmModel.from_dict({
        "variables": ["x"],
        "torus_weights": [[1]],
        "finite_generators": [],
        "chi": [1],
        "nu": [0],
        "r_charges": [1],
        "d_w": 1,
        "potential": "x",
    })
    sectors = inertia_sectors(model)
    assert len(sectors) == 1 and not sectors[0].narrow


def test_z2_partial_fixed_support():
    group = enumerate_group([GroupElement([Fraction(1, 2), 0])])
    h = [g for g in group if any(g.phases)][0]
    assert Sector.of(h).fixed_support == frozenset({1})


def test_fixed_support_of_j_matches_charges(quintic_lg):
    from corpus import corpus
    for name, model in [("quintic", quintic_lg)] + corpus():
        j = GroupElement(model.j_phases)
        expect = frozenset(i for i, c in enumerate(model.r_charges)
                           if c % model.d_w == 0)
        assert j.fixed_support() == expect, name


def test_non_affine_regime_rejected():
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    with pytest.raises(ValueError, match="narrow-sector bookkeeping"):
        inertia_sectors(model)


def test_group_order_matches_enumeration():
    rng = random.Random(14)
    for _ in range(300):
        n, d = rng.randint(1, 4), rng.randint(1, 12)
        gens = [[Fraction(rng.randrange(2 * d), d) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        assert group_order(gens) == len(enumerate_group(gens)), gens


def test_group_bound_checked_before_enumeration(monkeypatch):
    def no_products(self, other):
        raise AssertionError("enumerated a group above the bound")

    monkeypatch.setattr(GroupElement, "__mul__", no_products)
    for gens in ([[Fraction(1, 2000), 0], [0, Fraction(1, 2000)]], [[Fraction(1, 10 ** 9)]]):
        with pytest.raises(ValueError, match="exceeds bound 1000000"):
            enumerate_group(gens)
