"""The group lattice, its elements, sectors, ages."""

import json
import random
from fractions import Fraction

import pytest

from lgck.cli import main
from lgck.glsm import semistable_locus
from lgck.orbifold import DiagonalGroup, GroupElement, inertia_sectors, inverses

from conftest import make_quintic_glsm
from corpus import corpus
from witnesses import fixes, inverse


def _elements(generators, bound=10 ** 6):
    return DiagonalGroup(generators).elements(bound)


def test_enumerate_cyclic():
    group = _elements([GroupElement([Fraction(1, 5)] * 5)])
    assert len(group) == 5


def test_enumerate_klein():
    group = _elements([GroupElement([Fraction(1, 2), 0]),
                       GroupElement([0, Fraction(1, 2)])])
    assert len(group) == 4


def test_generator_and_inverse_agree():
    g1 = _elements([GroupElement([Fraction(1, 3), Fraction(1, 3)])])
    g2 = _elements([GroupElement([Fraction(2, 3), Fraction(2, 3)])])
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
        got = _elements(gens)
        want = _fraction_closure(gens)
        assert [h.phases for h in got] == [h.phases for h in want]
        assert set(got) == set(want)
        assert all(type(p) is Fraction and 0 <= p < 1 for h in got for p in h.phases)


def test_group_order_bound():
    with pytest.raises(ValueError):
        _elements([GroupElement([Fraction(1, 101)])], bound=50)


def test_age_values():
    assert GroupElement([0, 0]).age() == 0
    for k in range(1, 5):
        assert GroupElement([Fraction(k, 5)] * 5).age() == k
    assert GroupElement([Fraction(1, 2), Fraction(1, 2)]).age() == 1


def test_age_inverse_sum_property():
    """h.age() + h^{-1}.age() = number of moving coordinates."""
    gens = [GroupElement([Fraction(1, 5), Fraction(2, 5), 0, Fraction(1, 2)])]
    for h in _elements(gens):
        moving = sum(1 for p in h.phases if p != 0)
        assert h.age() + inverse(h).age() == moving
        assert h.fixed_support() == inverse(h).fixed_support()


def test_quintic_sectors(quintic_lg):
    sectors = inertia_sectors(quintic_lg)
    assert len(sectors) == 5
    broad = [s for s in sectors if s.fixed_support()]
    assert len(broad) == 1
    assert broad[0].fixed_support() == frozenset(range(5))
    narrow_ages = sorted(s.age() for s in sectors if not s.fixed_support())
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
    assert len(sectors) == 1 and sectors[0].fixed_support()


def test_z2_partial_fixed_support():
    group = _elements([GroupElement([Fraction(1, 2), 0])])
    h = [g for g in group if any(g.phases)][0]
    assert h.fixed_support() == frozenset({1})


def test_fixed_support_of_j_matches_charges(quintic_lg):
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
        want = _fraction_closure([GroupElement(g) for g in gens])
        assert DiagonalGroup(gens).order == len(want), gens


def test_group_bound_checked_before_enumeration(monkeypatch):
    """Above the bound no element is built: GroupElement is patched to
    refuse, and within the bound the same patch does fire."""
    import lgck.orbifold as orbifold

    class Refused(GroupElement):
        __slots__ = ()

        def __new__(cls, *args):
            raise AssertionError("built an element")

    for gens in ([[Fraction(1, 2000), 0], [0, Fraction(1, 2000)]], [[Fraction(1, 10 ** 9)]]):
        group = DiagonalGroup(gens)
        with monkeypatch.context() as patched:
            patched.setattr(orbifold, "GroupElement", Refused)
            with pytest.raises(ValueError, match="exceeds bound 1000000"):
                group.elements()
            with pytest.raises(AssertionError, match="built an element"):
                DiagonalGroup([[Fraction(1, 2)]]).elements()  # within the bound


def _random_group(rng):
    n, d = rng.randint(1, 4), rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12])
    gens = [[Fraction(rng.randrange(2 * d), d) for _ in range(n)]
            for _ in range(rng.randint(1, 3))]
    return n, d, gens


def test_fixes_matches_brute_force():
    """A character is trivial on G iff exp(2 pi i <chi, h>) = 1 for every
    element h, on all coordinates and on a random support."""
    rng = random.Random(18)
    for _ in range(300):
        n, d, gens = _random_group(rng)
        group = DiagonalGroup(gens)
        elements = group.elements()
        chi = [rng.randrange(-2 * d, 2 * d) for _ in range(n)]
        want = all(sum(c * p for c, p in zip(chi, h.phases)) % 1 == 0 for h in elements)
        assert fixes(group, chi) == want, (gens, chi)
        support = sorted(rng.sample(range(n), rng.randint(0, n)))
        on_support = [chi[i] for i in support]
        want = all(sum(c * h.phases[i] for i, c in zip(support, on_support)) % 1 == 0
                   for h in elements)
        assert fixes(group, on_support, support) == want, (gens, chi, support)


def test_contains_matches_membership():
    rng = random.Random(19)
    for _ in range(300):
        n, d, gens = _random_group(rng)
        group = DiagonalGroup(gens)
        elements = set(h.phases for h in group.elements())
        den = rng.choice([d, 2 * d, 3 * d, 7])
        phases = [Fraction(rng.randrange(-2 * den, 2 * den), den) for _ in range(n)]
        assert group.contains(phases) == (tuple(p % 1 for p in phases) in elements), \
            (gens, phases)
        h = rng.choice(sorted(elements))
        assert group.contains(h) and group.contains([p + 1 for p in h])


def test_integer_element_data_matches_the_phases(quintic_state):
    """Ages, fixed loci and inverses read off the integer numerators agree
    with the Fraction phases, on random groups and on the quintic's sectors."""
    rng = random.Random(29)
    for _ in range(200):
        n, d = rng.randint(1, 4), rng.randint(1, 12)
        gens = [[Fraction(rng.randrange(2 * d), d) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        elements = _elements(gens)
        for h in elements + [GroupElement(g) for g in gens]:
            assert h.age() == sum(h.phases), gens
            assert h.fixed_support() == {i for i, p in enumerate(h.phases) if p == 0}, gens
        inv = inverses(elements)
        assert all(inv[h.phases] == tuple((-p) % 1 for p in h.phases) for h in elements), gens
    assert all(back == tuple((-p) % 1 for p in key)
               for key, back in quintic_state.inverse.items())


def test_affine_test_matches_semistable_locus():
    """inertia_sectors refuses a model exactly when semistable_locus at nu
    has a maximal unstable support: never on the corpus, on the GLSM quintic."""
    models = corpus()
    assert len(models) == 20
    glsm = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    for name, model in models + [("glsm quintic", glsm)]:
        affine = semistable_locus(model, model.nu).max_unstable_supports == ()
        try:
            inertia_sectors(model)
        except ValueError:
            assert not affine, name
        else:
            assert affine, name


def test_sectors_refuses_the_glsm_quintic(tmp_path, capsys):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1).to_dict()))
    assert main(["sectors", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: model is not in the affine regime (V^ss != V); only narrow-sector "
        "bookkeeping is available for geometric phases\n")
