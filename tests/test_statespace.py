"""Sector spaces, the residue pairing, and sums of singularities."""

from collections import Counter
from fractions import Fraction

import pytest

from lgck.exactalg import Cyclo, MultiPoly, jacobian_ideal, zeta
from lgck.glsm import GlsmModel
from lgck.orbifold import GroupElement
from lgck.statespace import (
    NonIsolatedSingularityError,
    StateSpace,
    kunneth_sum,
    residue,
    sector_space,
    sum_model,
    with_scaled_charges,
)

from corpus import corpus, fermat_model, loop_model, small_corpus


# -- residues ------------------------------------------------------------------

def univariate_fermat_residue(exponent: int, power: int) -> Fraction:
    """Independent oracle: res(x^b dx / (a x^{a-1})) = 1/a when b = a - 2."""
    return Fraction(1, exponent) if power == exponent - 2 else Fraction(0)


def test_residue_quintic_socle():
    w = MultiPoly.parse("+".join(f"x{i}^5" for i in range(1, 6)))
    p = MultiPoly.parse("*".join(f"x{i}^3" for i in range(1, 6)), w.variables)
    got = residue(p, w)
    expect = Fraction(1)
    for _ in range(5):
        expect *= univariate_fermat_residue(5, 3)
    assert got == expect == Fraction(1, 3125)
    # consistency: res(hessian) = milnor number; hessian = 20^5 prod x^3
    hess = p * (20 ** 5)
    assert residue(hess, w) == 1024


def test_residue_low_degree_vanishes():
    w = MultiPoly.parse("x^5 + y^5")
    assert residue(MultiPoly.parse("x*y", w.variables), w) == 0


def test_residue_cubic():
    w = MultiPoly.parse("x^3")
    assert residue(MultiPoly.parse("x", w.variables), w) == Fraction(1, 3)
    assert residue(MultiPoly.parse("6*x", w.variables), w) == 2  # hessian = mu


def test_residue_iterated_oracle(rng):
    """Multivariate Fermat residues factor into univariate ones."""
    for _ in range(10):
        exps = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
        names = tuple(f"x{i}" for i in range(1, len(exps) + 1))
        w = MultiPoly.parse(" + ".join(f"{v}^{a}" for v, a in zip(names, exps)))
        powers = [rng.randint(0, a - 2) for a in exps]
        p = MultiPoly.monomial(names, tuple(powers), 1)
        expect = Fraction(1)
        for a, b in zip(exps, powers):
            expect *= univariate_fermat_residue(a, b)
        assert residue(p, w) == expect


def test_residue_nonisolated_rejected():
    w = MultiPoly.parse("x^2*y")
    with pytest.raises(NonIsolatedSingularityError):
        residue(MultiPoly.parse("x", w.variables), w)


def test_socle_degree_check(monkeypatch):
    """A hessian class one degree off the socle degree sum(1 - 2q_i) is
    refused with the check named."""
    from lgck.exactalg.groebner import PolyIdeal
    w = MultiPoly.parse("x^3 + y^4")
    original = PolyIdeal.normal_form
    monkeypatch.setattr(PolyIdeal, "normal_form",
                        lambda ideal, p: original(ideal, p) * MultiPoly.var(w.variables, "x"))
    with pytest.raises(ValueError, match="socle_degree check fails"):
        residue(MultiPoly.parse("x*y^2", w.variables), w)


# -- quintic sector spaces -----------------------------------------------------

def test_quintic_sector_dimensions(quintic_state):
    dims = sorted(quintic_state.spaces[s.element.phases].dimension
                  for s in quintic_state.sectors)
    assert dims == [1, 1, 1, 1, 204]
    assert quintic_state.total_dimension() == 208


def test_quintic_broad_degree_profile(quintic_state):
    space = quintic_state.space((Fraction(0),) * 5)
    profile = Counter(sum(e) for e in space.basis)
    assert dict(profile) == {0: 1, 5: 101, 10: 101, 15: 1}
    assert space.degree == 3


def test_quintic_age_grading(quintic_state):
    hist = quintic_state.degree_histogram()
    assert {str(k): v for k, v in hist.items()} == \
        {"0": 1, "2": 1, "3": 204, "4": 1, "6": 1}


def test_single_variable_sector_dimension():
    # Jac(x^2) is one-dimensional; the invariant part of the identity
    # sector of the A1 orbifold is empty but the total space is 1-dim
    model = fermat_model([2])
    state = StateSpace(model)
    assert state.total_dimension() == 1
    basis = jacobian_ideal(MultiPoly.parse("x^2")).quotient_basis()
    assert len(basis) == 1  # the unorbifolded statement: Jac(x^2) = C


def test_nonisolated_sector_names_culprit():
    bad = GlsmModel.from_dict({
        "variables": ["x", "y"],
        "torus_weights": [[1, 2]],
        "finite_generators": [],
        "chi": [4],
        "nu": [0],
        "r_charges": [1, 2],
        "d_w": 4,
        "potential": "x^2*y",
    })
    with pytest.raises(NonIsolatedSingularityError, match="sector"):
        sector_space(bad, GroupElement([0, 0]))


# -- inversion pullback and pairing ----------------------------------------------

def _eta(state, phases, i, j) -> Cyclo:
    """eta(e_i, f_j) for the i-th basis class e_i of the sector ``phases`` and
    the j-th basis class f_j of its inverse sector, off the sparse Gram rows."""
    return state.gram_rows(phases)[i].get(j, Cyclo.zero())


def test_inv_pullback_narrow(quintic_state):
    """The pullback moves a narrow class to the inverse sector unscaled."""
    phases = (Fraction(1, 5),) * 5
    assert GroupElement(phases).inverse().phases == (Fraction(4, 5),) * 5
    assert quintic_state._inversion_scalars(quintic_state.space(phases)) == [1]


def test_inv_pullback_broad_socle(quintic_state):
    space = quintic_state.space((Fraction(0),) * 5)
    scalars = quintic_state._inversion_scalars(space)
    # scalar zeta^{15 + 5} with zeta = exp(pi i / 5): zeta^20 = 1
    assert scalars[space.basis.index((3, 3, 3, 3, 3))] == 1
    # a degree-5 monomial picks up zeta^{5 + 5} = zeta^10 = e^{2 pi i} = 1
    i5 = next(i for i, e in enumerate(space.basis) if sum(e) == 5)
    assert scalars[i5] == zeta(10, 10)  # = 1


def test_pairing_narrow_duals(quintic_state):
    for k in range(1, 5):
        phases = (Fraction(k, 5),) * 5
        assert GroupElement(phases).inverse().phases == (Fraction(5 - k, 5),) * 5
        assert _eta(quintic_state, phases, 0, 0) == 1


def test_pairing_sector_selection(quintic_state):
    """A sector pairs only with its inverse: the Gram block of the narrow
    sector 1/5 is indexed by the basis of the sector 4/5, not its own."""
    phases = (Fraction(1, 5),) * 5
    inv = GroupElement(phases).inverse().phases
    assert inv != phases
    assert quintic_state.gram_block(phases).width == quintic_state.space(inv).dimension


def test_pairing_degree_selection_all_corpus():
    """Nonzero pairings only between sectors whose degrees sum to 2 c-hat."""
    for name, model in corpus():
        state = StateSpace(model)
        target = 2 * model.central_charge
        for sec in state.sectors:
            phases = sec.element.phases
            space = state.spaces[phases]
            inv = sec.element.inverse().phases
            other = state.spaces[inv]
            gram = state.gram_matrix(phases)
            has_nonzero = any(x for row in gram for x in row)
            if has_nonzero:
                assert space.degree + other.degree == target, name


def test_gram_nonsingular_all_corpus():
    for name, model in corpus():
        state = StateSpace(model)
        for sec in state.sectors:
            assert state.gram_nonsingular(sec.element.phases), \
                f"{name}: singular Gram on {sec.element.label()}"


def test_sector_dimension_symmetry():
    for name, model in corpus():
        state = StateSpace(model)
        for sec in state.sectors:
            inv = sec.element.inverse().phases
            assert state.spaces[sec.element.phases].dimension == \
                state.spaces[inv].dimension, name


def test_pairing_supersymmetry(quintic_state):
    """eta(a, b) = (-1)^{|a||b|} eta(b, a); broad quintic classes are odd."""
    space = quintic_state.space((Fraction(0),) * 5)
    i5 = next(i for i, e in enumerate(space.basis) if sum(e) == 5)
    partner = tuple(3 - a for a in space.basis[i5])
    i10 = space.basis.index(partner)
    broad = (Fraction(0),) * 5
    assert _eta(quintic_state, broad, i5, i10) == -1 * _eta(quintic_state, broad, i10, i5)
    # narrow sectors are even
    n1, n4 = (Fraction(1, 5),) * 5, (Fraction(4, 5),) * 5
    assert _eta(quintic_state, n1, 0, 0) == _eta(quintic_state, n4, 0, 0)


def character_sum_dimension(state, phases):
    """Independent oracle: the dimension of the invariant part is the
    averaged character sum (1/|G|) sum_g tr(g), evaluated exactly in
    cyclotomic arithmetic over the standard-monomial basis twisted by the
    top form."""
    space = state.space(phases)
    if space.narrow:
        return 1
    fixed = sorted(space.sector.fixed_support)
    total = Cyclo.zero()
    for g in state.group:
        det_phase = sum((g.phases[i] for i in fixed), Fraction(0))
        for exp in space.calculator.standard_monomials:
            t = sum((g.phases[i] * a for i, a in zip(fixed, exp)),
                    det_phase) % 1
            total = total + Cyclo.root_of_unity(t.denominator, t.numerator)
    val = total * Fraction(1, state.group_order)
    return val.as_fraction()


def test_invariant_dimensions_match_character_sums():
    picks = [m for name, m in corpus() if name in
             ("A3", "D4", "E6", "loop_23", "fermat_44_z2", "fermat_333")]
    for model in picks:
        state = StateSpace(model)
        for sec in state.sectors:
            phases = sec.element.phases
            assert state.spaces[phases].dimension == \
                character_sum_dimension(state, phases)


def test_degree_histogram_symmetry():
    """dim at degree d equals dim at degree 2 c-hat - d (sector inversion)."""
    for name, model in corpus():
        state = StateSpace(model)
        hist = state.degree_histogram()
        target = 2 * model.central_charge
        for deg, count in hist.items():
            assert hist.get(target - deg) == count, name


def test_pairing_supersymmetry_corpus():
    """eta(a, b) = (-1)^{|a||b|} eta(b, a) with parity = dim V^h mod 2,
    on every sector pair of a few corpus models."""
    picks = [m for name, m in corpus() if name in
             ("loop_22", "E6", "fermat_44_z2", "chain_43")]
    for model in picks:
        state = StateSpace(model)
        for sec in state.sectors:
            phases = sec.element.phases
            inv = sec.element.inverse().phases
            space = state.spaces[phases]
            other = state.spaces[inv]
            sign = (-1) ** (len(space.sector.fixed_support) % 2)
            for i in range(space.dimension):
                for j in range(other.dimension):
                    assert _eta(state, phases, i, j) == sign * _eta(state, inv, j, i)


def test_inv_pullback_is_involution():
    """inv^2 multiplies by the J-action, which is trivial on invariant
    classes; so the pullback squares to the identity on every basis
    element: the scalars of a sector and of its inverse multiply to 1."""
    for name, model in corpus():
        state = StateSpace(model)
        for sec in state.sectors:
            there = state._inversion_scalars(state.space(sec.element))
            back = state._inversion_scalars(state.space(sec.element.inverse()))
            assert len(there) == len(back), name
            assert all(s * t == 1 for s, t in zip(there, back)), name


def test_broad_non_identity_sector_partial_fixed_support():
    """A sector fixing two of four coordinates, with nontrivial invariance:
    dims, degrees, and the hand-computed Gram entry -1/81 coming from
    res(zw) = mu/hessian-scale = 1/9, the stack factor 1/9, and the
    inversion scalar zeta^3 = -1."""
    model = GlsmModel.from_dict({
        "variables": ["x", "y", "z", "w"],
        "torus_weights": [[1, 1, 1, 1]],
        "finite_generators": [["1/3", "2/3", "0", "0"]],
        "chi": [3], "nu": [0],
        "r_charges": [1, 1, 1, 1], "d_w": 3,
        "potential": "x^3+y^3+z^3+w^3",
    })
    state = StateSpace(model)
    assert state.group_order == 9
    g = (Fraction(1, 3), Fraction(2, 3), Fraction(0), Fraction(0))
    space = state.space(g)
    assert space.dimension == 2
    assert sorted(space.basis_labels()) == ["w", "z"]
    assert space.degree == Fraction(4, 3)
    ginv = (Fraction(2, 3), Fraction(1, 3), Fraction(0), Fraction(0))
    assert space.degree + state.space(ginv).degree == 2 * model.central_charge
    gram = state.gram_matrix(g)
    zero, val = Cyclo.zero(), Cyclo.from_rational(Fraction(-1, 81))
    assert gram[0][0] == zero and gram[1][1] == zero
    assert gram[0][1] == val and gram[1][0] == val
    assert state.gram_nonsingular(g)


def test_state_space_enumerates_its_group_once(quintic_lg, monkeypatch):
    """The group and the sectors come from one lattice, enumerated once, and
    every sector space tests invariance against that lattice."""
    from lgck.orbifold import DiagonalGroup
    built, walks = [], []
    init, elements = DiagonalGroup.__init__, DiagonalGroup.elements

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_elements(self, *args, **kwargs):
        walks.append(self)
        return elements(self, *args, **kwargs)

    monkeypatch.setattr(DiagonalGroup, "__init__", counted_init)
    monkeypatch.setattr(DiagonalGroup, "elements", counted_elements)
    state = StateSpace(quintic_lg)
    assert len(built) == 1 and walks == built
    assert state.group == [sec.element for sec in state.sectors]
    assert state.group_order == 5


def test_corpus_models_validate():
    from lgck.glsm import validate
    for name, model in corpus():
        assert validate(model).passed, name


# -- sums of singularities -------------------------------------------------------

def test_sum_model_group_is_product():
    m1 = fermat_model([3], prefix="x")
    m2 = fermat_model([3], prefix="y")
    combined = sum_model(m1, m2)
    from lgck.glsm import validate
    assert validate(combined).passed
    state = StateSpace(combined)
    assert state.group_order == 9


def test_sum_milnor_numbers_multiply():
    # the unorbifolded statement dim Jac(x^3 (+) y^3) = 2 * 2
    w = MultiPoly.parse("x^3 + y^3")
    assert len(jacobian_ideal(w).quotient_basis()) == 4


def test_kunneth_dimensions_sectorwise():
    m1 = fermat_model([3], prefix="x")
    m2 = fermat_model([3], prefix="y")
    combined, state, witness = kunneth_sum(m1, m2)
    for entry in witness.pairs:
        assert entry["dim_sum"] == entry["dim_1"] * entry["dim_2"]
        assert entry["degree_sum_matches"]


def test_kunneth_mismatched_degree_rejected():
    m1 = fermat_model([2], prefix="x")
    m2 = fermat_model([3], prefix="y")
    with pytest.raises(ValueError, match="mismatched d_w"):
        sum_model(m1, m2)
    # rescaling fixes it
    combined = sum_model(with_scaled_charges(m1, 3), with_scaled_charges(m2, 2))
    assert combined.d_w == 6


def test_kunneth_variable_collision_rejected():
    m1 = fermat_model([3], prefix="x")
    m2 = fermat_model([4], prefix="x")
    with pytest.raises(ValueError, match="collision"):
        sum_model(with_scaled_charges(m1, 4), with_scaled_charges(m2, 3))


def test_kunneth_random_pairs(rng):
    """Sector-wise dimension product on random corpus pairs."""
    from math import lcm
    models = small_corpus()
    prefixes = iter("abcdefghijklmnopqrst")
    for trial in range(10):
        (n1, m1), (n2, m2) = rng.sample(models, 2)
        p1, p2 = next(prefixes), next(prefixes)
        m1 = _reprefix(m1, p1)
        m2 = _reprefix(m2, p2)
        scale = lcm(m1.d_w, m2.d_w)
        m1s = with_scaled_charges(m1, scale // m1.d_w)
        m2s = with_scaled_charges(m2, scale // m2.d_w)
        combined, state, witness = kunneth_sum(m1s, m2s)
        for entry in witness.pairs:
            assert entry["dim_sum"] == entry["dim_1"] * entry["dim_2"], \
                (n1, n2, entry)
            assert entry["degree_sum_matches"], (n1, n2, entry)


def test_kunneth_pairing_scales(rng):
    """eta on the sum equals the product of factor pairings times the
    recorded normalization scale (narrow conventions on mixed pairs)."""
    m1 = _reprefix(loop_model(2, 2), "u")
    m2 = _reprefix(fermat_model([3]), "v")
    combined, state, witness = kunneth_sum(m1, m2)
    s1, s2 = StateSpace(m1), StateSpace(m2)
    for entry in witness.pairs:
        k1 = tuple(Fraction(p) for p in entry["sector_1"])
        k2 = tuple(Fraction(p) for p in entry["sector_2"])
        joint = k1 + k2
        scale = Fraction(entry["pairing_scale"])
        sp1, sp2 = s1.space(k1), s2.space(k2)
        spj = state.space(joint)
        if not spj.dimension:
            continue
        for i1 in range(sp1.dimension):
            for j1 in range(sp2.dimension):
                a = _tensor_index(state, s1, s2, k1, k2, i1, j1)
                invk1 = GroupElement(k1).inverse().phases
                invk2 = GroupElement(k2).inverse().phases
                for i2 in range(s1.space(invk1).dimension):
                    for j2 in range(s2.space(invk2).dimension):
                        b = _tensor_index(state, s1, s2, invk1, invk2, i2, j2)
                        lhs = _eta(state, joint, a, b)
                        e1 = _eta(s1, k1, i1, i2)
                        e2 = _eta(s2, k2, j1, j2)
                        assert lhs == e1 * e2 * scale


def _reprefix(model, prefix):
    data = model.to_dict()
    mapping = {v: f"{prefix}{i}" for i, v in enumerate(model.variables, start=1)}
    text = data["potential"]
    # replace names longest-first to avoid prefix clashes
    for old in sorted(mapping, key=len, reverse=True):
        text = text.replace(old, mapping[old])
    data["variables"] = [mapping[v] for v in data["variables"]]
    data["potential"] = text
    return GlsmModel.from_dict(data)


def _tensor_index(state, s1, s2, k1, k2, i, j):
    """Index of the basis class of the sum sector matching basis i of k1 with j of k2."""
    joint = tuple(k1) + tuple(k2)
    spj = state.space(joint)
    sp1, sp2 = s1.space(k1), s2.space(k2)
    if sp1.narrow and sp2.narrow:
        return 0
    n1 = len(s1.model.variables)
    fixed1 = sorted(sp1.sector.fixed_support)
    fixed2 = sorted(sp2.sector.fixed_support)
    exp1 = sp1.basis[i] if not sp1.narrow else ()
    exp2 = sp2.basis[j] if not sp2.narrow else ()
    joint_fixed = sorted(GroupElement(joint).fixed_support())
    target = []
    for pos in joint_fixed:
        if pos < n1:
            target.append(exp1[fixed1.index(pos)])
        else:
            target.append(exp2[fixed2.index(pos - n1)])
    return spj.basis.index(tuple(target))
