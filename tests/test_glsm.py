"""GLSM validation, GIT phases, R-fixed loci, and the fixed-locus condition."""

import json
from fractions import Fraction
from itertools import product

import pytest

from lgck import glsm
from lgck.cli import main
from lgck.exactalg import ConeResult, MultiPoly, exact_lp_cone_membership
from lgck.exactalg.linalg import rank as mat_rank, sparse
from lgck.glsm import (
    ConeTester,
    GlsmModel,
    check_dagger,
    semistable_locus,
    validate,
)

from conftest import make_quintic_glsm, make_quintic_lg, scale_variables
from witnesses import is_semistable_support, r_fixed_locus, weight_checks


def test_validate_fermat_quintic():
    rep = validate(make_quintic_lg())
    assert rep.passed


def test_finite_generator_invariance_detail():
    """A generator with a large prime denominator fails on the first monomial
    it moves, with that monomial named; an invariant one passes."""
    config = make_quintic_lg().to_dict()
    config["finite_generators"] = [["1/1009", "0", "0", "0", "0"],
                                   ["1/5", "4/5", "0", "0", "0"]]
    checks = {c.name: c for c in validate(GlsmModel.from_dict(config)).checks}
    bad, good = checks["finite_generator_0_invariance"], checks["finite_generator_1_invariance"]
    assert (bad.passed, bad.detail) == (False, "monomial (5, 0, 0, 0, 0) not invariant")
    assert (good.passed, good.detail) == (True, "")


def test_validate_quasi_homogeneity_failure():
    model = GlsmModel.from_dict({
        "variables": ["x", "y"],
        "torus_weights": [[1, 1]],
        "finite_generators": [],
        "chi": [5],
        "nu": [0],
        "r_charges": [1, 1],
        "d_w": 5,
        "potential": "x^5 + y^3",
    })
    rep = validate(model)
    failed = {c.name for c in rep.checks if not c.passed}
    assert "quasi_homogeneous" in failed
    assert "euler_identity" in failed


def test_validate_quintic_glsm_weight_matrix():
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    assert validate(model).passed
    model_minus = make_quintic_glsm([-5, 1], [1, 1, 1, 1, 1, 0], 5)
    assert validate(model_minus).passed


def test_euler_identity_is_exact():
    # identity as polynomials, not numerically
    model = make_quintic_lg()
    rep = validate(model)
    assert any(c.name == "euler_identity" and c.passed for c in rep.checks)


def test_tail_regime_flag():
    # a charge can only exceed d_w on a variable absent from the potential
    model = GlsmModel.from_dict({
        "variables": ["x", "y"],
        "torus_weights": [[3, 1]],
        "finite_generators": [],
        "chi": [2],
        "nu": [0],
        "r_charges": [3, 1],
        "d_w": 2,
        "potential": "y^2",
    })
    plain = validate(model)
    assert plain.passed
    assert not any(c.name == "r_charges_within_d_w" for c in plain.checks)
    gated = validate(model, require_tail_regime=True)
    failed = {c.name for c in gated.checks if not c.passed}
    assert failed == {"r_charges_within_d_w"}


def test_potential_sign_under_zeta():
    """w(zeta x) = -w(x) for every validated corpus model."""
    from lgck.exactalg import Cyclo
    from corpus import corpus
    for name, model in corpus():
        scalars = [Cyclo.root_of_unity(2 * model.d_w) ** (Fraction(c).numerator)
                   for c in model.r_charges]
        assert scale_variables(model.potential, scalars) == -model.potential, name


def test_semistable_locus_cy_phase():
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    phase = semistable_locus(model, [1, 0])
    assert phase.max_unstable_supports == (frozenset({5}),)
    assert "x1 = x2 = x3 = x4 = x5 = 0" in phase.description
    assert phase.stable_equals_semistable


def test_semistable_locus_lg_phase():
    model = make_quintic_glsm([-5, 1], [1, 1, 1, 1, 1, 0], 5)
    phase = semistable_locus(model, [-5, 1])
    assert phase.max_unstable_supports == (frozenset({0, 1, 2, 3, 4}),)
    assert "x6 = 0" in phase.description
    assert phase.stable_equals_semistable


def test_semistable_zero_rank_torus():
    model = GlsmModel.from_dict({
        "variables": ["x", "y"],
        "torus_weights": [],
        "finite_generators": [["1/2", "1/2"]],
        "chi": [],
        "nu": [],
        "r_charges": [1, 1],
        "d_w": 2,
        "potential": "x^2 + y^2",
    })
    phase = semistable_locus(model, [])
    assert phase.max_unstable_supports == ()
    assert phase.description == "V^ss = V"


def test_semistability_monotone():
    """Enlarging a semistable support keeps it semistable."""
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    phase = semistable_locus(model, [1, 0])
    n = model.n_vars
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if is_semistable_support(phase, s):
            for j in range(n):
                assert is_semistable_support(phase, s | {j})


def test_r_fixed_locus():
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    assert r_fixed_locus(model, [0, 1]) == frozenset({0, 1, 2, 3, 4})
    assert r_fixed_locus(model, [1, 5]) == frozenset({5})
    assert r_fixed_locus(model, [0, 0]) == frozenset(range(6))


def test_dagger_pattern_of_the_running_example():
    """(nu+, R+) and (nu-, R-) hold; the reversed pairings fail."""
    assert check_dagger(make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)).holds
    assert not check_dagger(make_quintic_glsm([1, 0], [1, 1, 1, 1, 1, 0], 5)).holds
    assert check_dagger(make_quintic_glsm([-5, 1], [1, 1, 1, 1, 1, 0], 5)).holds
    assert not check_dagger(make_quintic_glsm([-5, 1], [0, 0, 0, 0, 0, 1], 1)).holds


def test_dagger_affine_model_always_holds():
    assert check_dagger(make_quintic_lg()).holds


def test_central_charge_both_r_charges():
    plus = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    minus = make_quintic_glsm([-5, 1], [1, 1, 1, 1, 1, 0], 5)
    assert plus.central_charge == 3
    assert minus.central_charge == 3
    assert plus.q == 1 and minus.q == 1


def test_affine_models_stability():
    """For finite kernels the affine locus is everything and stable =
    semistable."""
    model = make_quintic_lg()
    phase = semistable_locus(model, model.nu)
    assert phase.max_unstable_supports == ()
    assert phase.stable_equals_semistable


def test_json_roundtrip(tmp_path):
    model = make_quintic_lg()
    path = tmp_path / "model.json"
    import json
    path.write_text(json.dumps(model.to_dict()))
    again = GlsmModel.from_dict(json.loads(path.read_text()))
    assert again.potential == model.potential
    assert again.r_charges == model.r_charges
    assert again.torus_weights == model.torus_weights


def _random_model(rng, n, k):
    """A model whose only role is its weight matrix and chi; the potential is 0."""
    names = tuple(f"x{i}" for i in range(n))
    return GlsmModel(
        names, tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(k)),
        (), tuple(Fraction(rng.randint(-3, 3)) for _ in range(k)), (Fraction(0),) * k,
        (Fraction(0),) * n, 1, MultiPoly.zero(names))


def _in_cone(gens, character):
    return exact_lp_cone_membership(gens, character).inside


def test_support_walk_matches_brute_force(rng):
    """Maximal unstable supports and stable = semistable against all 2^n supports."""
    for _ in range(150):
        n, k = rng.randint(1, 6), rng.randint(1, 2)
        model = _random_model(rng, n, k)
        character = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        supports = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
        cols = {s: [model.weight_column(i) for i in sorted(s)] for s in supports}
        unstable = [s for s in supports if not _in_cone(cols[s], character)]
        maximal = sorted((s for s in unstable if not any(s < t for t in unstable)),
                         key=lambda s: (len(s), sorted(s)))
        chi_line = [list(model.chi), [-x for x in model.chi]]
        stable_eq = all(mat_rank(sparse(cols[s] + [list(model.chi)])) >= k for s in supports
                        if _in_cone(cols[s] + chi_line, character))
        phase = semistable_locus(model, character)
        assert list(phase.max_unstable_supports) == maximal, (model, character)
        assert phase.stable_equals_semistable == stable_eq, (model, character)


def _count_lps(monkeypatch):
    calls = []

    def counted(vectors, target):
        calls.append(1)
        return exact_lp_cone_membership(vectors, target)

    monkeypatch.setattr(glsm, "exact_lp_cone_membership", counted)
    return calls


def test_affine_phase_lp_count(monkeypatch):
    """nu = 0 puts every support in V^ss: the walk stops after the empty support."""
    names = [f"x{i}" for i in range(1, 9)]
    model = GlsmModel.from_dict({
        "variables": names, "torus_weights": [[1] * 8], "finite_generators": [],
        "chi": [3], "nu": [0], "r_charges": [1] * 8, "d_w": 3,
        "potential": " + ".join(f"{v}^3" for v in names)})
    calls = _count_lps(monkeypatch)
    phase = semistable_locus(model, model.nu)
    assert phase.max_unstable_supports == () and phase.stable_equals_semistable
    assert len(calls) <= 3


def test_quintic_glsm_lp_count(monkeypatch):
    """Both quintic phases and the dagger check: 205 LPs plus the empty-support probe."""
    calls = _count_lps(monkeypatch)
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    semistable_locus(model, [1, 0])
    semistable_locus(model, [-5, 1])
    assert check_dagger(model).holds
    assert len(calls) <= 206


def test_quintic_phase_at_nu_shares_the_dagger_lp(monkeypatch, tmp_path):
    """The phase at nu and the dagger check share one tester: both quintic
    phases and the dagger check make 205 LPs, and ``lgck phases`` at nu
    makes no LP beyond the phase's own."""
    calls = _count_lps(monkeypatch)
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    tester = ConeTester(model, model.nu)
    semistable_locus(model, model.nu, tester)
    alone = len(calls)
    semistable_locus(model, [-5, 1])
    assert check_dagger(model, tester).holds
    assert len(calls) == 205
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(model.to_dict()))
    del calls[:]
    assert main(["phases", str(path), "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == alone


@pytest.mark.parametrize("flip", ["inside", "outside"])
def test_cone_answer_is_reverified(monkeypatch, flip):
    """An LP answer its coefficients or certificate do not support raises."""
    def lying(vectors, target):
        ans = exact_lp_cone_membership(vectors, target)
        if ans.inside == (flip == "inside"):
            return ConeResult(not ans.inside, ans.certificate, ans.coefficients)
        return ans

    monkeypatch.setattr(glsm, "exact_lp_cone_membership", lying)
    model = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    with pytest.raises(ValueError, match="support"):
        semistable_locus(model, [1, 0])


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_rationals = st.builds(Fraction, st.integers(-4, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def weighted_models(draw):
    """Rational R-charges, one or two rational torus rows, and a potential
    that mixes monomials of R-weight d_w with others; chi is the torus
    weight of one of the monomials or drawn at random."""
    n = draw(st.integers(1, 3))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    charges = draw(st.lists(_rationals, min_size=n, max_size=n))
    box = list(product(range(5), repeat=n))
    r_weight = {e: sum(c * a for c, a in zip(charges, e)) for e in box}
    degrees = sorted({int(r) for r in r_weight.values() if r.denominator == 1 and r > 0})
    d_w = draw(st.sampled_from(degrees or [1, 2, 3]))
    on = [e for e in box if r_weight[e] == d_w]
    exps = draw(st.lists(st.sampled_from(on), max_size=3, unique=True)) if on else []
    exps += draw(st.lists(st.sampled_from([e for e in box if e not in on]),
                          max_size=2, unique=True))
    exps = draw(st.permutations(exps))
    k = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=k, max_size=k))
    if exps and draw(st.booleans()):
        chi = [sum(x * a for x, a in zip(row, exps[0])) for row in rows]
    else:
        chi = draw(st.lists(_rationals, min_size=k, max_size=k))
    coefficients = draw(st.lists(st.integers(-4, 4).filter(bool),
                                 min_size=len(exps), max_size=len(exps)))
    return GlsmModel(names, tuple(map(tuple, rows)), (), tuple(chi), (Fraction(0),) * k,
                     tuple(charges), d_w, MultiPoly(names, dict(zip(exps, coefficients))))


@settings(max_examples=300, deadline=None)
@given(weighted_models())
def test_integer_weight_scans_match_fraction_witnesses(model):
    """validate's integer R-weight and chi-weight scans, and its euler_identity
    entry, read as the Fraction scans and the MultiPoly Euler sum do."""
    got = {c.name: (c.name, c.passed, c.detail) for c in validate(model).checks}
    for entry in weight_checks(model):
        assert got[entry[0]] == entry
