"""Acceptance criteria, one test each, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is an exact equality of rationals or
cyclotomic numbers; the only non-exact bound is the wall-clock limit in
criterion 1.
"""

import copy
import time
from collections import Counter
from fractions import Fraction
from math import lcm

from lgck.exactalg import Cyclo, MultiPoly, jacobian_ideal
from lgck.glsm import check_dagger, semistable_locus, validate
from lgck.matfact import (
    TwistedClass,
    chern_char,
    chern_character_form,
    koszul,
    splitting_degree_check,
)
from lgck.orbifold import sector_group
from lgck.simplicial import (
    FinitePosetSheaf,
    de_rham_triangle_check,
    godement,
    integrate_simplex,
    order_complex_cohomology,
    pullback,
)
from lgck.statespace import StateSpace, kunneth_sum
from lgck.cohft import (
    check_forgetting_tails,
    check_loop_gluing,
    check_metric_axiom,
    check_selection_rules,
    check_sr_covariance,
    check_tree_gluing,
    narrow_sector_data,
    run_all_checks,
    virdim,
)

from conftest import make_quintic_glsm
from corpus import corpus, small_corpus
from witnesses import borel_serre_check, frobenius_toy, inverse, tensor, with_scaled_charges
from test_matfact import oracle_rank1_chern_form, random_transverse_pair
from test_simplicial import random_polyform
from test_cohft import paper_virdim_oracle


def _report(number: int, description: str):
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_01_quintic_state_space():
    from conftest import make_quintic_lg
    start = time.monotonic()
    state = StateSpace(make_quintic_lg())  # built fresh: the timing is honest
    dims = sorted(s.dimension for s in state.spaces.values())
    assert dims == [1, 1, 1, 1, 204]
    broad = state.space((Fraction(0),) * 5)
    profile = Counter(sum(e) for e in broad.basis)
    assert dict(profile) == {0: 1, 5: 101, 10: 101, 15: 1}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"sector dims (1,1,1,1,204), degree profile (1,101,101,1) "
               f"at (0,5,10,15), {elapsed:.2f}s")


def test_criterion_02_age_grading(quintic_state):
    narrow_degrees = sorted(
        space.degree for space in quintic_state.spaces.values() if space.narrow)
    assert narrow_degrees == [0, 2, 4, 6]
    broad = quintic_state.space((Fraction(0),) * 5)
    assert broad.degree == 3
    _report(2, "narrow degrees {0,2,4,6}, broad 204-dim at degree 3")


def test_criterion_03_git_phases_and_dagger():
    plus = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    minus = make_quintic_glsm([-5, 1], [1, 1, 1, 1, 1, 0], 5)
    ph_plus = semistable_locus(plus, [1, 0])
    ph_minus = semistable_locus(plus, [-5, 1])
    assert ph_plus.max_unstable_supports == (frozenset({5}),)
    assert ph_minus.max_unstable_supports == (frozenset({0, 1, 2, 3, 4}),)
    assert check_dagger(plus).holds
    assert not check_dagger(make_quintic_glsm([1, 0], [1, 1, 1, 1, 1, 0], 5)).holds
    assert check_dagger(minus).holds
    assert not check_dagger(make_quintic_glsm([-5, 1], [0, 0, 0, 0, 0, 1], 1)).holds
    _report(3, "CY/LG phases and the fixed-locus-condition pattern")


def test_criterion_04_central_charge():
    plus = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1)
    minus = make_quintic_glsm([-5, 1], [1, 1, 1, 1, 1, 0], 5)
    assert plus.central_charge == 3 and minus.central_charge == 3
    _report(4, "central charge 3 under both R-charge splittings")


def test_criterion_05_pairing_nondegeneracy_corpus():
    models = corpus()
    assert len(models) == 20
    for name, model in models:
        state = StateSpace(model)
        target = 2 * model.central_charge
        for phases, space in state.spaces.items():
            assert state.gram_nonsingular(phases), name
            gram = state.gram_matrix(phases)
            if any(x for row in gram for x in row):
                inv = inverse(space.element).phases
                total = state.spaces[phases].degree + state.spaces[inv].degree
                assert total == target, name
    _report(5, "nonsingular Gram and exact degree selection on all sectors "
               "of the 20-model corpus")


def test_criterion_06_kunneth_random_pairs(rng):
    models = small_corpus()
    prefixes = iter("abcdefghijklmnopqrst")
    checked = 0
    for _ in range(10):
        (n1, m1), (n2, m2) = rng.sample(models, 2)
        from test_statespace import _reprefix
        m1 = _reprefix(m1, next(prefixes))
        m2 = _reprefix(m2, next(prefixes))
        scale = lcm(m1.d_w, m2.d_w)
        m1s = with_scaled_charges(m1, scale // m1.d_w)
        m2s = with_scaled_charges(m2, scale // m2.d_w)
        assert validate(m1s).passed and validate(m2s).passed, (n1, n2)
        combined, state, witness = kunneth_sum(m1s, m2s)
        for entry in witness.pairs:
            assert entry["dim_sum"] == entry["dim_1"] * entry["dim_2"], (n1, n2)
        checked += 1
    assert checked == 10
    _report(6, "sector-wise dimension products on 10 random corpus sums")


def test_criterion_07_matrix_factorization_suite(rng):
    names = ("x", "y", "z")
    built = 0
    koszul_corpus = []
    while built < 200:
        r = rng.randint(1, 2)
        tau, sigma = [], []
        for _ in range(r):
            t, s = random_transverse_pair(rng, (names[0], names[1]))
            tau.append(t)
            sigma.append(s)
        f = koszul(tau, sigma)  # delta^2 = W checked eagerly on construction
        koszul_corpus.append(f)
        built += 1
        if built % 3 == 0:
            g = koszul([MultiPoly.parse("z", names)], [MultiPoly.parse("z^2", names)])
            tensor(f, g)
            built += 1

    multiplicative = 0
    while multiplicative < 20:
        a, b = random_transverse_pair(rng, ("x", "y"))
        c, d = random_transverse_pair(rng, ("z", "w"))
        f1, f2 = koszul([a], [b]), koszul([c], [d])
        t = tensor(f1, f2)
        if any(jacobian_ideal(p).quotient_basis() is None
               for p in (f1.potential, f2.potential, t.potential)):
            continue
        ideal = jacobian_ideal(t.potential)
        prod = ideal.normal_form(
            chern_char(f1).jac_class.with_variables(t.variables)
            * chern_char(f2).jac_class.with_variables(t.variables))
        assert chern_char(t).jac_class == prod
        multiplicative += 1

    for r in (1, 2, 3):
        assert borel_serre_check(r, 6)

    # the bound is on the Chern form; a random draw may have a non-isolated
    # W, so each form is checked without a Jacobian class
    for f in koszul_corpus[:40]:
        form_only = TwistedClass(MultiPoly.zero(f.variables), 0, f.potential,
                                 chern_character_form(f))
        assert splitting_degree_check(form_only, f.koszul_rank)

    oracle = oracle_rank1_chern_form()
    assert oracle == {(0, 1): Fraction(-1)}
    golden = chern_char(koszul([MultiPoly.parse("y")], [MultiPoly.parse("x")]))
    assert golden.jac_class == MultiPoly.const(golden.potential.variables, -1)
    assert golden.jac_class.constant_term().as_fraction() in (1, -1)
    _report(7, "200 squares, 20 multiplicative pairs, Borel-Serre ranks 1-3, "
               "splitting bound, golden rank-1 value -1 pinned by the oracle")


def test_criterion_08_simplicial_suite(rng):
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        omega = random_polyform(rng, n, n - 1)
        lhs = integrate_simplex(omega.exterior_derivative())
        rhs = Fraction(0)
        for i in range(n + 1):
            face = tuple(v for v in range(n + 1) if v != i)
            rhs += (-1) ** i * integrate_simplex(pullback(face, n)(omega))
        assert lhs == rhs
        checked += 1

    posets = [
        ("point", ["pt"], []),
        ("sierpinski", ["c", "o"], [("c", "o")]),
        ("vee", ["a", "b", "top"], [("a", "top"), ("b", "top")]),
        ("chain3", ["a", "b", "c"], [("a", "b"), ("b", "c")]),
        ("circle", ["a", "b", "c", "d"],
         [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
    ]
    for name, points, pairs in posets:
        sheaf = FinitePosetSheaf(points, pairs, [1] * len(points),
                                 {p: [[1]] for p in pairs})
        res = godement(sheaf, 3)
        rep = de_rham_triangle_check(
            res, oracle_ranks=order_complex_cohomology(sheaf, 2))
        assert rep.passed, name
        for level in range(4):
            assert res.flasque(level), (name, level)
    _report(8, "Stokes on 100 random forms, triangle + cohomology on 5 "
               "sheaves, flasqueness through level 3")


def test_criterion_09_cohft_verifier(quintic_lg, quintic_state):
    mult = {}
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                mult[(i, j)] = [(i + j, 1)]
    toy = frobenius_toy(["1", "x", "x2"], [0, 2, 4], [0, 0, 1], mult,
                        central_charge=2)
    assert run_all_checks(toy)["all_pass"]
    narrow = narrow_sector_data(quintic_lg, quintic_state)
    assert run_all_checks(narrow)["all_pass"]

    # single injected perturbations, one per axiom checker
    def bad(entries):
        return [e for e in entries if not e["pass"]]

    d = copy.deepcopy(toy)
    d.omega03[(1, 1, 0)] = d.o3(1, 1, 0) + 1
    assert bad(check_metric_axiom(d))

    d = copy.deepcopy(narrow)
    unit_idx = next(i for i, c in enumerate(d.unit_vector) if c)
    xi1 = d.basis.by_sector[(Fraction(1, 5),) * 5][0]
    d.omega03[(xi1, xi1, unit_idx)] = Cyclo.one()
    assert bad(check_selection_rules(d))

    d = copy.deepcopy(toy)
    d.omega03[(1, 2, 0)] = d.o3(1, 2, 0) + 1  # breaks the S3 symmetry
    assert bad(check_sr_covariance(d))

    d = copy.deepcopy(toy)
    v0, v2 = d.o4((1, 1, 1, 1))
    d.omega04[(1, 1, 1, 1)] = (v0 + 1, v2)
    assert bad(check_tree_gluing(d))

    d = copy.deepcopy(toy)
    v0, v2 = d.omega11[(0,)]
    d.omega11[(0,)] = (v0 + 1, v2)
    assert bad(check_loop_gluing(d))

    d = copy.deepcopy(narrow)
    key = (0, 1, 2, unit_idx)
    v = d.o4(key)
    d.omega04[key] = (v[0] + 1, v[1])
    assert bad(check_forgetting_tails(d))
    _report(9, "all axioms pass on the Frobenius toy and quintic narrow "
               "data; every checker detects its injected perturbation")


def test_criterion_10_virtual_dimension_oracle(rng):
    models = corpus()
    for _ in range(20):
        name, model = rng.choice(models)
        group = sector_group(model)
        g = rng.randint(0, 2)
        r = rng.randint(0, 4)
        d_pairing = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        insertions = [rng.choice(group) for _ in range(r)]
        got = virdim(model, g, r, d_pairing, insertions)
        expect = paper_virdim_oracle(model, g, r, d_pairing,
                                     [h.age() for h in insertions])
        assert got == expect, name
    _report(10, "formula matches the independent re-derivation on 20 "
                "random tuples")
