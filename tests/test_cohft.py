"""CohFT axiom verification: toys, quintic narrow data, perturbations."""

import copy
import sys
from fractions import Fraction

import pytest

from lgck.cohft import (
    CohftData,
    PairedBasis,
    casimir_check,
    check_forgetting_tails,
    check_loop_gluing,
    check_metric_axiom,
    check_selection_rules,
    check_sr_covariance,
    check_tree_gluing,
    cohft_data_from_jsonable,
    homogeneity_shift,
    narrow_sector_data,
    paired_basis_from_state,
    run_all_checks,
    virdim,
)
from lgck.exactalg import Cyclo, linalg
from lgck.exactalg.linalg import sparse
from lgck.orbifold import GroupElement

from corpus import corpus, fermat_model
from witnesses import fraction_selection_degrees, frobenius_toy


@pytest.fixture(scope="module")
def toy():
    mult = {}
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                mult[(i, j)] = [(i + j, 1)]
    return frobenius_toy(["1", "x", "x2"], [0, 2, 4], [0, 0, 1], mult,
                         central_charge=2)


@pytest.fixture(scope="module")
def quintic_cohft(quintic_lg, quintic_state):
    return narrow_sector_data(quintic_lg, quintic_state)


def _all_pass(entries):
    return all(e["pass"] for e in entries)


def _failures(entries):
    return [e for e in entries if not e["pass"]]


# -- dual bases -----------------------------------------------------------------

def test_dual_bases_narrow_partner(quintic_cohft):
    basis = quintic_cohft.basis
    casimir = basis.casimir
    assert sorted(i for i, _ in casimir) == list(range(basis.dimension))
    for i, dual in casimir:
        inv_key = basis.inverse[basis.sector_keys[i]]
        assert dual and all(c for c in dual.values())
        assert all(basis.sector_keys[l] == inv_key for l in dual)


def test_dual_bases_orthonormal_toy():
    gram = [[Cyclo.one() if i == j else Cyclo.zero() for j in range(3)]
            for i in range(3)]
    basis = PairedBasis(["a", "b", "c"], ["1"] * 3, {"1": "1"},
                        [Fraction(0)] * 3, [0] * 3, {"1": sparse(gram)})
    casimir = basis.casimir
    assert [i for i, _ in casimir] == [0, 1, 2]
    for j, dual in casimir:
        assert list(dual) == [j] and dual[j] == 1


def test_casimir_toy_and_quintic(toy, quintic_state):
    assert _all_pass(casimir_check(toy.basis))
    full = paired_basis_from_state(quintic_state)
    assert _all_pass(casimir_check(full))  # includes the odd 204-dim sector


def _count_inverse_calls(monkeypatch) -> list:
    """Route linalg.inverse, under every name an lgck module binds it to,
    through a counter; the returned list grows by one per call."""
    calls, original = [], linalg.inverse

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "lgck" or name.startswith("lgck."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_casimir_inverts_each_gram_block_once(quintic_lg, quintic_state, monkeypatch):
    """The gluing checks and the Casimir check of one basis share one
    inversion per Gram block: on the full quintic basis (the 204-dim odd
    block included) and along the verify-cohft path."""
    calls = _count_inverse_calls(monkeypatch)
    full = paired_basis_from_state(quintic_state)
    data = CohftData(full, [Cyclo.zero()] * full.dimension, Fraction(0), {}, {}, {})
    check_tree_gluing(data)
    check_loop_gluing(data)
    assert _all_pass(casimir_check(full))
    assert len(calls) == len(full.by_sector) == 5
    calls.clear()
    narrow = narrow_sector_data(quintic_lg, quintic_state)
    assert run_all_checks(narrow)["all_pass"]
    assert len(calls) == len(narrow.basis.by_sector) == 4


def _sector_eta(basis, i, j) -> Cyclo:
    """eta(i, j) read off the Gram block of i's sector when j lies in its inverse."""
    ki = basis.sector_keys[i]
    if basis.inverse[ki] != basis.sector_keys[j]:
        return Cyclo.zero()
    return basis.gram[ki][basis.position[i]].get(basis.position[j], Cyclo.zero())


@pytest.mark.parametrize("name", ["quintic_full", "fermat_3_4_gmax"])
def test_eta_rows_match_sector_lookup(name, quintic_state):
    """eta on every pair of the full quintic basis (broad, odd and non-self-inverse
    sectors) and of Sum_{i<=4} x_i^3 with the full group is the sector-key lookup."""
    from lgck.statespace import StateSpace
    if name == "quintic_full":
        state = quintic_state
    else:
        state = StateSpace(fermat_model([3] * 4, extra_generators=[
            ["1/3" if j == i else "0" for j in range(4)] for i in range(4)]))
    basis = paired_basis_from_state(state)
    n = basis.dimension
    assert n == (208 if name == "quintic_full" else 16)
    for i in range(n):
        for j in range(n):
            got, want = basis.eta(i, j), _sector_eta(basis, i, j)
            assert got == want and str(got) == str(want), (i, j)


def test_singular_gram_rejected():
    gram = [[Cyclo.zero()]]
    basis = PairedBasis(["a"], ["1"], {"1": "1"}, [Fraction(0)], [0],
                        {"1": sparse(gram)})
    with pytest.raises(ValueError, match="singular"):
        basis.casimir


# -- the axioms on honest data ---------------------------------------------------

def test_toy_all_axioms(toy):
    rep = run_all_checks(toy)
    assert rep["all_pass"]


def test_toy_handle_trace_of_unit(toy):
    # the (1,1) value on the unit is the dimension of the state space
    assert toy.omega11[(0,)][0] == 3


def test_quintic_narrow_all_axioms(quintic_cohft):
    rep = run_all_checks(quintic_cohft)
    assert rep["all_pass"]


def test_narrow_data_all_corpus():
    """Axiom-seeded narrow tables verify on every corpus model, including
    self-inverse narrow sectors and unit-only theories."""
    from lgck.statespace import StateSpace
    from corpus import corpus
    for name, model in corpus():
        state = StateSpace(model)
        data = narrow_sector_data(model, state)
        assert run_all_checks(data)["all_pass"], name


def test_quintic_metric_entries(quintic_cohft):
    # the metric axiom fills in exactly the eta table
    entries = check_metric_axiom(quintic_cohft)
    assert _all_pass(entries)
    nonzero = [e for e in entries if e["lhs"] != "0"]
    assert len(nonzero) == 4  # xi^k pairs with xi^{5-k}


def test_selection_rule_flags_bad_group_pair(quintic_cohft):
    data = copy.deepcopy(quintic_cohft)
    # a nonzero (xi^1, xi^1, unit) entry violates h1 h2 = 1
    unit_idx = next(i for i, c in enumerate(data.unit_vector) if c)
    xi1 = data.basis.by_sector[(Fraction(1, 5),) * 5][0]
    data.omega03[(xi1, xi1, unit_idx)] = Cyclo.one()
    entries = check_selection_rules(data)
    assert not _all_pass(entries)


def test_selection_rule_accepts_inverse_pair(quintic_cohft):
    entries = check_selection_rules(quintic_cohft)
    assert _all_pass(entries)


def test_selection_degrees_match_fraction_sums(quintic_lg, quintic_state):
    """The integer degree sums give every selection_degree entry the old
    Fraction sum gives, on every corpus model and on user-supplied tables,
    as supplied and with a misstated shift, so that no sum is 0."""
    from lgck.statespace import StateSpace
    cases = [(name, narrow_sector_data(model, StateSpace(model))) for name, model in corpus()]
    basis = paired_basis_from_state(quintic_state, narrow_only=True)
    tables = _tables_jsonable(narrow_sector_data(quintic_lg, quintic_state))
    cases.append(("user_tables", cohft_data_from_jsonable(basis, tables)))
    misstated = cohft_data_from_jsonable(basis, dict(tables, shift_genus0="-7/3"))
    assert not _all_pass(check_selection_rules(misstated))
    cases.append(("user_tables_misstated_shift", misstated))
    for name, data in cases:
        got = [e for e in check_selection_rules(data) if e["axiom"] == "selection_degree"]
        assert got == fraction_selection_degrees(data), name
        assert got, name


# -- perturbation detection: each check catches a single bad entry ----------------

def test_metric_detects_perturbation(toy):
    data = copy.deepcopy(toy)
    data.omega03[(1, 1, 0)] = data.o3(1, 1, 0) + 1
    bad = _failures(check_metric_axiom(data))
    assert len(bad) >= 1


def test_covariance_detects_missing_sign():
    # basis: u even, e odd, f odd; swapping the two odd insertions must flip
    # the sign, and a table without the flip is flagged
    ident = [[Cyclo.one() if i == j else Cyclo.zero() for j in range(3)]
             for i in range(3)]
    basis = PairedBasis(["u", "e", "f"], ["1"] * 3, {"1": "1"},
                        [Fraction(0), Fraction(1), Fraction(1)],
                        [0, 1, 1], {"1": sparse(ident)})
    zero_unit = [Cyclo.zero()] * 3
    one = Cyclo.one()
    consistent = {
        (1, 2, 0): one, (2, 1, 0): -one,
        (1, 0, 2): one, (0, 1, 2): one,
        (2, 0, 1): -one, (0, 2, 1): -one,
    }
    data = CohftData(basis, zero_unit, Fraction(0), dict(consistent), {}, {})
    assert _all_pass(check_sr_covariance(data))
    broken = dict(consistent)
    broken[(2, 1, 0)] = one  # dropped the Koszul sign
    data2 = CohftData(basis, zero_unit, Fraction(0), broken, {}, {})
    assert _failures(check_sr_covariance(data2))


def test_covariance_symmetric_even_table(toy):
    assert _all_pass(check_sr_covariance(toy))


def test_tree_detects_perturbation(toy):
    data = copy.deepcopy(toy)
    key = (1, 1, 1, 1)
    v0, v2 = data.o4(key)
    data.omega04[key] = (v0 + 1, v2)
    bad = _failures(check_tree_gluing(data))
    assert bad


def test_loop_detects_perturbation(toy):
    data = copy.deepcopy(toy)
    v0, v2 = data.omega11[(0,)]
    data.omega11[(0,)] = (v0 + 1, v2)
    bad = _failures(check_loop_gluing(data))
    assert bad


def test_tails_detects_wrong_unit(quintic_cohft):
    data = copy.deepcopy(quintic_cohft)
    # replace the unit by a non-J-sector narrow generator
    xi2 = data.basis.by_sector[(Fraction(2, 5),) * 5][0]
    wrong = [Cyclo.zero()] * data.basis.dimension
    wrong[xi2] = Cyclo.one()
    data.unit_vector = wrong
    assert _failures(check_forgetting_tails(data))
    assert _failures(check_metric_axiom(data))


def test_tails_detects_perturbation(quintic_cohft):
    data = copy.deepcopy(quintic_cohft)
    unit_idx = next(i for i, c in enumerate(data.unit_vector) if c)
    key = (0, 1, 2, unit_idx)
    v = data.o4(key)
    data.omega04[key] = (v[0] + 1, v[1])
    assert _failures(check_forgetting_tails(data))


def test_one_dimensional_unit_only_theory():
    gram = [[Cyclo.one()]]
    basis = PairedBasis(["1"], ["1"], {"1": "1"}, [Fraction(0)], [0],
                        {"1": sparse(gram)})
    omega03 = {(0, 0, 0): Cyclo.one()}
    omega04 = {(0, 0, 0, 0): (Cyclo.one(), Cyclo.zero())}
    omega11 = {(0,): (Cyclo.one(), Cyclo.zero())}
    data = CohftData(basis, [Cyclo.one()], Fraction(0),
                     omega03, omega04, omega11)
    rep = run_all_checks(data)
    assert rep["all_pass"]


def test_all_zero_table_vacuous(quintic_cohft):
    data = copy.deepcopy(quintic_cohft)
    data.omega03 = {}
    data.omega04 = {}
    data.omega11 = {}
    assert _all_pass(check_selection_rules(data))
    assert _all_pass(check_sr_covariance(data))


# -- dimension formulas ------------------------------------------------------------

def paper_virdim_oracle(model, g, r, d_pairing, ages):
    """Independent transcription of the dimension formula: the pairing of
    the degree with c_1, plus (c-hat - 3)(1 - g), plus the marking count,
    minus the sum over markings of (age - q)."""
    n = model.n_vars
    dim_g = max(len(model.torus_weights) - 1, 0)
    q = sum(model.r_charges, Fraction(0)) / model.d_w
    c_hat = n - dim_g - 2 * q
    value = Fraction(d_pairing) + (c_hat - 3) * (1 - g) + r
    for a in ages:
        value -= a - q
    return value


def test_virdim_quintic_examples(quintic_lg):
    j = GroupElement(quintic_lg.j_phases)
    assert virdim(quintic_lg, 0, 3, 0, [j, j, j]) == 3
    assert virdim(quintic_lg, 1, 0, 0, []) == 0
    xi = lambda k: GroupElement([Fraction(k, 5)] * 5)
    assert virdim(quintic_lg, 0, 3, 0, [xi(1), xi(2), xi(2)]) == 1


def test_virdim_matches_oracle(rng, quintic_lg):
    from corpus import corpus
    models = corpus()
    for _ in range(20):
        name, model = rng.choice(models)
        from lgck.orbifold import sector_group
        group = sector_group(model)
        g = rng.randint(0, 2)
        r = rng.randint(0, 4)
        d_pairing = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        ins = [rng.choice(group) for _ in range(r)]
        got = virdim(model, g, r, d_pairing, ins)
        expect = paper_virdim_oracle(model, g, r, d_pairing,
                                     [h.age() for h in ins])
        assert got == expect, name


def test_homogeneity_shift_values(quintic_lg):
    assert homogeneity_shift(quintic_lg, 0, 0) == -6
    assert homogeneity_shift(quintic_lg, 1, 0) == 0
    assert homogeneity_shift(quintic_lg, 0, 2) == -10


# -- table serialization ------------------------------------------------------------

def _tables_jsonable(data):
    return {
        "unit": [str(c) for c in data.unit_vector],
        "shift_genus0": str(data.shift_genus0),
        "omega03": [{"key": list(k), "value": str(v)}
                    for k, v in sorted(data.omega03.items())],
        "omega04": [{"key": list(k), "value": [str(v[0]), str(v[1])]}
                    for k, v in sorted(data.omega04.items())],
        "omega11": [{"key": list(k), "value": [str(v[0]), str(v[1])]}
                    for k, v in sorted(data.omega11.items())],
    }


def test_tables_json_roundtrip(quintic_cohft):
    from lgck.cohft import cohft_data_from_jsonable
    reloaded = cohft_data_from_jsonable(quintic_cohft.basis,
                                        _tables_jsonable(quintic_cohft))
    rep = run_all_checks(reloaded)
    assert rep["all_pass"]


def test_tables_json_via_cli(quintic_cohft, quintic_lg, tmp_path):
    import json as _json
    from lgck.cli import main
    config = quintic_lg.to_dict()
    tables = _tables_jsonable(quintic_cohft)
    config["cohft"] = {"tables": tables, "basis": "narrow"}
    path = tmp_path / "with_tables.json"
    path.write_text(_json.dumps(config))
    assert main(["verify-cohft", str(path),
                 "--output", str(tmp_path / "rep.json")]) == 0
    # a perturbed supplied table is rejected with exit code 1
    tables_bad = _tables_jsonable(quintic_cohft)
    tables_bad["omega03"].append({"key": [0, 0, 0], "value": "1"})
    config["cohft"] = {"tables": tables_bad, "basis": "narrow"}
    path2 = tmp_path / "with_bad_tables.json"
    path2.write_text(_json.dumps(config))
    assert main(["verify-cohft", str(path2),
                 "--output", str(tmp_path / "rep2.json")]) == 1
