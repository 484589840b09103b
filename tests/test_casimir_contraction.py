"""The sparse Casimir contractions against a dense reference.

``dense_pairs``, ``dense_contract`` and ``dense_handle_trace`` copy the
earlier dense code: every basis element is a length-n unit vector paired
with a length-n dual vector, and each contraction loops over all n
coordinates.  ``dense_seeded_tables`` fills the (0,4) table on all n^4
index tuples, where ``axiom_seeded_data`` walks only the stored entries.
``dense_forgetting_tails`` sums every unit coefficient against every (0,4)
slot, where ``check_forgetting_tails`` walks only the stored entries.
Values are compared with ``str``, so a sum that lands in a different
cyclotomic field (a different printed order) is a mismatch even when the
two numbers are equal.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from lgck.cli import _json_text
from lgck.cohft import (
    CohftData,
    PairedBasis,
    _Contraction,
    _handle_trace,
    axiom_seeded_data,
    casimir_check,
    check_forgetting_tails,
    narrow_sector_data,
)
from lgck.exactalg import Cyclo
from lgck.exactalg.linalg import inverse, sparse
from lgck.statespace import StateSpace

from corpus import corpus, fermat_model
from witnesses import dense_forgetting_tails, frobenius_toy


def dense_pairs(basis):
    """(unit vector of T, dual vector of T) per basis element, by sector."""
    by_sector = {}
    for i, key in enumerate(basis.sector_keys):
        by_sector.setdefault(key, []).append(i)
    n = basis.dimension
    pairs = []
    for key, idx in by_sector.items():
        inv = inverse(basis.gram[key], one=Cyclo.one())
        sign = -1 if basis.parities[idx[0]] else 1
        inv_idx = by_sector[basis.inverse[key]]
        for j, i in enumerate(idx):
            dual = [Cyclo.zero()] * n
            for l, gi in enumerate(inv_idx):
                c = inv[l].get(j, Cyclo.zero())
                dual[gi] = c if sign > 0 else -c
            unit = [Cyclo.zero()] * n
            unit[i] = Cyclo.one()
            pairs.append((unit, dual))
    return pairs


def dense_dot(vec, entry):
    total = Cyclo.zero()
    for k, c in enumerate(vec):
        if c:
            total = total + c * entry(k)
    return total


def dense_contract(data, pairs, left, right):
    total = Cyclo.zero()
    for t, tdual in pairs:
        a = dense_dot(t, lambda k: data.o3(left[0], left[1], k))
        if not a:
            continue
        b = dense_dot(tdual, lambda i: data.o3(i, right[0], right[1]))
        if b:
            total = total + a * b
    return total


def dense_handle_trace(data, pairs, g):
    total = Cyclo.zero()
    for t, tdual in pairs:
        for i, ci in enumerate(t):
            if not ci:
                continue
            for j, cj in enumerate(tdual):
                if cj:
                    total = total + ci * cj * data.o3(g, i, j)
    return total


def dense_seeded_tables(data):
    """The (0,4) and (1,1) tables that axiom_seeded_data derives from the
    (0,3) table, recomputed densely and printed."""
    n, pairs = data.basis.dimension, dense_pairs(data.basis)
    omega04 = {}
    for key in product(range(n), repeat=4):
        v = dense_contract(data, pairs, key[:2], key[2:])
        if v:
            omega04[key] = str(v)
    omega11 = {(g,): str(v) for g in range(n)
               if (v := dense_handle_trace(data, pairs, g))}
    return omega04, omega11


def assert_contractions_match(data):
    n, pairs, casimir = data.basis.dimension, dense_pairs(data.basis), data.basis.casimir
    contract = _Contraction(data, casimir)
    for left in product(range(n), repeat=2):
        for right in product(range(n), repeat=2):
            got = contract(left, right)
            assert str(got) == str(dense_contract(data, pairs, left, right)), (left, right)
    for g in range(n):
        assert str(_handle_trace(data, casimir, g)) == str(dense_handle_trace(data, pairs, g))


def _toy():
    mult = {(i, j): [(i + j, 1)] for i in range(3) for j in range(3) if i + j < 3}
    return frobenius_toy(["1", "x", "x2"], [0, 2, 4], [0, 0, 1], mult, central_charge=2)


def test_toy_contractions_match_dense():
    toy = _toy()
    assert_contractions_match(toy)
    omega04, omega11 = dense_seeded_tables(toy)
    assert {k: str(v[0]) for k, v in toy.omega04.items()} == omega04
    assert {k: str(v[0]) for k, v in toy.omega11.items()} == omega11


def _full_group_fermat_cubic(k):
    """Sum_{i<=k} x_i^3 with the full diagonal group: every state is narrow."""
    return fermat_model([3] * k, extra_generators=[
        ["1/3" if j == i else "0" for j in range(k)] for i in range(k)])


_MODELS = corpus() + [(f"fermat_3_{k}_gmax", _full_group_fermat_cubic(k)) for k in (1, 2, 3)]


@pytest.mark.parametrize("name, model", _MODELS, ids=[name for name, _ in _MODELS])
def test_seeded_tables_match_dense(name, model):
    """The axiom-seeded (0,4) and (1,1) tables of every corpus model, E8
    included, and of Sum x_i^3 with the full group (n = 2^k), print exactly
    as the dense n^4 fill prints them, in sorted key order."""
    data = narrow_sector_data(model, StateSpace(model))
    omega04, omega11 = dense_seeded_tables(data)
    assert {k: str(v[0]) for k, v in data.omega04.items()} == omega04
    assert list(data.omega04) == sorted(data.omega04)
    assert all(not v[1] for v in data.omega04.values())
    assert {k: str(v[0]) for k, v in data.omega11.items()} == omega11
    assert all(e["pass"] for e in casimir_check(data.basis))


def _random_cyclo(rnd):
    order = rnd.choice([1, 3, 4])
    return Cyclo(order, [Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                         for _ in range(4)])


def _random_data(seed):
    """Sectors e (even, self-inverse, dim 2), o and o' (odd, inverse to each
    other, dim 2 each), random nonsingular Gram blocks and a sparse random
    (0,3) table whose entries live in several cyclotomic fields."""
    rnd = random.Random(seed)
    keys = ["e", "e", "o", "o", "p", "p"]
    inverse_of = {"e": "e", "o": "p", "p": "o"}
    gram = {}
    for key in ("e", "o"):
        while True:
            g = [[_random_cyclo(rnd) for _ in range(2)] for _ in range(2)]
            if key == "e":
                g[1][0] = g[0][1]  # a self-inverse even block is symmetric
            if inverse(sparse(g), one=Cyclo.one()) is not None:
                break
        gram[key] = g
    # the block of o' is the transpose of o's, with the Koszul sign
    gram["p"] = [[-gram["o"][j][i] for j in range(2)] for i in range(2)]
    basis = PairedBasis([f"{k}{i}" for i, k in enumerate(keys)], keys, inverse_of,
                        [Fraction(0)] * 6, [0, 0, 1, 1, 1, 1],
                        {key: sparse(g) for key, g in gram.items()})
    omega03 = {key: _random_cyclo(rnd) for key in product(range(6), repeat=3)
               if rnd.random() < 0.3}
    return CohftData(basis, [Cyclo.zero()] * 6, Fraction(0), omega03, {}, {})


@pytest.mark.parametrize("seed", range(3))
def test_random_odd_sectors_match_dense(seed):
    """Odd sectors (a signed dual), multi-dimensional blocks, absent table
    entries and mixed fields: every contraction prints as the dense one."""
    data = _random_data(seed)
    assert_contractions_match(data)
    assert all(e["pass"] for e in casimir_check(data.basis))


def test_seeded_data_from_random_basis_matches_dense():
    data = _random_data(7)
    unit = [Cyclo.zero()] * 6
    unit[0], unit[1] = Cyclo.one(), Cyclo.root_of_unity(3)
    seeded = axiom_seeded_data(data.basis, unit, Fraction(0))
    omega04, omega11 = dense_seeded_tables(seeded)
    assert {k: str(v[0]) for k, v in seeded.omega04.items()} == omega04
    assert {k: str(v[0]) for k, v in seeded.omega11.items()} == omega11


def test_absent_entries_keep_the_field():
    """The dual of T_0 is -z4*T_0 + T_1.  Against right = (1, 1) only
    omega(1, 1, 1) = z3 is present, yet the absent omega(0, 1, 1) still
    carries the coefficient -z4 into the sum, so z3 prints in Q(z12)."""
    z4, z3 = Cyclo.root_of_unity(4), Cyclo.root_of_unity(3)
    gram = [[Cyclo.zero(), Cyclo.one()], [Cyclo.one(), z4]]
    basis = PairedBasis(["a", "b"], ["1", "1"], {"1": "1"}, [Fraction(0)] * 2,
                        [0, 0], {"1": sparse(gram)})
    data = CohftData(basis, [Cyclo.zero()] * 2, Fraction(0),
                     {(0, 0, 0): Cyclo.one(), (1, 1, 1): z3}, {}, {})
    casimir = basis.casimir
    assert casimir[0] == (0, {0: -z4, 1: Cyclo.one()})
    got = _Contraction(data, casimir)((0, 0), (1, 1))
    assert str(got) == str(dense_contract(data, dense_pairs(basis), (0, 0), (1, 1)))
    assert str(got) == "-1 + z12^2" and got == z3
    assert_contractions_match(data)


@pytest.mark.parametrize("name, model", _MODELS, ids=[name for name, _ in _MODELS])
def test_forgetting_tails_match_dense(name, model):
    """The sparse forgetting-tails walk writes the dense walk's bytes on
    every corpus model's narrow data."""
    data = narrow_sector_data(model, StateSpace(model))
    sparse_entries = check_forgetting_tails(data)
    assert len(sparse_entries) == 2 * data.basis.dimension ** 3
    assert _json_text(sparse_entries) == _json_text(dense_forgetting_tails(data))


def test_tails_absent_entries_keep_the_field():
    """The unit is z8*T_0 + T_1, and at the key (0, 0, 0) only (0, 0, 0, 1)
    = (z3, z3^2) is stored.  The absent (0, 0, 0, 0) still adds z8 * 0, so
    the sums print in Q(z24), not in Q(z3)."""
    z8, z3 = Cyclo.root_of_unity(8), Cyclo.root_of_unity(3)
    basis = PairedBasis(["a", "b"], ["1", "1"], {"1": "1"}, [Fraction(0)] * 2,
                        [0, 0], {"1": sparse([[Cyclo.one(), Cyclo.zero()],
                                               [Cyclo.zero(), Cyclo.one()]])})
    data = CohftData(basis, [z8, Cyclo.one()], Fraction(0), {(0, 0, 0): z3},
                     {(0, 0, 0, 1): (z3, z3 ** 2), (1, 1, 1, 0): (z3, z3)}, {})
    entries = check_forgetting_tails(data)
    assert _json_text(entries) == _json_text(dense_forgetting_tails(data))
    assert [(e["lhs"], e["pass"]) for e in entries[:2]] == [("-1 + z24^4", True),
                                                          ("-z24^4", False)]
