"""Polynomial simplex forms, Stokes, Thom-Sullivan, Godement."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from lgck.cli import _builtin_posets
from lgck.exactalg import MultiPoly
from lgck.exactalg.linalg import mat_mul, nullspace, rank, sparse, transpose
from lgck.forms import DiffForm
from lgck.simplicial import (
    MAX_GODEMENT_DIM,
    MAX_POSET_POINTS,
    CosimplicialModule,
    FinitePosetSheaf,
    ThElement,
    de_rham_triangle_check,
    godement,
    integrate_simplex,
    normalized_complex,
    order_complex_cohomology,
    pullback,
    simplex_variables,
    th_complex,
    whitney_extension,
    whitney_form,
)

from conftest import SEED
from witnesses import (check_map_on_forms, compatible_on_every_map, generating_maps, is_zero,
                       multiply, scale, tk_point_check, unit_element)


def random_polyform(rng, n, degree):
    names = simplex_variables(n)
    terms = {}
    for idx in combinations(range(n), degree):
        poly = MultiPoly.zero(names)
        for _ in range(rng.randint(0, 2)):
            exp = tuple(rng.randint(0, 2) for _ in names)
            poly = poly + MultiPoly.monomial(names, exp,
                                             Fraction(rng.randint(-3, 3)))
        if not poly.is_zero():
            terms[idx] = poly
    return DiffForm(names, terms)


# -- the simplicial algebra Omega[n] -------------------------------------------

def test_pullback_face_to_vertex():
    # [0] -> [1] hitting vertex 0: t0 -> 1, t1 -> 0
    names = simplex_variables(1)
    omega = DiffForm(names, {(): MultiPoly.parse("t1", names)})
    pulled = pullback((0,), 1)(omega)
    assert pulled.is_zero()
    omega0 = DiffForm(names, {(): MultiPoly.parse("1 - t1", names)})
    assert pullback((0,), 1)(omega0) == DiffForm.const((), 1)


def test_pullback_degeneracy_sums_coordinates():
    # [1] -> [0]: t0 -> t0 + t1 = 1
    omega = DiffForm.const((), 1)
    pulled = pullback((0, 0), 0)(omega)
    assert pulled == DiffForm.const(simplex_variables(1), 1)


def test_pullback_identity():
    names = simplex_variables(2)
    omega = DiffForm(names, {(0,): MultiPoly.parse("t1*t2", names)})
    assert pullback((0, 1, 2), 2)(omega) == omega


def test_forms_on_different_simplices_do_not_mix():
    """A form's simplex is its variable tuple; sums and wedges across
    simplices are refused rather than silently promoted."""
    on_1 = DiffForm.const(simplex_variables(1), 1)
    on_2 = DiffForm.const(simplex_variables(2), 1)
    with pytest.raises(ValueError):
        on_1 + on_2
    with pytest.raises(ValueError):
        on_1.wedge(on_2)


def test_pullback_functorial(rng):
    """Omega(g compose f) = Omega(f) after Omega(g) on random forms."""
    for _ in range(10):
        n, m, k = 1, 2, 3
        f = tuple(sorted(rng.randint(0, m) for _ in range(n + 1)))
        g = tuple(sorted(rng.randint(0, k) for _ in range(m + 1)))
        comp = tuple(g[v] for v in f)
        omega = random_polyform(rng, k, rng.randint(0, 1))
        via = pullback(f, m)(pullback(g, k)(omega))
        direct = pullback(comp, k)(omega)
        assert via == direct


def test_integration_formulas():
    names = simplex_variables(1)
    t1dt1 = DiffForm(names, {(0,): MultiPoly.parse("t1", names)})
    assert integrate_simplex(t1dt1) == Fraction(1, 2)
    for n in range(1, 5):
        vol = DiffForm(simplex_variables(n),
                       {tuple(range(n)): MultiPoly.const(simplex_variables(n), 1)})
        assert integrate_simplex(vol) == Fraction(1, __import__("math").factorial(n))
    const = DiffForm.const((), Fraction(7, 2))
    assert integrate_simplex(const) == Fraction(7, 2)


def test_integration_orientation():
    names = simplex_variables(2)
    one = MultiPoly.const(names, 1)
    straight = DiffForm(names, {(0, 1): one})
    flipped = DiffForm(names, {(0, 1): -one})
    assert integrate_simplex(straight) == -integrate_simplex(flipped)


def test_whitney_form_normalization():
    w01 = whitney_form((0, 1), 1)
    assert integrate_simplex(w01) == 1
    w0 = whitney_form((0,), 1)
    assert w0.coefficient(()) == MultiPoly.parse("1 - t1", simplex_variables(1))
    # restriction to a face missing an index kills the form
    w12 = whitney_form((1, 2), 2)
    face0 = pullback((0, 1), 2)(w12)  # image {0,1} misses 2
    assert face0.is_zero()
    # whitney forms integrate to 1 over their own face
    w = whitney_form((0, 2), 3)
    to_face = pullback((0, 2), 3)(w)
    assert integrate_simplex(to_face) == 1


def test_stokes_random_forms(rng):
    """int_D d(omega) = sum (-1)^i int_{face i} omega, 100 random forms."""
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        deg = rng.randint(0, min(n - 1, 4))
        omega = random_polyform(rng, n, deg)
        if deg != n - 1:
            continue  # integrands must be top-degree on the faces
        lhs = integrate_simplex(omega.exterior_derivative())
        rhs = Fraction(0)
        for i in range(n + 1):
            face = tuple(v for v in range(n + 1) if v != i)
            pulled = pullback(face, n)(omega)
            rhs += (-1) ** i * integrate_simplex(pulled)
        assert lhs == rhs
        checked += 1


# -- cosimplicial modules -------------------------------------------------------

def test_constant_normalization():
    cs = godement(FinitePosetSheaf(["pt"], [], [3], {}), 3).module
    norm = normalized_complex(cs)
    assert norm.dims == [3, 0, 0, 0]
    assert norm.cohomology_ranks() == [3, 0, 0, 0]


def test_cosimplicial_identities_enforced():
    ident = [{0: Fraction(1)}]
    swapped = [{0: Fraction(-1)}]
    cofaces = {(1, 0): ident, (1, 1): swapped}
    codegens = {(0, 0): ident}
    with pytest.raises(ValueError):
        CosimplicialModule([1, 1], cofaces, codegens)


def test_map_into_functorial(rng):
    sheaf = FinitePosetSheaf(["c", "o"], [("c", "o")], [1, 1],
                             {("c", "o"): [[1]]})
    cs = godement(sheaf, 3).module
    from lgck.exactalg.linalg import mat_mul
    for _ in range(10):
        f = tuple(sorted(rng.randint(0, 2) for _ in range(2)))
        g = tuple(sorted(rng.randint(0, 3) for _ in range(3)))
        comp = tuple(g[v] for v in f)
        lhs = cs.map_into(comp, 3)
        rhs = mat_mul(cs.map_into(g, 3), cs.map_into(f, 2))
        assert lhs == rhs


def composed_afresh(cs, f, m):
    """A(f) from the coface and codegeneracy matrices with no memo, peeling
    the last repeated value and the first missed one (``map_into`` peels
    the first repeated and the last missed)."""
    n = len(f) - 1
    repeats = [i for i in range(n) if f[i] == f[i + 1]]
    if repeats:
        i = repeats[-1]
        return mat_mul(composed_afresh(cs, f[:i] + f[i + 1:], m), cs.codegens[(n - 1, i)])
    missed = [j for j in range(m + 1) if j not in f]
    if not missed:
        return sparse([[Fraction(int(a == b)) for b in range(cs.dims[n])]
                       for a in range(cs.dims[n])])
    j = missed[0]
    inner = tuple(v - 1 if v > j else v for v in f)
    return mat_mul(cs.cofaces[(m, j)], composed_afresh(cs, inner, m - 1))


def test_map_into_memo_matches_fresh_composition(rng):
    sheaf = FinitePosetSheaf(["base", "top", "side"], [("base", "top"), ("side", "top")],
                             [2, 1, 1], {("base", "top"): [[1, 2]], ("side", "top"): [[3]]})
    cs = godement(sheaf, 3).module
    for _ in range(60):
        m = rng.randint(0, 3)
        f = tuple(sorted(rng.randint(0, m) for _ in range(rng.randint(1, 4))))
        got = cs.map_into(f, m)
        assert cs.map_into(list(f), m) is got  # memoized
        assert got == composed_afresh(cs, f, m)


def test_normalized_d_squared_zero():
    sheaf = FinitePosetSheaf(["a", "b", "top"], [("a", "top"), ("b", "top")],
                             [1, 1, 1],
                             {("a", "top"): [[1]], ("b", "top"): [[1]]})
    cs = godement(sheaf, 3).module
    norm = normalized_complex(cs)
    from lgck.exactalg.linalg import mat_mul
    for d in range(len(norm.differentials) - 1):
        a, b = norm.differentials[d], norm.differentials[d + 1]
        if a and b:
            prod = mat_mul(b, a)
            assert not any(prod)


# -- godement ----------------------------------------------------------------------

def _constant_sheaf(points, pairs):
    mats = {p: [[1]] for p in pairs}
    return FinitePosetSheaf(points, pairs, [1] * len(points), mats)


POSET_CORPUS = [
    ("point", ["pt"], []),
    ("sierpinski", ["c", "o"], [("c", "o")]),
    ("vee", ["a", "b", "top"], [("a", "top"), ("b", "top")]),
    ("chain3", ["a", "b", "c"], [("a", "b"), ("b", "c")]),
    ("circle", ["a", "b", "c", "d"],
     [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
]


def test_godement_level_zero_is_product_of_stalks():
    sheaf = _constant_sheaf(["c", "o"], [("c", "o")])
    res = godement(sheaf, 2)
    assert res.module.dims[0] == 2  # product of the two stalks
    # restriction to the open point is surjective
    assert res.flasque(0)


def test_godement_flasque_levels():
    for name, points, pairs in POSET_CORPUS:
        sheaf = _constant_sheaf(points, pairs)
        res = godement(sheaf, 3)
        for n in range(4):
            assert res.flasque(n), (name, n)


def test_skyscraper_cohomology():
    sky = FinitePosetSheaf(["closed", "open"], [("closed", "open")], [1, 0], {})
    res = godement(sky, 3)
    rep = de_rham_triangle_check(res, oracle_ranks=[1, 0, 0])
    assert rep.passed
    assert len(res.global_sections) == 1


def test_triangle_on_poset_corpus():
    """int after Th(iota) equals N(iota) and cohomology matches the order
    complex, on five sheaves."""
    for name, points, pairs in POSET_CORPUS:
        sheaf = _constant_sheaf(points, pairs)
        oracle = order_complex_cohomology(sheaf, 2)
        res = godement(sheaf, 3)
        rep = de_rham_triangle_check(res, oracle_ranks=oracle)
        assert rep.passed, (name, rep.to_jsonable())


def test_circle_poset_has_h1():
    sheaf = _constant_sheaf(["a", "b", "c", "d"],
                            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert order_complex_cohomology(sheaf, 2) == [1, 1, 0]


def test_higher_rank_stalks_with_projection():
    """A rank-2 stalk over a rank-1 stalk: global sections are the big
    stalk, and the resolution is acyclic above degree zero (the poset has
    an initial object, so the section functor is exact)."""
    sheaf = FinitePosetSheaf(["base", "top"], [("base", "top")], [2, 1],
                             {("base", "top"): [[1, 1]]})
    assert len(godement(sheaf, 1).global_sections) == 2
    res = godement(sheaf, 3)
    for n in range(4):
        assert res.flasque(n)
    rep = de_rham_triangle_check(res, oracle_ranks=[2, 0, 0])
    assert rep.passed


def _rank_flasque(sheaf, n):
    """Flasqueness as a rank condition, a reference for the chain test:
    for every pair of up-sets V < U, the 0/1 projection from the germs
    along chains starting in U onto those starting in V has full row rank."""
    def chains(starts):
        out = [(i,) for i in sorted(starts)]
        for _ in range(n):
            out = [c + (j,) for c in out for j in range(len(sheaf.points))
                   if sheaf.leq[c[-1]][j]]
        return out

    opens = sheaf.up_sets()
    for u in opens:
        for v in opens:
            if v < u:
                big, small = chains(u), chains(v)
                at, start = {}, 0  # where each chain's germs start in U
                for c in big:
                    at[c], start = start, start + sheaf.stalk_dims[c[-1]]
                rows = [{at[c] + r: 1}  # sparse rows {column: entry}
                        for c in small for r in range(sheaf.stalk_dims[c[-1]])]
                if rank(rows) != len(rows):
                    return False
    return True


def _random_poset_sheaf(rng):
    """Up to 6 points, a random order, random stalk dimensions 0-2 and zero
    restriction maps (which always compose)."""
    points = [f"p{i}" for i in range(rng.randint(1, 6))]
    dims = [rng.randint(0, 2) for _ in points]
    pairs = [(points[i], points[j]) for i, j in combinations(range(len(points)), 2)
             if rng.random() < 0.4]
    mats = {(a, b): [[0] * dims[points.index(a)] for _ in range(dims[points.index(b)])]
            for a, b in pairs}
    return FinitePosetSheaf(points, pairs, dims, mats)


def _cli_custom_sheaves():
    """The custom posets the CLI tests run through simplicial-demo."""
    chain = [f"p{i}" for i in range(MAX_POSET_POINTS)]
    return [
        FinitePosetSheaf(["a", "b"], [("a", "b")], [1, 1], {("a", "b"): [[1]]}),
        FinitePosetSheaf(["a", "b"], [("a", "b")], [0, 1], {("a", "b"): [[]]}),
        FinitePosetSheaf(["a", "b"], [("a", "b")], [1, 0], {("a", "b"): []}),
        FinitePosetSheaf(["a", "k", "j"], [("a", "k"), ("k", "j")], [1, 0, 1],
                         {("a", "k"): [], ("k", "j"): [[]]}),
        FinitePosetSheaf(chain, list(zip(chain, chain[1:])), [1] * len(chain),
                         {p: [[1]] for p in zip(chain, chain[1:])}),
    ]


def test_flasque_matches_rank_reference():
    """Chain containment agrees with the rank condition on the built-in
    posets, the CLI's custom posets and random posets, at levels 0-3."""
    rng = random.Random(f"{SEED}-posets")  # leaves the shared rng's draws alone
    sheaves = list(_builtin_posets().values()) + _cli_custom_sheaves()
    sheaves += [_random_poset_sheaf(rng) for _ in range(12)]
    for sheaf in sheaves:
        res = godement(sheaf, 1)
        for n in range(4):
            assert res.flasque(n) == _rank_flasque(sheaf, n), (sheaf.points, n)


def _random_frame_sheaf(rng):
    """Up to 5 points, a random order and stalks of one dimension d <= 2,
    generized by A_b A_a^-1 for random invertible A_p, so the maps compose
    and are mostly nonzero."""
    points = [f"p{i}" for i in range(rng.randint(1, 5))]
    d = rng.randint(1, 2)
    frames = []
    for _ in points:  # c times a unit lower-triangular matrix, and its inverse
        c, low = Fraction(rng.choice([-2, -1, 1, 3])), rng.randint(-2, 2)
        a, inv = [[c, 0], [c * low, c]], [[1 / c, 0], [-low / c, 1 / c]]
        frames.append(([row[:d] for row in a[:d]], [row[:d] for row in inv[:d]]))
    pairs = [(i, j) for i, j in combinations(range(len(points)), 2) if rng.random() < 0.5]
    mats = {(points[i], points[j]): [[row.get(k, 0) for k in range(d)] for row in
                                     mat_mul(sparse(frames[j][0]), sparse(frames[i][1]))]
            for i, j in pairs}
    return FinitePosetSheaf(points, [(points[i], points[j]) for i, j in pairs], [d] * len(points),
                            mats)


def _oracle_sheaves():
    """The built-in posets, the CLI's custom posets and random posets, with
    zero and with invertible generization maps."""
    rng = random.Random(f"{SEED}-rule")
    return (list(_builtin_posets().values()) + _cli_custom_sheaves()
            + [_random_poset_sheaf(rng) for _ in range(8)]
            + [_random_frame_sheaf(rng) for _ in range(8)])


def _reference_chains(sheaf, n):
    """The weak chains c_0 <= ... <= c_n in lexicographic order."""
    return [c for c in product(range(len(sheaf.points)), repeat=n + 1)
            if all(sheaf.leq[a][b] for a, b in zip(c, c[1:]))]


def _deepest_resolution(sheaf):
    """The resolution at the deepest level up to 3 within MAX_GODEMENT_DIM."""
    top = max(level for level in (1, 2, 3) if sum(
        sheaf.stalk_dims[c[-1]] for c in _reference_chains(sheaf, level)) <= MAX_GODEMENT_DIM)
    return godement(sheaf, top)


def _rule_matrix(sheaf, f, m):
    """G(f): G[n] -> G[m] for a monotone f: [n] -> [m], read off the rule:
    the germ along the chain c.f goes to the chain c, generized from
    c[f[-1]] to c[-1]."""
    def layout(level):
        at, total = {}, 0
        for c in level:
            at[c], total = total, total + sheaf.stalk_dims[c[-1]]
        return at, total

    rows, height = layout(_reference_chains(sheaf, m))
    cols, width = layout(_reference_chains(sheaf, len(f) - 1))
    mat = [[Fraction(0)] * width for _ in range(height)]
    for c, top in rows.items():
        src = tuple(c[k] for k in f)
        for r, row in enumerate(sheaf.maps[(c[f[-1]], c[-1])]):
            for s, x in row.items():
                mat[top + r][cols[src] + s] = x
    return mat


def test_every_monotone_map_follows_the_rule():
    """map_into(f, m) is the rule's matrix for every monotone f: [n] -> [m]
    with m, n <= 3, within the levels each sheaf's budget allows."""
    for sheaf in _oracle_sheaves():
        res = _deepest_resolution(sheaf)
        levels = res.module.top_level
        for n in range(levels + 1):
            for m in range(levels + 1):
                for f in combinations_with_replacement(range(m + 1), n + 1):
                    assert res.module.map_into(f, m) == sparse(_rule_matrix(sheaf, f, m)), \
                        (sheaf.points, f, m)


def _constraint_sections(sheaf):
    """A basis of F(X) from the constraint rows s_b = maps[(a, b)] s_a for
    a < b, inside the product of stalks."""
    offsets, total = {}, 0
    for p, dim in enumerate(sheaf.stalk_dims):
        offsets[p], total = total, total + dim
    constraints = []
    for a, b in product(range(len(sheaf.points)), repeat=2):
        if a != b and sheaf.leq[a][b]:
            for r in range(sheaf.stalk_dims[b]):
                row = [Fraction(0)] * total
                for c, x in sheaf.maps[(a, b)][r].items():
                    row[offsets[a] + c] += x
                row[offsets[b] + r] -= 1
                constraints.append(row)
    return nullspace(sparse(constraints), total)


def test_global_sections_match_constraint_rows():
    """The equalizer of G[0] => G[1] has the constraint rows' basis."""
    for sheaf in _oracle_sheaves():
        assert godement(sheaf, 1).global_sections == _constraint_sections(sheaf), sheaf.points


def test_cyclic_order_closes_through_the_cycle():
    """Order pairs may form a cycle: x < y < b, a <= b <= a.  x -> a is the
    composite through y and b, whichever order the points come in."""
    for names in (["x", "y", "a", "b"], ["b", "a", "y", "x"]):
        sheaf = FinitePosetSheaf(
            names, [("x", "y"), ("y", "b"), ("b", "a"), ("a", "b")], [1] * 4,
            {("x", "y"): [[2]], ("y", "b"): [[3]], ("b", "a"): [[1]], ("a", "b"): [[1]]})
        at = sheaf.index
        assert sheaf.maps[(at["x"], at["a"])] == [{0: 6}]
        assert godement(sheaf, 2).global_sections == _constraint_sections(sheaf)
    with pytest.raises(ValueError, match="functorial"):
        FinitePosetSheaf(["a", "b"], [("a", "b"), ("b", "a")], [1, 1],
                         {("a", "b"): [[2]], ("b", "a"): [[1]]})


def test_triangle_checks_each_family_once(monkeypatch):
    """de_rham_triangle_check checks compatibility once per Whitney
    extension and once per augmentation family, each when it is built."""
    calls, checked = [], ThElement.compatible

    def counted(self, *args, **kwargs):
        calls.append(self)
        return checked(self, *args, **kwargs)

    monkeypatch.setattr(ThElement, "compatible", counted)
    for sheaf in _builtin_posets().values():
        res = godement(sheaf, 2)
        calls.clear()
        rep = de_rham_triangle_check(res)
        assert rep.passed and rep.whitney_compatible
        extensions = sum(normalized_complex(res.module).dims)
        sections = len(res.global_sections)
        assert len(calls) == extensions + sections
        assert len({id(el) for el in calls}) == len(calls)


def test_missing_restriction_rejected():
    with pytest.raises(ValueError, match="missing restriction"):
        FinitePosetSheaf(["a", "b"], [("a", "b")], [1, 1], {})


def test_nonfunctorial_restrictions_rejected():
    with pytest.raises(ValueError, match="functorial"):
        FinitePosetSheaf(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [1, 1, 1],
            {("a", "b"): [[1]], ("b", "c"): [[1]], ("a", "c"): [[2]]})


# -- thom-sullivan -----------------------------------------------------------------

def test_unit_element_closed_and_compatible():
    cs = godement(FinitePosetSheaf(["pt"], [], [2], {}), 3).module
    u = unit_element(cs)
    assert is_zero(u.d())
    assert compatible_on_every_map(u)


def test_whitney_extension_exhaustive_compatibility():
    sheaf = _constant_sheaf(["c", "o"], [("c", "o")])
    cs = godement(sheaf, 2).module
    norm = normalized_complex(cs)
    for d in range(3):
        for vec in norm.bases[d]:
            el = whitney_extension(cs, d, vec)
            assert compatible_on_every_map(el)


PERTURBED_MODULES = [
    lambda: godement(_constant_sheaf(["c", "o"], [("c", "o")]), 2).module,
    # A[0] = 0 and A[1] = Q: the cochains Q in degree 1, so A(f) c_0 = 0
    lambda: CosimplicialModule([0, 1], {(1, 0): [{}], (1, 1): [{}]}, {(0, 0): []}),
]


def _perturbed(el: ThElement):
    """el with the last component at one nonempty level moved by a constant,
    for each such level, unchecked."""
    for n, level in enumerate(el.levels):
        if level:
            bumped = [list(forms) for forms in el.levels]
            bumped[n][-1] = level[-1] + DiffForm.const(simplex_variables(n), 1)
            yield ThElement(el.cs, el.degree, bumped, check=False)


@pytest.mark.parametrize("make_module", PERTURBED_MODULES, ids=["godement", "zero_at_level_0"])
def test_equalizer_rejects_perturbed_families(make_module):
    """Whitney extensions are compatible; moving the last component at one
    level by a constant fails both compatibility checks and is refused."""
    cs = make_module()
    norm = normalized_complex(cs)
    for d, basis in enumerate(norm.bases):
        for vec in basis:
            for bad in _perturbed(whitney_extension(cs, d, vec)):
                assert not bad.compatible()
                assert not compatible_on_every_map(bad)
                with pytest.raises(ValueError, match="equalizer"):
                    ThElement(cs, d, bad.levels)


def _golden_custom_sheaf():
    """The custom poset of the golden simplicial-demo case: a 0-dimensional
    stalk at b and a 1 x 2 restriction a -> e."""
    return FinitePosetSheaf(["a", "b", "c", "e"], [("a", "b"), ("b", "c"), ("a", "e")],
                            [2, 0, 2, 1], {("a", "b"): [], ("b", "c"): [[], []],
                                           ("a", "e"): [[1, -1]]})


def test_compatible_agrees_with_the_form_level_reference():
    """On every coface and codegeneracy, the coordinate-row check gives the
    verdict of substituting each form and multiplying a column of forms:
    on the Whitney extensions of the built-in posets and of the golden
    custom poset at level 2, on their products (compatible or not: the
    custom stalks are no algebra), and on the perturbed families."""
    modules = [godement(sheaf, 2).module
               for sheaf in [*_builtin_posets().values(), _golden_custom_sheaf()]]
    modules += [make() for make in PERTURBED_MODULES]
    verdicts = set()
    for cs in modules:
        _, basis = th_complex(cs)
        pool = [el for degree in basis for el in degree]
        families = pool + [multiply(a, b) for i, a in enumerate(pool) for b in pool[i:]]
        families += [bad for el in pool for bad in _perturbed(el)]
        maps = generating_maps(cs.top_level)
        for el in families:
            rows = el._rows()
            got = [el._check_map(f, m, rows) for f, m in maps]
            assert got == [check_map_on_forms(el, f, m) for f, m in maps], (cs.dims, el.degree)
            assert el.compatible() == all(got)
            verdicts.add(all(got))
    assert verdicts == {True, False}


@pytest.mark.parametrize("level", [1, 2])
def test_family_with_a_form_on_another_simplex_is_refused(level):
    """A component on the 3-simplex at a lower level is not read as a form on
    that level's simplex: pulling it back refuses it."""
    cs = godement(FinitePosetSheaf(["pt"], [], [1], {}), 2).module
    bad = [list(forms) for forms in th_complex(cs)[1][0][0].levels]
    bad[level][0] = DiffForm.from_poly(MultiPoly.parse("t1*t2 + 1", simplex_variables(3)))
    with pytest.raises(ValueError, match=f"expected a form on the {level}-simplex"):
        ThElement(cs, 0, bad)


def test_equality_compares_module_degree_and_every_level():
    """A family equals the same forms on the same module in the same degree
    only: not its truncation to fewer levels or shorter levels, not the
    same forms one degree higher, and not the same forms on another
    module."""
    sheaf = _constant_sheaf(["c", "o"], [("c", "o")])
    cs = godement(sheaf, 2).module
    el = th_complex(cs)[1][0][0]
    assert el == ThElement(cs, el.degree, [list(level) for level in el.levels])
    truncated = ThElement(cs, el.degree, el.levels[:1], check=False)
    shortened = ThElement(cs, el.degree, [level[:-1] for level in el.levels], check=False)
    relabelled = ThElement(cs, el.degree + 1, el.levels, check=False)
    elsewhere = ThElement(godement(sheaf, 2).module, el.degree, el.levels)
    for other in (truncated, shortened, relabelled, elsewhere):
        assert el != other and other != el


def test_th_product_closure_random(rng):
    """Products of Thom-Sullivan elements stay compatible (cdga closure),
    and the product is graded-commutative."""
    sheaf = _constant_sheaf(["a", "b", "top"], [("a", "top"), ("b", "top")])
    cs = godement(sheaf, 3).module
    _, basis = th_complex(cs)
    pool = [el for degree in basis for el in degree]
    for _ in range(6):
        e1, e2 = rng.choice(pool), rng.choice(pool)
        prod = multiply(e1, e2)
        assert prod.compatible()
        swapped = multiply(e2, e1)
        sign = (-1) ** (e1.degree * e2.degree)
        flipped = scale(swapped, Fraction(sign))
        assert prod == flipped


def test_integration_of_products_lands_in_normalized(rng):
    """Products leave the Whitney span but integration still lands in the
    normalized subcomplex (codegeneracy kernels)."""
    sheaf = _constant_sheaf(["c", "o"], [("c", "o")])
    cs = godement(sheaf, 2).module
    _, basis = th_complex(cs)
    pool = [el for degree in basis for el in degree]
    for _ in range(5):
        e1, e2 = rng.choice(pool), rng.choice(pool)
        prod = multiply(e1, e2)
        d = prod.degree
        if d > cs.top_level:
            continue
        vec = prod.integrate()
        for i in range(d):
            out = mat_mul(cs.codegens[(d - 1, i)], transpose([vec], cs.dims[d]))
            assert not any(out)


def test_th_product_associative(rng):
    sheaf = _constant_sheaf(["c", "o"], [("c", "o")])
    cs = godement(sheaf, 2).module
    _, basis = th_complex(cs)
    pool = [el for degree in basis for el in degree]
    for _ in range(4):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_integration_is_chain_map(rng):
    """d_N(int c) = int(d c) via Stokes, on Whitney-span elements."""
    sheaf = _constant_sheaf(["a", "b", "top"], [("a", "top"), ("b", "top")])
    res = godement(sheaf, 3)
    rep = de_rham_triangle_check(res)
    assert rep.whitney_chain_map and rep.integration_left_inverse


# -- the one-point TK comparison -----------------------------------------------------

def test_tk_point_trivial_rank_one():
    z = MultiPoly.zero(("x",))
    result = tk_point_check([z], [z])
    assert result["quasi_isomorphism"]
    assert result["resolution_ranks"] == [1, 0]


def test_tk_point_node():
    x = MultiPoly.parse("x", ("x", "y"))
    y = MultiPoly.parse("y", ("x", "y"))
    result = tk_point_check([y], [x])
    assert result["quasi_isomorphism"]
    assert result["koszul_ranks"] == [1, 1]


def test_tk_point_rejects_nonvanishing_potential():
    one = MultiPoly.const(("x",), 1)
    with pytest.raises(ValueError):
        tk_point_check([one], [one])


@pytest.mark.parametrize("tau, sigma", [("z3", "x"), ("x", "z3")],
                         ids=["in_block_a", "in_block_b"])
def test_tk_point_rejects_non_rational_specialization(tau, sigma):
    """A cube root of unity at the origin, in either block of the
    differential, has no rational specialization."""
    with pytest.raises(ValueError, match="rational"):
        tk_point_check([MultiPoly.parse(tau, ("x",))], [MultiPoly.parse(sigma, ("x",))])
