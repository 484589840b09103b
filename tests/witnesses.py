"""Paper identities that the tests check and no CLI verb computes: cdga folding,
exp(-h) homotopy isomorphisms, tensor products, Borel-Serre, Frobenius toys, the
dense forgetting-tails walk, the Thom-Sullivan product and unit, the
form-level equalizer check on every monotone map, the one-point
Thom-Sullivan/Koszul comparison, residue closed forms, group-invariant
characters, rescaled charges and R-fixed loci, group inverses, and validate's
weight scans and the selection-rule degree sums in Fractions."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from math import comb, factorial
from operator import mul

from lgck.cohft import CohftData, PairedBasis, _entry, _handle_trace, _stored
from lgck.exactalg import Cyclo, MultiPoly, drl_key
from lgck.exactalg.linalg import mat_mul, rank, solve, sparse, transpose
from lgck.exactalg.poly import accumulate
from lgck.forms import DiffForm, _merge_sign
from lgck.glsm import GlsmModel, PhaseDescription, _dot
from lgck.matfact import (Factorization, FactorizationError, _align_ring, _assemble,
                          _contractions, _subsets, koszul)
from lgck.orbifold import DiagonalGroup, GroupElement
from lgck.simplicial import (CosimplicialModule, FinitePosetSheaf, ThElement, godement,
                             pullback, simplex_variables, th_complex)
from lgck.statespace import ResidueCalculator

# tensor products of factorizations


def _on_ring(fact: Factorization, variables) -> Factorization:
    """A single factor with every entry moved to ``variables``."""
    if fact.variables == variables:
        return fact
    return Factorization(variables, fact.parities,
                         [[e.with_variables(variables) for e in row] for row in fact.delta],
                         fact.potential.with_variables(variables), fact.koszul_rank)


def tensor(f1: Factorization, f2: Factorization, external: bool = False) -> Factorization:
    """Tensor product with the Koszul sign convention; W = W1 + W2."""
    if external and set(f1.variables) & set(f2.variables):
        raise FactorizationError("variable clash in external tensor product")
    variables, _ = _align_ring([f1.potential, f2.potential])
    d1, d2 = f1.delta, f2.delta
    p1, p2 = f1.parities, f2.parities

    def images(pair):  # entries of d1, d2 move to the union ring as they are added
        i, j = pair
        for k, row in enumerate(d1):  # delta_1 (x) 1
            yield (k, j), row[i]
        for l, row in enumerate(d2):  # (-1)^{|e|} 1 (x) delta_2
            yield (i, l), -row[j] if p1[i] else row[j]

    w = f1.potential.with_variables(variables) + f2.potential.with_variables(variables)
    ranks = (f1.koszul_rank, f2.koszul_rank)
    kr = None if None in ranks else sum(ranks)
    pairs = [(i, j) for i in range(len(p1)) for j in range(len(p2))]
    return _assemble(variables, pairs, lambda pr: (p1[pr[0]] + p2[pr[1]]) % 2,
                     images, w, koszul_rank=kr,
                     factors=[_on_ring(g, variables) for f in (f1, f2) for g in f.factors])


# cdga folding


class Cdga:
    """A finite presentation of a graded-commutative dg algebra over the
    polynomial ring: basis with integer degrees, structure constants,
    and a degree +1 differential.  Consistency (d^2 = 0, graded Leibniz
    and commutativity on basis pairs) is checked at construction."""

    def __init__(self, variables, degrees, unit_index, mult, diff):
        self.variables = tuple(variables)
        self.degrees = tuple(degrees)
        self.unit_index = unit_index
        self.mult = mult  # dict[(i, j)] -> list[(k, MultiPoly)]
        self.diff = diff  # dict[i] -> list[(k, MultiPoly)]
        self._verify()

    @property
    def dimension(self) -> int:
        return len(self.degrees)

    def basis_element(self, i):
        return {i: MultiPoly.const(self.variables, 1)}

    def add(self, x, y):
        out = dict(x)
        for k, c in y.items():
            accumulate(out, k, c)
        return out

    def scale(self, x, c):
        return {k: v * c for k, v in x.items() if not (v * c).is_zero()}

    def multiply(self, x, y):
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, s in self.mult.get((i, j), []):
                    accumulate(out, k, ci * cj * s)
        return out

    def apply_diff(self, x):
        out = {}
        for i, ci in x.items():
            for k, s in self.diff.get(i, []):
                accumulate(out, k, ci * s)
        return out

    def _verify(self):
        n = self.dimension
        e = [self.basis_element(i) for i in range(n)]
        de = [self.apply_diff(x) for x in e]
        for i in range(n):
            if self.apply_diff(de[i]):  # d^2 = 0
                raise ValueError(f"d^2 != 0 on basis element {i}")
        for i in range(n):
            sign_i = MultiPoly.const(self.variables, (-1) ** self.degrees[i])
            for j in range(n):
                # graded commutativity
                xy = self.multiply(e[i], e[j])
                yx = self.multiply(e[j], e[i])
                sign = (-1) ** (self.degrees[i] * self.degrees[j])
                flipped = {k: (c if sign > 0 else -c) for k, c in yx.items()}
                if xy != flipped:
                    raise ValueError(f"graded commutativity fails on ({i},{j})")
                # graded Leibniz
                rhs = self.add(self.multiply(de[i], e[j]),
                               self.scale(self.multiply(e[i], de[j]), sign_i))
                if self.apply_diff(xy) != rhs:
                    raise ValueError(f"Leibniz fails on ({i},{j})")


def koszul_cdga(sigma) -> Cdga:
    """Exterior algebra on generators of degree -1 with differential
    contraction by sigma."""
    variables, sigma = _align_ring(list(sigma))
    r = len(sigma)
    subsets = _subsets(r)
    index = {s: k for k, s in enumerate(subsets)}
    degrees = [-len(s) for s in subsets]
    one = MultiPoly.const(variables, 1)

    mult = {}
    for si, s in enumerate(subsets):
        for ti, t in enumerate(subsets):
            if set(s) & set(t):
                continue
            merged, sign = _merge_sign(s, t)
            mult[(si, ti)] = [(index[merged], one if sign > 0 else -one)]

    diff = {si: [(index[target], c) for target, c in _contractions(s, sigma)]
            for si, s in enumerate(subsets) if s}
    return Cdga(variables, degrees, index[()], mult, diff)


def cdga_element_from_covector(algebra: Cdga, tau) -> dict:
    """The degree -1 element sum tau_j e_j of a Koszul cdga, whose degree -1
    basis elements are the singletons e_0, e_1, ... in generator order."""
    singles = [i for i, d in enumerate(algebra.degrees) if d == -1]
    if len(tau) > len(singles):
        raise ValueError(
            f"{len(tau)} coefficients for a cdga with {len(singles)} generators")
    out = {}
    for idx, t in zip(singles, tau):
        tp = t.with_variables(algebra.variables)
        if not tp.is_zero():
            out[idx] = tp
    return out


def cdga_factorization(algebra: Cdga, a) -> Factorization:
    """Fold (A, d + a.) into a Z/2-graded factorization; requires da = W.1."""
    da = algebra.apply_diff(a)
    keys = set(da)
    if keys - {algebra.unit_index}:
        raise FactorizationError("da is not a multiple of the unit")
    w = da.get(algebra.unit_index, MultiPoly.zero(algebra.variables))
    for i in a:
        if algebra.degrees[i] != -1:
            raise FactorizationError("a must be homogeneous of degree -1")

    def images(i):
        e = algebra.basis_element(i)
        return algebra.add(algebra.apply_diff(e), algebra.multiply(a, e)).items()

    return _assemble(algebra.variables, range(algebra.dimension),
                     lambda i: algebra.degrees[i] % 2, images, w)


def homotopy_iso(algebra: Cdga, a, a_prime, h):
    """Multiplication by exp(-h) intertwining d_a and d_{a'} when
    a' - a = dh; returns the matrix of the isomorphism
    as sparse rows."""
    dh = algebra.apply_diff(h)
    diff = algebra.add(a_prime, algebra.scale(a, MultiPoly.const(algebra.variables, -1)))
    if diff != dh:
        raise FactorizationError("a' - a != dh; no homotopy between the twists")
    for i in h:
        if algebra.degrees[i] != -2:
            raise FactorizationError("h must be homogeneous of degree -2")

    # exp(-h) as an element; h is nilpotent in a finite cdga of negative degrees
    term = algebra.basis_element(algebra.unit_index)
    total = term
    k = 1
    while True:
        term = algebra.scale(algebra.multiply(term, h),
                             MultiPoly.const(algebra.variables, Fraction(-1, k)))
        if not term:
            break
        total = algebra.add(total, term)
        k += 1
        if k > algebra.dimension + 1:
            raise FactorizationError("h is not nilpotent")

    n = algebra.dimension

    def op_matrix(f):  # column j is the image of basis element j
        return transpose([f(algebra.basis_element(j)) for j in range(n)], n)

    mult_exp = op_matrix(lambda x: algebra.multiply(total, x))
    d_a = op_matrix(lambda x: algebra.add(algebra.apply_diff(x), algebra.multiply(a, x)))
    d_ap = op_matrix(lambda x: algebra.add(algebra.apply_diff(x), algebra.multiply(a_prime, x)))

    lhs = mat_mul(mult_exp, d_a)
    rhs = mat_mul(d_ap, mult_exp)
    if lhs != rhs:
        raise FactorizationError("exp(-h) does not intertwine the differentials")
    return mult_exp


# Borel-Serre identity in formal Chern roots


def _truncate(p: MultiPoly, bound: int) -> MultiPoly:
    """The terms of p of total degree at most ``bound``."""
    return MultiPoly(p.variables, {e: c for e, c in p.terms.items() if sum(e) <= bound})


def _bernoulli_plus(n: int) -> Fraction:
    """Bernoulli numbers with B_1 = +1/2 (the Todd convention)."""
    b = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = sum((Fraction(comb(m + 1, j)) * b[j] for j in range(m)), Fraction(0))
        b[m] = -acc / (m + 1)
    return -b[1] if n == 1 else b[n]


def borel_serre_check(rank: int, degree_bound: int) -> bool:
    """Compare sum_p (-1)^p ch(wedge^p F*) with c_r(F) td(F)^{-1} in formal
    Chern roots, exactly, up to the given total degree.

    The left side is assembled from exponentials; the right side goes
    through the Bernoulli-number expansion of the Todd series and an
    honest series inversion, so the two routes are independent.
    """
    if rank < 0 or degree_bound < 0:
        raise ValueError("rank and degree bound must be nonnegative")
    if rank == 0:
        return True
    roots = tuple(f"a{i}" for i in range(rank))
    one = MultiPoly.const(roots, 1)

    def series(i, coefficient):  # sum over k <= degree_bound of coefficient(k) a_i^k
        return MultiPoly(roots, {tuple(k if j == i else 0 for j in range(rank)): coefficient(k)
                                 for k in range(degree_bound + 1)})

    lhs = rhs = one
    for i, a in enumerate(roots):
        # LHS: product over roots of (1 - e^{-a_i})
        lhs = _truncate(lhs * series(i, lambda k: Fraction((-1) ** (k + 1), factorial(k))
                                     if k else 0), degree_bound)
        # RHS: product over roots of a_i / td(a_i), td from Bernoulli numbers,
        # inverted as the geometric series of 1 - td (no constant term)
        rest = one - series(i, lambda k: _bernoulli_plus(k) / factorial(k))
        td_inv = term = one
        for _ in range(degree_bound):
            term = _truncate(term * rest, degree_bound)
            td_inv = td_inv + term
        rhs = _truncate(rhs * MultiPoly.var(roots, a) * td_inv, degree_bound)
    return lhs == rhs


# Frobenius toys


def frobenius_toy(labels, degrees, trace, mult_table, central_charge=None) -> CohftData:
    """A cohomological field theory from a finite commutative Frobenius
    algebra: three/four-point tables are traces of products, the (1,1)
    table is the handle trace.  All elements live in one self-inverse
    sector with even parity; the first basis element is the unit."""
    n = len(labels)
    key = "1"
    trace = [c if isinstance(c, Cyclo) else Cyclo.from_rational(c) for c in trace]

    def mul(u, v):
        out = [Cyclo.zero()] * n
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if cj:
                    for k, s in mult_table.get((i, j), []):
                        sc = s if isinstance(s, Cyclo) else Cyclo.from_rational(s)
                        out[k] = out[k] + ci * cj * sc
        return out

    def eps(vec) -> Cyclo:
        return sum((c * t for c, t in zip(vec, trace)), Cyclo.zero())

    one, zero = Cyclo.one(), Cyclo.zero()
    e = [[one if k == i else zero for k in range(n)] for i in range(n)]  # basis vectors
    gram = [{j: v for j in range(n) if (v := eps(mul(e[i], e[j])))} for i in range(n)]
    if central_charge is None:
        central_charge = max(degrees) if degrees else Fraction(0)
    basis = PairedBasis(list(labels), [key] * n, {key: key},
                        [Fraction(d) for d in degrees], [0] * n, {key: gram})

    omega03 = {(i, j, k): v for i, j, k in iproduct(range(n), repeat=3)
               if (v := eps(mul(mul(e[i], e[j]), e[k])))}
    omega04 = {(i, j, k, l): (v, zero) for i, j, k, l in iproduct(range(n), repeat=4)
               if (v := eps(mul(mul(e[i], e[j]), mul(e[k], e[l]))))}
    # handle trace via the Casimir element
    data = CohftData(basis, list(e[0]),
                     -2 * Fraction(central_charge), omega03, omega04, {})
    data.omega11 = {(g,): (v, Cyclo.zero()) for g in range(n)
                    if (v := _handle_trace(data, basis.casimir, g))}
    return data


def dense_forgetting_tails(data: CohftData) -> list[dict]:
    """The forgetting-tails entries from a dense walk: at each of the n^3
    keys, every unit coefficient times its (0,4) entry, stored or absent, so
    an absent entry still adds c * 0 in the field of c."""
    n = data.basis.dimension
    unit = [(l, c) for l, c in enumerate(data.unit_vector) if c]
    out = []
    for key in iproduct(range(n), repeat=3):
        c0 = c2 = Cyclo.zero()
        for l, c in unit:
            v0, v2 = data.o4(key + (l,))
            c0, c2 = c0 + c * v0, c2 + c * v2
        out.append(_entry("forgetting_tails_deg0", key, c0, data.o3(*key)))
        out.append(_entry("forgetting_tails_deg2", key, c2, Cyclo.zero()))
    return out


def fraction_selection_degrees(data: CohftData) -> list[dict]:
    """The selection_degree entries with each stored entry's degrees summed
    as Fractions: sum deg + shift against 2 * (component index) on every
    stored nonzero part."""
    out = []
    for key, parts, _ in _stored(data):
        total = sum((data.basis.degrees[i] for i in key), Fraction(0)) + data.shift_genus0
        out += [_entry("selection_degree", key, total, Fraction(2 * c))
                for c, part in enumerate(parts) if part]
    return out


# Thom-Sullivan elements: the product, the unit, and every monotone map


def check_map_on_forms(el: ThElement, f, m: int) -> bool:
    """A(f) c_n == f^* c_m for a monotone f: [n] -> [m], on forms: every form
    of c_m is substituted by ``pullback(f, m)``, and A(f) multiplies c_n as
    a column of forms.  The reference for ``ThElement._check_map``, which
    works on coordinate rows and pulls back each monomial form once."""
    pull, column = pullback(f, m), sparse([[form] for form in el.levels[len(f) - 1]])
    pulled = sparse([[form and pull(form)] for form in el.levels[m]])  # 0 pulls back to 0
    return mat_mul(el.cs.map_into(f, m), column) == pulled


def generating_maps(top: int):
    """Every coface and codegeneracy (f, m) between levels 0..top."""
    faces = [(tuple(v for v in range(n + 1) if v != i), n)
             for n in range(1, top + 1) for i in range(n + 1)]
    return faces + [(tuple(min(v, i) if v <= i + 1 else v - 1 for v in range(n + 2)), n)
                    for n in range(top) for i in range(n + 1)]


def compatible_on_every_map(el: ThElement) -> bool:
    """The equalizer condition, on forms, on every monotone map between
    represented levels: the reference for ``ThElement.compatible``, which
    checks the cofaces and codegeneracies alone, on coordinate rows."""
    N = el.cs.top_level
    for n in range(N + 1):
        for m in range(N + 1):
            for f in combinations_with_replacement(range(m + 1), n + 1):
                if not check_map_on_forms(el, f, m):
                    return False
    return True


def scale(el: ThElement, c) -> ThElement:
    return ThElement(el.cs, el.degree,
                     [[f.scale(c) for f in level] for level in el.levels],
                     check=False)


def multiply(el: ThElement, other: ThElement) -> ThElement:
    """Product for a cosimplicial algebra with componentwise stalk
    products, as on unit stalks."""
    out = [[a.wedge(b) for a, b in zip(l1, l2)]
           for l1, l2 in zip(el.levels, other.levels)]
    return ThElement(el.cs, el.degree + other.degree, out, check=False)


def is_zero(el: ThElement) -> bool:
    return all(f.is_zero() for level in el.levels for f in level)


def unit_element(cs: CosimplicialModule) -> ThElement:
    """The constant family 1 at every level, for componentwise products."""
    return ThElement(cs, 0, [[DiffForm.const(simplex_variables(n), 1)] * dim
                             for n, dim in enumerate(cs.dims)])


def tk_point_check(tau, sigma, levels: int = 2) -> dict:
    """One-point-site comparison: the Koszul factorization specialized at
    the origin versus its tensor with the truncated Thom-Sullivan-Godement
    resolution of the structure sheaf of the point."""
    kos = koszul(list(tau), list(sigma))
    # as_fraction raises ValueError on a non-rational specialization
    delta0 = sparse([[e.constant_term().as_fraction() for e in row] for row in kos.delta])
    w0 = kos.potential.constant_term()
    if w0:
        raise ValueError("potential does not vanish at the one-point site")

    point = FinitePosetSheaf(["pt"], [], [1], {})
    resolution = godement(point, levels)
    norm, _ = th_complex(resolution.module)  # builds and checks the Whitney extensions
    th_ranks = norm.cohomology_ranks()
    # folded 2-periodically, the truncated resolution contributes its
    # even/odd cohomology
    t_even = sum(r for d, r in enumerate(th_ranks) if d % 2 == 0)
    t_odd = sum(r for d, r in enumerate(th_ranks) if d % 2 == 1)

    # delta0 is odd, so rank delta0 = rank A0 + rank B0, and both
    # H_even = ker A0 / im B0 and H_odd = ker B0 / im A0 lose that rank
    rank0 = rank(delta0)
    h_even, h_odd = kos.even_rank - rank0, kos.odd_rank - rank0
    # tensor with the folded resolution: Kunneth over a point
    tensored_even = h_even * t_even + h_odd * t_odd
    tensored_odd = h_even * t_odd + h_odd * t_even

    return {
        "koszul_ranks": [h_even, h_odd],
        "resolution_ranks": [t_even, t_odd],
        "tensor_ranks": [tensored_even, tensored_odd],
        "quasi_isomorphism": (tensored_even, tensored_odd) == (h_even, h_odd),
    }


# residues, rescaled charges, and R-fixed loci


def residue(p: MultiPoly, w: MultiPoly, weights=None) -> Cyclo:
    """res[p dx / (dw_1 ... dw_n)], normalized so res(hessian) = mu: the sum
    over p's terms of the residues of their monomials, the route the
    pairing takes; weights are inferred from quasi-homogeneity if omitted."""
    if weights is None:
        weights = _infer_weights(w)
    calc = ResidueCalculator(w, weights)
    return sum((c * calc.residue_of_monomial(e) for e, c in p.terms.items()), Cyclo.zero())


def weighted_degree(calc: ResidueCalculator, exp) -> Fraction:
    return sum((w_ * a for w_, a in zip(calc.weights, exp)), Fraction(0))


def _infer_weights(w: MultiPoly):
    exps = sorted(w.terms, key=drl_key)
    if not exps:
        raise ValueError("cannot infer weights of the zero potential")
    n = len(w.variables)
    sol = solve(sparse(exps), dict.fromkeys(range(len(exps)), Fraction(1)), n)
    if sol is None:
        raise ValueError("potential is not quasi-homogeneous; supply weights")
    return [sol.get(i, Fraction(0)) for i in range(n)]


def fixes(group: DiagonalGroup, character, support=None) -> bool:
    """Whether x^character, given on ``support`` (default all coordinates),
    pairs to 0 mod d with every row restricted there."""
    support = tuple(range(len(group.rows)) if support is None else support)
    rows = {tuple(row[i] for i in support) for row in group.rows} - {(0,) * len(support)}
    return all(sum(map(mul, row, character)) % group.d == 0 for row in rows)


def inverse(h: GroupElement) -> GroupElement:
    """The inverse element, by Fraction phases."""
    return GroupElement(-p for p in h.phases)


def with_scaled_charges(model: GlsmModel, factor: int) -> GlsmModel:
    """Rescale (r_charges, d_w), and each torus row with its chi entry, by an
    integer factor; the theory is unchanged."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return GlsmModel(
        variables=model.variables,
        torus_weights=tuple(tuple(w * factor for w in row) for row in model.torus_weights),
        finite_generators=model.finite_generators,
        chi=tuple(x * factor for x in model.chi),
        nu=model.nu,
        r_charges=tuple(c * factor for c in model.r_charges),
        d_w=model.d_w * factor,
        potential=model.potential,
    )


def is_semistable_support(phase: PhaseDescription, support) -> bool:
    s = frozenset(support)
    return not any(s <= u for u in phase.max_unstable_supports)


def r_fixed_locus(model: GlsmModel, subgroup) -> frozenset[int]:
    """Coordinates fixed by a torus one-parameter subgroup (integer vector)."""
    rho = [Fraction(x) for x in subgroup]
    if len(rho) != model.torus_rank:
        raise ValueError("subgroup vector must match the torus rank")
    return frozenset(i for i in range(model.n_vars) if _dot(rho, model.weight_column(i)) == 0)


# validate's weight scans in Fractions, and the Euler sum by polynomial products


def weight_checks(model: GlsmModel) -> list[tuple]:
    """(name, passed, detail) of validate's quasi_homogeneous, euler_identity
    and chi_weight_of_potential entries: Fraction scans, and the Euler sum
    sum (c_i/d_w) x_i dw/dx_i built from polynomial products."""
    w, n = model.potential, model.n_vars
    bad = [exp for exp in w.terms
           if sum(c * a for c, a in zip(model.r_charges, exp)) != model.d_w]
    out = [("quasi_homogeneous", not bad,
            "" if not bad else f"monomial exponents {bad[0]} have the wrong R-weight")]
    euler = MultiPoly.zero(w.variables)
    for i, v in enumerate(model.variables):
        euler = euler + MultiPoly.var(w.variables, v) * w.derivative(v) * (
            Fraction(model.r_charges[i], model.d_w)
        )
    out.append(("euler_identity", euler == w,
                "" if euler == w else "sum (c_i/d_w) x_i dw/dx_i != w"))
    if model.torus_rank:
        bad = [exp for exp in w.terms
               if any(sum(row[i] * exp[i] for i in range(n)) != model.chi[r]
                      for r, row in enumerate(model.torus_weights))]
        out.append(("chi_weight_of_potential", not bad,
                    "" if not bad else f"monomial {bad[0]} has torus weight != chi"))
    return out
