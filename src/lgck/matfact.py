"""Z/2-graded matrix factorizations and localized Chern characters.

A factorization is a pair of polynomial blocks A (even to odd) and B
(odd to even) with B.A = W.Id and A.B = W.Id.  The Koszul construction,
tensor products with Koszul signs, the supertrace of form-valued
endomorphisms, Atiyah classes for the trivial connection (entrywise
exterior derivative), and the resulting twisted-de-Rham Chern classes
are all implemented over exact cyclotomic coefficients.

Sign conventions (fixed once, pinned by golden tests):

* the Koszul differential is contraction by sigma plus wedging by tau;
* products of form-valued endomorphisms carry the Koszul sign
  (w (x) e)(k (x) f) = (-1)^{|e| deg k} (w ^ k) (x) (e f);
* the supertrace is trace(even block) - trace(odd block).

With these choices the rank-one Koszul factorization {y, x} of W = xy
has Chern character -dx^dy, i.e. class -1 in Jac(xy).

The (i/2pi)-normalization of Todd-Chern classes is carried as an integer
twist exponent, never as a numeric factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .exactalg import Cyclo, MultiPoly, jacobian_ideal
from .exactalg.linalg import identity, mat_mul
from .forms import DiffForm, d_of_poly
from .glsm import GlsmModel, check_dagger


def _align_ring(polys):
    # sorted union: the orientation of dx_1 ^ ... ^ dx_n follows variable-name order
    union = tuple(sorted({v for p in polys for v in p.variables}))
    return union, [p.with_variables(union) if p.variables != union else p for p in polys]


class FactorizationError(ValueError):
    pass


class Factorization:
    """Blocks A: even -> odd and B: odd -> even with B.A = A.B = W."""

    def __init__(self, variables, block_a, block_b, potential: MultiPoly,
                 koszul_rank: int | None = None):
        self.variables = tuple(variables)
        self.even_rank = len(block_a[0]) if block_a else (len(block_b) if block_b else 0)
        self.odd_rank = len(block_a)
        self.block_a = block_a
        self.block_b = block_b
        self.potential = potential
        self.koszul_rank = koszul_rank
        self._verify_square()

    def _verify_square(self):
        w = self.potential
        zero = MultiPoly.zero(self.variables)
        for name, prod, size in (
                ("B.A", mat_mul(self.block_b, self.block_a), self.even_rank),
                ("A.B", mat_mul(self.block_a, self.block_b), self.odd_rank)):
            for i in range(size):
                for j in range(size):
                    got = prod[i][j] if prod else zero  # [] when the inner rank is 0
                    if got != (w if i == j else zero):
                        raise FactorizationError(
                            f"{name} != W.Id at ({i},{j}): got {got.canonical_str()}")

    @property
    def total_rank(self) -> int:
        return self.even_rank + self.odd_rank

    def parities(self) -> tuple[int, ...]:
        return (0,) * self.even_rank + (1,) * self.odd_rank

    def delta_matrix(self) -> list[list[MultiPoly]]:
        """Odd differential on even (+) odd, as one square polynomial matrix."""
        n = self.total_rank
        p = self.even_rank
        zero = MultiPoly.zero(self.variables)
        mat = [[zero for _ in range(n)] for _ in range(n)]
        for i in range(p):           # B: odd -> even
            for j in range(self.odd_rank):
                mat[i][p + j] = self.block_b[i][j]
        for i in range(self.odd_rank):  # A: even -> odd
            for j in range(p):
                mat[p + i][j] = self.block_a[i][j]
        return mat

    def to_jsonable(self) -> dict:
        return {
            "even_rank": self.even_rank,
            "odd_rank": self.odd_rank,
            "A": [[e.canonical_str() for e in row] for row in self.block_a],
            "B": [[e.canonical_str() for e in row] for row in self.block_b],
            "W": self.potential.canonical_str(),
        }


def _subset_sign_insert(subset: tuple[int, ...], j: int) -> int:
    """Sign of e_j ^ e_subset when moving e_j to its sorted slot."""
    return -1 if sum(1 for i in subset if i < j) % 2 else 1


def _subsets(r: int) -> list[tuple[int, ...]]:
    """Subsets of range(r) as sorted tuples, in (size, lexicographic) order."""
    return [s for k in range(r + 1) for s in combinations(range(r), k)]


def koszul(tau, sigma) -> Factorization:
    """Koszul factorization on the exterior algebra of a rank-r free module.

    The differential is contraction by sigma plus wedging by tau, so the
    potential is the pairing <tau, sigma>.
    """
    if len(tau) != len(sigma):
        raise ValueError("tau and sigma must have equal length")
    r = len(tau)
    variables, aligned = _align_ring(list(tau) + list(sigma))
    tau = aligned[:r]
    sigma = aligned[r:]
    w = MultiPoly.zero(variables)
    for t, s in zip(tau, sigma):
        w = w + t * s

    subsets = _subsets(r)
    even = [s for s in subsets if len(s) % 2 == 0]
    odd = [s for s in subsets if len(s) % 2 == 1]
    index = {s: ("even", k) for k, s in enumerate(even)}
    index.update({s: ("odd", k) for k, s in enumerate(odd)})

    zero = MultiPoly.zero(variables)
    block_a = [[zero for _ in even] for _ in odd]
    block_b = [[zero for _ in odd] for _ in even]

    def apply_delta(source: tuple[int, ...]):
        out: dict[tuple[int, ...], MultiPoly] = {}
        for pos, j in enumerate(source):  # contraction by sigma
            target = tuple(x for x in source if x != j)
            sign = -1 if pos % 2 else 1
            contrib = sigma[j] if sign > 0 else -sigma[j]
            out[target] = out.get(target, zero) + contrib
        for j in range(r):               # wedging by tau
            if j in source:
                continue
            target = tuple(sorted(source + (j,)))
            sign = _subset_sign_insert(source, j)
            contrib = tau[j] if sign > 0 else -tau[j]
            out[target] = out.get(target, zero) + contrib
        return out

    for s in subsets:
        side, col = index[s]
        for target, coeff in apply_delta(s).items():
            tside, row = index[target]
            if side == "even":
                block_a[row][col] = block_a[row][col] + coeff
            else:
                block_b[row][col] = block_b[row][col] + coeff

    return Factorization(variables, block_a, block_b, w, koszul_rank=r)


def tensor(f1: Factorization, f2: Factorization, external: bool = False) -> Factorization:
    """Tensor product with the Koszul sign convention; W = W1 + W2."""
    if external and set(f1.variables) & set(f2.variables):
        raise FactorizationError("variable clash in external tensor product")
    variables, _ = _align_ring([f1.potential, f2.potential])

    def promote(mat, src):
        return [[e.with_variables(variables) if e.variables != variables else e
                 for e in row] for row in mat]

    d1 = promote(f1.delta_matrix(), f1)
    d2 = promote(f2.delta_matrix(), f2)
    p1, p2 = f1.parities(), f2.parities()
    n1, n2 = f1.total_rank, f2.total_rank
    zero = MultiPoly.zero(variables)

    pairs = [(i, j) for i in range(n1) for j in range(n2)]
    even = [pr for pr in pairs if (p1[pr[0]] + p2[pr[1]]) % 2 == 0]
    odd = [pr for pr in pairs if (p1[pr[0]] + p2[pr[1]]) % 2 == 1]
    pos = {pr: ("even", k) for k, pr in enumerate(even)}
    pos.update({pr: ("odd", k) for k, pr in enumerate(odd)})

    block_a = [[zero for _ in even] for _ in odd]
    block_b = [[zero for _ in odd] for _ in even]

    def add_entry(target, source, coeff):
        if coeff.is_zero():
            return
        tside, row = pos[target]
        sside, col = pos[source]
        if sside == "even":
            block_a[row][col] = block_a[row][col] + coeff
        else:
            block_b[row][col] = block_b[row][col] + coeff

    for (i, j) in pairs:
        for k in range(n1):  # delta_1 (x) 1
            add_entry((k, j), (i, j), d1[k][i])
        sign = -1 if p1[i] % 2 else 1
        for l in range(n2):  # (-1)^{|e|} 1 (x) delta_2
            c = d2[l][j]
            add_entry((i, l), (i, j), c if sign > 0 else -c)

    w = f1.potential.with_variables(variables) + f2.potential.with_variables(variables)
    kr = None
    if f1.koszul_rank is not None and f2.koszul_rank is not None:
        kr = f1.koszul_rank + f2.koszul_rank
    return Factorization(variables, block_a, block_b, w, koszul_rank=kr)


# ---------------------------------------------------------------------------
# cdga folding


class Cdga:
    """A finite presentation of a graded-commutative dg algebra over the
    polynomial ring: basis with integer degrees, structure constants,
    and a degree +1 differential.  Consistency (d^2 = 0, graded Leibniz
    and commutativity on basis pairs) is checked at construction."""

    def __init__(self, variables, degrees, unit_index, mult, diff, check: bool = True):
        self.variables = tuple(variables)
        self.degrees = tuple(degrees)
        self.unit_index = unit_index
        self.mult = mult  # dict[(i, j)] -> list[(k, MultiPoly)]
        self.diff = diff  # dict[i] -> list[(k, MultiPoly)]
        if check:
            self._verify()

    @property
    def dimension(self) -> int:
        return len(self.degrees)

    def zero_element(self):
        return {}

    def basis_element(self, i, coeff=None):
        c = coeff if coeff is not None else MultiPoly.const(self.variables, 1)
        return {i: c}

    def add(self, x, y):
        out = dict(x)
        for k, c in y.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def scale(self, x, c):
        return {k: v * c for k, v in x.items() if not (v * c).is_zero()}

    def multiply(self, x, y):
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, s in self.mult.get((i, j), []):
                    c = ci * cj * s
                    prev = out.get(k)
                    c = c if prev is None else prev + c
                    if c.is_zero():
                        out.pop(k, None)
                    else:
                        out[k] = c
        return out

    def apply_diff(self, x):
        out = {}
        for i, ci in x.items():
            for k, s in self.diff.get(i, []):
                c = ci * s
                prev = out.get(k)
                c = c if prev is None else prev + c
                if c.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = c
        return out

    def _verify(self):
        n = self.dimension
        for i in range(n):
            # d^2 = 0
            dd = self.apply_diff(self.apply_diff(self.basis_element(i)))
            if dd:
                raise ValueError(f"d^2 != 0 on basis element {i}")
        for i in range(n):
            for j in range(n):
                # graded commutativity
                xy = self.multiply(self.basis_element(i), self.basis_element(j))
                yx = self.multiply(self.basis_element(j), self.basis_element(i))
                sign = (-1) ** (self.degrees[i] * self.degrees[j])
                flipped = {k: (c if sign > 0 else -c) for k, c in yx.items()}
                if xy != flipped:
                    raise ValueError(f"graded commutativity fails on ({i},{j})")
                # graded Leibniz
                lhs = self.apply_diff(xy)
                rhs = self.add(
                    self.multiply(self.apply_diff(self.basis_element(i)),
                                  self.basis_element(j)),
                    self.scale(
                        self.multiply(self.basis_element(i),
                                      self.apply_diff(self.basis_element(j))),
                        MultiPoly.const(self.variables, (-1) ** self.degrees[i]),
                    ),
                )
                if lhs != rhs:
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
            merged = tuple(sorted(s + t))
            inv = sum(1 for a in s for b in t if a > b)
            sign = -1 if inv % 2 else 1
            mult[(si, ti)] = [(index[merged], one if sign > 0 else -one)]

    diff = {}
    for si, s in enumerate(subsets):
        images = []
        for pos, j in enumerate(s):
            target = tuple(x for x in s if x != j)
            sign = -1 if pos % 2 else 1
            images.append((index[target], sigma[j] if sign > 0 else -sigma[j]))
        if images:
            diff[si] = images
    return Cdga(variables, degrees, index[()], mult, diff)


def cdga_element_from_covector(algebra: Cdga, tau) -> dict:
    """The degree -1 element sum tau_j e_j of a Koszul cdga."""
    out = {}
    for j, t in enumerate(tau):
        idx = next(i for i, d in enumerate(algebra.degrees)
                   if d == -1 and _singleton_index(algebra, i) == j)
        tp = t.with_variables(algebra.variables) if t.variables != algebra.variables else t
        if not tp.is_zero():
            out[idx] = tp
    return out


def _singleton_index(algebra: Cdga, basis_index: int):
    # Koszul cdgas list subsets in (size, lexicographic) order; degree -1
    # basis elements are the singletons, in increasing generator order.
    singles = [i for i, d in enumerate(algebra.degrees) if d == -1]
    return singles.index(basis_index)


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

    even = [i for i, d in enumerate(algebra.degrees) if d % 2 == 0]
    odd = [i for i, d in enumerate(algebra.degrees) if d % 2 != 0]
    pos = {i: ("even", k) for k, i in enumerate(even)}
    pos.update({i: ("odd", k) for k, i in enumerate(odd)})
    zero = MultiPoly.zero(algebra.variables)
    block_a = [[zero for _ in even] for _ in odd]
    block_b = [[zero for _ in odd] for _ in even]

    for i in range(algebra.dimension):
        image = algebra.add(algebra.apply_diff(algebra.basis_element(i)),
                            algebra.multiply(a, algebra.basis_element(i)))
        sside, col = pos[i]
        for k, c in image.items():
            tside, row = pos[k]
            if tside == sside:
                raise FactorizationError("d + a. does not flip parity")
            if sside == "even":
                block_a[row][col] = block_a[row][col] + c
            else:
                block_b[row][col] = block_b[row][col] + c
    return Factorization(algebra.variables, block_a, block_b, w)


def homotopy_iso(algebra: Cdga, a, a_prime, h):
    """Multiplication by exp(-h) intertwining d_a and d_{a'} when
    a' - a = dh; returns the matrix of the isomorphism."""
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
    zerop = MultiPoly.zero(algebra.variables)

    def op_matrix(f):
        cols = []
        for i in range(n):
            img = f(algebra.basis_element(i))
            cols.append([img.get(k, zerop) for k in range(n)])
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    mult_exp = op_matrix(lambda x: algebra.multiply(total, x))
    d_a = op_matrix(lambda x: algebra.add(algebra.apply_diff(x), algebra.multiply(a, x)))
    d_ap = op_matrix(lambda x: algebra.add(algebra.apply_diff(x), algebra.multiply(a_prime, x)))

    lhs = mat_mul(mult_exp, d_a)
    rhs = mat_mul(d_ap, mult_exp)
    if lhs != rhs:
        raise FactorizationError("exp(-h) does not intertwine the differentials")
    return mult_exp


# ---------------------------------------------------------------------------
# form-valued endomorphisms, supertrace, Atiyah class, Chern character


class FormEndomorphism:
    """Matrix of differential forms acting on a Z/2-graded free module.

    The product carries the Koszul sign: an entry at position (i, j) has
    endomorphism parity par(i)+par(j), and commuting it past a form of
    degree f costs (-1)^{parity * f}.
    """

    def __init__(self, variables, parities, entries):
        self.variables = tuple(variables)
        self.parities = tuple(parities)
        self.entries = entries

    @classmethod
    def identity(cls, variables, parities) -> "FormEndomorphism":
        return cls(variables, parities,
                   identity(len(parities), DiffForm.const(variables, 1)))

    @property
    def size(self) -> int:
        return len(self.parities)

    def add(self, other: "FormEndomorphism") -> "FormEndomorphism":
        return FormEndomorphism(
            self.variables, self.parities,
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c) -> "FormEndomorphism":
        return FormEndomorphism(
            self.variables, self.parities,
            [[e.scale(c) for e in row] for row in self.entries])

    def compose(self, other: "FormEndomorphism") -> "FormEndomorphism":
        n = self.size
        zero = DiffForm.zero(self.variables)
        out = [[zero for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                a = self.entries[i][j]
                if a.is_zero():
                    continue
                endo_par = (self.parities[i] + self.parities[j]) % 2
                for k in range(n):
                    b = other.entries[j][k]
                    if b.is_zero():
                        continue
                    if endo_par:
                        b = DiffForm(b.variables,
                                     {idx: (-p if len(idx) % 2 else p)
                                      for idx, p in b.terms.items()})
                    out[i][k] = out[i][k] + a.wedge(b)
        return FormEndomorphism(self.variables, self.parities, out)

    def supertrace(self) -> DiffForm:
        out = DiffForm.zero(self.variables)
        for i in range(self.size):
            entry = self.entries[i][i]
            out = out + (entry if self.parities[i] == 0 else -entry)
        return out


def supertrace(endo: FormEndomorphism) -> DiffForm:
    return endo.supertrace()


def atiyah(fact: Factorization) -> FormEndomorphism:
    """The curvature part [nabla, delta] of the Atiyah class for the
    trivial connection: the entrywise exterior derivative of delta.
    The full Atiyah cocycle is the pair (identity, this)."""
    delta = fact.delta_matrix()
    entries = [[d_of_poly(e) for e in row] for row in delta]
    return FormEndomorphism(fact.variables, fact.parities(), entries)


@dataclass
class TwistedClass:
    """A twisted de Rham class: Jacobian normal form plus (2 pi i)^(-t)."""

    jac_class: MultiPoly
    twist: int
    potential: MultiPoly
    form: DiffForm | None = None

    def is_zero(self) -> bool:
        return self.jac_class.is_zero()

    def __str__(self):
        return f"class (twist {self.twist}): {self.jac_class.canonical_str()}"

    def to_jsonable(self):
        return {"twist": self.twist, "class": self.jac_class.canonical_str()}


def chern_character_form(fact: Factorization) -> DiffForm:
    """str(exp of the Atiyah curvature), truncated exactly at n = dim."""
    n = len(fact.variables)
    curv = atiyah(fact)
    total = DiffForm.const(fact.variables,
                           Fraction(fact.even_rank - fact.odd_rank))
    power = FormEndomorphism.identity(fact.variables, fact.parities())
    for k in range(1, n + 1):
        power = power.compose(curv)
        piece = power.supertrace().scale(Fraction(1, factorial(k)))
        total = total + piece
    return total


def _jacobian_reduce(top: MultiPoly, potential: MultiPoly) -> MultiPoly:
    if potential.is_zero():
        return top
    ideal = jacobian_ideal(potential)
    if ideal.quotient_basis() is None:
        raise FactorizationError(
            "potential has a non-isolated singularity; no Jacobian reduction")
    return ideal.normal_form(top)


def chern_char(fact: Factorization) -> TwistedClass:
    """Localized Chern character as a twisted class.

    The output form is verified to be a cocycle for wedging with dW, and
    its top component is reduced to a Jacobian normal form (for W = 0 the
    top coefficient is kept as is)."""
    form = chern_character_form(fact)
    dw = d_of_poly(fact.potential)
    if not dw.wedge(form).is_zero():
        raise FactorizationError("Chern form is not a dW-cocycle")
    for deg in form.form_degrees():
        if deg % 2:
            raise FactorizationError("Chern form has an odd-degree component")
    top = form.top_coefficient()
    jac = _jacobian_reduce(top, fact.potential)
    return TwistedClass(jac, len(fact.variables) // 2, fact.potential, form)


def todd_chern(fact: Factorization, rank: int | None = None) -> TwistedClass:
    """Todd-Chern class for the trivial connection on an affine chart.

    The underlying bundle of a Koszul datum is free, its curvature
    vanishes, and td = 1; the only effect beyond the Chern character is
    the (i/2pi)^rank normalization, carried as a twist shift."""
    if rank is None:
        rank = fact.koszul_rank
    if rank is None:
        raise ValueError("supply the bundle rank for non-Koszul factorizations")
    ch = chern_char(fact)
    return TwistedClass(ch.jac_class, ch.twist + rank, ch.potential, ch.form)


def twisted_class(form: DiffForm, potential: MultiPoly) -> TwistedClass:
    """Check the cocycle condition and reduce the top component."""
    w = potential.with_variables(form.variables) \
        if potential.variables != form.variables else potential
    dw = d_of_poly(w)
    if not dw.wedge(form).is_zero():
        raise FactorizationError("form is not a cocycle for the twisted differential")
    top = form.top_coefficient()
    jac = _jacobian_reduce(top, w)
    return TwistedClass(jac, len(form.variables) // 2, w, form)


def splitting_degree_check(fact: Factorization) -> bool:
    """Every nonzero component of ch of a rank-r Koszul factorization has
    form degree at least 2r."""
    if fact.koszul_rank is None:
        raise ValueError("splitting bound applies to Koszul factorizations")
    form = chern_character_form(fact)
    return all(deg >= 2 * fact.koszul_rank for deg in form.form_degrees())


# ---------------------------------------------------------------------------
# Borel-Serre identity in formal Chern roots


def _ser_trim(s: dict, bound: int) -> dict:
    return {e: c for e, c in s.items() if sum(e) <= bound and c}


def _ser_mul(a: dict, b: dict, bound: int, nvars: int) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) > bound:
                continue
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ser_inverse(a: dict, bound: int, nvars: int) -> dict:
    """Multiplicative inverse of a series with constant term 1."""
    zero_exp = (0,) * nvars
    assert a.get(zero_exp) == 1
    inv = {zero_exp: Fraction(1)}
    rest = {e: c for e, c in a.items() if e != zero_exp}
    # Newton-free iterative: inv_k determined degree by degree
    for _ in range(bound):
        err = _ser_mul(a, inv, bound, nvars)
        err.pop(zero_exp, None)
        if not err:
            break
        inv = {**inv}
        for e, c in err.items():
            inv[e] = inv.get(e, Fraction(0)) - c
    return _ser_trim(inv, bound)


def _bernoulli_plus(n: int) -> Fraction:
    """Bernoulli numbers with B_1 = +1/2 (the Todd convention)."""
    from math import comb
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
    n = rank
    zero_exp = (0,) * n
    if n == 0:
        return True

    def mono(i, k, c):
        e = [0] * n
        e[i] = k
        return tuple(e), Fraction(c)

    # LHS: product over roots of (1 - e^{-a_i})
    lhs = {zero_exp: Fraction(1)}
    for i in range(n):
        factor: dict = {}
        for k in range(1, degree_bound + 1):
            e, c = mono(i, k, Fraction((-1) ** (k + 1), factorial(k)))
            factor[e] = c
        lhs = _ser_mul(lhs, factor, degree_bound, n)

    # RHS: prod a_i * prod td(a_i)^{-1} with td from Bernoulli numbers
    rhs = {zero_exp: Fraction(1)}
    for i in range(n):
        td: dict = {zero_exp: Fraction(1)}
        for k in range(1, degree_bound + 1):
            e, _ = mono(i, k, 0)
            td[e] = _bernoulli_plus(k) / factorial(k)
        td_inv = _ser_inverse(td, degree_bound, n)
        rhs = _ser_mul(rhs, td_inv, degree_bound, n)
    c_r = {zero_exp: Fraction(1)}
    for i in range(n):
        e, c = mono(i, 1, 1)
        c_r = _ser_mul(c_r, {e: c}, degree_bound, n)
    rhs = _ser_mul(rhs, c_r, degree_bound, n)

    return _ser_trim(lhs, degree_bound) == _ser_trim(rhs, degree_bound)


# ---------------------------------------------------------------------------
# the unit of the theory


@dataclass
class UnitClass:
    sector_phases: tuple
    coefficients: tuple
    degree: Fraction
    route: str

    def to_jsonable(self):
        return {
            "sector": [str(p) for p in self.sector_phases],
            "coefficients": [str(c) for c in self.coefficients],
            "degree": str(self.degree),
            "route": self.route,
        }


def unit_class(model: GlsmModel, state=None) -> UnitClass:
    """The distinguished element of the J-sector: the Todd-Chern class of
    the Koszul resolution built from the Euler splitting of the
    J-restricted potential.

    When the J-fixed subspace is zero the Koszul datum is empty and the
    unit is the narrow generator in degree 0."""
    for i, c in enumerate(model.r_charges):
        if not (0 <= c <= model.d_w):
            raise ValueError(
                f"unit requires 0 <= c_i <= d_w; violated by {model.variables[i]}")
    dagger = check_dagger(model)
    if not dagger.holds:
        raise ValueError("unit requires the R-fixed locus condition; it fails here")

    from .statespace import sector_space  # cycle-free at runtime
    from .orbifold import GroupElement

    j = GroupElement(model.j_phases)
    fixed = sorted(j.fixed_support())

    if not fixed:
        degree = 2 * (j.age() - model.q)
        return UnitClass(j.phases, (Cyclo.one(),), degree, "narrow generator")

    fixed_names = tuple(model.variables[i] for i in fixed)
    moving_names = [v for v in model.variables if v not in fixed_names]
    w_j = model.potential.restrict_zero(moving_names).drop_variables(moving_names)
    m_part = [i for i in fixed if model.r_charges[i] != 0]

    euler = MultiPoly.zero(fixed_names)
    for i in m_part:
        name = model.variables[i]
        euler = euler + MultiPoly.var(fixed_names, name) * w_j.derivative(name)
    if euler != w_j:
        raise ValueError("Euler splitting of the J-restricted potential fails")

    tau = [w_j.derivative(model.variables[i]) for i in m_part]
    sigma = [MultiPoly.var(fixed_names, model.variables[i]) for i in m_part]
    if not m_part:
        if not w_j.is_zero():
            raise ValueError("empty Koszul datum but nonzero restricted potential")
        raise ValueError(
            "J-sector carries zero potential on a positive-dimensional fixed "
            "space; outside the affine computational regime")

    kos = koszul(tau, sigma)
    kos = Factorization(fixed_names,
                        [[e.with_variables(fixed_names) for e in row] for row in kos.block_a],
                        [[e.with_variables(fixed_names) for e in row] for row in kos.block_b],
                        kos.potential.with_variables(fixed_names),
                        koszul_rank=kos.koszul_rank)
    tdch = todd_chern(kos)
    space = sector_space(model, j)
    coeffs = []
    for exp in space.basis:
        coeffs.append(tdch.jac_class.coefficient(exp))
    residual = tdch.jac_class
    for exp, c in zip(space.basis, coeffs):
        residual = residual - MultiPoly.monomial(space.fixed_variables, exp, c)
    if not residual.is_zero():
        raise ValueError("Todd-Chern class is not invariant; cannot express in the sector basis")
    return UnitClass(j.phases, tuple(coeffs), space.degree, "koszul todd-chern")
