"""Z/2-graded matrix factorizations and localized Chern characters.

A factorization is one odd polynomial matrix delta with delta^2 = W.Id on a
free module whose basis lists the even part first; its off-diagonal blocks
are A (even to odd) and B (odd to even).  The Koszul construction, the
supertrace of form-valued matrices, Atiyah classes for the trivial
connection (entrywise exterior derivative), and the resulting
twisted-de-Rham Chern classes are all implemented over exact cyclotomic
coefficients.

Sign conventions (fixed once, pinned by golden tests):

* the Koszul differential is contraction by sigma plus wedging by tau;
* products of form-valued endomorphisms carry the Koszul sign
  (w (x) e)(k (x) f) = (-1)^{|e| deg k} (w ^ k) (x) (e f);
* the twist T negates the odd-degree part of every entry in an odd row;
  negating odd form degrees is an algebra automorphism of forms, so
  T(A * B) = T(A) . T(B) turns the Koszul-signed product * into the plain
  matrix product of ``linalg.mat_mul``, and T is its own inverse;
* the supertrace is trace(even block) - trace(odd block).

With these choices the rank-one Koszul factorization {y, x} of W = xy
has Chern character -dx^dy, i.e. class -1 in Jac(xy); in n = 2r variables
a rank-r Koszul class is that of det d(tau_1, sigma_1, ..., tau_r, sigma_r)
/ d(x_1 .. x_n), rows interleaved.

The (i/2pi)-normalization of Todd-Chern classes is carried as an integer
twist exponent, never as a numeric factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial

from .exactalg import Cyclo, MultiPoly, jacobian_ideal
from .exactalg.linalg import identity, mat_mul, sparse
from .forms import DiffForm, _merge_sign, d_of_poly
from .glsm import GlsmModel, check_dagger
from .orbifold import GroupElement


def _align_ring(polys):
    # sorted union: the orientation of dx_1 ^ ... ^ dx_n follows variable-name order
    union = tuple(sorted({v for p in polys for v in p.variables}))
    return union, [p.with_variables(union) for p in polys]


class FactorizationError(ValueError):
    pass


class Factorization:
    """An odd differential delta with delta.delta = W.Id: a square polynomial
    matrix on a basis whose ``parities`` list the even part (0) first."""

    def __init__(self, variables, parities, delta, potential: MultiPoly,
                 koszul_rank: int | None = None, factors=()):
        self.variables = tuple(variables)
        self.parities = tuple(parities)
        self.delta = delta
        self.potential = potential
        self.koszul_rank = koszul_rank
        self._factors = tuple(factors)
        self.even_rank = self.parities.count(0)
        self.odd_rank = len(self.parities) - self.even_rank
        self._verify_square()

    def _verify_square(self):
        n, par = len(self.parities), self.parities
        if len(self.delta) != n or any(len(row) != n for row in self.delta):
            raise FactorizationError(f"delta is not a square matrix of size {n}")
        zero, rows = MultiPoly.zero(self.variables), sparse(self.delta)
        for i, row in enumerate(mat_mul(rows, rows)):
            if par[i] not in (0, 1) or (i and par[i] < par[i - 1]):
                raise FactorizationError(
                    f"parity {par[i]} at basis position {i}: expected 0s, then 1s")
            flips = {j for j in rows[i] if par[j] == par[i]}
            wrong = {j for j in row if j != i}
            if row.get(i, zero) != self.potential:
                wrong.add(i)
            if flips or wrong:  # report the first bad column, flip checked first
                j = min(flips | wrong)
                if j in flips:
                    raise FactorizationError(f"delta does not flip parity at ({i},{j})")
                raise FactorizationError(
                    f"delta.delta != W.Id at ({i},{j}): got {row.get(j, zero).canonical_str()}")

    @property
    def factors(self) -> tuple["Factorization", ...]:
        """Recorded tensor factors, else just self."""
        return self._factors or (self,)

    @property
    def block_a(self) -> list[list[MultiPoly]]:
        """A: even -> odd, the lower-left block of delta."""
        return [row[:self.even_rank] for row in self.delta[self.even_rank:]]

    @property
    def block_b(self) -> list[list[MultiPoly]]:
        """B: odd -> even, the upper-right block of delta."""
        return [row[self.even_rank:] for row in self.delta[:self.even_rank]]

    def to_jsonable(self) -> dict:
        return {
            "even_rank": self.even_rank,
            "odd_rank": self.odd_rank,
            "A": [[e.canonical_str() for e in row] for row in self.block_a],
            "B": [[e.canonical_str() for e in row] for row in self.block_b],
            "W": self.potential.canonical_str(),
        }


def _assemble(variables, basis, parity, images, potential: MultiPoly,
              koszul_rank: int | None = None, factors=()) -> Factorization:
    """The factorization whose differential sends each basis key to the
    sum of its ``images(key)``, pairs (target key, coefficient); the basis
    is sorted by ``parity`` (stable, so even keys first, in given order)."""
    order = sorted(basis, key=parity)
    index = {key: k for k, key in enumerate(order)}
    zero = MultiPoly.zero(variables)
    delta = [[zero] * len(order) for _ in order]
    for col, key in enumerate(order):
        for target, c in images(key):
            if c:
                row = index[target]
                delta[row][col] = delta[row][col] + c
    return Factorization(variables, [parity(key) for key in order], delta,
                         potential, koszul_rank, factors)


def _contractions(source: tuple[int, ...], sigma):
    """Contraction of e_source by sigma: pairs (target subset, +-sigma_j)."""
    for pos, j in enumerate(source):
        yield tuple(x for x in source if x != j), -sigma[j] if pos % 2 else sigma[j]


def _subsets(r: int) -> list[tuple[int, ...]]:
    """Subsets of range(r) as sorted tuples, in (size, lexicographic) order."""
    return [s for k in range(r + 1) for s in combinations(range(r), k)]


# Checking delta . delta = W.Id on 2^r x 2^r matrices is what grows with r: with
# tau_i = x_i, sigma_i = x_i + y_i^2, `lgck chern` took 0.16 / 0.24 / 0.36 / 0.62 /
# 1.5 s end to end at r = 5 / 6 / 7 / 8 / 9 (Python 3.11, 2 cores).
MAX_KOSZUL_RANK = 8


def koszul(tau, sigma, variables=None) -> Factorization:
    """Koszul factorization on the exterior algebra of a rank-r free module,
    over ``variables`` (default: the sorted union of the entries' variables).

    The differential is contraction by sigma plus wedging by tau, so the
    potential is the pairing <tau, sigma>.  It is the tensor product of its
    r rank-one factors koszul([tau_i], [sigma_i]), which it records.
    """
    if len(tau) != len(sigma):
        raise ValueError("tau and sigma must have equal length")
    r = len(tau)
    variables = _align_ring(list(tau) + list(sigma))[0] if variables is None else variables
    tau, sigma = ([p.with_variables(variables) for p in ps] for ps in (tau, sigma))
    w = sum((t * s for t, s in zip(tau, sigma)), MultiPoly.zero(variables))

    def images(source: tuple[int, ...]):
        yield from _contractions(source, sigma)
        for j in range(r):  # wedging by tau
            if j not in source:  # e_j ^ e_source, e_j moved to its sorted slot
                target, sign = _merge_sign((j,), source)
                yield target, tau[j] if sign > 0 else -tau[j]

    factors = [koszul([t], [s], variables) for t, s in zip(tau, sigma)] if r > 1 else ()
    return _assemble(variables, _subsets(r), lambda s: len(s) % 2, images, w,
                     koszul_rank=r, factors=factors)


# ---------------------------------------------------------------------------
# form-valued matrices, supertrace, Atiyah class, Chern character


def _twist(parities, rows):
    """T: the odd-degree part of every entry in an odd row negated."""
    return [{j: DiffForm(e.variables, {idx: -p if len(idx) % 2 else p
                                       for idx, p in e.terms.items()})
             for j, e in row.items()} if par else row for par, row in zip(parities, rows)]


def supertrace(parities, rows) -> DiffForm:
    """trace(even block) - trace(odd block) of a square form-valued matrix
    (sparse rows); 0 when the diagonal is empty."""
    return sum(-row[i] if parities[i] else row[i] for i, row in enumerate(rows) if i in row)


def atiyah(fact: Factorization) -> list[dict[int, DiffForm]]:
    """The curvature part [nabla, delta] of the Atiyah class for the
    trivial connection: the entrywise exterior derivative of delta, as
    sparse rows.  The full Atiyah cocycle is the pair (identity, this)."""
    return [{j: de for j, e in enumerate(row) if e and (de := d_of_poly(e))}
            for row in fact.delta]


@dataclass
class TwistedClass:
    """A twisted de Rham class: Jacobian normal form plus (2 pi i)^(-t)."""

    jac_class: MultiPoly
    twist: int
    potential: MultiPoly
    form: DiffForm

    def __str__(self):
        return f"class (twist {self.twist}): {self.jac_class.canonical_str()}"

    def to_jsonable(self):
        return {"twist": self.twist, "class": self.jac_class.canonical_str()}


def _matrix_chern_form(fact: Factorization) -> DiffForm:
    """str(exp of the Atiyah curvature), truncated exactly at n = dim.

    The k-th Koszul-signed power of the curvature is T((T curv)^k), so the
    powers are plain ``mat_mul`` products of the twisted curvature.  The
    curvature is odd with 1-form entries, so the diagonal of its k-th power
    is zero for odd k and of even form degree k otherwise, where T is the
    identity: the supertrace reads (T curv)^k as it is."""
    par = fact.parities
    curv = _twist(par, atiyah(fact))
    total = DiffForm.const(fact.variables, Fraction(fact.even_rank - fact.odd_rank))
    power = identity(len(par), DiffForm.const(fact.variables, 1))
    for k in range(1, len(fact.variables) + 1):
        power = mat_mul(power, curv)
        total = total + supertrace(par, power) * Fraction(1, factorial(k))
    return total


def chern_character_form(fact: Factorization) -> DiffForm:
    """The wedge of the (even, so commuting) matrix-route forms of ``fact``'s
    tensor factors: ch is multiplicative (Polishchuk-Vaintrob, Duke Math. J.
    161, 2012)."""
    return reduce(DiffForm.wedge, map(_matrix_chern_form, fact.factors))


def _jacobian_reduce(top: MultiPoly, potential: MultiPoly) -> MultiPoly:
    if potential.is_zero():
        return top
    ideal = jacobian_ideal(potential)
    if ideal.pure_power_bounds() is None:
        raise FactorizationError(
            "potential has a non-isolated singularity; no Jacobian reduction")
    return ideal.normal_form(top)


def twisted_class(form: DiffForm, potential: MultiPoly) -> TwistedClass:
    """Check the cocycle condition and reduce the top component (for W = 0
    the top coefficient is kept as is)."""
    w = potential.with_variables(form.variables)
    dw = d_of_poly(w)
    if not dw.wedge(form).is_zero():
        raise FactorizationError("form is not a cocycle for the twisted differential")
    top = form.top_coefficient()
    jac = _jacobian_reduce(top, w)
    return TwistedClass(jac, len(form.variables) // 2, w, form)


def chern_char(fact: Factorization) -> TwistedClass:
    """Localized Chern character as a twisted class: the Chern form is
    checked to be even and a cocycle for wedging with dW, and its top
    component is reduced to a Jacobian normal form."""
    form = chern_character_form(fact)
    if any(deg % 2 for deg in form.form_degrees()):
        raise FactorizationError("Chern form has an odd-degree component")
    return twisted_class(form, fact.potential)


def _bundle_rank(rank: int | None) -> int:
    if rank is None:
        raise ValueError("supply the bundle rank for non-Koszul factorizations")
    return rank


def todd_chern(ch: TwistedClass, rank: int | None) -> TwistedClass:
    """Todd-Chern class, from the Chern character ``ch``, for the trivial
    connection on an affine chart.

    The underlying bundle of a Koszul datum is free, its curvature
    vanishes, and td = 1; the only effect beyond the Chern character is
    the (i/2pi)^rank normalization, carried as a twist shift."""
    return replace(ch, twist=ch.twist + _bundle_rank(rank))


def splitting_degree_check(ch: TwistedClass, rank: int | None) -> bool:
    """Every nonzero component of the Chern form ``ch.form`` of a rank-r
    Koszul factorization has form degree at least 2r."""
    rank = _bundle_rank(rank)
    return all(deg >= 2 * rank for deg in ch.form.form_degrees())


# ---------------------------------------------------------------------------
# the unit of the theory


@dataclass
class UnitClass:
    sector: GroupElement
    coefficients: tuple
    degree: Fraction
    route: str

    def to_jsonable(self):
        return {
            "sector": self.sector.to_jsonable(),
            "coefficients": [str(c) for c in self.coefficients],
            "degree": str(self.degree),
            "route": self.route,
        }


def unit_class(model: GlsmModel) -> UnitClass:
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

    j = GroupElement(model.j_phases)
    fixed = sorted(j.fixed_support())

    if not fixed:
        degree = 2 * (j.age() - model.q)
        return UnitClass(j, (Cyclo.one(),), degree, "narrow generator")

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

    kos = koszul(tau, sigma, variables=fixed_names)
    tdch = todd_chern(chern_char(kos), kos.koszul_rank)
    space = sector_space(model, j)
    coeffs = [tdch.jac_class.coefficient(exp) for exp in space.basis]
    residual = tdch.jac_class
    for exp, c in zip(space.basis, coeffs):
        residual = residual - MultiPoly.monomial(space.fixed_variables, exp, c)
    if not residual.is_zero():
        raise ValueError("Todd-Chern class is not invariant; cannot express in the sector basis")
    return UnitClass(j, tuple(coeffs), space.degree, "koszul todd-chern")
