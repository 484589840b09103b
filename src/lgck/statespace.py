"""State spaces of affine Landau-Ginzburg orbifolds.

For each group element h the sector carries the invariant part of the
Jacobian ring of the restricted potential, twisted by the top form on
the fixed subspace; narrow sectors (empty fixed locus) are spanned by a
single symbol.  The grading is the age-shifted one,

    deg = dim V^h + 2 (age(h) - q),

and the pairing composes multiplication, the inversion pullback
x -> zeta.x (zeta = exp(pi i / d_w)), the Grothendieck residue of the
restricted potential normalized by res(hessian) = Milnor number, and the
stack factor 1/|G|.  Dual narrow generators pair to 1.  These
normalization choices are reported alongside every computed pairing.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod
from operator import mul

from .exactalg import Cyclo, MultiPoly, jacobian_ideal
from .exactalg.linalg import integer_echelon, integral, is_nonsingular
from .forms import DiffForm, d_of_poly
from .glsm import GlsmModel
from .orbifold import DEFAULT_GROUP_BOUND, DiagonalGroup, GroupElement, inertia_sectors, inverses

CONVENTIONS = {
    "residue_normalization": "res(hessian) = milnor number",
    "stack_factor": "1/|G| on broad sectors",
    "narrow_pairing": "dual narrow generators pair to 1",
    "twist_unit": "(2*pi*i)^(-t) carried as the integer exponent t",
}


class NonIsolatedSingularityError(ValueError):
    pass


class ResidueCalculator:
    """Grothendieck residue for one isolated quasi-homogeneous singularity.

    The socle of the Milnor algebra of a quasi-homogeneous isolated
    singularity is one-dimensional, so there is exactly one standard
    monomial of top weighted degree and the hessian class is a scalar
    multiple of it.  The residue of p is then the coefficient of that
    monomial in the normal form of p, rescaled so res(hessian) = mu.  The
    hessian is the top coefficient of d(dw/dx_1) ^ ... ^ d(dw/dx_n), which is
    det(d^2 w / dx_i dx_j) dx_1 ^ ... ^ dx_n.

    Each partial dw/dx_i is homogeneous for the grading of Z^n by Z^n / L,
    L the lattice spanned by the exponents of w (the characters that the
    diagonal symmetries of w leave trivial), and for the weighted degree.
    Normal forms keep both, so a monomial's residue vanishes unless its
    ``symmetry_class`` is that of the socle (the selection rule).
    """

    def __init__(self, w: MultiPoly, weights, rows=(), d=1):
        self.w = w
        self.variables = w.variables
        self.weights = [Fraction(x) for x in weights]
        self._charges, den = integral(self.weights)  # q_i = charges_i / den
        for exp in w.terms:
            if sum(map(mul, self._charges, exp)) != den:
                raise ValueError(
                    f"potential {w.canonical_str()} is not quasi-homogeneous "
                    f"of degree 1 under weights ({', '.join(map(str, self.weights))})")
        self.ideal = jacobian_ideal(w)
        self.basis = self.ideal.quotient_basis(rows, d)  # only G-invariant ones, given rows
        if self.basis is None:
            raise NonIsolatedSingularityError(
                f"potential {w.canonical_str()} has a non-isolated singularity"
            )
        self.milnor_number = self.ideal.dimension  # the same walk counts them all
        self._cache: dict[tuple, Cyclo] = {}
        self._lattice = integer_echelon(w.terms)
        if self.milnor_number:
            hess = reduce(DiffForm.wedge, (d_of_poly(w.derivative(a)) for a in self.variables),
                          DiffForm.const(w.variables, 1)).top_coefficient()
            hess_nf = self.ideal.normal_form(hess)
            if len(hess_nf.terms) != 1:
                raise ValueError(
                    f"potential {w.canonical_str()}: hessian class is not a single "
                    "standard monomial; no quasi-homogeneous 1-dim socle"
                )
            (self.socle_monomial, self.socle_coeff), = hess_nf.terms.items()
            self.socle_class = self.symmetry_class(self.socle_monomial)
            # the socle's weighted degree (the class's last entry) is sum (1 - 2 q_i), times den
            if self.socle_class[-1] != len(self.weights) * den - 2 * sum(self._charges):
                raise ValueError(f"potential {w.canonical_str()}: socle_degree check fails")
        else:
            self.socle_monomial = self.socle_coeff = self.socle_class = None
        # Milnor-Orlik: mu = prod (1/q_i - 1) = prod (den - c_i) / prod c_i
        if all(c > 0 for c in self._charges) and \
                self.milnor_number * prod(self._charges) != prod(den - c for c in self._charges):
            raise ValueError(f"potential {w.canonical_str()}: milnor_orlik check fails")

    def symmetry_class(self, exp) -> tuple:
        """The canonical representative of exp modulo L, then its weighted
        degree over the weights' common denominator."""
        v = list(exp)
        for col, pivot, tail in self._lattice:
            if k := v[col] // pivot:
                v[col] -= k * pivot
                for c, x in tail.items():
                    v[c] -= k * x
        return (*v, sum(c * a for c, a in zip(self._charges, exp)))

    def residue_of_monomial(self, exp: tuple) -> Cyclo:
        exp = tuple(exp)
        hit = self._cache.get(exp)
        if hit is None:
            c = self.symmetry_class(exp) == self.socle_class and self.ideal.normal_form(
                MultiPoly.monomial(self.variables, exp)).terms.get(self.socle_monomial)
            hit = c * self.milnor_number / self.socle_coeff if c else Cyclo.zero()
            self._cache[exp] = hit
        return hit


@dataclass
class SectorSpace:
    """Basis and grading data of one inertia sector."""

    element: GroupElement
    fixed_variables: tuple[str, ...]
    basis: list | tuple  # exponent tuples, one list per fixed locus; ("1",) if narrow
    degree: Fraction
    calculator: ResidueCalculator | None  # None on narrow sectors

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def narrow(self) -> bool:
        return self.calculator is None

    def basis_labels(self) -> list[str]:
        if self.narrow:
            return ["1"]
        return ["*".join(v if a == 1 else f"{v}^{a}" for v, a in zip(self.fixed_variables, exp)
                         if a) or "1" for exp in self.basis]

    def to_jsonable(self, variables):
        return {
            "sector": self.element.to_jsonable(variables),
            "dimension": self.dimension,
            "degree": str(self.degree),
            "basis": self.basis_labels(),
        }


def sector_space(model: GlsmModel, h: GroupElement, group=None,
                 memo: dict | None = None) -> SectorSpace:
    """Invariant Jacobian-ring classes of the restricted potential: the
    x^exp dx_fixed whose character, exp + 1 on the fixed coordinates, is
    trivial on ``group``, the model's ``DiagonalGroup`` or a list of elements
    or generators of it (by default J and the ``finite_generators``).

    The restricted potential and its invariant classes depend on the fixed
    locus alone, so sectors that share a ``memo`` dict, and one ``group``,
    share one calculator and one invariant basis per fixed support."""
    support = h.fixed_support()
    fixed = sorted(support)
    fixed_names = tuple(model.variables[i] for i in fixed)
    q = model.q  # deg = |fixed| + 2 (sum(nums) / d - q), over d * den(q)
    deg = Fraction((len(fixed) * h.d + 2 * sum(h.nums)) * q.denominator - 2 * q.numerator * h.d,
                   h.d * q.denominator)

    if not fixed:
        return SectorSpace(h, (), ("1",), deg, None)

    memo = {} if memo is None else memo
    if (calc := memo.get(support)) is None:
        moving_names = [model.variables[i] for i in range(model.n_vars) if i not in fixed]
        w_res = model.potential.restrict_zero(moving_names).drop_variables(moving_names)
        weights = [Fraction(model.r_charges[i], model.d_w) for i in fixed]
        if not isinstance(group, DiagonalGroup):
            group = DiagonalGroup.of(model) if group is None else DiagonalGroup(group)
        try:
            calc = memo[support] = ResidueCalculator(w_res, weights, group.restricted(fixed),
                                                     group.d)
        except ValueError as exc:
            raise type(exc)(f"sector {h.label()}: restricted {exc}") from None
    return SectorSpace(h, fixed_names, calc.basis, deg, calc)


GramBlock = namedtuple("GramBlock", ["rows", "width"])  # rows {column: entry}


class StateSpace:
    """All sectors of a model, with the twisted residue pairing.

    Gram blocks are kept as sparse rows ({column: nonzero entry}).  By the
    selection rule a basis monomial e1 pairs only with the inverse-sector
    monomials e2 whose symmetry class is that of socle - e1: the same
    weighted degree and the same class modulo the exponent lattice.  On a
    Fermat sector that is the single monomial socle - e1.
    """

    def __init__(self, model: GlsmModel, bound: int = DEFAULT_GROUP_BOUND):
        self.model = model
        group, memo = DiagonalGroup.of(model), {}
        self.group_order = group.order
        sectors = inertia_sectors(model, bound, group)
        self.spaces: dict[tuple, SectorSpace] = {  # by phase vector, in sector order
            h.phases: sector_space(model, h, group, memo) for h in sectors}
        self.inverse = inverses(sectors)  # phase vector -> its inverse's
        self._gram_cache: dict[tuple, GramBlock] = {}

    # -- bookkeeping -----------------------------------------------------

    def space(self, phases) -> SectorSpace:
        return self.spaces[tuple(phases)]

    def total_dimension(self) -> int:
        return sum(s.dimension for s in self.spaces.values())

    def degree_histogram(self) -> dict[Fraction, int]:
        hist: dict[Fraction, int] = {}
        for s in self.spaces.values():
            if s.dimension:
                hist[s.degree] = hist.get(s.degree, 0) + s.dimension
        return dict(sorted(hist.items()))

    # -- the inversion pullback and pairing --------------------------------

    def _inversion_scalars(self, space: SectorSpace, factor=1) -> list[Cyclo]:
        """The factor x -> zeta.x puts on each basis class (top form included),
        times ``factor``: one exact root of unity per class of the phase mod 2 d_w."""
        fixed = sorted(space.element.fixed_support())
        charges, den = integral([self.model.r_charges[i] for i in fixed])
        classes = [sum(c * (a + 1) for c, a in zip(charges, exp)) % (2 * self.model.d_w * den)
                   for exp in space.basis]
        scalars = {}
        for k in set(classes):  # exp(pi i t / d_w), in the field of t's reduced denominator
            t = Fraction(k, den)
            order = 2 * self.model.d_w * t.denominator
            scalars[k] = Cyclo.root_of_unity(order, t.numerator % order) * factor
        return [scalars[k] for k in classes]

    def gram_block(self, phases) -> GramBlock:
        """The sector's Gram block: sparse rows over the inverse sector's basis,
        whose dimension is the width."""
        phases = tuple(phases)
        block = self._gram_cache.get(phases)
        if block is not None:
            return block
        space = self.space(phases)
        other = self.spaces[self.inverse[phases]]
        if space.narrow:
            rows = [{0: Cyclo.one()}]
        else:
            calc = space.calculator
            scalars = self._inversion_scalars(other, Fraction(1, self.group_order))
            index = {}
            for j, e2 in enumerate(other.basis):
                index.setdefault(calc.symmetry_class(e2), []).append(j)
            rows = []
            for e1 in space.basis:
                row = {}
                partner = tuple(s - a for s, a in zip(calc.socle_monomial, e1))
                for j in index.get(calc.symmetry_class(partner), ()):
                    r = calc.residue_of_monomial(
                        tuple(a + b for a, b in zip(e1, other.basis[j])))
                    if r:
                        row[j] = r * scalars[j]
                rows.append(row)
        block = self._gram_cache[phases] = GramBlock(rows, other.dimension)
        return block

    def gram_rows(self, phases) -> list[dict[int, Cyclo]]:
        return self.gram_block(phases).rows

    def gram_matrix(self, phases) -> list[list[Cyclo]]:
        """The Gram block as dense rows, absent entries sharing one zero: a
        view for tests and benchmarks; the library reads ``gram_rows``."""
        zero, (rows, width) = Cyclo.zero(), self.gram_block(phases)
        return [[row.get(j, zero) for j in range(width)] for row in rows]

    def gram_nonsingular(self, phases) -> bool:
        return is_nonsingular(*self.gram_block(phases))

    # -- reporting ------------------------------------------------------------

    def to_jsonable(self) -> dict:
        sectors = []
        for phases, space in self.spaces.items():
            entry = space.to_jsonable(self.model.variables)
            entry["gram"] = self.gram_block(phases)
            entry["gram_nonsingular"] = self.gram_nonsingular(phases)
            sectors.append(entry)
        return {
            "conventions": CONVENTIONS,
            "total_dimension": self.total_dimension(),
            "degree_histogram": {str(d): n for d, n in self.degree_histogram().items()},
            "sectors": sectors,
        }


# ---------------------------------------------------------------------------
# sums of singularities


def sum_model(model1: GlsmModel, model2: GlsmModel) -> GlsmModel:
    """The fiber-product model of two affine LG models over their chi's."""
    if set(model1.variables) & set(model2.variables):
        raise ValueError("variable collision between the summands")
    if model1.d_w != model2.d_w:
        raise ValueError("mismatched d_w; rescale charges first")
    n1, n2 = model1.n_vars, model2.n_vars
    variables = model1.variables + model2.variables
    charges = model1.r_charges + model2.r_charges
    gens = [tuple(g) + (Fraction(0),) * n2 for g in model1.finite_generators]
    gens += [(Fraction(0),) * n1 + tuple(g) for g in model2.finite_generators]
    # antidiagonal mu_{d_w} from the fiber product Gamma_1 x_{C*} Gamma_2
    gens.append(tuple(model1.j_phases) + (Fraction(0),) * n2)
    w = model1.potential.with_variables(variables) + model2.potential.with_variables(variables)
    return GlsmModel(
        variables=variables,
        torus_weights=(charges,),
        finite_generators=tuple(gens),
        chi=(Fraction(model1.d_w),),
        nu=(Fraction(0),),
        r_charges=charges,
        d_w=model1.d_w,
        potential=w,
    )


@dataclass
class KunnethWitness:
    """Explicit graded isomorphism H(sum) = H_1 (x) H_2, sector by sector."""

    pairs: list[dict]

    def to_jsonable(self):
        return self.pairs


def kunneth_sum(model1: GlsmModel, model2: GlsmModel):
    """Build the sum model and the sector-wise tensor decomposition."""
    combined = sum_model(model1, model2)
    s1, s2, s = StateSpace(model1), StateSpace(model2), StateSpace(combined)
    pairs = []
    for k1, sp1 in s1.spaces.items():
        for k2, sp2 in s2.spaces.items():
            h1, h2, sp = sp1.element, sp2.element, s.space(k1 + k2)
            if sp.dimension != sp1.dimension * sp2.dimension:
                raise AssertionError(
                    f"Kunneth dimension mismatch on sectors {h1.label()} x {h2.label()}"
                )
            scale = Fraction(1)  # 1/|G_i| when only summand i is narrow
            if sp1.narrow != sp2.narrow:
                scale /= s1.group_order if sp1.narrow else s2.group_order
            pairs.append({
                "sector_1": h1.to_jsonable(),
                "sector_2": h2.to_jsonable(),
                "dim_1": sp1.dimension,
                "dim_2": sp2.dimension,
                "dim_sum": sp.dimension,
                "degree_sum_matches": sp.degree == sp1.degree + sp2.degree
                if sp.dimension else True,
                "pairing_scale": str(scale),
            })
    return combined, s, KunnethWitness(pairs)
