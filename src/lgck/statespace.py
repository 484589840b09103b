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
from math import lcm, prod

from .exactalg import Cyclo, MultiPoly, drl_key, jacobian_ideal
from .exactalg.linalg import integer_echelon, rank, solve, sparse
from .glsm import GlsmModel
from .orbifold import DEFAULT_GROUP_BOUND, DiagonalGroup, GroupElement, Sector, inertia_sectors

CONVENTIONS = {
    "residue_normalization": "res(hessian) = milnor number",
    "stack_factor": "1/|G| on broad sectors",
    "narrow_pairing": "dual narrow generators pair to 1",
    "twist_unit": "(2*pi*i)^(-t) carried as the integer exponent t",
}


class NonIsolatedSingularityError(ValueError):
    pass


def _poly_det(rows: list[dict[int, MultiPoly]], zero: MultiPoly) -> MultiPoly:
    """Cofactor expansion of sparse rows along the first row."""
    if not rows:
        raise ValueError("empty matrix")
    if len(rows) == 1:
        return rows[0].get(0, zero)
    out = zero
    for j, entry in rows[0].items():
        minor = [{k if k < j else k - 1: x for k, x in row.items() if k != j} for row in rows[1:]]
        piece = entry * _poly_det(minor, zero)
        out = out + (piece if j % 2 == 0 else -piece)
    return out


class ResidueCalculator:
    """Grothendieck residue for one isolated quasi-homogeneous singularity.

    The socle of the Milnor algebra of a quasi-homogeneous isolated
    singularity is one-dimensional, so there is exactly one standard
    monomial of top weighted degree and the hessian class is a scalar
    multiple of it.  The residue of p is then the coefficient of that
    monomial in the normal form of p, rescaled so res(hessian) = mu.

    Each partial dw/dx_i is homogeneous for the grading of Z^n by Z^n / L,
    L the lattice spanned by the exponents of w (the characters that the
    diagonal symmetries of w leave trivial), and for the weighted degree.
    Normal forms keep both, so a monomial's residue vanishes unless its
    ``symmetry_class`` is that of the socle (the selection rule).
    """

    def __init__(self, w: MultiPoly, weights):
        self.w = w
        self.variables = w.variables
        self.weights = [Fraction(x) for x in weights]
        for exp in w.terms:
            if self.weighted_degree(exp) != 1:
                raise ValueError(
                    f"potential {w.canonical_str()} is not quasi-homogeneous "
                    f"of degree 1 under weights ({', '.join(map(str, self.weights))})")
        self.ideal = jacobian_ideal(w)
        std = self.ideal.quotient_basis()
        if std is None:
            raise NonIsolatedSingularityError(
                f"potential {w.canonical_str()} has a non-isolated singularity"
            )
        self.standard_monomials = std
        self.milnor_number = len(std)
        self._cache: dict[tuple, Cyclo] = {}
        den = lcm(*(q.denominator for q in self.weights))
        self._charges = [int(q * den) for q in self.weights]
        self._lattice = integer_echelon(w.terms)
        if self.milnor_number:
            hess = _poly_det(sparse([[w.derivative(a).derivative(b) for b in self.variables]
                                     for a in self.variables]), MultiPoly.zero(w.variables))
            hess_nf = self.ideal.normal_form(hess)
            if len(hess_nf.terms) != 1:
                raise ValueError(
                    f"potential {w.canonical_str()}: hessian class is not a single "
                    "standard monomial; no quasi-homogeneous 1-dim socle"
                )
            (self.socle_monomial, self.socle_coeff), = hess_nf.terms.items()
            self.socle_degree = self.weighted_degree(self.socle_monomial)
            self.socle_class = self.symmetry_class(self.socle_monomial)
            if self.socle_degree != sum(1 - 2 * q for q in self.weights):
                raise ValueError(f"potential {w.canonical_str()}: socle_degree check fails")
        else:
            self.socle_monomial = self.socle_coeff = None
            self.socle_degree = self.socle_class = None
        if all(q > 0 for q in self.weights) and \
                self.milnor_number != prod(1 / q - 1 for q in self.weights):
            raise ValueError(f"potential {w.canonical_str()}: milnor_orlik check fails")

    def weighted_degree(self, exp) -> Fraction:
        return sum((w_ * a for w_, a in zip(self.weights, exp)), Fraction(0))

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

    def residue(self, p: MultiPoly) -> Cyclo:
        """res[p dx / (dw_1 ... dw_n)], normalized so res(hessian) = mu."""
        if self.milnor_number == 0:
            return Cyclo.zero()
        nf = self.ideal.normal_form(p)
        c = nf.terms.get(self.socle_monomial)
        if c is None:
            return Cyclo.zero()
        return c * self.milnor_number / self.socle_coeff

    def residue_of_monomial(self, exp: tuple) -> Cyclo:
        exp = tuple(exp)
        hit = self._cache.get(exp)
        if hit is None:
            c = self.symmetry_class(exp) == self.socle_class and \
                self.ideal.monomial_normal_form(exp).get(self.socle_monomial)
            hit = c * self.milnor_number / self.socle_coeff if c else Cyclo.zero()
            self._cache[exp] = hit
        return hit


def residue(p: MultiPoly, w: MultiPoly, weights=None) -> Cyclo:
    """Standalone residue; weights are inferred from quasi-homogeneity if omitted."""
    if weights is None:
        weights = _infer_weights(w)
    return ResidueCalculator(w, weights).residue(p)


def _infer_weights(w: MultiPoly):
    exps = sorted(w.terms, key=drl_key)
    if not exps:
        raise ValueError("cannot infer weights of the zero potential")
    n = len(w.variables)
    sol = solve(sparse(exps), dict.fromkeys(range(len(exps)), Fraction(1)), n)
    if sol is None:
        raise ValueError("potential is not quasi-homogeneous; supply weights")
    return [sol.get(i, Fraction(0)) for i in range(n)]


@dataclass
class SectorSpace:
    """Basis and grading data of one inertia sector."""

    sector: Sector
    fixed_variables: tuple[str, ...]
    basis: tuple  # exponent tuples for broad sectors; ("1",) for narrow
    degree: Fraction
    calculator: ResidueCalculator | None  # None on narrow sectors

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def narrow(self) -> bool:
        return self.sector.narrow

    def basis_labels(self) -> list[str]:
        if self.narrow:
            return ["1"]
        out = []
        for exp in self.basis:
            mono = MultiPoly.monomial(self.fixed_variables, exp, 1)
            out.append(mono.canonical_str())
        return out

    def to_jsonable(self, variables):
        return {
            "sector": self.sector.to_jsonable(variables),
            "dimension": self.dimension,
            "degree": str(self.degree),
            "basis": self.basis_labels(),
        }


def sector_space(model: GlsmModel, h: GroupElement,
                 group=None) -> SectorSpace:
    """Invariant Jacobian-ring classes of the restricted potential: the
    x^exp dx_fixed whose character, exp + 1 on the fixed coordinates, is
    trivial on ``group``, the model's ``DiagonalGroup`` or a list of elements
    or generators of it (by default J and the ``finite_generators``)."""
    sector = Sector.of(h)
    fixed = sorted(sector.fixed_support)
    fixed_names = tuple(model.variables[i] for i in fixed)
    deg = Fraction(len(fixed)) + 2 * (sector.age - model.q)

    if not fixed:
        return SectorSpace(sector, (), ("1",), deg, None)

    moving_names = [model.variables[i] for i in range(model.n_vars) if i not in fixed]
    w_res = model.potential.restrict_zero(moving_names).drop_variables(moving_names)
    weights = [Fraction(model.r_charges[i], model.d_w) for i in fixed]
    try:
        calc = ResidueCalculator(w_res, weights)
    except ValueError as exc:
        raise type(exc)(f"sector {h.label()}: restricted {exc}") from None
    if not isinstance(group, DiagonalGroup):
        group = DiagonalGroup.of(model) if group is None else DiagonalGroup(group)
    invariant = tuple(exp for exp in calc.standard_monomials
                      if group.fixes([a + 1 for a in exp], fixed))
    return SectorSpace(sector, fixed_names, invariant, deg, calc)


GramBlock = namedtuple("GramBlock", ["rows", "width"])  # rows {column: entry}, for reports


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
        lattice = DiagonalGroup.of(model)
        self.sectors = inertia_sectors(model, bound, lattice)
        self.group = [sec.element for sec in self.sectors]
        self.group_order = len(self.group)
        self.spaces: dict[tuple, SectorSpace] = {}
        for sec in self.sectors:
            self.spaces[sec.element.phases] = sector_space(model, sec.element, lattice)
        self.inverse_phases = {s.element.phases: s.element.inverse().phases for s in self.sectors}
        self._gram_cache: dict[tuple, list[dict[int, Cyclo]]] = {}

    # -- bookkeeping -----------------------------------------------------

    def space(self, h) -> SectorSpace:
        phases = h.phases if isinstance(h, GroupElement) else tuple(h)
        return self.spaces[phases]

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
        fixed = sorted(space.sector.fixed_support)
        den = lcm(*(self.model.r_charges[i].denominator for i in fixed))
        charges = [int(self.model.r_charges[i] * den) for i in fixed]
        classes = [sum(c * (a + 1) for c, a in zip(charges, exp)) % (2 * self.model.d_w * den)
                   for exp in space.basis]
        scalars = {}
        for k in set(classes):  # exp(pi i t / d_w), in the field of t's reduced denominator
            t = Fraction(k, den)
            order = 2 * self.model.d_w * t.denominator
            scalars[k] = Cyclo.root_of_unity(order, t.numerator % order) * factor
        return [scalars[k] for k in classes]

    def gram_rows(self, phases) -> list[dict[int, Cyclo]]:
        """The sector's Gram block as sparse rows over the inverse sector's basis."""
        phases = tuple(phases)
        rows = self._gram_cache.get(phases)
        if rows is not None:
            return rows
        space = self.space(phases)
        if space.narrow:
            rows = [{0: Cyclo.one()}]
        else:
            other = self.space(self.inverse_phases[phases])
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
        self._gram_cache[phases] = rows
        return rows

    def gram_block(self, phases) -> GramBlock:
        """The Gram rows with their width, the inverse sector's dimension."""
        width = self.space(self.inverse_phases[tuple(phases)]).dimension
        return GramBlock(self.gram_rows(phases), width)

    def gram_matrix(self, phases) -> list[list[Cyclo]]:
        """The Gram block as dense rows, absent entries sharing one zero: a
        view for tests and benchmarks; the library reads ``gram_rows``."""
        zero, (rows, width) = Cyclo.zero(), self.gram_block(phases)
        return [[row.get(j, zero) for j in range(width)] for row in rows]

    def gram_nonsingular(self, phases) -> bool:
        rows, width = self.gram_block(phases)
        return len(rows) == width == rank(rows)

    # -- reporting ------------------------------------------------------------

    def to_jsonable(self) -> dict:
        sectors = []
        for sec in self.sectors:
            phases = sec.element.phases
            entry = self.spaces[phases].to_jsonable(self.model.variables)
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


def with_scaled_charges(model: GlsmModel, factor: int) -> GlsmModel:
    """Rescale (r_charges, d_w) by an integer factor; the theory is unchanged."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return GlsmModel(
        variables=model.variables,
        torus_weights=model.torus_weights,
        finite_generators=model.finite_generators,
        chi=tuple(x * factor for x in model.chi),
        nu=model.nu,
        r_charges=tuple(c * factor for c in model.r_charges),
        d_w=model.d_w * factor,
        potential=model.potential,
    )


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
    for h1 in s1.group:
        for h2 in s2.group:
            joint = h1.phases + h2.phases
            sp1, sp2, sp = s1.space(h1.phases), s2.space(h2.phases), s.space(joint)
            if sp.dimension != sp1.dimension * sp2.dimension:
                raise AssertionError(
                    f"Kunneth dimension mismatch on sectors {h1.label()} x {h2.label()}"
                )
            scale = Fraction(1)  # 1/|G_i| when only summand i is narrow
            if sp1.narrow != sp2.narrow:
                scale /= s1.group_order if sp1.narrow else s2.group_order
            pairs.append({
                "sector_1": [str(p) for p in h1.phases],
                "sector_2": [str(p) for p in h2.phases],
                "dim_1": sp1.dimension,
                "dim_2": sp2.dimension,
                "dim_sum": sp.dimension,
                "degree_sum_matches": sp.degree == sp1.degree + sp2.degree
                if sp.dimension else True,
                "pairing_scale": str(scale),
            })
    return combined, s, KunnethWitness(pairs)
