"""Gauged linear sigma model input data and GIT phase analysis.

A model is the tuple (V, Gamma, chi, w, nu) for a diagonalized abelian
gauge group: the continuous part of Gamma is a torus acting through an
integer/rational weight matrix, the finite part is a list of phase
vectors, and chi / nu are characters written in the torus character
lattice.  R-charges, the degree of the superpotential, and the stability
character complete the datum.

Conventions baked in here:

* Finite generators are supplied as elements of the kernel of chi (the
  sector group); the superpotential must be invariant under them.
* ``validate`` scans w's monomials in integers: R-charges, each finite
  generator, and each torus row with its chi entry are scaled over their
  common denominator.  Euler's identity sum (c_i/d_w) x_i dw/dx_i = w holds
  for a polynomial exactly when every monomial has R-weight d_w, so that
  entry is read off the R-weight scan.
* The continuous dimension of Ker(chi) is (torus rank - 1) when the
  torus is present, else 0; the central charge uses that dimension.
* Semistability of a coordinate support S under a character is the cone
  test "character lies in Cone(weight columns over S)" for the full
  torus.  The kernel-side tests (used for the stable-equals-semistable
  check and for the R-fixed-locus condition) augment the cone with the
  line through chi, which is the Hilbert-Mumford criterion for the
  kernel subgroup.  Semistable supports form an upward-closed family;
  one walk (``_maximal_unstable``) finds the maximal supports failing any
  such predicate, so the minimal semistable supports are complements of
  its answer for t -> "X - t is not semistable".  The walk stops at once
  when the empty support is semistable (the affine case), and every cone
  answer is re-verified from its coefficients or Farkas certificate.
* Properness of the critical locus is certified only in the affine
  regime (finite-dimensional Jacobian ring); geometric phases are
  reported as unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from .config import MODEL, ConfigError, read
from .exactalg import MultiPoly, exact_lp_cone_membership
from .exactalg.linalg import integral, rank as mat_rank, solve as lin_solve, sparse


@dataclass(frozen=True)
class GlsmModel:
    variables: tuple[str, ...]
    torus_weights: tuple[tuple[Fraction, ...], ...]  # rows: torus factors
    finite_generators: tuple[tuple[Fraction, ...], ...]  # phase vectors mod 1
    chi: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]
    r_charges: tuple[Fraction, ...]
    d_w: int
    potential: MultiPoly

    # -- derived quantities ------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def torus_rank(self) -> int:
        return len(self.torus_weights)

    @property
    def dim_kernel(self) -> int:
        """Continuous dimension of Ker(chi); chi kills one torus direction."""
        return max(self.torus_rank - 1, 0)

    @cached_property
    def q(self) -> Fraction:
        return sum(self.r_charges, Fraction(0)) / self.d_w

    @property
    def central_charge(self) -> Fraction:
        return self.n_vars - self.dim_kernel - 2 * self.q

    @property
    def j_phases(self) -> tuple[Fraction, ...]:
        """Phase vector of J = exp(2 pi i / d_w) acting through the R-charges."""
        return tuple((c / self.d_w) % 1 for c in self.r_charges)

    def weight_column(self, i: int) -> list[Fraction]:
        return [row[i] for row in self.torus_weights]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "GlsmModel":
        """Read a model config by ``config.MODEL``; a malformed field raises
        ConfigError naming it."""
        f = read(MODEL, data)
        n, k = len(f["variables"]), len(f["torus_weights"])
        for key, vectors, want, per in (
                ("r_charges", [f["r_charges"]], n, "name in variables"),
                ("chi", [f["chi"]], k, "row of torus_weights"),
                ("nu", [f["nu"]], k, "row of torus_weights"),
                ("torus_weights", f["torus_weights"], n, "name in variables"),
                ("finite_generators", f["finite_generators"], n, "name in variables")):
            if any(len(v) != want for v in vectors):
                raise ConfigError(key, f"expected {want} entries, one per {per}")
        f["finite_generators"] = tuple(tuple(x % 1 for x in g) for g in f["finite_generators"])
        return cls(**f)

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "torus_weights": [[str(x) for x in row] for row in self.torus_weights],
            "finite_generators": [[str(x) for x in g] for g in self.finite_generators],
            "chi": [str(x) for x in self.chi],
            "nu": [str(x) for x in self.nu],
            "r_charges": [str(x) for x in self.r_charges],
            "d_w": self.d_w,
            "potential": self.potential.canonical_str(),
        }


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, passed, detail))

    def to_jsonable(self):
        return [
            {"check": c.name, "passed": c.passed, "detail": c.detail}
            for c in self.checks
        ]


def validate(model: GlsmModel, require_tail_regime: bool = False) -> ValidationReport:
    """Check every structural invariant; failures become report entries."""
    report = ValidationReport()
    terms = model.potential.terms

    charges, den = integral(model.r_charges)  # c_i = charges_i / den
    bad = [exp for exp in terms if sum(map(mul, charges, exp)) != model.d_w * den]
    report.add("quasi_homogeneous", not bad,
               "" if not bad else f"monomial exponents {bad[0]} have the wrong R-weight")
    # sum (c_i/d_w) x_i dw/dx_i sends each term a x^e of w to (c.e / d_w) a x^e, so
    # it equals w exactly when every term has R-weight d_w: the scan above decides it
    report.add("euler_identity", not bad,
               "" if not bad else "sum (c_i/d_w) x_i dw/dx_i != w")

    report.add("r_charges_nonnegative", all(c >= 0 for c in charges))
    if require_tail_regime:
        report.add("r_charges_within_d_w", all(0 <= c <= model.d_w * den for c in charges))

    for gi, g in enumerate(model.finite_generators):  # x^exp pairs with d g in Z/d
        g, d = integral(g)
        bad = [exp for exp in terms if sum(map(mul, g, exp)) % d]
        report.add(f"finite_generator_{gi}_invariance", not bad,
                   "" if not bad else f"monomial {bad[0]} not invariant")

    if model.torus_rank:
        # each torus row scaled together with its chi entry, kept last: map stops before it
        rows = [integral((*row, x))[0] for row, x in zip(model.torus_weights, model.chi)]
        bad = [exp for exp in terms if any(sum(map(mul, row, exp)) != row[-1] for row in rows)]
        report.add("chi_weight_of_potential", not bad,
                   "" if not bad else f"monomial {bad[0]} has torus weight != chi")
        # R-charges must come from a one-parameter subgroup pairing to d_w with chi
        cols = [model.weight_column(i) for i in range(model.n_vars)]
        rhs = sparse([[*model.r_charges, Fraction(model.d_w)]])[0]
        sol = lin_solve(sparse(cols + [list(model.chi)]), rhs, model.torus_rank)
        report.add("r_charge_subgroup", sol is not None, "" if sol is not None
                   else "no torus one-parameter subgroup realizes the R-charges")

    report.add("geometric_properness", True,
               "unchecked outside the affine regime; affine criterion is "
               "finite-dimensionality of the Jacobian ring")
    return report


# ---------------------------------------------------------------------------
# GIT phases


@dataclass
class PhaseDescription:
    character: tuple[Fraction, ...]
    max_unstable_supports: tuple[frozenset[int], ...]
    description: str
    stable_equals_semistable: bool

    def to_jsonable(self, variables):
        return {
            "character": [str(x) for x in self.character],
            "max_unstable_supports": [
                sorted(variables[i] for i in u) for u in self.max_unstable_supports
            ],
            "description": self.description,
            "stable_equals_semistable": self.stable_equals_semistable,
        }


class ConeTester:
    """Memoized support-cone membership tests for one model and character."""

    def __init__(self, model: GlsmModel, character, include_chi_line: bool = False):
        self.model = model
        self.character = [Fraction(x) for x in character]
        self.extra: list[list[Fraction]] = []
        if include_chi_line and model.torus_rank:
            self.extra = [list(model.chi), [-x for x in model.chi]]
        self.memo: dict[frozenset, bool] = {}

    def semistable(self, support: frozenset) -> bool:
        """Is the character in the cone of the support's weight columns?  The
        LP's answer is re-verified from its coefficients or its Farkas
        certificate before it is trusted."""
        if support in self.memo:
            return self.memo[support]
        if not self.model.torus_rank:
            result = True  # no destabilizing one-parameter subgroups
        else:
            gens = [self.model.weight_column(i) for i in sorted(support)] + self.extra
            ans = exact_lp_cone_membership(gens, self.character)
            result, c, y = ans.inside, ans.coefficients, ans.certificate
            if result:
                ok = all(x >= 0 for x in c) and all(
                    _dot(c, [v[r] for v in gens]) == x for r, x in enumerate(self.character))
            else:
                ok = all(_dot(y, v) <= 0 for v in gens) and _dot(y, self.character) > 0
            if not ok:
                names = sorted(self.model.variables[i] for i in support)
                raise ValueError(f"cone test on support {names} returned an "
                                 "answer its certificate does not verify")
        self.memo[support] = result
        return result


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _maximal_unstable(semistable, n: int) -> list[frozenset]:
    """Maximal supports failing an upward-closed predicate ``semistable``.

    The empty support passing means every support does, so the answer is
    empty at once.  Otherwise every passing support is reachable from the
    full one by single deletions through passing intermediates, and every
    maximal failing support appears as a child of a visited passing one.
    """
    full = frozenset(range(n))
    if semistable(frozenset()):
        return []
    if not semistable(full):
        return [full]
    maximal: set[frozenset] = set()
    seen: set[frozenset] = set()

    def visit(support: frozenset):
        if support in seen:
            return
        seen.add(support)
        if semistable(support):
            for i in support:
                visit(support - {i})
        elif all(semistable(support | {i}) for i in range(n) if i not in support):
            maximal.add(support)

    visit(full)
    return sorted(maximal, key=lambda s: (len(s), sorted(s)))


def semistable_locus(model: GlsmModel, character, tester=None) -> PhaseDescription:
    """Describe V^ss(character) by its maximal unstable coordinate supports.
    A ``tester`` given for this model and character shares its LP answers."""
    character = tuple(Fraction(x) for x in character)
    if model.torus_rank and len(character) != model.torus_rank:
        raise ValueError("character dimension does not match the torus rank")
    n = model.n_vars
    tester = tester or ConeTester(model, character)
    maximal = _maximal_unstable(tester.semistable, n)
    pieces = ["{" + " = ".join(model.variables[i] for i in range(n) if i not in u) + " = 0}"
              for u in maximal]
    desc = "V^ss = complement of " + " and ".join(pieces) if maximal else "V^ss = V"
    stable_eq = _stable_equals_semistable(model, character)
    return PhaseDescription(character, tuple(maximal), desc, stable_eq)


def _stable_equals_semistable(model: GlsmModel, character) -> bool:
    """Kernel-side check: every semistable support spans the full character
    space together with chi, so the stabilizer is finite and the character
    avoids the facets."""
    if not model.torus_rank:
        return True
    tester = ConeTester(model, character, include_chi_line=True)
    full = frozenset(range(model.n_vars))
    # minimal semistable supports: complements of the maximal t with X - t semistable
    return all(mat_rank(sparse([model.weight_column(i) for i in sorted(full - t)] + [model.chi]))
               >= model.torus_rank
               for t in _maximal_unstable(lambda t: not tester.semistable(full - t), len(full)))


@dataclass
class DaggerReport:
    holds: bool
    fixed_support: tuple[int, ...]
    witness_support: tuple[int, ...] | None
    detail: str

    def to_jsonable(self, variables):
        return {
            "holds": self.holds,
            "fixed_support": [variables[i] for i in self.fixed_support],
            "witness_support": None if self.witness_support is None
            else [variables[i] for i in self.witness_support],
            "detail": self.detail,
        }


def check_dagger(model: GlsmModel, tester=None) -> DaggerReport:
    """Does the R-fixed coordinate subspace meet the semistable locus?

    The R-fixed subspace is cut out by the coordinates with nonzero
    R-charge.  Semistable supports are upward closed, so the subspace
    meets V^ss iff its full coordinate support is itself semistable.
    A ``tester`` of this model at nu shares its LP answers.
    """
    fixed = tuple(i for i, c in enumerate(model.r_charges) if c == 0)
    nu = [Fraction(x) for x in model.nu] if model.torus_rank else []
    if tester is None or tester.character != nu or tester.extra:
        tester = ConeTester(model, nu)
    if tester.semistable(frozenset(fixed)):
        return DaggerReport(True, fixed, fixed, "fixed subspace meets V^ss")
    return DaggerReport(False, fixed, None, "every support inside the fixed subspace is unstable")
