"""Finite abelian symmetry groups acting diagonally: elements, sectors, ages.

Group elements are phase vectors in (Q/Z)^n; the element acts on the i-th
coordinate by exp(2 pi i phase_i).  Everything is abelian, so conjugacy
classes are singletons and centralizers are the whole group, and each
element is the record of its own inertia sector.  An element also holds
its phases as integer numerators over one modulus d, which give its age,
fixed locus and inverse; the ``Fraction`` phases are printed or keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .exactalg.linalg import integer_echelon, integral
from .glsm import ConeTester, GlsmModel, _maximal_unstable

DEFAULT_GROUP_BOUND = 10 ** 6


class GroupElement:
    """Diagonal symmetry, stored as a reduced phase vector and as the
    numerators ``nums`` of its phases over a modulus ``d``."""

    __slots__ = ("phases", "nums", "d")

    def __init__(self, phases):
        self.phases = tuple(Fraction(p) % 1 for p in phases)
        self.nums, self.d = integral(self.phases)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if len(self.phases) != len(other.phases):
            raise ValueError("phase vectors of different lengths")
        return GroupElement(a + b for a, b in zip(self.phases, other.phases))

    def fixed_support(self) -> frozenset[int]:
        return frozenset(i for i, a in enumerate(self.nums) if not a)

    def age(self) -> Fraction:
        return Fraction(sum(self.nums), self.d)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.phases == other.phases

    def __hash__(self):
        return hash(self.phases)

    def __lt__(self, other):
        return self.phases < other.phases

    def __repr__(self):
        return "GroupElement(" + ", ".join(str(p) for p in self.phases) + ")"

    def label(self) -> str:
        return "(" + ",".join(str(p) for p in self.phases) + ")"

    def to_jsonable(self, variables=None):
        """The phases as strings; given the variable names, the whole sector
        record: the element, its fixed locus, narrowness and age."""
        phases = [str(p) for p in self.phases]
        if variables is None:
            return phases
        support = self.fixed_support()
        return {"element": phases, "fixed_support": sorted(variables[i] for i in support),
                "narrow": not support, "age": str(self.age())}


class DiagonalGroup:
    """The group G the phase vectors generate, as one integer lattice.

    With d the common denominator of the phases, G = L / (d Z)^n for L the
    lattice of the d e_i and the d g_j.  An ``integer_echelon`` basis of L
    has n rows, row k with a pivot p_k | d at column k (kept mod d, so p_k = d
    reads 0).  So |G| = d^n / prod p_k, and the sums sum a_k row_k mod d,
    0 <= a_k < d / p_k, are the elements of G, each once."""

    def __init__(self, generators):
        gens = [g.phases if isinstance(g, GroupElement) else tuple(map(Fraction, g))
                for g in generators]
        n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise ValueError("phase vectors of different lengths")
        self.d = d = lcm(*(p.denominator for g in gens for p in g))
        lattice = [[d * (i == j) for j in range(n)] for i in range(n)]
        lattice += [[p.numerator * (d // p.denominator) % d for p in g] for g in gens]
        self.rows = [tuple((pivot if c == col else tail.get(c, 0)) % d for c in range(n))
                     for col, pivot, tail in integer_echelon(lattice)]
        self.ranges = [range(d // (row[k] or d)) for k, row in enumerate(self.rows)]
        self.order = prod(map(len, self.ranges))

    @classmethod
    def of(cls, model: GlsmModel) -> "DiagonalGroup":
        """The model's group, generated by J and the finite generators."""
        return cls([model.j_phases, *model.finite_generators])

    def elements(self, bound: int = DEFAULT_GROUP_BOUND) -> list[GroupElement]:
        """Every element, sorted; above ``bound`` refused before any is built."""
        if self.order > bound:
            raise ValueError(f"group order exceeds bound {bound}")
        d, vectors = self.d, [(0,) * len(self.rows)]
        for row, coefficients in zip(self.rows, self.ranges):
            vectors = [tuple((x + a * y) % d for x, y in zip(v, row))
                       for v in vectors for a in coefficients]
        phase = [Fraction(a, d) for a in range(d)]  # shared; d <= order
        out = [GroupElement.__new__(GroupElement) for _ in vectors]  # phases reduced already
        for h, v in zip(out, sorted(vectors)):
            h.phases, h.nums, h.d = tuple(map(phase.__getitem__, v)), v, d
        return out

    def restricted(self, support) -> tuple:
        """The distinct nonzero rows restricted to ``support``: x^c there is
        G-invariant iff c pairs to 0 mod d with each."""
        return tuple({tuple(row[i] for i in support) for row in self.rows} - {(0,) * len(support)})

    def contains(self, phases) -> bool:
        """Whether the phase vector lies in G: adjoining it keeps the order."""
        rows = [[Fraction(x, self.d) for x in row] for row in self.rows]
        return DiagonalGroup([*rows, phases]).order == self.order


def inverses(elements) -> dict[tuple, tuple]:
    """Each phase vector to its inverse's, for elements that share one
    modulus d, as ``DiagonalGroup.elements`` builds them."""
    by_nums = {h.nums: h.phases for h in elements}
    return {h.phases: by_nums[tuple(-a % h.d for a in h.nums)] for h in elements}


def sector_group(model: GlsmModel, bound: int = DEFAULT_GROUP_BOUND,
                 group: DiagonalGroup | None = None) -> list[GroupElement]:
    """The elements of the model's group (``group``, when already built)."""
    return (group or DiagonalGroup.of(model)).elements(bound)


def inertia_sectors(model: GlsmModel, bound: int = DEFAULT_GROUP_BOUND,
                    group: DiagonalGroup | None = None) -> list[GroupElement]:
    """One sector per group element; requires the affine regime V^ss = V:
    no maximal unstable support at nu."""
    if model.torus_rank and _maximal_unstable(ConeTester(model, model.nu).semistable,
                                              model.n_vars):
        raise ValueError("model is not in the affine regime (V^ss != V); only "
                         "narrow-sector bookkeeping is available for geometric phases")
    return sector_group(model, bound, group)
