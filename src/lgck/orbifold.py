"""Finite abelian symmetry groups acting diagonally: elements, sectors, ages.

Group elements are phase vectors in (Q/Z)^n; the element acts on the i-th
coordinate by exp(2 pi i phase_i).  Everything is abelian, so conjugacy
classes are singletons and centralizers are the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .exactalg.linalg import integer_echelon
from .glsm import GlsmModel, semistable_locus

DEFAULT_GROUP_BOUND = 10 ** 6


class GroupElement:
    """Diagonal symmetry, stored as a reduced phase vector."""

    __slots__ = ("phases",)

    def __init__(self, phases):
        self.phases = tuple(Fraction(p) % 1 for p in phases)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if len(self.phases) != len(other.phases):
            raise ValueError("phase vectors of different lengths")
        return GroupElement(a + b for a, b in zip(self.phases, other.phases))

    def inverse(self) -> "GroupElement":
        return GroupElement(-p for p in self.phases)

    def fixed_support(self) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.phases) if p == 0)

    def age(self) -> Fraction:
        return sum(self.phases, Fraction(0))

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


def group_order(generators) -> int:
    """Order of the group the phase vectors generate, without enumerating it:
    D^n / det L, with D the common denominator of the phases and L the
    lattice spanned by the D e_i and the D g_j (reduced mod D, which L
    contains in every coordinate).  det L is the product of the pivots of
    an integer echelon form of L."""
    n = len(generators[0])
    d = lcm(*(p.denominator for g in generators for p in g))
    rows = [[d * (i == j) for j in range(n)] for i in range(n)]
    rows += [[p.numerator * (d // p.denominator) % d for p in g] for g in generators]
    return d ** n // prod(pivot for _, pivot, _ in integer_echelon(rows))


def enumerate_group(generators, bound: int = DEFAULT_GROUP_BOUND) -> list[GroupElement]:
    """All products of the generators; deterministic phase-vector order.  A
    group of order above ``bound`` is refused before it is enumerated."""
    gens = [g if isinstance(g, GroupElement) else GroupElement(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator (the identity is fine)")
    n = len(gens[0].phases)
    if any(len(g.phases) != n for g in gens):
        raise ValueError("phase vectors of different lengths")
    if group_order([g.phases for g in gens]) > bound:
        raise ValueError(f"group order exceeds bound {bound}")
    # search integer phase vectors mod d; sorting them sorts the phases
    d = lcm(*(p.denominator for g in gens for p in g.phases))
    steps = [tuple(p.numerator * (d // p.denominator) for p in g.phases) for g in gens]
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in steps:
                y = tuple((a + b) % d for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    phase = {a: Fraction(a, d) for a in {a for v in seen for a in v}}
    out = [GroupElement.__new__(GroupElement) for _ in seen]  # phases reduced already
    for h, v in zip(out, sorted(seen)):
        h.phases = tuple(map(phase.__getitem__, v))
    return out


@dataclass(frozen=True)
class Sector:
    """One inertia component: a group element with its fixed-locus data."""

    element: GroupElement
    fixed_support: frozenset[int]
    narrow: bool
    age: Fraction

    @classmethod
    def of(cls, h: GroupElement) -> "Sector":
        support = h.fixed_support()
        return cls(h, support, not support, h.age())

    def to_jsonable(self, variables):
        return {
            "element": [str(p) for p in self.element.phases],
            "fixed_support": sorted(variables[i] for i in self.fixed_support),
            "narrow": self.narrow,
            "age": str(self.age),
        }


def sector_group(model: GlsmModel, bound: int = DEFAULT_GROUP_BOUND) -> list[GroupElement]:
    """The finite diagonal group generated by J and the finite generators."""
    gens = [GroupElement(model.j_phases)]
    gens += [GroupElement(g) for g in model.finite_generators]
    return enumerate_group(gens, bound)


def inertia_sectors(model: GlsmModel, bound: int = DEFAULT_GROUP_BOUND) -> list[Sector]:
    """One sector per group element; requires the affine regime V^ss = V."""
    if model.torus_rank:
        phase = semistable_locus(model, model.nu)
        if phase.max_unstable_supports:
            raise ValueError(
                "model is not in the affine regime (V^ss != V); only "
                "narrow-sector bookkeeping is available for geometric phases"
            )
    return [Sector.of(h) for h in sector_group(model, bound)]
