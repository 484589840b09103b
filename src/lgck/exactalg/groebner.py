"""Groebner bases over Q(zeta_N) and Jacobian-ring utilities.

The monomial order is fixed degree-reverse-lexicographic throughout.
Buchberger's algorithm with sugar-strategy pair selection is enough at
this scale (at most a dozen variables, small degrees); the coprimality
and chain criteria prune the pair queue.

``quotient_basis`` returns the standard monomials below the leading-term
staircase, or ``None`` when the quotient ring is infinite-dimensional
(non-isolated singularity in the Jacobian-ideal case).
"""

from __future__ import annotations

from .cyclo import Cyclo
from .poly import MultiPoly, drl_key


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic(p: MultiPoly) -> MultiPoly:
    _, c = p.leading()
    inv = c.inverse()
    return MultiPoly(p.variables, {e: k * inv for e, k in p.terms.items()})


def reduce_full(p: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Canonical remainder of p modulo a list of polynomials (tail-reduced)."""
    variables = p.variables
    leads = [(g.leading()[0], g) for g in basis if g]
    remainder: dict[tuple[int, ...], Cyclo] = {}
    work = MultiPoly(variables, dict(p.terms))
    while work.terms:
        exp = max(work.terms, key=drl_key)
        coef = work.terms[exp]
        for lexp, g in leads:
            if _divides(lexp, exp):
                shift = tuple(a - b for a, b in zip(exp, lexp))
                factor = MultiPoly.monomial(variables, shift, coef / g.leading()[1])
                work = work - factor * g
                break
        else:
            remainder[exp] = coef
            del work.terms[exp]
    return MultiPoly(variables, remainder)


def _spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    ef, cf = f.leading()
    eg, cg = g.leading()
    lcm = _lcm_exp(ef, eg)
    mf = MultiPoly.monomial(f.variables, tuple(a - b for a, b in zip(lcm, ef)), Cyclo.one() / cf)
    mg = MultiPoly.monomial(g.variables, tuple(a - b for a, b in zip(lcm, eg)), Cyclo.one() / cg)
    return mf * f - mg * g


def buchberger(generators: list[MultiPoly]) -> list[MultiPoly]:
    """Reduced Groebner basis, leading coefficients normalized to 1."""
    basis = [_monic(g) for g in generators if g]
    if not basis:
        return []
    sugars = [g.total_degree() for g in basis]

    def pair_data(i, j):
        ei, ej = basis[i].leading()[0], basis[j].leading()[0]
        lcm = _lcm_exp(ei, ej)
        sugar = max(sugars[i] - sum(ei), sugars[j] - sum(ej)) + sum(lcm)
        return (sugar, sum(lcm), drl_key(lcm), i, j), lcm

    pairs = {}
    for i in range(len(basis)):
        for j in range(i):
            key, lcm = pair_data(j, i)
            pairs[(j, i)] = (key, lcm)

    processed: set[tuple[int, int]] = set()
    while pairs:
        (i, j), (key, lcm) = min(pairs.items(), key=lambda kv: kv[1][0])
        del pairs[(i, j)]
        processed.add((i, j))
        ei, ej = basis[i].leading()[0], basis[j].leading()[0]
        # coprimality criterion
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        # chain criterion: some k with lt_k | lcm and both pairs settled
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(basis[k].leading()[0], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in processed and pjk in processed:
                    skip = True
                    break
        if skip:
            continue
        r = reduce_full(_spoly(basis[i], basis[j]), basis)
        if r:
            r = _monic(r)
            basis.append(r)
            sugars.append(r.total_degree())
            new = len(basis) - 1
            for k in range(new):
                key, lcm = pair_data(k, new)
                pairs[(k, new)] = (key, lcm)

    # inter-reduce to the unique reduced basis
    reduced: list[MultiPoly] = []
    leads = [g.leading()[0] for g in basis]
    for idx, g in enumerate(basis):
        if any(_divides(leads[k], leads[idx]) for k in range(len(basis)) if k != idx
               and not (leads[k] == leads[idx] and k > idx)):
            continue
        reduced.append(g)
    final = []
    for idx, g in enumerate(reduced):
        others = reduced[:idx] + reduced[idx + 1:]
        r = reduce_full(g, others)
        if r:
            final.append(_monic(r))
    final.sort(key=lambda g: drl_key(g.leading()[0]))
    return final


class PolyIdeal:
    """An ideal with a cached reduced Groebner basis (degrevlex)."""

    def __init__(self, generators: list[MultiPoly]):
        if not generators:
            raise ValueError("ideal needs at least one generator (may be zero)")
        variables = generators[0].variables
        gens = [g.with_variables(variables) if g.variables != variables else g
                for g in generators]
        self.variables = variables
        self.generators = tuple(gens)
        self.basis = tuple(buchberger(list(gens)))

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        if tuple(p.variables) != self.variables:
            p = p.with_variables(self.variables)
        return reduce_full(p, list(self.basis))

    def contains(self, p: MultiPoly) -> bool:
        return self.normal_form(p).is_zero()

    def leading_exponents(self) -> list[tuple[int, ...]]:
        return [g.leading()[0] for g in self.basis]

    def quotient_basis(self):
        """Standard monomials of the quotient, or None when infinite."""
        n = len(self.variables)
        leads = self.leading_exponents()
        if any(exp == (0,) * n for exp in leads):
            return []  # unit ideal: zero ring
        bounds = []
        for i in range(n):
            pure = [exp[i] for exp in leads if all(exp[j] == 0 for j in range(n) if j != i)]
            if not pure:
                return None
            bounds.append(min(pure))
        out: list[tuple[int, ...]] = []

        def rec(prefix, i):
            if i == n:
                exp = tuple(prefix)
                if not any(_divides(l, exp) for l in leads):
                    out.append(exp)
                return
            for a in range(bounds[i]):
                rec(prefix + [a], i + 1)

        rec([], 0)
        out.sort(key=drl_key)
        return out


def jacobian_ideal(w: MultiPoly) -> PolyIdeal:
    """Ideal of the partial derivatives of w."""
    parts = [w.derivative(v) for v in w.variables]
    nonzero = [p for p in parts if p]
    if not nonzero:
        nonzero = [MultiPoly.zero(w.variables)]
    return PolyIdeal(nonzero)
