"""Groebner bases over Q(zeta_N) and Jacobian-ring utilities.

The monomial order is fixed degree-reverse-lexicographic throughout.
Buchberger's algorithm pops pairs from a heap keyed by (drl_key(lcm), i, j):
under degrevlex the sugar of a pair is deg lcm, so this is the normal strategy.
The coprimality and chain criteria prune it; the chain criterion looks for k
only in settled[i] & settled[j], the partners already popped with both i and j
(Gebauer-Moller 1988), which are exactly the k a scan of the basis accepts.

Basis elements are monic, so ``reduce_full`` needs no inverse: it reduces
in place in one dict, taking terms from a heap of degrevlex keys.

``quotient_basis`` walks the staircase (Cox-Little-O'Shea ch. 5 section 3)
with no divisibility test per node: the leads alive at a node bound the next
exponent.  It returns ``None`` when the quotient is infinite-dimensional.
"""

from __future__ import annotations

import heapq
from operator import le

from .cyclo import Cyclo
from .poly import MultiPoly, drl_key


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def _lcm_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic(p: MultiPoly) -> MultiPoly:
    _, c = p.leading()
    if c == 1:
        return p
    inv = c.inverse()
    return MultiPoly(p.variables, {e: k * inv for e, k in p.terms.items()})


def _divisors(basis: list[MultiPoly]) -> list:
    """(lead exponent, inverse lead coefficient or None if it is 1, negated tail) per g."""
    out = []
    for g in basis:
        if g:
            lexp, lc = g.leading()
            out.append((lexp, None if lc == 1 else lc.inverse(),
                        [(e, -c) for e, c in g.terms.items() if e != lexp]))
    return out


def reduce_full(p: MultiPoly, divisors: list) -> MultiPoly:
    """Canonical remainder of p modulo the polynomials ``divisors`` describes
    (``_divisors(basis)``), tail-reduced."""
    work = dict(p.terms)
    heap = [(-sum(e), e[::-1], e) for e in work]  # minimum = degrevlex maximum
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], Cyclo] = {}
    while heap:
        exp = heapq.heappop(heap)[2]
        coef = work.pop(exp, None)
        if coef is None:  # cancelled after it was queued
            continue
        for lexp, inv, tail in divisors:
            if _divides(lexp, exp):
                if inv is not None:
                    coef = coef * inv
                shift = tuple(a - b for a, b in zip(exp, lexp))
                for e, c in tail:
                    e = tuple(a + b for a, b in zip(e, shift))
                    if e not in work:
                        work[e] = coef * c
                        heapq.heappush(heap, (-sum(e), e[::-1], e))
                    elif s := work[e] + coef * c:
                        work[e] = s
                    else:
                        del work[e]
                break
        else:
            remainder[exp] = coef
    return MultiPoly(p.variables, remainder)


def _spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial of two monic polynomials: no coefficient is scaled."""
    ef, eg = f.leading()[0], g.leading()[0]
    lcm = _lcm_exp(ef, eg)
    up_f, up_g = (MultiPoly(p.variables, {tuple(a + c - b for a, b, c in zip(e, lead, lcm)): k
                                          for e, k in p.terms.items()})
                  for p, lead in ((f, ef), (g, eg)))
    return up_f - up_g


def buchberger(generators: list[MultiPoly]) -> list[MultiPoly]:
    """Reduced Groebner basis, leading coefficients normalized to 1."""
    basis = [_monic(g) for g in generators if g]
    if not basis:
        return []
    leads = [g.leading()[0] for g in basis]
    divisors = _divisors(basis)
    pairs: list = []  # heap of (drl_key(lcm), i, j, lcm), i < j

    def queue_pairs(j):
        ej = leads[j]
        for i in range(j):
            lcm = _lcm_exp(leads[i], ej)
            heapq.heappush(pairs, (drl_key(lcm), i, j, lcm))

    for j in range(len(basis)):
        queue_pairs(j)
    settled: list[set[int]] = [set() for _ in basis]  # settled[k]: partners popped with k
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        settled[i].add(j)
        settled[j].add(i)
        ei, ej = leads[i], leads[j]
        # coprimality criterion
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        # chain criterion: some k with lt_k | lcm and both pairs settled
        if any(_divides(leads[k], lcm) for k in settled[i] & settled[j]):
            continue
        r = reduce_full(_spoly(basis[i], basis[j]), divisors)
        if r:
            r = _monic(r)
            basis.append(r)
            divisors += _divisors([r])
            leads.append(r.leading()[0])
            settled.append(set())
            queue_pairs(len(basis) - 1)

    # inter-reduce to the unique reduced basis
    reduced = [g for idx, g in enumerate(basis)
               if not any(_divides(leads[k], leads[idx]) for k in range(len(basis))
                          if k != idx and not (leads[k] == leads[idx] and k > idx))]
    divisors = _divisors(reduced)
    final = []
    for idx, g in enumerate(reduced):
        r = reduce_full(g, divisors[:idx] + divisors[idx + 1:])
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
        self.variables = variables
        self.basis = tuple(buchberger([g.with_variables(variables) for g in generators]))
        self._divisors = _divisors(self.basis)
        self._leads = tuple(lead for lead, _, _ in self._divisors)

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        return reduce_full(p.with_variables(self.variables), self._divisors)

    def leading_exponents(self) -> list[tuple[int, ...]]:
        return list(self._leads)

    def pure_power_bounds(self) -> list[int] | None:
        """Per variable x_i the least a with x_i^a a leading monomial, or None
        when some x_i has none: then, and only then, the quotient is infinite
        (the Finiteness Theorem, Cox-Little-O'Shea ch. 5 section 3)."""
        pure = [[e[i] for e in self._leads if not any(e[:i] + e[i + 1:])]
                for i in range(len(self.variables))]
        return [min(p) for p in pure] if all(pure) else None

    def quotient_basis(self):
        """Standard monomials of the quotient, or None when infinite."""
        n = len(self.variables)
        leads = self.leading_exponents()
        if any(exp == (0,) * n for exp in leads):
            return []  # unit ideal: zero ring
        if self.pure_power_bounds() is None:
            return None
        out: list[tuple[int, ...]] = []
        last = {l: max(k for k, a in enumerate(l) if a) for l in leads}

        def rec(prefix, alive, i):
            if i == n:
                out.append(prefix)
                return
            # alive: the leads l with l[:i] <= prefix; those ending at i bound a
            stop = min(l[i] for l in alive if last[l] == i)
            for a in range(stop):
                rec(prefix + (a,), [l for l in alive if l[i] <= a], i + 1)

        rec((), leads, 0)
        return sorted(out, key=drl_key)


def jacobian_ideal(w: MultiPoly) -> PolyIdeal:
    """Ideal of the partial derivatives of w."""
    parts = [w.derivative(v) for v in w.variables]
    nonzero = [p for p in parts if p]
    if not nonzero:
        nonzero = [MultiPoly.zero(w.variables)]
    return PolyIdeal(nonzero)
