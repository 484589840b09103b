"""Groebner bases over Q(zeta_N) and Jacobian-ring utilities.

The monomial order is fixed degree-reverse-lexicographic throughout.
Buchberger's algorithm with normal-strategy pair selection is enough at
this scale (at most a dozen variables, small degrees); the coprimality
and chain criteria prune the pair queue, a heap keyed by
(drl_key(lcm), i, j).  Under degrevlex an element's total degree is the
degree of its leading term, so the sugar of every pair is deg lcm, the
first component of drl_key(lcm).

Basis elements are monic, so ``reduce_full`` needs no inverse: it reduces
in place in one dict, taking terms from a heap of degrevlex keys.
``PolyIdeal.monomial_normal_form`` memoizes NF(x^e) = NF(x_i NF(x^(e - e_i))),
the multiplication-matrix idea of FGLM (Faugere-Gianni-Lazard-Mora 1993).

``quotient_basis`` returns the standard monomials below the leading-term
staircase, or ``None`` when the quotient ring is infinite-dimensional
(non-isolated singularity in the Jacobian-ideal case).
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


def reduce_full(p: MultiPoly, basis: list[MultiPoly], divisors=None) -> MultiPoly:
    """Canonical remainder of p modulo a list of polynomials (tail-reduced).

    Callers reducing many polynomials pass ``divisors = _divisors(basis)``.
    """
    if divisors is None:
        divisors = _divisors(basis)
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
    processed: set[tuple[int, int]] = set()
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        processed.add((i, j))
        ei, ej = leads[i], leads[j]
        # coprimality criterion
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        # chain criterion: some k with lt_k | lcm and both pairs settled
        if any(k != i and k != j and _divides(leads[k], lcm)
               and (min(i, k), max(i, k)) in processed
               and (min(j, k), max(j, k)) in processed
               for k in range(len(basis))):
            continue
        r = reduce_full(_spoly(basis[i], basis[j]), basis, divisors)
        if r:
            r = _monic(r)
            basis.append(r)
            divisors += _divisors([r])
            leads.append(r.leading()[0])
            queue_pairs(len(basis) - 1)

    # inter-reduce to the unique reduced basis
    reduced = [g for idx, g in enumerate(basis)
               if not any(_divides(leads[k], leads[idx]) for k in range(len(basis))
                          if k != idx and not (leads[k] == leads[idx] and k > idx))]
    divisors = _divisors(reduced)
    final = []
    for idx, g in enumerate(reduced):
        r = reduce_full(g, reduced[:idx] + reduced[idx + 1:],
                        divisors[:idx] + divisors[idx + 1:])
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
        self.basis = tuple(buchberger(list(gens)))
        self._divisors = _divisors(self.basis)
        self._leads = tuple(lead for lead, _, _ in self._divisors)
        self._monomial_nf: dict[tuple[int, ...], dict] = {}

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        if tuple(p.variables) != self.variables:
            p = p.with_variables(self.variables)
        return reduce_full(p, list(self.basis), self._divisors)

    def monomial_normal_form(self, exp) -> dict:
        """Normal form of x^exp as {standard exponent: coefficient}, memoized.

        For a non-standard x^e with some x^(e - e_i) non-standard,
        NF(x^e) = sum_s c_s NF(x^(s + e_i)) over NF(x^(e - e_i)) = sum_s c_s x^s;
        every monomial asked for is smaller than e in degrevlex.  Only a
        border monomial (each x^(e - e_i) standard) goes to ``normal_form``.
        """
        memo, leads = self._monomial_nf, self._leads

        def standard(e):
            nf = memo.get(e)
            return e in nf if nf is not None else not any(_divides(l, e) for l in leads)

        steps = {}  # e -> (i, e - e_i) with e - e_i non-standard; None on the border
        stack = [tuple(exp)]
        while stack:
            e = stack[-1]
            if e in memo:
                stack.pop()
                continue
            if e not in steps:
                if standard(e):
                    memo[e] = {e: Cyclo.one()}
                    continue
                steps[e] = None
                for i, a in enumerate(e):
                    prev = e[:i] + (a - 1,) + e[i + 1:]
                    if a and not standard(prev):
                        steps[e] = i, prev
                        break
            if steps[e] is None:
                memo[e] = self.normal_form(MultiPoly.monomial(self.variables, e)).terms
                continue
            i, prev = steps[e]
            if prev not in memo:
                stack.append(prev)
                continue
            up = [(s[:i] + (s[i] + 1,) + s[i + 1:], c) for s, c in memo[prev].items()]
            missing = [t for t, _ in up if t not in memo]
            if missing:
                stack.extend(missing)
                continue
            out: dict[tuple[int, ...], Cyclo] = {}
            for t, c in up:
                for s, d in memo[t].items():
                    out[s] = out[s] + c * d if s in out else c * d
            memo[e] = {s: c for s, c in out.items() if c}
        return memo[tuple(exp)]

    def leading_exponents(self) -> list[tuple[int, ...]]:
        return list(self._leads)

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
                out.append(prefix)
                return
            for a in range(bounds[i]):
                if any(_divides(l, prefix + (a,) + (0,) * (n - i - 1)) for l in leads):
                    break  # and so are all its multiples
                rec(prefix + (a,), i + 1)

        rec((), 0)
        out.sort(key=drl_key)
        return out


def jacobian_ideal(w: MultiPoly) -> PolyIdeal:
    """Ideal of the partial derivatives of w."""
    parts = [w.derivative(v) for v in w.variables]
    nonzero = [p for p in parts if p]
    if not nonzero:
        nonzero = [MultiPoly.zero(w.variables)]
    return PolyIdeal(nonzero)
