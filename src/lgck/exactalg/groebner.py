"""Groebner bases over Q(zeta_N) and Jacobian-ring utilities.

The monomial order is fixed degree-reverse-lexicographic throughout.
Buchberger's algorithm pops pairs from a heap keyed by (lcm, i, j):
under degrevlex the sugar of a pair is deg lcm, so this is the normal strategy.
The coprimality and chain criteria prune it; the chain criterion looks for k
only in settled[i] & settled[j], the partners already popped with both i and j
(Gebauer-Moller 1988), which are exactly the k a scan of the basis accepts.

``_divisors`` makes each divisor monic, so ``reduce_full`` needs no inverse:
it reduces in place in one dict, taking terms from a heap of degrevlex keys.

An exponent vector is one int here (Monagan-Pearce 2007): 32-bit fields of
M - e_i, M = 2^31 - 1, x_n's most significant, each under a guard bit kept 0,
and the total degree on top, so integer order is degrevlex.  With the guards
G set in a, no field of (a | G) - b borrows: x^a | x^b iff
((a | G) - b) & G == G.  A total degree above M raises ``ValueError``.

``quotient_basis`` walks the staircase (Cox-Little-O'Shea ch. 5 section 3)
with no divisibility test per node: the leads alive at a node bound the next
exponent, and the bounds at the last level sum to the dimension (mu).  Given
group rows mod d, a node carries its prefix's sums r.(e + 1) mod d and the last
exponent comes from a residue table, so only invariant leaves are built and
sorted (Krawitz 2010).  It returns ``None`` when the quotient is infinite.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from functools import lru_cache
from struct import Struct

from .poly import MultiPoly, drl_key

_M = (1 << 31) - 1  # largest packed total degree; a field is 32 bits, guard on top


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple:
    """(guard bits, value bits, field codec, degree shift) in n variables."""
    return (sum(1 << 32 * i + 31 for i in range(n)), sum(_M << 32 * i for i in range(n)),
            Struct(f"<{n}I"), 32 * n)


def _pack(exp: tuple[int, ...], layout: tuple) -> int:
    deg = sum(exp)
    if deg > _M:
        raise ValueError(f"monomial degree {deg} exceeds the bound {_M}")
    return deg << layout[3] | int.from_bytes(layout[2].pack(*exp), "little") ^ layout[1]


def _lcm(a: int, b: int, layout: tuple) -> int:
    """Packed lcm; its degree, the fields' sum (their value mod 2^32 - 1), is unbounded."""
    guards, values, _, shift = layout
    ge = ((a | guards) - (b & values)) & guards  # fields where a's complement >= b's
    m = ge - (ge >> 31)
    c = (b & m | a & ~m) & values
    return (values & ~c) % ((1 << 32) - 1) << shift | c


def _support(a: int, layout: tuple) -> int:
    return ((layout[1] & ~a) + layout[1]) & layout[0]


def _monic(p: MultiPoly) -> MultiPoly:
    _, c = p.leading()
    if c == 1:
        return p
    inv = c.inverse()
    return MultiPoly._make(p.variables, {e: k * inv for e, k in p.terms.items()})


def _divisors(basis: list[MultiPoly]) -> list:
    """(packed lead with its guard bits set, packed negated tail) per g, made monic."""
    out = []
    for g in map(_monic, basis):
        layout = _layout(len(g.variables))
        lead = g.leading()[0]
        out.append((_pack(lead, layout) | layout[0],
                    [(_pack(e, layout), -c) for e, c in g.terms.items() if e != lead]))
    return out


def reduce_full(p: MultiPoly, divisors: list) -> MultiPoly:
    """Canonical remainder of p modulo ``divisors`` (``_divisors(basis)``), tail-reduced."""
    layout = guards, values, fields, _ = _layout(len(p.variables))
    work = {_pack(e, layout): c for e, c in p.terms.items()}
    heap = [-k for k in work]  # minimum = degrevlex maximum
    heapq.heapify(heap)
    remainder = {}
    while heap:
        key = -heapq.heappop(heap)
        coef = work.pop(key, None)
        if coef is None:  # cancelled after it was queued
            continue
        for lead, tail in divisors:
            if (lead - key) & guards == guards:
                shift = key + guards - lead
                for e, c in tail:
                    e += shift
                    if e not in work:
                        work[e] = coef * c
                        heapq.heappush(heap, -e)
                    elif s := work[e] + coef * c:
                        work[e] = s
                    else:
                        del work[e]
                break
        else:
            remainder[fields.unpack((values & ~key).to_bytes(fields.size, "little"))] = coef
    return MultiPoly._make(p.variables, remainder)


def _spoly(f: MultiPoly, g: MultiPoly, ef: tuple, eg: tuple) -> MultiPoly:
    """S-polynomial of two monic polynomials with leading exponents ef and eg,
    from their tails: no coefficient is scaled."""
    lcm = tuple(map(max, ef, eg))
    uf, ug = (MultiPoly._make(p.variables, {tuple(a + c - b for a, b, c in zip(e, lead, lcm)): k
                                            for e, k in p.terms.items() if e != lead})
              for p, lead in ((f, ef), (g, eg)))
    return uf - ug


def buchberger(generators: list[MultiPoly]) -> list[MultiPoly]:
    """Reduced Groebner basis, leading coefficients normalized to 1."""
    basis = [_monic(g) for g in generators if g]
    if not basis:
        return []
    layout = guards, _, _, _ = _layout(len(basis[0].variables))
    divisors = _divisors(basis)
    leads = [lead for lead, _ in divisors]  # packed, guard bits set
    exps = [g.leading()[0] for g in basis]
    supports: list[int] = []
    pairs: list = []  # heap of (lcm, i, j, coprime), i < j: the packed lcm is the key

    def queue_pairs(j):
        supports.append(_support(leads[j], layout))
        for i in range(j):
            heapq.heappush(pairs, (_lcm(leads[i], leads[j], layout), i, j,
                                   not supports[i] & supports[j]))

    for j in range(len(basis)):
        queue_pairs(j)
    settled = [0] * len(basis)  # bit k of settled[i]: the pair (i, k) was popped
    while pairs:
        lcm, i, j, coprime = heapq.heappop(pairs)
        settled[i] |= 1 << j
        settled[j] |= 1 << i
        if coprime:
            continue
        # chain criterion: some k with lt_k | lcm and both pairs settled; newest k first
        common = settled[i] & settled[j]
        while common and (leads[(k := common.bit_length() - 1)] - lcm) & guards != guards:
            common ^= 1 << k
        if common:
            continue
        r = reduce_full(_spoly(basis[i], basis[j], exps[i], exps[j]), divisors)
        if r:
            basis.append(_monic(r))
            exps.append(basis[-1].leading()[0])
            divisors += _divisors(basis[-1:])
            leads.append(divisors[-1][0])
            settled.append(0)
            queue_pairs(len(basis) - 1)

    # inter-reduce: a kept lead, divisible by no other, stays with coefficient 1
    keep = [t for t, lead in enumerate(leads)
            if not any((other - lead + guards) & guards == guards for k, other in enumerate(leads)
                       if k != t and (k < t or other != lead))]
    divisors = [divisors[t] for t in keep]
    final = [(d[0], reduce_full(basis[idx], divisors[:t] + divisors[t + 1:]))
             for t, (idx, d) in enumerate(zip(keep, divisors))]
    return [g for _, g in sorted(final)]


class PolyIdeal:
    """An ideal with a cached reduced Groebner basis (degrevlex)."""

    def __init__(self, generators: list[MultiPoly]):
        if not generators:
            raise ValueError("ideal needs at least one generator (may be zero)")
        variables = generators[0].variables
        self.variables = variables
        self.basis = tuple(buchberger([g.with_variables(variables) for g in generators]))
        self._divisors = _divisors(self.basis)
        self._leads = tuple(g.leading()[0] for g in self.basis)

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

    def quotient_basis(self, rows=(), d=1):
        """Standard monomials of the quotient, or None when infinite; given
        ``rows`` and their modulus d, only the x^e with sum_i r_i (e_i + 1) = 0
        mod d for every row r.  Sets ``dimension``, the number of them all."""
        n, leads = len(self.variables), self.leading_exponents()
        if not n or any(not any(exp) for exp in leads):  # the field, or the zero ring
            self.dimension = 0 if leads else 1
            return [()] * self.dimension
        if self.pure_power_bounds() is None:
            return None
        last = {l: max(k for k, a in enumerate(l) if a) for l in leads}
        # the last exponents a, by the residues sum_r r_n (a + 1) must cancel:
        # up to the largest bound any node at the last level can have
        table: dict[tuple, list] = {}
        for a in range(max(l[-1] for l in leads if last[l] == n - 1)):
            table.setdefault(tuple(-r[-1] * (a + 1) % d for r in rows), []).append(a)
        out: list[tuple[int, ...]] = []

        def walk(prefix, alive, sums, i):
            """Put the invariant leaves below prefix in ``out``; count all of them."""
            # alive: the leads l with l[:i] <= prefix; those ending at i bound a
            stop = min(l[i] for l in alive if last[l] == i)
            if i == n - 1:
                last_exps = table.get(sums, ())
                out.extend(prefix + (a,) for a in last_exps[:bisect_left(last_exps, stop)])
                return stop
            return sum(walk(prefix + (a,), [l for l in alive if l[i] <= a],
                            tuple((s + r[i] * (a + 1)) % d for s, r in zip(sums, rows)), i + 1)
                       for a in range(stop))

        self.dimension = walk((), leads, (0,) * len(rows), 0)
        return sorted(out, key=drl_key)


def jacobian_ideal(w: MultiPoly) -> PolyIdeal:
    """Ideal of the partial derivatives of w."""
    parts = [w.derivative(v) for v in w.variables]
    nonzero = [p for p in parts if p]
    if not nonzero:
        nonzero = [MultiPoly.zero(w.variables)]
    return PolyIdeal(nonzero)
