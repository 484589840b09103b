"""Simplicial de Rham forms, Thom-Sullivan complexes, and Godement
resolutions over finite posets, all at desk scale with exact rationals.

The algebra of polynomial forms on the n-simplex is presented in the
reduced coordinates t_1 .. t_n (t_0 and dt_0 eliminated by the relations
sum t_i = 1, sum dt_i = 0).  Cosimplicial modules are finite-dimensional
with explicit coface/codegeneracy matrices; arbitrary monotone maps act
through the epi-mono factorization.  Thom-Sullivan elements are stored
as compatible families over levels 0..N, represented by Whitney-basis
expansions of normalized cochains; compatibility is verified at
construction against the generating maps (which suffices, both actions
being functorial) with an exhaustive all-monotone-maps variant available.

Finite posets carry the Alexandrov topology whose opens are the up-closed
subsets; the points of the topos are the poset elements, which makes the
Godement product over points finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial

from .exactalg import MultiPoly
from .exactalg.linalg import identity, mat_mul, nullspace, rank, solve
from .forms import DiffForm


def simplex_variables(n: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(1, n + 1))


@dataclass
class PolyForm:
    """A polynomial differential form on the n-simplex (reduced coords)."""

    level: int
    form: DiffForm

    @classmethod
    def zero(cls, n: int) -> "PolyForm":
        return cls(n, DiffForm.zero(simplex_variables(n)))

    @classmethod
    def constant(cls, n: int, c) -> "PolyForm":
        return cls(n, DiffForm.const(simplex_variables(n), c))

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if other.level != self.level:
            raise ValueError("forms on different simplices")
        return PolyForm(self.level, self.form + other.form)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return PolyForm(self.level, self.form - other.form)

    def scale(self, c) -> "PolyForm":
        return PolyForm(self.level, self.form.scale(c))

    def wedge(self, other: "PolyForm") -> "PolyForm":
        if other.level != self.level:
            raise ValueError("forms on different simplices")
        return PolyForm(self.level, self.form.wedge(other.form))

    def d(self) -> "PolyForm":
        return PolyForm(self.level, self.form.exterior_derivative())

    def is_zero(self) -> bool:
        return self.form.is_zero()

    def __eq__(self, other):
        return isinstance(other, PolyForm) and self.level == other.level \
            and self.form == other.form

    def degrees(self) -> set[int]:
        return self.form.form_degrees()

    def component(self, degree: int) -> "PolyForm":
        return PolyForm(self.level, self.form.component(degree))

    def __str__(self):
        return f"PolyForm[{self.level}]({self.form})"


def _barycentric_poly(n: int, i: int) -> MultiPoly:
    """t_i as a polynomial in the reduced coordinates (t_0 eliminated)."""
    names = simplex_variables(n)
    if i == 0:
        out = MultiPoly.const(names, 1)
        for nm in names:
            out = out - MultiPoly.var(names, nm)
        return out
    return MultiPoly.var(names, names[i - 1])


def _barycentric_dt(n: int, i: int) -> DiffForm:
    names = simplex_variables(n)
    if i == 0:
        out = DiffForm.zero(names)
        for k in range(n):
            out = out - DiffForm.d_var(names, k)
        return out
    return DiffForm.d_var(names, i - 1)


def _monotone(f) -> bool:
    return all(f[i] <= f[i + 1] for i in range(len(f) - 1))


def omega_pullback(f, omega: PolyForm) -> PolyForm:
    """Pullback along a monotone map f: [n] -> [m] of a form on the
    m-simplex, i.e. the algebra map t_j -> sum over the fiber of f."""
    f = tuple(f)
    if not _monotone(f):
        raise ValueError("map is not monotone")
    n = len(f) - 1
    m = omega.level
    if any(v < 0 or v > m for v in f):
        raise ValueError("map values outside the target simplex")

    src_names = simplex_variables(n)
    subs_poly: dict[str, MultiPoly] = {}
    subs_dt: list[DiffForm] = []
    for j in range(m + 1):
        fiber = [i for i in range(n + 1) if f[i] == j]
        p = MultiPoly.zero(src_names)
        df = DiffForm.zero(src_names)
        for i in fiber:
            p = p + _barycentric_poly(n, i)
            df = df + _barycentric_dt(n, i)
        if j >= 1:
            subs_poly[f"t{j}"] = p
        subs_dt.append(df)

    out = DiffForm.zero(src_names)
    for idx, coeff in omega.form.terms.items():
        pulled_coeff = coeff.substitute(subs_poly) if subs_poly else \
            MultiPoly.const(src_names, coeff.constant_term())
        piece = DiffForm.from_poly(
            pulled_coeff.with_variables(src_names)
            if pulled_coeff.variables != src_names else pulled_coeff)
        for j in idx:  # dt_{j+1} on the target pulls back to subs_dt[j+1]
            piece = piece.wedge(subs_dt[j + 1])
        out = out + piece
    return PolyForm(n, out)


def integrate_simplex(omega: PolyForm) -> Fraction:
    """Integral over the standard simplex with dt_1 ^ ... ^ dt_n positive,
    via int t^a dt = (prod a_i!) / (n + sum a_i)!."""
    n = omega.level
    if n == 0:
        c = omega.form.coefficient(())
        return c.constant_term().as_fraction()
    if omega.degrees() - {n}:
        raise ValueError("integrand must be a top-degree form")
    top = omega.form.coefficient(tuple(range(n)))
    total = Fraction(0)
    for exp, c in top.terms.items():
        num = 1
        for a in exp:
            num *= factorial(a)
        total += c.as_fraction() * Fraction(num, factorial(n + sum(exp)))
    return total


def whitney_form(indices, n: int) -> PolyForm:
    """The elementary form of a face, scaled to integrate to 1 over it."""
    idx = tuple(indices)
    if list(idx) != sorted(set(idx)):
        raise ValueError("indices must be strictly increasing")
    if idx and (idx[0] < 0 or idx[-1] > n):
        raise ValueError("indices outside the simplex")
    p = len(idx) - 1
    out = DiffForm.zero(simplex_variables(n))
    for j in range(p + 1):
        piece = DiffForm.from_poly(_barycentric_poly(n, idx[j]))
        for k in range(p + 1):
            if k == j:
                continue
            piece = piece.wedge(_barycentric_dt(n, idx[k]))
        out = out + (piece if j % 2 == 0 else -piece)
    return PolyForm(n, out.scale(Fraction(factorial(p))))


# ---------------------------------------------------------------------------
# cosimplicial modules


class CosimplicialModule:
    """Finite-dimensional cosimplicial vector space, levels 0..N."""

    def __init__(self, dims, cofaces, codegens, check: bool = True,
                 multiply=None, unit=None):
        self.dims = list(dims)
        self.top_level = len(self.dims) - 1
        self.cofaces = cofaces      # (n, i): matrix A[n-1] -> A[n], 0 <= i <= n
        self.codegens = codegens    # (n, i): matrix A[n+1] -> A[n], 0 <= i <= n
        self.multiply = multiply    # optional: level -> (vec, vec) -> vec
        self.unit = unit            # optional: level -> vec
        if check:
            self._verify_identities()

    def _verify_identities(self):
        N = self.top_level
        for n in range(2, N + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    lhs = mat_mul(self.cofaces[(n, j)], self.cofaces[(n - 1, i)])
                    rhs = mat_mul(self.cofaces[(n, i)], self.cofaces[(n - 1, j - 1)])
                    if lhs != rhs:
                        raise ValueError(f"coface identity fails at n={n}, i={i}, j={j}")
        for n in range(0, N - 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    lhs = mat_mul(self.codegens[(n, j)], self.codegens[(n + 1, i)])
                    rhs = mat_mul(self.codegens[(n, i)], self.codegens[(n + 1, j + 1)])
                    if lhs != rhs:
                        raise ValueError(f"codegeneracy identity fails at n={n}")
        for n in range(0, N):
            for j in range(n + 1):
                for i in range(n + 2):
                    sj_di = mat_mul(self.codegens[(n, j)], self.cofaces[(n + 1, i)])
                    if i < j:
                        expect = mat_mul(self.cofaces[(n, i)], self.codegens[(n - 1, j - 1)]) \
                            if n >= 1 else None
                        if expect is not None and sj_di != expect:
                            raise ValueError("mixed identity fails (i<j)")
                    elif i in (j, j + 1):
                        if sj_di != identity(self.dims[n]):
                            raise ValueError(f"s^j d^i != id at n={n}, i={i}, j={j}")
                    else:
                        if n >= 1:
                            expect = mat_mul(self.cofaces[(n, i - 1)],
                                             self.codegens[(n - 1, j)])
                            if sj_di != expect:
                                raise ValueError("mixed identity fails (i>j+1)")

    def map_into(self, f, m: int) -> list[list[Fraction]]:
        """Matrix of A(f) for monotone f: [n] -> [m] with explicit target."""
        f = tuple(f)
        if not _monotone(f):
            raise ValueError("map is not monotone")
        n = len(f) - 1
        if f and (f[0] < 0 or f[-1] > m):
            raise ValueError("values outside the target")
        for i in range(n):
            if f[i] == f[i + 1]:
                inner = f[:i] + f[i + 1:]
                return mat_mul(self.map_into(inner, m), self.codegens[(n - 1, i)])
        missed = [j for j in range(m + 1) if j not in f]
        if not missed:
            return identity(self.dims[n])
        j = missed[-1]
        inner = tuple(v if v < j else v - 1 for v in f)
        return mat_mul(self.cofaces[(m, j)], self.map_into(inner, m - 1))

    def apply(self, matrix, vec):
        return [sum((matrix[i][j] * vec[j] for j in range(len(vec))), Fraction(0))
                for i in range(len(matrix))]


def constant_cosimplicial(dim: int, levels: int, algebra: bool = False) -> CosimplicialModule:
    ident = identity(dim)
    cofaces = {(n, i): ident for n in range(1, levels + 1) for i in range(n + 1)}
    codegens = {(n, i): ident for n in range(0, levels) for i in range(n + 1)}
    multiply = None
    unit = None
    if algebra:
        multiply = lambda n, u, v: [a * b for a, b in zip(u, v)]
        unit = lambda n: [Fraction(1)] * dim
    return CosimplicialModule([dim] * (levels + 1), cofaces, codegens,
                              multiply=multiply, unit=unit)


@dataclass
class NormalizedComplex:
    """N^d = intersection of the codegeneracy kernels, with the
    alternating coface differential."""

    dims: list[int]
    bases: list[list[list[Fraction]]]       # columns: basis of N^d inside A[d]
    differentials: list[list[list[Fraction]]]  # N^d -> N^{d+1} in N-coordinates

    def cohomology_ranks(self) -> list[int]:
        out = []
        for d in range(len(self.dims)):
            dim = self.dims[d]
            rk_out = rank(self.differentials[d]) if d < len(self.differentials) else 0
            rk_in = rank(self.differentials[d - 1]) if d >= 1 else 0
            out.append(dim - rk_out - rk_in)
        return out


def alternating_coface(cs: CosimplicialModule, n: int):
    """sum_i (-1)^i d^i : A[n] -> A[n+1]."""
    rows, cols = cs.dims[n + 1], cs.dims[n]
    total = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(n + 2):
        mat = cs.cofaces[(n + 1, i)]
        sign = 1 if i % 2 == 0 else -1
        for a in range(rows):
            for b in range(cols):
                total[a][b] += sign * mat[a][b]
    return total


def normalized_complex(cs: CosimplicialModule) -> NormalizedComplex:
    N = cs.top_level
    bases = []
    for d in range(N + 1):
        stacked = [row for i in range(d) for row in cs.codegens[(d - 1, i)]]
        bases.append(nullspace(stacked) if stacked else identity(cs.dims[d]))
    diffs = []
    for d in range(N):
        big = alternating_coface(cs, d)
        cols_out = []
        target = bases[d + 1]
        target_mat = [[target[j][i] for j in range(len(target))]
                      for i in range(cs.dims[d + 1])] if target else []
        for v in bases[d]:
            x = solve(target_mat, cs.apply(big, v))  # no target: [] iff the image is 0
            if x is None:
                raise ValueError("normalized differential leaves the subcomplex")
            cols_out.append(x)
        mat = [[cols_out[j][i] for j in range(len(cols_out))]
               for i in range(len(target))] if bases[d] else []
        diffs.append(mat)
    return NormalizedComplex([len(b) for b in bases], bases, diffs)


# ---------------------------------------------------------------------------
# finite poset sheaves and the Godement resolution


class PosetConfigError(ValueError):
    """A malformed poset-sheaf config; the message names the field."""


class FinitePosetSheaf:
    """A sheaf on a finite poset with the Alexandrov (up-set) topology:
    a stalk per point and generization maps along the order."""

    def __init__(self, points, order_pairs, stalk_dims, restriction_matrices):
        self.points = list(points)
        self.index = {p: i for i, p in enumerate(self.points)}
        n = len(self.points)
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for (a, b) in order_pairs:
            leq[self.index[a]][self.index[b]] = True
        # transitive closure
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
        self.leq = leq
        self.stalk_dims = [int(d) for d in stalk_dims]
        self.maps: dict[tuple[int, int], list[list[Fraction]]] = {}
        for i in range(n):
            self.maps[(i, i)] = identity(self.stalk_dims[i])
        for key, mat in restriction_matrices.items():
            a, b = key
            ia, ib = self.index[a], self.index[b]
            if not self.leq[ia][ib]:
                raise ValueError(f"restriction given for non-comparable {a} <= {b}")
            self.maps[(ia, ib)] = [[Fraction(x) for x in row] for row in mat]
        self._close_maps()
        self._check_functoriality()

    @classmethod
    def from_dict(cls, data: dict) -> "FinitePosetSheaf":
        """Build from a config block; a malformed field raises PosetConfigError."""
        def check(ok, message):
            if not ok:
                raise PosetConfigError(message)

        get = data.get if isinstance(data, dict) else (lambda key, default=None: None)
        points, pairs, dims = get("points"), get("order_pairs"), get("stalk_dims")
        items = get("restriction_matrices", [])
        check(isinstance(points, list) and all(isinstance(p, str) for p in points)
              and len(set(points)) == len(points), "points: expected a list of unique names")
        check(isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and p[0] in points and p[1] in points
            for p in pairs), "order_pairs: expected pairs of known points")
        check(isinstance(dims, list) and len(dims) == len(points) and all(
            type(d) is int and d >= 0 for d in dims),
            "stalk_dims: expected one integer >= 0 per point")
        check(isinstance(items, list) and all(
            isinstance(m, dict) and m.get("from") in points and m.get("to") in points
            for m in items), "restriction_matrices: expected 'from' and 'to' points")
        dim, mats = dict(zip(points, dims)), {}
        for item in items:
            a, b, mat = item["from"], item["to"], item.get("matrix")
            check(isinstance(mat, list) and len(mat) == dim[b] and all(
                isinstance(row, list) and len(row) == dim[a] for row in mat),
                f"restriction_matrices: {a} -> {b} must be {dim[b]} x {dim[a]}")
            try:
                mats[(a, b)] = [[Fraction(x) for x in row] for row in mat]
            except (TypeError, ValueError, OverflowError) as exc:
                raise PosetConfigError(f"restriction_matrices: {a} -> {b}: {exc}") from exc
        return cls(points, [tuple(p) for p in pairs], dims, mats)

    def _close_maps(self):
        n = len(self.points)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    if i != j and self.leq[i][j] and (i, j) not in self.maps:
                        for k in range(n):
                            if k not in (i, j) and self.leq[i][k] and self.leq[k][j] \
                                    and (i, k) in self.maps and (k, j) in self.maps:
                                self.maps[(i, j)] = self._compose(i, k, j)
                                changed = True
                                break
        for i in range(n):
            for j in range(n):
                if self.leq[i][j] and (i, j) not in self.maps:
                    if self.stalk_dims[i] == 0 or self.stalk_dims[j] == 0:
                        self.maps[(i, j)] = self._zero_map(i, j)
                    else:
                        raise ValueError(
                            f"missing restriction {self.points[i]} <= {self.points[j]}")

    def _zero_map(self, i, j):
        return [[Fraction(0)] * self.stalk_dims[i] for _ in range(self.stalk_dims[j])]

    def _compose(self, i, k, j):
        """maps[k -> j] . maps[i -> k], kept dim(j) x dim(i) when the stalk
        at k is 0-dimensional (a [] factor carries no column count)."""
        if self.stalk_dims[k] == 0:
            return self._zero_map(i, j)
        return mat_mul(self.maps[(k, j)], self.maps[(i, k)])

    def _check_functoriality(self):
        n = len(self.points)
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    if self.leq[i][k] and self.leq[k][j]:
                        if self._compose(i, k, j) != self.maps[(i, j)]:
                            raise ValueError("generization maps are not functorial")

    # -- topology ------------------------------------------------------------

    def up_sets(self) -> list[frozenset[int]]:
        n = len(self.points)
        out = []
        for mask in range(1 << n):
            s = frozenset(i for i in range(n) if mask >> i & 1)
            if all((j in s) for i in s for j in range(n) if self.leq[i][j]):
                out.append(s)
        return sorted(out, key=lambda s: (len(s), sorted(s)))

    def sections(self, open_set) -> list[list[Fraction]]:
        """Basis of F(U) inside the product of stalks over U."""
        pts = sorted(open_set)
        offsets = {}
        total = 0
        for p in pts:
            offsets[p] = total
            total += self.stalk_dims[p]
        constraints = []
        for a in pts:
            for b in pts:
                if a != b and self.leq[a][b]:
                    mat = self.maps[(a, b)]
                    for r in range(self.stalk_dims[b]):
                        row = [Fraction(0)] * total
                        for c in range(self.stalk_dims[a]):
                            row[offsets[a] + c] += mat[r][c]
                        row[offsets[b] + r] -= Fraction(1)
                        constraints.append(row)
        if not constraints:
            return identity(total)
        return nullspace(constraints)

    def global_sections_dim(self) -> int:
        return len(self.sections(range(len(self.points))))

    def is_unit_stalked(self) -> bool:
        return all(d <= 1 for d in self.stalk_dims)


def _weak_chains(sheaf: FinitePosetSheaf, length: int,
                 start_filter=None) -> list[tuple[int, ...]]:
    n = len(sheaf.points)
    starts = range(n) if start_filter is None else sorted(start_filter)
    chains = [(i,) for i in starts]
    for _ in range(length):
        chains = [c + (j,) for c in chains for j in range(n) if sheaf.leq[c[-1]][j]]
    return chains


@dataclass
class GodementResolution:
    sheaf: FinitePosetSheaf
    levels: int
    module: CosimplicialModule
    chains: list[list[tuple[int, ...]]]  # per level, global chains

    def chain_offsets(self, n: int):
        offsets = []
        total = 0
        for c in self.chains[n]:
            offsets.append(total)
            total += self.sheaf.stalk_dims[c[-1]]
        return offsets, total

    def augmentation(self, n: int):
        """Matrix F(X) -> G[n]F(X): a section maps to its germs along chains."""
        sections = self.sheaf.sections(range(len(self.sheaf.points)))
        offsets, total = self.chain_offsets(n)
        stalk_offsets = {}
        run = 0
        for i in range(len(self.sheaf.points)):
            stalk_offsets[i] = run
            run += self.sheaf.stalk_dims[i]
        cols = []
        for sec in sections:
            vec = [Fraction(0)] * total
            for ci, chain in enumerate(self.chains[n]):
                tail = chain[-1]
                for r in range(self.sheaf.stalk_dims[tail]):
                    vec[offsets[ci] + r] = sec[stalk_offsets[tail] + r]
            cols.append(vec)
        return [[cols[j][i] for j in range(len(cols))] for i in range(total)]

    def section_dim_over(self, n: int, open_set) -> int:
        return sum(self.sheaf.stalk_dims[c[-1]]
                   for c in _weak_chains(self.sheaf, n, open_set))

    def restriction_matrix(self, n: int, bigger, smaller):
        big = _weak_chains(self.sheaf, n, bigger)
        small = _weak_chains(self.sheaf, n, smaller)
        pos_big = {}
        total_big = 0
        for c in big:
            pos_big[c] = total_big
            total_big += self.sheaf.stalk_dims[c[-1]]
        rows = []
        for c in small:
            base = pos_big[c]
            for r in range(self.sheaf.stalk_dims[c[-1]]):
                row = [Fraction(0)] * total_big
                row[base + r] = Fraction(1)
                rows.append(row)
        return rows

    def flasque(self, n: int) -> bool:
        """Every restriction between up-sets is surjective."""
        opens = self.sheaf.up_sets()
        for u in opens:
            for v in opens:
                if v <= u and v != u:
                    mat = self.restriction_matrix(n, u, v)
                    target = self.section_dim_over(n, v)
                    if rank(mat) != target:
                        return False
        return True


def godement(sheaf: FinitePosetSheaf, levels: int) -> GodementResolution:
    """The cosimplicial Godement resolution: level n is the product of
    stalks over weak chains of length n+1, with unit-insertion cofaces and
    multiplication codegeneracies."""
    if levels < 1:
        raise ValueError("need at least one level")
    chains = [_weak_chains(sheaf, n) for n in range(levels + 1)]
    dims = []
    offsets_all = []
    for n in range(levels + 1):
        offsets = {}
        total = 0
        for c in chains[n]:
            offsets[c] = total
            total += sheaf.stalk_dims[c[-1]]
        dims.append(total)
        offsets_all.append(offsets)

    cofaces = {}
    for n in range(1, levels + 1):
        for i in range(n + 1):
            mat = [[Fraction(0)] * dims[n - 1] for _ in range(dims[n])]
            for c in chains[n]:
                base = offsets_all[n][c]
                if i < n:
                    src = c[:i] + c[i + 1:]
                    sbase = offsets_all[n - 1][src]
                    for r in range(sheaf.stalk_dims[c[-1]]):
                        mat[base + r][sbase + r] = Fraction(1)
                else:
                    src = c[:-1]
                    sbase = offsets_all[n - 1][src]
                    gen = sheaf.maps[(src[-1], c[-1])]
                    for r in range(sheaf.stalk_dims[c[-1]]):
                        for s in range(sheaf.stalk_dims[src[-1]]):
                            mat[base + r][sbase + s] = gen[r][s]
            cofaces[(n, i)] = mat

    codegens = {}
    for n in range(0, levels):
        for i in range(n + 1):
            mat = [[Fraction(0)] * dims[n + 1] for _ in range(dims[n])]
            for c in chains[n]:
                base = offsets_all[n][c]
                src = c[:i + 1] + c[i:]
                sbase = offsets_all[n + 1][src]
                for r in range(sheaf.stalk_dims[c[-1]]):
                    mat[base + r][sbase + r] = Fraction(1)
            codegens[(n, i)] = mat

    multiply = None
    unit = None
    if sheaf.is_unit_stalked():
        def multiply(n, u, v):
            return [a * b for a, b in zip(u, v)]

        def unit(n):
            return [Fraction(1)] * dims[n]

    module = CosimplicialModule(dims, cofaces, codegens,
                                multiply=multiply, unit=unit)
    return GodementResolution(sheaf, levels, module, chains)


# ---------------------------------------------------------------------------
# Thom-Sullivan elements


class ThElement:
    """A compatible family c_n in A[n] (x) Omega[n], n = 0..N."""

    def __init__(self, cs: CosimplicialModule, degree: int,
                 levels: list[list[PolyForm]], check: bool = True):
        self.cs = cs
        self.degree = degree
        self.levels = levels
        if check and not self.compatible():
            raise ValueError("family violates the Thom-Sullivan equalizer")

    def _check_map(self, f, m: int) -> bool:
        n = len(f) - 1
        mat = self.cs.map_into(f, m)
        for r in range(self.cs.dims[m]):
            acc = PolyForm.zero(n)
            for c in range(self.cs.dims[n]):
                if mat[r][c]:
                    acc = acc + self.levels[n][c].scale(mat[r][c])
            if acc != omega_pullback(f, self.levels[m][r]):
                return False
        return True

    def compatible(self, generators_only: bool = True) -> bool:
        """Verify the equalizer condition.  Checking cofaces and
        codegeneracies suffices since both actions are functorial by
        construction; the exhaustive variant walks every monotone map
        between represented levels."""
        N = self.cs.top_level
        if generators_only:
            for n in range(1, N + 1):
                for i in range(n + 1):
                    face = tuple(v for v in range(n + 1) if v != i)
                    if not self._check_map(face, n):
                        return False
            for n in range(0, N):
                for i in range(n + 1):
                    degen = tuple(min(v, i) if v <= i + 1 else v - 1
                                  for v in range(n + 2))
                    if not self._check_map(degen, n):
                        return False
            return True
        for n in range(N + 1):
            for m in range(N + 1):
                for f in _all_monotone(n, m):
                    if not self._check_map(f, m):
                        return False
        return True

    def d(self) -> "ThElement":
        return ThElement(self.cs, self.degree + 1,
                         [[f.d() for f in level] for level in self.levels],
                         check=False)

    def add(self, other: "ThElement") -> "ThElement":
        return ThElement(self.cs, self.degree,
                         [[a + b for a, b in zip(l1, l2)]
                          for l1, l2 in zip(self.levels, other.levels)],
                         check=False)

    def scale(self, c) -> "ThElement":
        return ThElement(self.cs, self.degree,
                         [[f.scale(c) for f in level] for level in self.levels],
                         check=False)

    def multiply(self, other: "ThElement") -> "ThElement":
        """Product for a cosimplicial algebra with componentwise stalk
        products (the only case the corpus needs)."""
        if self.cs.multiply is None:
            raise ValueError("underlying cosimplicial module carries no product")
        out = []
        for n in range(self.cs.top_level + 1):
            level = []
            for k in range(self.cs.dims[n]):
                level.append(self.levels[n][k].wedge(other.levels[n][k]))
            out.append(level)
        return ThElement(self.cs, self.degree + other.degree, out, check=False)

    def integrate(self) -> list[Fraction]:
        """Integration over the degree-d simplex: lands in A[d]."""
        d = self.degree
        if d > self.cs.top_level:
            return []
        out = []
        for comp in self.levels[d]:
            piece = comp.component(d)
            out.append(integrate_simplex(piece) if not piece.is_zero() else Fraction(0))
        return out

    def is_zero(self) -> bool:
        return all(f.is_zero() for level in self.levels for f in level)

    def __eq__(self, other):
        return isinstance(other, ThElement) and all(
            a == b for l1, l2 in zip(self.levels, other.levels)
            for a, b in zip(l1, l2))


def _all_monotone(n: int, m: int):
    """All monotone maps [n] -> [m]."""
    out = []

    def rec(prefix, lo):
        if len(prefix) == n + 1:
            out.append(tuple(prefix))
            return
        for v in range(lo, m + 1):
            rec(prefix + [v], v)

    rec([], 0)
    return out


def whitney_extension(cs: CosimplicialModule, degree: int, vec) -> ThElement:
    """Extend a normalized cochain to a compatible family by elementary
    forms: c_n = sum over strict monotone g: [d] -> [n] of A(g)(a) w_g."""
    N = cs.top_level
    levels = []
    for n in range(N + 1):
        level = [PolyForm.zero(n) for _ in range(cs.dims[n])]
        if n >= degree:
            for image in combinations(range(n + 1), degree + 1):
                mat = cs.map_into(image, n)
                moved = cs.apply(mat, vec)
                w = whitney_form(image, n)
                for k, coeff in enumerate(moved):
                    if coeff:
                        level[k] = level[k] + w.scale(coeff)
        levels.append(level)
    return ThElement(cs, degree, levels)


def unit_element(cs: CosimplicialModule) -> ThElement:
    if cs.unit is None:
        raise ValueError("no unit: module is not an algebra")
    levels = []
    for n in range(cs.top_level + 1):
        uv = cs.unit(n)
        levels.append([PolyForm.constant(n, c) for c in uv])
    return ThElement(cs, 0, levels)


@dataclass
class ThComplex:
    """The Whitney-span model of the Thom-Sullivan complex, with the level
    bound and polynomial degree bound recorded."""

    cs: CosimplicialModule
    level_bound: int
    degree_bound: int
    normalized: NormalizedComplex
    basis: list[list[ThElement]] = field(default_factory=list)

    def cohomology_ranks(self) -> list[int]:
        return self.normalized.cohomology_ranks()


def th_complex(cs: CosimplicialModule, degree_bound: int) -> ThComplex:
    N = cs.top_level
    if degree_bound < N:
        raise ValueError("degree bound must be at least the level bound")
    norm = normalized_complex(cs)
    basis = []
    for d in range(N + 1):
        basis.append([whitney_extension(cs, d, v) for v in norm.bases[d]])
    return ThComplex(cs, N, degree_bound, norm, basis)


# ---------------------------------------------------------------------------
# the de Rham triangle and the one-point TK comparison


def order_complex_cohomology(sheaf: FinitePosetSheaf, top: int) -> list[int]:
    """Simplicial rational cohomology of the nerve (strict chains); the
    independent oracle for constant sheaves on Alexandrov spaces."""
    n = len(sheaf.points)
    strict = {0: [(i,) for i in range(n)]}
    for d in range(1, top + 2):
        strict[d] = [c + (j,) for c in strict[d - 1] for j in range(n)
                     if sheaf.leq[c[-1]][j] and c[-1] != j]
    ranks = []
    cob = {}
    for d in range(top + 1):
        rows = []
        for c in strict[d + 1]:
            row = [Fraction(0)] * len(strict[d])
            for i in range(d + 2):
                face = c[:i] + c[i + 1:]
                if face in strict[d]:
                    idx = strict[d].index(face)
                    row[idx] += Fraction((-1) ** i)
            rows.append(row)
        cob[d] = rows
    for d in range(top + 1):
        dim = len(strict[d])
        rk_out = rank(cob[d])
        rk_in = rank(cob[d - 1]) if d >= 1 else 0
        ranks.append(dim - rk_out - rk_in)
    return ranks


@dataclass
class TriangleReport:
    whitney_compatible: bool
    whitney_chain_map: bool
    integration_left_inverse: bool
    triangle_commutes: bool
    cohomology_ranks: list[int]
    oracle_ranks: list[int] | None
    cohomology_matches_oracle: bool | None

    @property
    def passed(self) -> bool:
        base = (self.whitney_compatible and self.whitney_chain_map
                and self.integration_left_inverse and self.triangle_commutes)
        if self.cohomology_matches_oracle is None:
            return base
        return base and self.cohomology_matches_oracle

    def to_jsonable(self):
        return {
            "whitney_compatible": self.whitney_compatible,
            "whitney_chain_map": self.whitney_chain_map,
            "integration_left_inverse": self.integration_left_inverse,
            "triangle_commutes": self.triangle_commutes,
            "cohomology_ranks": self.cohomology_ranks,
            "oracle_ranks": self.oracle_ranks,
            "cohomology_matches_oracle": self.cohomology_matches_oracle,
            "passed": self.passed,
        }


def de_rham_triangle_check(resolution: GodementResolution,
                           oracle_ranks: list[int] | None = None,
                           compare_top: int | None = None,
                           degree_bound: int | None = None) -> TriangleReport:
    """Verify the triangle relating the Thom-Sullivan inclusion, the
    normalized-cochain inclusion, and integration, on the Whitney span.

    Checks, all exact: every Whitney extension is a compatible family;
    d E = E d_N; integration is a left inverse of extension; and the
    integrated augmentation equals the normalized augmentation.  When
    oracle cohomology ranks are supplied they are compared below the
    truncation level."""
    cs = resolution.module
    N = cs.top_level
    tc = th_complex(cs, degree_bound if degree_bound is not None else N)
    norm = tc.normalized

    compatible = True  # extensions were checked at construction
    chain_map = True
    left_inverse = True
    for d in range(N + 1):
        for j, el in enumerate(tc.basis[d]):
            if not el.compatible(generators_only=True):
                compatible = False
            got = el.integrate()
            expect = norm.bases[d][j]
            if got != expect:
                left_inverse = False
            if d < N:
                de = el.d()
                # E(d_N a): combination of degree d+1 basis extensions
                coeffs = [norm.differentials[d][r][j]
                          for r in range(len(norm.bases[d + 1]))]
                acc = None
                for c, base_el in zip(coeffs, tc.basis[d + 1]):
                    piece = base_el.scale(c)
                    acc = piece if acc is None else acc.add(piece)
                if acc is None:
                    if not de.is_zero():
                        chain_map = False
                elif de != acc:
                    chain_map = False

    # the augmentation triangle: integrate(Th(iota) v) == N(iota) v
    triangle = True
    aug0 = resolution.augmentation(0)
    sections = resolution.sheaf.sections(range(len(resolution.sheaf.points)))
    for si in range(len(sections)):
        chains_family = []
        for n in range(N + 1):
            aug = resolution.augmentation(n)
            col = [aug[r][si] for r in range(len(aug))]
            chains_family.append([PolyForm.constant(n, c) for c in col])
        el = ThElement(cs, 0, chains_family, check=True)
        got = el.integrate()
        expect = [aug0[r][si] for r in range(len(aug0))]
        if got != expect:
            triangle = False

    ranks = norm.cohomology_ranks()
    matches = None
    if oracle_ranks is not None:
        top = compare_top if compare_top is not None else N - 1
        matches = ranks[:top + 1] == list(oracle_ranks)[:top + 1]
    return TriangleReport(compatible, chain_map, left_inverse, triangle,
                          ranks, oracle_ranks, matches)


def _two_periodic_ranks(block_a, block_b, even_dim, odd_dim):
    """Cohomology ranks (even, odd) of a two-periodic complex given by
    scalar matrices A: even -> odd and B: odd -> even with A.B = B.A = 0."""
    rank_a, rank_b = rank(block_a), rank(block_b)
    h_even = even_dim - rank_a - rank_b
    h_odd = odd_dim - rank_b - rank_a
    return h_even, h_odd


def tk_point_check(tau, sigma, levels: int = 2) -> dict:
    """One-point-site comparison: the Koszul factorization specialized at
    the origin versus its tensor with the truncated Thom-Sullivan-Godement
    resolution of the structure sheaf of the point."""
    from .matfact import koszul  # local import to avoid a cycle

    kos = koszul(list(tau), list(sigma))
    a0 = [[e.constant_term().as_fraction() if e.constant_term().is_rational()
           else (_ for _ in ()).throw(ValueError("non-rational specialization"))
           for e in row] for row in kos.block_a]
    b0 = [[e.constant_term().as_fraction() for e in row] for row in kos.block_b]
    w0 = kos.potential.constant_term()
    if w0:
        raise ValueError("potential does not vanish at the one-point site")

    point = FinitePosetSheaf(["pt"], [], [1], {})
    resolution = godement(point, levels)
    tc = th_complex(resolution.module, levels)
    th_ranks = tc.cohomology_ranks()
    # folded 2-periodically, the truncated resolution contributes its
    # even/odd cohomology
    t_even = sum(r for d, r in enumerate(th_ranks) if d % 2 == 0)
    t_odd = sum(r for d, r in enumerate(th_ranks) if d % 2 == 1)

    h_even, h_odd = _two_periodic_ranks(a0, b0, kos.even_rank, kos.odd_rank)
    # tensor with the folded resolution: Kunneth over a point
    tensored_even = h_even * t_even + h_odd * t_odd
    tensored_odd = h_even * t_odd + h_odd * t_even

    result = {
        "koszul_ranks": [h_even, h_odd],
        "resolution_ranks": [t_even, t_odd],
        "tensor_ranks": [tensored_even, tensored_odd],
        "quasi_isomorphism": (tensored_even, tensored_odd) == (h_even, h_odd),
    }
    return result
