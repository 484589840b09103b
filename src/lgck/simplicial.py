"""Simplicial de Rham forms, Thom-Sullivan complexes, and Godement
resolutions over finite posets, all at desk scale with exact rationals.

The algebra of polynomial forms on the n-simplex is presented in the
reduced coordinates t_1 .. t_n (t_0 and dt_0 eliminated by the relations
sum t_i = 1, sum dt_i = 0): a form on the n-simplex is a ``DiffForm``
over ``simplex_variables(n)``, so its level is its number of variables.
Cosimplicial modules are finite-dimensional with explicit
coface/codegeneracy matrices (sparse rows, as everywhere in ``linalg``);
arbitrary monotone maps act through the epi-mono factorization.  Thom-Sullivan elements are stored as compatible
families over levels 0..N, represented by Whitney-basis expansions of
normalized cochains; compatibility is verified at construction against
the generating maps, which suffices, both actions being functorial.

Finite posets carry the Alexandrov topology whose opens are the up-closed
subsets; the points of the topos are the poset elements, which makes the
Godement product over points finite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import factorial

from .config import POSET, ConfigError, read
from .exactalg import MultiPoly
from .exactalg.linalg import identity, mat_mul, nullspace, rank, solve, sparse, transpose
from .forms import DiffForm, d_of_poly


def simplex_variables(n: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(1, n + 1))


def _barycentric_poly(n: int, i: int) -> MultiPoly:
    """t_i as a polynomial in the reduced coordinates (t_0 eliminated)."""
    names = simplex_variables(n)
    if i == 0:
        out = MultiPoly.const(names, 1)
        for nm in names:
            out = out - MultiPoly.var(names, nm)
        return out
    return MultiPoly.var(names, names[i - 1])


def _monotone(f) -> bool:
    return all(f[i] <= f[i + 1] for i in range(len(f) - 1))


def pullback(f, m: int):
    """The pullback Omega[m] -> Omega[n] along a monotone f: [n] -> [m].

    It is the algebra map sending t_j to the sum of the t_i over the fiber
    of j, and dt_j to the differential of that sum, so it is fixed by the
    images of t_1 .. t_m, built here once for every form it pulls back."""
    f = tuple(f)
    if not _monotone(f):
        raise ValueError("map is not monotone")
    if any(v < 0 or v > m for v in f):
        raise ValueError("map values outside the target simplex")
    n = len(f) - 1
    names = simplex_variables(n)
    images = {f"t{j}": MultiPoly.zero(names) for j in range(1, m + 1)}
    for i, j in enumerate(f):
        if j:
            images[f"t{j}"] = images[f"t{j}"] + _barycentric_poly(n, i)
    dts = [d_of_poly(images[f"t{j}"]) for j in range(1, m + 1)]

    def pull(omega: DiffForm) -> DiffForm:
        if len(omega.variables) != m:
            raise ValueError(f"expected a form on the {m}-simplex")
        out = DiffForm.zero(names)
        for idx, coeff in omega.terms.items():
            piece = DiffForm(names, {(): coeff.substitute(images)})
            for j in idx:  # dt_{j+1} on the target
                piece = piece.wedge(dts[j])
            out = out + piece
        return out
    return pull


def integrate_simplex(omega: DiffForm) -> Fraction:
    """Integral over the standard simplex with dt_1 ^ ... ^ dt_n positive,
    via int t^a dt = (prod a_i!) / (n + sum a_i)!."""
    n = len(omega.variables)
    if n == 0:
        c = omega.coefficient(())
        return c.constant_term().as_fraction()
    if omega.form_degrees() - {n}:
        raise ValueError("integrand must be a top-degree form")
    top = omega.coefficient(tuple(range(n)))
    total = Fraction(0)
    for exp, c in top.terms.items():
        num = 1
        for a in exp:
            num *= factorial(a)
        total += c.as_fraction() * Fraction(num, factorial(n + sum(exp)))
    return total


def whitney_form(indices, n: int) -> DiffForm:
    """The elementary form of a face, scaled to integrate to 1 over it."""
    idx = tuple(indices)
    if list(idx) != sorted(set(idx)):
        raise ValueError("indices must be strictly increasing")
    if idx and (idx[0] < 0 or idx[-1] > n):
        raise ValueError("indices outside the simplex")
    t = [_barycentric_poly(n, i) for i in idx]
    dt = [d_of_poly(ti) for ti in t]
    out = DiffForm.zero(simplex_variables(n))
    for j, tj in enumerate(t):
        piece = DiffForm.from_poly(tj)
        for k, dtk in enumerate(dt):
            if k != j:
                piece = piece.wedge(dtk)
        out = out + (piece if j % 2 == 0 else -piece)
    return out.scale(Fraction(factorial(len(idx) - 1)))


# ---------------------------------------------------------------------------
# cosimplicial modules


class CosimplicialModule:
    """Finite-dimensional cosimplicial vector space, levels 0..N."""

    def __init__(self, dims, cofaces, codegens):
        self.dims = list(dims)
        self.top_level = len(self.dims) - 1
        self.cofaces = cofaces      # (n, i): matrix A[n-1] -> A[n], 0 <= i <= n
        self.codegens = codegens    # (n, i): matrix A[n+1] -> A[n], 0 <= i <= n
        self._verify_identities()
        self._maps: dict[tuple, list[dict]] = {}  # the maps are fixed from here on
        self._pulls: dict[tuple, object] = {}  # pullback(f, m) of forms, per (f, m)

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

    def map_into(self, f, m: int) -> list[dict[int, Fraction]]:
        """Matrix of A(f) for monotone f: [n] -> [m] with explicit target,
        memoized per (f, m); callers must not mutate it."""
        f = tuple(f)
        hit = self._maps.get((f, m))
        if hit is None:
            hit = self._maps[(f, m)] = self._build_map(f, m)
        return hit

    def _build_map(self, f: tuple, m: int) -> list[dict[int, Fraction]]:
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


@dataclass
class NormalizedComplex:
    """N^d = intersection of the codegeneracy kernels, with the
    alternating coface differential."""

    dims: list[int]
    bases: list[list[dict[int, Fraction]]]  # rows: basis of N^d inside A[d]
    differentials: list[list[dict[int, Fraction]]]  # N^d -> N^{d+1} in N-coordinates

    def cohomology_ranks(self) -> list[int]:
        return _betti(self.dims, self.differentials)


def _betti(dims, differentials) -> list[int]:
    """dim C^d - rank d^d - rank d^(d-1) of a cochain complex; a
    differential out of the top degree that is not given is 0."""
    ranks = [rank(mat) for mat in differentials] + [0] * (len(dims) - len(differentials))
    return [dim - ranks[d] - (ranks[d - 1] if d else 0) for d, dim in enumerate(dims)]


def alternating_coface(cs: CosimplicialModule, n: int):
    """sum_i (-1)^i d^i : A[n] -> A[n+1]."""
    total = [{} for _ in range(cs.dims[n + 1])]
    for i in range(n + 2):
        for row, face in zip(total, cs.cofaces[(n + 1, i)]):
            for b, x in face.items():
                y = row.pop(b, 0) + (-x if i % 2 else x)
                if y:
                    row[b] = y
    return total


def normalized_complex(cs: CosimplicialModule) -> NormalizedComplex:
    N = cs.top_level
    bases = [nullspace([row for i in range(d) for row in cs.codegens[(d - 1, i)]], cs.dims[d])
             for d in range(N + 1)]
    diffs = []
    for d in range(N):
        # row j: the image of basis vector j of N^d, in A[d+1] and then in
        # the basis of N^(d+1)
        images = mat_mul(bases[d], transpose(alternating_coface(cs, d), cs.dims[d + 1]))
        target, width = transpose(bases[d + 1], cs.dims[d + 1]), len(bases[d + 1])
        cols = [solve(target, image, width) for image in images]
        if None in cols:
            raise ValueError("normalized differential leaves the subcomplex")
        diffs.append(transpose(cols, width))
    return NormalizedComplex([len(b) for b in bases], bases, diffs)


# ---------------------------------------------------------------------------
# finite poset sheaves and the Godement resolution


# A discrete poset of n points has 2^n up-sets, and the Godement checks lay
# chains out over each: at level 3 the checks on 10/11/12 discrete points take
# 0.25/0.4/0.8 s, of which flasqueness takes 0.11/0.2/0.6 s.
MAX_POSET_POINTS = 10
# A stalk of dimension d is read as a d-row identity and d-row restriction
# maps before any Godement dimension is predicted; at level 3 one point of
# dimension 8/10/12/16 takes 0.21/0.22/0.23/0.26 s end to end (Python 3.11,
# one core of a shared 2-core x86-64 host).
MAX_STALK_DIM = 10
# The checks grow with the top level's dimension, a sum of stalk dimensions
# over weak chains known before any matrix is built.  End to end on that host,
# a discrete poset of 10-dimensional stalks at level 3 takes 0.5-0.9 s at
# dimension 60 and 1.1-1.8 s at 99 (1.6-2.8 s at 60 with dense matrices); a
# chain of 10 points takes 1.3 s at level 2 (220).  At 99, one dimension more
# still fits in MAX_POSET_POINTS stalks of MAX_STALK_DIM.
MAX_GODEMENT_DIM = 99


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
        self.maps: dict[tuple[int, int], list[dict[int, Fraction]]] = {}
        for i in range(n):
            self.maps[(i, i)] = identity(self.stalk_dims[i])
        for (a, b), mat in restriction_matrices.items():
            ia, ib = self.index[a], self.index[b]
            if ia == ib or not self.leq[ia][ib]:
                raise ConfigError("simplicial.poset.restriction_matrices",
                                  f"{a} -> {b} needs {a} < {b} in the order")
            self.maps[(ia, ib)] = sparse([[Fraction(x) for x in row] for row in mat])
        self._close_maps()
        self._check_functoriality()

    @classmethod
    def from_dict(cls, data: dict) -> "FinitePosetSheaf":
        """Build from a ``simplicial.poset`` config block, read by
        ``config.POSET``; a malformed field raises ConfigError naming it."""
        path = "simplicial.poset"
        f = read(POSET, data, path)
        points, dims = f["points"], f["stalk_dims"]
        if len(points) > MAX_POSET_POINTS:
            raise ConfigError(f"{path}.points", f"more than {MAX_POSET_POINTS} points")
        if len(dims) != len(points) or max(dims, default=0) > MAX_STALK_DIM:
            raise ConfigError(f"{path}.stalk_dims", f"one per point, each at most {MAX_STALK_DIM}")
        at, dim, mats = f"{path}.restriction_matrices", dict(zip(points, dims)), {}
        for r in f["restriction_matrices"]:
            a, b, mat = r["from"], r["to"], r["matrix"]
            if (a, b) in mats:
                raise ConfigError(at, f"{a} -> {b} given twice")
            if len(mat) != dim[b] or any(len(row) != dim[a] for row in mat):
                raise ConfigError(at, f"{a} -> {b} must be {dim[b]} x {dim[a]}")
            mats[(a, b)] = mat
        return cls(points, f["order_pairs"], dims, mats)

    def _close_maps(self):
        """From each point i, search along the maps k -> j and compose through
        the i -> k already closed; a pair no path joins is a zero map at a
        0-dimensional stalk, or missing.  Order pairs may form a cycle.  A
        composite through a 0-dimensional stalk is empty rows, the zero map."""
        n = len(self.points)
        for i in range(n):
            reached = [i]
            for k in reached:
                for j in range(n):
                    if j not in reached and (k, j) in self.maps:
                        if (i, j) not in self.maps:
                            self.maps[(i, j)] = mat_mul(self.maps[(k, j)], self.maps[(i, k)])
                        reached.append(j)
        for i in range(n):
            for j in range(n):
                if self.leq[i][j] and (i, j) not in self.maps:
                    if self.stalk_dims[i] == 0 or self.stalk_dims[j] == 0:
                        self.maps[(i, j)] = [{} for _ in range(self.stalk_dims[j])]
                    else:
                        raise ValueError(
                            f"missing restriction {self.points[i]} <= {self.points[j]}")

    def _check_functoriality(self):
        n = len(self.points)
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    if self.leq[i][k] and self.leq[k][j]:
                        if mat_mul(self.maps[(k, j)], self.maps[(i, k)]) != self.maps[(i, j)]:
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


def _weak_chains(sheaf: FinitePosetSheaf, length: int) -> list[tuple[int, ...]]:
    n = len(sheaf.points)
    chains = [(i,) for i in range(n)]
    for _ in range(length):
        chains = [c + (j,) for c in chains for j in range(n) if sheaf.leq[c[-1]][j]]
    return chains


class GodementResolution:
    """The cosimplicial Godement resolution: level n is the product of the
    stalks at the ends of the weak chains c_0 <= ... <= c_n, one block per
    chain in chain order.  Every structure map follows one rule: a monotone
    f: [n] -> [m] sends the germ along the chain c.f to the chain c,
    generized from (c.f)[-1] to c[-1] (Godement, 1958)."""

    def __init__(self, sheaf: FinitePosetSheaf, levels: int):
        if levels < 1:
            raise ValueError("need at least one level")
        self.sheaf = sheaf
        self.chains = [_weak_chains(sheaf, n) for n in range(levels + 1)]
        self.offsets, self.dims = [], []  # where each chain's block starts, per level
        for level in self.chains:
            at, total = {}, 0
            for c in level:
                at[c], total = total, total + sheaf.stalk_dims[c[-1]]
            self.offsets.append(at)
            self.dims.append(total)
        if self.dims[-1] > MAX_GODEMENT_DIM:
            raise ValueError(f"Godement level {levels} has dimension {self.dims[-1]}, "
                             f"above the budget MAX_GODEMENT_DIM = {MAX_GODEMENT_DIM}")
        # d^i deletes c[i] and s^i repeats it: c.d^i and c.s^i
        cofaces = {(n, i): self.induced(n, n - 1, lambda c: c[:i] + c[i + 1:])
                   for n in range(1, levels + 1) for i in range(n + 1)}
        codegens = {(n, i): self.induced(n, n + 1, lambda c: c[:i + 1] + c[i:])
                    for n in range(levels) for i in range(n + 1)}
        self.module = CosimplicialModule(self.dims, cofaces, codegens)

    def induced(self, n: int, m: int, f) -> list[dict[int, Fraction]]:
        """The matrix G[m] -> G[n] whose block at a chain c of level n is the
        generization from f(c)[-1] to c[-1], at the block of the chain f(c)."""
        mat = []
        for c in self.chains[n]:
            src = f(c)
            col = self.offsets[m][src]
            mat += [{col + j: x for j, x in gen.items()}
                    for gen in self.sheaf.maps[(src[-1], c[-1])]]
        return mat

    @cached_property
    def global_sections(self) -> list[dict[int, Fraction]]:
        """A basis of F(X) inside G[0], the equalizer of d^0, d^1: G[0] -> G[1]."""
        return nullspace(alternating_coface(self.module, 0), self.dims[0])

    def augmentation(self, n: int):
        """Matrix F(X) -> G[n]F(X): a section maps to its germs along chains."""
        at, germs = self.offsets[0], transpose(self.global_sections, self.dims[0])
        return [germs[at[(c[-1],)] + r]
                for c in self.chains[n] for r in range(self.sheaf.stalk_dims[c[-1]])]

    def flasque(self, n: int) -> bool:
        """Every restriction between up-sets is surjective: sections of
        G[n]F over an up-set U are the germs along the chains starting in
        U, and restriction to V projects onto the chains starting in V, so
        it is onto exactly when every chain starting in V starts in U.
        Only covering pairs (U, U - {m}) are compared: U - {m} is an up-set
        exactly when m is minimal in U, any up-set V < U is reached from U
        by such steps, and containment is transitive."""
        opens, every = self.sheaf.up_sets(), _weak_chains(self.sheaf, n)
        chains = {u: {c for c in every if c[0] in u} for u in opens}
        return all(chains[u - {m}] <= chains[u] for u in opens for m in u if u - {m} in chains)


def godement(sheaf: FinitePosetSheaf, levels: int) -> GodementResolution:
    """The cosimplicial Godement resolution of ``sheaf`` at levels 0..levels."""
    return GodementResolution(sheaf, levels)


# ---------------------------------------------------------------------------
# Thom-Sullivan elements


class ThElement:
    """A compatible family c_n in A[n] (x) Omega[n], n = 0..N."""

    def __init__(self, cs: CosimplicialModule, degree: int,
                 levels: list[list[DiffForm]], check: bool = True):
        self.cs = cs
        self.degree = degree
        self.levels = levels
        if check and not self.compatible():
            raise ValueError("family violates the Thom-Sullivan equalizer")

    @cached_property
    def _columns(self) -> list[list[dict[int, DiffForm]]]:
        """Each level c_n as a one-column matrix of sparse rows."""
        return [sparse([[form] for form in level]) for level in self.levels]

    def _check_map(self, f, m: int) -> bool:
        """A(f) c_n == f^* c_m for a monotone f: [n] -> [m]."""
        pull = self.cs._pulls.get((f, m)) or self.cs._pulls.setdefault((f, m), pullback(f, m))
        pulled = sparse([[form and pull(form)] for form in self.levels[m]])  # 0 pulls back to 0
        return mat_mul(self.cs.map_into(f, m), self._columns[len(f) - 1]) == pulled

    def compatible(self) -> bool:
        """Verify the equalizer condition.  Checking cofaces and
        codegeneracies suffices since both actions are functorial by
        construction."""
        N = self.cs.top_level
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

    def d(self) -> "ThElement":
        return ThElement(self.cs, self.degree + 1,
                         [[f.exterior_derivative() for f in level]
                          for level in self.levels], check=False)

    def integrate(self) -> dict[int, Fraction]:
        """Integration over the degree-d simplex: a sparse vector of A[d]."""
        d = self.degree
        if d > self.cs.top_level:
            return {}
        pieces = enumerate(comp.component(d) for comp in self.levels[d])
        return {k: x for k, piece in pieces if piece and (x := integrate_simplex(piece))}

    def __eq__(self, other):
        return isinstance(other, ThElement) and all(
            a == b for l1, l2 in zip(self.levels, other.levels)
            for a, b in zip(l1, l2))


def whitney_extension(cs: CosimplicialModule, degree: int, vec) -> ThElement:
    """Extend a normalized cochain to a compatible family by elementary
    forms: c_n = sum over strict monotone g: [d] -> [n] of A(g)(a) w_g."""
    column = transpose([vec], cs.dims[degree])
    levels = []
    for n in range(cs.top_level + 1):
        level = [DiffForm.zero(simplex_variables(n))] * cs.dims[n]  # shared: never changed in place
        for image in combinations(range(n + 1), degree + 1):
            w = whitney_form(image, n)
            for k, row in enumerate(mat_mul(cs.map_into(image, n), column)):
                if row:
                    level[k] = level[k] + w.scale(row[0])
        levels.append(level)
    return ThElement(cs, degree, levels)


def th_complex(cs: CosimplicialModule) -> tuple[NormalizedComplex, list[list[ThElement]]]:
    """The Whitney-span model of the Thom-Sullivan complex: the normalized
    complex and, per degree, the Whitney extensions of its basis."""
    norm = normalized_complex(cs)
    return norm, [[whitney_extension(cs, d, v) for v in basis]
                  for d, basis in enumerate(norm.bases)]


# ---------------------------------------------------------------------------
# the de Rham triangle


def order_complex_cohomology(sheaf: FinitePosetSheaf, top: int) -> list[int]:
    """Simplicial rational cohomology of the nerve (strict chains); the
    independent oracle for constant sheaves on Alexandrov spaces."""
    n = len(sheaf.points)
    strict = {0: [(i,) for i in range(n)]}
    for d in range(1, top + 2):
        strict[d] = [c + (j,) for c in strict[d - 1] for j in range(n)
                     if sheaf.leq[c[-1]][j] and c[-1] != j]
    cob = []
    for d in range(top + 1):
        position = {face: k for k, face in enumerate(strict[d])}
        # consecutive points differ, so the faces of a strict chain are distinct
        cob.append([{k: Fraction((-1) ** i) for i in range(d + 2)
                     if (k := position.get(c[:i] + c[i + 1:])) is not None}
                    for c in strict[d + 1]])
    return _betti([len(strict[d]) for d in range(top + 1)], cob)


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
        return {**asdict(self), "passed": self.passed}


def de_rham_triangle_check(resolution: GodementResolution,
                           oracle_ranks: list[int] | None = None) -> TriangleReport:
    """Verify the triangle relating the Thom-Sullivan inclusion, the
    normalized-cochain inclusion, and integration, on the Whitney span.

    Checks, all exact: every Whitney extension is a compatible family;
    d E = E d_N; integration is a left inverse of extension; and the
    integrated augmentation equals the normalized augmentation.  When
    oracle cohomology ranks are supplied they are compared below the
    truncation level."""
    cs = resolution.module
    N = cs.top_level
    norm, basis = th_complex(cs)

    # every Whitney extension was checked compatible when it was built
    left_inverse = all(el.integrate() == v for els, vs in zip(basis, norm.bases)
                       for el, v in zip(els, vs))
    # d E = E d_N: at each level, the d of the extensions of N^d are the
    # extensions of N^(d+1) combined by the columns of d_N
    chain_map = True
    for d in range(N):
        de = [el.d() for el in basis[d]]
        columns = transpose(norm.differentials[d], norm.dims[d])
        for n in range(N + 1):
            combined = mat_mul(columns, sparse([el.levels[n] for el in basis[d + 1]]))
            chain_map = chain_map and combined == sparse([e.levels[n] for e in de])

    # the augmentation triangle: integrate(Th(iota) v) == N(iota) v; each
    # constant family is checked compatible when it is built
    augs = [resolution.augmentation(n) for n in range(N + 1)]
    zeros = [DiffForm.zero(simplex_variables(n)) for n in range(N + 1)]  # shared
    triangle = True
    for si in range(len(resolution.global_sections)):  # one column per section
        family = [[DiffForm.const(simplex_variables(n), row[si]) if si in row else zeros[n]
                   for row in aug] for n, aug in enumerate(augs)]
        if ThElement(cs, 0, family).integrate() != {k: row[si] for k, row in enumerate(augs[0])
                                                     if si in row}:
            triangle = False

    ranks = norm.cohomology_ranks()
    matches = None
    if oracle_ranks is not None:
        matches = ranks[:N] == list(oracle_ranks)[:N]
    return TriangleReport(True, chain_map, left_inverse, triangle,
                          ranks, oracle_ranks, matches)

