"""Cohomological-field-theory data at finite rank, and its axiom checks.

The verifier consumes correlator tables over a paired, graded basis:
scalars for three insertions (the moduli of genus-0, 3-marked curves is
a point) and two-component vectors for (0,4) and (1,1), modeling the
degree-0 and degree-2 parts of the curve-moduli cohomology.  Boundary
pullback coefficients are part of the data; the defaults kill the
degree-2 part, which is the pullback to a boundary point.

Every check is an exact identity of cyclotomic numbers; a report entry
records each tuple with both sides.  The module verifies supplied
tables; it does not integrate over moduli.  Only the (0,3)-with-unit
entries are ever generated here, since the metric axiom forces them.

Dual bases are normalized so that the contraction of the pairing with
itself reproduces the pairing exactly; on odd sectors this inserts the
Koszul sign into the dual-basis pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .exactalg import Cyclo
from .exactalg.linalg import inverse as mat_inverse, mat_mul
from .glsm import GlsmModel
from .orbifold import GroupElement


@dataclass
class PairedBasis:
    """A graded basis split into sectors with a block pairing.

    ``gram[key]`` pairs the basis of sector ``key`` against the basis of
    ``inverse[key]`` in basis order.
    """

    labels: list[str]
    sector_keys: list  # per global index
    inverse: dict      # sector key -> sector key
    degrees: list[Fraction]
    parities: list[int]
    gram: dict         # sector key -> matrix of Cyclo
    by_sector: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_sector:
            for i, k in enumerate(self.sector_keys):
                self.by_sector.setdefault(k, []).append(i)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def eta(self, i: int, j: int) -> Cyclo:
        ki, kj = self.sector_keys[i], self.sector_keys[j]
        if self.inverse[ki] != kj:
            return Cyclo.zero()
        a = self.by_sector[ki].index(i)
        b = self.by_sector[kj].index(j)
        return self.gram[ki][a][b]

    def sector_parity(self, key) -> int:
        idx = self.by_sector[key]
        return self.parities[idx[0]] if idx else 0


def paired_basis_from_state(state, narrow_only: bool = False) -> PairedBasis:
    """Package a computed state space for the verifier."""
    labels, sector_keys, degrees, parities = [], [], [], []
    gram = {}
    inverse = {}
    for sec in state.sectors:
        key = sec.element.phases
        space = state.spaces[key]
        if narrow_only and not space.narrow:
            continue
        inverse[key] = sec.element.inverse().phases
        gram[key] = state.gram_matrix(key)
        for lbl in space.basis_labels():
            labels.append(f"{sec.element.label()}:{lbl}")
            sector_keys.append(key)
            degrees.append(space.degree)
            parities.append(len(space.sector.fixed_support) % 2)
    return PairedBasis(labels, sector_keys, inverse, degrees, parities, gram)


@dataclass
class DualBases:
    """For each sector, the dual vectors expressed over the inverse sector."""

    basis: PairedBasis
    duals: dict  # sector key -> list of global coefficient vectors

    def pairs(self):
        """Iterate (T, T_dual) as global coefficient vectors."""
        n = self.basis.dimension
        for key, idx in self.basis.by_sector.items():
            for pos, i in enumerate(idx):
                yield _unit_vec(n, i), self.duals[key][pos]


def dual_bases(basis: PairedBasis) -> DualBases:
    """Invert the Gram blocks; with the parity sign the contraction
    identity eta(a, b) = sum eta(a, T) eta(T_dual, b) holds literally."""
    duals = {}
    n = basis.dimension
    for key, idx in basis.by_sector.items():
        g = basis.gram[key]
        if not idx:
            duals[key] = []
            continue
        inv = mat_inverse(g, one=Cyclo.one())
        if inv is None:
            raise ValueError(f"singular Gram block on sector {key}")
        sign = -1 if basis.sector_parity(key) else 1
        inv_idx = basis.by_sector[basis.inverse[key]]
        vectors = []
        for j in range(len(idx)):
            vec = [Cyclo.zero()] * n
            for l, gi in enumerate(inv_idx):
                c = inv[l][j]
                vec[gi] = c if sign > 0 else -c
            vectors.append(vec)
        duals[key] = vectors
    return DualBases(basis, duals)


def casimir_check(basis: PairedBasis) -> list[dict]:
    """eta(a, b) = sum_{h,j} eta(a, T^h_j) eta(T_h^j, b) on all basis pairs.

    The double sum is block-diagonal over sectors: for a in sector k only
    h = k^{-1} contributes and b must lie in k^{-1}, so the identity per
    sector is G_k . C . G_k = G_k with C the dual-basis coefficients of
    sector k^{-1}.  Off-block pairs are 0 = 0 identically.
    """
    db = dual_bases(basis)
    report = []
    for key, idx in sorted(basis.by_sector.items()):
        if not idx:
            continue
        inv_key = basis.inverse[key]
        g = basis.gram[key]
        inv_idx = basis.by_sector[inv_key]
        # dual coefficients of sector k^{-1}, restricted to sector-k coords
        c = [[db.duals[inv_key][j][gi] for gi in idx]
             for j in range(len(inv_idx))]
        ok = mat_mul(mat_mul(g, c), g) == g
        report.append({
            "axiom": "casimir",
            "tuple": ("sector", str(key)),
            "lhs": "gram",
            "rhs": "gram . duals . gram",
            "pass": ok,
        })
    return report


# ---------------------------------------------------------------------------
# dimension formulas


def virdim(model: GlsmModel, genus: int, markings: int, degree_pairing,
           insertions) -> Fraction:
    """Virtual dimension of a component with fixed insertion sectors."""
    c1 = Fraction(degree_pairing)
    total = c1 + (model.central_charge - 3) * (1 - genus) + markings
    for h in insertions:
        el = h if isinstance(h, GroupElement) else GroupElement(h)
        total -= el.age() - model.q
    return total


def homogeneity_shift(model: GlsmModel, genus: int, degree_pairing) -> Fraction:
    return -2 * (Fraction(degree_pairing) + (1 - genus) * model.central_charge)


# ---------------------------------------------------------------------------
# the data object and its checks


@dataclass
class CohftData:
    basis: PairedBasis
    unit_vector: list          # global coefficient vector
    shift_genus0: Fraction     # homogeneity shift at g=0, d=0
    omega03: dict              # (i, j, k) -> Cyclo
    omega04: dict              # (i, j, k, l) -> (Cyclo, Cyclo)
    omega11: dict              # (i,) -> (Cyclo, Cyclo)
    boundary_pullbacks: dict = field(default_factory=lambda: {
        "tree_12_34": (Fraction(1), Fraction(0)),
        "tree_13_24": (Fraction(1), Fraction(0)),
        "tree_14_23": (Fraction(1), Fraction(0)),
        "loop": (Fraction(1), Fraction(0)),
        "forget": (Fraction(1), Fraction(0)),
    })

    def o3(self, i, j, k) -> Cyclo:
        return self.omega03.get((i, j, k), Cyclo.zero())

    def o3_unit(self, i, j) -> Cyclo:
        return self.o3_vec3(i, j, self.unit_vector)

    def o3_vec3(self, i, j, vec) -> Cyclo:
        return _dot(vec, lambda k: self.o3(i, j, k))

    def o3_vec1(self, vec, j, k) -> Cyclo:
        return _dot(vec, lambda i: self.o3(i, j, k))

    def o4(self, key) -> tuple:
        return self.omega04.get(tuple(key), (Cyclo.zero(), Cyclo.zero()))

    def o4_unit_last(self, i, j, k) -> tuple:
        c0, c2 = Cyclo.zero(), Cyclo.zero()
        for l, c in enumerate(self.unit_vector):
            if c:
                v0, v2 = self.o4((i, j, k, l))
                c0 = c0 + c * v0
                c2 = c2 + c * v2
        return c0, c2

    def o11(self, i) -> tuple:
        return self.omega11.get((i,), (Cyclo.zero(), Cyclo.zero()))


def _dot(vec, entry) -> Cyclo:
    """sum of c * entry(k) over the nonzero coefficients c = vec[k]."""
    total = Cyclo.zero()
    for k, c in enumerate(vec):
        if c:
            total = total + c * entry(k)
    return total


def _entry(axiom, tup, lhs, rhs):
    return {"axiom": axiom, "tuple": tuple(tup), "lhs": str(lhs),
            "rhs": str(rhs), "pass": lhs == rhs}


def check_metric_axiom(data: CohftData) -> list[dict]:
    """Omega_{0,3}(a, b, unit) = eta(a, b) on all basis pairs."""
    n = data.basis.dimension
    out = []
    for i in range(n):
        for j in range(n):
            lhs = data.o3_unit(i, j)
            rhs = data.basis.eta(i, j)
            out.append(_entry("metric", (i, j), lhs, rhs))
    return out


def check_selection_rules(data: CohftData) -> list[dict]:
    """Group selection for pairs against the unit, and the degree
    bookkeeping sum deg + shift = 2 * (component index) on every stored
    nonzero table entry."""
    out = []
    basis = data.basis
    n = basis.dimension
    for i in range(n):
        for j in range(n):
            val = data.o3_unit(i, j)
            if not val:
                continue
            ki, kj = basis.sector_keys[i], basis.sector_keys[j]
            ok = basis.inverse[ki] == kj
            out.append(_entry("selection_group", (i, j),
                              "product is identity" if ok else "product is not identity",
                              "product is identity"))
    for key, val in sorted(data.omega03.items()):
        if not val:
            continue
        total = sum((basis.degrees[i] for i in key), Fraction(0)) + data.shift_genus0
        out.append(_entry("selection_degree", key, total, Fraction(0)))
    for key, (v0, v2) in sorted(data.omega04.items()):
        total = sum((basis.degrees[i] for i in key), Fraction(0)) + data.shift_genus0
        if v0:
            out.append(_entry("selection_degree", key, total, Fraction(0)))
        if v2:
            out.append(_entry("selection_degree", key, total, Fraction(2)))
    return out


def check_sr_covariance(data: CohftData) -> list[dict]:
    """Adjacent transpositions act with the Koszul sign on every stored tuple."""
    out = []
    par = data.basis.parities
    for key in sorted(data.omega03):
        val = data.omega03[key]
        for pos in range(2):
            swapped = list(key)
            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
            sign = (-1) ** (par[key[pos]] * par[key[pos + 1]])
            other = data.o3(*swapped)
            out.append(_entry("sr_covariance", key + tuple(swapped),
                              val if sign > 0 else -val, other))
    for key in sorted(data.omega04):
        v0, v2 = data.omega04[key]
        for pos in range(3):
            swapped = list(key)
            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
            sign = (-1) ** (par[key[pos]] * par[key[pos + 1]])
            o0, o2 = data.o4(swapped)
            out.append(_entry("sr_covariance", key + tuple(swapped),
                              v0 if sign > 0 else -v0, o0))
            out.append(_entry("sr_covariance", key + tuple(swapped),
                              v2 if sign > 0 else -v2, o2))
    return out


def _contract(data: CohftData, duals: DualBases,
              left_pair: tuple[int, int], right_pair: tuple[int, int]) -> Cyclo:
    total = Cyclo.zero()
    for t, tdual in duals.pairs():
        a = data.o3_vec3(left_pair[0], left_pair[1], t)
        if not a:
            continue
        b = data.o3_vec1(tdual, right_pair[0], right_pair[1])
        if b:
            total = total + a * b
    return total


def _handle_trace(data: CohftData, duals: DualBases, g: int) -> Cyclo:
    """sum over dual pairs (t, t^dual) of omega_{0,3}(g, t, t^dual)."""
    total = Cyclo.zero()
    for t, tdual in duals.pairs():
        for i, ci in enumerate(t):
            if not ci:
                continue
            for j, cj in enumerate(tdual):
                if cj:
                    total = total + ci * cj * data.o3(g, i, j)
    return total


def _unit_vec(n, i):
    v = [Cyclo.zero()] * n
    v[i] = Cyclo.one()
    return v


def check_tree_gluing(data: CohftData) -> list[dict]:
    """Boundary pullback of (0,4) equals the dual-basis contraction of two
    (0,3) tables, in every channel supplied in the pullback data."""
    duals = dual_bases(data.basis)
    n = data.basis.dimension
    out = []
    channels = {
        "tree_12_34": (0, 1, 2, 3),
        "tree_13_24": (0, 2, 1, 3),
        "tree_14_23": (0, 3, 1, 2),
    }
    for key in sorted(data.omega04):
        v0, v2 = data.omega04[key]
        for name, (p, q, r, s) in channels.items():
            coeff = data.boundary_pullbacks[name]
            lhs = v0 * coeff[0] + v2 * coeff[1]
            rhs = _contract(data, duals, (key[p], key[q]), (key[r], key[s]))
            out.append(_entry(name, key, lhs, rhs))
    return out


def check_loop_gluing(data: CohftData) -> list[dict]:
    """Boundary pullback of (1,1) equals the dual-basis trace of (0,3)."""
    duals = dual_bases(data.basis)
    out = []
    coeff = data.boundary_pullbacks["loop"]
    for key in sorted(data.omega11):
        v0, v2 = data.omega11[key]
        lhs = v0 * coeff[0] + v2 * coeff[1]
        out.append(_entry("loop", key, lhs, _handle_trace(data, duals, key[0])))
    return out


def check_forgetting_tails(data: CohftData) -> list[dict]:
    """(0,4) with a unit insertion is the pulled-back (0,3) table: its
    degree-0 part matches and its degree-2 part vanishes."""
    n = data.basis.dimension
    out = []
    for key in iproduct(range(n), repeat=3):
        c0, c2 = data.o4_unit_last(*key)
        expected = data.o3(*key)
        out.append(_entry("forgetting_tails_deg0", key, c0, expected))
        out.append(_entry("forgetting_tails_deg2", key, c2, Cyclo.zero()))
    return out


def run_all_checks(data: CohftData) -> dict:
    report = {
        "metric": check_metric_axiom(data),
        "selection": check_selection_rules(data),
        "sr_covariance": check_sr_covariance(data),
        "tree_gluing": check_tree_gluing(data),
        "loop_gluing": check_loop_gluing(data),
        "forgetting_tails": check_forgetting_tails(data),
        "casimir": casimir_check(data.basis),
    }
    report["all_pass"] = all(e["pass"] for entries in report.values()
                             if isinstance(entries, list) for e in entries)
    return report


# ---------------------------------------------------------------------------
# generators: Frobenius toys and axiom-forced tables


def frobenius_toy(labels, degrees, trace, mult_table,
                  unit_index: int = 0, central_charge=None) -> CohftData:
    """A cohomological field theory from a finite commutative Frobenius
    algebra: three/four-point tables are traces of products, the (1,1)
    table is the handle trace.  All elements live in one self-inverse
    sector with even parity."""
    n = len(labels)
    key = "1"
    trace = [c if isinstance(c, Cyclo) else Cyclo.from_rational(c) for c in trace]

    def mul(u, v):
        out = [Cyclo.zero()] * n
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if cj:
                    for k, s in mult_table.get((i, j), []):
                        sc = s if isinstance(s, Cyclo) else Cyclo.from_rational(s)
                        out[k] = out[k] + ci * cj * sc
        return out

    def eps(vec) -> Cyclo:
        return sum((c * t for c, t in zip(vec, trace)), Cyclo.zero())

    basis_vecs = [_unit_vec(n, i) for i in range(n)]
    gram = [[eps(mul(basis_vecs[i], basis_vecs[j])) for j in range(n)]
            for i in range(n)]
    if central_charge is None:
        central_charge = max(degrees) if degrees else Fraction(0)
    basis = PairedBasis(list(labels), [key] * n, {key: key},
                        [Fraction(d) for d in degrees], [0] * n, {key: gram})

    omega03 = {}
    for i, j, k in iproduct(range(n), repeat=3):
        v = eps(mul(mul(basis_vecs[i], basis_vecs[j]), basis_vecs[k]))
        if v:
            omega03[(i, j, k)] = v
    omega04 = {}
    for i, j, k, l in iproduct(range(n), repeat=4):
        v = eps(mul(mul(basis_vecs[i], basis_vecs[j]),
                    mul(basis_vecs[k], basis_vecs[l])))
        if v:
            omega04[(i, j, k, l)] = (v, Cyclo.zero())
    # handle trace via dual bases
    data = CohftData(basis, _unit_vec(n, unit_index),
                     -2 * Fraction(central_charge), omega03, omega04, {})
    duals = dual_bases(basis)
    data.omega11 = {(g,): (v, Cyclo.zero()) for g in range(n)
                    if (v := _handle_trace(data, duals, g))}
    return data


def axiom_seeded_data(basis: PairedBasis, unit_vector,
                      shift_genus0: Fraction) -> CohftData:
    """Tables carrying exactly the axiom-forced entries: (0,3) seeded by
    the metric axiom with full symmetrization, (0,4) by the tree-channel
    contraction, (1,1) by the loop contraction."""
    n = basis.dimension
    unit_support = [(k, c) for k, c in enumerate(unit_vector) if c]

    omega03 = {}
    for i, j, k in iproduct(range(n), repeat=3):
        # value = eta of the two non-unit slots whenever one slot carries
        # a unit coefficient; consistent across slots by symmetry of eta
        # on even sectors
        val = Cyclo.zero()
        tup = (i, j, k)
        for slot in range(3):
            coeff = Cyclo.zero()
            for ku, cu in unit_support:
                if tup[slot] == ku:
                    coeff = cu
            if coeff:
                a, b = [tup[t] for t in range(3) if t != slot]
                val = basis.eta(a, b) * coeff
                break
        if val:
            omega03[tup] = val

    data = CohftData(basis, list(unit_vector), shift_genus0, omega03, {}, {})
    duals = dual_bases(basis)

    omega04 = {}
    for key in iproduct(range(n), repeat=4):
        v = _contract(data, duals, (key[0], key[1]), (key[2], key[3]))
        if v:
            omega04[key] = (v, Cyclo.zero())
    data.omega04 = omega04

    data.omega11 = {(g,): (v, Cyclo.zero()) for g in range(n)
                    if (v := _handle_trace(data, duals, g))}
    return data


def _parse_scalar(text) -> Cyclo:
    from .exactalg import MultiPoly
    return MultiPoly.parse(str(text)).constant_term()


def cohft_data_from_jsonable(basis: PairedBasis, obj: dict) -> CohftData:
    """Load user-supplied correlator tables keyed by basis-index tuples.

    Schema: {"unit": [...], "shift_genus0": "-6",
             "omega03": [{"key": [i,j,k], "value": "c"}],
             "omega04": [{"key": [...], "value": ["c0", "c2"]}],
             "omega11": [{"key": [i], "value": ["c0", "c2"]}],
             "boundary_pullbacks": {"tree_12_34": ["1", "0"], ...}}
    Scalars use the cyclotomic coefficient grammar, e.g. "(3/2)*z5^2".
    """
    unit = [_parse_scalar(c) for c in obj["unit"]]
    if len(unit) != basis.dimension:
        raise ValueError("unit vector length does not match the basis")
    shift = Fraction(str(obj.get("shift_genus0", 0)))
    omega03 = {tuple(e["key"]): _parse_scalar(e["value"])
               for e in obj.get("omega03", [])}
    omega04 = {tuple(e["key"]): (_parse_scalar(e["value"][0]),
                                 _parse_scalar(e["value"][1]))
               for e in obj.get("omega04", [])}
    omega11 = {tuple(e["key"]): (_parse_scalar(e["value"][0]),
                                 _parse_scalar(e["value"][1]))
               for e in obj.get("omega11", [])}
    data = CohftData(basis, unit, shift, omega03, omega04, omega11)
    for name, pair in obj.get("boundary_pullbacks", {}).items():
        if name not in data.boundary_pullbacks:
            raise ValueError(f"unknown boundary pullback {name!r}")
        data.boundary_pullbacks[name] = (Fraction(str(pair[0])),
                                         Fraction(str(pair[1])))
    return data


def narrow_sector_data(model: GlsmModel, state) -> CohftData:
    """Axiom-forced tables on the narrow part of a model's state space,
    with the unit supplied by the matrix-factorization route."""
    from .matfact import unit_class

    basis = paired_basis_from_state(state, narrow_only=True)
    unit = unit_class(model)
    vec = [Cyclo.zero()] * basis.dimension
    placed = False
    for gi, key in enumerate(basis.sector_keys):
        if key == tuple(unit.sector_phases):
            offset = basis.by_sector[key].index(gi)
            vec[gi] = unit.coefficients[offset]
            placed = True
    if not placed:
        raise ValueError("unit sector is not narrow; narrow-sector data unavailable")
    return axiom_seeded_data(basis, vec, homogeneity_shift(model, 0, 0))
