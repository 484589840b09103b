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

The gluing axioms contract with the Casimir element sum_i T_i (x) T_i^dual,
kept as sparse pairs (i, {l: c}) and normalized so that the contraction
of the pairing with itself reproduces the pairing exactly; on odd sectors
this inserts the Koszul sign.  User tables are checked field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import lcm

from .config import COHFT_TABLES, ConfigError, read
from .exactalg import Cyclo
from .exactalg.linalg import inverse as mat_inverse, mat_mul, transpose
from .glsm import GlsmModel
from .orbifold import GroupElement

_ZERO = Cyclo.zero()  # shared: a Cyclo is never changed in place


@dataclass
class PairedBasis:
    """A graded basis split into sectors with a block pairing.

    ``gram[key]`` pairs the basis of sector ``key`` against the basis of
    ``inverse[key]`` in basis order, as sparse rows.  ``by_sector[key]``
    lists the global indices of a sector and ``position[i]`` is the place
    of ``i`` in its sector's list.  A basis is not changed after
    construction, so its Casimir element is built once, on first use.
    """

    labels: list[str]
    sector_keys: list  # per global index
    inverse: dict      # sector key -> sector key
    degrees: list[Fraction]
    parities: list[int]
    gram: dict         # sector key -> sparse rows of Cyclo

    def __post_init__(self):
        self.by_sector, self.position = {}, []
        for i, k in enumerate(self.sector_keys):
            idx = self.by_sector.setdefault(k, [])
            self.position.append(len(idx))
            idx.append(i)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def eta(self, i: int, j: int) -> Cyclo:
        ki = self.sector_keys[i]
        if self.inverse[ki] != self.sector_keys[j]:
            return _ZERO
        return self.gram[ki][self.position[i]].get(self.position[j], _ZERO)

    def sector_parity(self, key) -> int:
        return self.parities[self.by_sector[key][0]]

    @cached_property
    def casimir(self) -> list[tuple[int, dict]]:
        """The Casimir element sum_i T_i (x) T_i^dual as sparse pairs
        ``(i, {l: c})``: basis index ``i`` in ``by_sector`` order and its
        dual over the inverse sector, zero coefficients left out.  The Gram
        blocks are inverted; with the parity sign applied the contraction
        identity eta(a, b) = sum eta(a, T) eta(T_dual, b) holds literally."""
        casimir = []
        for key, idx in self.by_sector.items():
            inv = mat_inverse(self.gram[key], one=Cyclo.one())
            if inv is None:
                raise ValueError(f"singular Gram block on sector {key}")
            odd = self.sector_parity(key)
            inv_idx = self.by_sector[self.inverse[key]]
            for i, col in zip(idx, transpose(inv, len(idx))):
                casimir.append((i, {inv_idx[l]: -x if odd else x for l, x in col.items()}))
        return casimir


def paired_basis_from_state(state, narrow_only: bool = False) -> PairedBasis:
    """Package a computed state space for the verifier."""
    labels, sector_keys, degrees, parities = [], [], [], []
    gram = {}
    inverse = {}
    for key, space in state.spaces.items():
        if narrow_only and not space.narrow:
            continue
        inverse[key] = state.inverse[key]
        gram[key] = state.gram_rows(key)
        for lbl in space.basis_labels():
            labels.append(f"{space.element.label()}:{lbl}")
            sector_keys.append(key)
            degrees.append(space.degree)
            parities.append(len(space.fixed_variables) % 2)
    return PairedBasis(labels, sector_keys, inverse, degrees, parities, gram)


def casimir_check(basis: PairedBasis) -> list[dict]:
    """eta(a, b) = sum_{h,j} eta(a, T^h_j) eta(T_h^j, b) on all basis pairs.

    The double sum is block-diagonal over sectors: for a in sector k only
    h = k^{-1} contributes and b must lie in k^{-1}, so the identity per
    sector is G_k . C . G_k = G_k with C the dual-basis coefficients of
    sector k^{-1}.  Off-block pairs are 0 = 0 identically.
    """
    duals = dict(basis.casimir)
    report = []
    for key in sorted(basis.by_sector):
        g = basis.gram[key]
        # dual coefficients of sector k^{-1}, in sector-k coords
        c = [{basis.position[l]: x for l, x in duals[i].items()}
             for i in basis.by_sector[basis.inverse[key]]]
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
    boundary_pullbacks: dict = field(default_factory=lambda: dict.fromkeys(
        ("tree_12_34", "tree_13_24", "tree_14_23", "loop"),
        (Fraction(1), Fraction(0))))

    def o3(self, i, j, k) -> Cyclo:
        return self.omega03.get((i, j, k), _ZERO)

    def o3_unit(self, i, j) -> Cyclo:
        return sum((c * self.o3(i, j, k) for k, c in enumerate(self.unit_vector) if c),
                   _ZERO)

    def o4(self, key) -> tuple:
        return self.omega04.get(tuple(key), (_ZERO, _ZERO))


def _stored(data: CohftData):
    """Every stored (0,3) entry, then every stored (0,4) entry, in key order,
    as (key, its degree-0 [and degree-2] parts, lookup of those parts at
    any key of the same table)."""
    for key, val in sorted(data.omega03.items()):
        yield key, (val,), lambda k: (data.o3(*k),)
    for key, parts in sorted(data.omega04.items()):
        yield key, parts, data.o4


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
    for key, parts, _ in _stored(data):
        total = sum((basis.degrees[i] for i in key), Fraction(0)) + data.shift_genus0
        for c, part in enumerate(parts):
            if part:
                out.append(_entry("selection_degree", key, total, Fraction(2 * c)))
    return out


def check_sr_covariance(data: CohftData) -> list[dict]:
    """Adjacent transpositions act with the Koszul sign on every stored tuple."""
    out = []
    par = data.basis.parities
    for key, parts, lookup in _stored(data):
        for pos in range(len(key) - 1):
            swapped = list(key)
            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
            sign = (-1) ** (par[key[pos]] * par[key[pos + 1]])
            for v, other in zip(parts, lookup(swapped)):
                out.append(_entry("sr_covariance", key + tuple(swapped),
                                  v if sign > 0 else -v, other))
    return out


class _Contraction:
    """The (0,3) table indexed for the Casimir contraction: nonzero entries
    by their first two slots and by their first, every entry by its last
    two, and each dual with the field of all its coefficients.  A table
    may be changed in place, so each walk builds its own index."""

    def __init__(self, data: CohftData, casimir):
        self.duals = {i: (dual, lcm(*(c.order for c in dual.values())))
                      for i, dual in casimir}
        self.left, self.right, self.starts = {}, {}, {}
        for (a, b, c), v in data.omega03.items():
            if v:
                self.left.setdefault((a, b), []).append((c, v))
                self.starts.setdefault(a, []).append((b, c))
            self.right.setdefault((b, c), {})[a] = v

    def __call__(self, left_pair: tuple[int, int], right_pair: tuple[int, int]) -> Cyclo:
        """sum over the Casimir pairs (i, dual) of omega_{0,3}(left, T_i) *
        omega_{0,3}(T_i^dual, right) over the stored entries.  An absent
        entry would add c * 0 in the field of c, so each nonzero inner sum
        is promoted to the field of all coefficients of its dual."""
        total, row = _ZERO, self.right.get(right_pair, {})
        for i, a in self.left.get(left_pair, ()):
            dual, order = self.duals[i]
            b = sum((c * row[l] for l, c in dual.items() if l in row), _ZERO)
            if b:
                total = total + a * b.promote(lcm(b.order, order))
        return total


def _handle_trace(data: CohftData, casimir, g: int) -> Cyclo:
    """sum over the Casimir pairs (i, dual) of omega_{0,3}(g, T_i, T_i^dual)."""
    return sum((c * data.o3(g, i, l) for i, dual in casimir for l, c in dual.items()),
               _ZERO)


def check_tree_gluing(data: CohftData) -> list[dict]:
    """Boundary pullback of (0,4) equals the dual-basis contraction of two
    (0,3) tables, in every channel supplied in the pullback data."""
    contract = _Contraction(data, data.basis.casimir)
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
            rhs = contract((key[p], key[q]), (key[r], key[s]))
            out.append(_entry(name, key, lhs, rhs))
    return out


def check_loop_gluing(data: CohftData) -> list[dict]:
    """Boundary pullback of (1,1) equals the dual-basis trace of (0,3)."""
    out = []
    coeff = data.boundary_pullbacks["loop"]
    for key in sorted(data.omega11):
        v0, v2 = data.omega11[key]
        lhs = v0 * coeff[0] + v2 * coeff[1]
        out.append(_entry("loop", key, lhs,
                          _handle_trace(data, data.basis.casimir, key[0])))
    return out


def check_forgetting_tails(data: CohftData) -> list[dict]:
    """(0,4) with a unit insertion is the pulled-back (0,3) table: its
    degree-0 part matches and its degree-2 part vanishes.  Only the stored
    entries are summed, each in the field of every unit coefficient c, since
    an absent one adds c * 0 in the field of c."""
    n = data.basis.dimension
    unit = {l: c for l, c in enumerate(data.unit_vector) if c}
    order = lcm(*(c.order for c in unit.values()))
    tails = {}  # the stored entries with a unit in the last slot, by their first three
    for key, parts in data.omega04.items():
        if key[3] in unit:
            tails.setdefault(key[:3], []).append(
                (unit[key[3]], *(v.promote(lcm(v.order, order)) for v in parts)))
    out = []
    for key in iproduct(range(n), repeat=3):
        c0 = c2 = _ZERO  # the (0,4) table with the unit in the last slot
        for c, v0, v2 in tails.get(key, ()):
            c0, c2 = c0 + c * v0, c2 + c * v2
        out.append(_entry("forgetting_tails_deg0", key, c0, data.o3(*key)))
        out.append(_entry("forgetting_tails_deg2", key, c2, _ZERO))
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
# generators: axiom-forced tables


def axiom_seeded_data(basis: PairedBasis, unit_vector,
                      shift_genus0: Fraction) -> CohftData:
    """Tables carrying exactly the axiom-forced entries: (0,3) seeded by
    the metric axiom with full symmetrization, (0,4) by the tree-channel
    contraction, (1,1) by the loop contraction."""
    n = basis.dimension
    unit = {k: c for k, c in enumerate(unit_vector) if c}

    omega03 = {}
    for tup in iproduct(range(n), repeat=3):
        # value = eta of the two non-unit slots times the unit coefficient
        # of the first slot that carries one; consistent across slots by
        # symmetry of eta on even sectors
        slot = next((t for t in range(3) if tup[t] in unit), None)
        if slot is not None:
            a, b = [tup[t] for t in range(3) if t != slot]
            if val := basis.eta(a, b) * unit[tup[slot]]:
                omega03[tup] = val

    data = CohftData(basis, list(unit_vector), shift_genus0, omega03, {}, {})
    casimir = basis.casimir
    contract = _Contraction(data, casimir)
    # candidate keys: a stored (a, b, i), l in the dual of i, a stored (l, c, d)
    keys = {left + right for left, row in contract.left.items() for i, _ in row
            for l in contract.duals[i][0] for right in contract.starts.get(l, ())}
    data.omega04 = {key: (v, _ZERO) for key in sorted(keys)
                    if (v := contract(key[:2], key[2:]))}
    data.omega11 = {(g,): (v, _ZERO) for g in range(n)
                    if (v := _handle_trace(data, casimir, g))}
    return data


def cohft_data_from_jsonable(basis: PairedBasis, obj: dict) -> CohftData:
    """Load user-supplied correlator tables keyed by basis-index tuples: the
    ``cohft.tables`` block, read by ``config.COHFT_TABLES``.  A malformed
    field raises ConfigError naming its path."""
    path, n = "cohft.tables", basis.dimension
    t = read(COHFT_TABLES, obj, path)
    if len(t["unit"]) != n:
        raise ConfigError(f"{path}.unit", f"expected {n} constants, one per basis element")
    for name in ("omega03", "omega04", "omega11"):
        for key in t[name]:
            if max(key) >= n:
                raise ConfigError(f"{path}.{name}", f"key {list(key)}: indices must be below {n}")
    data = CohftData(basis, t["unit"], t["shift_genus0"], t["omega03"], t["omega04"],
                     t["omega11"])
    for name, pullback in t["boundary_pullbacks"].items():
        if name not in data.boundary_pullbacks:
            raise ConfigError(f"{path}.boundary_pullbacks.{name}", "unknown boundary pullback")
        data.boundary_pullbacks[name] = pullback
    return data


def narrow_sector_data(model: GlsmModel, state) -> CohftData:
    """Axiom-forced tables on the narrow part of a model's state space,
    with the unit supplied by the matrix-factorization route."""
    from .matfact import unit_class

    basis = paired_basis_from_state(state, narrow_only=True)
    unit = unit_class(model)
    key = unit.sector.phases
    if key not in basis.by_sector:
        raise ValueError("unit sector is not narrow; narrow-sector data unavailable")
    vec = [Cyclo.zero()] * basis.dimension
    for pos, gi in enumerate(basis.by_sector[key]):
        vec[gi] = unit.coefficients[pos]
    return axiom_seeded_data(basis, vec, homogeneity_shift(model, 0, 0))
