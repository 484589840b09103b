"""Outside-in tracing of the lgck layers for the traced benchmark run.

The tracer replaces each traced function with a wrapper wherever it is
bound: in its own module, in every lgck module that imported it with
``from ... import`` (under any alias), and on its class for methods.
Span wrappers record (name, start, end, parent, job) in memory; the
hot scalar dunders of ``Cyclo`` and ``MultiPoly`` get call counters
only, so the traced run stays a bounded multiple of the untraced one.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, "module:qualname"); a qualname with a dot is a method.
SPAN_TARGETS = (
    ("cli.main", "lgck.cli:main"),
    ("glsm.from_dict", "lgck.glsm:GlsmModel.from_dict"),
    ("glsm.validate", "lgck.glsm:validate"),
    ("glsm.semistable_locus", "lgck.glsm:semistable_locus"),
    ("exactalg.cone.lp", "lgck.exactalg.cone:exact_lp_cone_membership"),
    ("orbifold.sector_group", "lgck.orbifold:sector_group"),
    ("statespace.build", "lgck.statespace:StateSpace.__init__"),
    ("statespace.sector_space", "lgck.statespace:sector_space"),
    ("statespace.residue_calculator", "lgck.statespace:ResidueCalculator.__init__"),
    ("statespace.residue_of_monomial", "lgck.statespace:ResidueCalculator.residue_of_monomial"),
    ("statespace.gram_matrix", "lgck.statespace:StateSpace.gram_matrix"),
    ("statespace.to_jsonable", "lgck.statespace:StateSpace.to_jsonable"),
    ("statespace.kunneth_sum", "lgck.statespace:kunneth_sum"),
    ("exactalg.groebner.buchberger", "lgck.exactalg.groebner:buchberger"),
    ("exactalg.groebner.reduce_full", "lgck.exactalg.groebner:reduce_full"),
    ("exactalg.groebner.normal_form", "lgck.exactalg.groebner:PolyIdeal.normal_form"),
    ("exactalg.groebner.quotient_basis", "lgck.exactalg.groebner:PolyIdeal.quotient_basis"),
    ("exactalg.linalg.is_nonsingular", "lgck.exactalg.linalg:is_nonsingular"),
    ("exactalg.linalg.mat_mul", "lgck.exactalg.linalg:mat_mul"),
    ("exactalg.linalg.rank", "lgck.exactalg.linalg:rank"),
    ("exactalg.linalg.nullspace", "lgck.exactalg.linalg:nullspace"),
    ("exactalg.linalg.inverse", "lgck.exactalg.linalg:inverse"),
    ("matfact.koszul", "lgck.matfact:koszul"),
    ("matfact.chern_char", "lgck.matfact:chern_char"),
    ("matfact.todd_chern", "lgck.matfact:todd_chern"),
    ("matfact.unit_class", "lgck.matfact:unit_class"),
    ("matfact.splitting_degree_check", "lgck.matfact:splitting_degree_check"),
    ("cohft.axiom_seeded_data", "lgck.cohft:axiom_seeded_data"),
    ("cohft.run_all_checks", "lgck.cohft:run_all_checks"),
    ("cohft.casimir_check", "lgck.cohft:casimir_check"),
    ("simplicial.godement", "lgck.simplicial:godement"),
    ("simplicial.cosimplicial_verify", "lgck.simplicial:CosimplicialModule._verify_identities"),
    ("simplicial.de_rham_triangle_check", "lgck.simplicial:de_rham_triangle_check"),
    ("simplicial.order_complex_cohomology", "lgck.simplicial:order_complex_cohomology"),
    ("simplicial.flasque", "lgck.simplicial:GodementResolution.flasque"),
)

COUNT_TARGETS = (
    ("exactalg.cyclo.init.calls", "lgck.exactalg.cyclo:Cyclo.__init__"),
    ("exactalg.cyclo.mul.calls", "lgck.exactalg.cyclo:Cyclo.__mul__"),
    ("exactalg.cyclo.add.calls", "lgck.exactalg.cyclo:Cyclo.__add__"),
    ("exactalg.poly.mul.calls", "lgck.exactalg.poly:MultiPoly.__mul__"),
)


def _gram_entries(mat):
    return sum(len(row) for row in mat)


def _checked_entries(report):
    return sum(len(v) for v in report.values() if isinstance(v, list))


# Work counters read off a traced function's result: name -> (counter, fn).
RESULT_COUNTERS = {
    "orbifold.sector_group": ("orbifold.group_order", len),
    "statespace.residue_of_monomial": (
        "statespace.residue_of_monomial.nonzero", lambda r: 1 if r else 0),
    "statespace.gram_matrix": ("statespace.gram_entries", _gram_entries),
    "exactalg.groebner.buchberger": ("exactalg.groebner.basis_size", len),
    "exactalg.groebner.reduce_full": (
        "exactalg.groebner.reduce_full.zero", lambda r: 0 if r else 1),
    "exactalg.groebner.quotient_basis": (
        "exactalg.groebner.standard_monomials", lambda r: len(r) if r else 0),
    "cohft.run_all_checks": ("cohft.entries_checked", _checked_entries),
}


class Tracer:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job)
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list = []
        self._undo: list = []

    def span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for name, target in SPAN_TARGETS:
            self._patch(target, lambda fn, n=name: self.span_wrapper(n, fn))
        for name, target in COUNT_TARGETS:
            self._patch(target, lambda fn, n=name: self.count_wrapper(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, target, make):
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(make(raw.__func__))
            else:
                wrapper = make(raw)
            # aliases such as ``__radd__ = __add__`` share the wrapper
            owners = [(cls, a) for a, v in list(cls.__dict__.items()) if v is raw]
        else:
            raw = getattr(module, qualname)
            wrapper = make(raw)
            owners = [(mod, a)
                      for mod_name, mod in list(sys.modules.items())
                      if mod_name == "lgck" or mod_name.startswith("lgck.")
                      for a, v in list(vars(mod).items()) if v is raw]
        for owner, attr in owners:
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapper)

    def write(self, path):
        """Dump the spans, one per line: index, parent, job, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{job}\t{name}\t{start:.9f}\t{end:.9f}\n")


def summarize(spans) -> dict:
    """Per span name: calls, busy time and self time.

    Busy time is the time covered by the name's spans (nested spans of
    the same name count once); self time is each span's duration minus
    the durations of its direct children.
    """
    out: dict = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[idx]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            entry["busy_s"] += end - start
    return out
