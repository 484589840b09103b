"""Correctness gate: recorded reports plus closed-form oracles.

A report is checked against the digests recorded from the seed code for
every top-level key the seed emitted.  A report may gain top-level keys
(a provenance block, say) but may not change or lose one.  On top of
that come oracles that do not depend on the recording:

* every Gram matrix is nonsingular (``state-space`` and ``pairing``);
* a deformation of a Fermat model has the Fermat model's
  ``total_dimension`` and ``degree_histogram``;
* ``verify-cohft`` passes every axiom with no failures;
* the Kunneth dimensions multiply, the splitting bound holds;
* the simplicial de Rham triangle passes and its cohomology equals
  ``order_complex_cohomology``;
* each broad sector's Milnor number is prod(1/q_i - 1) (Milnor-Orlik,
  Topology 9, 1970), computed once per model by ``milnor_problems``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import prod
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def key_digests(report: dict) -> dict:
    return {key: digest(value) for key, value in sorted(report.items())}


def load_golden(path=GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _oracle_problems(verb: str, report: dict) -> list[str]:
    out = []
    if verb == "validate" and report.get("passed") is not True:
        out.append("validate did not pass")
    if verb == "state-space":
        bad = [i for i, s in enumerate(report.get("sectors", []))
               if s.get("gram_nonsingular") is not True]
        if bad:
            out.append(f"singular Gram on sectors {bad}")
    if verb == "pairing":
        bad = [i for i, s in enumerate(report.get("sectors", []))
               if s.get("nonsingular") is not True]
        if bad:
            out.append(f"singular pairing on sectors {bad}")
    if verb == "verify-cohft":
        failed = sum(c.get("failed", 1) for c in report.get("counts", {}).values())
        if report.get("all_pass") is not True or report.get("failures") or failed:
            out.append("cohft axioms fail")
    if verb == "chern" and report.get("splitting_degree_ok") is not True:
        out.append("splitting degree bound fails")
    if verb == "kunneth":
        for p in report.get("pairs", []):
            if p["dim_sum"] != p["dim_1"] * p["dim_2"] or not p["degree_sum_matches"]:
                out.append(f"Kunneth mismatch on {p['sector_1']} x {p['sector_2']}")
    if verb == "simplicial-demo":
        for name, poset in report.get("posets", {}).items():
            tri = poset.get("triangle", {})
            oracle = tri.get("oracle_ranks")
            ranks = tri.get("cohomology_ranks", [])
            if (tri.get("passed") is not True or oracle is None
                    or tri.get("cohomology_matches_oracle") is not True
                    or ranks[:len(oracle)] != oracle
                    or not all(poset.get("flasque", [False]))):
                out.append(f"simplicial triangle fails on {name}")
    return out


def check_report(job, rc: int, text: str | None, golden: dict,
                 twin: str | None = None) -> list[str]:
    """Problems with one job's exit code and report; empty when correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if text is None:
        return ["no report written"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("command") != job.verb:
        problems.append(f"command is {report.get('command')!r}")
    recorded = golden["candidates"].get(job.model, {}).get("reports", {}).get(job.verb)
    if recorded is None:
        problems.append("no recorded report")
    else:
        for key, want in recorded.items():
            if key not in report:
                problems.append(f"key {key!r} lost")
            elif digest(report[key]) != want:
                problems.append(f"key {key!r} changed")
    if twin is not None and job.verb == "state-space":
        fermat = golden["candidates"][twin]["reports"]["state-space"]
        for key in ("total_dimension", "degree_histogram"):
            if digest(report.get(key)) != fermat[key]:
                problems.append(f"{key} differs from the Fermat twin {twin}")
    problems.extend(_oracle_problems(job.verb, report))
    return problems


def milnor_problems(config: dict) -> list[str]:
    """Compare each broad sector's Milnor number with prod(d_w/c_i - 1)
    over the fixed coordinates, i.e. prod(1/q_i - 1)."""
    from lgck.glsm import GlsmModel
    from lgck.orbifold import sector_group
    from lgck.statespace import sector_space

    model = GlsmModel.from_dict(config)
    group = sector_group(model)
    seen = set()
    problems = []
    for h in group:
        fixed = tuple(sorted(h.fixed_support()))
        if not fixed or fixed in seen:
            continue
        seen.add(fixed)
        expected = prod(Fraction(model.d_w) / model.r_charges[i] - 1 for i in fixed)
        got = sector_space(model, h, group).calculator.milnor_number
        if got != expected:
            problems.append(f"Milnor number {got} != {expected} on {h.label()}")
    return problems
