"""Seeded inputs of the four benchmark workloads.

Every input is drawn from a finite candidate pool, so that the report of
every candidate could be recorded once (``golden.json``) and checked on
every later run.  The seed picks the deformation coefficients, the
Koszul pairs, the Kunneth pairs and the job order; the program only
ever sees the JSON configs written from here.

A candidate that ``validate`` rejects, or whose potential has a
non-isolated singularity, is marked rejected when the golden file is
recorded; drawing it again means a redraw, which is logged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

WORKLOADS = ("fermat", "deformed", "cohft", "simplicial")


@dataclass(frozen=True)
class Job:
    verb: str
    config: str  # file name inside the work directory
    model: str   # candidate name: key of the golden entry and the oracles
    args: tuple = ()  # further command-line flags

    def argv(self, output: str) -> list:
        return [self.verb, self.config, *self.args, "--output", output]


@dataclass
class Candidate:
    name: str
    files: dict  # file name -> JSON object; the first file is the job config
    verbs: tuple
    is_model: bool = True  # the job config is a GLSM model (Milnor oracle)
    twin: str | None = None  # Fermat model with the same weights and group
    detail: str = ""  # the drawn value, for redraw logs
    args: tuple = ()

    @property
    def config(self) -> str:
        return next(iter(self.files))

    def jobs(self) -> list[Job]:
        return [Job(v, self.config, self.name, self.args) for v in self.verbs]


@dataclass
class Slot:
    """Draw ``count`` distinct accepted candidates from ``pool``;
    ``count is None`` takes every candidate."""

    pool: list
    count: int | None = None


@dataclass
class Inputs:
    files: dict = field(default_factory=dict)  # file name -> bytes
    jobs: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    log: list = field(default_factory=list)


# -- models ----------------------------------------------------------------


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def model_dict(variables, charges, d_w, potential, generators=()):
    return {
        "variables": list(variables),
        "torus_weights": [list(charges)],
        "finite_generators": [[str(p) for p in g] for g in generators],
        "chi": [d_w],
        "nu": [0],
        "r_charges": list(charges),
        "d_w": d_w,
        "potential": potential,
    }


def fermat(exponents, prefix="x", generators=()):
    names = _names(prefix, len(exponents))
    d = lcm(*exponents)
    charges = [d // a for a in exponents]
    w = " + ".join(f"{v}^{a}" for v, a in zip(names, exponents))
    return model_dict(names, charges, d, w, generators)


def chain(a, b, prefix="x"):
    """x^a + x y^b with charges (b, a-1) and degree ab."""
    x, y = _names(prefix, 2)
    return model_dict([x, y], [b, a - 1], a * b, f"{x}^{a} + {x}*{y}^{b}")


def loop(a, b, prefix="x"):
    """x^a y + x y^b with charges (b-1, a-1) and degree ab-1."""
    x, y = _names(prefix, 2)
    return model_dict([x, y], [b - 1, a - 1], a * b - 1,
                      f"{x}^{a}*{y} + {x}*{y}^{b}")


def corpus(prefix="x"):
    """The twenty ADE, Fermat, chain and loop models of the test corpus."""
    p = prefix
    return [
        ("A1", fermat([2], p)), ("A2", fermat([3], p)), ("A3", fermat([4], p)),
        ("A4", fermat([5], p)), ("A5", fermat([6], p)),
        ("D4", chain(3, 2, p)), ("D5", chain(4, 2, p)),
        ("E6", fermat([3, 4], p)), ("E7", chain(3, 3, p)), ("E8", fermat([3, 5], p)),
        ("fermat_33", fermat([3, 3], p)), ("fermat_44", fermat([4, 4], p)),
        ("fermat_55", fermat([5, 5], p)), ("fermat_333", fermat([3, 3, 3], p)),
        ("fermat_quintic", fermat([5] * 5, p)),
        ("chain_43", chain(4, 3, p)),
        ("loop_22", loop(2, 2, p)), ("loop_23", loop(2, 3, p)),
        ("loop_33", loop(3, 3, p)),
        ("fermat_44_z2", fermat([4, 4], p, generators=[[Fraction(1, 2), 0]])),
    ]


def small_corpus(prefix="x"):
    """Models cheap enough for Kunneth sums."""
    keep = ("A1", "A2", "A3", "D4", "loop_22", "fermat_33")
    return [(n, m) for n, m in corpus(prefix) if n in keep]


def _term(coeff: Fraction, monomial: str) -> str:
    sign = "-" if coeff < 0 else "+"
    return f" {sign} {abs(coeff)}*{monomial}"


def coefficient_pool():
    """Rationals p/q with 0 < |p| <= 7 and q <= 3, in increasing order."""
    return sorted({Fraction(p, q) for q in (1, 2, 3)
                   for p in range(-7, 8) if p})


# -- candidate pools ---------------------------------------------------------

_FERMAT_VERBS = ("validate", "sectors", "state-space", "pairing")


def _fermat_slots():
    models = corpus() + [("fermat_8_4", fermat([8] * 4)),
                         ("fermat_4_6", fermat([4] * 6)),
                         ("fermat_3_8", fermat([3] * 8))]
    return [Slot([Candidate(n, {f"{n}.json": m}, _FERMAT_VERBS)
                  for n, m in models])]


def _deformed_slots():
    x5, x6, x4 = _names("x", 5), _names("x", 6), _names("x", 4)
    quintic = " + ".join(f"{v}^5" for v in x5)
    quartic6 = " + ".join(f"{v}^4" for v in x6)
    quartic4 = " + ".join(f"{v}^4" for v in x4)
    light = ("validate", "state-space", "pairing")
    heavy = ("validate", "state-space")

    def pool(stem, build, values, verbs, twin):
        out = []
        for i, value in enumerate(values):
            name = f"{stem}_{i:02d}"
            out.append(Candidate(name, {f"{name}.json": build(value)}, verbs,
                                 twin=twin, detail=f"{value}"))
        return out

    coeffs = coefficient_pool()
    dwork = pool("dwork", lambda psi: model_dict(
        x5, [1] * 5, 5, quintic + _term(psi, "x1*x2*x3*x4*x5")),
        coeffs, heavy, "fermat_quintic")
    quintic_def = pool("quintic_x1cube", lambda c: model_dict(
        x5, [1] * 5, 5, quintic + _term(c, "x1^3*x2*x3")),
        coeffs, heavy, "fermat_quintic")
    fourfold = pool("quartic_fourfold", lambda c: model_dict(
        x6, [1] * 6, 4, quartic6 + _term(c, "x1*x2*x3*x4")),
        coeffs, heavy, "fermat_4_6")
    z8 = pool("quartic_z8", lambda k: model_dict(
        x4, [1] * 4, 4, quartic4 + f" + z8^{k}*x1^2*x2^2"),
        range(1, 8), light, None)
    fixed = [
        Candidate("loop_5", {"loop_5.json": model_dict(
            x5, [1] * 5, 4, "x1^3*x2 + x2^3*x3 + x3^3*x4 + x4^3*x5 + x5^3*x1")},
            heavy),
        Candidate("loop_4", {"loop_4.json": model_dict(
            ["x", "y", "z", "u"], [1] * 4, 5, "x^4*y + y^4*z + z^4*u + u^4*x")},
            light),
        Candidate("chain_4", {"chain_4.json": model_dict(
            ["x", "y", "z", "u"], [20, 21, 18, 27], 81,
            "x^3*y + y^3*z + z^3*u + u^3")}, light),
    ]
    return [Slot(dwork, 1), Slot(quintic_def, 1), Slot(fourfold, 1),
            Slot(z8, 1), Slot(fixed)]


def _linear_pair(rng, a, b):
    """tau, sigma: independent linear forms in a, b; tau sometimes gets a
    quadratic correction, so the potential is not always homogeneous."""
    while True:
        c = [rng.randint(-3, 3) for _ in range(4)]
        if c[0] * c[3] - c[1] * c[2]:
            break
    tau = f"{c[0]}*{a} + {c[1]}*{b}"
    if rng.random() < 0.4:
        tau += f" + {rng.randint(1, 2)}*{a}^2"
    return tau, f"{c[2]}*{a} + {c[3]}*{b}"


def _koszul_pool(rank, size=8):
    """Rank-r Koszul data on min(r+1, 3) variables, pairs cycling over
    adjacent variables; a fixed pool seed keeps the pool itself fixed."""
    names = ("x", "y", "z")[:min(rank + 1, 3)]
    rng = random.Random(f"koszul-pool-{rank}")
    out = []
    for i in range(size):
        tau, sigma = [], []
        for k in range(rank):
            t, s = _linear_pair(rng, names[k % len(names)],
                                names[(k + 1) % len(names)])
            tau.append(t)
            sigma.append(s)
        name = f"koszul_r{rank}_{i}"
        block = {"variables": list(names), "tau": tau, "sigma": sigma}
        out.append(Candidate(name, {f"{name}.json": {"koszul": block}},
                             ("chern",), is_model=False,
                             detail=f"tau={tau} sigma={sigma}"))
    return out


def _scaled(model: dict, factor: int) -> dict:
    """The same theory with (r_charges, chi, d_w) scaled by factor."""
    out = dict(model)
    out["r_charges"] = [c * factor for c in model["r_charges"]]
    out["torus_weights"] = [[c * factor for c in row] for row in model["torus_weights"]]
    out["chi"] = [c * factor for c in model["chi"]]
    out["d_w"] = model["d_w"] * factor
    return out


def _kunneth_pool():
    out = []
    for n1, m1 in small_corpus("a"):
        for n2, m2 in small_corpus("b"):
            if n1 == n2:
                continue
            d = lcm(m1["d_w"], m2["d_w"])
            name = f"kunneth_{n1}_{n2}"
            main = _scaled(m1, d // m1["d_w"])
            main["kunneth"] = {"other_model": f"{name}_other.json"}
            other = _scaled(m2, d // m2["d_w"])
            out.append(Candidate(name, {f"{name}.json": main,
                                        f"{name}_other.json": other},
                                 ("kunneth",), detail=f"{n1} + {n2}"))
    return out


def _cohft_slots():
    # E8's verify-cohft takes 2.7 s, longer than the rest of a pass; with it
    # a run times each job only three or four times, too few to see past
    # the host's swings in speed.  E8 keeps its unit job.
    models = [Candidate(n, {f"{n}.json": m},
                        ("unit",) if n == "E8" else ("verify-cohft", "unit"))
              for n, m in corpus()]
    slots = [Slot(models)]
    slots += [Slot(_koszul_pool(r), 2) for r in (1, 2, 3, 4)]
    slots.append(Slot(_kunneth_pool(), 4))
    return slots


def _simplicial_slots():
    chain3 = {"simplicial": {"poset": {
        "name": "chain3",
        "points": ["a", "b", "c"],
        "order_pairs": [["a", "b"], ["b", "c"]],
        "stalk_dims": [1, 1, 1],
        "restriction_matrices": [
            {"from": "a", "to": "b", "matrix": [[1]]},
            {"from": "b", "to": "c", "matrix": [[1]]},
        ],
    }}}
    # Level 2 keeps a pass near a second, so each job is timed in many
    # passes of a run; at the default level 3 a pass takes 4-8 s.
    level = ("--level-bound", "2")
    return [Slot([
        Candidate("builtin_posets", {"builtin_posets.json": {}},
                  ("simplicial-demo",), is_model=False, args=level),
        Candidate("chain3", {"chain3.json": chain3},
                  ("simplicial-demo",), is_model=False, args=level),
    ])]


_SLOTS = {
    "fermat": _fermat_slots,
    "deformed": _deformed_slots,
    "cohft": _cohft_slots,
    "simplicial": _simplicial_slots,
}


def all_candidates(workload: str) -> list[Candidate]:
    """Every candidate a seed could draw: what the golden file covers."""
    return [c for slot in _SLOTS[workload]() for c in slot.pool]


def encode(obj) -> bytes:
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()


def build(workload: str, seed: int, accepted) -> Inputs:
    """The configs and the ordered job list of one run.

    ``accepted(name)`` says whether a candidate passed ``validate`` and
    the isolated-singularity check when the golden file was recorded.
    """
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs()
    for slot in _SLOTS[workload]():
        if slot.count is None:
            chosen = list(slot.pool)
        else:
            if sum(accepted(c.name) for c in slot.pool) < slot.count:
                raise ValueError(f"{workload}: too few accepted candidates")
            chosen = []
            while len(chosen) < slot.count:
                cand = rng.choice(slot.pool)
                if cand in chosen:
                    continue
                if not accepted(cand.name):
                    inputs.log.append(f"redraw: {cand.name} ({cand.detail}) "
                                      "was rejected when recorded")
                    continue
                chosen.append(cand)
        for cand in chosen:
            inputs.candidates.append(cand)
            for fname, obj in cand.files.items():
                inputs.files[fname] = encode(obj)
            inputs.jobs.extend(cand.jobs())
    rng.shuffle(inputs.jobs)
    return inputs
