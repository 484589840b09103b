"""Command-line front end: config ingestion, dispatch, reports.

Every verb writes a JSON report (sorted keys, no timestamps, so output is
byte-for-byte deterministic) plus a short text summary on stdout.  Exit
code 1 signals a precondition failure surfaced from a library module;
exit code 2 signals a malformed config.  The environment variable
LGCK_SEED only affects randomized test corpora, never reported values.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exactalg import MultiPoly
from .glsm import GlsmModel, check_dagger, semistable_locus, validate
from .matfact import chern_char, koszul, splitting_degree_check, todd_chern, unit_class
from .orbifold import GroupElement, inertia_sectors
from .simplicial import (
    FinitePosetSheaf,
    PosetConfigError,
    de_rham_triangle_check,
    godement,
    order_complex_cohomology,
)
from .statespace import CONVENTIONS, StateSpace, kunneth_sum
from .cohft import narrow_sector_data, run_all_checks, virdim

VERBS = (
    "validate", "phases", "sectors", "state-space", "pairing", "unit",
    "chern", "virdim", "verify-cohft", "simplicial-demo", "kunneth",
)


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return config


def _model_from_config(config: dict) -> GlsmModel:
    try:
        return GlsmModel.from_dict(config)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"malformed model config: {exc}") from exc


def _parse_character(config: dict, spec_text: str | None, model: GlsmModel):
    if spec_text is None:
        return model.nu
    named = config.get("characters", {})
    if spec_text in named:
        return [Fraction(str(x)) for x in named[spec_text]]
    try:
        return [Fraction(piece) for piece in spec_text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse character {spec_text!r}") from exc


def _emit(report: dict, summary: str, output: str | None) -> None:
    report.setdefault("conventions", CONVENTIONS)  # reports are self-describing
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary)


def _cmd_validate(args, config):
    model = _model_from_config(config)
    rep = validate(model, require_tail_regime=bool(config.get("tail_regime")))
    report = {"command": "validate", "checks": rep.to_jsonable(),
              "passed": rep.passed}
    _emit(report, f"validate: {'ok' if rep.passed else 'FAILED'}", args.output)
    return 0 if rep.passed else 1


def _cmd_phases(args, config):
    model = _model_from_config(config)
    character = _parse_character(config, args.character, model)
    phase = semistable_locus(model, character)
    dagger = check_dagger(model)
    report = {
        "command": "phases",
        "phase": phase.to_jsonable(model.variables),
        "dagger": dagger.to_jsonable(model.variables),
    }
    _emit(report, phase.description, args.output)
    return 0


def _cmd_sectors(args, config):
    model = _model_from_config(config)
    sectors = inertia_sectors(model, args.group_order_bound)
    report = {
        "command": "sectors",
        "count": len(sectors),
        "sectors": [s.to_jsonable(model.variables) for s in sectors],
    }
    _emit(report, f"{len(sectors)} sectors", args.output)
    return 0


def _cmd_state_space(args, config):
    model = _model_from_config(config)
    state = StateSpace(model, args.group_order_bound)
    body = state.to_jsonable()
    body["command"] = "state-space"
    dims = [s["dimension"] for s in body["sectors"]]
    _emit(body, f"state space: sector dims {dims}, total {state.total_dimension()}",
          args.output)
    return 0


def _cmd_pairing(args, config):
    model = _model_from_config(config)
    state = StateSpace(model, args.group_order_bound)
    sectors = []
    for sec in state.sectors:
        sectors.append({
            "sector": [str(p) for p in sec.element.phases],
            "gram": state.gram_strings(sec.element.phases),
            "nonsingular": state.gram_nonsingular(sec.element.phases),
        })
    report = {"command": "pairing", "conventions": CONVENTIONS, "sectors": sectors}
    ok = all(s["nonsingular"] for s in sectors)
    _emit(report, f"pairing: {'nondegenerate on all sectors' if ok else 'DEGENERATE'}",
          args.output)
    return 0 if ok else 1


def _cmd_unit(args, config):
    model = _model_from_config(config)
    u = unit_class(model)
    report = {"command": "unit", "conventions": CONVENTIONS,
              "unit": u.to_jsonable()}
    _emit(report, f"unit in sector {u.to_jsonable()['sector']} (degree {u.degree})",
          args.output)
    return 0


def _cmd_chern(args, config):
    data = config.get("koszul")
    if not data:
        raise ConfigError("chern needs a 'koszul': {variables, tau, sigma} block")
    try:
        variables = tuple(data["variables"])
        tau = [MultiPoly.parse(t, variables) for t in data["tau"]]
        sigma = [MultiPoly.parse(s, variables) for s in data["sigma"]]
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed koszul block: {exc}") from exc
    fact = koszul(tau, sigma)
    ch = chern_char(fact)
    td = todd_chern(fact)
    report = {
        "command": "chern",
        "conventions": CONVENTIONS,
        "factorization": fact.to_jsonable(),
        "chern": ch.to_jsonable(),
        "todd_chern": td.to_jsonable(),
        "splitting_degree_ok": splitting_degree_check(fact),
    }
    _emit(report, f"chern: {ch}", args.output)
    return 0


def _cmd_virdim(args, config):
    model = _model_from_config(config)
    block = config.get("virdim")
    if not block:
        raise ConfigError("virdim needs a 'virdim': {g, r, d_pairing, insertions} block")
    try:
        g = int(block["g"])
        insertions = [GroupElement([Fraction(str(p)) for p in ins])
                      for ins in block["insertions"]]
        r = int(block.get("r", len(insertions)))
        d_pairing = Fraction(str(block.get("d_pairing", 0)))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed virdim block: {exc}") from exc
    value = virdim(model, g, r, d_pairing, insertions)
    report = {"command": "virdim", "g": g, "r": r,
              "d_pairing": str(d_pairing), "value": str(value)}
    _emit(report, f"virdim = {value}", args.output)
    return 0


def _cmd_verify_cohft(args, config):
    model = _model_from_config(config)
    state = StateSpace(model, args.group_order_bound)
    block = config.get("cohft", {})
    if "tables" in block:
        from .cohft import cohft_data_from_jsonable, paired_basis_from_state
        basis = paired_basis_from_state(
            state, narrow_only=block.get("basis", "narrow") == "narrow")
        try:
            data = cohft_data_from_jsonable(basis, block["tables"])
        except (KeyError, ValueError, IndexError) as exc:
            raise ConfigError(f"malformed cohft tables: {exc}") from exc
    else:
        data = narrow_sector_data(model, state)
    results = run_all_checks(data)
    counts = {name: [len(entries), sum(1 for e in entries if not e["pass"])]
              for name, entries in results.items() if isinstance(entries, list)}
    report = {
        "command": "verify-cohft",
        "all_pass": results["all_pass"],
        "counts": {k: {"checked": v[0], "failed": v[1]} for k, v in counts.items()},
        "entries": {name: entries for name, entries in results.items()
                    if isinstance(entries, list)},
        "failures": [e for entries in results.values() if isinstance(entries, list)
                     for e in entries if not e["pass"]],
    }
    _emit(report, f"cohft axioms: {'all pass' if results['all_pass'] else 'FAILURES'}",
          args.output)
    return 0 if results["all_pass"] else 1


def _builtin_posets():
    return {
        "point": FinitePosetSheaf(["pt"], [], [1], {}),
        "sierpinski": FinitePosetSheaf(
            ["closed", "open"], [("closed", "open")], [1, 1],
            {("closed", "open"): [[1]]}),
        "vee": FinitePosetSheaf(
            ["a", "b", "top"], [("a", "top"), ("b", "top")], [1, 1, 1],
            {("a", "top"): [[1]], ("b", "top"): [[1]]}),
        "circle": FinitePosetSheaf(
            ["a", "b", "c", "d"],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
            [1, 1, 1, 1],
            {("a", "c"): [[1]], ("a", "d"): [[1]],
             ("b", "c"): [[1]], ("b", "d"): [[1]]}),
    }


def _cmd_simplicial_demo(args, config):
    block = config.get("simplicial", {})
    if "poset" in block:
        try:
            sheaf = FinitePosetSheaf.from_dict(block["poset"])
        except PosetConfigError as exc:
            raise ConfigError(f"malformed simplicial.poset.{exc}") from exc
        sheaves = {block["poset"].get("name", "custom"): sheaf}
    else:
        sheaves = _builtin_posets()
    levels = min(args.level_bound, 3)
    degree_bound = max(args.degree_bound, levels)
    out = {}
    ok = True
    for name, sheaf in sorted(sheaves.items()):
        resolution = godement(sheaf, levels)
        oracle = order_complex_cohomology(sheaf, levels - 1) \
            if sheaf.is_unit_stalked() and all(d == 1 for d in sheaf.stalk_dims) \
            else None
        rep = de_rham_triangle_check(resolution, oracle_ranks=oracle,
                                     degree_bound=degree_bound)
        flasque = [resolution.flasque(n) for n in range(levels + 1)]
        out[name] = {
            "level_bound": levels,
            "degree_bound": degree_bound,
            "godement_dims": resolution.module.dims,
            "flasque": flasque,
            "triangle": rep.to_jsonable(),
        }
        ok = ok and rep.passed and all(flasque)
    report = {"command": "simplicial-demo", "posets": out}
    _emit(report, f"simplicial demo: {'all checks pass' if ok else 'FAILURES'}",
          args.output)
    return 0 if ok else 1


def _cmd_kunneth(args, config):
    block = config.get("kunneth")
    if not block or "other_model" not in block:
        raise ConfigError("kunneth needs a 'kunneth': {other_model: path} block")
    model1 = _model_from_config(config)
    model2 = _model_from_config(_load_config(block["other_model"]))
    combined, state, witness = kunneth_sum(model1, model2)
    report = {
        "command": "kunneth",
        "sum_model": combined.to_dict(),
        "total_dimension": state.total_dimension(),
        "pairs": witness.to_jsonable(),
    }
    _emit(report, f"kunneth: total dim {state.total_dimension()} over "
                  f"{len(witness.pairs)} sector pairs", args.output)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "phases": _cmd_phases,
    "sectors": _cmd_sectors,
    "state-space": _cmd_state_space,
    "pairing": _cmd_pairing,
    "unit": _cmd_unit,
    "chern": _cmd_chern,
    "virdim": _cmd_virdim,
    "verify-cohft": _cmd_verify_cohft,
    "simplicial-demo": _cmd_simplicial_demo,
    "kunneth": _cmd_kunneth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgck",
        description="exact Landau-Ginzburg state spaces, factorization "
                    "Chern characters, and CohFT axiom checks",
    )
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("config", help="model/config JSON path")
    parser.add_argument("--output", help="write the JSON report here")
    parser.add_argument("--character",
                        help="character for 'phases': a name from the config's "
                             "'characters' table or comma-separated rationals")
    parser.add_argument("--level-bound", type=int, default=3)
    parser.add_argument("--degree-bound", type=int, default=6)
    parser.add_argument("--group-order-bound", type=int, default=10 ** 6)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in (("level-bound", args.level_bound),
                        ("degree-bound", args.degree_bound),
                        ("group-order-bound", args.group_order_bound)):
        if value <= 0:
            print(f"error: --{name} must be positive", file=sys.stderr)
            return 2
    try:
        config = _load_config(args.config)
        return _HANDLERS[args.verb](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
