"""Command-line front end: config ingestion, dispatch, reports.

Every verb writes a JSON report (sorted keys, no timestamps, so output is
byte-for-byte deterministic) plus a short text summary on stdout.  A verb's
handler returns ``(report, summary, passed)``; ``main`` alone stamps the
report's ``command`` and ``conventions``, writes it, prints the summary and
turns ``passed`` into the exit code (0, or 1 for a failed check).  Exit
code 1 also signals a precondition failure surfaced from a library module;
exit code 2 signals a malformed config.  The environment variable
LGCK_SEED only affects randomized test corpora, never reported values.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .config import (
    CHARACTERS, COHFT, KOSZUL, KUNNETH, SIMPLICIAL, VIRDIM, ConfigError, boolean,
    rationals, read_field,
)
from .glsm import ConeTester, GlsmModel, check_dagger, semistable_locus, validate
from .matfact import (MAX_KOSZUL_RANK, chern_char, koszul, splitting_degree_check,
                      todd_chern, unit_class)
from .orbifold import DEFAULT_GROUP_BOUND, DiagonalGroup, inertia_sectors
from .simplicial import (
    FinitePosetSheaf,
    de_rham_triangle_check,
    godement,
    order_complex_cohomology,
)
from .statespace import CONVENTIONS, GramBlock, StateSpace, kunneth_sum
from .cohft import (cohft_data_from_jsonable, narrow_sector_data, paired_basis_from_state,
                    run_all_checks, virdim)

# simplicial-demo is sized for Godement levels up to 3, where a discrete poset
# of MAX_POSET_POINTS points takes about a second; a deeper level is refused.
MAX_LEVEL_BOUND = 3


def _load_config(path: str, field: str = "config"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(field, f"cannot read {path}: {exc}") from exc


def _parse_character(config: dict, spec_text: str | None, model: GlsmModel):
    if spec_text is None:
        return model.nu
    named = read_field(config, "characters", CHARACTERS, {})
    if spec_text in named:
        field, character = f"characters.{spec_text}", named[spec_text]
    elif spec_text.isidentifier():
        raise ConfigError("characters", f"has no character named {spec_text!r}")
    else:
        field = "--character"
        character = read_field({field: spec_text.split(",")}, field, rationals)
    if model.torus_rank and len(character) != model.torus_rank:
        raise ConfigError(field, f"expected {model.torus_rank} rationals, one per torus "
                                 f"factor, got {len(character)}")
    return character


def _validation(config):
    """The config's model and its ``validate`` report, honouring ``tail_regime``."""
    model = GlsmModel.from_dict(config)
    return model, validate(model, read_field(config, "tail_regime", boolean, False))


def _valid_model(config) -> GlsmModel:
    """The config's model; a model that fails ``validate`` is refused before
    anything is computed on it, naming the first failed check."""
    model, rep = _validation(config)
    for c in rep.checks:
        if not c.passed:
            raise ValueError(f"model fails validate check {c.name}"
                             + (f": {c.detail}" if c.detail else ""))
    return model


def _cmd_validate(args, config):
    _, rep = _validation(config)
    return ({"checks": rep.to_jsonable(), "passed": rep.passed},
            f"validate: {'ok' if rep.passed else 'FAILED'}", rep.passed)


def _cmd_phases(args, config):
    model = _valid_model(config)
    character = _parse_character(config, args.character, model)
    tester = ConeTester(model, character)  # one LP memo when the character is nu
    phase = semistable_locus(model, character, tester)
    report = {
        "phase": phase.to_jsonable(model.variables),
        "dagger": check_dagger(model, tester).to_jsonable(model.variables),
    }
    return report, phase.description, True


def _cmd_sectors(args, config):
    model = _valid_model(config)
    sectors = inertia_sectors(model, args.group_order_bound)
    report = {"count": len(sectors),
              "sectors": [s.to_jsonable(model.variables) for s in sectors]}
    return report, f"{len(sectors)} sectors", True


def _cmd_state_space(args, config):
    model = _valid_model(config)
    state = StateSpace(model, args.group_order_bound)
    body = state.to_jsonable()
    dims = [s["dimension"] for s in body["sectors"]]
    return body, f"state space: sector dims {dims}, total {state.total_dimension()}", True


def _cmd_pairing(args, config):
    model = _valid_model(config)
    state = StateSpace(model, args.group_order_bound)
    sectors = [{"sector": [str(p) for p in sec.element.phases],
                "gram": state.gram_block(sec.element.phases),
                "nonsingular": state.gram_nonsingular(sec.element.phases)}
               for sec in state.sectors]
    ok = all(s["nonsingular"] for s in sectors)
    return ({"sectors": sectors},
            f"pairing: {'nondegenerate on all sectors' if ok else 'DEGENERATE'}", ok)


def _cmd_unit(args, config):
    u = unit_class(_valid_model(config))
    return ({"unit": u.to_jsonable()},
            f"unit in sector {u.to_jsonable()['sector']} (degree {u.degree})", True)


def _cmd_chern(args, config):
    block = read_field(config, "koszul", KOSZUL)
    if len(block["tau"]) > MAX_KOSZUL_RANK:
        raise ConfigError("koszul.tau", f"more than {MAX_KOSZUL_RANK} entries, the Koszul "
                                        "rank budget")
    if len(block["sigma"]) != len(block["tau"]):
        raise ConfigError("koszul.sigma", f"expected {len(block['tau'])} entries, "
                                          "one per tau entry")
    fact = koszul(block["tau"], block["sigma"])
    ch = chern_char(fact)
    report = {
        "factorization": fact.to_jsonable(),
        "chern": ch.to_jsonable(),
        "todd_chern": todd_chern(ch, fact.koszul_rank).to_jsonable(),
        "splitting_degree_ok": splitting_degree_check(ch, fact.koszul_rank),
    }
    return report, f"chern: {ch}", True


def _cmd_virdim(args, config):
    model = _valid_model(config)
    block = read_field(config, "virdim", VIRDIM)
    insertions, n = block["insertions"], model.n_vars
    if any(len(ins) != n for ins in insertions):
        raise ConfigError("virdim.insertions", f"expected insertions of {n} rationals each, "
                                               "one per name in variables")
    group = DiagonalGroup.of(model)
    if bad := [k for k, ins in enumerate(insertions) if not group.contains(ins)]:
        raise ConfigError("virdim.insertions", f"insertion {bad[0]} is not in the model's group")
    g, r = block["g"], len(insertions) if block["r"] is None else block["r"]
    value = virdim(model, g, r, block["d_pairing"], insertions)
    report = {"g": g, "r": r, "d_pairing": str(block["d_pairing"]), "value": str(value)}
    return report, f"virdim = {value}", True


def _cmd_verify_cohft(args, config):
    model = _valid_model(config)
    block = read_field(config, "cohft", COHFT, {"tables": None})
    state = StateSpace(model, args.group_order_bound)
    if block["tables"] is None:
        data = narrow_sector_data(model, state)
    else:
        basis = paired_basis_from_state(state, narrow_only=block["basis"] == "narrow")
        data = cohft_data_from_jsonable(basis, block["tables"])
    results = run_all_checks(data)
    ok = results.pop("all_pass")
    report = {
        "all_pass": ok,
        "counts": {name: {"checked": len(entries),
                          "failed": sum(1 for e in entries if not e["pass"])}
                   for name, entries in results.items()},
        "entries": results,
        "failures": [e for entries in results.values() for e in entries if not e["pass"]],
    }
    return report, f"cohft axioms: {'all pass' if ok else 'FAILURES'}", ok


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
    poset = read_field(config, "simplicial", SIMPLICIAL, {"poset": None})["poset"]
    if poset is None:
        sheaves = _builtin_posets()
    else:
        sheaves = {poset.get("name", "custom"): FinitePosetSheaf.from_dict(poset)}
    levels = args.level_bound
    out = {}
    ok = True
    for name, sheaf in sorted(sheaves.items()):
        resolution = godement(sheaf, levels)
        oracle = order_complex_cohomology(sheaf, levels - 1) \
            if sheaf.is_unit_stalked() and all(d == 1 for d in sheaf.stalk_dims) \
            else None
        rep = de_rham_triangle_check(resolution, oracle_ranks=oracle)
        flasque = [resolution.flasque(n) for n in range(levels + 1)]
        out[name] = {
            "level_bound": levels,
            "degree_bound": 6,  # a fixed report entry; it bounds no computation
            "godement_dims": resolution.module.dims,
            "flasque": flasque,
            "triangle": rep.to_jsonable(),
        }
        ok = ok and rep.passed and all(flasque)
    return {"posets": out}, f"simplicial demo: {'all checks pass' if ok else 'FAILURES'}", ok


def _cmd_kunneth(args, config):
    path = read_field(config, "kunneth", KUNNETH)["other_model"]
    model1 = _valid_model(config)
    model2 = _valid_model(_load_config(path, "kunneth.other_model"))
    combined, state, witness = kunneth_sum(model1, model2)
    report = {
        "sum_model": combined.to_dict(),
        "total_dimension": state.total_dimension(),
        "pairs": witness.to_jsonable(),
    }
    return report, (f"kunneth: total dim {state.total_dimension()} over "
                    f"{len(witness.pairs)} sector pairs"), True


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


def _json_write(obj, write, indent: str = "") -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)``, nested at
    ``indent``, piece by piece; a ``GramBlock`` as its dense rows of entry
    strings.  Anything else but a string, int, bool, None, non-empty list or
    str-keyed dict is json's own text, re-indented (json escapes newlines)."""
    inner = indent + "  "
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, GramBlock) and obj.rows and obj.width:
        sep = ",\n" + inner + "  "
        zeros = '"0"' + sep  # str(Cyclo.zero()), then its separator
        for i, row in enumerate(obj.rows):
            col, parts = 0, [",\n" if i else "[\n", inner, "[\n", inner, "  "]
            for j, x in sorted(row.items()):
                parts += (zeros * (j - col), encode_basestring_ascii(str(x)), sep)
                col = j + 1
            parts.append(zeros * (obj.width - col))
            write("".join(parts)[:-len(sep)] + "\n" + inner + "]")
        write("\n" + indent + "]")
    elif isinstance(obj, GramBlock):
        _json_write([[]] * len(obj.rows), write, indent)
    elif isinstance(obj, (list, tuple)) and obj:
        for i, value in enumerate(obj):
            write(",\n" + inner if i else "[\n" + inner)
            _json_write(value, write, inner)
        write("\n" + indent + "]")
    elif isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        for i, (key, value) in enumerate(sorted(obj.items())):
            write((",\n" if i else "{\n") + inner + encode_basestring_ascii(key) + ": ")
            _json_write(value, write, inner)
        write("\n" + indent + "}")
    else:
        write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent))


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``: ``_json_write``'s pieces."""
    pieces: list[str] = []
    _json_write(obj, pieces.append)
    return "".join(pieces)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgck",
        description="exact Landau-Ginzburg state spaces, factorization "
                    "Chern characters, and CohFT axiom checks",
    )
    parser.add_argument("verb", choices=_HANDLERS)
    parser.add_argument("config", help="model/config JSON path")
    parser.add_argument("--output", help="write the JSON report here")
    parser.add_argument("--character",
                        help="character for 'phases': a name from the config's "
                             "'characters' table or comma-separated rationals")
    parser.add_argument("--level-bound", type=int, default=MAX_LEVEL_BOUND)
    parser.add_argument("--group-order-bound", type=int, default=DEFAULT_GROUP_BOUND)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, value in (("level-bound", args.level_bound),
                        ("group-order-bound", args.group_order_bound)):
        if value <= 0:
            print(f"error: --{name} must be positive", file=sys.stderr)
            return 2
    if args.level_bound > MAX_LEVEL_BOUND:
        print(f"error: --level-bound {args.level_bound} exceeds the bound "
              f"{MAX_LEVEL_BOUND}", file=sys.stderr)
        return 2
    try:
        report, summary, passed = _HANDLERS[args.verb](args, _load_config(args.config))
        report["command"] = args.verb
        report.setdefault("conventions", CONVENTIONS)  # reports are self-describing
        if args.output:  # written aside, so a failed write leaves no half report
            partial = args.output + ".partial"
            try:
                with open(partial, "w", encoding="utf-8") as fh:
                    _json_write(report, fh.write)
                    fh.write("\n")
                os.replace(partial, args.output)
            finally:
                if os.path.exists(partial):
                    os.remove(partial)
        else:
            print(_json_text(report))
        print(summary)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
