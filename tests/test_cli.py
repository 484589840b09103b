"""Command-line interface: dispatch, reports, determinism, exit codes."""

import json
import time
import tracemalloc
from enum import IntEnum
from fractions import Fraction

import pytest

from lgck import cli
from lgck.cli import _json_text, _json_write, build_parser, main
from lgck.exactalg import Cyclo
from lgck.glsm import GlsmModel
from lgck.statespace import GramBlock, StateSpace
from lgck.simplicial import (MAX_GODEMENT_DIM, MAX_POSET_POINTS, MAX_STALK_DIM,
                             GodementResolution)

from conftest import make_quintic_glsm, make_quintic_lg
from corpus import fermat_model


@pytest.fixture()
def quintic_config(tmp_path):
    path = tmp_path / "quintic.json"
    data = make_quintic_lg().to_dict()
    data["virdim"] = {
        "g": 0,
        "d_pairing": 0,
        "insertions": [["1/5"] * 5, ["1/5"] * 5, ["1/5"] * 5],
    }
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def glsm_config(tmp_path):
    path = tmp_path / "glsm.json"
    data = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1).to_dict()
    data["characters"] = {"nu_plus": [1, 0], "nu_minus": [-5, 1]}
    path.write_text(json.dumps(data))
    return path


def _run(args):
    return main([str(a) for a in args])


def test_validate_ok(quintic_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _run(["validate", quintic_config, "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert "validate: ok" in capsys.readouterr().out


def test_validate_broken_exits_1(tmp_path, capsys):
    bad = make_quintic_lg().to_dict()
    bad["potential"] = "x1^5 + x2^3"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    assert _run(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "quasi_homogeneous" in out  # the failing check is named


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert _run(["validate", path]) == 2
    path2 = tmp_path / "missing_keys.json"
    path2.write_text(json.dumps({"variables": ["x"]}))
    assert _run(["validate", path2]) == 2


def test_state_space_report(quintic_config, tmp_path, capsys):
    out = tmp_path / "ss.json"
    assert _run(["state-space", quintic_config, "--output", out]) == 0
    report = json.loads(out.read_text())
    dims = sorted(s["dimension"] for s in report["sectors"])
    assert dims == [1, 1, 1, 1, 204]
    assert report["degree_histogram"] == \
        {"0": 1, "2": 1, "3": 204, "4": 1, "6": 1}
    assert "conventions" in report


def test_phases_with_named_characters(glsm_config, tmp_path, capsys):
    out1 = tmp_path / "plus.json"
    assert _run(["phases", glsm_config, "--character", "nu_plus",
                 "--output", out1]) == 0
    plus = json.loads(out1.read_text())
    assert plus["phase"]["description"] == \
        "V^ss = complement of {x1 = x2 = x3 = x4 = x5 = 0}"
    out2 = tmp_path / "minus.json"
    assert _run(["phases", glsm_config, "--character", "nu_minus",
                 "--output", out2]) == 0
    minus = json.loads(out2.read_text())
    assert minus["phase"]["description"] == "V^ss = complement of {x6 = 0}"


@pytest.mark.parametrize("characters, spec, field", [
    (None, "1/0,1", "--character"),
    (None, "1", "--character"),
    ({"bad": ["1/0", 1]}, "bad", "characters.bad"),
    ({"bad": ["x", 1]}, "bad", "characters.bad"),
    ({"bad": [1]}, "bad", "characters.bad"),
    (5, "nu_plus", "characters"),
], ids=["divides_by_zero", "wrong_length", "named_divides_by_zero", "named_not_rational",
        "named_wrong_length", "table_not_object"])
def test_malformed_character_exits_2(glsm_config, tmp_path, capsys, characters, spec, field):
    """A character that is not one rational per torus factor is refused
    with its source named; it is neither a traceback nor exit 1."""
    config = json.loads(glsm_config.read_text())
    if characters is not None:
        config["characters"] = characters
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(config))
    assert _run(["phases", path, "--character", spec]) == 2
    assert f"malformed {field}:" in capsys.readouterr().err


def test_sectors_and_pairing(quintic_config, tmp_path):
    out = tmp_path / "sec.json"
    assert _run(["sectors", quintic_config, "--output", out]) == 0
    assert json.loads(out.read_text())["count"] == 5
    out2 = tmp_path / "pairing.json"
    assert _run(["pairing", quintic_config, "--output", out2]) == 0
    rep = json.loads(out2.read_text())
    assert all(s["nonsingular"] for s in rep["sectors"])


def test_unit_and_virdim(quintic_config, tmp_path):
    out = tmp_path / "unit.json"
    assert _run(["unit", quintic_config, "--output", out]) == 0
    unit = json.loads(out.read_text())["unit"]
    assert unit["degree"] == "0"
    assert unit["route"] == "narrow generator"
    out2 = tmp_path / "vd.json"
    assert _run(["virdim", quintic_config, "--output", out2]) == 0
    assert json.loads(out2.read_text())["value"] == "3"


@pytest.mark.parametrize("insertions, detail", [
    ([["1/5"]], "rationals each"), (5, ""), ([["1/5"] * 5, 7], ""), ([["1/0"] * 5], ""),
    ([["1/7"] * 5], "insertion 0 is not in"),
    ([["1/5"] * 5, ["1/3", 0, 0, 0, 0]], "insertion 1 is not in"),
], ids=["short_insertion", "not_a_list", "insertion_not_a_list", "divides_by_zero",
        "outside_the_group", "second_outside_the_group"])
def test_malformed_virdim_insertions_exit_2(quintic_config, tmp_path, capsys, insertions,
                                           detail):
    """Each insertion is one rational phase per variable, and an element of
    the group; anything else is refused with the field named, not read as a
    shorter element or given a virtual dimension."""
    config = json.loads(quintic_config.read_text())
    config["virdim"]["insertions"] = insertions
    path = tmp_path / "virdim.json"
    path.write_text(json.dumps(config))
    assert _run(["virdim", path, "--output", tmp_path / "vd.json"]) == 2
    err = capsys.readouterr().err
    assert "virdim.insertions:" in err and detail in err


@pytest.mark.parametrize("field,value", [("g", 0.9), ("g", True), ("g", -1),
                                         ("r", 2.7), ("r", -3)],
                         ids=["g_float", "g_bool", "g_negative", "r_float", "r_negative"])
def test_malformed_virdim_genus_or_points_exit_2(quintic_config, tmp_path, capsys,
                                                 field, value):
    """The genus and the number of marked points are non-negative integers;
    a float is not truncated and a bool is not read as 0 or 1."""
    config = json.loads(quintic_config.read_text())
    config["virdim"][field] = value
    path = tmp_path / "virdim.json"
    path.write_text(json.dumps(config))
    assert _run(["virdim", path, "--output", tmp_path / "vd.json"]) == 2
    assert f"virdim.{field}:" in capsys.readouterr().err


def test_chern_verb(tmp_path):
    cfg = tmp_path / "koszul.json"
    cfg.write_text(json.dumps({
        "koszul": {"variables": ["x", "y"], "tau": ["y"], "sigma": ["x"]},
    }))
    out = tmp_path / "chern.json"
    assert _run(["chern", cfg, "--output", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["chern"]["class"] == "-1"
    assert rep["chern"]["twist"] == 1
    assert rep["todd_chern"]["twist"] == 2
    assert rep["splitting_degree_ok"]


def _koszul_block(**changes):
    block = {"variables": ["x", "y"], "tau": ["y"], "sigma": ["x"]}
    block.update(changes)
    return block


@pytest.mark.parametrize("block, field", [
    ([1, 2], "koszul"),
    (_koszul_block(tau=[5]), "koszul.tau"),
    (_koszul_block(variables="xy"), "koszul.variables"),
    (_koszul_block(tau=["y", "x"]), "koszul.sigma"),
    (_koszul_block(variables=["x", "x"], tau=["x"]), "koszul.variables"),
], ids=["not_object", "tau_not_string", "variables_not_list", "sigma_length",
        "repeated_variable"])
def test_malformed_koszul_exits_2(tmp_path, capsys, block, field):
    """Each malformed field of the chern config exits 2 naming it."""
    path = tmp_path / "koszul.json"
    path.write_text(json.dumps({"koszul": block}))
    assert _run(["chern", path]) == 2
    assert f"malformed {field}:" in capsys.readouterr().err


def test_verify_cohft_verb(quintic_config, tmp_path):
    out = tmp_path / "cohft.json"
    assert _run(["verify-cohft", quintic_config, "--output", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["all_pass"] and rep["failures"] == []


def test_simplicial_demo_verb(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    out = tmp_path / "simp.json"
    assert _run(["simplicial-demo", cfg, "--output", out,
                 "--level-bound", "2"]) == 0
    rep = json.loads(out.read_text())
    assert set(rep["posets"]) == {"point", "sierpinski", "vee", "circle"}
    assert all(v["triangle"]["passed"] for v in rep["posets"].values())


def test_kunneth_verb(tmp_path):
    from corpus import fermat_model
    m1 = fermat_model([3], prefix="x").to_dict()
    m2 = fermat_model([3], prefix="y").to_dict()
    p2 = tmp_path / "other.json"
    p2.write_text(json.dumps(m2))
    m1["kunneth"] = {"other_model": str(p2)}
    p1 = tmp_path / "main.json"
    p1.write_text(json.dumps(m1))
    out = tmp_path / "kun.json"
    assert _run(["kunneth", p1, "--output", out]) == 0
    rep = json.loads(out.read_text())
    for entry in rep["pairs"]:
        assert entry["dim_sum"] == entry["dim_1"] * entry["dim_2"]


@pytest.mark.parametrize("block, field", [
    ("other_model", "kunneth"),
    ({"other_model": ["a"]}, "kunneth.other_model"),
    ({"other_model": 0}, "kunneth.other_model"),
    ({"other_model": 7}, "kunneth.other_model"),
    ({"other_model": True}, "kunneth.other_model"),
], ids=["block_not_object", "path_list", "path_zero", "path_seven", "path_true"])
def test_malformed_kunneth_exits_2(tmp_path, capsys, block, field):
    """A kunneth block that is not an object, or a path that is not a
    string, is refused with the field named; an integer is never opened as
    a file descriptor."""
    from corpus import fermat_model
    config = fermat_model([3], prefix="x").to_dict()
    config["kunneth"] = block
    path = tmp_path / "main.json"
    path.write_text(json.dumps(config))
    assert _run(["kunneth", path]) == 2
    assert f"malformed {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("d_w", 5.5),
    ("r_charges", "11111"),
    ("chi", "5"),
    ("variables", "x1x2x3x4x5"),
    ("r_charges", [1, 1, 1, 1, 0.5]),
    ("torus_weights", [[1, 1, 1, 1, True]]),
    ("nu", ["1/0"]),
], ids=["d_w_float", "r_charges_string", "chi_string", "variables_string",
        "r_charge_float", "torus_weight_bool", "nu_divides_by_zero"])
def test_mistyped_model_field_exits_2(tmp_path, capsys, field, value):
    """A model field of the wrong type is refused with its name, not read
    as an integer part, a character string or a binary fraction."""
    config = make_quintic_lg().to_dict()
    config[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    assert _run(["state-space", path]) == 2
    assert f"malformed model config: {field}" in capsys.readouterr().err


def test_determinism_byte_for_byte(quintic_config, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["state-space", quintic_config, "--output", out1]) == 0
    assert _run(["state-space", quintic_config, "--output", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("verb", ["state-space", "pairing"])
def test_stdout_report_is_the_output_report(quintic_config, tmp_path, capsys, verb):
    """Without --output a verb prints the bytes it writes with --output,
    then the same summary line."""
    assert _run([verb, quintic_config]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert _run([verb, quintic_config, "--output", out]) == 0
    assert printed == out.read_text() + capsys.readouterr().out


def test_report_is_streamed_to_output(tmp_path, monkeypatch):
    """Writing the 8^4 state-space report (1.3 MB, nearly all Gram zeros)
    takes less than half its size in memory: no whole text is built."""
    path = tmp_path / "fermat_8_4.json"
    path.write_text(json.dumps(fermat_model([8] * 4).to_dict()))
    built = StateSpace.to_jsonable
    start = []

    def to_jsonable(self):  # the report is complete: measure from here on
        report = built(self)
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return report

    monkeypatch.setattr(StateSpace, "to_jsonable", to_jsonable)
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert _run(["state-space", path, "--output", out]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start[0]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 10 ** 6
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("existing", [None, "an earlier report\n"])
def test_failed_write_leaves_output_untouched(quintic_config, tmp_path, monkeypatch, existing):
    """A report the writer cannot encode, after a first piece that it has
    written, leaves no new file, an earlier file unchanged, and no .partial."""
    monkeypatch.setitem(cli._HANDLERS, "validate",
                        lambda args, config: ({"a": "x" * 10 ** 5, "z": object()}, "", True))
    out = tmp_path / "report.json"
    if existing is not None:
        out.write_text(existing)
    with pytest.raises(TypeError):
        _run(["validate", quintic_config, "--output", out])
    assert (out.read_text() if out.exists() else None) == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(["quintic.json"] + (["report.json"] if existing else []))


@pytest.mark.parametrize("target", ["missing_dir/report.json", "a_dir"])
def test_unwritable_output_exits_2(quintic_config, tmp_path, capsys, target):
    """An --output in a missing directory, or naming a directory, is refused
    with exit 2 and a message naming --output; no .partial file is left."""
    (tmp_path / "a_dir").mkdir()
    assert _run(["validate", quintic_config, "--output", tmp_path / target]) == 2
    assert f"cannot write --output {tmp_path / target}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "quintic.json"]
    assert not any((tmp_path / "a_dir").iterdir())


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_bad_bounds_exit_2(quintic_config):
    assert _run(["state-space", quintic_config, "--group-order-bound", "0"]) == 2


def test_degree_bound_flag_is_gone(quintic_config):
    """--degree-bound bounded no computation and is no longer accepted."""
    with pytest.raises(SystemExit) as exc:
        _run(["state-space", quintic_config, "--degree-bound", "6"])
    assert exc.value.code == 2


def test_level_bound_above_3_exits_2(tmp_path, capsys):
    """A level bound the demo does not run is refused, not clamped to 3."""
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    assert _run(["simplicial-demo", cfg, "--level-bound", "99",
                 "--output", tmp_path / "simp.json"]) == 2
    assert "--level-bound 99 exceeds the bound 3" in capsys.readouterr().err


def test_state_space_rejects_zero_charges(tmp_path, capsys):
    """With every R-charge 0 the potential is not quasi-homogeneous, so the
    selection rule has no footing: the CLI refuses at validate (exit 1, the
    check named), and the library names the sector and the reason."""
    bad = make_quintic_lg().to_dict()
    bad["r_charges"] = [0] * 5
    path = tmp_path / "zero_charges.json"
    path.write_text(json.dumps(bad))
    assert _run(["validate", path]) == 1
    assert _run(["state-space", path]) == 1
    assert "quasi_homogeneous" in capsys.readouterr().err
    with pytest.raises(ValueError) as exc:
        StateSpace(GlsmModel.from_dict(bad))
    assert "sector (0,0,0,0,0)" in str(exc.value)
    assert "not quasi-homogeneous" in str(exc.value)


def test_non_string_potential_exits_2(tmp_path, capsys):
    bad = make_quintic_lg().to_dict()
    bad["potential"] = 5
    path = tmp_path / "int_potential.json"
    path.write_text(json.dumps(bad))
    assert _run(["state-space", path]) == 2
    assert "potential" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["z100000000", "z0"])
def test_cyclotomic_order_budget_exits_2(tmp_path, capsys, token):
    """An order outside 1..MAX_CYCLO_ORDER is refused before any cyclotomic
    polynomial is built, so the huge order cannot hang the parser."""
    bad = make_quintic_lg().to_dict()
    bad["potential"] += f" + {token}*x1^2*x2^3"
    path = tmp_path / "huge_order.json"
    path.write_text(json.dumps(bad))
    assert _run(["state-space", path]) == 2
    assert token in capsys.readouterr().err


def _two_point_poset(**changes):
    poset = {"points": ["a", "b"], "order_pairs": [["a", "b"]],
             "stalk_dims": [1, 1],
             "restriction_matrices": [{"from": "a", "to": "b", "matrix": [[1]]}]}
    poset.update(changes)
    return poset


def _restrictions(*items):
    return _two_point_poset(restriction_matrices=[
        {"from": a, "to": b, "matrix": m} for a, b, m in items])


@pytest.mark.parametrize("block, field", [
    ({"poset": _restrictions(("a", "b", [[None]]))}, "simplicial.poset.restriction_matrices"),
    ({"poset": _two_point_poset(order_pairs=[["a", "c"]])}, "simplicial.poset.order_pairs"),
    ({"poset": _two_point_poset(stalk_dims=[-1, 1])}, "simplicial.poset.stalk_dims"),
    ({"poset": _two_point_poset(stalk_dims=[1, 2])}, "simplicial.poset.restriction_matrices"),
    ({"poset": _two_point_poset(stalk_dims=[2, 1])}, "simplicial.poset.restriction_matrices"),
    ({"poset": {"points": [f"p{i}" for i in range(MAX_POSET_POINTS + 1)], "order_pairs": [],
                "stalk_dims": [1] * (MAX_POSET_POINTS + 1)}}, "simplicial.poset.points"),
    ({"poset": _restrictions(("a", "b", [[1]]), ("b", "a", [[1]]))},
     "simplicial.poset.restriction_matrices"),
    ({"poset": _restrictions(("a", "b", [[1]]), ("a", "a", [[0]]))},
     "simplicial.poset.restriction_matrices"),
    ({"poset": _restrictions(("a", "b", [[1]]), ("a", "b", [[2]]))},
     "simplicial.poset.restriction_matrices"),
    ("poset", "simplicial"),
    ({"poset": _two_point_poset(name=["a"])}, "simplicial.poset.name"),
    ({"poset": _two_point_poset(restriction_matrices=[
        {"from": "a", "to": "b", "matrix": [[1]], "matrx": [[5]]}])},
     "simplicial.poset.restriction_matrices"),
], ids=["null_entry", "unknown_point", "negative_dim", "wrong_shape", "wrong_width",
        "too_many_points", "unrelated_pair", "self_pair", "repeated_pair",
        "simplicial_not_object", "name_not_string", "extra_key_in_entry"])
def test_malformed_poset_exits_2(tmp_path, capsys, block, field):
    """A malformed simplicial block or custom poset is refused with the
    field named; it is neither a traceback nor a failed check."""
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"simplicial": block}))
    assert _run(["simplicial-demo", path, "--level-bound", "2"]) == 2
    err = capsys.readouterr().err
    assert f"malformed {field}:" in err and err.count("malformed") == 1


def test_custom_poset_still_checked(tmp_path, capsys):
    """A well-formed poset whose maps do not compose still fails its
    functoriality check (exit 1), and a good one passes."""
    bad = {"points": ["a", "b", "c"], "order_pairs": [["a", "b"], ["b", "c"]],
           "stalk_dims": [1, 1, 1],
           "restriction_matrices": [
               {"from": "a", "to": "b", "matrix": [[2]]},
               {"from": "b", "to": "c", "matrix": [[1]]},
               {"from": "a", "to": "c", "matrix": [[1]]}]}
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"simplicial": {"poset": bad}}))
    assert _run(["simplicial-demo", path, "--level-bound", "2"]) == 1
    assert "not functorial" in capsys.readouterr().err
    path.write_text(json.dumps({"simplicial": {"poset": _two_point_poset()}}))
    assert _run(["simplicial-demo", path, "--level-bound", "2"]) == 0


@pytest.mark.parametrize("points, dims, matrices, ranks", [
    (["a", "b"], [0, 1], {("a", "b"): [[]]}, [0, 0, 0]),
    (["a", "b"], [1, 0], {("a", "b"): []}, [1, 0, 0]),
    (["a", "k", "j"], [1, 0, 1], {("a", "k"): [], ("k", "j"): [[]]}, [1, 0, 0]),
], ids=["zero_then_one", "one_then_zero", "zero_in_the_middle"])
def test_zero_dimensional_stalks(tmp_path, points, dims, matrices, ranks):
    """A 0-dimensional stalk keeps every composite the right shape.  Each
    chain has a least point a, so the cohomology is the stalk at a in
    degree 0."""
    poset = {"points": points, "stalk_dims": dims,
             "order_pairs": [list(p) for p in zip(points, points[1:])],
             "restriction_matrices": [{"from": a, "to": b, "matrix": m}
                                      for (a, b), m in matrices.items()]}
    cfg, out = tmp_path / "poset.json", tmp_path / "simp.json"
    cfg.write_text(json.dumps({"simplicial": {"poset": poset}}))
    assert _run(["simplicial-demo", cfg, "--output", out, "--level-bound", "2"]) == 0
    triangle = json.loads(out.read_text())["posets"]["custom"]["triangle"]
    assert triangle["passed"] and triangle["cohomology_ranks"] == ranks


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    """JSON nested past the decoder's recursion limit is an unreadable
    config, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert _run(["validate", path]) == 2
    assert "malformed config: cannot read" in capsys.readouterr().err


def test_non_object_config_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert _run(["simplicial-demo", path]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def _points_budget_chain():
    """A chain of exactly MAX_POSET_POINTS points with identity maps."""
    names = [f"p{i}" for i in range(MAX_POSET_POINTS)]
    return {"points": names, "order_pairs": [list(p) for p in zip(names, names[1:])],
            "stalk_dims": [1] * len(names),
            "restriction_matrices": [{"from": a, "to": b, "matrix": [[1]]}
                                     for a, b in zip(names, names[1:])]}


def _simplicial_demo(tmp_path, poset, level):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"simplicial": {"poset": poset}}))
    return _run(["simplicial-demo", path, "--level-bound", str(level),
                 "--output", tmp_path / "out.json"])


def test_poset_at_points_budget_runs(tmp_path):
    """A chain of exactly MAX_POSET_POINTS points is accepted; beyond the
    bound is refused in test_malformed_poset_exits_2."""
    assert _simplicial_demo(tmp_path, _points_budget_chain(), 1) == 0


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 1)], ids=["at_bound", "above_bound"])
def test_godement_dim_budget(tmp_path, capsys, extra, code):
    """A top Godement level of MAX_GODEMENT_DIM dimensions runs; one more is
    refused with exit 1, naming the bound and the predicted dimension.  A
    discrete poset's level 1 is the product of its stalks."""
    full, rest = divmod(MAX_GODEMENT_DIM + extra, MAX_STALK_DIM)
    dims = [MAX_STALK_DIM] * full + [rest] * bool(rest)
    assert len(dims) <= MAX_POSET_POINTS
    poset = {"points": [f"p{i}" for i in range(len(dims))], "order_pairs": [],
             "stalk_dims": dims}
    assert _simplicial_demo(tmp_path, poset, 1) == code
    if code:
        assert (f"dimension {MAX_GODEMENT_DIM + 1}, above the budget MAX_GODEMENT_DIM = "
                f"{MAX_GODEMENT_DIM}") in capsys.readouterr().err


def test_chain_at_points_budget_refused_at_level_3(tmp_path, capsys, monkeypatch):
    """A chain of MAX_POSET_POINTS points passes the points bound, but its
    level 3 has one dimension per weak chain, C(13, 4) = 715 of them: it is
    refused before any structure map is built."""
    def built(*args):
        raise AssertionError("a structure map was built")

    monkeypatch.setattr(GodementResolution, "induced", built)
    assert _simplicial_demo(tmp_path, _points_budget_chain(), 3) == 1
    assert "Godement level 3 has dimension 715" in capsys.readouterr().err


def _quintic_tables(**changes):
    """Well-formed tables on the quintic's 4-dimensional narrow basis."""
    tables = {"unit": ["1", "0", "0", "0"], "shift_genus0": "-6",
              "omega03": [{"key": [0, 1, 2], "value": "1"}],
              "omega04": [{"key": [0, 1, 2, 3], "value": ["1", "0"]}],
              "omega11": [{"key": [0], "value": ["1", "0"]}]}
    tables.update(changes)
    return tables


@pytest.mark.parametrize("tables, field", [
    (_quintic_tables(omega03=[{"key": [99, 0, 0], "value": "1"}]), "omega03"),
    (_quintic_tables(omega03=[{"key": [0, 0], "value": "1"}]), "omega03"),
    (_quintic_tables(omega04=[{"key": [0, 0], "value": ["1", "0"]}]), "omega04"),
    (_quintic_tables(unit=5), "unit"),
    (_quintic_tables(omega03=[{"key": [-1, 0, 0], "value": "1"}]), "omega03"),
    (_quintic_tables(omega11=[{"key": [7], "value": ["1", "0"]}]), "omega11"),
    (_quintic_tables(omega03=[{"key": [0, 1, 2], "value": "q"}]), "omega03"),
    (_quintic_tables(omega03=[{"key": [0, 1, 2], "value": "1/0"}]), "omega03"),
    (_quintic_tables(boundary_pullbacks={"loop": "10"}), "boundary_pullbacks.loop"),
    (_quintic_tables(boundary_pullbacks={"forget": ["1", "0"]}), "boundary_pullbacks.forget"),
    (_quintic_tables(omega03=[{"key": [0, 1, 2], "value": "1"},
                              {"key": [0, 1, 2], "value": "7"}]), "omega03"),
    (_quintic_tables(omega03=[{"key": [0, 1, 2], "value": "1", "valeu": "7"}]), "omega03"),
], ids=["index_too_large", "omega03_short_key", "omega04_short_key", "unit_not_list",
        "negative_index", "omega11_index_too_large", "value_not_constant",
        "value_divides_by_zero", "pullback_not_pair", "unread_forget_pullback", "repeated_key",
        "extra_key_in_entry"])
def test_malformed_cohft_tables_exit_2(quintic_config, tmp_path, capsys, tables, field):
    """A malformed table field is refused with its name; it is neither a
    traceback nor a silently misread entry."""
    config = json.loads(quintic_config.read_text())
    config["cohft"] = {"tables": tables, "basis": "narrow"}
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(config))
    assert _run(["verify-cohft", path]) == 2
    err = capsys.readouterr().err
    assert f"cohft.tables.{field}:" in err and err.count("malformed") == 1


def test_cohft_block_not_object_exits_2(quintic_config, tmp_path, capsys):
    config = json.loads(quintic_config.read_text())
    config["cohft"] = {"tables": [1]}
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(config))
    assert _run(["verify-cohft", path]) == 2
    assert "malformed cohft" in capsys.readouterr().err


def _set(config, path, value):
    *parents, last = path.split(".")
    for key in parents:
        config = config[key]
    config[last] = value


@pytest.mark.parametrize("verb, path, value", [
    *[(verb, "potential", "1/0") for verb in ("validate", "sectors", "phases", "unit", "virdim")],
    ("validate", "variables", ["x", "x"]),
    ("sectors", "variables", ["x", "x"]),
    ("phases", "characters.plus", [1.5]),
    ("virdim", "virdim.insertions", [[0.2] * 5]),
    ("virdim", "virdim.d_pairing", 0.5),
    ("simplicial-demo", "simplicial.poset.restriction_matrices",
     [{"from": "a", "to": "b", "matrix": [[0.1]]}]),
    ("validate", "r_charges", ["1e400"] * 5),
    ("validate", "tail_regime", "false"),
    ("verify-cohft", "cohft.basis", 5),
], ids=lambda v: v if isinstance(v, str) else None)
def test_one_reader_refuses(tmp_path, capsys, verb, path, value):
    """Each field is read by one typed reader: a zero denominator, a repeated
    variable, a float or a decimal string where a rational belongs, a string
    where a boolean belongs and an unknown basis name each exit 2 naming the
    field."""
    config = make_quintic_lg().to_dict()
    config.update(characters={"plus": [1]}, tail_regime=False, cohft={"basis": "narrow"},
                  virdim={"g": 0, "d_pairing": 0, "insertions": [["1/5"] * 5]},
                  simplicial={"poset": _two_point_poset()})
    _set(config, path, value)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    args = ["--character", "plus"] if verb == "phases" else []
    assert _run([verb, cfg, "--output", tmp_path / "out.json", *args]) == 2
    where = f"model config: {path}" if path in ("potential", "variables", "r_charges") else path
    assert f"malformed {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at_bound", "above_bound"])
def test_stalk_dim_budget(tmp_path, capsys, extra, code):
    """A stalk of MAX_STALK_DIM dimensions runs; one more is refused before
    any d x d matrix is built."""
    poset = {"points": ["p"], "order_pairs": [], "stalk_dims": [MAX_STALK_DIM + extra]}
    cfg = tmp_path / "poset.json"
    cfg.write_text(json.dumps({"simplicial": {"poset": poset}}))
    assert _run(["simplicial-demo", cfg, "--level-bound", "1",
                 "--output", tmp_path / "out.json"]) == code
    if code:
        assert "malformed simplicial.poset.stalk_dims:" in capsys.readouterr().err


@pytest.mark.parametrize("change, verbs, check", [
    ({"finite_generators": [["1/1009", "0", "0", "0", "0"]]}, ["sectors", "state-space"],
     "finite_generator_0_invariance"),
    ({"d_w": 7}, ["sectors"], "quasi_homogeneous"),
], ids=["generator_not_a_symmetry", "wrong_d_w"])
def test_model_verbs_validate_first(tmp_path, capsys, change, verbs, check):
    """A model that validate rejects gets no report from a compute verb: exit 1
    naming the first failed check, before the group is enumerated."""
    config = make_quintic_lg().to_dict()
    config.update(change)
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(config))
    for verb in verbs:
        assert _run([verb, path, "--output", tmp_path / "out.json"]) == 1
        assert check in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("verb, path", [
    ("virdim", "virdim.d_pairing"),
    ("chern", "koszul.sigma"),
    ("verify-cohft", "cohft.basis"),
    ("verify-cohft", "cohft.tables.omega03"),
    ("simplicial-demo", "simplicial.poset"),
    ("simplicial-demo", "simplicial.poset.stalk_dims"),
    ("kunneth", "kunneth.other_model"),
], ids=lambda v: v.replace("-", "_"))
def test_unknown_key_in_block_exits_2(tmp_path, capsys, verb, path):
    """A key that a block does not list is a misspelling, not a default: the
    config that runs without it exits 2 with it, naming the block and the key.
    The top level stays open."""
    from test_cohft import _tables_jsonable
    from test_config_fuzz import base_config
    from lgck.cohft import narrow_sector_data
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**base_config(""), "variables": ["u", "v"],
                                 "potential": "u^3 + v^3"}))
    config = base_config(str(other))
    model = GlsmModel.from_dict(config)
    config["cohft"]["tables"] = _tables_jsonable(narrow_sector_data(model, StateSpace(model)))
    config["comment"] = "a top-level key that no verb reads"
    block, key = path.rsplit(".", 1)
    node = config
    for part in block.split("."):
        node = node[part]
    node[key + "x"] = node[key]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    args = ["--level-bound", "1"] if verb == "simplicial-demo" else []
    assert _run([verb, cfg, "--output", tmp_path / "out.json", *args]) == 2
    assert f"malformed {block}.{key}x: unknown field" in capsys.readouterr().err


def _koszul_rank(r):
    xs, ys = [f"x{i}" for i in range(r)], [f"y{i}" for i in range(r)]
    return {"variables": xs + ys, "tau": xs, "sigma": [f"{x}+{y}^2" for x, y in zip(xs, ys)]}


def test_wrong_milnor_number_refused(quintic_config, capsys, monkeypatch):
    """A staircase walk that counts one monomial short breaks mu = prod(1/q_i - 1)
    (Milnor-Orlik): the state space is refused with the check named."""
    from lgck.exactalg.groebner import PolyIdeal
    original = PolyIdeal.quotient_basis

    def short_walk(ideal, *args):
        basis = original(ideal, *args)
        ideal.dimension -= 1
        return basis

    monkeypatch.setattr(PolyIdeal, "quotient_basis", short_walk)
    assert _run(["state-space", quintic_config]) == 1
    assert "milnor_orlik check fails" in capsys.readouterr().err
    with pytest.raises(ValueError, match="milnor_orlik"):
        StateSpace(make_quintic_lg())


def test_koszul_rank_budget(tmp_path, capsys):
    """A Koszul factorization of rank MAX_KOSZUL_RANK runs; one of rank one
    more is refused before anything is computed."""
    from lgck.matfact import MAX_KOSZUL_RANK
    cfg = tmp_path / "koszul.json"
    for extra, code in ((0, 0), (1, 2)):
        cfg.write_text(json.dumps({"koszul": _koszul_rank(MAX_KOSZUL_RANK + extra)}))
        assert _run(["chern", cfg, "--output", tmp_path / "out.json"]) == code
    assert "malformed koszul.tau:" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"variables": ["x", "y"], "r_charges": [1, 1], "d_w": 2000,
     "potential": "x^2000 + y^2000", "finite_generators": [["1/2000", "0"]]},
    {"variables": ["x"], "r_charges": [1], "d_w": 10 ** 9, "potential": "x^1000000000"},
], ids=["order_4e6", "order_1e9"])
def test_oversized_group_refused_up_front(tmp_path, capsys, model):
    """A group above the bound is refused from its closed-form order, not
    after enumerating a million elements."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model))
    start = time.perf_counter()
    assert _run(["sectors", path]) == 1
    assert time.perf_counter() - start < 2
    assert "group order exceeds bound 1000000" in capsys.readouterr().err


pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


class _Level(IntEnum):
    LOW = 1
    HIGH = 10 ** 20


class _Tag(str):
    """A str subclass: the writer hands it to json, which writes its text."""


_scalars = (st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
            | st.text() | st.sampled_from(_Level) | st.text().map(_Tag))
_numeric_keys = st.integers(-5, 5) | st.floats(allow_nan=False) | st.booleans()
_json_values = st.recursive(_scalars, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(_numeric_keys, inner, max_size=3)
    | st.dictionaries(st.none(), inner, max_size=1)
    | st.dictionaries(st.text().map(_Tag), inner, max_size=2)
    # report entries: same-shape dicts in one list, a tuple nested in each
    | st.lists(st.fixed_dictionaries({"tuple": st.lists(inner, max_size=3).map(tuple),
                                      "lhs": inner, "axiom": st.text()}), max_size=4)),
    max_leaves=25)


_entries = (st.fractions().filter(bool)
            | st.builds(Cyclo.root_of_unity, st.integers(1, 12), st.integers(0, 11)))


@st.composite
def _gram_blocks(draw):
    width = draw(st.integers(0, 6))
    row = st.dictionaries(st.integers(0, width - 1), _entries) if width else st.just({})
    return GramBlock(draw(st.lists(row, max_size=5)), width)


def _dense(block):
    """A Gram block as json.dumps gets it: dense rows of entry strings."""
    zero = str(Cyclo.zero())
    return [[str(row[j]) if j in row else zero for j in range(block.width)]
            for row in block.rows]


_one, _half, _z = Cyclo.one(), Fraction(1, 2), Cyclo.root_of_unity(5, 2)


@settings(max_examples=300, deadline=None)
@given(_json_values, st.lists(_gram_blocks(), max_size=3))
@example(None, [GramBlock([], 0), GramBlock([], 3), GramBlock([{}, {}], 0)])
@example([], [GramBlock([{}, {}], 2), GramBlock([{0: _one, 1: _half, 2: _z}], 3)])
@example({}, [GramBlock([{2: _z}, {}, {1: -_half, 0: _z}], 3), GramBlock([{0: _half}], 1)])
@example([{"b": {"b": (1, _Level.LOW), "a": _Tag("t")}, "a": [True, None]},
          {"a": {"a": 2.5, "b": {}}, "b": ()}, {"b": 1, "a": {_Tag("a"): 0, "b": 1}}], [])
def test_report_writer_matches_json_dumps(obj, grams):
    """The report writer gives the bytes of json.dumps(indent=2,
    sort_keys=True): non-ASCII strings, int/float/bool/None keys and
    values, IntEnum and str-subclass values and keys, empty containers,
    tuples nested in dicts, lists of same-shape dicts and one dict shape at
    several depths; and Gram blocks at any depth as their dense rows of
    entry strings (width 0, no rows, all-zero rows, full rows, a nonzero in
    the last column)."""
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    for block in grams:
        assert _json_text(block) == json.dumps(_dense(block), indent=2)
    report = {"grams": grams, "value": obj, "nested": [{"gram": b, "n": 1} for b in grams]}
    dense = {"grams": [_dense(b) for b in grams], "value": obj,
             "nested": [{"gram": _dense(b), "n": 1} for b in grams]}
    assert _json_text(report) == json.dumps(dense, indent=2, sort_keys=True)


def test_report_writer_streams_pieces():
    """The writer hands over each run of scalars and each Gram row as its
    own piece: no piece is longer than the text of the longest single entry,
    though the report is 20,000 entries and a Gram block of 300 rows."""
    entries = [{"axiom": "forgetting_tails_deg0", "tuple": (i % 7, i % 5, i),
                "lhs": str(i), "rhs": str(i), "pass": i % 3 != 0} for i in range(20000)]
    gram = GramBlock([{i % 4: _z} for i in range(300)], 4)
    pieces = []
    _json_write({"entries": entries, "gram": gram}, pieces.append)
    dense = {"entries": entries, "gram": _dense(gram)}
    assert "".join(pieces) == json.dumps(dense, indent=2, sort_keys=True)
    longest = max(len(json.dumps(e, indent=2, sort_keys=True).replace("\n", "\n    "))
                  for e in entries)
    assert len(json.dumps(_dense(gram), indent=2)) > longest
    assert max(map(len, pieces)) <= longest
