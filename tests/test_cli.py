"""Command-line interface: dispatch, reports, determinism, exit codes."""

import json

import pytest

from lgck.cli import main

from conftest import make_quintic_glsm, make_quintic_lg


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


def test_determinism_byte_for_byte(quintic_config, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["state-space", quintic_config, "--output", out1]) == 0
    assert _run(["state-space", quintic_config, "--output", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_bounds_exit_2(quintic_config):
    assert _run(["state-space", quintic_config, "--group-order-bound", "0"]) == 2


def test_state_space_rejects_zero_charges(tmp_path, capsys):
    """With every R-charge 0 the potential is not quasi-homogeneous, so the
    selection rule has no footing: exit 1 with the sector and the reason."""
    bad = make_quintic_lg().to_dict()
    bad["r_charges"] = [0] * 5
    path = tmp_path / "zero_charges.json"
    path.write_text(json.dumps(bad))
    assert _run(["validate", path]) == 1
    assert _run(["state-space", path]) == 1
    err = capsys.readouterr().err
    assert "sector (0,0,0,0,0)" in err and "not quasi-homogeneous" in err


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


@pytest.mark.parametrize("poset, field", [
    (_two_point_poset(restriction_matrices=[
        {"from": "a", "to": "b", "matrix": [[None]]}]), "restriction_matrices"),
    (_two_point_poset(order_pairs=[["a", "c"]]), "order_pairs"),
    (_two_point_poset(stalk_dims=[-1, 1]), "stalk_dims"),
    (_two_point_poset(stalk_dims=[1, 2]), "restriction_matrices"),
    (_two_point_poset(stalk_dims=[2, 1]), "restriction_matrices"),
], ids=["null_entry", "unknown_point", "negative_dim", "wrong_shape", "wrong_width"])
def test_malformed_poset_exits_2(tmp_path, capsys, poset, field):
    """A malformed custom poset is refused before any sheaf is built, with
    the field named; it is neither a traceback nor a failed check."""
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"simplicial": {"poset": poset}}))
    assert _run(["simplicial-demo", path, "--level-bound", "2"]) == 2
    assert f"simplicial.poset.{field}" in capsys.readouterr().err


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


def test_non_object_config_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert _run(["simplicial-demo", path]) == 2
    assert "not a JSON object" in capsys.readouterr().err
