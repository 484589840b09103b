"""Golden report digests: every CLI report stays byte-for-byte identical.

``golden_reports.json`` holds the sha256 of each report below, as written
by ``lgck.cli.main`` to ``--output``.  A refactor that changes any byte of
any of these reports fails here.  To re-record after an intended report
change, run ``PYTHONPATH=src:tests python tests/test_golden_reports.py``.
"""

import hashlib
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest

from lgck.cli import main
from lgck.cohft import narrow_sector_data
from lgck.statespace import StateSpace

from conftest import make_quintic_glsm, make_quintic_lg
from corpus import chain_model, fermat_model
from test_cohft import _tables_jsonable

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _configs(root: Path) -> dict:
    quintic = make_quintic_lg().to_dict()
    quintic["virdim"] = {
        "g": 0,
        "d_pairing": 0,
        "insertions": [["1/5"] * 5, ["1/5"] * 5, ["1/5"] * 5],
    }
    glsm = make_quintic_glsm([1, 0], [0, 0, 0, 0, 0, 1], 1).to_dict()
    glsm["characters"] = {"nu_plus": [1, 0], "nu_minus": [-5, 1]}
    koszul = {"koszul": {"variables": ["x", "y"], "tau": ["y"], "sigma": ["x"]}}
    other = fermat_model([3], prefix="y").to_dict()
    main_model = fermat_model([3], prefix="x").to_dict()
    main_model["kunneth"] = {"other_model": str(root / "other.json")}
    # Sum_{i<=4} x_i^3 with the full diagonal group: every state is narrow (n = 16)
    gmax = fermat_model([3] * 4, extra_generators=[
        ["1/3" if j == i else "0" for j in range(4)] for i in range(4)]).to_dict()
    # the quintic orbifolded by SL ∩ G_max (order 625), from J and three generators
    mirror = make_quintic_lg().to_dict()
    mirror["finite_generators"] = [["1/5" if j == 0 else "4/5" if j == i else "0"
                                    for j in range(5)] for i in range(1, 4)]
    # a unit on the "koszul todd-chern" route: the broad J-sector fixes y and x
    unit_koszul = {"variables": ["y", "x", "z"], "torus_weights": [[1, -1, 0], [0, 2, 1]],
                   "finite_generators": [], "chi": [0, 2], "nu": [0, 0],
                   "r_charges": [0, 2, 1], "d_w": 2, "potential": "x*y + z^2"}
    # zero-dimensional stalk at b, so a -> c composes through a 0 x 2 and a 2 x 0 map
    custom_poset = {"simplicial": {"poset": {
        "points": ["a", "b", "c", "e"],
        "order_pairs": [["a", "b"], ["b", "c"], ["a", "e"]],
        "stalk_dims": [2, 0, 2, 1],
        "restriction_matrices": [{"from": "a", "to": "b", "matrix": []},
                                 {"from": "b", "to": "c", "matrix": [[], []]},
                                 {"from": "a", "to": "e", "matrix": [[1, -1]]}]}}}
    # the Dwork quintic at psi = -1/2: a non-monomial Jacobian ideal, so Buchberger
    # reduces S-pairs
    dwork = make_quintic_lg().to_dict()
    dwork["potential"] = "x1^5+x2^5+x3^5+x4^5+x5^5-1/2*x1*x2*x3*x4*x5"
    # the Fermat sextic fourfold: a 102 MB report, almost all of it Gram zeros
    fermat_6_6 = fermat_model([6] * 6).to_dict()
    # a deformed quartic fourfold: a non-monomial Groebner basis in six variables
    quartic_fourfold = fermat_model([4] * 6).to_dict()
    quartic_fourfold["potential"] = "x1^4+x2^4+x3^4+x4^4+x5^4+x6^4-2/3*x1*x2*x3*x4"
    # a quartic with a coefficient in Q(zeta_8): the Groebner basis leaves Q
    quartic_z8 = fermat_model([4] * 4).to_dict()
    quartic_z8["potential"] = "x1^4+x2^4+x3^4+x4^4+z8^3*x1^2*x2^2"
    # rational R-charges and torus weights: validate scales both to integers
    half_charges = {"variables": ["x", "y"], "torus_weights": [["1/2", "1/2"]],
                    "chi": ["1"], "nu": ["0"], "r_charges": ["1/2", "1/2"], "d_w": 1,
                    "potential": "x^2 + y^2"}
    # E7, x^3 + x*y^3: a non-Fermat chain, so (0,4) entries need not be diagonal
    e7 = chain_model(3, 3).to_dict()
    lg = make_quintic_lg()
    user_tables = lg.to_dict()
    user_tables["cohft"] = {"basis": "narrow", "tables": _tables_jsonable(
        narrow_sector_data(lg, StateSpace(lg)))}
    paths = {}
    for name, data in (("quintic", quintic), ("glsm", glsm), ("koszul", koszul),
                       ("other", other), ("kunneth", main_model), ("empty", {}),
                       ("fermat_3_4_gmax", gmax), ("mirror_quintic", mirror),
                       ("unit_koszul", unit_koszul), ("custom_poset", custom_poset),
                       ("user_tables", user_tables), ("fermat_6_6", fermat_6_6),
                       ("dwork_quintic", dwork), ("quartic_fourfold", quartic_fourfold),
                       ("quartic_z8", quartic_z8), ("half_charges", half_charges),
                       ("E7", e7)):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


def _cases(paths: dict) -> dict:
    cases = {verb: [verb, paths["quintic"]]
             for verb in ("validate", "sectors", "state-space", "pairing",
                          "unit", "virdim", "verify-cohft")}
    for character in ("nu_plus", "nu_minus"):
        cases[f"phases-{character}"] = ["phases", paths["glsm"],
                                        "--character", character]
    cases["chern"] = ["chern", paths["koszul"]]
    cases["unit-koszul"] = ["unit", paths["unit_koszul"]]
    cases["kunneth"] = ["kunneth", paths["kunneth"]]
    cases["simplicial-demo-level-2"] = ["simplicial-demo", paths["empty"],
                                        "--level-bound", "2"]
    cases["simplicial-demo"] = ["simplicial-demo", paths["empty"]]
    cases["simplicial-demo-custom-poset"] = ["simplicial-demo", paths["custom_poset"]]
    cases["verify-cohft-user-tables"] = ["verify-cohft", paths["user_tables"]]
    cases["verify-cohft-fermat_3_4_gmax"] = ["verify-cohft", paths["fermat_3_4_gmax"]]
    cases["verify-cohft-E7"] = ["verify-cohft", paths["E7"]]
    cases["validate-mirror_quintic"] = ["validate", paths["mirror_quintic"]]
    cases["validate-glsm_quintic"] = ["validate", paths["glsm"]]
    cases["validate-half_charges"] = ["validate", paths["half_charges"]]
    cases["sectors-mirror_quintic"] = ["sectors", paths["mirror_quintic"]]
    for name in ("fermat_3_4_gmax", "mirror_quintic", "fermat_6_6", "dwork_quintic",
                 "quartic_fourfold"):
        cases[f"state-space-{name}"] = ["state-space", paths[name]]
    cases["pairing-quartic_z8"] = ["pairing", paths["quartic_z8"]]
    cases["pairing-mirror_quintic"] = ["pairing", paths["mirror_quintic"]]
    return cases


def _digest(root: Path, args) -> str:
    out = root / "report.json"
    assert main([str(a) for a in args] + ["--output", str(out)]) == 0
    digest = hashlib.sha256()
    with out.open("rb") as fh:  # in chunks: the 6^6 report is 102 MB
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    out.unlink()
    return digest.hexdigest()


_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_report_digest(case, tmp_path):
    args = _cases(_configs(tmp_path))[case]
    assert _digest(tmp_path, args) == _GOLDEN[case]


def test_listed_group_writes_the_report_of_its_generators(tmp_path):
    """The mirror quintic with all 625 elements of SL ∩ G_max listed as
    generators writes the bytes of J and three generators."""
    config = make_quintic_lg().to_dict()
    config["finite_generators"] = [[f"{a}/5" for a in v] for v in product(range(5), repeat=5)
                                   if sum(v) % 5 == 0]
    path = tmp_path / "listed.json"
    path.write_text(json.dumps(config))
    assert _digest(tmp_path, ["state-space", path]) == _GOLDEN["state-space-mirror_quintic"]


def test_golden_covers_every_case(tmp_path):
    assert set(_GOLDEN) == set(_cases(_configs(tmp_path)))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        digests = {case: _digest(root, args)
                   for case, args in sorted(_cases(_configs(root)).items())}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
