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
from pathlib import Path

import pytest

from lgck.cli import main

from conftest import make_quintic_glsm, make_quintic_lg
from corpus import fermat_model

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
    paths = {}
    for name, data in (("quintic", quintic), ("glsm", glsm), ("koszul", koszul),
                       ("other", other), ("kunneth", main_model), ("empty", {})):
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
    cases["kunneth"] = ["kunneth", paths["kunneth"]]
    cases["simplicial-demo-level-2"] = ["simplicial-demo", paths["empty"],
                                        "--level-bound", "2"]
    cases["simplicial-demo"] = ["simplicial-demo", paths["empty"]]
    return cases


def _digest(root: Path, args) -> str:
    out = root / "report.json"
    assert main([str(a) for a in args] + ["--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_report_digest(case, tmp_path):
    args = _cases(_configs(tmp_path))[case]
    assert _digest(tmp_path, args) == _GOLDEN[case]


def test_golden_covers_every_case(tmp_path):
    assert set(_GOLDEN) == set(_cases(_configs(tmp_path)))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        digests = {case: _digest(root, args)
                   for case, args in sorted(_cases(_configs(root)).items())}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
