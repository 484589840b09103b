"""Config fuzz: one field of a valid config set to one value from a fixed
pool of JSON values.  Whatever the value, ``main`` returns 0, 1 or 2
without raising, and a refusal (exit 2) names the field or a block that
holds it."""

import contextlib
import copy
import io
import json

import pytest

from lgck import config as cfg
from lgck.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

MODEL_VERBS = ("validate", "phases", "sectors", "state-space", "pairing", "unit",
               "virdim", "verify-cohft", "kunneth")

# (block path, its field table, the verbs that read it)
BLOCKS = [
    ("", cfg.MODEL, MODEL_VERBS),
    ("koszul", cfg.KOSZUL, ("chern",)),
    ("virdim", cfg.VIRDIM, ("virdim",)),
    ("cohft", cfg.COHFT, ("verify-cohft",)),
    ("cohft.tables", cfg.COHFT_TABLES, ("verify-cohft",)),
    ("simplicial", cfg.SIMPLICIAL, ("simplicial-demo",)),
    ("simplicial.poset", cfg.POSET, ("simplicial-demo",)),
    ("kunneth", cfg.KUNNETH, ("kunneth",)),
]
CASES = [(f"{block}.{key}" if block else key, verb)
         for block, table, verbs in BLOCKS for key in table for verb in verbs]
CASES += [(block, verb) for block, _, verbs in BLOCKS if block for verb in verbs]
CASES += [("tail_regime", "validate"), ("characters", "phases"),
          ("characters.plus", "phases"), ("cohft.tables.boundary_pullbacks.loop", "verify-cohft")]

POOL = [10 ** 9, -1, 0, 1, "1/0", "1/2", "x", "", 1.5, True, False, None,
        [], {}, [0], ["1/0"], [1.5], [[1]], [None], ["x", "x"]]


def base_config(other_model: str) -> dict:
    """x^3 + y^3 with every block filled in; its narrow basis has dimension 2."""
    return {
        "variables": ["x", "y"], "torus_weights": [[1, 1]], "finite_generators": [],
        "chi": [3], "nu": [0], "r_charges": [1, 1], "d_w": 3, "potential": "x^3 + y^3",
        "tail_regime": False,
        "characters": {"plus": [1]},
        "koszul": {"variables": ["x", "y"], "tau": ["y"], "sigma": ["x"]},
        "virdim": {"g": 0, "r": 1, "d_pairing": 0, "insertions": [["1/3", "1/3"]]},
        "cohft": {"basis": "narrow", "tables": {
            "unit": ["1", "0"], "shift_genus0": "0",
            "omega03": [{"key": [0, 1, 1], "value": "1"}],
            "omega04": [{"key": [0, 0, 1, 1], "value": ["1", "0"]}],
            "omega11": [{"key": [0], "value": ["1", "0"]}],
            "boundary_pullbacks": {"loop": ["1", "0"]}}},
        "simplicial": {"poset": {
            "name": "two", "points": ["a", "b"], "order_pairs": [["a", "b"]],
            "stalk_dims": [1, 1],
            "restriction_matrices": [{"from": "a", "to": "b", "matrix": [[1]]}]}},
        "kunneth": {"other_model": other_model},
    }


def run_with(workdir, path: str, verb: str, value) -> tuple[int, str]:
    other = workdir / "other.json"
    if not other.exists():
        other.write_text(json.dumps({**base_config(""), "variables": ["u", "v"],
                                     "potential": "u^3 + v^3"}))
    config = base_config(str(other))
    *parents, last = path.split(".")
    node = config
    for key in parents:
        node = node[key]
    node[last] = copy.deepcopy(value)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config))
    extra = ["--character", "plus"] if verb == "phases" else []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([verb, str(cfg_path), "--group-order-bound", "1000",
                     "--level-bound", "1", *extra])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=800, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from(POOL))
def test_one_odd_field_exits_0_1_or_2(workdir, case, value):
    path, verb = case
    code, err = run_with(workdir, path, verb, value)
    assert code in (0, 1, 2)
    if code == 2:
        keys = path.split(".")
        assert any(".".join(keys[:i]) in err for i in range(1, len(keys) + 1)), err
