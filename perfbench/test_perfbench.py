"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _accept_all(name):
    return True


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    a = workloads.build(workload, 11, _accept_all)
    b = workloads.build(workload, 11, _accept_all)
    assert a.files == b.files
    assert a.jobs == b.jobs


def test_held_out_seed_gives_another_job_set():
    for workload in ("deformed", "cohft"):
        a = workloads.build(workload, 11, _accept_all)
        b = workloads.build(workload, 12, _accept_all)
        assert set(a.jobs) != set(b.jobs), workload


def test_rejected_candidates_are_redrawn_and_logged():
    inputs = workloads.build("deformed", 5, lambda name: not name.startswith("dwork_0"))
    assert all(not c.name.startswith("dwork_0") for c in inputs.candidates)
    assert sum(c.name.startswith("dwork_") for c in inputs.candidates) == 1
    assert all(line.startswith("redraw: dwork_0") for line in inputs.log)


def test_corrupted_gram_entry_counts_as_failed(tmp_path):
    from lgck.cli import main

    golden = verify.load_golden()
    cand = next(c for c in workloads.all_candidates("fermat") if c.name == "fermat_44_z2")
    job = next(j for j in cand.jobs() if j.verb == "state-space")
    config = tmp_path / cand.config
    config.write_bytes(workloads.encode(cand.files[cand.config]))
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(open(os.devnull, "w")):
        assert main([job.verb, str(config), "--output", str(out)]) == 0
    text = out.read_text()
    assert verify.check_report(job, 0, text, golden) == []

    report = json.loads(text)
    sector = next(s for s in report["sectors"] if s["gram"])
    sector["gram"][0][0] = "7/3" if sector["gram"][0][0] != "7/3" else "0"
    problems = verify.check_report(job, 0, json.dumps(report), golden)
    assert problems == ["key 'sectors' changed"]

    execs = [run.Execution(job, 0.1, len(text), []),
             run.Execution(job, 0.1, len(text), problems)]
    attempted, failed, _ = run._tally(execs, {})
    assert (attempted, failed) == (2, 1)


def test_report_may_gain_but_not_lose_keys():
    golden = {"candidates": {"m": {"reports": {"validate": {
        "command": verify.digest("validate"), "passed": verify.digest(True)}}}}}
    job = workloads.Job("validate", "m.json", "m")
    gained = json.dumps({"command": "validate", "passed": True, "provenance": {}})
    assert verify.check_report(job, 0, gained, golden) == []
    lost = json.dumps({"command": "validate"})
    assert "key 'passed' lost" in verify.check_report(job, 0, lost, golden)
    assert verify.check_report(job, 1, gained, golden) == ["exit code 1"]


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] has children b [1, 4] and c [5, 9]; b has child a [2, 3]
    tree = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("a", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
    ]
    got = spans.summarize(tree)
    assert got["a"] == {"calls": 2, "busy_s": 10.0, "self_s": (10 - 3 - 4) + 1}
    assert got["b"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    assert got["c"] == {"calls": 1, "busy_s": 4.0, "self_s": 4.0}


def test_tracer_patches_every_binding_and_restores_it():
    import lgck.cli
    import lgck.cohft
    import lgck.exactalg
    import lgck.exactalg.groebner as groebner
    import lgck.exactalg.linalg as linalg
    from lgck.exactalg.cyclo import Cyclo

    before = (lgck.cohft.mat_inverse, groebner.reduce_full,
              lgck.exactalg.reduce_full, Cyclo.__radd__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lgck.cohft.mat_inverse is linalg.inverse is not before[0]
        assert lgck.exactalg.reduce_full is groebner.reduce_full
        assert Cyclo.__radd__ is Cyclo.__add__
        Cyclo.one() + Cyclo.one()
        lgck.cli.StateSpace(lgck.cli.GlsmModel.from_dict(workloads.fermat([3])))
    finally:
        tracer.uninstall()
    assert (lgck.cohft.mat_inverse, groebner.reduce_full,
            lgck.exactalg.reduce_full, Cyclo.__radd__) == before
    names = {s[0] for s in tracer.spans}
    assert {"statespace.build", "glsm.from_dict", "exactalg.groebner.buchberger"} <= names
    assert tracer.counts["exactalg.cyclo.add.calls"] >= 1


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == {n: u for n, u, _ in run.PER_LAYER}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name in list(e2e) + list(layer):
        assert NAME.fullmatch(name), name
