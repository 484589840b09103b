"""Record ``golden.json``: the reports of every candidate input.

Run once, from the repository root, on the commit whose reports are the
reference (the reports are a contract: later commits must reproduce
every recorded key):

    python3 perfbench/record_golden.py

For each candidate of each workload it records whether ``validate``
accepts it and whether its potential has an isolated singularity (the
seed redraws rejected candidates), the digest of each config file, and
the digest of each top-level key of each report.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

import verify
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def rejection(cand) -> str:
    """Why the seed may not draw this candidate; empty when it may."""
    from lgck.exactalg import MultiPoly, jacobian_ideal
    from lgck.glsm import GlsmModel, validate

    for obj in cand.files.values():
        if "koszul" in obj:
            block = obj["koszul"]
            names = block["variables"]
            w = MultiPoly.zero(names)
            for t, s in zip(block["tau"], block["sigma"]):
                w = w + MultiPoly.parse(t, names) * MultiPoly.parse(s, names)
        elif "potential" in obj:
            model = GlsmModel.from_dict(obj)
            if not validate(model).passed:
                return "validate rejects it"
            w = model.potential
        else:
            continue
        if not w or jacobian_ideal(w).quotient_basis() is None:
            return "non-isolated singularity"
    return ""


def record_candidate(cand, main) -> dict:
    entry = {"files": {n: verify.file_digest(workloads.encode(o))
                       for n, o in cand.files.items()}}
    reason = rejection(cand)
    entry["accepted"] = not reason
    if reason:
        entry["rejected_because"] = reason
        return entry
    for name, obj in cand.files.items():
        Path(name).write_bytes(workloads.encode(obj))
    entry["reports"] = {}
    for job in cand.jobs():
        out = f"{cand.name}.{job.verb}.report.json"
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            rc = main(job.argv(out))
        if rc != 0:
            raise SystemExit(f"{cand.name} {job.verb}: exit code {rc}")
        with open(out, encoding="utf-8") as fh:
            entry["reports"][job.verb] = verify.key_digests(json.load(fh))
    return entry


def record() -> dict:
    sys.path.insert(0, str(SRC))
    from lgck.cli import main

    golden = {"candidates": {}}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for workload in workloads.WORKLOADS:
                for cand in workloads.all_candidates(workload):
                    entry = record_candidate(cand, main)
                    print(workload, cand.name, entry["accepted"], file=sys.stderr,
                          flush=True)
                    # corpus models serve two workloads with other verbs
                    seen = golden["candidates"].setdefault(cand.name, entry)
                    if seen is not entry:
                        if seen["files"] != entry["files"]:
                            raise SystemExit(f"{cand.name}: two different configs")
                        seen["reports"].update(entry["reports"])
        finally:
            os.chdir(cwd)
    return golden


if __name__ == "__main__":
    data = record()
    verify.GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
