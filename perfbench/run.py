"""lgck benchmark: CLI workloads timed end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fermat --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single client: the
jobs of the workload, in a seeded order, go back to back through the
real entry point ``lgck.cli.main([verb, config, "--output", path])``,
and the job list is repeated ("passes") until ``--seconds`` have gone
by.  Every report is checked (``verify.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` first runs untraced passes for half
the time, then traced passes (``spans.py``), and prints the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

TIMED_VERBS = ("state-space", "pairing", "verify-cohft", "chern", "kunneth",
               "simplicial-demo")

# (name, unit, better) of every metric the traced run reports.
PER_LAYER = tuple(
    [(f"verb_s.{v}", "s", "lower") for v in TIMED_VERBS]
    + [
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("glsm.from_dict.busy_s", "s", "lower"),
        ("glsm.validate.busy_s", "s", "lower"),
        ("glsm.semistable_locus.busy_s", "s", "lower"),
        ("exactalg.cone.lp.calls", "count", "lower"),
        ("exactalg.cone.lp.busy_s", "s", "lower"),
        ("orbifold.sector_group.busy_s", "s", "lower"),
        ("orbifold.group_order", "count", "lower"),
        ("statespace.build.busy_s", "s", "lower"),
        ("statespace.build.self_s", "s", "lower"),
        ("statespace.sector_space.self_s", "s", "lower"),
        ("statespace.residue_calculator.self_s", "s", "lower"),
        ("statespace.residue_of_monomial.calls", "count", "lower"),
        ("statespace.residue_of_monomial.busy_s", "s", "lower"),
        ("statespace.residue_of_monomial.nonzero_ratio", "ratio", "higher"),
        ("statespace.gram_matrix.calls", "count", "lower"),
        ("statespace.gram_matrix.self_s", "s", "lower"),
        ("statespace.gram_entries", "count", "lower"),
        ("statespace.to_jsonable.self_s", "s", "lower"),
        ("statespace.kunneth_sum.busy_s", "s", "lower"),
        ("exactalg.groebner.buchberger.calls", "count", "lower"),
        ("exactalg.groebner.buchberger.busy_s", "s", "lower"),
        ("exactalg.groebner.basis_size", "count", "lower"),
        ("exactalg.groebner.reduce_full.calls", "count", "lower"),
        ("exactalg.groebner.reduce_full.busy_s", "s", "lower"),
        ("exactalg.groebner.reduce_full.zero_ratio", "ratio", "lower"),
        ("exactalg.groebner.normal_form.calls", "count", "lower"),
        ("exactalg.groebner.normal_form.busy_s", "s", "lower"),
        ("exactalg.groebner.quotient_basis.busy_s", "s", "lower"),
        ("exactalg.groebner.standard_monomials", "count", "lower"),
        ("exactalg.linalg.is_nonsingular.calls", "count", "lower"),
        ("exactalg.linalg.is_nonsingular.busy_s", "s", "lower"),
        ("exactalg.linalg.mat_mul.calls", "count", "lower"),
        ("exactalg.linalg.mat_mul.busy_s", "s", "lower"),
        ("exactalg.linalg.rank.busy_s", "s", "lower"),
        ("exactalg.linalg.nullspace.busy_s", "s", "lower"),
        ("exactalg.linalg.inverse.busy_s", "s", "lower"),
        ("exactalg.cyclo.init.calls", "count", "lower"),
        ("exactalg.cyclo.mul.calls", "count", "lower"),
        ("exactalg.cyclo.add.calls", "count", "lower"),
        ("exactalg.poly.mul.calls", "count", "lower"),
        ("matfact.koszul.busy_s", "s", "lower"),
        ("matfact.chern_char.busy_s", "s", "lower"),
        ("matfact.todd_chern.busy_s", "s", "lower"),
        ("matfact.unit_class.busy_s", "s", "lower"),
        ("matfact.splitting_degree_check.busy_s", "s", "lower"),
        ("cohft.axiom_seeded_data.busy_s", "s", "lower"),
        ("cohft.run_all_checks.busy_s", "s", "lower"),
        ("cohft.casimir_check.busy_s", "s", "lower"),
        ("cohft.entries_checked", "count", "higher"),
        ("simplicial.godement.busy_s", "s", "lower"),
        ("simplicial.cosimplicial_verify.busy_s", "s", "lower"),
        ("simplicial.de_rham_triangle_check.self_s", "s", "lower"),
        ("simplicial.order_complex_cohomology.busy_s", "s", "lower"),
        ("simplicial.flasque.busy_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

SETUP_SAMPLES = 11
SETUP_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import json, sys\n"
    "import lgck.cli\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        json.load(fh)\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass
class Execution:
    job: workloads.Job
    seconds: float
    report_bytes: int
    problems: list


@dataclass
class PassResult:
    executions: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(e.seconds for e in self.executions)


def typical_pass(results, verb=None, stat=max) -> float:
    """Time of one pass: the sum over jobs of ``stat`` of each job's times
    across passes; with ``verb``, of that verb's jobs only.

    The default, each job's slowest time, is the steadiest figure on a
    shared host: there the speed of a core alternates between a stable
    contended level and bursts that run up to 1.5x faster for tens of
    seconds, and a median over a few passes lands on either.
    """
    if not results:
        return 0.0
    jobs = [e.job for e in results[0].executions]
    return sum(stat([r.executions[i].seconds for r in results if i < len(r.executions)])
               for i, job in enumerate(jobs) if verb is None or job.verb == verb)


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.golden = verify.load_golden()
        accepted = {n: c["accepted"] for n, c in self.golden["candidates"].items()}
        self.inputs = workloads.build(workload, seed, lambda n: accepted.get(n, False))
        self.twins = {c.name: c.twin for c in self.inputs.candidates}
        self.workdir = workdir
        for name, data in self.inputs.files.items():
            (workdir / name).write_bytes(data)
        import lgck.cli
        self.cli = lgck.cli
        self._devnull = open(os.devnull, "w", encoding="utf-8")

    def close(self):
        self._devnull.close()

    def setup_sample(self) -> float:
        """Time a fresh interpreter takes to import lgck.cli and load the
        workload's configs, timed inside the child so that process start-up
        and scheduling latency stay out of it."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c", SETUP_SNIPPET, *sorted(self.inputs.files)]
        child = subprocess.run(cmd, cwd=self.workdir, env=env, check=True,
                               timeout=120, capture_output=True, text=True)
        return float(child.stdout)

    def run_pass(self, tracer=None, between_jobs=None, deadline=None) -> PassResult:
        """One pass over the job list; with ``deadline``, stop at the first
        job boundary after it."""
        gc.collect()
        result = PassResult()
        for idx, job in enumerate(self.inputs.jobs):
            out = f"{job.model}.{job.verb}.report.json"
            if os.path.exists(out):
                os.remove(out)
            errors = io.StringIO()
            if tracer is not None:
                tracer.job = idx
            with contextlib.redirect_stdout(self._devnull), \
                    contextlib.redirect_stderr(errors):
                start = perf_counter()
                try:
                    rc = self.cli.main(job.argv(out))
                except Exception as exc:  # a traceback is a failed job, not a crash
                    rc = f"exception {type(exc).__name__}: {exc}"
                seconds = perf_counter() - start
            text = None
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
            problems = (verify.check_report(job, rc, text, self.golden,
                                            self.twins.get(job.model))
                        if isinstance(rc, int) else [rc])
            if problems and errors.getvalue():
                problems.append(errors.getvalue().strip()[-300:])
            result.executions.append(
                Execution(job, seconds, len(text.encode()) if text else 0, problems))
            if between_jobs is not None:
                between_jobs()
            if deadline is not None and perf_counter() >= deadline:
                break
        return result

    def passes(self, seconds: float, tracer_factory=None, setup=None) -> list:
        """Passes back to back until ``seconds`` have gone by: at least one
        full pass, then whole passes when traced (the layer figures are per
        pass), else up to the first job boundary after ``seconds``.

        Given a list ``setup``, fill it with SETUP_SAMPLES set-up times,
        taken between jobs and spread over the run, so that their median
        sees the same machine as the passes do.
        """
        out = []
        start = perf_counter()
        deadline = start + seconds
        between_jobs = None
        if setup is not None:
            def between_jobs():
                if perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES:
                    setup.append(self.setup_sample())
        while not out or perf_counter() < deadline:
            tracer = tracer_factory() if tracer_factory else None
            if tracer is not None:
                tracer.install()
            try:
                cut = deadline if out and tracer is None else None
                result = self.run_pass(tracer, between_jobs, cut)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            out.append((result, tracer))
        while setup is not None and len(setup) < SETUP_SAMPLES:
            setup.append(self.setup_sample())
        return out

    def candidate_problems(self) -> dict:
        """Problems that concern every job of a candidate: a config that
        is not the recorded one, a Milnor number off the Milnor-Orlik count."""
        bad = {}
        for cand in self.inputs.candidates:
            recorded = self.golden["candidates"].get(cand.name, {}).get("files")
            if recorded != {n: verify.file_digest(self.inputs.files[n]) for n in cand.files}:
                bad[cand.name] = "config differs from the recorded one"
            elif cand.is_model:
                try:
                    problems = verify.milnor_problems(cand.files[cand.config])
                except (ValueError, KeyError) as exc:
                    problems = [f"{type(exc).__name__}: {exc}"]
                if problems:
                    bad[cand.name] = problems[0]
        return bad


def _tally(executions, bad_candidates) -> tuple[int, int, list]:
    failed, messages = 0, []
    for e in executions:
        problems = list(e.problems)
        if e.job.model in bad_candidates:
            problems.append(bad_candidates[e.job.model])
        if problems:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{e.job.verb} {e.job.model}: {'; '.join(problems)}")
    return len(executions), failed, messages


def _tail(samples) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return "max", max(samples)
    pct = 100 * (n - 10) // n
    return f"p{pct}", statistics.quantiles(samples, n=100)[pct - 1]


def layer_values(tracer: spans.Tracer, result: PassResult) -> dict:
    values = {}
    for name, stats in spans.summarize(tracer.spans).items():
        for stat, value in stats.items():
            values[f"{name}.{stat}"] = value
    values.update(tracer.counts)
    values["cli.report_bytes"] = sum(e.report_bytes for e in result.executions)
    for name, numerator, ratio in (
            ("statespace.residue_of_monomial", "nonzero", "nonzero_ratio"),
            ("exactalg.groebner.reduce_full", "zero", "zero_ratio")):
        calls = values.get(f"{name}.calls", 0)
        values[f"{name}.{ratio}"] = values.get(f"{name}.{numerator}", 0) / calls if calls else 0.0
    return values


def _median(values):
    return statistics.median(values) if values else 0.0


def run(args) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    cwd = os.getcwd()
    bench = None
    try:
        os.chdir(workdir)
        bench = Bench(args.workload, args.seed, workdir)
        for line in bench.inputs.log:
            print(f"# {line}", file=sys.stderr)
        lines, metrics = [], {}
        if not args.trace:
            setup = []
            timed = bench.passes(args.seconds, setup=setup)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            results = [r for r, _ in timed]
            walls = [r.wall for r in results
                     if len(r.executions) == len(bench.inputs.jobs)]
            metrics["wall_s"] = typical_pass(results)
            lines.append(f"pass from per-job medians {typical_pass(results, stat=statistics.median):.4f} s")
            units = dict(END_TO_END)
            lines.append(f"full passes {len(walls)} of {len(results)}, pass wall min {min(walls):.4f} s, max {max(walls):.4f} s")
            jobs = [e.seconds for r in results for e in r.executions]
            label, tail = _tail(jobs)
            lines.append(f"job latency: n {len(jobs)}, p50 {statistics.median(jobs):.6f} s, "
                         f"{label} {tail:.6f} s")
            for verb in sorted({j.verb for j in bench.inputs.jobs}):
                lines.append(f"verb_s.{verb} {typical_pass(results, verb):.6f} s")
        else:
            half = args.seconds / 2
            plain = [r for r, _ in bench.passes(half)]
            traced = bench.passes(half, spans.Tracer)
            results = plain + [r for r, _ in traced]
            per_pass = [layer_values(t, r) for r, t in traced]
            units = {name: unit for name, unit, _ in PER_LAYER}
            for name, unit in units.items():
                value = _median([v.get(name, 0) for v in per_pass])
                metrics[name] = int(value) if unit in ("count", "bytes") else float(value)
            for verb in TIMED_VERBS:
                metrics[f"verb_s.{verb}"] = float(typical_pass(plain, verb))
            metrics["trace.overhead_s"] = (typical_pass([r for r, _ in traced])
                                           - typical_pass(plain))
            traced[-1][1].write(WORK_ROOT / f"spans-{args.workload}.tsv")
            lines.append(f"untraced passes {len(plain)}, traced passes {len(traced)}")
            lines.append("waiting: none; one thread, no queues, so no layer waits")
        attempted, failed, messages = _tally(
            [e for r in results for e in r.executions], bench.candidate_problems())
        lines.append(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} jobs)")
        lines.extend(f"FAILED {m}" for m in messages)
        for name, value in metrics.items():
            lines.append(f"{name} {value} {units[name]}")
        print("\n".join(lines))
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }
    finally:
        if bench is not None:
            bench.close()
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lgck" / "cli.py").is_file():
        print(f"error: no lgck sources under {SRC}", file=sys.stderr)
        return 2
    if not verify.GOLDEN_PATH.is_file():
        print(f"error: missing {verify.GOLDEN_PATH}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        # each workload in a fresh process: its own peak memory and caches
        code = 0
        for name in workloads.WORKLOADS:
            print(f"== {name}", flush=True)
            rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            code |= subprocess.run([sys.executable, __file__, "--workload", name, *rest]
                                   ).returncode
        return code
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
