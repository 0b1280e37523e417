"""echlens CLI-job benchmark: one client, concurrency 1, closed loop.

    python3 perfbench/run.py --workload packing --seed 1 --seconds 36 --trace 0

Run it from the repository root.  A user's unit of work is one `echlens`
CLI invocation in a fresh interpreter (`python -m echlens.cli ...` with
`src` on the path).  The benchmark generates a seeded job list for the
workload (jobs.py), runs the jobs one after another until `--seconds` have
passed, checks every output outside the timed region (verify.py), and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` a
fixed prefix of the job list runs twice per job, once plain and once
through tracer.py, and the metrics are per-layer self times and counters
summed over the traced jobs, plus the tracing overhead.  The line before the
result holds the sample counts, the failed ratio, the known-defect probe and
the input and output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import jobs as jobgen
import stats
import tracer
import verify

ROOT = Path(__file__).resolve().parent.parent
SETUP_EVERY = 10  # a no-work job before every 10th job, so setup_s sees the whole run
TRACE_PATTERNS = 3  # the traced run takes this many repeats of the pattern
JOB_TIMEOUT_S = 60
DEFECT_MESSAGE = "recursion limit exceeded"

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNTS = (
    "weights.plain_count",
    "weights.failed",
    "capacities.generator_values",
    "capacities.union_cells",
    "paths.enumerated",
    "paths.cross_calls",
    "domains.length_calls",
    "capacities.index_calls",
)
PER_LAYER = {
    **{metric: "s" for _, _, metric in tracer.LAYERS},
    **{name: "count" for name in COUNTS},
    "paths.yield_ratio": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Execution:
    job: jobgen.Job
    wall: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    trace: dict | None = None


class Runner:
    """Runs jobs, through spawn.py, in a work directory holding their inputs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
        self.spawner = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=workdir, env=env, text=True,
        )

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=JOB_TIMEOUT_S + 10)

    def write_inputs(self, job_list):
        for job in job_list:
            for name, text in job.files.items():
                (self.workdir / name).write_text(text, encoding="utf-8")

    def run(self, job, traced=False) -> Execution:
        base = self.workdir / job.id
        trace_path = base.with_suffix(".trace.json")
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_path), job.id, *job.argv]
        else:
            cmd = [sys.executable, "-m", "echlens.cli", *job.argv]
        request = {"cmd": cmd, "stdout": f"{base}.out", "stderr": f"{base}.err", "timeout": JOB_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        reply = json.loads(reply)
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        return Execution(
            job, reply["wall"], reply["code"], Path(request["stdout"]).read_bytes(),
            Path(request["stderr"]).read_bytes(), reply["maxrss_kb"], trace,
        )


def check_outputs(executions, oracle):
    """Problems in the outputs, and the value count of each distinct job.

    Each distinct job is checked once; every later run of it must print the
    same bytes.  A non-zero exit is a failure, not a wrong output.
    """
    problems, first, values = [], {}, {}
    for ex in executions:
        if ex.code != 0:
            continue
        seen = first.setdefault(ex.job.id, ex)
        if seen is not ex:
            if seen.stdout != ex.stdout:
                problems.append(f"{ex.job.id}: output differs between runs")
            continue
        out = ex.stdout.decode("utf-8", "replace")
        problems += [f"{ex.job.id} ({' '.join(ex.job.argv)}): {p}" for p in verify.check_output(ex.job, out, oracle)]
        values[ex.job.id] = verify.value_count(ex.job, out)
    return problems, values


def outputs_digest(executions, job_ids) -> str:
    """sha256 over (job, exit code, sha256 of stdout) for the given jobs."""
    first = {}
    for ex in executions:
        first.setdefault(ex.job.id, ex)
    h = hashlib.sha256()
    for job_id in job_ids:
        ex = first.get(job_id)
        if ex is not None:
            h.update(f"{job_id} {ex.code} {hashlib.sha256(ex.stdout).hexdigest()}\n".encode())
    return h.hexdigest()


def run_probes(runner, oracle, traced):
    """Run the known-defect jobs; return their executions, outcome and problems."""
    executions, outcome, problems = [], [], []
    for probe in jobgen.probe_jobs():
        ex = runner.run(probe, traced)
        executions.append(ex)
        if ex.code == 0:
            found = verify.check_output(probe, ex.stdout.decode(), oracle)
            problems += [f"{probe.id}: {p}" for p in found]
            outcome.append("fixed")
        elif DEFECT_MESSAGE in ex.stderr.decode("utf-8", "replace"):
            outcome.append(f"exit {ex.code}: known defect")
        else:
            outcome.append(f"exit {ex.code}: {ex.stderr.decode('utf-8', 'replace').strip()[:120]}")
    return executions, outcome, problems


def wall_times(executions):
    return [ex.wall if ex.code == 0 else math.inf for ex in executions]


def finite(value: float) -> float:
    # a percentile that lands on a failed job has missed every limit
    return value if math.isfinite(value) else sys.float_info.max


def measure(runner, job_list, seconds, oracle):
    """Untraced run: end-to-end metrics over a time-bounded closed loop."""
    noop = jobgen.noop_job()
    warm = runner.run(noop)  # compiles bytecode and fills the file cache
    setup, executions = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(executions) % SETUP_EVERY == 0:
            setup.append(runner.run(noop))
        executions.append(runner.run(job_list[len(executions) % len(job_list)]))
    problems, values = check_outputs([warm, *setup, *executions], oracle)
    if any(ex.code != 0 for ex in (warm, *setup)):
        problems.append("the no-work job failed")
    walls = wall_times(executions)
    metrics = {
        "setup_s": statistics.median(ex.wall for ex in setup),
        "job_p50_s": finite(stats.percentile(walls, 0.5)),
        "job_p90_s": finite(stats.percentile(walls, 0.9)),
        "values_per_s": sum(values.get(ex.job.id, 0) for ex in executions if ex.code == 0)
        / sum(ex.wall for ex in executions),
        "peak_rss_mb": max(ex.maxrss_kb for ex in executions) / 1024,
    }
    info = {"samples": len(executions), "beyond_p90": stats.beyond(walls, 0.9)}
    return executions, metrics, problems, info


def trace(runner, job_list, oracle):
    """Traced run: per-layer metrics over a fixed prefix of the job list."""
    noop = jobgen.noop_job()
    runner.run(noop)
    runner.run(noop, traced=True)
    plain, traced = [], []
    for job in job_list:
        plain.append(runner.run(job))
        traced.append(runner.run(job, traced=True))
    problems, _ = check_outputs(plain + traced, oracle)
    return plain, traced, problems


def layer_metrics(traced, plain):
    """Per-layer metrics of the traced executions, and the layers found absent."""
    self_time, counters, absent = defaultdict(float), defaultdict(int), set()
    for ex in traced:
        if ex.trace is None:
            continue
        spans = [span[:4] for span in ex.trace["spans"]]
        for name, seconds in stats.self_times(spans).items():
            self_time[name] += seconds
        for name, value in ex.trace["counters"].items():
            counters[name] += value
        absent.update(ex.trace["absent"])
    metrics = defaultdict(float)
    for module, func, metric in tracer.LAYERS:
        metrics[metric] += self_time.get(f"{module}.{func}", 0.0)
    for name in COUNTS:
        metrics[name] = counters.get(name, 0)
    cross = counters.get("paths.cross_calls", 0)
    metrics["paths.yield_ratio"] = counters.get("paths.enumerated", 0) / cross if cross else 0.0
    p50 = [finite(stats.percentile(wall_times(side), 0.5)) for side in (traced[: len(plain)], plain)]
    metrics["trace.overhead_s"] = p50[0] - p50[1]
    gone = sorted(
        metric for metric in {m for _, _, m in tracer.LAYERS}
        if all(f"{mod}.{fn}" in absent for mod, fn, m in tracer.LAYERS if m == metric)
    )
    return dict(metrics), gone


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobgen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "echlens" / "cli.py").is_file():
        print(f"perfbench: no echlens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the verifier's oracle route

    job_list = jobgen.make_jobs(args.workload, args.seed)
    digest_ids = [job.id for job in job_list[: TRACE_PATTERNS * len(jobgen.PATTERNS[args.workload])]]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = None
    try:
        runner = Runner(workdir)
        runner.write_inputs([*job_list, *jobgen.probe_jobs()])
        oracle = verify.OracleRoute()
        summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "inputs_digest": jobgen.inputs_digest(job_list)}
        if args.trace:
            plain, executions, problems = trace(runner, job_list[: len(digest_ids)], oracle)
        else:
            executions, metrics, problems, info = measure(runner, job_list, args.seconds, oracle)
            summary.update(info)
        probes, outcome = [], []
        if args.workload == "packing":
            probes, outcome, probe_problems = run_probes(runner, oracle, traced=bool(args.trace))
            problems += probe_problems
        if args.trace:
            metrics, summary["absent"] = layer_metrics(executions + probes, plain)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(ex.code != 0 for ex in executions)
    summary.update(
        failed_ratio=failed / len(executions),
        known_defect_probe=outcome,
        outputs_digest=outputs_digest(executions, digest_ids),
        problems=problems[:20],
    )
    print(json.dumps(summary))
    for problem in problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END).items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
