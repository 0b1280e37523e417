"""Self-tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jobs
import stats
import verify

ROOT = Path(__file__).resolve().parent.parent


def _describe(job_list):
    return [(j.id, j.kind, j.argv, sorted(j.files.items())) for j in job_list]


def test_job_lists_are_deterministic_per_seed():
    for workload in jobs.WORKLOADS:
        first, again = jobs.make_jobs(workload, 7, 40), jobs.make_jobs(workload, 7, 40)
        assert _describe(first) == _describe(again)
        assert jobs.inputs_digest(first) == jobs.inputs_digest(again)
        assert jobs.inputs_digest(first) != jobs.inputs_digest(jobs.make_jobs(workload, 8, 40))


def test_generated_domains_are_valid():
    for workload in jobs.WORKLOADS:
        for job in jobs.make_jobs(workload, 3, 60):
            if "vertices" in job.meta:
                assert jobs.is_concave_domain(job.meta["n"], job.meta["vertices"]), job.files


def test_triangle_plain_count():
    # (2,1)(0,3): legs 2 and 2 leave one ball; (1,1)(0,4): legs 1 and 3, three balls
    assert jobs.triangle_plain_count(2, Fraction(1), Fraction(3)) == 1
    assert jobs.triangle_plain_count(1, Fraction(1), Fraction(4)) == 3
    assert jobs.triangle_plain_count(3, Fraction(11, 3), Fraction(13, 3)) == 18


def test_percentile_counts_failed_jobs_as_slowest():
    times = [0.5, 0.1, 0.4, 0.2, 0.3, 0.9, 0.7, 0.6, 0.8, math.inf]
    assert stats.percentile(times, 0.5) == 0.5
    assert stats.percentile(times, 0.9) == 0.9
    assert stats.percentile(times[:-2] + [math.inf, math.inf], 0.9) == math.inf
    assert stats.percentile([math.inf, 0.1], 0.5) == 0.1
    assert stats.beyond(list(range(100)), 0.9) == 10


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("leaf", 6.0, 6.5, 3),
        ("leaf", 6.25, 7.0, 3),  # overlaps its sibling: counted once
    ]
    got = stats.self_times(spans)
    assert got == {"root": 3.0, "a": 2.0, "leaf": 2.25, "b": 3.0}


def _table(values):
    return "k  c_k\n" + "".join(f"{k}  {jobs.fmt(v)}\n" for k, v in enumerate(values))


def test_verifier_accepts_right_and_rejects_tampered_sequence():
    n, a, b, kmax = 2, Fraction(1), Fraction(377, 233), 60
    brute = sorted(a * k1 + b * k2 for k1 in range(80) for k2 in range(80) if (k1 + k2) % n == 0)
    job = jobs.Job(id="t", kind="sequence", argv=(), meta={"n": n, "a": a, "b": b, "kmax": kmax})
    right = _table(brute[: kmax + 1])
    assert verify.check_output(job, right, None) == []
    tampered = right.replace(f"\n7  {jobs.fmt(brute[7])}\n", f"\n7  {jobs.fmt(brute[7] + 1)}\n")
    assert tampered != right
    assert verify.check_output(job, tampered, None)


def test_verifier_rejects_tampered_weights_and_check():
    weights = jobs.Job(id="w", kind="weights", argv=(),
                       meta={"n": 2, "vertices": ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))})
    assert verify.check_output(weights, "singular 1\nplain 2\n", None) == []
    assert verify.check_output(weights, "singular 1\nplain 3\n", None)
    check = jobs.Job(id="c", kind="check", argv=(), meta={"trials": 3, "kmax": 8, "seed": 5})
    assert verify.check_output(check, "seed 5\nPASS trials=3 kmax=8\n", None) == []
    assert verify.check_output(check, "seed 5\nFAIL trial=1 k=2\n", None)


def test_tracer_reports_a_missing_layer_as_absent(tmp_path):
    out = tmp_path / "trace.json"
    code = (
        "import sys, tracer\n"
        "tracer.LAYERS += (('capacities', 'renamed_away', 'capacities.gone_s'),)\n"
        "sys.exit(tracer.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code, str(out), "j1", "ball", "--a", "1", "--kmax", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _table([0, 1, 1, 2])
    trace = json.loads(out.read_text())
    assert trace["absent"] == ["capacities.renamed_away"]
    names = [(name, parent, job) for name, _, _, parent, job in trace["spans"]]
    assert names == [("cli.main", -1, "j1"), ("capacities.ball_sequence", 0, "j1")]
    assert trace["counters"] == {"capacities.generator_values": 4}
