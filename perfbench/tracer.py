"""Run one echlens CLI job with its layer functions wrapped in timing spans.

    PYTHONPATH=src python perfbench/tracer.py OUT.json JOB_ID ARG...

runs `echlens.cli.main([ARG...])` in this fresh interpreter and exits with
its code.  Every attribute of an `echlens.*` module that *is* one of the
functions in `LAYERS` is replaced by a wrapper, so calls made inside the
library are timed as well as calls from the CLI.  At exit the spans
(name, start, end, parent, job), the counters and the list of layer
functions that no longer exist go to OUT.json; a missing function makes its
layer absent, never the job fail.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function, metric that the function's self time adds to)
LAYERS = (
    ("cli", "main", "cli.self_s"),
    ("domains", "parse_domain_file", "domains.parse_s"),
    ("weights", "singular_weight_expansion", "weights.expand_s"),
    ("capacities", "ellipsoid_sequence", "capacities.generator_s"),
    ("capacities", "ball_sequence", "capacities.generator_s"),
    ("capacities", "union_sequence", "capacities.union_s"),
    ("paths", "enumerate_paths_up_to", "paths.enumerate_s"),
    ("domains", "omega_length_path", "domains.length_s"),
    ("domains", "omega_length_blowup", "domains.length_s"),
    ("capacities", "capacities_via_oracle", "capacities.oracle_s"),
    ("capacities", "capacities_blowup", "capacities.oracle_s"),
    ("capacities", "index_bijectivity_check", "capacities.index_s"),
    ("capacities", "ellipsoid_orbit_index", "capacities.index_s"),
    ("checks", "random_concave_domain", "checks.sample_s"),
)
ENUMERATE = "paths.enumerate_paths_up_to"
CROSS = ("geometry", "cross")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _union_cells(args, kwargs, result):
    # cells of the (kmax+1) x (kmax+1) triangle, once per convolution
    kmax = _arg(args, kwargs, 1, "kmax")
    convolutions = len(_arg(args, kwargs, 0, "sequences")) - 1
    return {"capacities.union_cells": convolutions * (kmax + 1) * (kmax + 2) // 2}


# span name -> counters computed from (args, kwargs, result) after the call
COUNTERS = {
    "weights.singular_weight_expansion": lambda a, k, r: {"weights.plain_count": len(r.plain_weights)},
    "capacities.ellipsoid_sequence": lambda a, k, r: {"capacities.generator_values": len(r)},
    "capacities.ball_sequence": lambda a, k, r: {"capacities.generator_values": len(r)},
    "capacities.union_sequence": _union_cells,
    ENUMERATE: lambda a, k, r: {"paths.enumerated": sum(len(b) for b in r.values())},
    "domains.omega_length_path": lambda a, k, r: {"domains.length_calls": 1},
    "domains.omega_length_blowup": lambda a, k, r: {"domains.length_calls": 1},
    "capacities.index_bijectivity_check": lambda a, k, r: {"capacities.index_calls": 1},
    "capacities.ellipsoid_orbit_index": lambda a, k, r: {"capacities.index_calls": 1},
}
# span name -> counter bumped when the call raises
FAILURES = {"weights.singular_weight_expansion": "weights.failed"}


class Recorder:
    """Spans and counters of one job, kept in memory until the job ends."""

    def __init__(self, job: str):
        self.job = job
        self.spans = []  # [name, start, end, parent, job]
        self.stack = []
        self.open = defaultdict(int)  # span name -> calls in progress
        self.counters = defaultdict(int)
        self.broken = set()  # counters whose hook failed on a changed signature

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        failure = FAILURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.job]
            self.spans.append(span)
            self.stack.append(index)
            self.open[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failure:
                    self.counters[failure] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.open[name] -= 1
                self.stack.pop()
            if count:
                try:
                    for metric, value in count(args, kwargs, result).items():
                        self.counters[metric] += value
                except (TypeError, KeyError, IndexError, AttributeError):
                    self.broken.add(name)
            return result

        return wrapper

    def count_cross(self, fn):
        open_, counters = self.open, self.counters

        @functools.wraps(fn)
        def cross(u, v):
            if open_[ENUMERATE]:
                counters["paths.cross_calls"] += 1
            return fn(u, v)

        return cross


def _replace_everywhere(original, replacement):
    for module_name, module in list(sys.modules.items()):
        if module_name == "echlens" or module_name.startswith("echlens."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(recorder: Recorder) -> list:
    """Wrap every layer function; return the ones that could not be found."""
    absent = []
    targets = [(m, f, recorder.wrap, f"{m}.{f}") for m, f, _ in LAYERS]
    targets.append((*CROSS, lambda name, fn: recorder.count_cross(fn), ".".join(CROSS)))
    for module_name, func_name, make, name in targets:
        try:
            module = importlib.import_module(f"echlens.{module_name}")
        except ImportError:
            module = None
        fn = getattr(module, func_name, None)
        if not callable(fn):
            absent.append(name)
            continue
        _replace_everywhere(fn, make(name, fn))
    return absent


def main(argv) -> int:
    out_path, job, *cli_args = argv
    recorder = Recorder(job)
    absent = install(recorder)
    code = 1
    try:
        from echlens import cli

        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": recorder.spans,
                    "counters": dict(recorder.counters),
                    "absent": absent,
                    "broken": sorted(recorder.broken),
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
