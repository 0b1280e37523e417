"""The package surface, the value records and what a cold CLI job loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from importlib import import_module

import pytest

import echlens
from echlens.capacities import MONOTONICITY_NOTE
from echlens.record import Record

SUBMODULES = [
    "bijectivity", "capacities", "checks", "domains", "ellipsoid", "errors", "geometry",
    "index", "paths", "weights",
]
EXPORTS = [
    "CapacitySequence", "CheckResult", "ConcaveDomain", "ConcaveGenerator", "EchLensError",
    "IntegralPath", "ObstructionReport", "OrbitSetDescriptor", "RotationNumbers",
    "WeightExpansion", "boundary_height", "capacities_via_oracle", "capacities_via_weights",
    "coround_corner", "cross", "domain_area", "ellipsoid_orbit_index",
    "ellipsoid_sequence", "empty_path", "enumerate_paths_up_to", "format_rational",
    "generator_index", "homology_class", "in_cone", "index_bijectivity_check",
    "lattice_count", "make_path", "obstruction_report", "omega_length_edge",
    "orbit_set_index", "parse_domain_file", "parse_path_text", "parse_rational",
    "path_from_vertices", "path_to_text", "random_concave_domain", "rotation_numbers",
    "run_check", "scale_domain", "singular_ball_capacity", "singular_weight_expansion",
    "spectrum_from_orbit_indices", "split_domain", "union_sequence", "validate_domain",
]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestSurface:
    def test_all_lists_every_export_and_submodule(self):
        assert sorted(echlens.__all__) == sorted(SUBMODULES + EXPORTS)
        assert set(echlens.__all__) <= set(dir(echlens))
        assert "__version__" in dir(echlens)

    def test_names_resolve_to_their_submodule_attributes(self):
        for name in SUBMODULES:
            assert getattr(echlens, name) is import_module(f"echlens.{name}")
        for name in EXPORTS:
            value = getattr(echlens, name)
            assert value.__module__.startswith("echlens.")
            assert getattr(import_module(value.__module__), name) is value

    def test_each_export_is_defined_once_in_its_submodule(self):
        # a copy left behind in another submodule would be a second definition
        modules = {module: import_module(f"echlens.{module}") for module in echlens._EXPORTS}
        for module, names in echlens._EXPORTS.items():
            for name in names:
                value = getattr(modules[module], name)
                assert value.__module__ == f"echlens.{module}", name
                for other in modules.values():
                    assert getattr(other, name, value) is value, (other.__name__, name)

    def test_star_import(self):
        namespace = {}
        exec("from echlens import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(SUBMODULES + EXPORTS)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            echlens.nope


def _records():
    """One instance of every record class, built twice over equal fields."""
    e = echlens
    path = e.IntegralPath(2, (2, 1), (((-1, 1), 2),))
    generator = e.ConcaveGenerator(path=path, labels=("e",))
    return [
        lambda: e.CapacitySequence([0, 1, 3], 2),
        lambda: e.ObstructionReport(3, ((1, 4, 2),), 2),
        lambda: e.OrbitSetDescriptor(m_plus=1, m_minus=2, generator=generator),
        lambda: e.validate_domain(2, [(4, 2), (0, 3)]),
        lambda: e.RotationNumbers(Fraction(1, 3), Fraction(-1, 2)),
        lambda: e.IntegralPath(2, (2, 1), (((-1, 1), 2),)),
        lambda: e.ConcaveGenerator(path, ("e",)),
        lambda: e.WeightExpansion(2, (1,), 2),
        lambda: e.CheckResult(trials=3, kmax=8, seed=2024, failure=None),
    ]


@pytest.mark.parametrize("make", _records())
class TestRecordSemantics:
    def test_value_equality_and_hash(self, make):
        first, second = make(), make()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)

    def test_unequal_to_another_class_with_equal_fields(self, make):
        record = make()
        fields = [getattr(record, name) for name in record.__slots__]
        twin = type("Twin", (Record,), {"__slots__": record.__slots__})(*fields)
        assert record != twin and twin != record
        assert record != tuple(fields)

    def test_assignment_raises(self, make):
        record = make()
        name = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == make()

    def test_repr_names_the_fields(self, make):
        record = make()
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record.__slots__)
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_copy_and_pickle(self, make):
        record = make()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


class TestRecordConstructors:
    def test_defaults(self):
        assert echlens.CapacitySequence((0, 2)).scale == 1
        report = echlens.ObstructionReport(kmax=1)
        assert (report.rows, report.scale, report.violations) == ((), 1, ())
        assert report.note == MONOTONICITY_NOTE and not report.obstructed

    def test_capacity_sequence_takes_any_iterable_and_reduces(self):
        seq = echlens.CapacitySequence(iter([0, 2, 6]), scale=4)
        assert (seq.ints, seq.scale) == ((0, 1, 3), 2)
        assert type(seq.ints) is tuple
        assert seq == echlens.CapacitySequence([0, 1, 3], 2)

    def test_wrong_fields(self):
        with pytest.raises(TypeError):
            echlens.RotationNumbers(1)
        with pytest.raises(TypeError):
            echlens.RotationNumbers(1, 2, 3)
        with pytest.raises(TypeError):
            echlens.RotationNumbers(1, phi_plus=2)
        with pytest.raises(TypeError):
            echlens.RotationNumbers(1, phi=2)


# prints the modules a CLI job loaded beyond a bare interpreter's
_LOADED = """
import sys
base = set(sys.modules)
from echlens import cli
cli.main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - base)))
"""


_DOMAIN = "n = 2\nvertices = (6,3) (3,2) (0,2)\n"
_BIG = "n = 2\nvertices = (12,6) (6,4) (0,4)\n"  # _DOMAIN scaled by 2
# an E_n(a, b) job loads no domain, weight, path or check code, neither the
# capacity routes, the index formulas nor the domain commands
_SPECTRUM_NEVER = {"echlens.paths", "echlens.domains", "echlens.weights", "echlens.checks",
                   "echlens.capacities", "echlens.index", "echlens.domain_cli"}
# the packing route, the weight expansion and what they print are ints over
# one denominator: their jobs build no Fraction, so they load no path code
# and not fractions, nor decimal and numbers, which fractions imports
_PACKING_NEVER = {"echlens.paths", "echlens.index", "fractions", "decimal", "numbers"}
# (argv, the module the job runs, the modules it must not load), where {dom}
# and {big} are domain files; no job loads dataclasses or inspect
_JOBS = [
    (["ball", "--a", "1", "--kmax", "0"],
     "echlens.ellipsoid", _SPECTRUM_NEVER | {"echlens.bijectivity"}),
    (["ellipsoid", "--n", "2", "--a", "1", "--b", "3/2", "--kmax", "2"],
     "echlens.ellipsoid", _SPECTRUM_NEVER | {"echlens.bijectivity"}),
    (["bijectivity", "--n", "2", "--a", "1", "--b", "233/144", "--layers", "1"],
     "echlens.bijectivity", _SPECTRUM_NEVER),
    # the oracle route enumerates paths but never loads the index formulas
    (["domain", "{dom}", "--method", "oracle", "--kmax", "2"], "echlens.paths", {"echlens.index"}),
    (["blowup", "{dom}", "--delta", "1/4", "--kmax", "2"], "echlens.paths", {"echlens.index"}),
    (["check", "--trials", "1", "--kmax", "2"], "echlens.paths", {"echlens.index"}),
    (["domain", "{dom}", "--method", "weights", "--kmax", "2"], "echlens.weights", _PACKING_NEVER),
    (["weights", "{dom}"], "echlens.weights", _PACKING_NEVER),
    # the source is twice the target, so the report prints violations
    (["obstruct", "{big}", "{dom}", "--kmax", "2"], "echlens.weights", _PACKING_NEVER),
]


@pytest.mark.parametrize("argv", [argv for argv, _, _ in _JOBS])
def test_cold_job_loads_only_what_it_runs(argv, tmp_path):
    runs, unwanted = next((r, u) for a, r, u in _JOBS if a == argv)
    dom, big = tmp_path / "example.dom", tmp_path / "big.dom"
    dom.write_text(_DOMAIN)
    big.write_text(_BIG)
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", _LOADED, *(arg.format(dom=dom, big=big) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(result.stdout.splitlines()[-1].split())
    assert runs in loaded
    if argv[0] == "obstruct":
        assert result.stdout.startswith("violation at k=1: 8 > 4\n")
    assert not loaded & ({"dataclasses", "inspect"} | unwanted)
