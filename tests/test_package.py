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

SUBMODULES = ["capacities", "checks", "domains", "errors", "geometry", "paths", "weights"]
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
        lambda: e.ObstructionReport(3, ((1, Fraction(2), Fraction(1)),)),
        lambda: e.OrbitSetDescriptor(m_plus=1, m_minus=2, generator=generator),
        lambda: e.validate_domain(2, [(4, 2), (0, 3)]),
        lambda: e.RotationNumbers(Fraction(1, 3), Fraction(-1, 2)),
        lambda: e.IntegralPath(2, (2, 1), (((-1, 1), 2),)),
        lambda: e.ConcaveGenerator(path, ("e",)),
        lambda: e.WeightExpansion(Fraction(1), (Fraction(1, 2),)),
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
        report = echlens.ObstructionReport(kmax=1, violations=())
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


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--a", "1", "--kmax", "0"],
        ["ellipsoid", "--n", "2", "--a", "1", "--b", "3/2", "--kmax", "2"],
        ["bijectivity", "--n", "2", "--a", "1", "--b", "233/144", "--layers", "1"],
    ],
)
def test_cold_job_loads_only_what_it_runs(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(result.stdout.splitlines()[-1].split())
    assert "echlens.capacities" in loaded
    unwanted = {"dataclasses", "inspect", "echlens.paths", "echlens.domains",
                "echlens.weights", "echlens.checks"}
    assert not loaded & unwanted
