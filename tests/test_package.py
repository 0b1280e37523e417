"""The package surface, the value records and what a cold CLI job loads."""

import ast
import copy
import os
import pickle
import subprocess
import sys
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
    "CapacitySequence", "ConcaveDomain", "ConcaveGenerator", "EchLensError",
    "IntegralPath", "ObstructionReport",
    "WeightExpansion", "capacities_via_oracle", "capacities_via_weights", "coround_corner",
    "cross", "domain_area", "ellipsoid_orbit_index", "ellipsoid_sequence", "empty_path",
    "enumerate_paths_up_to", "generator_index", "in_cone", "index_bijectivity_check",
    "lattice_count", "make_path", "obstruction_report", "orbit_set_index",
    "parse_domain_file", "parse_path_text", "path_from_vertices", "path_to_text",
    "random_concave_domain", "run_check", "singular_weight_expansion",
    "spectrum_from_orbit_indices", "union_sequence", "validate_domain",
]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


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

    def test_every_export_is_documented(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        names = [name for names in echlens._EXPORTS.values() for name in names]
        assert [name for name in names if f"`{name}`" not in readme] == []

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            echlens.nope


def _records():
    """One instance of every record class, built twice over equal fields."""
    e = echlens
    path = e.IntegralPath(2, (2, 1), (((-1, 1), 2),))
    return [
        lambda: e.CapacitySequence([0, 1, 3], 2),
        lambda: e.ObstructionReport(3, ((1, 4, 2),), 2),
        lambda: e.validate_domain(2, [(4, 2), (0, 3)]),
        # a record a route returns
        lambda: e.singular_weight_expansion(e.validate_domain(2, [(4, 2), (0, 3)])),
        lambda: e.IntegralPath(2, (2, 1), (((-1, 1), 2),)),
        lambda: e.ConcaveGenerator(path, ("e",)),
        lambda: e.WeightExpansion(2, (1,), 2),
        # built by keyword: a record holding a record, and one holding no rows
        lambda: e.ConcaveGenerator(path=path, labels=("e",)),
        lambda: e.ObstructionReport(kmax=0, rows=(), scale=1),
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
        # the note is the class's constant, not a field
        report = echlens.ObstructionReport(1, (), 1)
        assert (report.violations, report.note) == ((), MONOTONICITY_NOTE)
        assert "note" not in report.__slots__ and not report.obstructed

    def test_capacity_sequence_takes_any_iterable_and_reduces(self):
        seq = echlens.CapacitySequence(iter([0, 2, 6]), scale=4)
        assert (seq.ints, seq.scale) == ((0, 1, 3), 2)
        assert type(seq.ints) is tuple
        assert seq == echlens.CapacitySequence([0, 1, 3], 2)

    def test_wrong_fields(self):
        with pytest.raises(TypeError):
            echlens.ConcaveGenerator(1)
        with pytest.raises(TypeError):
            echlens.ConcaveGenerator(1, 2, 3)
        with pytest.raises(TypeError):
            echlens.ConcaveGenerator(1, path=2)
        with pytest.raises(TypeError):
            echlens.ConcaveGenerator(1, phi=2)


# prints the modules a CLI job loaded beyond a bare interpreter's, after
# its exit code
_LOADED = """
import sys
base = set(sys.modules)
from echlens import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exit:
    code = exit.code
print(code, " ".join(sorted(set(sys.modules) - base)))
"""


_DOMAIN = "n = 2\nvertices = (6,3) (3,2) (0,2)\n"
_BIG = "n = 2\nvertices = (12,6) (6,4) (0,4)\n"  # _DOMAIN scaled by 2
# an E_n(a, b) job loads no domain, weight, path or check code, neither the
# capacity routes, the index formulas nor the domain commands; it parses --a
# and --b to int pairs and prints ints, so it builds no Fraction and loads
# not fractions, nor decimal and numbers, which fractions imports
_SPECTRUM_NEVER = {"echlens.paths", "echlens.domains", "echlens.weights", "echlens.checks",
                   "echlens.capacities", "echlens.index", "echlens.domain_cli",
                   "fractions", "decimal", "numbers"}
# every route that reads a domain file or samples domains computes and
# prints ints over one denominator, and so does --delta's parse: their jobs
# build no Fraction, so they load not fractions, nor decimal and numbers,
# which fractions imports; the oracle route never loads the index formulas
_ORACLE_NEVER = {"echlens.index", "fractions", "decimal", "numbers"}
# nor does a packing job load path code
_PACKING_NEVER = _ORACLE_NEVER | {"echlens.paths"}
# (argv, the module the job runs, the modules it must not load, a line it
# prints), where {dom} and {big} are domain files; no job loads dataclasses
# or inspect, nor argparse, with the gettext and locale it imports: a
# well-formed argv is parsed from the command's spec
_NEVER = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
_JOBS = [
    (["ball", "--a", "1", "--kmax", "0"],
     "echlens.ellipsoid", _SPECTRUM_NEVER | {"echlens.bijectivity"}, "0  0"),
    (["ellipsoid", "--n", "2", "--a", "1", "--b", "3/2", "--kmax", "2"],
     "echlens.ellipsoid", _SPECTRUM_NEVER | {"echlens.bijectivity"}, "2  5/2"),
    (["bijectivity", "--n", "2", "--a", "1", "--b", "233/144", "--layers", "1"],
     "echlens.bijectivity", _SPECTRUM_NEVER, "4  1  1"),
    (["domain", "{dom}", "--method", "oracle", "--kmax", "2"],
     "echlens.paths", _ORACLE_NEVER, "2  5"),
    (["blowup", "{dom}", "--delta", "1/4", "--kmax", "2"],
     "echlens.paths", _ORACLE_NEVER, "1  7/2"),
    (["check", "--trials", "1", "--kmax", "2"],
     "echlens.paths", _ORACLE_NEVER, "PASS trials=1 kmax=2"),
    (["domain", "{dom}", "--method", "weights", "--kmax", "2"],
     "echlens.weights", _PACKING_NEVER, "2  5"),
    (["weights", "{dom}"], "echlens.weights", _PACKING_NEVER, "singular 2"),
    # the source is twice the target, so the report prints violations
    (["obstruct", "{big}", "{dom}", "--kmax", "2"],
     "echlens.weights", _PACKING_NEVER, "violation at k=1: 8 > 4"),
    # the routes agree, so the job prints DIFF: none and builds no Fraction
    (["domain", "{dom}", "--method", "both", "--kmax", "2"],
     "echlens.paths", _ORACLE_NEVER, "DIFF: none"),
    # the index command's spec lives in domain_cli, but its ellipsoid kind
    # runs the closed form in bijectivity and builds no domain, path or record
    (["index", "ellipsoid", "--n", "2", "--a", "1", "--b", "233/144", "--r", "2", "--s", "0"],
     "echlens.bijectivity", _SPECTRUM_NEVER - {"echlens.domain_cli"} | {"echlens.record"},
     "I = 2"),
    # its orbit kind reads the rotation floors from the domain's int end edges
    (["index", "orbit", "{dom}", "--m-plus", "2",
      "--path", "start=(2,1); edges=[(-2,1)x1]; labels=[e]"],
     "echlens.index", _ORACLE_NEVER - {"echlens.index"}, "I = 18"),
]


def _cold_job(argv, tmp_path):
    """The stdout, exit code and newly loaded modules of a job run in a
    fresh interpreter."""
    dom, big = tmp_path / "example.dom", tmp_path / "big.dom"
    dom.write_text(_DOMAIN)
    big.write_text(_BIG)
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", _LOADED, *(arg.format(dom=dom, big=big) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    code, *loaded = result.stdout.splitlines()[-1].split()
    return result.stdout, int(code), set(loaded)


@pytest.mark.parametrize("argv", [argv for argv, _, _, _ in _JOBS])
def test_cold_job_loads_only_what_it_runs(argv, tmp_path):
    runs, unwanted, line = next((r, u, p) for a, r, u, p in _JOBS if a == argv)
    out, code, loaded = _cold_job(argv, tmp_path)
    assert code == 0
    assert runs in loaded
    assert line in out.splitlines()
    assert not loaded & (_NEVER | unwanted)


@pytest.mark.parametrize("argv, exit_code", [(["-h"], 0), (["ball", "--a", "1", "--kmax", "x"], 2)])
def test_help_and_usage_errors_load_argparse(argv, exit_code, tmp_path):
    _, code, loaded = _cold_job(argv, tmp_path)
    assert code == exit_code
    assert "argparse" in loaded


def _value_error_raises(tree, where):
    """The functions, as module.function, whose own body raises ValueError."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _value_error_raises(node, f"{where.split('.')[0]}.{node.name}")
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.add(where)
        found |= _value_error_raises(node, where)
    return found


def test_each_exit_code_is_one_exception_type():
    # bad input is EchLensError (exit 2), a budget ResourceLimit (3) and a
    # broken invariant AssertionError (4); a ValueError stays inside the two
    # functions whose callers catch it, so cli.main, which catches none, never
    # reads a broken invariant as bad input
    package = os.path.join(SRC, "echlens")
    raising = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            raising |= _value_error_raises(tree, name[:-3])
            if name == "cli.py":
                main = next(node for node in tree.body
                            if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert raising == {"geometry.parse_ratio", "cli._value"}
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught |= {node.id for node in types if isinstance(node, ast.Name)}
    assert caught == {"BrokenPipeError", "ResourceLimit", "EchLensError", "OSError",
                      "AssertionError"}


def test_parse_error_is_raised_only_in_domains():
    # the domain-file format, points included, lives in domains.py alone
    package = os.path.join(SRC, "echlens")
    raising = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == "ParseError":
                        raising.add(name)
            if name == "geometry.py":
                imported = {alias.name for node in ast.walk(tree)
                            if isinstance(node, (ast.Import, ast.ImportFrom))
                            for alias in node.names}
    assert raising == {"domains.py"}
    assert "ParseError" not in imported
