"""Exact ECH capacities of concave toric domains in the singular toric
orbifolds M_n with lens-space boundary L(n,1).

The names below are re-exported from their submodules, each of which loads
on first use (PEP 562), so a CLI job compiles only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "capacities": (
        "CapacitySequence",
        "ObstructionReport",
        "capacities_via_oracle",
        "capacities_via_weights",
        "ellipsoid_sequence",
        "obstruction_report",
        "union_sequence",
    ),
    "bijectivity": ("index_bijectivity_check", "spectrum_from_orbit_indices"),
    "checks": ("CheckResult", "random_concave_domain", "run_check"),
    "domains": (
        "ConcaveDomain",
        "domain_area",
        "omega_length_edge",
        "parse_domain_file",
        "scale_domain",
        "singular_ball_capacity",
        "validate_domain",
    ),
    "ellipsoid": (),
    "errors": ("EchLensError",),
    "geometry": ("cross", "format_rational", "in_cone", "parse_rational"),
    "index": (
        "ConcaveGenerator",
        "OrbitSetDescriptor",
        "RotationNumbers",
        "boundary_height",
        "coround_corner",
        "ellipsoid_orbit_index",
        "generator_index",
        "homology_class",
        "make_path",
        "orbit_set_index",
        "parse_path_text",
        "path_from_vertices",
        "path_to_text",
        "rotation_numbers",
    ),
    "paths": ("IntegralPath", "empty_path", "enumerate_paths_up_to", "lattice_count"),
    "weights": ("WeightExpansion", "singular_weight_expansion", "split_domain"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules themselves, then every name they export
__all__ = [*_EXPORTS, *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
