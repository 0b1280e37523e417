"""Exact ECH capacities of concave toric domains in the singular toric
orbifolds M_n with lens-space boundary L(n,1)."""

from .capacities import (
    CapacitySequence,
    ObstructionReport,
    OrbitSetDescriptor,
    capacities_via_oracle,
    capacities_via_weights,
    ellipsoid_orbit_index,
    ellipsoid_sequence,
    index_bijectivity_check,
    obstruction_report,
    orbit_set_index,
    spectrum_from_orbit_indices,
    union_sequence,
)
from .checks import CheckResult, random_concave_domain, run_check
from .domains import (
    ConcaveDomain,
    RotationNumbers,
    boundary_height,
    contains_point,
    domain_area,
    omega_length_blowup,
    omega_length_edge,
    omega_length_path,
    parse_domain_file,
    rotation_numbers,
    scale_domain,
    singular_ball_capacity,
    validate_domain,
)
from .errors import EchLensError
from .geometry import cross, format_rational, in_cone, parse_rational
from .paths import (
    ConcaveGenerator,
    IntegralPath,
    coround_corner,
    empty_path,
    enumerate_paths_up_to,
    generator_index,
    homology_class,
    lattice_count,
    make_path,
    parse_path_text,
    path_from_vertices,
    path_to_text,
)
from .weights import (
    WeightExpansion,
    singular_weight_expansion,
    split_domain,
)

__version__ = "0.1.0"
