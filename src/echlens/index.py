"""ECH index formulas for orbit sets.

One formula, orbit_set_index, prices an orbit set with exceptional-orbit
powers over a concave domain; the ellipsoid index is that formula on the
ellipsoid's triangle.  The bijectivity check (bijectivity.py) prices the
same index for every orbit set of E_n(a, b) in a window.
"""

from __future__ import annotations

from .domains import ConcaveDomain, rotation_numbers, validate_domain
from .ellipsoid import ellipsoid_ints
from .errors import HomologyNotZero, MismatchedN, PathError
from .geometry import floor_sum, in_cone
from .paths import ConcaveGenerator, IntegralPath, empty_path, generator_index
from .record import Record


def ellipsoid_orbit_index(n: int, a, b, r: int, s: int) -> int:
    """Index of the orbit set e+^r e-^s of E_n(a, b): orbit_set_index on the
    ellipsoid's triangle (n*a, a) (0, b) with the empty generator."""
    ia, ib, _ = ellipsoid_ints(n, a, b)
    # orbit_set_index's guards, with messages in the caller's r and s
    if r < 0 or s < 0:
        raise ValueError("multiplicities must be non-negative")
    if (r + s) % n != 0:
        raise HomologyNotZero(f"r + s = {r + s} is not a multiple of n = {n}")
    # the index depends on the rotation numbers, so only on the ratio b/a
    triangle = validate_domain(n, ((n * ia, ia), (0, ib)))
    empty = ConcaveGenerator(path=empty_path(n), labels=())
    return orbit_set_index(triangle, OrbitSetDescriptor(r, s, empty))


class OrbitSetDescriptor(Record):
    __slots__ = ("m_plus", "m_minus", "generator")  # generator: paths.ConcaveGenerator


def orbit_set_index(domain: ConcaveDomain, orbit: OrbitSetDescriptor) -> int:
    """Index of an orbit set with exceptional-orbit powers: the combinatorial
    index of the auxiliary path (m_plus horizontal unit edges, the
    generator's edges, m_minus horizontal unit edges), plus 2 per
    exceptional orbit and twice each rotation floor sum.

    The floors are read under a perturbation of the end edges that moves
    phi_plus down and phi_minus up, as E_n(a, b) -> E_n(a, b(1+eps)) does
    on the ellipsoid's triangle: floor'(i*phi_plus) is i*phi_plus - 1 where
    that is an integer, so floor'(x) >= x - 1 with equality at integers."""
    n = domain.n
    gen = orbit.generator
    if gen.path.n != n:
        raise MismatchedN(f"generator path has n={gen.path.n}, domain has n={n}")
    m_plus, m_minus = orbit.m_plus, orbit.m_minus
    if m_plus < 0 or m_minus < 0:
        raise ValueError("exceptional multiplicities must be non-negative")
    run = m_plus + m_minus + sum(-d[0] * m for d, m in gen.path.edges)
    if run % n != 0:
        raise HomologyNotZero(f"total horizontal run {run} is not a multiple of n = {n}")
    big_m = run // n
    edges = (((-1, 0), m_plus), *gen.path.edges, ((-1, 0), m_minus))
    aux = IntegralPath(n, (big_m * n, big_m), tuple(e for e in edges if e[1]))
    for v in aux.vertices():
        if not in_cone(v, n):
            raise PathError(f"auxiliary path vertex {v} leaves the cone")
    rot = rotation_numbers(domain)
    total = generator_index(ConcaveGenerator(aux, gen.labels)) + 2 * m_plus + 2 * m_minus
    # each sum runs over 1 <= i <= m of (i*p - shift) // q, phi = p/q: an
    # integral i*phi_plus counts one less, as at E_n(a, b(1+eps))
    for phi, m, shift in ((rot.phi_plus, m_plus, 1), (rot.phi_minus, m_minus, 0)):
        p, q = phi.numerator, phi.denominator
        total += 2 * floor_sum(m, q, p, p - shift)
    return total
