"""Normal surfaces and checked certificates of P^2-reducibility.

A closed 3-manifold is P^2-irreducible when every embedded 2-sphere bounds
a ball and it contains no two-sided projective plane.  This module looks
for proof of the opposite on a closed manifold triangulation (in practice
a block triangulation with at most 6 tetrahedra):

* a connected normal surface with Euler characteristic 2 that does not
  separate: a non-separating 2-sphere bounds no ball, so the manifold is
  reducible;
* a connected two-sided normal surface with Euler characteristic 1: a
  two-sided projective plane.

The search enumerates vertex normal surfaces, the admissible extreme rays
of the standard solution cone, by the double description method with
Burton's filtering of rays that break the quadrilateral constraints
(Burton, "Optimizing the double description method for normal surface
enumeration", Math. Comp. 2010).  Vertex surfaces are where essential
spheres and two-sided projective planes show up (Jaco and Tollefson,
"Algorithms for the complete decomposition of a closed 3-manifold",
Illinois J. Math. 1995).  Intermediate rays are sparse: a ray holds only
its nonzero coordinates and its support as a bit set (on the block
triangulations a ray has about 5 nonzero coordinates of up to 42), the
quadrilateral constraints are tested on the support bits of all
tetrahedra at once, and the combinatorial adjacency test (Fukuda and
Prodon, "Double description method revisited", 1996) scans, for each
positive ray, one list of the supports that could witness non-adjacency
with any of its admissible partners, built once per positive ray.

A certificate is a kind plus normal coordinates.  `check_certificate`
rebuilds the surface from the coordinates and the triangulation alone and
trusts nothing from the search.  A certificate that checks proves
P^2-reducibility.  Having no certificate proves nothing: the search tries
only the vertex surfaces and only these two kinds of witness, so a
manifold without a certificate may still be P^2-reducible.

Standard coordinates have 7 entries per tetrahedron: 4 triangle types
(type v cuts off vertex slot v) followed by 3 quadrilateral types (type q
separates the slots {0, q + 1} from the other two).  Quadrilateral copies
are numbered from the side of slot 0, triangle copies from their vertex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .triangulation import Triangulation, class_roots

# _QUAD[a][b]: the quadrilateral type with slots a and b on the same side
_QUAD = ((None, 0, 1, 2), (0, None, 2, 1), (1, 2, None, 0), (2, 1, 0, None))


class CertificateKind(enum.Enum):
    NON_SEPARATING_SPHERE = "non-separating sphere"
    TWO_SIDED_PROJECTIVE_PLANE = "two-sided projective plane"


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    coords: tuple[int, ...]  # standard coordinates, 7 per tetrahedron

    def __post_init__(self):
        if type(self.kind) is not CertificateKind:
            raise ValueError(f"kind {self.kind!r} is not a CertificateKind")
        if type(self.coords) is not tuple or any(type(x) is not int for x in self.coords):
            raise ValueError("coordinates must be a tuple of ints")


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SurfaceSummary:
    euler: int
    connected: bool
    two_sided: bool
    separating: bool  # the mod-2 edge-weight cochain is a coboundary


def _arcs(coords, t: int, f: int, v: int) -> int:
    """Normal arcs around corner v in face f of tetrahedron t."""
    return coords[7 * t + v] + coords[7 * t + 4 + _QUAD[v][f]]


def _edge_weight(coords, t: int, a: int, b: int) -> int:
    c, d = (w for w in range(4) if w not in (a, b))
    return (coords[7 * t + a] + coords[7 * t + b]
            + coords[7 * t + 4 + _QUAD[a][c]] + coords[7 * t + 4 + _QUAD[a][d]])


def matching_equations(tri: Triangulation) -> list[tuple[int, ...]]:
    """One equation per glued face pair and corner: the normal arcs around
    corner v of face f equal those around p[v] on the other side."""
    equations = []
    for t, f, t2, f2, p in tri.face_pairs:
        for v in range(4):
            if v == f:
                continue
            row = [0] * (7 * tri.tet_count)
            row[7 * t + v] += 1
            row[7 * t + 4 + _QUAD[v][f]] += 1
            row[7 * t2 + p[v]] -= 1
            row[7 * t2 + 4 + _QUAD[p[v]][f2]] -= 1
            equations.append(tuple(row))
    return equations


def vertex_normal_surfaces(tri: Triangulation) -> list[tuple[int, ...]]:
    """Primitive integer vectors on the admissible extreme rays of
    {x >= 0 : matching equations}, sorted by disc count then coordinates.

    Double description: start from the orthant's unit rays and cut by one
    equation at a time.  Rays whose support breaks the quadrilateral
    constraints are dropped at every step, and only pairs whose joint
    support is admissible are combined; any ray that could witness
    non-adjacency of such a pair has admissible support itself, so the
    combinatorial adjacency test over the kept rays stays exact.

    A ray is `({index: nonzero value}, support bits)`.  An equation reads
    its at most 4 terms from the rays whose support meets them; the others
    satisfy it.  A combination `ns * p + ps * n` with `ns, ps > 0` has
    exactly the union of the two supports, because no coordinate is
    negative, so it is built over that union and divided by the gcd of
    its values.  With `low` holding bit `7t + 4` of every tetrahedron t,
    `u & low`, `(u >> 1) & low` and `(u >> 2) & low` hold the three
    quadrilateral types of a support `u`, and two of them sharing a bit
    breaks the quadrilateral constraints.  Dense tuples are built once, at
    the end.

    A positive ray p and a negative ray n are adjacent when no other ray
    of the cone before the cut has its support inside `psup | nsup`.  For
    each p, the negative rays whose joint support with p is admissible
    are its partners, `reach` is the union of their supports and p's, and
    p's witness list, built once, holds the supports inside `reach` other
    than `psup`.  Every witness for a pair (p, n) lies inside
    `psup | nsup`, which lies inside `reach`, so scanning that list for a
    support inside the pair's union other than `nsup` tests exactly the
    witnesses a scan of the whole ray set would.  On the 27
    non-orientable block triangulations the lists cut the support tests
    per triangulation from about 14,300 to about 7,600 (3,900 to build
    the lists, 3,700 to scan them).

    The equations are cut in ascending lexicographic order of their
    coefficient rows.  That order takes face pairs roughly by decreasing
    lower tetrahedron, so each prefix of equations touches only the last
    few tetrahedra and the intermediate ray sets stay small; the order of
    the hyperplanes dominates the cost of double description (Burton 2010,
    above).  On the 27 non-orientable block triangulations it cuts the
    largest intermediate ray set from 504 to 105 against the face-pair
    order.  The final cone, and so the output, does not depend on it.
    """
    n = tri.tet_count
    low = sum(1 << (7 * t + 4) for t in range(n))
    rays = [({i: 1}, 1 << i) for i in range(7 * n)]
    for eq in sorted(matching_equations(tri)):
        terms = [(i, c) for i, c in enumerate(eq) if c]
        touched = sum(1 << i for i, _ in terms)
        pos, neg, kept = [], [], []
        for ray in rays:
            vec, sup = ray
            if not sup & touched:
                kept.append(ray)
                continue
            s = 0
            for i, c in terms:
                if i in vec:
                    s += c * vec[i]
            if s > 0:
                pos.append((ray, s))
            elif s < 0:
                neg.append((ray, -s))
            else:
                kept.append(ray)
        if pos and neg:
            supports = [r[1] for r in rays]
            for (pvec, psup), ps in pos:
                partners = []
                reach = psup
                for (nvec, nsup), ns in neg:
                    union = psup | nsup
                    a, b, c = union & low, (union >> 1) & low, (union >> 2) & low
                    if not (a & b) | (a & c) | (b & c):
                        partners.append((nvec, nsup, ns, union))
                        reach |= nsup
                if not partners:
                    continue
                witnesses = [s for s in supports if s | reach == reach and s != psup]
                for nvec, nsup, ns, union in partners:
                    for s in witnesses:
                        if s | union == union and s != nsup:
                            break  # not adjacent
                    else:
                        vec = {i: ns * x for i, x in pvec.items()}
                        for i, x in nvec.items():
                            vec[i] = vec.get(i, 0) + ps * x
                        g = gcd(*vec.values())
                        if g > 1:
                            vec = {i: x // g for i, x in vec.items()}
                        kept.append((vec, union))
        rays = kept
    surfaces = (tuple(vec.get(i, 0) for i in range(7 * n)) for vec, _ in rays)
    return sorted(surfaces, key=lambda v: (sum(v), v))


def _euler_weights(tri: Triangulation) -> tuple[int, ...]:
    """The Euler characteristic as a weight per coordinate: normal points
    minus normal arcs plus discs, counted once per edge orbit and triangle
    orbit."""
    weights = [1] * (7 * tri.tet_count)
    for orbit in tri.edge_orbits:
        t, a, b = orbit.representative
        c, d = (w for w in range(4) if w not in (a, b))
        for i in (a, b, 4 + _QUAD[a][c], 4 + _QUAD[a][d]):
            weights[7 * t + i] += 1
    for t, f, *_ in tri.face_pairs:
        for v in range(4):
            if v != f:
                weights[7 * t + v] -= 1
                weights[7 * t + 4 + _QUAD[v][f]] -= 1
    return tuple(weights)


def normal_euler_characteristic(tri: Triangulation, coords) -> int:
    """Euler characteristic as a linear functional of the coordinates."""
    return sum(w * x for w, x in zip(_euler_weights(tri), coords))


def find_certificate(tri: Triangulation) -> Certificate | None:
    """The first vertex normal surface, in `vertex_normal_surfaces` order,
    that passes `check_certificate` as a non-separating sphere or a
    two-sided projective plane; None when there is none.  A sphere whose
    mod-2 edge-weight cochain is a coboundary separates, so the checker
    would reject it; it is skipped before any disc gluing."""
    kinds = {2: CertificateKind.NON_SEPARATING_SPHERE,
             1: CertificateKind.TWO_SIDED_PROJECTIVE_PLANE}
    weights = _euler_weights(tri)
    for coords in vertex_normal_surfaces(tri):
        kind = kinds.get(sum(w * x for w, x in zip(weights, coords)))
        if kind is None:
            continue
        if kind is CertificateKind.NON_SEPARATING_SPHERE and _is_coboundary(tri, coords):
            continue
        cert = Certificate(kind, coords)
        if check_certificate(tri, cert):
            return cert
    return None


# -- the independent checker ---------------------------------------------------


def _coordinate_problem(tri: Triangulation, coords) -> str | None:
    if tri.has_reversed_edge or not tri.all_links_are_spheres():
        return "the triangulation is not a closed 3-manifold triangulation"
    if len(coords) != 7 * tri.tet_count:
        return f"expected {7 * tri.tet_count} coordinates, got {len(coords)}"
    if any(not isinstance(x, int) or x < 0 for x in coords):
        return "coordinates must be non-negative integers"
    if not any(coords):
        return "the zero vector is not a surface"
    for t in range(tri.tet_count):
        if sum(1 for q in range(3) if coords[7 * t + 4 + q]) > 1:
            return f"quadrilateral constraint fails in tetrahedron {t}"
    for t, f, t2, f2, p in tri.face_pairs:
        for v in range(4):
            if v != f and _arcs(coords, t, f, v) != _arcs(coords, t2, f2, p[v]):
                return (f"matching equation fails on face {t}:{f} -> {t2}:{f2} "
                        f"at corner {v}")
    return None


def summarise_surface(tri: Triangulation, coords) -> SurfaceSummary:
    """Glue the normal discs of `coords` into a closed surface and read off
    its Euler characteristic, connectedness, sidedness and separation.

    Discs are glued along normal arcs, and normal points along tetrahedron
    edges, through the face pairings.  Sidedness propagates a transverse
    side from disc to disc across arcs.  Separation is decided on the
    1-skeleton: the mod-2 edge weights form the cochain dual to the
    surface, whose value on a closed edge path is that path's mod-2
    intersection number with the surface, and the surface separates
    exactly when this cochain is a coboundary.  Raises ValueError when
    the coordinates are not those of a normal surface.
    """
    problem = _coordinate_problem(tri, coords)
    if problem:
        raise ValueError(problem)
    return _summarise(tri, coords)


def _summarise(tri: Triangulation, coords) -> SurfaceSummary:
    first_disc = []
    discs = 0
    for x in coords:
        first_disc.append(discs)
        discs += x

    def arc_discs(t, f, v):
        """(disc, +1 if the disc's positive side faces corner v else -1)
        for the arcs around corner v of face f, ordered outward from v.
        A triangle's positive side faces its vertex, a quadrilateral's
        faces the side of slot 0."""
        out = [(first_disc[7 * t + v] + k, 1) for k in range(coords[7 * t + v])]
        q = _QUAD[v][f]
        copies = range(first_disc[7 * t + 4 + q], first_disc[7 * t + 4 + q] + coords[7 * t + 4 + q])
        if v == 0 or v == q + 1:
            return out + [(d, 1) for d in copies]
        return out + [(d, -1) for d in reversed(copies)]

    # normal points (t, a, b, i) on tetrahedron edges, a < b, i counted from a
    point_index = {}
    for t in range(tri.tet_count):
        for a in range(4):
            for b in range(a + 1, 4):
                for i in range(_edge_weight(coords, t, a, b)):
                    point_index[(t, a, b, i)] = len(point_index)

    def point(t, a, b, i):
        if a < b:
            return point_index[(t, a, b, i)]
        return point_index[(t, b, a, _edge_weight(coords, t, a, b) - 1 - i)]

    # node 2d is the positive side of disc d, node 2d + 1 its negative side
    side_pairs, point_pairs = [], []
    arc_count = 0
    for t, f, t2, f2, p in tri.face_pairs:
        for v in range(4):
            if v == f:
                continue
            here = arc_discs(t, f, v)
            there = arc_discs(t2, f2, p[v])
            arc_count += len(here)
            for (d1, s1), (d2, s2) in zip(here, there):
                flip = int(s1 != s2)
                side_pairs += [(2 * d1, 2 * d2 + flip), (2 * d1 + 1, 2 * d2 + 1 - flip)]
            for w in range(4):
                if w != v and w != f:
                    for i in range(len(here)):
                        point_pairs.append((point(t, v, w, i), point(t2, p[v], p[w], i)))
    sides = class_roots(2 * discs, side_pairs)
    start = {sides[0], sides[1]}
    return SurfaceSummary(
        euler=len(set(class_roots(len(point_index), point_pairs))) - arc_count + discs,
        connected=all(sides[2 * d] in start for d in range(discs)),
        two_sided=all(sides[2 * d] != sides[2 * d + 1] for d in range(discs)),
        separating=_is_coboundary(tri, coords),
    )


def _is_coboundary(tri: Triangulation, coords) -> bool:
    """Whether some labelling g of the vertex orbits by Z/2 has
    g(a) + g(b) equal to the edge weight mod 2 on every edge orbit a-b."""
    vertex = tri.vertex_orbit_index
    pairs = []  # node 2u + g: u labelled g
    for orbit in tri.edge_orbits:
        t, a, b = orbit.representative
        c = _edge_weight(coords, t, a, b) % 2
        u, w = vertex[(t, a)], vertex[(t, b)]
        pairs += [(2 * u, 2 * w + c), (2 * u + 1, 2 * w + 1 - c)]
    parity = class_roots(2 * tri.vertex_orbit_count, pairs)
    return all(parity[2 * u] != parity[2 * u + 1] for u in range(tri.vertex_orbit_count))


def check_certificate(tri: Triangulation, cert: Certificate) -> CertificateCheck:
    """Re-check a certificate from its coordinates and `tri` alone:
    non-negativity, the quadrilateral constraints and the matching
    equations, then connectedness, Euler characteristic and either
    non-separation (sphere) or two-sidedness (projective plane)."""
    problem = _coordinate_problem(tri, cert.coords)
    if problem:
        return CertificateCheck(False, problem)
    s = _summarise(tri, cert.coords)
    expected = 2 if cert.kind is CertificateKind.NON_SEPARATING_SPHERE else 1
    if not s.connected:
        return CertificateCheck(False, "the surface is disconnected")
    if s.euler != expected:
        return CertificateCheck(False, f"euler characteristic {s.euler}, expected {expected}")
    if cert.kind is CertificateKind.NON_SEPARATING_SPHERE and s.separating:
        return CertificateCheck(False, "the sphere separates: its mod-2 edge-weight "
                                       "cochain is a coboundary")
    if cert.kind is CertificateKind.TWO_SIDED_PROJECTIVE_PLANE and not s.two_sided:
        return CertificateCheck(False, "the projective plane is one-sided")
    return CertificateCheck(True, f"connected {cert.kind.value}, euler {s.euler}")
