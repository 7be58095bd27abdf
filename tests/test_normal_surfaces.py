"""Normal surface enumeration and the P^2-reducibility certificate checker,
with negative controls the checker must reject."""

import hashlib
from math import gcd

import pytest

from cubecensus.algebra import AbelianInvariants, IntegerMatrix, smith_normal_form
from cubecensus.blocks import assemble_triangulation
from cubecensus.census import classify, reference_table
from cubecensus.cube_complex import parse_gluing_text
from cubecensus.normal_surfaces import (
    Certificate,
    CertificateKind,
    _euler_weights,
    _is_coboundary,
    check_certificate,
    find_certificate,
    matching_equations,
    normal_euler_characteristic,
    summarise_surface,
    vertex_normal_surfaces,
)

S2_BUNDLE = "+x -x r1m / +y +z r0 / -y -z r0"  # H1 = Z, five tetrahedra
RP3_LIKE = "+x -x r2 / +y -y r2 / +z -z r2"  # orientable, H1 = Z/2
Z = AbelianInvariants(1, ())


def tri_of(text):
    return assemble_triangulation(parse_gluing_text(text))


def admissible(tri, v):
    return all(sum(1 for q in range(3) if v[7 * t + 4 + q]) <= 1 for t in range(tri.tet_count))


def unfiltered_double_description(tri):
    """Slow oracle: plain double description over the whole cone with the
    equations in reverse order, quadrilateral constraints applied last."""
    dim = 7 * tri.tet_count
    rays = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    for eq in reversed(matching_equations(tri)):
        dots = [sum(a * b for a, b in zip(eq, r)) for r in rays]
        supports = [frozenset(i for i, x in enumerate(r) if x) for r in rays]
        new = [r for r, d in zip(rays, dots) if d == 0]
        for i, dp in enumerate(dots):
            for j, dn in enumerate(dots):
                if dp <= 0 or dn >= 0:
                    continue
                union = supports[i] | supports[j]
                if any(s <= union for k, s in enumerate(supports) if k not in (i, j)):
                    continue
                v = [-dn * a + dp * b for a, b in zip(rays[i], rays[j])]
                g = 0
                for x in v:
                    g = gcd(g, x)
                new.append(tuple(x // g for x in v))
        rays = new
    return sorted((v for v in rays if admissible(tri, v)), key=lambda v: (sum(v), v))


def face_pair_order_surfaces(tri):
    """Oracle: the filtered double description of `vertex_normal_surfaces`
    with the equations cut in `matching_equations` (face pair) order
    instead of sorted order."""
    quad_masks = [0b111 << (7 * t + 4) for t in range(tri.tet_count)]

    def admissible_support(support):
        return all((support & m) & ((support & m) - 1) == 0 for m in quad_masks)

    dim = 7 * tri.tet_count
    rays = [(tuple(int(i == j) for j in range(dim)), 1 << i) for i in range(dim)]
    for eq in matching_equations(tri):
        terms = [(i, c) for i, c in enumerate(eq) if c]
        pos, neg, kept = [], [], []
        for ray in rays:
            s = sum(c * ray[0][i] for i, c in terms)
            if s > 0:
                pos.append((ray, s))
            elif s < 0:
                neg.append((ray, -s))
            else:
                kept.append(ray)
        supports = [r[1] for r in rays]
        for (pvec, psup), ps in pos:
            for (nvec, nsup), ns in neg:
                union = psup | nsup
                if not admissible_support(union):
                    continue
                if any(s | union == union and s != psup and s != nsup for s in supports):
                    continue
                vec = [ns * a + ps * b for a, b in zip(pvec, nvec)]
                g = 0
                for x in vec:
                    g = gcd(g, x)
                kept.append((tuple(x // g for x in vec), union))
        rays = kept
    return sorted((vec for vec, _ in rays), key=lambda v: (sum(v), v))


def vertex_link(tri, orbit):
    coords = [0] * (7 * tri.tet_count)
    for (t, v), o in tri.vertex_orbit_index.items():
        if o == orbit:
            coords[7 * t + v] += 1
    return tuple(coords)


def test_vertex_surfaces_are_admissible_extreme_rays():
    for gluing in [parse_gluing_text(S2_BUNDLE)] + [e.gluing for e in reference_table()]:
        tri = assemble_triangulation(gluing)
        equations = matching_equations(tri)
        surfaces = vertex_normal_surfaces(tri)
        assert surfaces
        for v in surfaces:
            assert type(v) is tuple and len(v) == 7 * tri.tet_count
            assert all(type(x) is int for x in v) and any(v)
            assert all(x >= 0 for x in v) and admissible(tri, v)
            assert all(sum(a * b for a, b in zip(eq, v)) == 0 for eq in equations)
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1
            rows = [tuple(eq) for eq in equations]
            rows += [tuple(int(j == i) for j in range(len(v))) for i, x in enumerate(v) if x == 0]
            m = IntegerMatrix(len(rows), len(v), tuple(
                tuple((j, x) for j, x in enumerate(row) if x) for row in rows))
            assert smith_normal_form(m).rank == len(v) - 1


def test_vertex_surfaces_agree_with_unfiltered_double_description():
    tri = tri_of(S2_BUNDLE)
    assert vertex_normal_surfaces(tri) == unfiltered_double_description(tri)


def test_vertex_surfaces_agree_with_face_pair_order(manifold_rows):
    nonor = [r for r in manifold_rows if not r.orientable]
    assert len(nonor) == 27
    for row in nonor:
        tri = tri_of(row.class_id)
        assert vertex_normal_surfaces(tri) == face_pair_order_surfaces(tri), row.class_id


def test_vertex_link_is_a_separating_sphere_and_is_rejected():
    tri = tri_of(S2_BUNDLE)
    for orbit in range(tri.vertex_orbit_count):
        link = vertex_link(tri, orbit)
        summary = summarise_surface(tri, link)
        assert (summary.euler, summary.connected, summary.two_sided, summary.separating) \
            == (2, True, True, True)
        check = check_certificate(tri, Certificate(CertificateKind.NON_SEPARATING_SPHERE, link))
        assert not check and "separates" in check.reason


def test_checker_rejects_a_broken_matching_equation():
    tri = tri_of(S2_BUNDLE)
    cert = find_certificate(tri)
    assert cert is not None and cert.kind is CertificateKind.NON_SEPARATING_SPHERE
    assert check_certificate(tri, cert)
    summary = summarise_surface(tri, cert.coords)
    assert summary.two_sided and not summary.separating
    coords = list(cert.coords)
    coords[0] += 1  # one more triangle about vertex slot 0 of tetrahedron 0
    check = check_certificate(tri, Certificate(cert.kind, tuple(coords)))
    assert not check and "matching equation" in check.reason
    with pytest.raises(ValueError, match="matching equation"):
        summarise_surface(tri, tuple(coords))


def test_checker_rejects_malformed_coordinates():
    tri = tri_of(S2_BUNDLE)
    cert = find_certificate(tri)
    sphere = CertificateKind.NON_SEPARATING_SPHERE
    negative = (-1,) + cert.coords[1:]
    two_quads = list(cert.coords)
    two_quads[4] = two_quads[5] = 1
    for coords, reason in ((cert.coords[:-1], "coordinates"),
                           (negative, "non-negative"),
                           ((0,) * len(cert.coords), "zero vector"),
                           (tuple(two_quads), "quadrilateral constraint")):
        check = check_certificate(tri, Certificate(sphere, coords))
        assert not check and reason in check.reason


def test_checker_rejects_one_sided_projective_plane():
    row = classify(parse_gluing_text(RP3_LIKE))
    assert row.manifold and row.orientable and row.h1 == AbelianInvariants(0, (2,))
    tri = tri_of(RP3_LIKE)
    planes = [v for v in vertex_normal_surfaces(tri) if normal_euler_characteristic(tri, v) == 1]
    assert planes
    for v in planes:
        summary = summarise_surface(tri, v)
        assert summary.connected and summary.euler == 1 and not summary.two_sided
        check = check_certificate(tri, Certificate(CertificateKind.TWO_SIDED_PROJECTIVE_PLANE, v))
        assert not check and "one-sided" in check.reason
    assert find_certificate(tri) is None


@pytest.mark.parametrize("entry", reference_table(), ids=lambda e: e.name)
def test_no_certificate_for_reference_gluings(entry):
    tri = assemble_triangulation(entry.gluing)
    assert find_certificate(tri) is None
    surfaces = vertex_normal_surfaces(tri)
    assert surfaces
    for v in surfaces:
        assert normal_euler_characteristic(tri, v) == summarise_surface(tri, v).euler
        for kind in CertificateKind:
            assert not check_certificate(tri, Certificate(kind, v))


def test_certificates_cover_exactly_the_unidentified_classes(manifold_rows, p2_certificates):
    nonor = [r for r in manifold_rows if not r.orientable]
    assert len(nonor) == 27
    kinds = {}
    for row in nonor:
        cert = p2_certificates[row.class_id]
        assert (cert is None) == (row.reference is not None), row.class_id
        if cert is not None:
            assert type(cert.coords) is tuple
            assert check_certificate(tri_of(row.class_id), cert)
            kinds.setdefault(cert.kind, []).append(row)
    spheres = kinds[CertificateKind.NON_SEPARATING_SPHERE]
    planes = kinds[CertificateKind.TWO_SIDED_PROJECTIVE_PLANE]
    assert (len(spheres), len(planes)) == (5, 10)
    # every H1 = Z class carries a non-separating sphere; RP^2 x S^1 has
    # H1 = Z + Z/2 with an H1 = Z double cover
    assert sum(1 for r in spheres if r.h1 == Z) == 4
    assert all((r.h1, r.double_cover_h1) == (AbelianInvariants(1, (2,)), Z) for r in planes)


@pytest.mark.parametrize("make", [
    lambda coords: Certificate("sphere", coords),
    lambda coords: Certificate(CertificateKind.NON_SEPARATING_SPHERE, None),
    lambda coords: Certificate(CertificateKind.NON_SEPARATING_SPHERE,
                               tuple(True if x == 1 else x for x in coords)),
], ids=["kind-as-string", "coords-none", "coords-with-bool"])
def test_certificate_rejects_fields_the_checker_would_misread(make):
    cert = find_certificate(tri_of(S2_BUNDLE))
    assert 1 in cert.coords
    with pytest.raises(ValueError):
        make(cert.coords)


@pytest.fixture(scope="module")
def manifold_surfaces(manifold_rows):
    """(row, triangulation, vertex surfaces) of the 56 manifold classes in
    census order."""
    out = []
    for row in manifold_rows:
        tri = tri_of(row.class_id)
        out.append((row, tri, vertex_normal_surfaces(tri)))
    return out


def test_vertex_surfaces_and_certificates_of_manifold_classes_are_pinned(manifold_surfaces):
    # sha256 taken from the double description that scanned every ray for
    # a witness and glued every sphere candidate before rejecting it
    assert len(manifold_surfaces) == 56
    digest = hashlib.sha256()
    for row, tri, surfaces in manifold_surfaces:
        cert = find_certificate(tri)
        kind = cert.kind.value if cert else None
        coords = cert.coords if cert else None
        digest.update(f"{row.class_id} | {surfaces} | {kind} | {coords}\n".encode())
    assert digest.hexdigest() == "be5a5cd321dba8098ae09e95287fb49bd8f08598697e8fb82f8800ef47b8b111"


def test_euler_weights_and_sphere_rejection_agree_with_disc_gluing(manifold_surfaces):
    rejected = 0
    for row, tri, surfaces in manifold_surfaces:
        weights = _euler_weights(tri)
        for v in surfaces:
            euler = sum(w * x for w, x in zip(weights, v))
            assert euler == normal_euler_characteristic(tri, v) == summarise_surface(tri, v).euler
            if euler == 2 and _is_coboundary(tri, v):
                check = check_certificate(tri, Certificate(CertificateKind.NON_SEPARATING_SPHERE, v))
                assert not check and "separates" in check.reason, row.class_id
                rejected += 1
    assert rejected
