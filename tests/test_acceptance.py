"""Acceptance suite: one check per classification claim, one line each.

The paper's theorem is about P^2-irreducible manifolds: the closed
non-orientable P^2-irreducible manifolds glued from one cube are the four
flat ones.  The full census holds more non-orientable manifolds (the
twisted 2-sphere bundle over the circle, projective plane times circle and
a connected sum), which no homology fingerprint can tell apart from
irreducible ones.  Checks 3 and 4 therefore test the P^2-irreducible part:
the non-orientable classes that carry no certificate of P^2-reducibility,
a non-separating normal sphere or a two-sided normal projective plane that
`check_certificate` re-checks from its normal coordinates.  Dropping a
class needs a checked proof that it lies outside the theorem, so the claim
is still tested in the right direction: a lost or faulty certificate makes
both checks fail.

`cubecensus verify` check (a) counts fingerprints over all non-orientable
classes and still finds 7, so it still fails;
`test_verify_counts_nonorientable_fingerprints` pins that count.
"""

import dataclasses
import time

import pytest

from cubecensus.algebra import AbelianInvariants, IntegerMatrix, smith_normal_form
from cubecensus.blocks import BlockKind, block_valences, mismatch_report, select_block
from cubecensus.blocks import assemble_triangulation
from cubecensus.census import (
    reference_table,
    render_records,
    run_census,
)
from cubecensus.cube_complex import (
    build_quotient,
    cone_subdivide,
    is_closed_manifold,
    orientation_double_cover,
    parse_gluing_text,
    quotient_chain_complex,
    quotient_is_orientable,
)
from cubecensus.algebra import h1_of_chain_complex
from cubecensus.enumeration import enumerate_raw
from cubecensus.normal_surfaces import Certificate, check_certificate


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_block_valence_golden_tables():
    t0 = time.time()
    expected = {
        BlockKind.FLIPPED: (4, (1, 3, 3, 3, 3, 3)),
        BlockKind.FIVE_VALENT: (5, (2, 2, 2, 2, 3, 3)),
        BlockKind.FOUR_VALENT: (4, (2, 2, 3, 3, 3, 3)),
    }
    actual = {kind: block_valences(kind) for kind in expected}
    elapsed = time.time() - t0
    ok = actual == expected and elapsed < 1.0
    report(1, ok, f"block valences {actual}, {elapsed:.3f}s")
    assert actual == expected
    assert elapsed < 1.0


def test_criterion_2_selection_totality_and_small_assemblies():
    t0 = time.time()
    assembled = 0
    for g in enumerate_raw(opposite_only=False):
        choice = select_block(g)
        assert mismatch_report(g, choice.pattern).mismatch_count == 0
        if is_closed_manifold(g.to_spec()).ok:
            tri = assemble_triangulation(g)
            assert tri.tet_count <= 6
            assembled += 1
    elapsed = time.time() - t0
    ok = assembled > 0 and elapsed < 30.0
    report(2, ok, f"7680 gluings selected, {assembled} manifolds assembled, {elapsed:.1f}s")
    assert assembled > 0
    assert elapsed < 30.0


SOL_H1 = AbelianInvariants(1, ())  # Z from the base circle, trivial cokernel


def uncertified_nonorientable_rows(rows, certificates):
    """The non-orientable manifold rows without a P^2-reducibility
    certificate.  Every certificate must pass the checker, and no row that
    matches a reference may carry one."""
    nonor = [r for r in rows if r.manifold and not r.orientable]
    assert {r.class_id for r in nonor} == set(certificates)
    for class_id, cert in certificates.items():
        if cert is not None:
            tri = assemble_triangulation(parse_gluing_text(class_id))
            check = check_certificate(tri, cert)
            assert check, f"certificate of {class_id} rejected: {check.reason}"
    flat_but_certified = [r.class_id for r in nonor if r.reference and certificates[r.class_id]]
    assert not flat_but_certified, (
        f"flat classes carry P^2-reducibility certificates: {flat_but_certified}")
    return [r for r in nonor if certificates[r.class_id] is None]


def uncertified_fingerprints(rows, certificates) -> set[str]:
    return {str(r.fingerprint()) for r in uncertified_nonorientable_rows(rows, certificates)}


def h1_z_offenders(rows, certificates) -> list[str]:
    return [r.class_id for r in uncertified_nonorientable_rows(rows, certificates)
            if r.h1 == SOL_H1]


def test_criterion_3_four_flat_nonorientable_classes(full_census, p2_certificates):
    t0 = time.time()
    report_fresh = run_census(opposite_only=False)
    elapsed = time.time() - t0
    refs = reference_table()
    ref_fps = {str(e.expected_fingerprint) for e in refs}

    all_fps = {str(r.fingerprint()) for r in report_fresh.rows
               if r.manifold and not r.orientable}
    certified = sum(1 for c in p2_certificates.values() if c is not None)
    nonor_fps = uncertified_fingerprints(report_fresh.rows, p2_certificates)
    matched = {fp for fp in nonor_fps if fp in ref_fps}
    distinct_refs = len(ref_fps) == 4
    covered = all(
        any(r.reference == e.name for r in report_fresh.rows if r.manifold)
        for e in refs)

    ok = (len(nonor_fps) == 4 and matched == nonor_fps
          and distinct_refs and covered and elapsed < 60.0)
    report(3, ok,
           f"{len(all_fps)} non-orientable fingerprint classes, {certified} classes "
           f"certified P^2-reducible; {len(nonor_fps)} fingerprint classes remain "
           f"({len(matched)} matching the 4 distinct references), census {elapsed:.1f}s")
    assert distinct_refs and covered
    assert elapsed < 60.0
    assert len(nonor_fps) == 4 and matched == nonor_fps, (
        "the non-orientable classes without a P^2-reducibility certificate "
        f"have fingerprints other than the four flat ones: {sorted(nonor_fps - matched)}")


def test_criterion_4_no_nonorientable_class_with_h1_z(full_census, p2_certificates):
    # the excluded torus bundle has H1 = Z: cokernel of (monodromy - I)
    # [[0, 1], [1, -1]] as sparse rows of (column, value) pairs
    monodromy_minus_i = IntegerMatrix(2, 2, (((1, 1),), ((0, 1), (1, -1))))
    assert smith_normal_form(monodromy_minus_i).invariants == (1, 1)

    all_h1_z = [r.class_id for r in full_census.rows
                if r.manifold and not r.orientable and r.h1 == SOL_H1]
    offenders = h1_z_offenders(full_census.rows, p2_certificates)
    ok = not offenders
    report(4, ok, f"non-orientable classes with H1=Z: {len(all_h1_z)}, "
                  f"{len(all_h1_z) - len(offenders)} certified P^2-reducible, "
                  f"uncertified: {len(offenders)}")
    assert not offenders, (
        "H1 = Z classes without a P^2-reducibility certificate: the twisted "
        "2-sphere bundle over the circle shares the torus bundle's whole "
        "homology fingerprint, so only a checked non-separating sphere tells "
        "them apart (the valence-4 argument of criterion 5 is the executable "
        f"exclusion of the torus bundle): {offenders}")


def test_criteria_3_and_4_fail_when_a_certificate_is_lost(full_census, p2_certificates):
    h1_z = next(r.class_id for r in full_census.rows
                if r.manifold and not r.orientable and r.h1 == SOL_H1)
    assert p2_certificates[h1_z] is not None
    doctored = dict(p2_certificates, **{h1_z: None})
    assert len(uncertified_fingerprints(full_census.rows, doctored)) == 5
    assert h1_z_offenders(full_census.rows, doctored) == [h1_z]


def test_criteria_3_and_4_fail_when_a_certificate_is_faulty(full_census, p2_certificates):
    class_id, cert = next((k, c) for k, c in sorted(p2_certificates.items()) if c is not None)
    coords = list(cert.coords)
    coords[coords.index(0)] += 1
    doctored = dict(p2_certificates, **{class_id: Certificate(cert.kind, tuple(coords))})
    with pytest.raises(AssertionError, match="rejected"):
        uncertified_fingerprints(full_census.rows, doctored)
    with pytest.raises(AssertionError, match="rejected"):
        h1_z_offenders(full_census.rows, doctored)


def test_criteria_3_and_4_fail_when_a_flat_class_is_certified(full_census, p2_certificates):
    certified = next(k for k, c in sorted(p2_certificates.items()) if c is not None)
    rows = tuple(dataclasses.replace(r, reference="K2 x S1") if r.class_id == certified else r
                 for r in full_census.rows)
    with pytest.raises(AssertionError, match="flat classes carry"):
        uncertified_fingerprints(rows, p2_certificates)
    with pytest.raises(AssertionError, match="flat classes carry"):
        h1_z_offenders(rows, p2_certificates)


def test_criterion_5_valence_four_in_every_non_five_tet_manifold(full_census):
    violations = [r.class_id for r in full_census.rows
                  if r.manifold and r.block_kind != "five-tetrahedron"
                  and 4 not in r.valences]
    ok = not violations
    report(5, ok, f"valence-4 violations: {violations or 'none'}")
    assert not violations


def test_criterion_6_double_covers_lift(full_census):
    refs = reference_table()
    flat_rows = [r for r in full_census.rows
                 if r.manifold and not r.orientable and r.reference]
    assert {r.reference for r in flat_rows} == {e.name for e in refs}
    checked = 0
    for row in full_census.rows:
        if not row.manifold or row.orientable:
            continue
        spec = parse_gluing_text(row.class_id).to_spec()
        cover = orientation_double_cover(spec)
        assert cover.cube_count == 2
        assert is_closed_manifold(cover).ok
        assert quotient_is_orientable(cover)
        assert build_quotient(cover).euler_characteristic() == 0
        checked += 1
    k2 = next(e for e in refs if e.name == "K2 x S1")
    cover = orientation_double_cover(k2.gluing.to_spec())
    h1 = h1_of_chain_complex(*quotient_chain_complex(build_quotient(cover)))
    ok = (h1.rank, h1.torsion) == (3, ())
    report(6, ok, f"{checked} non-orientable classes lift; K2xS1 cover H1 = {h1}")
    assert ok


def test_criterion_7_three_way_homology_agreement(full_census):
    checked = 0
    for row in full_census.rows:
        if not row.manifold:
            continue
        gluing = parse_gluing_text(row.class_id)
        q = build_quotient(gluing.to_spec())
        h1_cells = h1_of_chain_complex(*quotient_chain_complex(q))
        h1_block = h1_of_chain_complex(*assemble_triangulation(gluing).chain_complex())
        h1_cone = h1_of_chain_complex(*cone_subdivide(gluing.to_spec()).chain_complex())
        assert h1_cells == h1_block == h1_cone, row.class_id
        assert h1_cells == row.h1
        checked += 1
    report(7, True, f"H1 agreement across three chain complexes for {checked} manifolds")
    assert checked == 56


def test_criterion_8_orientable_side_contains_the_small_spaces(full_census):
    orientable_h1 = {r.h1 for r in full_census.rows if r.manifold and r.orientable}
    needed = {AbelianInvariants(0, ()), AbelianInvariants(0, (2,)), AbelianInvariants(0, (4,))}
    ok = needed <= orientable_h1
    report(8, ok, f"orientable H1 values include {sorted(map(str, needed))}: {ok}")
    assert ok


def test_criterion_9_census_determinism(full_census):
    first = render_records(run_census(opposite_only=False))
    second = render_records(run_census(opposite_only=False))
    ok = first == second == render_records(full_census)
    report(9, ok, f"byte-identical structured reports ({len(first)} bytes)")
    assert ok
