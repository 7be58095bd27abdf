"""Census pipeline: references, classification rows, verification logic."""

import dataclasses
import hashlib
import re

import pytest

from cubecensus import census
from cubecensus.algebra import (
    AbelianInvariants,
    h1_of_chain_complex,
    h1_with_coefficients,
    mod_p_dimension,
)
from cubecensus.blocks import assemble_triangulation
from cubecensus.census import (
    Fingerprint,
    classify,
    compute_fingerprint,
    reference_table,
    render_records,
    render_text,
    render_verification,
    run_census,
    verify_theorem,
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
from cubecensus.enumeration import canonical_form

T3 = "+x -x r0 / +y -y r0 / +z -z r0"
K2XS1 = "+x -x r1m / +y -y r0 / +z -z r0"


def test_reference_table_entries_validate():
    refs = reference_table()
    assert [e.name for e in refs] == [
        "K2 x S1",
        "T2 x I / [0 1 | 1 0]",
        "K2 x I / [1 0 | 0 -1]",
        "K2 x I / [-1 1 | 0 -1]",
    ]
    for entry in refs:
        assert len(entry.seifert_notations) == 3
        assert is_closed_manifold(entry.gluing.to_spec()).ok
        assert not quotient_is_orientable(entry.gluing.to_spec())
    fps = {str(e.expected_fingerprint) for e in refs}
    assert len(fps) == 4


def test_reference_fingerprint_values():
    refs = {e.name: e.expected_fingerprint for e in reference_table()}
    assert str(refs["K2 x S1"].h1) == "Z^2 + Z/2"
    assert str(refs["K2 x S1"].double_cover_h1) == "Z^3"
    assert str(refs["T2 x I / [0 1 | 1 0]"].h1) == "Z^2"
    assert str(refs["K2 x I / [1 0 | 0 -1]"].h1) == "Z + Z/2 + Z/2"
    assert str(refs["K2 x I / [-1 1 | 0 -1]"].h1) == "Z + Z/4"


def test_classify_t3():
    row = classify(parse_gluing_text(T3))
    assert row.manifold and row.orientable
    assert row.h1 == AbelianInvariants(3, ())
    assert row.h1_mod2 == 3 and row.h1_mod3 == 3
    assert row.reference is None
    assert row.block_kind == "four-valent"
    assert row.fingerprint() == compute_fingerprint(parse_gluing_text(T3))


def test_classify_k2_matches_reference():
    row = classify(parse_gluing_text(K2XS1))
    assert row.manifold and not row.orientable
    assert row.reference == "K2 x S1"
    assert row.double_cover_h1 == AbelianInvariants(3, ())
    assert row.double_cover_orientable and row.double_cover_euler == 0


def test_classify_non_manifold_row():
    g = parse_gluing_text("+x -x r0m / +y -y r0m / +z -z r0")
    check = is_closed_manifold(g.to_spec())
    if check.ok:
        pytest.skip("example gluing unexpectedly a manifold")
    row = classify(g)
    assert not row.manifold
    assert "link" in row.diagnostic
    assert row.tet_count is None and row.h1 is None
    assert row.block_kind  # selection works for non-manifolds too


@pytest.fixture
def counted_calls(monkeypatch):
    """Count `is_closed_manifold` calls per spec and `select_block` calls
    per gluing, through every module binding of the two functions."""
    from cubecensus import blocks, cube_complex

    reference_table()  # cached; its own manifold tests are not counted
    tests, selections = {}, {}

    def counting(func, counts, key):
        def wrapper(arg):
            counts[key(arg)] = counts.get(key(arg), 0) + 1
            return func(arg)
        return wrapper

    test = counting(cube_complex.is_closed_manifold, tests, lambda spec: spec)
    select = counting(blocks.select_block, selections, lambda g: g.sort_key())
    for module in (cube_complex, blocks, census):
        monkeypatch.setattr(module, "is_closed_manifold", test)
    for module in (blocks, census):
        monkeypatch.setattr(module, "select_block", select)
    return tests, selections


def test_classify_tests_and_selects_once(counted_calls):
    tests, selections = counted_calls
    row = classify(parse_gluing_text(K2XS1))
    assert row.manifold and not row.orientable
    assert list(tests.values()) == [1]
    assert list(selections.values()) == [1]


def test_census_tests_and_selects_each_class_once(counted_calls):
    tests, selections = counted_calls
    report = run_census(True)
    assert len(tests) == len(selections) == report.summary.total_classes == 56
    assert set(tests.values()) == set(selections.values()) == {1}


def test_census_lifts_one_cover_per_nonorientable_class(monkeypatch):
    """Each non-orientable class lifts its double cover once, and builds
    the cover's quotient once, for both H1 and the Euler characteristic.
    Each manifold class builds its own quotient once, for both the manifold
    test and H1, and a non-manifold class builds none."""
    from cubecensus import cube_complex

    reference_table()  # cached; its own quotients and covers are not counted
    lifts, cover_quotients, class_quotients = {}, {}, {}
    double_cover, from_roots = cube_complex.double_cover, cube_complex._quotient_from_roots

    def lift(spec):
        lifts[spec] = lifts.get(spec, 0) + 1
        return double_cover(spec)

    def build(spec, v_root, e_root):
        counts = cover_quotients if spec.cube_count == 2 else class_quotients
        counts[spec] = counts.get(spec, 0) + 1
        return from_roots(spec, v_root, e_root)

    for module in (cube_complex, census):
        monkeypatch.setattr(module, "double_cover", lift)
    # every quotient, from `build_quotient` or a passing manifold check
    monkeypatch.setattr(cube_complex, "_quotient_from_roots", build)
    report = run_census(True)
    nonorientable = [r for r in report.rows if r.manifold and not r.orientable]
    assert nonorientable
    assert len(lifts) == len(cover_quotients) == len(nonorientable)
    assert set(lifts.values()) == set(cover_quotients.values()) == {1}
    assert all(r.double_cover_orientable and r.double_cover_euler == 0 for r in nonorientable)
    manifolds = {parse_gluing_text(r.class_id).to_spec() for r in report.rows if r.manifold}
    assert len(manifolds) == report.summary.manifold_classes == 18
    assert report.summary.nonmanifold_classes == 38
    assert set(class_quotients) == manifolds
    assert set(class_quotients.values()) == {1}


def test_census_builds_no_triangulation(monkeypatch):
    """A record's tetCount and valences come from the block choice and
    the quotient, so neither `classify` nor the census glues a block."""
    from cubecensus.triangulation import Triangulation

    built = []
    init = Triangulation.__init__

    def counting(self, gluings):
        built.append(gluings)
        init(self, gluings)

    monkeypatch.setattr(Triangulation, "__init__", counting)
    assert not hasattr(census, "glue_block")
    row = classify(parse_gluing_text(T3))
    assert row.manifold and (row.tet_count, row.valences) == (6, (4, 4, 4, 6, 6, 6, 6))
    assert run_census(False).summary.manifold_classes == 56
    assert built == []
    assemble_triangulation(parse_gluing_text(T3))  # the counter sees a gluing
    assert len(built) == 1


def test_census_rows_are_canonical_and_unique(full_census):
    ids = [r.class_id for r in full_census.rows]
    assert len(ids) == len(set(ids)) == full_census.summary.total_classes
    for row in full_census.rows[::29]:
        assert canonical_form(parse_gluing_text(row.class_id)).class_id == row.class_id


def test_census_summary_counts(full_census):
    s = full_census.summary
    assert s.total_classes == 313
    assert s.manifold_classes + s.nonmanifold_classes == s.total_classes
    assert s.manifold_classes == 56
    assert dict(s.reference_matches).keys() == {e.name for e in reference_table()}
    assert all(count > 0 for _, count in s.reference_matches)


def test_reference_closure_in_census(full_census):
    # each reference gluing lands in a census class matching its own fingerprint
    by_id = {r.class_id: r for r in full_census.rows}
    for entry in reference_table():
        class_id = canonical_form(entry.gluing).class_id
        row = by_id[class_id]
        assert row.reference == entry.name
        assert row.fingerprint() == entry.expected_fingerprint


def test_fingerprint_round_trip_through_records(full_census):
    for row in full_census.rows:
        if row.manifold:
            fp = row.fingerprint()
            assert isinstance(fp, Fingerprint)
            assert (fp.double_cover_h1 is None) == row.orientable


def test_verify_checks_c_and_d_pass(full_census):
    result = verify_theorem(full_census)
    by_label = {c.label.split(":")[0]: c for c in result.checks}
    assert by_label["c"].passed, by_label["c"].detail
    assert by_label["d"].passed, by_label["d"].detail


def test_verify_counts_nonorientable_fingerprints(full_census):
    result = verify_theorem(full_census)
    by_label = {c.label.split(":")[0]: c for c in result.checks}
    # the one-cube census also contains non-orientable manifolds that are
    # not P^2-irreducible (e.g. the twisted 2-sphere bundle over the
    # circle), so more than the four flat fingerprints occur
    assert "found 7" in by_label["a"].detail


def test_verify_negative_control_extra_class(full_census):
    fake = dataclasses.replace(
        full_census.rows[0],
        class_id="synthetic",
        manifold=True,
        orientable=False,
        h1=AbelianInvariants(9, ()),
        h1_mod2=9,
        h1_mod3=9,
        double_cover_h1=AbelianInvariants(9, ()),
        double_cover_orientable=True,
        double_cover_euler=0,
        tet_count=6,
        valences=(4, 4, 4, 6, 6, 6, 6),
        block_kind="flipped",
        reference=None,
    )
    doctored = dataclasses.replace(full_census, rows=full_census.rows + (fake,))
    result = verify_theorem(doctored)
    by_label = {c.label.split(":")[0]: c for c in result.checks}
    assert "found 8" in by_label["a"].detail
    assert not by_label["b"].passed


def test_verify_negative_control_perturbed_reference(full_census):
    rows = []
    for row in full_census.rows:
        if row.reference == "K2 x S1":
            row = dataclasses.replace(row, h1=AbelianInvariants(2, (4,)), reference=None)
        rows.append(row)
    doctored = dataclasses.replace(full_census, rows=tuple(rows))
    result = verify_theorem(doctored)
    by_label = {c.label.split(":")[0]: c for c in result.checks}
    assert not by_label["b"].passed


def test_record_rendering_is_deterministic(full_census):
    text = render_records(full_census)
    lines = text.splitlines()
    assert lines[0].startswith('{"importedFacts"')
    assert len(lines) == full_census.summary.total_classes + 2
    assert render_records(full_census) == text
    assert render_text(full_census)


def test_all_block_kinds_occur_in_the_census(full_census):
    kinds = dict(full_census.summary.block_kind_counts)
    assert set(kinds) == {"five-tetrahedron", "flipped", "five-valent", "four-valent"}
    assert all(count > 0 for count in kinds.values())


def test_orientability_agreement_across_routes(manifold_rows, raw_manifold_gluings):
    from cubecensus.blocks import assemble_triangulation
    from cubecensus.cube_complex import cone_subdivide

    assert len(manifold_rows) == 56
    for row in manifold_rows:
        gluing = parse_gluing_text(row.class_id)
        spec = gluing.to_spec()
        assert (assemble_triangulation(gluing).is_orientable()
                == cone_subdivide(spec).is_orientable()
                == quotient_is_orientable(spec)
                == row.orientable)
    assert len(raw_manifold_gluings) == 625
    for gluing in raw_manifold_gluings:
        assert (assemble_triangulation(gluing).is_orientable()
                == quotient_is_orientable(gluing.to_spec())), str(gluing)


def test_assembled_manifolds_have_sphere_links(raw_manifold_gluings):
    from cubecensus.blocks import assemble_triangulation

    assert len(raw_manifold_gluings) == 625
    for gluing in raw_manifold_gluings:
        tri = assemble_triangulation(gluing)
        assert tri.all_links_are_spheres(), str(gluing)
        assert tri.euler_characteristic() == 0, str(gluing)


def test_opposite_only_census_runs():
    report = run_census(opposite_only=True)
    assert report.summary.total_classes == 56
    assert report.opposite_only


def test_classify_from_class_text_matches_census_rows(full_census):
    # the census hands `classify` its canonical class; classifying the
    # class text alone recomputes the class and must give the same row
    for row in full_census.rows:
        assert classify(parse_gluing_text(row.class_id)) == row, row.class_id


def test_records_bytes_are_pinned(full_census):
    digests = {
        "full": hashlib.sha256(render_records(full_census).encode()).hexdigest(),
        "opposite-only": hashlib.sha256(
            render_records(run_census(opposite_only=True)).encode()).hexdigest(),
    }
    assert digests == {
        "full": "eef20d9443399756aefdc121d9355032690ad8b2fc0d41995efaec86bbdb5401",
        "opposite-only": "6c3517f1fec1507cef9976409a0715b99d1a3661b9c6ce25e399f2f5313cda05",
    }


def test_text_and_verification_bytes_are_pinned(full_census):
    digests = {
        "text": hashlib.sha256(render_text(full_census).encode()).hexdigest(),
        "verify": hashlib.sha256(
            render_verification(verify_theorem(full_census)).encode()).hexdigest(),
    }
    assert digests == {
        "text": "6b27ac00f3b493369b140584f3a72b69230da558ce2f2aa4da5ef89084a93a21",
        "verify": "e9d340930116a2814a3c63f98819ac1f5afe1edc73503617bc0bb9446ab5adf4",
    }


def test_mod_p_dimensions_agree_with_field_coefficients(manifold_rows):
    # universal coefficients against a second SNF over Z/p, on every
    # manifold quotient and every orientation double cover
    checked = 0
    for row in manifold_rows:
        spec = parse_gluing_text(row.class_id).to_spec()
        specs = [spec] if row.orientable else [spec, orientation_double_cover(spec)]
        for s in specs:
            d2, d1 = quotient_chain_complex(build_quotient(s))
            h1 = h1_of_chain_complex(d2, d1)
            oracle = tuple(h1_with_coefficients(d2, d1, p) for p in (2, 3))
            assert (mod_p_dimension(h1, 2), mod_p_dimension(h1, 3)) == oracle, row.class_id
            if s is spec:
                assert (row.h1_mod2, row.h1_mod3) == oracle, row.class_id
            checked += 1
    assert checked == 56 + 27


def test_double_cover_euler_agrees_with_cone_subdivision(manifold_rows):
    nonor = [row for row in manifold_rows if not row.orientable]
    assert len(nonor) == 27
    for row in nonor:
        cover = orientation_double_cover(parse_gluing_text(row.class_id).to_spec())
        euler = build_quotient(cover).euler_characteristic()
        assert euler == cone_subdivide(cover).euler_characteristic() == row.double_cover_euler


def test_a_failing_class_is_named(monkeypatch):
    def broken(gluing, canon=None):
        raise ValueError("boom")

    monkeypatch.setattr(census, "classify", broken)
    first = census.enumerate_canonical(True)[0]
    with pytest.raises(RuntimeError, match=re.escape(f"classifying {first.class_id}: boom")) as info:
        run_census(True)
    assert isinstance(info.value.__cause__, ValueError)


def test_package_exports_no_test_oracles():
    # the slow independent paths stay importable from their modules (this
    # file imports all three from there), but are not part of the package API
    import cubecensus

    removed = {"cone_subdivide", "h1_with_coefficients", "orientation_double_cover",
               "ALREADY_ORIENTABLE", "euler_characteristic", "LinkSummary",
               "EdgeValenceProfile"}
    assert removed.isdisjoint(cubecensus.__all__)
    assert not [name for name in removed if hasattr(cubecensus, name)]
    assert all(map(callable, (cone_subdivide, h1_with_coefficients, orientation_double_cover)))
