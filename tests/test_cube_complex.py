"""Cube conventions, gluing quotients and the manifold test.

The orbit-counting oracle used here is an independent fixed-point closure
over explicit coordinate maps; it shares no code with the union-find in
the library.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecensus.algebra import h1_of_chain_complex
from cubecensus.cube_complex import (
    ALL_SQUARE_SYMMETRIES,
    ALREADY_ORIENTABLE,
    CHARTS,
    CORNER_COORDS,
    FACES,
    REVERSAL,
    CubeGluing,
    CubulationSpec,
    Face,
    GluingPair,
    GluingSpecError,
    ManifoldCheck,
    SquareSymmetry,
    build_quotient,
    cone_subdivide,
    corner_id,
    double_cover,
    gluing_index_map,
    is_closed_manifold,
    orientation_double_cover,
    parse_gluing_text,
    quotient_chain_complex,
    quotient_is_orientable,
    subdivision_vertex_label,
)
from cubecensus.enumeration import enumerate_raw, orbit_of

T3 = "+x -x r0 / +y -y r0 / +z -z r0"
K2XS1 = "+x -x r1m / +y -y r0 / +z -z r0"
REFERENCE_GLUINGS = [
    K2XS1,
    "+x -x r0 / +y -y r0 / +z -z r0m",
    "+x -x r1m / +y -y r0 / +z -z r1m",
    "+x -y r3 / -x +y r1 / +z -z r0m",
]


# -- independent closure oracle ------------------------------------------------


def closure_orbits(items, maps):
    """Partition items under the symmetric transitive closure of the given
    partial maps, by plain repeated merging of sets."""
    groups = [{item} for item in items]
    changed = True
    while changed:
        changed = False
        for mapping in maps:
            for src, dst in mapping.items():
                gi = next(i for i, g in enumerate(groups) if src in g)
                gj = next(i for i, g in enumerate(groups) if dst in g)
                if gi != gj:
                    groups[gi] |= groups[gj]
                    del groups[gj]
                    changed = True
    return groups


def coordinate_corner_maps(coordinate_map):
    """Corner identification dict of a face gluing given as a coordinate map."""
    out = {}
    for c in range(8):
        image = coordinate_map(CORNER_COORDS[c])
        if image is not None:
            out[c] = corner_id(*image)
    return out


def coordinate_edge_maps(coordinate_map):
    out = {}
    corner = coordinate_corner_maps(coordinate_map)
    for a, b in itertools.combinations(range(8), 2):
        if sum(x != y for x, y in zip(CORNER_COORDS[a], CORNER_COORDS[b])) != 1:
            continue
        if a in corner and b in corner:
            out[frozenset((a, b))] = frozenset((corner[a], corner[b]))
    return out


def t3_coordinate_maps():
    def x_map(p):
        return (1, p[1], p[2]) if p[0] == 0 else None

    def y_map(p):
        return (p[0], 1, p[2]) if p[1] == 0 else None

    def z_map(p):
        return (p[0], p[1], 1) if p[2] == 0 else None

    return [x_map, y_map, z_map]


def k2_coordinate_maps():
    def x_map(p):  # translation composed with a mirror: Klein direction
        return (1, p[1], 1 - p[2]) if p[0] == 0 else None

    def y_map(p):
        return (p[0], 1, p[2]) if p[1] == 0 else None

    def z_map(p):
        return (p[0], p[1], 1) if p[2] == 0 else None

    return [x_map, y_map, z_map]


# -- charts and symmetries -----------------------------------------------------


def test_charts_counterclockwise_from_outside():
    # independent re-derivation: outward cross product at every chart step
    for face in FACES:
        chart = CHARTS[face]
        assert chart[0] == min(chart)
        for i in range(4):
            a, b, c = chart[i], chart[(i + 1) % 4], chart[(i + 2) % 4]
            pa, pb, pc = (CORNER_COORDS[x] for x in (a, b, c))
            e1 = tuple(pb[k] - pa[k] for k in range(3))
            e2 = tuple(pc[k] - pb[k] for k in range(3))
            cross = (e1[1] * e2[2] - e1[2] * e2[1],
                     e1[2] * e2[0] - e1[0] * e2[2],
                     e1[0] * e2[1] - e1[1] * e2[0])
            assert cross[face.axis] == face.sign
            assert all(cross[k] == 0 for k in range(3) if k != face.axis)


def test_charts_frozen_values():
    expected = {
        "+x": (4, 6, 7, 5), "-x": (0, 1, 3, 2),
        "+y": (2, 3, 7, 6), "-y": (0, 4, 5, 1),
        "+z": (1, 5, 7, 3), "-z": (0, 2, 6, 4),
    }
    assert {str(f): CHARTS[f] for f in FACES} == expected


def test_face_labels():
    assert len(FACES) == 6
    assert len({str(f) for f in FACES}) == 6
    for f in FACES:
        assert f.opposite().axis == f.axis
        assert f.opposite().sign == -f.sign
        assert f.opposite().opposite() == f
        assert Face.from_str(str(f)) == f


@pytest.mark.parametrize("cls, args", [
    (SquareSymmetry, (True, False)),  # printed as rTrue, which does not parse
    (SquareSymmetry, (1, "m")),
    (SquareSymmetry, (1.0, False)),
    (SquareSymmetry, (1, 0)),
    (Face, (True, 1)),
    (Face, (0, True)),
    (Face, (0.0, 1)),
    (Face, (2, -1.0)),
])
def test_face_and_symmetry_fields_must_be_ints_and_a_bool(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


def test_square_symmetry_group_laws():
    syms = ALL_SQUARE_SYMMETRIES
    assert len(syms) == 8
    identity = SquareSymmetry(0, False)
    for a in syms:
        assert sorted(a.apply(i) for i in range(4)) == [0, 1, 2, 3]
        assert a.compose(identity) == identity.compose(a) == a
        inv = a.inverse()
        assert a.compose(inv) == identity and inv.compose(a) == identity
        for b in syms:
            ab = a.compose(b)
            assert ab in syms
            for i in range(4):
                assert ab.apply(i) == a.apply(b.apply(i))
            for c in syms:
                assert (a.compose(b)).compose(c) == a.compose(b.compose(c))


def test_square_symmetry_round_trip():
    for sym in ALL_SQUARE_SYMMETRIES:
        assert SquareSymmetry.from_str(str(sym)) == sym


# -- parser ---------------------------------------------------------------------


def test_parse_t3_round_trip():
    g = parse_gluing_text("+x -x r0\n+y -y r0\n+z -z r0")
    assert g.serialize() == T3
    assert parse_gluing_text(T3).serialize() == T3


def test_parse_rejects_duplicate_faces():
    with pytest.raises(GluingSpecError) as err:
        parse_gluing_text("+x -x r0\n+x -y r0\n+z -z r0")
    assert err.value.line == 2


def test_parse_rejects_self_gluing_and_bad_tokens():
    with pytest.raises(GluingSpecError):
        parse_gluing_text("+x +x r0\n+y -y r0\n+z -z r0")
    with pytest.raises(GluingSpecError) as err:
        parse_gluing_text("+x -x r0\n+y -y r9\n+z -z r0")
    assert err.value.line == 2
    with pytest.raises(GluingSpecError):
        parse_gluing_text("+x -x r0\n+y -y r0")


def test_parse_allows_comments_and_blank_lines():
    g = parse_gluing_text("# torus\n\n+x -x r0\n+y -y r0\n\n+z -z r0\n")
    assert g.serialize() == T3


# -- gluing map semantics --------------------------------------------------------


def test_t3_gluing_maps_are_translations():
    g = parse_gluing_text(T3)
    for pair in g.pairs:
        cmap = pair.corner_map()
        axis = pair.face_a.axis
        for src, dst in cmap.items():
            ps, pd = CORNER_COORDS[src], CORNER_COORDS[dst]
            assert ps[axis] == 1 and pd[axis] == 0
            assert all(ps[k] == pd[k] for k in range(3) if k != axis)


def test_k2_gluing_map_is_a_mirror_translation():
    g = parse_gluing_text(K2XS1)
    pair = g.pairs[0]
    cmap = pair.corner_map()
    # +x -x r1m sends (1,y,z) to (0,y,1-z)
    for src, dst in cmap.items():
        ps, pd = CORNER_COORDS[src], CORNER_COORDS[dst]
        assert (pd[0], pd[1], pd[2]) == (0, ps[1], 1 - ps[2])


def test_pair_swap_is_the_inverse_identification():
    for face_a, face_b in itertools.permutations(FACES, 2):
        for sym in ALL_SQUARE_SYMMETRIES:
            pair = GluingPair(face_a, face_b, sym)
            back = pair.swapped()
            cmap = pair.corner_map()
            assert (back.face_a, back.face_b) == (face_b, face_a)
            assert back.corner_map() == {v: k for k, v in cmap.items()}, str(pair)


def test_normalised_is_idempotent_and_blind_to_the_side_written_from():
    # a face paired with itself is written with the smaller symmetry name;
    # swapping alone would turn `+x +x r1m` into `+x +x r3m` and back
    for face_a, face_b in itertools.product(FACES, repeat=2):
        for sym in ALL_SQUARE_SYMMETRIES:
            pair = GluingPair(face_a, face_b, sym)
            norm = pair.normalised()
            assert norm.normalised() == norm == pair.swapped().normalised(), str(pair)
            assert norm.face_a.index <= norm.face_b.index
    pair = GluingPair(Face(0, 1), Face(0, 1), SquareSymmetry.from_str("r3m"))
    assert str(pair.normalised()) == "+x +x r1m"


# -- quotients against the closure oracle -----------------------------------------


def test_t3_quotient_counts_match_closure_oracle():
    maps = t3_coordinate_maps()
    corner_orbits = closure_orbits(range(8), [coordinate_corner_maps(m) for m in maps])
    edges = [frozenset(e) for e in itertools.combinations(range(8), 2)
             if sum(x != y for x, y in zip(CORNER_COORDS[e[0]], CORNER_COORDS[e[1]])) == 1]
    edge_orbits = closure_orbits(edges, [coordinate_edge_maps(m) for m in maps])
    assert len(corner_orbits) == 1
    assert len(edge_orbits) == 3

    q = build_quotient(parse_gluing_text(T3).to_spec())
    assert q.vertex_orbit_count == len(corner_orbits) == 1
    assert q.edge_orbit_count == len(edge_orbits) == 3
    assert q.square_count == 3
    assert q.cube_count == 1
    assert not q.reversed_edge_orbits


def test_k2_quotient_counts_match_closure_oracle():
    maps = k2_coordinate_maps()
    corner_orbits = closure_orbits(range(8), [coordinate_corner_maps(m) for m in maps])
    edges = [frozenset(e) for e in itertools.combinations(range(8), 2)
             if sum(x != y for x, y in zip(CORNER_COORDS[e[0]], CORNER_COORDS[e[1]])) == 1]
    edge_orbits = closure_orbits(edges, [coordinate_edge_maps(m) for m in maps])

    q = build_quotient(parse_gluing_text(K2XS1).to_spec())
    assert q.vertex_orbit_count == len(corner_orbits)
    assert q.edge_orbit_count == len(edge_orbits)
    assert q.euler_characteristic() == 0


def test_k2_library_corner_maps_match_coordinate_maps():
    g = parse_gluing_text(K2XS1)
    expected = [coordinate_corner_maps(m) for m in k2_coordinate_maps()]
    for pair in g.pairs:
        cmap = pair.corner_map()
        swapped = {v: k for k, v in cmap.items()}
        assert cmap in expected or swapped in expected


def test_every_one_cube_gluing_has_three_square_orbits():
    sample = itertools.islice(enumerate_raw(False), 0, 7680, 613)
    for g in sample:
        q = build_quotient(g.to_spec())
        assert q.square_count == 3
        assert q.euler_characteristic() == (
            q.vertex_orbit_count - q.edge_orbit_count + 2)


def test_euler_formula_arithmetic():
    q = build_quotient(parse_gluing_text(T3).to_spec())
    assert q.euler_characteristic() == 1 - 3 + 3 - 1 == 0


# -- cone subdivision --------------------------------------------------------------


def test_subdivision_size_and_closedness():
    tri = cone_subdivide(parse_gluing_text(T3).to_spec())
    assert tri.tet_count == 48  # 8 triangles per face, coned to the centre
    assert tri.is_closed
    assert not tri.has_reversed_edge


def test_subdivision_counts_midpoints_and_centres():
    # torus quotient: 1 corner orbit, 3 edge midpoints, 3 square centres, 1 cube centre
    tri = cone_subdivide(parse_gluing_text(T3).to_spec())
    assert tri.vertex_orbit_count == 8
    assert tri.euler_characteristic() == 0


def test_t3_subdivision_homology():
    tri = cone_subdivide(parse_gluing_text(T3).to_spec())
    h1 = h1_of_chain_complex(*tri.chain_complex())
    assert (h1.rank, h1.torsion) == (3, ())


def test_double_cover_spec_subdivides_to_twice_the_size():
    cover = orientation_double_cover(parse_gluing_text(K2XS1).to_spec())
    assert cover.cube_count == 2
    assert cone_subdivide(cover).tet_count == 96


# sha256 of repr(cone_subdivide(spec).gluings), taken from the earlier
# construction that glued each cube's sides and halves by their chart positions
CONE_TABLE_SHA256 = {
    T3: "dbe1619a972cfa138166c8afa5357c3fbe47f4b0f78c9e9f92b2704e8e144f09",
    K2XS1: "71c1a843c56e75283fae325e69e8111adce10aae3ec8cc4d57e3b79488eedf3f",
    REFERENCE_GLUINGS[1]: "d8962a8c2c584c8a51aa3ba8646784d98da24839af8fbb547e63ec849c42b9b3",
    REFERENCE_GLUINGS[2]: "f039622cb1579fe4a5fd220fcf8e417a5b0eabbac20cf0151f945684e0532954",
    REFERENCE_GLUINGS[3]: "18e29b35bae3a66ef34389b939e6dbda7c28689be9dd8e4009fc9953b29d5c7a",
    "+x -x r0 / +y -y r1 / +z -z r1": "f3c06b1a1d156b12f5e6aa12cdd2a5a22de10c6f3a325a2edf82612dfe911c74",
}
K2XS1_COVER_CONE_SHA256 = "31a9582967e19e35e2b65918ada36c0d09a15d7bff7b4b0f00ee4b7033a92fa7"


def _cone_digest(spec):
    return hashlib.sha256(repr(cone_subdivide(spec).gluings).encode()).hexdigest()


def test_cone_gluing_tables_are_pinned():
    specs = {text: parse_gluing_text(text).to_spec() for text in CONE_TABLE_SHA256}
    assert [is_closed_manifold(spec).ok for spec in specs.values()] == [True] * 5 + [False]
    assert {text: _cone_digest(spec) for text, spec in specs.items()} == CONE_TABLE_SHA256
    cover = orientation_double_cover(parse_gluing_text(K2XS1).to_spec())
    assert _cone_digest(cover) == K2XS1_COVER_CONE_SHA256


def test_every_cone_gluing_matches_face_f_to_face_f_slot_to_slot():
    specs = [parse_gluing_text(text).to_spec() for text in CONE_TABLE_SHA256]
    specs.append(orientation_double_cover(parse_gluing_text(K2XS1).to_spec()))
    for spec in specs:
        for faces in cone_subdivide(spec).gluings:
            assert [(f2, p) for (_, f2), p in faces] == [(f, (0, 1, 2, 3)) for f in range(4)]


def test_cubulation_spec_rejects_bad_slots():
    pairs = parse_gluing_text(T3).pairs
    assert CubulationSpec(1, tuple((0, 0, p) for p in pairs)).cube_count == 1
    repeated = ((0, 0, pairs[0]), (0, 0, pairs[0]), (0, 0, pairs[2]))
    out_of_range = ((0, 0, pairs[0]), (0, 1, pairs[1]), (0, 0, pairs[2]))
    for cube_count, entries in ((1, repeated), (1, ((0, 0, pairs[0]),)),
                                (1, out_of_range), (2, tuple((0, 0, p) for p in pairs))):
        with pytest.raises(ValueError):
            CubulationSpec(cube_count, entries)


def _t3_entries():
    return tuple((0, 0, p) for p in parse_gluing_text(T3).pairs)


def _with_first_entry(entry):
    return (entry,) + _t3_entries()[1:]


def _self_glued():
    # a legal pair on its own: +x of one cube glued to +x of another
    return GluingPair(Face(0, 1), Face(0, 1), SquareSymmetry(0, False))


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: CubulationSpec(1.0, _t3_entries()), "cube_count", id="float-cube-count"),
    pytest.param(lambda: CubulationSpec(1, list(_t3_entries())), "pairs", id="list-of-entries"),
    pytest.param(lambda: CubulationSpec(1, _with_first_entry((0, 0, "x"))), "entry",
                 id="str-pair"),
    pytest.param(lambda: CubulationSpec(1, _with_first_entry((0, 0))), "entry", id="short-entry"),
    pytest.param(lambda: CubulationSpec(1, _with_first_entry((0, True, _t3_entries()[0][2]))),
                 "entry", id="bool-cube-index"),
    pytest.param(lambda: CubulationSpec(2, tuple(
        (True if (c, d) == (1, 1) else c, d, p)
        for c, d, p in double_cover(CubulationSpec(1, _t3_entries())).pairs)),
        "entry", id="bool-cube-index-in-range"),
    pytest.param(lambda: GluingPair(Face(0, 1), Face(0, -1), "r0"), "sym", id="str-sym"),
    pytest.param(lambda: GluingPair("+x", Face(0, -1), SquareSymmetry(0, False)), "face_a",
                 id="str-face"),
    pytest.param(lambda: CubulationSpec(1, _with_first_entry((0, 0, _self_glued()))), "slot",
                 id="face-glued-to-itself"),
    pytest.param(lambda: CubeGluing((_self_glued(),) + parse_gluing_text(T3).pairs[1:]),
                 "each face", id="face-glued-to-itself-in-a-gluing"),
    pytest.param(lambda: CubulationSpec(0, ()), "cube_count", id="empty-complex"),
    pytest.param(lambda: CubeGluing(list(parse_gluing_text(T3).pairs)), "pairs", id="list-of-pairs"),
    pytest.param(lambda: CubeGluing(parse_gluing_text(T3).pairs[:2]), "pairs", id="two-pairs"),
])
def test_gluing_types_reject_malformed_fields_by_name(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_the_double_of_the_cube_is_the_three_sphere():
    # each face of cube 0 glued to the same face of cube 1 by r0m, whose
    # chart map is the identity
    sym = SquareSymmetry.from_str("r0m")
    assert gluing_index_map(sym) == (0, 1, 2, 3)
    spec = CubulationSpec(2, tuple((0, 1, GluingPair(f, f, sym)) for f in FACES))
    check = is_closed_manifold(spec)
    assert check.ok and quotient_is_orientable(spec)
    h1_cells = h1_of_chain_complex(*quotient_chain_complex(check.quotient))
    h1_cone = h1_of_chain_complex(*cone_subdivide(spec).chain_complex())
    assert (h1_cells.rank, h1_cells.torsion) == (h1_cone.rank, h1_cone.torsion) == (0, ())


# -- manifold recognition -----------------------------------------------------------


def test_reference_gluings_are_closed_manifolds():
    for text in [T3] + REFERENCE_GLUINGS:
        check = is_closed_manifold(parse_gluing_text(text).to_spec())
        assert check.ok, (text, check.diagnostic)


def test_nonzero_euler_characteristic_is_never_a_manifold():
    found = 0
    for g in enumerate_raw(True):
        q = build_quotient(g.to_spec())
        if q.euler_characteristic() != 0:
            check = is_closed_manifold(g.to_spec())
            assert not check.ok
            assert "link" in check.diagnostic
            found += 1
            if found >= 8:
                break
    assert found


def test_manifold_iff_zero_euler_of_the_subdivision():
    # The honest Euler characteristic (from the subdivision, whose cells are
    # genuine cells even when cube edges fold onto themselves) vanishes
    # exactly on manifolds.  The naive cube-cell count agrees whenever no
    # edge orbit is reversed.
    step = 0
    for g in enumerate_raw(False):
        step += 1
        if step % 97:
            continue
        spec = g.to_spec()
        q = build_quotient(spec)
        tri = cone_subdivide(spec)
        ok = is_closed_manifold(spec).ok
        assert (tri.euler_characteristic() == 0) == ok
        if not q.reversed_edge_orbits:
            assert tri.euler_characteristic() == q.euler_characteristic()


# -- the cone subdivision as the oracle of the manifold test ---------------------------


def cone_check(spec):
    """The manifold test on the cone subdivision: every vertex link a
    2-sphere, else the first failing vertex orbit, labelled by its first
    (tet, slot)."""
    tri = cone_subdivide(spec)
    failing = tri.link_spheres_diagnostic()
    if failing is None:
        return ManifoldCheck(True, "all vertex links are 2-spheres")
    orbit, euler = failing
    rep = min((t, v) for (t, v), o in tri.vertex_orbit_index.items() if o == orbit)
    label = subdivision_vertex_label(*rep)
    return ManifoldCheck(
        False,
        f"vertex orbit {orbit} {label}: link euler={euler}, connected=True",
    )


RAW_GLUINGS = list(enumerate_raw(False))


def test_gluing_index_map_is_the_symmetry_after_the_reversal():
    maps = {s: gluing_index_map(s) for s in ALL_SQUARE_SYMMETRIES}
    for s, imap in maps.items():
        assert imap == tuple(s.apply(REVERSAL.apply(i)) for i in range(4))
    assert len(set(maps.values())) == 8


def test_manifold_test_agrees_with_the_cone_on_every_raw_gluing():
    manifolds = 0
    for g in RAW_GLUINGS:
        spec = g.to_spec()
        check = is_closed_manifold(spec)
        assert check == cone_check(spec), str(g)
        manifolds += check.ok
    assert (len(RAW_GLUINGS), manifolds) == (7680, 625)


def test_manifold_test_agrees_with_the_cone_on_every_double_cover():
    covers = 0
    for g in RAW_GLUINGS:
        spec = g.to_spec()
        if not is_closed_manifold(spec).ok or quotient_is_orientable(spec):
            continue
        cover = orientation_double_cover(spec)
        assert is_closed_manifold(cover) == cone_check(cover), str(g)
        covers += 1
    assert covers == 255


def _two_cube_lifts():
    # every sheet pattern (w_1, w_2, w_3) of a two-sheeted lift, most of
    # them non-manifolds, so failures on cube 1 are diagnosed too
    for g in RAW_GLUINGS[::61]:
        for pattern in itertools.product((0, 1), repeat=3):
            yield g, pattern, CubulationSpec(2, tuple(
                (s, s ^ w, p) for p, w in zip(g.pairs, pattern) for s in (0, 1)))


def test_manifold_test_agrees_with_the_cone_on_two_cube_lifts():
    lifts = failures = 0
    for g, pattern, spec in _two_cube_lifts():
        check = is_closed_manifold(spec)
        assert check == cone_check(spec), (str(g), pattern)
        lifts += 1
        failures += not check.ok
    assert (lifts, failures) == (1008, 915)


def test_only_a_passing_check_carries_the_quotient():
    raw = [g.to_spec() for g in RAW_GLUINGS]
    covers = [double_cover(spec) for spec in raw
              if is_closed_manifold(spec).ok and not quotient_is_orientable(spec)]
    lifts = [spec for _, _, spec in _two_cube_lifts()]
    assert (len(raw), len(covers), len(lifts)) == (7680, 255, 1008)
    passed = 0
    for spec in raw + covers + lifts:
        check = is_closed_manifold(spec)
        if check.ok:
            assert check.quotient == build_quotient(spec)
            passed += 1
        else:
            assert check.quotient is None
    assert passed == 625 + 255 + 1008 - 915


def test_a_passing_check_builds_its_quotient_when_it_is_first_read(monkeypatch):
    from cubecensus import cube_complex

    builds = []
    from_roots = cube_complex._quotient_from_roots

    def build(spec, v_root, e_root):
        builds.append(spec)
        return from_roots(spec, v_root, e_root)

    monkeypatch.setattr(cube_complex, "_quotient_from_roots", build)
    spec = parse_gluing_text(T3).to_spec()
    check = is_closed_manifold(spec)
    assert check.ok and builds == []
    quotient = check.quotient
    assert builds == [spec]
    assert check.quotient is quotient and builds == [spec]
    failing = is_closed_manifold(parse_gluing_text("+x -x r0m / +y -y r0m / +z -z r0m").to_spec())
    assert not failing.ok and failing.quotient is None and builds == [spec]


def test_twice_euler_sums_the_link_defects_of_the_cone():
    # the identity the manifold test rests on, checked on the independent
    # complex: with no reversed edge orbit, 2 chi(M) = sum of (2 - chi(link))
    quotients = [(spec, build_quotient(spec)) for spec in (g.to_spec() for g in RAW_GLUINGS)]
    unreversed = [(spec, q) for spec, q in quotients if not q.reversed_edge_orbits]
    assert all(q.euler_characteristic() >= 0 for _, q in unreversed)
    covers = [double_cover(spec) for spec, _ in quotients
              if is_closed_manifold(spec).ok and not quotient_is_orientable(spec)]
    assert (len(unreversed), len(covers)) == (625 + 3848, 255)
    specs = covers + [spec for spec, _ in unreversed[::8]]
    for spec in specs:
        tri = cone_subdivide(spec)
        defects = sum(2 - tri.link_euler(o) for o in range(tri.vertex_orbit_count))
        assert 2 * build_quotient(spec).euler_characteristic() == defects


def _with_pairs_swapped(g, swaps):
    return CubeGluing(tuple(p.swapped() if swap else p for p, swap in zip(g.pairs, swaps)))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(RAW_GLUINGS), st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_manifoldness_and_euler_are_invariant_under_relabelling(g, swaps):
    def invariants(h):
        spec = h.to_spec()
        return is_closed_manifold(spec).ok, build_quotient(spec).euler_characteristic()

    expected = invariants(g)
    for h in orbit_of(g):
        assert invariants(h) == expected, (str(g), str(h))
    assert invariants(_with_pairs_swapped(g, swaps)) == expected


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(RAW_GLUINGS))
def test_serialized_gluings_parse_back(g):
    assert parse_gluing_text(g.serialize()) == g


# -- orientability and double covers ---------------------------------------------------


def test_t3_already_orientable():
    assert orientation_double_cover(parse_gluing_text(T3).to_spec()) == ALREADY_ORIENTABLE


def test_k2_double_cover_is_the_three_torus():
    spec = parse_gluing_text(K2XS1).to_spec()
    assert not quotient_is_orientable(spec)
    cover = orientation_double_cover(spec)
    assert cover.cube_count == 2
    assert quotient_is_orientable(cover)
    assert is_closed_manifold(cover).ok
    q = build_quotient(cover)
    assert q.euler_characteristic() == 0
    h1 = h1_of_chain_complex(*quotient_chain_complex(q))
    assert (h1.rank, h1.torsion) == (3, ())


def test_double_cover_rejects_non_manifold_input():
    for g in enumerate_raw(True):
        spec = g.to_spec()
        if not is_closed_manifold(spec).ok:
            with pytest.raises(ValueError):
                orientation_double_cover(spec)
            break


def test_double_cover_always_orientable_and_double_size():
    found = 0
    for g in enumerate_raw(True):
        spec = g.to_spec()
        if not is_closed_manifold(spec).ok or quotient_is_orientable(spec):
            continue
        cover = orientation_double_cover(spec)
        assert cover.cube_count == 2 * spec.cube_count
        assert quotient_is_orientable(cover)
        found += 1
        if found >= 10:
            break
    assert found


def test_quotient_h1_matches_subdivision_h1_on_samples():
    step = 0
    for g in enumerate_raw(False):
        step += 1
        if step % 241:
            continue
        spec = g.to_spec()
        if not is_closed_manifold(spec).ok:
            continue
        q = build_quotient(spec)
        h1_cells = h1_of_chain_complex(*quotient_chain_complex(q))
        h1_cone = h1_of_chain_complex(*cone_subdivide(spec).chain_complex())
        assert h1_cells == h1_cone


def test_quotient_h1_matches_subdivision_h1_on_every_double_cover():
    """The covers are two-cube complexes, so the edge signs of their
    quotients are read across cubes."""
    covers = 0
    for g in RAW_GLUINGS:
        spec = g.to_spec()
        if not is_closed_manifold(spec).ok or quotient_is_orientable(spec):
            continue
        cover = double_cover(spec)
        h1_cells = h1_of_chain_complex(*quotient_chain_complex(build_quotient(cover)))
        assert h1_cells == h1_of_chain_complex(*cone_subdivide(cover).chain_complex()), str(g)
        covers += 1
    assert covers == 255
