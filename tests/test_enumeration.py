"""Raw and canonical enumeration of one-cube gluings.

The orbit-partition oracle groups all raw gluings by breadth-first closure
under single conjugations, independently of the min-serialization logic in
canonical_form and of the integer pair tables.  The object-level
conjugate_gluing is the oracle for every table entry and every orbit.  The geometric oracle checks the dihedral algebra of chart
maps and conjugation against the isometries' corner permutations alone.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecensus.census import compute_fingerprint
from cubecensus.cube_complex import (
    ALL_SQUARE_SYMMETRIES,
    CHARTS,
    FACES,
    CubeGluing,
    GluingPair,
    is_closed_manifold,
    parse_gluing_text,
)
from cubecensus.enumeration import (
    ALL_CUBE_SYMMETRIES,
    _FACE_MATCHINGS,
    _OPPOSITE_MATCHING,
    CanonicalGluing,
    _encode,
    _pair_tables,
    canonical_form,
    conjugate_gluing,
    enumerate_canonical,
    enumerate_raw,
    orbit_of,
)

T3 = "+x -x r0 / +y -y r0 / +z -z r0"
REFERENCE_GLUINGS = [
    "+x -x r1m / +y -y r0 / +z -z r0",
    "+x -x r0 / +y -y r0 / +z -z r0m",
    "+x -x r1m / +y -y r0 / +z -z r1m",
    "+x -y r3 / -x +y r1 / +z -z r0m",
]


def test_cube_symmetry_group_size_and_identity_first():
    assert len(ALL_CUBE_SYMMETRIES) == 48
    assert len({cs.corner_perm for cs in ALL_CUBE_SYMMETRIES}) == 48
    assert ALL_CUBE_SYMMETRIES[0].corner_perm == tuple(range(8))


def test_cube_symmetries_are_closed_under_composition():
    perms = {cs.corner_perm for cs in ALL_CUBE_SYMMETRIES}
    sample = ALL_CUBE_SYMMETRIES[::7]
    for a in sample:
        for b in sample:
            composed = tuple(a.corner_perm[b.corner_perm[i]] for i in range(8))
            assert composed in perms


def test_raw_counts():
    assert sum(1 for _ in enumerate_raw(opposite_only=True)) == 512
    assert sum(1 for _ in enumerate_raw(opposite_only=False)) == 7680


def test_raw_gluings_are_valid_and_distinct():
    seen = set()
    for g in enumerate_raw(False):
        faces = [f.index for p in g.pairs for f in (p.face_a, p.face_b)]
        assert sorted(faces) == [0, 1, 2, 3, 4, 5]
        assert all(p.face_a < p.face_b for p in g.pairs)
        seen.add(g.serialize())
    assert len(seen) == 7680


@pytest.mark.parametrize("opposite_only, matchings", [(False, _FACE_MATCHINGS),
                                                      (True, _OPPOSITE_MATCHING)])
def test_raw_gluings_keep_the_nested_order_and_share_their_pairs(opposite_only, matchings):
    nested = [CubeGluing(tuple(GluingPair(FACES[a], FACES[b], sym)
                               for (a, b), sym in zip(matching, syms)))
              for matching in matchings
              for syms in itertools.product(ALL_SQUARE_SYMMETRIES, repeat=3)]
    raw = list(enumerate_raw(opposite_only))
    assert raw == nested
    assert len(set(raw)) == (512 if opposite_only else 7680)
    assert len({id(p) for g in raw for p in g.pairs}) <= 120


def test_canonical_form_is_idempotent():
    for g in itertools.islice(enumerate_raw(False), 0, 7680, 389):
        c = canonical_form(g)
        again = canonical_form(c.gluing)
        assert again.gluing.serialize() == c.gluing.serialize()
        assert again.orbit_size == c.orbit_size


def test_canonical_form_is_the_least_gluing_of_its_orbit():
    for g in enumerate_raw(False):
        orbit = orbit_of(g)
        assert canonical_form(g) == CanonicalGluing(orbit[0], len(orbit)), g.serialize()


def test_t3_and_rotations_share_a_canonical_form():
    g = parse_gluing_text(T3)
    base = canonical_form(g).gluing.serialize()
    for cs in ALL_CUBE_SYMMETRIES:
        assert canonical_form(conjugate_gluing(g, cs)).gluing.serialize() == base


def test_orbit_partition_matches_brute_force_closure():
    classes = enumerate_canonical(False)
    assert sum(c.orbit_size for c in classes) == 7680

    # independent closure: group raw gluings by single-conjugation reachability
    key_to_index = {}
    raws = []
    for i, g in enumerate(enumerate_raw(False)):
        key_to_index[g.serialize()] = i
        raws.append(g)
    seen = [False] * len(raws)
    sizes = []
    for i, g in enumerate(raws):
        if seen[i]:
            continue
        frontier = [g]
        members = set()
        while frontier:
            current = frontier.pop()
            key = current.serialize()
            if key in members:
                continue
            members.add(key)
            seen[key_to_index[key]] = True
            for cs in ALL_CUBE_SYMMETRIES:
                image = conjugate_gluing(current, cs)
                if image.serialize() not in members:
                    frontier.append(image)
        sizes.append(len(members))
    assert sorted(sizes) == sorted(c.orbit_size for c in classes)
    assert len(sizes) == len(classes)


def test_opposite_only_partition():
    classes = enumerate_canonical(True)
    assert sum(c.orbit_size for c in classes) == 512
    for c in classes:
        assert all(p.face_a.opposite() == p.face_b for p in c.gluing.pairs)


def test_burnside_counts_the_classes():
    # (1/48) sum over the symmetries of the raw gluings each one fixes,
    # read from the pair tables without any orbit closure
    tables = _pair_tables()
    for opposite_only, classes in ((False, 313), (True, 56)):
        raw = [_encode(g) for g in enumerate_raw(opposite_only)]
        fixed = sum(tuple(sorted(t[c] for c in codes)) == codes for t in tables for codes in raw)
        assert (fixed, len(enumerate_canonical(opposite_only))) == (48 * classes, classes)


def test_canonical_stream_is_sorted_and_stable():
    # sorted by the documented order: pairs by (faceA, faceB) with faces in
    # +x, -x, +y, -y, +z, -z order, then lexicographic on the symmetry token
    classes = enumerate_canonical(False)
    keys = [parse_gluing_text(c.class_id).sort_key() for c in classes]
    assert keys == sorted(keys)
    assert [c.class_id for c in classes] == [c.class_id for c in enumerate_canonical(False)]


def test_canonical_classes_contain_t3_and_references(canonical_classes):
    ids = {c.class_id for c in canonical_classes}
    for text in [T3] + REFERENCE_GLUINGS:
        assert canonical_form(parse_gluing_text(text)).class_id in ids


def test_fingerprint_is_constant_on_an_orbit():
    g = parse_gluing_text(REFERENCE_GLUINGS[0])
    base = compute_fingerprint(g)
    for cs in ALL_CUBE_SYMMETRIES[::5]:
        image = conjugate_gluing(g, cs)
        assert is_closed_manifold(image.to_spec()).ok
        assert compute_fingerprint(image) == base


# -- geometric oracle for the dihedral algebra ----------------------------------


def test_chart_maps_follow_the_corner_permutation():
    for cs in ALL_CUBE_SYMMETRIES:
        for f in FACES:
            image = FACES[cs.face_image[f.index]]
            beta = cs.chart_maps[f.index]
            for i in range(4):
                assert CHARTS[image][beta.apply(i)] == cs.corner_perm[CHARTS[f][i]]


def identifications(g):
    """The gluing's corner identifications as unordered pairs of
    (face index, corner)."""
    return {frozenset(((p.face_a.index, src), (p.face_b.index, dst)))
            for p in g.pairs for src, dst in p.corner_map().items()}


def test_conjugation_relabels_every_identification():
    # one symmetry on all three pairs covers every (face pair, symmetry)
    # across the 15 matchings
    gluings = [g for g in enumerate_raw(False) if len({p.sym for p in g.pairs}) == 1]
    assert len(gluings) == 15 * 8
    for g in gluings:
        original = identifications(g)
        for cs in ALL_CUBE_SYMMETRIES:
            relabelled = {frozenset((cs.face_image[f], cs.corner_perm[c]) for f, c in ident)
                          for ident in original}
            assert identifications(conjugate_gluing(g, cs)) == relabelled, (str(g), cs.corner_perm)


@settings(deadline=None, max_examples=20)
@given(st.data(), st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_fingerprint_is_invariant_under_relabelling(raw_manifold_gluings, data, swaps):
    g = data.draw(st.sampled_from(raw_manifold_gluings))
    expected = compute_fingerprint(g)
    for h in orbit_of(g):
        assert compute_fingerprint(h) == expected, (str(g), str(h))
    swapped = CubeGluing(tuple(p.swapped() if swap else p for p, swap in zip(g.pairs, swaps)))
    assert compute_fingerprint(swapped) == expected


# -- the integer pair tables against conjugate_gluing ---------------------------


def test_pair_tables_match_conjugate_gluing_on_every_entry():
    # one symmetry on all three pairs: 120 gluings whose pair codes are the
    # 15 × 8 normalised codes, so 48 symmetries check all 5760 entries
    gluings = [g for g in enumerate_raw(False) if len({p.sym for p in g.pairs}) == 1]
    codes = {c for g in gluings for c in _encode(g)}
    assert len(codes) == 15 * 8
    tables = _pair_tables()
    assert len(tables) == len(ALL_CUBE_SYMMETRIES)
    for g in gluings:
        for cs, table in zip(ALL_CUBE_SYMMETRIES, tables):
            expected = _encode(conjugate_gluing(g, cs))
            assert tuple(sorted(table[c] for c in _encode(g))) == expected, (str(g), cs.corner_perm)


def test_classes_partition_the_raw_gluings_into_conjugation_orbits(canonical_classes):
    covered = set()
    for c in canonical_classes:
        orbit = {}
        for cs in ALL_CUBE_SYMMETRIES:
            image = conjugate_gluing(c.gluing, cs)
            orbit[image.sort_key()] = image.serialize()
        assert len(orbit) == c.orbit_size, c.class_id
        assert orbit[min(orbit)] == c.class_id
        assert covered.isdisjoint(orbit.values()), c.class_id
        covered.update(orbit.values())
    assert covered == {g.serialize() for g in enumerate_raw(False)}


RAW_GLUINGS = tuple(enumerate_raw(False))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(RAW_GLUINGS), st.sampled_from(ALL_CUBE_SYMMETRIES),
       st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_canonical_form_is_invariant_under_relabelling_and_swaps(g, cs, swaps):
    expected = canonical_form(g)
    assert canonical_form(conjugate_gluing(g, cs)) == expected
    swapped = CubeGluing(tuple(p.swapped() if swap else p for p, swap in zip(g.pairs, swaps)))
    assert canonical_form(swapped) == expected
