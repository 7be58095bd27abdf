"""The four blocks: frozen valence profiles, patterns, selection, assembly."""

import hashlib
import itertools

import pytest

from cubecensus.algebra import h1_of_chain_complex
from cubecensus.blocks import (
    _BLOCK_INTERNAL_EDGE,
    _BLOCK_TETS,
    _apply_symmetry_to_pattern,
    _block_images,
    _block_instance,
    FIVE_TET_PATTERN,
    BlockKind,
    DiagonalPattern,
    assemble_triangulation,
    block_valences,
    glue_block,
    gluing_valences,
    mismatch_report,
    pair_matches_pattern,
    reference_pattern,
    select_block,
)
from cubecensus.cube_complex import (
    CHARTS,
    CORNER_COORDS,
    FACES,
    CubulationSpec,
    GluingPair,
    SquareSymmetry,
    build_quotient,
    cone_subdivide,
    double_cover,
    glue_cubes,
    is_closed_manifold,
    parse_gluing_text,
    quotient_chain_complex,
    quotient_is_orientable,
)
from cubecensus.census import run_census
from cubecensus.enumeration import ALL_CUBE_SYMMETRIES, enumerate_raw

T3 = "+x -x r0 / +y -y r0 / +z -z r0"

GOLDEN_VALENCES = {
    BlockKind.FIVE_TETRAHEDRON: (None, (3, 3, 3, 3, 3, 3)),
    BlockKind.FLIPPED: (4, (1, 3, 3, 3, 3, 3)),
    BlockKind.FIVE_VALENT: (5, (2, 2, 2, 2, 3, 3)),
    BlockKind.FOUR_VALENT: (4, (2, 2, 3, 3, 3, 3)),
}


@pytest.mark.parametrize("kind", list(BlockKind))
def test_block_valence_golden_table(kind):
    assert block_valences(kind) == GOLDEN_VALENCES[kind]


def test_block_tet_counts():
    assert BlockKind.FIVE_TETRAHEDRON.tet_count == 5
    for kind in (BlockKind.FLIPPED, BlockKind.FIVE_VALENT, BlockKind.FOUR_VALENT):
        assert kind.tet_count == 6


def test_five_tet_pattern_joins_odd_parity_corners():
    # independent derivation: the base pattern's diagonal on each face joins
    # the two corners with odd coordinate sum
    for face in FACES:
        chart = CHARTS[face]
        odd = {i for i in range(4) if sum(CORNER_COORDS[chart[i]]) % 2 == 1}
        assert FIVE_TET_PATTERN.diagonal_of(face) == frozenset(odd)


def test_reference_pattern_flip_structure():
    flips = {
        kind: reference_pattern(kind).flipped_faces_relative_to(FIVE_TET_PATTERN)
        for kind in BlockKind
    }
    assert flips[BlockKind.FIVE_TETRAHEDRON] == ()
    assert len(flips[BlockKind.FLIPPED]) == 1
    fa, fb = flips[BlockKind.FIVE_VALENT]
    assert fa.opposite() != fb  # two adjacent squares
    three = flips[BlockKind.FOUR_VALENT]
    assert len(three) == 3
    shared = set.intersection(*(set(CHARTS[f]) for f in three))
    assert len(shared) == 1  # three squares around one cube corner


@pytest.mark.parametrize("diagonals", [
    [frozenset((0, 2))] * 6,  # a list
    ({0, 2},) * 6,  # sets compare equal to frozensets but do not hash
])
def test_unhashable_diagonal_pattern_is_rejected(diagonals):
    with pytest.raises(ValueError):
        DiagonalPattern(diagonals)


def test_block_images_name_each_pattern_once_with_its_first_symmetry():
    images = _block_images()
    per_kind = {kind: {_apply_symmetry_to_pattern(cs, reference_pattern(kind))
                       for cs in ALL_CUBE_SYMMETRIES} for kind in BlockKind}
    assert [len(per_kind[kind]) for kind in BlockKind] == [2, 12, 24, 4]
    # 42 keys in all, so no pattern is an image of two kinds
    assert len(images) == 42
    assert [sum(k is kind for k, _ in images.values()) for kind in BlockKind] == [2, 12, 24, 4]
    for pattern, (kind, cs) in images.items():
        first = ALL_CUBE_SYMMETRIES.index(cs)
        carried = [_apply_symmetry_to_pattern(s, reference_pattern(kind)) == pattern
                   for s in ALL_CUBE_SYMMETRIES[:first + 1]]
        assert carried == [False] * first + [True]


def test_census_searches_symmetries_only_while_building_the_table(monkeypatch):
    from cubecensus import blocks

    calls = []
    apply = blocks._apply_symmetry_to_pattern

    def counting(cs, pattern):
        calls.append(cs)
        return apply(cs, pattern)

    monkeypatch.setattr(blocks, "_apply_symmetry_to_pattern", counting)
    _block_images.cache_clear()
    run_census(False)
    # one build: every symmetry applied to each of the four reference blocks
    assert len(calls) == len(BlockKind) * len(ALL_CUBE_SYMMETRIES) == 192


def test_t3_mismatch_count_is_three():
    # independent coordinate check: the translation carries the odd-parity
    # diagonal of each minus face to the odd diagonal of the plus face,
    # which the base pattern never uses on plus faces
    g = parse_gluing_text(T3)
    rep = mismatch_report(g, FIVE_TET_PATTERN)
    assert rep.mismatch_count == 3
    for pair in g.pairs:
        cmap = pair.corner_map()
        diag_a = FIVE_TET_PATTERN.corner_diagonal(pair.face_a)
        image = {cmap[c] for c in diag_a}
        assert image != set(FIVE_TET_PATTERN.corner_diagonal(pair.face_b))


def test_pair_matches_pattern_is_the_image_of_the_face_a_diagonal():
    pairs = {p for g in enumerate_raw(False) for p in g.pairs}
    patterns = [DiagonalPattern(d) for d in itertools.product(
        (frozenset((0, 2)), frozenset((1, 3))), repeat=6)]
    assert (len(pairs), len(patterns)) == (120, 64)
    for pair in pairs | {p.swapped() for p in pairs}:
        imap = pair.index_map()
        for pattern in patterns:
            image = frozenset(imap[i] for i in pattern.diagonal_of(pair.face_a))
            assert pair_matches_pattern(pair, pattern) == (image == pattern.diagonal_of(pair.face_b))


def test_flipping_one_face_flips_exactly_one_pair_flag():
    g = parse_gluing_text(T3)
    base = mismatch_report(g, FIVE_TET_PATTERN).pair_matches
    for face in FACES:
        flipped = mismatch_report(g, FIVE_TET_PATTERN.flip(face)).pair_matches
        assert sum(a != b for a, b in zip(base, flipped)) == 1


def test_zero_mismatch_gluings_select_the_five_tet_block():
    found = 0
    for g in enumerate_raw(False):
        if mismatch_report(g, FIVE_TET_PATTERN).mismatch_count == 0:
            choice = select_block(g)
            assert choice.kind is BlockKind.FIVE_TETRAHEDRON
            assert choice.pattern == FIVE_TET_PATTERN
            found += 1
            if found >= 20:
                break
    assert found


def test_t3_selects_four_valent_block():
    choice = select_block(parse_gluing_text(T3))
    assert choice.kind is BlockKind.FOUR_VALENT
    assert mismatch_report(parse_gluing_text(T3), choice.pattern).mismatch_count == 0


def test_selected_pattern_always_matches_sampled():
    for g in itertools.islice(enumerate_raw(False), 0, 7680, 127):
        choice = select_block(g)
        assert mismatch_report(g, choice.pattern).mismatch_count == 0
        count = mismatch_report(g, FIVE_TET_PATTERN).mismatch_count
        expected = {0: BlockKind.FIVE_TETRAHEDRON, 1: BlockKind.FLIPPED,
                    2: BlockKind.FIVE_VALENT, 3: BlockKind.FOUR_VALENT}[count]
        assert choice.kind is expected


def test_choice_carries_the_five_tet_mismatch_count():
    # every raw gluing, not a sample: the count the census reports comes
    # from the block choice, so it must equal a fresh mismatch report
    for g in enumerate_raw(False):
        expected = mismatch_report(g, FIVE_TET_PATTERN).mismatch_count
        assert select_block(g).mismatch_count == expected, str(g)


def test_assembled_tet_counts():
    seen = set()
    for g in enumerate_raw(False):
        if not is_closed_manifold(g.to_spec()).ok:
            continue
        choice = select_block(g)
        if choice.kind in seen:
            continue
        tri = assemble_triangulation(g)
        assert tri.tet_count == choice.kind.tet_count <= 6
        seen.add(choice.kind)
        if len(seen) == 4:
            break
    assert len(seen) == 4


def test_assemble_rejects_non_manifold_gluings():
    for g in enumerate_raw(True):
        if not is_closed_manifold(g.to_spec()).ok:
            with pytest.raises(ValueError):
                assemble_triangulation(g)
            break


def test_t3_assembly_is_a_closed_orientable_manifold_with_h1_z3():
    tri = assemble_triangulation(parse_gluing_text(T3))
    assert tri.is_closed
    assert tri.all_links_are_spheres()
    assert tri.is_orientable()
    h1 = h1_of_chain_complex(*tri.chain_complex())
    assert (h1.rank, h1.torsion) == (3, ())


def test_block_h1_matches_cone_h1_on_samples():
    checked = 0
    for g in itertools.islice(enumerate_raw(False), 0, 7680, 61):
        if not is_closed_manifold(g.to_spec()).ok:
            continue
        h1_block = h1_of_chain_complex(*assemble_triangulation(g).chain_complex())
        h1_cone = h1_of_chain_complex(*cone_subdivide(g.to_spec()).chain_complex())
        h1_cells = h1_of_chain_complex(
            *quotient_chain_complex(build_quotient(g.to_spec())))
        assert h1_block == h1_cone == h1_cells
        checked += 1
    assert checked >= 5


def test_assembled_internal_edge_keeps_its_block_valence(raw_manifold_gluings):
    # the internal edge lies on no boundary triangle, so gluing the block
    # up adds no tetrahedron to the star of that edge
    checked = 0
    for g in raw_manifold_gluings:
        choice = select_block(g)
        internal = _BLOCK_INTERNAL_EDGE[choice.kind]
        if internal is None:
            continue
        cs = choice.symmetry
        tets = [tuple(sorted(cs.apply_corner(c) for c in tet))
                for tet in _BLOCK_TETS[choice.kind]]
        u, v = (cs.apply_corner(c) for c in internal)
        t = next(i for i, tet in enumerate(tets) if u in tet and v in tet)
        a, b = sorted((tets[t].index(u), tets[t].index(v)))
        (orbit,) = [o for o in glue_block(g, choice).edge_orbits if (t, a, b) in o.members]
        assert orbit.valence == block_valences(choice.kind)[0], str(g)
        checked += 1
    assert checked


def test_gluing_valences_are_those_of_the_glued_block(raw_manifold_gluings):
    # read from the quotient's edge classes without gluing, against the
    # edge orbits of the glued block.  Diagonal classes keyed 0-2 would
    # merge with cube edge orbits 1 and 2 and give the first gluing
    # (1, 1, 4, 6, 6, 18)
    g = parse_gluing_text("+x +y r0 / -x +z r0 / -y -z r0")
    check = is_closed_manifold(g.to_spec())
    assert gluing_valences(g, select_block(g), check.quotient) == (1, 1, 4, 4, 6, 6, 14)
    for g in raw_manifold_gluings:
        check = is_closed_manifold(g.to_spec())
        choice = select_block(g)
        tri = glue_block(g, choice)
        assert (choice.kind.tet_count, gluing_valences(g, choice, check.quotient)) \
            == (tri.tet_count, tuple(sorted(o.valence for o in tri.edge_orbits))), str(g)
    assert len(raw_manifold_gluings) == 625


def test_glue_block_rejects_exactly_the_choices_whose_pattern_mismatches(raw_manifold_gluings):
    # the block choices of all raw manifold gluings, tried on every 5th
    # gluing: a choice glues up exactly when its pattern matches every pair
    choices = list({(c.kind, c.pattern): c for c in map(select_block, raw_manifold_gluings)}.values())
    assert len(choices) == 19
    rejected = 0
    for g in raw_manifold_gluings[::5]:
        for choice in choices:
            if mismatch_report(g, choice.pattern).mismatch_count:
                with pytest.raises(AssertionError):
                    glue_block(g, choice)
                rejected += 1
            else:
                assert glue_block(g, choice).tet_count == choice.kind.tet_count
    assert 0 < rejected < 19 * len(raw_manifold_gluings[::5])


def test_block_choice_of_every_raw_gluing_is_pinned():
    # kind, pattern, symmetry and mismatch count of all 7680 raw gluings in
    # enumeration order: the order in which flips are tried and the
    # symmetry the table keeps both show here
    digest = hashlib.sha256()
    for g in enumerate_raw(False):
        c = select_block(g)
        digest.update(f"{g} | {c.kind.value} | {[sorted(d) for d in c.pattern.diagonals]} | "
                      f"{c.symmetry.corner_perm} | {c.mismatch_count}\n".encode())
    assert digest.hexdigest() == "4668bbe85b3a93e1bd2afba67040ebed6ceb298e288204869ad5e2aee39a0ce2"


def test_block_gluing_table_of_every_raw_manifold_gluing_is_pinned(raw_manifold_gluings, monkeypatch):
    # the gluing table of all 625 raw manifold gluings in enumeration
    # order; the digest was computed with a `glue_block` that built its
    # block and every triangle key on each call.  The manifold guard of
    # each assembly builds no quotient
    from cubecensus import cube_complex

    builds = []
    monkeypatch.setattr(cube_complex, "_quotient_from_roots", lambda *args: builds.append(args))
    digest = hashlib.sha256()
    for g in raw_manifold_gluings:
        digest.update(f"{g} | {assemble_triangulation(g).gluings!r}\n".encode())
    assert len(raw_manifold_gluings) == 625
    assert digest.hexdigest() == "6a7bcb3bdbf6a81fa207d932277cd1a3f9051a4934dc6dacdb9c99a32cf4cf57"
    assert builds == []


def test_each_block_image_is_instantiated_once(raw_manifold_gluings):
    # one instance per (kind, symmetry) that the table of block images
    # names: the 625 gluings use 19 of its 42 keys
    _block_instance.cache_clear()
    for g in raw_manifold_gluings:
        assemble_triangulation(g)
    used = {(c.kind, c.symmetry) for c in map(select_block, raw_manifold_gluings)}
    assert _block_instance.cache_info().currsize == len(used) == 19 <= len(_block_images())


def test_block_glues_the_double_cover_of_every_nonorientable_gluing(raw_manifold_gluings):
    # cube c of a cover holds tetrahedra c * tet_count onwards; the base
    # gluing's block matches every pair of its cover, whose H1 the cells give
    covers = 0
    for g in raw_manifold_gluings:
        spec = g.to_spec()
        if quotient_is_orientable(spec):
            continue
        choice = select_block(g)
        cover = double_cover(spec)
        tri = glue_cubes(cover, _block_instance(choice.kind, choice.symmetry.corner_perm))
        assert tri.tet_count == 2 * choice.kind.tet_count
        assert tri.all_links_are_spheres() and tri.is_orientable(), str(g)
        h1_cells = h1_of_chain_complex(*quotient_chain_complex(build_quotient(cover)))
        assert h1_of_chain_complex(*tri.chain_complex()) == h1_cells, str(g)
        covers += 1
    assert covers == 255


def test_five_tetrahedron_block_glues_the_double_of_the_cube_into_a_sphere():
    # each face of cube 0 glued to the same face of cube 1 by r0m, whose
    # corner map is the identity and so keeps every diagonal
    sym = SquareSymmetry.from_str("r0m")
    spec = CubulationSpec(2, tuple((0, 1, GluingPair(f, f, sym)) for f in FACES))
    tri = glue_cubes(spec, _block_instance(BlockKind.FIVE_TETRAHEDRON, tuple(range(8))))
    assert tri.tet_count == 10
    assert tri.all_links_are_spheres() and tri.is_orientable()
    h1 = h1_of_chain_complex(*tri.chain_complex())
    assert (h1.rank, h1.torsion) == (0, ())
