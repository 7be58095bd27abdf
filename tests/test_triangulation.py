"""Generalized triangulation machinery on hand-built and derived examples."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecensus.algebra import h1_of_chain_complex
from cubecensus.blocks import assemble_triangulation
from cubecensus.cube_complex import cone_subdivide, is_closed_manifold, parse_gluing_text
from cubecensus.enumeration import enumerate_raw
from cubecensus.triangulation import Triangulation, class_roots, perm_inverse, perm_sign

T3 = "+x -x r0 / +y -y r0 / +z -z r0"
K2XS1 = "+x -x r1m / +y -y r0 / +z -z r0"


def has_valence(tri: Triangulation, k: int) -> bool:
    return any(o.valence == k for o in tri.edge_orbits)


def doubled_tetrahedron() -> Triangulation:
    """Two tetrahedra glued along all four faces by the identity maps: the
    double of a tetrahedron, a 3-sphere."""
    identity = (0, 1, 2, 3)
    gl = [
        [((1, f), identity) for f in range(4)],
        [((0, f), identity) for f in range(4)],
    ]
    return Triangulation(gl)


def test_doubled_tetrahedron_is_a_sphere():
    tri = doubled_tetrahedron()
    assert tri.is_closed
    assert tri.vertex_orbit_count == 4
    assert len(tri.edge_orbits) == 6
    assert all(o.valence == 2 for o in tri.edge_orbits)
    assert tri.euler_characteristic() == 0
    assert tri.all_links_are_spheres()
    assert tri.is_orientable()
    h1 = h1_of_chain_complex(*tri.chain_complex())
    assert h1.rank == 0 and not h1.torsion


def test_involution_validation():
    identity = (0, 1, 2, 3)
    with pytest.raises(ValueError):
        Triangulation([[((0, 0), identity)] + [None] * 3])  # glued to itself
    with pytest.raises(ValueError):
        # one-sided gluing, partner entry missing
        Triangulation([
            [((1, 0), identity), None, None, None],
            [None] * 4,
        ])
    # a triangulation is closed: an unglued face is rejected by name
    with pytest.raises(ValueError, match="face 0:0 is unglued"):
        Triangulation([[None] * 4])
    cut = [list(faces) for faces in doubled_tetrahedron().gluings]
    cut[0][2] = cut[1][2] = None
    with pytest.raises(ValueError, match="face 0:2 is unglued"):
        Triangulation(cut)


PERMS = list(itertools.permutations(range(4)))


@settings(deadline=None, max_examples=100)
@given(st.data(), st.sampled_from(["target", "face", "perm", "one-sided"]))
def test_corrupted_gluing_tables_are_rejected(raw_manifold_gluings, data, corruption):
    table = [list(faces) for faces in
             assemble_triangulation(data.draw(st.sampled_from(raw_manifold_gluings))).gluings]
    Triangulation(table)
    n = len(table)
    t = data.draw(st.integers(0, n - 1))
    f = data.draw(st.integers(0, 3))
    (t2, f2), p = table[t][f]
    if corruption == "target":
        bad = data.draw(st.one_of(st.integers(n, n + 5), st.integers(-5, -1)))
        table[t][f] = ((bad, f2), p) if data.draw(st.booleans()) else ((t2, bad), p)
    elif corruption == "face":
        table[t][f] = ((t2, f2), data.draw(st.sampled_from([q for q in PERMS if q[f] != f2])))
    elif corruption == "perm":
        bad = data.draw(st.tuples(*[st.integers(0, 3)] * 4).filter(
            lambda q: sorted(q) != [0, 1, 2, 3]))
        table[t][f] = ((t2, f2), bad)
    else:
        # retarget or re-map one side and leave its partner as it was
        t3 = data.draw(st.integers(0, n - 1))
        f3 = data.draw(st.integers(0, 3))
        q = data.draw(st.sampled_from([q for q in PERMS if q[f] == f3]))
        entry = ((t3, f3), q)
        if entry == table[t][f]:
            entry = ((t3, f3), next(r for r in PERMS if r[f] == f3 and r != q))
        table[t][f] = entry
    with pytest.raises(ValueError):
        Triangulation(table)


def test_perm_helpers():
    assert perm_inverse((2, 0, 1, 3)) == (1, 2, 0, 3)
    assert perm_sign((0, 1, 2, 3)) == 1
    assert perm_sign((1, 0, 2, 3)) == -1
    assert perm_sign((1, 0, 3, 2)) == 1


def test_empty_triangulation_has_no_valences():
    tri = Triangulation([])
    assert not any(has_valence(tri, k) for k in range(1, 10))


def test_valence_sums_on_derived_triangulations():
    for text in (T3, K2XS1):
        for tri in (assemble_triangulation(parse_gluing_text(text)),
                    cone_subdivide(parse_gluing_text(text).to_spec())):
            assert sum(o.valence for o in tri.edge_orbits) == 6 * tri.tet_count


def test_orientability_examples():
    assert assemble_triangulation(parse_gluing_text(T3)).is_orientable()
    assert not assemble_triangulation(parse_gluing_text(K2XS1)).is_orientable()


def test_orientability_rejects_open_or_singular_input():
    with pytest.raises(ValueError):
        Triangulation([[None] * 4]).is_orientable()
    for g in enumerate_raw(True):
        spec = g.to_spec()
        if not is_closed_manifold(spec).ok:
            with pytest.raises(ValueError):
                cone_subdivide(spec).is_orientable()
            break


def test_links_of_closed_manifolds_are_spheres():
    tri = cone_subdivide(parse_gluing_text(T3).to_spec())
    for orbit in range(tri.vertex_orbit_count):
        assert tri.link_euler(orbit) == 2


def test_non_manifold_gluings_have_a_bad_link():
    found = 0
    for g in enumerate_raw(True):
        spec = g.to_spec()
        if is_closed_manifold(spec).ok:
            continue
        tri = cone_subdivide(spec)
        bad = [o for o in range(tri.vertex_orbit_count)
               if tri.link_euler(o) != 2]
        assert bad
        found += 1
        if found >= 5:
            break
    assert found


def test_link_euler_sum_identity(raw_manifold_gluings):
    # for a closed triangulation, chi = sum over vertices of 1 - chi(link)/2
    cones = (cone_subdivide(g.to_spec())
             for g in itertools.islice(enumerate_raw(False), 498, None, 499))
    blocks = (assemble_triangulation(g) for g in raw_manifold_gluings)
    for tri in itertools.chain(cones, blocks):
        total = sum(1 - tri.link_euler(o) / 2
                    for o in range(tri.vertex_orbit_count))
        assert total == tri.euler_characteristic()


def test_has_valence_on_blocks():
    flipped = None
    for g in enumerate_raw(False):
        if not is_closed_manifold(g.to_spec()).ok:
            continue
        tri = assemble_triangulation(g)
        if tri.tet_count == 6:
            assert has_valence(tri, 4)
            flipped = tri
            break
    assert flipped is not None


def test_dump_golden_t3_assembly():
    tri = assemble_triangulation(parse_gluing_text(T3))
    assert tri.gluings == assemble_triangulation(parse_gluing_text(T3)).gluings
    assert all(entry is not None for faces in tri.gluings for entry in faces)
    assert len(tri.face_pairs) == 12  # 6 tets, 24 face slots, 12 pairings


class UnionFind:
    """Reference union-find: a find that compresses fully, and a union that
    links the larger root under the smaller, so roots are class minima."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def roots(self) -> list[int]:
        return [self.find(x) for x in range(len(self.parent))]


@st.composite
def pair_lists(draw):
    """A size up to 64 and pairs over it, with self-pairs and repeats."""
    size = draw(st.integers(0, 64))
    if size == 0:
        return 0, []
    element = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(element, element), max_size=3 * size))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    self_pairs = [(x, x) for x in draw(st.lists(element, max_size=4))]
    return size, pairs + repeats + self_pairs


@settings(max_examples=300, deadline=None)
@given(pair_lists())
def test_class_roots_match_reference_union_find(case):
    size, pairs = case
    uf = UnionFind(size)
    for a, b in pairs:
        uf.union(a, b)
    roots = class_roots(size, pairs)
    assert roots == uf.roots()
    classes: dict[int, list[int]] = {}
    for x, r in enumerate(roots):
        classes.setdefault(r, []).append(x)
    assert all(min(members) == r for r, members in classes.items())


def test_cone_orbits_match_reference_fed_from_both_sides():
    """Triangulation unions each glued face pair once; the reference unions
    every face gluing from both of its tetrahedra."""
    for g in itertools.islice(enumerate_raw(False), 0, None, 20):
        tri = cone_subdivide(g.to_spec())
        vertices, edges = UnionFind(4 * tri.tet_count), UnionFind(16 * tri.tet_count)
        for t, faces in enumerate(tri.gluings):
            for f, ((t2, _), p) in enumerate(faces):
                for a in range(4):
                    if a == f:
                        continue
                    vertices.union(4 * t + a, 4 * t2 + p[a])
                    for b in range(4):
                        if b != a and b != f:
                            edges.union((4 * t + a) * 4 + b, (4 * t2 + p[a]) * 4 + p[b])
        assert tri._vertex_roots == vertices.roots(), g
        assert tri._edge_roots == edges.roots(), g
