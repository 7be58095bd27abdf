"""Generalized triangulations: abstract tetrahedra with affine face pairings.

A triangulation is a list of tetrahedra with vertex slots 0..3.  Face f of a
tetrahedron is the triangle opposite vertex slot f.  A gluing identifies
face f of tetrahedron t with face f' of tetrahedron t' through a permutation
p of {0,1,2,3} with p[f] = f'; each vertex slot v != f is matched with slot
p[v].  The vertex bijection is stored explicitly, with no implicit
orientation conventions.  Self-adjacencies and multiple adjacencies are
allowed.  Every face must be glued, so a triangulation is closed: the block
triangulations glue up the boundary of a cube block, and the cone
subdivision cones cubes whose faces are all paired.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property

from .algebra import IntegerMatrix

Perm4 = tuple[int, int, int, int]
Gluing = tuple[tuple[int, int], Perm4]  # ((tet', face'), vertex bijection)

# each tetrahedron edge a < b with the keys 4a + b and 4b + a of its two
# directions (see `_edge_roots`)
_TET_EDGES = tuple((a, b, 4 * a + b, 4 * b + a) for a in range(4) for b in range(a + 1, 4))
# per face a < b < c, the boundary a->b + b->c - a->c as (direction key, sign)
_FACE_TERMS = tuple(((4 * a + b, 1), (4 * b + c, 1), (4 * a + c, -1))
                    for a, b, c in (tuple(v for v in range(4) if v != f) for f in range(4)))


def perm_inverse(p: Perm4) -> Perm4:
    q = [0, 0, 0, 0]
    for i, x in enumerate(p):
        q[x] = i
    return tuple(q)


def perm_sign(p: Perm4) -> int:
    sign = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                sign = -sign
    return sign


@functools.cache
def _face_table() -> dict[tuple[int, Perm4], tuple[tuple[tuple[int, int], ...],
                                                   tuple[tuple[int, int], ...], Perm4]]:
    """Per (face f, permutation p of 0..3): the slot pairs (v, p[v]) that a
    gluing of face f by p identifies, the pairs of directed-edge keys
    (4a + b, 4p[a] + p[b]) of the six directions of its three edges, and the
    inverse of p.  Built on first use, not at import."""
    table = {}
    for p in itertools.permutations(range(4)):
        inverse = perm_inverse(p)
        for f in range(4):
            slots = tuple((v, p[v]) for v in range(4) if v != f)
            keys = tuple((4 * a + b, 4 * p[a] + p[b]) for a, _ in slots for b, _ in slots if b != a)
            table[f, p] = (slots, keys, inverse)
    return table


def class_roots(size: int, pairs) -> list[int]:
    """Classes of 0..size-1 under the equivalence generated by `pairs`, as a
    list giving each element the smallest element of its class.

    Union-find with path halving: a union links the larger root under the
    smaller, so parent[x] <= x throughout, and one pass in increasing order
    then compresses every path to its root."""
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for x in range(size):
        parent[x] = parent[parent[x]]
    return parent


@dataclass(frozen=True)
class EdgeOrbit:
    """An edge orbit, with the orbit's positive direction on its representative."""

    representative: tuple[int, int, int]  # (tet, from_slot, to_slot)
    members: tuple[tuple[int, int, int], ...]  # (tet, a, b) with a < b
    valence: int
    reversed_on_itself: bool


class Triangulation:
    """Immutable after construction; all derived data is cached."""

    def __init__(self, gluings):
        glu: list[list[Gluing]] = []
        for tet_faces in gluings:
            faces = list(tet_faces)
            if len(faces) != 4:
                raise ValueError("each tetrahedron needs exactly 4 face entries")
            glu.append(faces)
        self._gluings: tuple[tuple[Gluing, ...], ...] = tuple(tuple(f) for f in glu)
        self._check()

    def _check(self) -> None:
        n = self.tet_count
        table = _face_table()
        gluings = self._gluings
        for t, faces in enumerate(gluings):
            for f, entry in enumerate(faces):
                if entry is None:
                    raise ValueError(f"face {t}:{f} is unglued")
                try:
                    (t2, f2), p = entry
                except (TypeError, ValueError):
                    raise ValueError(f"gluing entry {entry!r} at {t}:{f} is not "
                                     f"((tet, face), perm)") from None
                if type(t2) is not int or type(f2) is not int or not (0 <= t2 < n and 0 <= f2 < 4):
                    raise ValueError(f"gluing target {(t2, f2)!r} at {t}:{f} is not a face in range")
                # a bool or a float equals an int and hashes like it, so the
                # types are checked before the table lookup
                row = (table.get((f, p)) if type(p) is tuple and len(p) == 4
                       and type(p[0]) is type(p[1]) is type(p[2]) is type(p[3]) is int else None)
                if row is None or p[f] != f2:
                    raise ValueError(f"bad vertex bijection {p!r} at {t}:{f}: needs a tuple "
                                     f"of four ints permuting 0..3 that takes {f} to {f2}")
                if t2 == t and f2 == f:
                    raise ValueError(f"face {t}:{f} glued to itself")
                back = gluings[t2][f2]
                try:
                    matched = back[0] == (t, f) and back[1] == row[2]
                except (TypeError, IndexError):  # unglued or malformed: not matched
                    matched = False
                if not matched:
                    raise ValueError(f"gluing at {t}:{f} is not a matched involution")

    @property
    def tet_count(self) -> int:
        return len(self._gluings)

    @property
    def gluings(self):
        return self._gluings

    @property
    def is_closed(self) -> bool:
        """Always True: the constructor rejects a table with an unglued face."""
        return True

    @cached_property
    def face_pairs(self) -> tuple[tuple[int, int, int, int, Perm4], ...]:
        """Each face pair once, as (t, f, t2, f2, p) with (t, f) < (t2, f2),
        in increasing order of (t, f).  These are also the triangle orbits."""
        pairs = []
        for t, faces in enumerate(self._gluings):
            for f, entry in enumerate(faces):
                if (t, f) < entry[0]:
                    (t2, f2), p = entry
                    pairs.append((t, f, t2, f2, p))
        return tuple(pairs)

    # -- vertices ---------------------------------------------------------

    @cached_property
    def _vertex_roots(self) -> list[int]:
        """Vertex classes keyed by 4 * tet + slot, as `class_roots` gives them."""
        table = _face_table()
        return class_roots(4 * self.tet_count, [
            (4 * t + v, 4 * t2 + w)
            for t, f, t2, _, p in self.face_pairs for v, w in table[f, p][0]])

    @cached_property
    def _vertex_index(self) -> list[int]:
        """The vertex orbit of each 4 * tet + slot, orbits numbered in
        increasing order of their roots."""
        roots = self._vertex_roots
        renum = {r: i for i, r in enumerate(sorted(set(roots)))}
        return [renum[r] for r in roots]

    @cached_property
    def vertex_orbit_index(self) -> dict[tuple[int, int], int]:
        index = self._vertex_index
        return {(t, v): index[4 * t + v] for t in range(self.tet_count) for v in range(4)}

    @cached_property
    def vertex_orbit_count(self) -> int:
        return len(set(self._vertex_roots))

    # -- edges ------------------------------------------------------------

    # the directed edge from slot a to slot b of tetrahedron t has key
    # 16 * t + 4 * a + b; seen from a, the same key is the vertex of a's link
    # on edge a-b

    @cached_property
    def _edge_roots(self) -> list[int]:
        """Classes of directed edges, by key, as `class_roots` gives them."""
        table = _face_table()
        return class_roots(16 * self.tet_count, [
            (16 * t + x, 16 * t2 + y)
            for t, f, t2, _, p in self.face_pairs for x, y in table[f, p][1]])

    @cached_property
    def _edge_orbit_keys(self) -> list[tuple[int, int]]:
        """Per edge orbit, in increasing order of its smallest directed-edge
        key k: (k, the root of k's reverse).  k is a -> b, a < b, on the
        orbit's first edge in (tet, a, b) order; it is the orbit's positive
        direction and the root of its own class."""
        roots = self._edge_roots
        keys = []
        for base in range(0, 16 * self.tet_count, 16):
            for _, _, ab, ba in _TET_EDGES:
                k, back = base + ab, roots[base + ba]
                if roots[k] == k and k <= back:
                    keys.append((k, back))
        return keys

    @cached_property
    def edge_orbits(self) -> tuple[EdgeOrbit, ...]:
        roots, orbit_keys = self._edge_roots, self._edge_orbit_keys
        index = {k: i for i, (k, _) in enumerate(orbit_keys)}
        members: list[list[tuple[int, int, int]]] = [[] for _ in orbit_keys]
        for t in range(self.tet_count):
            base = 16 * t
            for a, b, ab, ba in _TET_EDGES:
                x, y = roots[base + ab], roots[base + ba]
                members[index[x if x < y else y]].append((t, a, b))
        return tuple(EdgeOrbit(representative=group[0], members=tuple(group),
                               valence=len(group), reversed_on_itself=k == back)
                     for (k, back), group in zip(orbit_keys, members))

    @cached_property
    def has_reversed_edge(self) -> bool:
        return any(k == back for k, back in self._edge_orbit_keys)

    def euler_characteristic(self) -> int:
        return (self.vertex_orbit_count - len(self._edge_orbit_keys)
                + len(self.face_pairs) - self.tet_count)

    # -- vertex links -----------------------------------------------------

    @cached_property
    def _link_euler(self) -> list[int]:
        """Per vertex orbit: the Euler characteristic of its link surface,
        assembled from one corner triangle per (tet, vertex) incidence with
        corner triangles glued side-to-side along the face pairings.  The
        link vertices are the `_edge_roots` classes of the directed edges
        leaving the orbit.  Every side is glued to one other, so the link
        has 3F/2 edges for F triangles and Euler characteristic V - F/2.
        The link is connected, since a vertex orbit is one class of that
        same gluing relation."""
        n_orbits = self.vertex_orbit_count
        faces = [0] * n_orbits
        lv_roots: list[set[int]] = [set() for _ in range(n_orbits)]
        edge_roots = self._edge_roots
        for (t, v), o in self.vertex_orbit_index.items():
            c = 4 * t + v
            faces[o] += 1
            lv_roots[o].update(edge_roots[c * 4 + w] for w in range(4) if w != v)
        return [len(lv_roots[o]) - faces[o] // 2 for o in range(n_orbits)]

    def link_euler(self, orbit: int) -> int:
        return self._link_euler[orbit]

    def link_spheres_diagnostic(self) -> tuple[int, int] | None:
        """None when every vertex link is a sphere (a connected surface with
        Euler characteristic 2), else the first failing orbit as
        (orbit, euler)."""
        for o, euler in enumerate(self._link_euler):
            if euler != 2:
                return (o, euler)
        return None

    def all_links_are_spheres(self) -> bool:
        return self.link_spheres_diagnostic() is None

    # -- orientability ----------------------------------------------------

    def is_orientable(self) -> bool:
        """Orientations of the tetrahedra exist making every face pairing
        orientation-reversing on the shared triangle (equivalently, every
        gluing permutation odd with respect to the chosen signs).  Node 2t
        gives tetrahedron t sign +1 and node 2t + 1 sign -1: an odd gluing
        joins equal signs and an even one opposite signs."""
        if not self.all_links_are_spheres():
            raise ValueError("orientability test needs a closed manifold triangulation")
        pairs = []
        for t, _, t2, _, p in self.face_pairs:
            w = (perm_sign(p) + 1) // 2
            pairs += [(2 * t, 2 * t2 + w), (2 * t + 1, 2 * t2 + 1 - w)]
        parity = class_roots(2 * self.tet_count, pairs)
        return all(parity[2 * t] != parity[2 * t + 1] for t in range(self.tet_count))

    # -- chain complex ----------------------------------------------------

    def chain_complex(self) -> tuple[IntegerMatrix, IntegerMatrix]:
        """(d2, d1) of the cellular chain complex of the quotient cell
        structure (tetrahedra / triangle orbits / edge orbits / vertex
        orbits).  Requires no edge orbit to be identified with itself in
        reverse, otherwise the quotient cells are not honest cells.  A directed
        edge's `_edge_roots` root names its orbit and its sign (+1 on the representative's)."""
        if self.has_reversed_edge:
            raise ValueError("chain complex undefined: an edge orbit is reversed onto itself")
        roots, vertex = self._edge_roots, self._vertex_index
        edge: dict[int, tuple[int, int]] = {}  # direction root -> (orbit, sign)
        d1_cols = []
        for idx, (k, back) in enumerate(self._edge_orbit_keys):
            edge[k] = (idx, 1)
            edge[back] = (idx, -1)
            t, a, b = k >> 4, (k >> 2) & 3, k & 3
            head, tail = vertex[4 * t + b], vertex[4 * t + a]
            d1_cols.append({head: 1, tail: -1} if head != tail else {})
        d2_cols = []
        for t, f, *_ in self.face_pairs:
            base = 16 * t
            col: dict[int, int] = {}
            for key, s in _FACE_TERMS[f]:
                idx, sign = edge[roots[base + key]]
                col[idx] = col.get(idx, 0) + s * sign
            d2_cols.append(col)
        return (IntegerMatrix.from_columns(len(d1_cols), d2_cols),
                IntegerMatrix.from_columns(self.vertex_orbit_count, d1_cols))
