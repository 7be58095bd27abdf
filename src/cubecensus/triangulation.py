"""Generalized triangulations: abstract tetrahedra with affine face pairings.

A triangulation is a list of tetrahedra with vertex slots 0..3.  Face f of a
tetrahedron is the triangle opposite vertex slot f.  A gluing identifies
face f of tetrahedron t with face f' of tetrahedron t' through a permutation
p of {0,1,2,3} with p[f] = f'; each vertex slot v != f is matched with slot
p[v].  The vertex bijection is stored explicitly, with no implicit
orientation conventions.  Self-adjacencies and multiple adjacencies are
allowed; unglued faces form boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import IntegerMatrix

Perm4 = tuple[int, int, int, int]
Gluing = tuple[tuple[int, int], Perm4]  # ((tet', face'), vertex bijection)


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


class _UnionFind:
    __slots__ = ("parent",)

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


@dataclass(frozen=True)
class EdgeOrbit:
    index: int
    representative: tuple[int, int, int]  # (tet, from_slot, to_slot)
    members: tuple[tuple[int, int, int], ...]  # (tet, a, b) with a < b
    valence: int
    reversed_on_itself: bool
    label: str


class Triangulation:
    """Immutable after construction; all derived data is cached."""

    def __init__(self, gluings, edge_labels=None):
        glu: list[list[Gluing | None]] = []
        for tet_faces in gluings:
            faces = list(tet_faces)
            if len(faces) != 4:
                raise ValueError("each tetrahedron needs exactly 4 face entries")
            glu.append(faces)
        self._gluings: tuple[tuple[Gluing | None, ...], ...] = tuple(tuple(f) for f in glu)
        self.edge_labels = dict(edge_labels or {})
        self._check()

    def _check(self) -> None:
        n = self.tet_count
        for t in range(n):
            for f in range(4):
                entry = self._gluings[t][f]
                if entry is None:
                    continue
                (t2, f2), p = entry
                if not (0 <= t2 < n and 0 <= f2 < 4):
                    raise ValueError(f"gluing target out of range at {t}:{f}")
                if sorted(p) != [0, 1, 2, 3] or p[f] != f2:
                    raise ValueError(f"bad vertex bijection at {t}:{f}")
                if (t2, f2) == (t, f):
                    raise ValueError(f"face {t}:{f} glued to itself")
                back = self._gluings[t2][f2]
                if back is None or back[0] != (t, f) or back[1] != perm_inverse(p):
                    raise ValueError(f"gluing at {t}:{f} is not a matched involution")

    @property
    def tet_count(self) -> int:
        return len(self._gluings)

    @property
    def gluings(self):
        return self._gluings

    def gluing(self, tet: int, face: int):
        return self._gluings[tet][face]

    @property
    def is_closed(self) -> bool:
        return all(g is not None for faces in self._gluings for g in faces)

    # -- vertices ---------------------------------------------------------

    @cached_property
    def _vertex_uf(self) -> _UnionFind:
        uf = _UnionFind(4 * self.tet_count)
        for t in range(self.tet_count):
            for f in range(4):
                entry = self._gluings[t][f]
                if entry is None:
                    continue
                (t2, _), p = entry
                for v in range(4):
                    if v != f:
                        uf.union(4 * t + v, 4 * t2 + p[v])
        return uf

    @cached_property
    def vertex_orbit_index(self) -> dict[tuple[int, int], int]:
        uf = self._vertex_uf
        roots = sorted({uf.find(i) for i in range(4 * self.tet_count)})
        renum = {r: i for i, r in enumerate(roots)}
        return {(t, v): renum[uf.find(4 * t + v)]
                for t in range(self.tet_count) for v in range(4)}

    @property
    def vertex_orbit_count(self) -> int:
        return len(set(self.vertex_orbit_index.values())) if self.tet_count else 0

    # -- edges ------------------------------------------------------------

    def _edge_key(self, t: int, a: int, b: int) -> int:
        return (t * 4 + a) * 4 + b

    @cached_property
    def _edge_uf(self) -> _UnionFind:
        """Classes of directed edges (t, a, b), keyed by `_edge_key`.  Seen
        from a, the same key is the vertex of a's link on edge a-b."""
        uf = _UnionFind(16 * self.tet_count)
        for t in range(self.tet_count):
            for f in range(4):
                entry = self._gluings[t][f]
                if entry is None:
                    continue
                (t2, _), p = entry
                for a in range(4):
                    if a == f:
                        continue
                    for b in range(4):
                        if b != a and b != f:
                            uf.union((4 * t + a) * 4 + b, (4 * t2 + p[a]) * 4 + p[b])
        return uf

    @cached_property
    def edge_orbits(self) -> tuple[EdgeOrbit, ...]:
        uf = self._edge_uf
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for t in range(self.tet_count):
            for a in range(4):
                for b in range(a + 1, 4):
                    root = min(uf.find(self._edge_key(t, a, b)),
                               uf.find(self._edge_key(t, b, a)))
                    groups.setdefault(root, []).append((t, a, b))
        orbits = []
        for idx, root in enumerate(sorted(groups)):
            members = tuple(sorted(groups[root]))
            t0, a0, b0 = members[0]
            rev = uf.find(self._edge_key(t0, a0, b0)) == uf.find(self._edge_key(t0, b0, a0))
            labels = {self.edge_labels.get((t, frozenset((a, b))), "other")
                      for (t, a, b) in members}
            if len(labels) != 1:
                raise AssertionError(f"edge orbit mixes provenance labels: {labels}")
            orbits.append(EdgeOrbit(
                index=idx,
                representative=(t0, a0, b0),
                members=members,
                valence=len(members),
                reversed_on_itself=rev,
                label=labels.pop(),
            ))
        return tuple(orbits)

    @cached_property
    def _edge_orbit_lookup(self) -> dict[int, tuple[int, int]]:
        """directed edge key -> (orbit index, sign relative to representative)."""
        uf = self._edge_uf
        out: dict[int, tuple[int, int]] = {}
        for orbit in self.edge_orbits:
            t0, a0, b0 = orbit.representative
            fwd = uf.find(self._edge_key(t0, a0, b0))
            for (t, a, b) in orbit.members:
                for (x, y) in ((a, b), (b, a)):
                    key = self._edge_key(t, x, y)
                    sign = 1 if uf.find(key) == fwd else -1
                    out[key] = (orbit.index, sign)
        return out

    @cached_property
    def has_reversed_edge(self) -> bool:
        return any(o.reversed_on_itself for o in self.edge_orbits)

    # -- triangles --------------------------------------------------------

    @cached_property
    def triangle_orbits(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        seen = set()
        orbits = []
        for t in range(self.tet_count):
            for f in range(4):
                if (t, f) in seen:
                    continue
                entry = self._gluings[t][f]
                if entry is None:
                    orbits.append(((t, f),))
                    seen.add((t, f))
                else:
                    (t2, f2), _ = entry
                    orbits.append(tuple(sorted({(t, f), (t2, f2)})))
                    seen.update({(t, f), (t2, f2)})
        return tuple(sorted(orbits))

    def euler_characteristic(self) -> int:
        return (self.vertex_orbit_count - len(self.edge_orbits)
                + len(self.triangle_orbits) - self.tet_count)

    # -- vertex links -----------------------------------------------------

    @cached_property
    def _link_euler(self) -> list[int]:
        """Per vertex orbit: the Euler characteristic of its link surface,
        assembled from one corner triangle per (tet, vertex) incidence with
        corner triangles glued side-to-side along the face pairings.  The
        link vertices are the `_edge_uf` classes of the directed edges
        leaving the orbit.  The link is connected, since a vertex orbit is
        one class of that same gluing relation."""
        n_orbits = self.vertex_orbit_count
        faces = [0] * n_orbits
        glued = [0] * n_orbits
        lv_roots: list[set[int]] = [set() for _ in range(n_orbits)]
        find_lv = self._edge_uf.find
        # the sides of corner (t, v) are the faces of t other than v
        glued_faces = [4 - faces_t.count(None) for faces_t in self._gluings]
        for (t, v), o in self.vertex_orbit_index.items():
            c = 4 * t + v
            faces[o] += 1
            glued[o] += glued_faces[t] - (self._gluings[t][v] is not None)
            lv_roots[o].update(find_lv(c * 4 + w) for w in range(4) if w != v)
        # each corner triangle has 3 sides; glued sides pair up into one edge
        return [len(lv_roots[o]) - (glued[o] // 2 + 3 * faces[o] - glued[o]) + faces[o]
                for o in range(n_orbits)]

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
        gluing permutation odd with respect to the chosen signs)."""
        if not self.is_closed:
            raise ValueError("orientability test needs a closed triangulation")
        if not self.all_links_are_spheres():
            raise ValueError("orientability test needs a closed manifold triangulation")
        sign: dict[int, int] = {}
        for start in range(self.tet_count):
            if start in sign:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                t = stack.pop()
                for f in range(4):
                    (t2, _), p = self._gluings[t][f]
                    needed = -sign[t] * perm_sign(p)
                    if t2 in sign:
                        if sign[t2] != needed:
                            return False
                    else:
                        sign[t2] = needed
                        stack.append(t2)
        return True

    # -- chain complex ----------------------------------------------------

    def chain_complex(self) -> tuple[IntegerMatrix, IntegerMatrix]:
        """(d2, d1) of the cellular chain complex of the quotient cell
        structure (tetrahedra / triangle orbits / edge orbits / vertex
        orbits).  Requires no edge orbit to be identified with itself in
        reverse, otherwise the quotient cells are not honest cells."""
        if self.has_reversed_edge:
            raise ValueError("chain complex undefined: an edge orbit is reversed onto itself")
        lookup = self._edge_orbit_lookup
        n_e = len(self.edge_orbits)
        n_v = self.vertex_orbit_count
        d1_cols = []
        for orbit in self.edge_orbits:
            t, a, b = orbit.representative
            col = [0] * n_v
            col[self.vertex_orbit_index[(t, b)]] += 1
            col[self.vertex_orbit_index[(t, a)]] -= 1
            d1_cols.append(col)
        d2_cols = []
        for tri in self.triangle_orbits:
            t, f = tri[0]
            a, b, c = [v for v in range(4) if v != f]
            col = [0] * n_e
            for (x, y, s) in ((a, b, 1), (b, c, 1), (a, c, -1)):
                idx, sign = lookup[self._edge_key(t, x, y)]
                col[idx] += s * sign
            d2_cols.append(col)
        # transposing an empty list of columns would lose the row count
        n_t = len(d2_cols)
        d1 = IntegerMatrix(n_v, n_e, tuple(zip(*d1_cols))) if n_e else IntegerMatrix.zero(n_v, 0)
        d2 = IntegerMatrix(n_e, n_t, tuple(zip(*d2_cols))) if n_t else IntegerMatrix.zero(n_e, 0)
        return d2, d1

    # -- reporting --------------------------------------------------------

    def dump(self) -> str:
        """One line per face pairing: `t:f -> t':f' [perm]`."""
        lines = []
        for t in range(self.tet_count):
            for f in range(4):
                entry = self._gluings[t][f]
                if entry is None:
                    lines.append(f"{t}:{f} -> boundary")
                    continue
                (t2, f2), p = entry
                if (t2, f2) < (t, f):
                    continue
                lines.append(f"{t}:{f} -> {t2}:{f2} [{''.join(map(str, p))}]")
        return "\n".join(lines)
