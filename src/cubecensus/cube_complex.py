"""The cube, its face charts, square symmetries, gluings and quotients.

Conventions fixed once and used everywhere:

* Corners of the unit cube are numbered 0..7 with corner (x,y,z) getting id
  4x + 2y + z, so numeric order is lexicographic order on coordinates.
* Every face has a corner chart: its four corners listed counterclockwise
  as seen from outside the cube, starting at the smallest corner id.
* A gluing of faceA to faceB is written as a square symmetry `r<k>` or
  `r<k>m` relative to the base identification that matches the two charts
  with reversed cyclic order (charts of distinct faces look mirror-image
  to each other from outside, so the base map is the one "without twists":
  for opposite faces it is the straight translation).  Concretely, corner
  chartA[i] is sent to chartB[(k - i) % 4] for `r<k>`, and to
  chartB[(k + i) % 4] for `r<k>m`.  The eight symmetries form a dihedral
  group; the `m` forms are exactly the orientation-reversing gluings.
* So a gluing written `sym` has chart position map `sym ∘ m`, where `m` =
  `r0m` is the base reversal i -> -i; swaps and relabellings compose these.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .algebra import IntegerMatrix
from .triangulation import Triangulation, class_roots

CORNER_COORDS = tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))


def corner_id(x: int, y: int, z: int) -> int:
    return 4 * x + 2 * y + z


@dataclass(frozen=True)
class Face:
    axis: int  # 0, 1, 2 for x, y, z
    sign: int  # +1 or -1

    def __post_init__(self):
        if not (type(self.axis) is int and self.axis in (0, 1, 2)
                and type(self.sign) is int and self.sign in (1, -1)):
            raise ValueError("bad face label")

    @property
    def index(self) -> int:
        # display order: +x, -x, +y, -y, +z, -z
        return 2 * self.axis + (0 if self.sign > 0 else 1)

    def opposite(self) -> "Face":
        return Face(self.axis, -self.sign)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + "xyz"[self.axis]

    def __lt__(self, other: "Face") -> bool:
        return self.index < other.index

    @staticmethod
    def from_str(s: str) -> "Face":
        if len(s) == 2 and s[0] in "+-" and s[1] in "xyz":
            return Face("xyz".index(s[1]), 1 if s[0] == "+" else -1)
        raise ValueError(f"bad face label {s!r}")


FACES = tuple(Face(axis, sign) for axis in (0, 1, 2) for sign in (1, -1))


def _chart(face: Face) -> tuple[int, int, int, int]:
    bit = 1 if face.sign > 0 else 0
    corners = [c for c in range(8) if CORNER_COORDS[c][face.axis] == bit]
    start = min(corners)
    diag = next(c for c in corners
                if c != start and all(CORNER_COORDS[c][a] != CORNER_COORDS[start][a]
                                      for a in range(3) if a != face.axis))
    n1, n2 = sorted(c for c in corners if c not in (start, diag))

    def cross_points_outward(a, b):
        pa, pb, ps = CORNER_COORDS[a], CORNER_COORDS[b], CORNER_COORDS[start]
        e1 = tuple(pa[i] - ps[i] for i in range(3))
        e2 = tuple(pb[i] - pa[i] for i in range(3))
        cr = (e1[1] * e2[2] - e1[2] * e2[1],
              e1[2] * e2[0] - e1[0] * e2[2],
              e1[0] * e2[1] - e1[1] * e2[0])
        return cr[face.axis] == face.sign

    if cross_points_outward(n1, diag):
        return (start, n1, diag, n2)
    assert cross_points_outward(n2, diag)
    return (start, n2, diag, n1)


CHARTS: dict[Face, tuple[int, int, int, int]] = {f: _chart(f) for f in FACES}


@dataclass(frozen=True)
class SquareSymmetry:
    """Element of the dihedral group of order 8 acting on chart positions
    0..3: rotations i -> i + r and reflections i -> r - i (mod 4)."""

    rotation: int
    reflected: bool

    def __post_init__(self):
        if type(self.rotation) is not int or self.rotation not in (0, 1, 2, 3):
            raise ValueError("rotation must be an int in 0..3")
        if type(self.reflected) is not bool:
            raise ValueError("reflected must be a bool")

    def apply(self, i: int) -> int:
        return (self.rotation - i) % 4 if self.reflected else (self.rotation + i) % 4

    def compose(self, other: "SquareSymmetry") -> "SquareSymmetry":
        """self after other: (self.compose(other)).apply(i) == self.apply(other.apply(i))."""
        r = (self.rotation - other.rotation) % 4 if self.reflected else (self.rotation + other.rotation) % 4
        return SquareSymmetry(r, self.reflected != other.reflected)

    def inverse(self) -> "SquareSymmetry":
        if self.reflected:
            return self
        return SquareSymmetry((-self.rotation) % 4, False)

    def __str__(self) -> str:
        return f"r{self.rotation}m" if self.reflected else f"r{self.rotation}"

    @staticmethod
    def from_str(s: str) -> "SquareSymmetry":
        if s.startswith("r") and len(s) in (2, 3):
            refl = s.endswith("m")
            body = s[1:-1] if refl else s[1:]
            if body in "0123" and len(body) == 1:
                return SquareSymmetry(int(body), refl)
        raise ValueError(f"bad square symmetry {s!r}")


ALL_SQUARE_SYMMETRIES = tuple(SquareSymmetry(r, m) for m in (False, True) for r in range(4))

REVERSAL = SquareSymmetry(0, True)  # the base chart matching i -> -i (mod 4)


_INDEX_MAPS = tuple(tuple(s.apply(REVERSAL.apply(i)) for i in range(4))
                    for s in ALL_SQUARE_SYMMETRIES)


def gluing_index_map(sym: SquareSymmetry) -> tuple[int, int, int, int]:
    """Chart position map of the gluing: position i of faceA's chart goes to
    this value in faceB's chart (the symmetry composed with the base
    reversal).  Read from the table of all eight, which lists them in the
    order of ALL_SQUARE_SYMMETRIES."""
    return _INDEX_MAPS[4 * sym.reflected + sym.rotation]


@dataclass(frozen=True)
class GluingPair:
    face_a: Face
    face_b: Face
    sym: SquareSymmetry

    def index_map(self) -> tuple[int, int, int, int]:
        return gluing_index_map(self.sym)

    def corner_map(self) -> dict[int, int]:
        """Corners of face_a -> corners of face_b under the gluing."""
        ca, cb = CHARTS[self.face_a], CHARTS[self.face_b]
        imap = self.index_map()
        return {ca[i]: cb[imap[i]] for i in range(4)}

    def swapped(self) -> "GluingPair":
        """The same identification written from face_b's side: the inverse
        position map m ∘ sym⁻¹ is written m ∘ sym⁻¹ ∘ m."""
        sym = REVERSAL.compose(self.sym.inverse()).compose(REVERSAL)
        return GluingPair(self.face_b, self.face_a, sym)

    def normalised(self) -> "GluingPair":
        return self if self.face_a < self.face_b else self.swapped()

    def __str__(self) -> str:
        return f"{self.face_a} {self.face_b} {self.sym}"


@dataclass(frozen=True)
class CubeGluing:
    """Three face pairs covering all six faces of one cube."""

    pairs: tuple[GluingPair, GluingPair, GluingPair]

    def __post_init__(self):
        faces = [f for p in self.pairs for f in (p.face_a, p.face_b)]
        if len({f.index for f in faces}) != 6:
            raise ValueError("gluing must use each face exactly once")

    @staticmethod
    def from_pairs(pairs) -> "CubeGluing":
        norm = sorted((p.normalised() for p in pairs), key=lambda p: p.face_a.index)
        return CubeGluing(tuple(norm))

    def serialize(self) -> str:
        return " / ".join(str(p) for p in self.pairs)

    def sort_key(self):
        # pairs by (faceA, faceB), then lexicographic on the symmetry
        # encoding, matching the order of serialized class ids
        return tuple((p.face_a.index, p.face_b.index, str(p.sym))
                     for p in self.pairs)

    def to_spec(self) -> "CubulationSpec":
        return CubulationSpec(1, tuple((0, 0, p) for p in self.pairs))

    def __str__(self) -> str:
        return self.serialize()


@dataclass(frozen=True)
class CubulationSpec:
    """A finite collection of cubes with all faces glued in pairs.  Each
    entry `(cube_a, cube_b, pair)` glues face `pair.face_a` of cube `cube_a`
    to face `pair.face_b` of cube `cube_b` by `pair.sym`."""

    cube_count: int
    pairs: tuple[tuple[int, int, GluingPair], ...]

    def __post_init__(self):
        slots = [s for ca, cb, p in self.pairs for s in ((ca, p.face_a), (cb, p.face_b))]
        keys = {(c, f.index) for c, f in slots}
        if len(self.pairs) != 3 * self.cube_count or len(keys) != 6 * self.cube_count:
            raise ValueError("every (cube, face) slot must appear exactly once")
        if any(not (0 <= c < self.cube_count) for c, _ in slots):
            raise ValueError("cube index out of range")


# -- text format ------------------------------------------------------------


class GluingSpecError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def parse_gluing_text(text: str) -> CubeGluing:
    """Parse the one-pair-per-line gluing format `<faceA> <faceB> r<k>[m]`.

    Blank lines and lines starting with `#` are ignored.  The inline form
    with ` / ` separators (used as census class ids) is accepted on a
    single line as well.
    """
    pairs: list[GluingPair] = []
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for chunk in line.split(" / "):
            tokens = chunk.split()
            if len(tokens) != 3:
                raise GluingSpecError(lineno, f"expected `<faceA> <faceB> r<k>[m]`, got {chunk!r}")
            try:
                fa = Face.from_str(tokens[0])
                fb = Face.from_str(tokens[1])
                sym = SquareSymmetry.from_str(tokens[2])
            except ValueError as exc:
                raise GluingSpecError(lineno, str(exc)) from None
            if fa == fb:
                raise GluingSpecError(lineno, "a face cannot be glued to itself")
            for f in (fa, fb):
                if f.index in seen:
                    raise GluingSpecError(
                        lineno, f"face {f} already used on line {seen[f.index]}")
                seen[f.index] = lineno
            pairs.append(GluingPair(fa, fb, sym))
    if len(pairs) != 3:
        raise GluingSpecError(len(text.splitlines()) or 1,
                              f"expected 3 gluing pairs, found {len(pairs)}")
    return CubeGluing.from_pairs(pairs)


# -- quotient complex --------------------------------------------------------

_CUBE_EDGES = tuple(sorted(
    (a, b)
    for a in range(8) for b in range(8)
    if a < b and sum(x != y for x, y in zip(CORNER_COORDS[a], CORNER_COORDS[b])) == 1
))


@dataclass(frozen=True)
class QuotientComplex:
    """Orbits of the cube cells under the transitive closure of the gluing
    maps: the class roots of corners and directed cube edges that
    `_cell_roots` gives, and the first cube edge (cube, u, v), u < v, of
    each edge orbit, whose direction is the orbit's positive one."""

    spec: CubulationSpec
    vertex_root: list[int]  # 8 * cube + corner -> smallest key of its class
    edge_root: list[int]    # 64 * cube + 8 * u + v -> smallest key of its class
    edge_representatives: tuple[tuple[int, int, int], ...]
    vertex_orbit_count: int
    edge_orbit_count: int
    reversed_edge_orbits: tuple[int, ...]
    square_count: int

    @property
    def cube_count(self) -> int:
        return self.spec.cube_count

    def euler_characteristic(self) -> int:
        return (self.vertex_orbit_count - self.edge_orbit_count
                + self.square_count - self.cube_count)


def _cell_roots(spec: CubulationSpec) -> tuple[list[int], list[int]]:
    """Classes of the corners, keyed 8 * cube + corner, and of the directed
    cube edges, keyed 64 * cube + 8 * u + v, under the gluing maps; each key
    is given the smallest key of its class, as `class_roots` does."""
    v_pairs, e_pairs = [], []
    for ca, cb, pair in spec.pairs:
        chart = CHARTS[pair.face_a]
        chart_b = CHARTS[pair.face_b]
        image = [chart_b[j] for j in gluing_index_map(pair.sym)]  # chart[i] -> image[i]
        for i in range(4):
            u, v, u2, v2 = chart[i - 1], chart[i], image[i - 1], image[i]
            v_pairs.append((8 * ca + u, 8 * cb + u2))
            e_pairs.append((64 * ca + 8 * u + v, 64 * cb + 8 * u2 + v2))
            e_pairs.append((64 * ca + 8 * v + u, 64 * cb + 8 * v2 + u2))
    nc = spec.cube_count
    return class_roots(8 * nc, v_pairs), class_roots(64 * nc, e_pairs)


def build_quotient(spec: CubulationSpec) -> QuotientComplex:
    """Finest cell partition closed under all gluing maps; orbit numbering
    follows the smallest contained cell id so output is reproducible."""
    return _quotient_from_roots(spec, *_cell_roots(spec))


def _quotient_from_roots(spec: CubulationSpec, v_root: list[int],
                         e_root: list[int]) -> QuotientComplex:
    """`build_quotient` on the class roots that `_cell_roots(spec)` returns.
    An edge orbit's first cube edge holds its smallest directed key."""
    reps = tuple((c, u, v) for c in range(spec.cube_count) for (u, v) in _CUBE_EDGES
                 if min(e_root[64 * c + 8 * u + v], e_root[64 * c + 8 * v + u])
                 == 64 * c + 8 * u + v)
    return QuotientComplex(
        spec=spec,
        vertex_root=v_root,
        edge_root=e_root,
        edge_representatives=reps,
        vertex_orbit_count=sum(r == k for k, r in enumerate(v_root)),
        edge_orbit_count=len(reps),
        reversed_edge_orbits=tuple(
            idx for idx, (c, u, v) in enumerate(reps)
            if e_root[64 * c + 8 * u + v] == e_root[64 * c + 8 * v + u]),
        square_count=3 * spec.cube_count,
    )


def quotient_chain_complex(q: QuotientComplex):
    """(d2, d1) of the quotient cell structure.  Square boundaries are read
    off from the chart walk of face_a's side of each entry.  A directed edge's
    root names its orbit, and its sign is +1 if it is the representative's."""
    if q.reversed_edge_orbits:
        raise ValueError("chain complex undefined: edge orbit reversed onto itself")
    v_root, e_root = q.vertex_root, q.edge_root
    vertex = {r: i for i, r in enumerate(sorted(set(v_root)))}
    edge: dict[int, tuple[int, int]] = {}  # direction root -> (orbit, sign)
    d1_cols = []
    for idx, (c, u, v) in enumerate(q.edge_representatives):
        edge[e_root[64 * c + 8 * u + v]] = (idx, 1)
        edge[e_root[64 * c + 8 * v + u]] = (idx, -1)
        head, tail = vertex[v_root[8 * c + v]], vertex[v_root[8 * c + u]]
        d1_cols.append({head: 1, tail: -1} if head != tail else {})

    pairs = sorted(q.spec.pairs, key=lambda e: (e[0], e[2].face_a.index))
    d2_cols = []
    for cube_a, _, pair in pairs:
        chart = CHARTS[pair.face_a]
        col: dict[int, int] = {}
        for i in range(4):
            u, v = chart[i], chart[(i + 1) % 4]
            idx, sign = edge[e_root[64 * cube_a + 8 * u + v]]
            col[idx] = col.get(idx, 0) + sign
        d2_cols.append(col)
    return (IntegerMatrix.from_columns(q.edge_orbit_count, d2_cols),
            IntegerMatrix.from_columns(len(vertex), d1_cols))


# -- cone subdivision --------------------------------------------------------

def cone_subdivide(spec: CubulationSpec) -> Triangulation:
    """Cone each cube from its centre over the fully subdivided boundary.

    Every square gets a centre vertex and every cube edge a midpoint, so the
    boundary of each cube is cut into 48 triangles (8 per face) and each
    cube contributes 48 tetrahedra (corner, edge midpoint, square centre,
    cube centre).  With midpoints present, every edge of the subdivision has
    endpoints of different kinds, so no edge can be identified with itself
    in reverse and the vertex links detect every non-manifold point of the
    quotient, including those hiding in the middle of identified cube
    edges.  The census does not use it: it is the independent check of
    `is_closed_manifold` and of the cube-complex homology.

    Each cube copies one cube's 48 rows of internal gluings
    (`_cone_cube_rows`), and each boundary triangle of face_a is glued to
    the one whose corner and edge the pair's corner map gives
    (`_cone_matches`).  Every gluing matches slot to slot.
    """
    identity = (0, 1, 2, 3)
    gl: list[list] = []
    for cube in range(spec.cube_count):
        base = 48 * cube
        gl += [[((base + t2, f2), identity) for t2, f2 in row] + [None]
               for row in _cone_cube_rows()]
    for cube_a, cube_b, pair in spec.pairs:
        for t, t2 in _cone_matches(pair):
            t, t2 = 48 * cube_a + t, 48 * cube_b + t2
            gl[t][3] = ((t2, 3), identity)
            gl[t2][3] = ((t, 3), identity)
    return Triangulation(gl)


@functools.cache
def _cone_cube_rows() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per tetrahedron of one cube's cone, the (tet, face) glued to its
    faces 0, 1 and 2; face 3 lies on the cube's boundary."""
    rows = [[None] * 3 for _ in range(48)]
    for (t1, f1), (t2, f2) in _CONE_INTERNAL:
        rows[t1][f1] = (t2, f2)
        rows[t2][f2] = (t1, f1)
    return tuple(map(tuple, rows))


@functools.cache
def _cone_matches(pair: GluingPair) -> tuple[tuple[int, int], ...]:
    """The 8 pairs (t, t2) of cone tetrahedra whose boundary faces the pair
    glues: t on face_a and t2 on face_b, numbered within their cubes."""
    cmap = pair.corner_map()
    image = _CONE_BOUNDARY[str(pair.face_b)]
    return tuple((t, image[cmap[corner], tuple(sorted((cmap[u], cmap[v])))])
                 for (corner, (u, v)), t in _CONE_BOUNDARY[str(pair.face_a)].items())


def subdivision_vertex_label(tet: int, slot: int):
    """Human-readable label of a subdivision vertex slot, read at import for `_CONE_ORDER`."""
    rest, h = divmod(tet, 2)
    rest, k = divmod(rest, 4)
    cube, face_idx = divmod(rest, 6)
    face = FACES[face_idx]
    chart = CHARTS[face]
    if slot == 0:
        return ("corner", cube, chart[(k + h) % 4])
    if slot == 1:
        return ("edge midpoint", cube, tuple(sorted((chart[k], chart[(k + 1) % 4]))))
    if slot == 2:
        return ("square centre", cube, str(face))
    return ("cube centre", cube)


def _one_cone():
    """One cube's 48 cone tetrahedra, read off their vertex labels.  The
    (tet, face) pairs that hold each internal triangle (faces 0, 1 and 2,
    opposite the corner, midpoint and square centre), and, per cube face,
    its 8 boundary tetrahedra keyed by their corner and edge."""
    holders: dict[tuple, list[tuple[int, int]]] = {}
    boundary: dict[str, dict[tuple, int]] = {}
    for tet in range(48):
        labels = tuple(subdivision_vertex_label(tet, slot) for slot in range(4))
        for f in range(3):
            holders.setdefault(labels[:f] + labels[f + 1:], []).append((tet, f))
        (_, _, corner), (_, _, edge), (_, _, face), _ = labels
        boundary.setdefault(face, {})[corner, edge] = tet
    return tuple(holders.values()), boundary


_CONE_INTERNAL, _CONE_BOUNDARY = _one_cone()


# -- manifold test -----------------------------------------------------------


@dataclass(frozen=True)
class ManifoldCheck:
    """Verdict of `is_closed_manifold`.  A passing check carries the
    quotient, so that callers read homology from it instead of building it
    again; a failed check carries none and names its first failing point."""

    ok: bool
    diagnostic: str
    quotient: QuotientComplex | None = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.ok


# One cube's 27 cone-subdivision points (corners, edge midpoints, square and
# cube centres), labelled as cube 0's, in the order (tet, slot) meets them.
_CONE_ORDER = tuple(dict.fromkeys(subdivision_vertex_label(tet, slot)
                                  for tet in range(48) for slot in range(4)))


def is_closed_manifold(spec: CubulationSpec) -> ManifoldCheck:
    """True iff every point of the quotient cube complex has a 2-sphere link.

    For face pairings of a polyhedron this holds exactly when no edge orbit
    is glued to itself reversed and V - E + F - C = 0, with F = 3C (Seifert
    and Threlfall, *Lehrbuch der Topologie*, 1934).  Both are read off the
    class roots of corners and directed cube edges; an edge orbit is
    reversed when both directions of one cube edge share a root.  The
    criterion is exact:

    * With no reversed edge orbit, each corner orbit's link is a closed
      surface, connected since the orbit is one class of the gluing
      relation: one triangle per (cube, corner) in the orbit, one vertex
      per directed-edge root leaving it.  Other points have sphere links.
    * Summed over corner orbits, the links have 2E vertices, 4F edges and
      8C triangles, so 2 chi(M) = sum over corner orbits of (2 - chi(link)).
    * No term is negative, so every link is a sphere iff chi(M) = 0.

    Only a passing check builds the quotient, from the same roots, and
    carries it.  A failing check walks the cone order cube by cube (cube
    c's keys fill [192c, 192c + 192)), numbers each orbit when it first
    meets it and names the first point whose link is not a sphere, as the
    cone subdivision, this test's independent oracle, would.  A reversed
    orbit's midpoint has link RP^2 (Euler characteristic 1); a corner link
    has vertices minus half its triangles.
    """
    nc = spec.cube_count
    v_root, e_root = _cell_roots(spec)
    edges = [(8 * c + u, 8 * c + v, 64 * c + 8 * u + v, 64 * c + 8 * v + u)
             for c in range(nc) for u, v in _CUBE_EDGES]
    # with no edge orbit reversed, the directed-edge roots number 2E
    if (all(e_root[fwd] != e_root[bwd] for *_, fwd, bwd in edges)
            and 2 * len(set(v_root)) + 4 * nc == len({e_root[k] for e in edges for k in e[2:]})):
        return ManifoldCheck(True, "all vertex links are 2-spheres",
                             _quotient_from_roots(spec, v_root, e_root))
    leaving: dict[int, set[int]] = {root: set() for root in v_root}
    for u, v, fwd, bwd in edges:
        leaving[v_root[u]].add(e_root[fwd])
        leaving[v_root[v]].add(e_root[bwd])
    square = {(c, str(f)): i for i, (ca, cb, p) in enumerate(spec.pairs)
              for c, f in ((ca, p.face_a), (cb, p.face_b))}
    seen = set()
    for cube in range(nc):
        for kind, _, *where in _CONE_ORDER:
            label = (kind, cube, *where)
            orbit, euler = label, 2  # a cube centre is its own orbit
            if kind == "corner":
                orbit = v_root[8 * cube + where[0]]
                euler = len(leaving[orbit]) - v_root.count(orbit) // 2
            elif kind == "edge midpoint":
                u, v = where[0]
                fwd, bwd = e_root[64 * cube + 8 * u + v], e_root[64 * cube + 8 * v + u]
                orbit, euler = (kind, min(fwd, bwd)), 1 if fwd == bwd else 2
            elif kind == "square centre":
                orbit = (kind, square[cube, where[0]])
            if euler != 2:
                return ManifoldCheck(
                    False, f"vertex orbit {len(seen)} {label}: link euler={euler}, connected=True")
            seen.add(orbit)
    raise AssertionError("nonzero Euler characteristic but every link a 2-sphere")


# -- orientability and the orientation double cover ---------------------------

ALREADY_ORIENTABLE = "already orientable"


def quotient_is_orientable(spec: CubulationSpec) -> bool:
    """Propagate cube orientations: a gluing written `r<k>` is compatible
    with coherent orientations and `r<k>m` flips them."""
    pairs = []
    for ca, cb, pair in spec.pairs:
        w = 1 if pair.sym.reflected else 0
        pairs += [(2 * ca, 2 * cb + w), (2 * ca + 1, 2 * cb + 1 - w)]
    parity = class_roots(2 * spec.cube_count, pairs)
    return all(parity[2 * c] != parity[2 * c + 1] for c in range(spec.cube_count))


def orientation_double_cover(spec: CubulationSpec):
    """`double_cover(spec)`, guarded: returns ALREADY_ORIENTABLE for
    orientable input and rejects non-manifold input."""
    check = is_closed_manifold(spec)
    if not check:
        raise ValueError(f"not a closed manifold: {check.diagnostic}")
    if quotient_is_orientable(spec):
        return ALREADY_ORIENTABLE
    return double_cover(spec)


def double_cover(spec: CubulationSpec) -> CubulationSpec:
    """Two lifts per cube; gluings stay in the sheet when orientation-
    compatible and cross sheets otherwise.  No checks: for a non-orientable
    closed manifold this is the orientation double cover."""
    return CubulationSpec(2 * spec.cube_count, tuple(
        (2 * ca + sheet, 2 * cb + (sheet ^ int(pair.sym.reflected)), pair)
        for ca, cb, pair in spec.pairs for sheet in (0, 1)))
