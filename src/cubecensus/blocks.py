"""The four cube blocks, diagonal patterns, and block-based triangulation.

A block is a triangulation of the solid cube that cuts each boundary square
into two triangles along one diagonal; the six chosen diagonals form the
block's diagonal pattern.  Four blocks suffice to triangulate every closed
manifold obtained by gluing the faces of one cube in pairs:

* the 5-tetrahedron block (four corner tetrahedra around a central one),
* the flipped block (one extra tetrahedron flattens onto a square and flips
  its diagonal; its internal edge has valence 4),
* the 5-valent block (the star of a 5-valent internal edge plus one more
  tetrahedron),
* the 4-valent block (the star of a 4-valent internal edge, an octahedron,
  plus two tetrahedra on opposite boundary triangles).

Given a gluing, we find the face pairs whose maps fail to carry diagonal
to diagonal in the 5-tetrahedron pattern and repair the pattern by flipping
one diagonal per bad pair.  One loop tries the flips in a fixed order: one
face of each bad pair, for up to two bad pairs, and the three faces at an
odd-parity corner for three.  The first repaired pattern that matches every
pair and is a rigid-symmetry image of a reference block is looked up in one
table of block images, which names the block and the first symmetry
carrying it there.  Each (block, symmetry) is instantiated once per
process, on first use (`_block_instance`), as its tetrahedra;
`cube_complex.glue_cubes`, which also glues the cone subdivision, glues
them up.

The tables below are frozen transcriptions with corner ids 4x + 2y + z;
their valence profiles are pinned by golden tests.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
from dataclasses import dataclass

from .cube_complex import (
    CHARTS,
    CORNER_COORDS,
    FACES,
    CubeGluing,
    Face,
    GluingPair,
    QuotientComplex,
    gluing_index_map,
    glue_cubes,
    is_closed_manifold,
)
from .enumeration import ALL_CUBE_SYMMETRIES, CubeSymmetry
from .triangulation import Triangulation


class BlockKind(enum.Enum):
    FIVE_TETRAHEDRON = "five-tetrahedron"
    FLIPPED = "flipped"
    FIVE_VALENT = "five-valent"
    FOUR_VALENT = "four-valent"

    @property
    def tet_count(self) -> int:
        return 5 if self is BlockKind.FIVE_TETRAHEDRON else 6


_BLOCK_TETS: dict[BlockKind, tuple[frozenset[int], ...]] = {
    # central tetrahedron on the odd-parity corners, four corner tetrahedra
    BlockKind.FIVE_TETRAHEDRON: tuple(map(frozenset, (
        (1, 2, 4, 7), (0, 1, 2, 4), (2, 4, 6, 7), (1, 4, 5, 7), (1, 2, 3, 7),
    ))),
    # extra tetrahedron flattened onto the -y square
    BlockKind.FLIPPED: tuple(map(frozenset, (
        (1, 2, 4, 7), (0, 1, 2, 4), (2, 4, 6, 7), (1, 4, 5, 7), (1, 2, 3, 7),
        (0, 1, 4, 5),
    ))),
    # five tetrahedra around the main diagonal 2-5, one more glued on
    BlockKind.FIVE_VALENT: tuple(map(frozenset, (
        (0, 1, 2, 5), (0, 2, 4, 5), (2, 4, 5, 6), (2, 5, 6, 7), (1, 2, 5, 7),
        (1, 2, 3, 7),
    ))),
    # four tetrahedra around 2-5, two more on opposite boundary triangles
    BlockKind.FOUR_VALENT: tuple(map(frozenset, (
        (0, 2, 5, 6), (2, 5, 6, 7), (1, 2, 5, 7), (0, 1, 2, 5), (1, 2, 3, 7),
        (0, 4, 5, 6),
    ))),
}

_BLOCK_INTERNAL_EDGE: dict[BlockKind, frozenset[int] | None] = {
    BlockKind.FIVE_TETRAHEDRON: None,
    BlockKind.FLIPPED: frozenset((1, 4)),
    BlockKind.FIVE_VALENT: frozenset((2, 5)),
    BlockKind.FOUR_VALENT: frozenset((2, 5)),
}


@dataclass(frozen=True)
class DiagonalPattern:
    """One diagonal per face, as the unordered pair of chart positions it
    joins: {0,2} or {1,3} in each face's chart."""

    diagonals: tuple[frozenset[int], ...]  # indexed by Face.index

    def __post_init__(self):
        # a tuple of frozensets, so that the pattern hashes
        if not (type(self.diagonals) is tuple and len(self.diagonals) == 6 and all(
                type(d) is frozenset and d in (frozenset((0, 2)), frozenset((1, 3)))
                for d in self.diagonals)):
            raise ValueError("a diagonal pattern needs a tuple of one chart diagonal per face")

    def diagonal_of(self, face: Face) -> frozenset[int]:
        return self.diagonals[face.index]

    def corner_diagonal(self, face: Face) -> frozenset[int]:
        chart = CHARTS[face]
        return frozenset(chart[i] for i in self.diagonals[face.index])

    def flip(self, face: Face) -> "DiagonalPattern":
        other = frozenset((0, 2)) if self.diagonals[face.index] == frozenset((1, 3)) \
            else frozenset((1, 3))
        new = list(self.diagonals)
        new[face.index] = other
        return DiagonalPattern(tuple(new))

    def flipped_faces_relative_to(self, other: "DiagonalPattern") -> tuple[Face, ...]:
        return tuple(f for f in sorted(FACES, key=lambda f: f.index)
                     if self.diagonals[f.index] != other.diagonals[f.index])


def _pattern_of_block(kind: BlockKind) -> DiagonalPattern:
    """Read the diagonal pattern off the block's boundary triangles, the
    corner triples held by exactly one tetrahedron: each face holds two,
    and the edge they share is the face's diagonal."""
    held = collections.Counter(tet - {c} for tet in _BLOCK_TETS[kind] for c in tet)
    diagonals = []
    for face in FACES:
        chart = CHARTS[face]
        tris = [tri for tri, n in held.items() if n == 1 and tri <= set(chart)]
        if len(tris) != 2:
            raise AssertionError(f"{kind}: {len(tris)} boundary triangles on {face}")
        diagonals.append(frozenset(map(chart.index, tris[0] & tris[1])))
    return DiagonalPattern(tuple(diagonals))


_BLOCK_PATTERNS = {kind: _pattern_of_block(kind) for kind in BlockKind}

FIVE_TET_PATTERN = _BLOCK_PATTERNS[BlockKind.FIVE_TETRAHEDRON]


def reference_pattern(kind: BlockKind) -> DiagonalPattern:
    return _BLOCK_PATTERNS[kind]


def _edge_counts(tets) -> collections.Counter:
    """Corner pair -> the number of tetrahedra holding it, for `_block_instance` tetrahedra."""
    return collections.Counter(a | b for tet in tets for a, b in itertools.combinations(tet, 2))


def block_valences(kind: BlockKind) -> tuple[int | None, tuple[int, ...]]:
    """(internal edge valence, sorted diagonal valences) of the raw block."""
    counts = _edge_counts(_block_instance(kind, tuple(range(8))))
    internal = _BLOCK_INTERNAL_EDGE[kind]
    diag_valences = tuple(sorted(
        counts[_BLOCK_PATTERNS[kind].corner_diagonal(f)] for f in FACES))
    return (counts[internal] if internal is not None else None, diag_valences)


# -- mismatch analysis --------------------------------------------------------


@dataclass(frozen=True)
class MismatchReport:
    pair_matches: tuple[bool, bool, bool]

    @property
    def mismatch_count(self) -> int:
        return sum(1 for m in self.pair_matches if not m)

    def mismatching_pairs(self, g: CubeGluing) -> tuple[GluingPair, ...]:
        return tuple(p for p, ok in zip(g.pairs, self.pair_matches) if not ok)


def pair_matches_pattern(pair: GluingPair, pattern: DiagonalPattern) -> bool:
    """Whether the pair carries the pattern's diagonal of face_a onto its
    diagonal of face_b.  A chart diagonal is one parity class of positions,
    {0, 2} or {1, 3}, and the dihedral map i -> r ± i adds the parity of r,
    its image of 0, to every position's parity."""
    shift = gluing_index_map(pair.sym)[0]
    diagonals = pattern.diagonals
    return (min(diagonals[pair.face_a.index]) + shift) % 2 == min(diagonals[pair.face_b.index])


def mismatch_report(g: CubeGluing, pattern: DiagonalPattern) -> MismatchReport:
    return MismatchReport(tuple(pair_matches_pattern(p, pattern) for p in g.pairs))


# -- block selection ----------------------------------------------------------


# the faces at each odd-parity corner, whose three base diagonals all
# contain it, in corner order
_ODD_CORNER_FACES = tuple(
    tuple(Face(axis, 1 if coords[axis] else -1) for axis in range(3))
    for coords in CORNER_COORDS if sum(coords) % 2)


def _apply_symmetry_to_pattern(cs: CubeSymmetry, pattern: DiagonalPattern) -> DiagonalPattern:
    diagonals: list[frozenset[int] | None] = [None] * 6
    for f in FACES:
        beta = cs.chart_maps[f.index]
        diagonals[cs.face_image[f.index]] = frozenset(map(beta.apply, pattern.diagonal_of(f)))
    return DiagonalPattern(tuple(diagonals))


@functools.cache
def _block_images() -> dict[DiagonalPattern, tuple[BlockKind, CubeSymmetry]]:
    """Every rigid image of every block's reference pattern -> the block's
    kind and the first symmetry in ALL_CUBE_SYMMETRIES carrying it there."""
    images: dict[DiagonalPattern, tuple[BlockKind, CubeSymmetry]] = {}
    for kind in BlockKind:
        for cs in ALL_CUBE_SYMMETRIES:
            images.setdefault(_apply_symmetry_to_pattern(cs, _BLOCK_PATTERNS[kind]), (kind, cs))
    return images


@dataclass(frozen=True)
class BlockChoice:
    kind: BlockKind
    pattern: DiagonalPattern
    symmetry: CubeSymmetry  # carries reference_pattern(kind) to pattern
    mismatch_count: int  # pairs of the gluing that FIVE_TET_PATTERN does not match


def select_block(g: CubeGluing) -> BlockChoice:
    """Flip one face of each pair of g that the base pattern does not match:
    one face per bad pair in face order for up to two bad pairs, the faces
    at an odd-parity corner in corner order for three.  The first flip whose
    pattern matches all three pairs of g and is a block image is chosen."""
    bad = mismatch_report(g, FIVE_TET_PATTERN).mismatching_pairs(g)
    if len(bad) < 3:
        flips = itertools.product(*(sorted((p.face_a, p.face_b)) for p in bad))
    else:
        flips = _ODD_CORNER_FACES
    images = _block_images()
    for faces in flips:
        pattern = FIVE_TET_PATTERN
        for f in faces:
            pattern = pattern.flip(f)
        if pattern in images and all(pair_matches_pattern(p, pattern) for p in g.pairs):
            kind, symmetry = images[pattern]
            return BlockChoice(kind, pattern, symmetry, len(bad))
    raise AssertionError(f"no flip of the bad pairs of {g} gives a block image")


# -- assembling the triangulation ---------------------------------------------


def assemble_triangulation(g: CubeGluing) -> Triangulation:
    """Glue the selected block's boundary triangles according to g.

    Requires a closed-manifold gluing; the result is a closed triangulation
    with 5 or 6 tetrahedra.
    """
    check = is_closed_manifold(g.to_spec())
    if not check:
        raise ValueError(f"not a closed manifold: {check.diagnostic}")
    return glue_block(g, select_block(g))


def glue_block(g: CubeGluing, choice: BlockChoice) -> Triangulation:
    """The block of `choice`, instantiated through its symmetry, glued up
    according to g by `glue_cubes`.  No manifold check: the caller has
    tested g, and `choice` is `select_block(g)`.  A choice whose pattern
    some pair of g does not match raises AssertionError."""
    return glue_cubes(g.to_spec(), _block_instance(choice.kind, choice.symmetry.corner_perm))


def gluing_valences(g: CubeGluing, choice: BlockChoice, q: QuotientComplex) -> tuple[int, ...]:
    """The sorted edge valences of `glue_block(g, choice)`, unglued: each
    corner pair of the block adds its tetrahedron count to its edge class,
    a cube edge's undirected orbit in q, the quotient of `g.to_spec()`, one
    negative key per pair for its two diagonals, or an internal edge alone."""
    tets = _block_instance(choice.kind, choice.symmetry.corner_perm)
    diagonal_class = {choice.pattern.corner_diagonal(f): -1 - i
                      for i, pair in enumerate(g.pairs) for f in (pair.face_a, pair.face_b)}
    classes = collections.Counter()
    for edge, n in _edge_counts(tets).items():
        u, v = edge
        if u ^ v in (1, 2, 4):
            key = min(q.edge_root[8 * u + v], q.edge_root[8 * v + u])
        else:
            key = diagonal_class.get(edge, edge)
        classes[key] += n
    return tuple(sorted(classes.values()))


@functools.cache
def _block_instance(kind: BlockKind, corner_perm: tuple[int, ...]):
    """The tetrahedra of block `kind` carried by the cube symmetry with this
    corner permutation, built on first use: slot i of a tetrahedron holds
    its i-th smallest corner, as a point of `glue_cubes`."""
    return tuple(tuple(frozenset((c,)) for c in sorted(corner_perm[c] for c in tet))
                 for tet in _BLOCK_TETS[kind])
