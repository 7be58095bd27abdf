"""Enumeration of one-cube gluings and reduction modulo cube symmetry.

The raw space is 15 perfect matchings of the six faces times 8 square
symmetries per pair (512 per matching, 7680 in total, or 512 with the
matching restricted to opposite faces).  Canonical forms quotient by the
48 isometries of the cube acting by conjugation, by swapping the two faces
inside a pair, and by reordering pairs.

Orbits are computed on integers.  A pair written from its smaller face has
a code below 288, a gluing is the sorted triple of its pair codes, and one
table per isometry sends each pair code to the code of its image.  The
tables are composed from the isometries' chart maps on first use.
`conjugate_gluing` relabels `CubeGluing` objects directly; it is the
tables' oracle in the test suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .cube_complex import (
    ALL_SQUARE_SYMMETRIES,
    CHARTS,
    CORNER_COORDS,
    FACES,
    REVERSAL,
    CubeGluing,
    Face,
    GluingPair,
    SquareSymmetry,
    corner_id,
)


@dataclass(frozen=True)
class CubeSymmetry:
    """One of the 48 isometries of the cube as a corner permutation, with
    the induced face permutation and per-face chart position maps."""

    corner_perm: tuple[int, ...]
    face_image: tuple[int, ...]             # face index -> face index
    chart_maps: tuple[SquareSymmetry, ...]  # face index -> position map

    def apply_corner(self, c: int) -> int:
        return self.corner_perm[c]

    def apply_face(self, f: Face) -> Face:
        return FACES[self.face_image[f.index]]


def _build_symmetries() -> tuple[CubeSymmetry, ...]:
    out = []
    for axes in itertools.permutations(range(3)):
        for flips in itertools.product((0, 1), repeat=3):
            perm = []
            for c in range(8):
                src = CORNER_COORDS[c]
                img = [0, 0, 0]
                for j in range(3):
                    img[j] = src[axes[j]] ^ flips[j]
                perm.append(corner_id(*img))
            perm = tuple(perm)
            face_image = []
            chart_maps = []
            for f in FACES:
                image_corners = [perm[c] for c in CHARTS[f]]
                f2 = next(g for g in FACES if set(CHARTS[g]) == set(image_corners))
                face_image.append(f2.index)
                positions = [CHARTS[f2].index(c) for c in image_corners]
                beta = SquareSymmetry(positions[0], positions[1] != (positions[0] + 1) % 4)
                if [beta.apply(i) for i in range(4)] != positions:
                    raise AssertionError(f"chart map {positions} of face {f} is not dihedral")
                chart_maps.append(beta)
            out.append(CubeSymmetry(perm, tuple(face_image), tuple(chart_maps)))
    return tuple(out)


ALL_CUBE_SYMMETRIES = _build_symmetries()

_FACE_MATCHINGS: tuple[tuple[tuple[int, int], ...], ...]


def _matchings(indices: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for partner in rest:
        remaining = tuple(i for i in rest if i != partner)
        for tail in _matchings(remaining):
            yield ((first, partner),) + tail


_FACE_MATCHINGS = tuple(_matchings(tuple(range(6))))
_OPPOSITE_MATCHING = tuple(
    m for m in _FACE_MATCHINGS
    if all(FACES[a].opposite() == FACES[b] for a, b in m)
)


def enumerate_raw(opposite_only: bool = False) -> Iterator[CubeGluing]:
    """Every valid one-cube gluing exactly once, in a fixed order.  The
    gluings share their pairs: the eight of each face pair are made once."""
    pairs = {(a, b): [GluingPair(FACES[a], FACES[b], sym) for sym in ALL_SQUARE_SYMMETRIES]
             for a, b in itertools.combinations(range(6), 2)}
    for matching in _OPPOSITE_MATCHING if opposite_only else _FACE_MATCHINGS:
        for triple in itertools.product(*(pairs[a, b] for a, b in matching)):
            yield CubeGluing(triple)


def conjugate_gluing(g: CubeGluing, cs: CubeSymmetry) -> CubeGluing:
    """Relabel the cube by the isometry: the same identification space with
    every face and chart position renamed.  With chart maps β_a, β_b of the
    pair's faces, the position map sym ∘ m becomes β_b ∘ sym ∘ m ∘ β_a⁻¹,
    which is written β_b ∘ sym ∘ m ∘ β_a⁻¹ ∘ m.  The census uses the same
    formula on integer codes (`_pair_tables`); this is their oracle."""
    new_pairs = []
    for pair in g.pairs:
        fa, fb = pair.face_a, pair.face_b
        beta_a, beta_b = cs.chart_maps[fa.index], cs.chart_maps[fb.index]
        sym = (beta_b.compose(pair.sym).compose(REVERSAL)
               .compose(beta_a.inverse()).compose(REVERSAL))
        new_pairs.append(GluingPair(cs.apply_face(fa), cs.apply_face(fb), sym))
    return CubeGluing.from_pairs(new_pairs)


@dataclass(frozen=True)
class CanonicalGluing:
    gluing: CubeGluing
    orbit_size: int

    @property
    def class_id(self) -> str:
        return self.gluing.serialize()


# -- integer codes -------------------------------------------------------------
#
# A pair written from its smaller face has the code
# (face_a·6 + face_b)·8 + rank(str(sym)), and a gluing is the sorted triple of
# its pair codes.  Pairs use disjoint faces, so code triples sort exactly as
# `CubeGluing.sort_key` does.

_SYMS_BY_RANK = tuple(sorted(ALL_SQUARE_SYMMETRIES, key=str))
_RANK = {s: i for i, s in enumerate(_SYMS_BY_RANK)}


def _pair_code(p: GluingPair) -> int:
    p = p.normalised()
    return (p.face_a.index * 6 + p.face_b.index) * 8 + _RANK[p.sym]


def _encode(g: CubeGluing) -> tuple[int, int, int]:
    return tuple(sorted(_pair_code(p) for p in g.pairs))


def _decode(codes: tuple[int, int, int]) -> CubeGluing:
    return CubeGluing(tuple(
        GluingPair(FACES[c // 48], FACES[c // 8 % 6], _SYMS_BY_RANK[c % 8]) for c in codes))


@functools.cache
def _pair_tables() -> tuple[tuple[int | None, ...], ...]:
    """For each cube symmetry, pair code -> normalised code of the pair's
    image under `conjugate_gluing`, filled for normalised codes only.  The
    conjugation β_b ∘ sym ∘ m ∘ β_a⁻¹ ∘ m and the swap m ∘ sym⁻¹ ∘ m are
    composed on 8×8 rank tables."""
    compose = [[_RANK[a.compose(b)] for b in _SYMS_BY_RANK] for a in _SYMS_BY_RANK]
    inverse = [_RANK[s.inverse()] for s in _SYMS_BY_RANK]
    m = _RANK[REVERSAL]
    tables = []
    for cs in ALL_CUBE_SYMMETRIES:
        beta = [_RANK[b] for b in cs.chart_maps]
        table: list[int | None] = [None] * 288
        for a, b in itertools.combinations(range(6), 2):
            a2, b2 = cs.face_image[a], cs.face_image[b]
            image = (min(a2, b2) * 6 + max(a2, b2)) * 8
            after, before = compose[beta[b]], inverse[beta[a]]
            for s in range(8):
                t = compose[compose[compose[after[s]][m]][before]][m]
                if a2 > b2:
                    t = compose[compose[m][inverse[t]]][m]
                table[(a * 6 + b) * 8 + s] = image + t
        tables.append(tuple(table))
    return tuple(tables)


def _orbit_codes(codes: tuple[int, int, int]) -> set[tuple[int, int, int]]:
    a, b, c = codes
    return {tuple(sorted((t[a], t[b], t[c]))) for t in _pair_tables()}


def orbit_of(g: CubeGluing) -> tuple[CubeGluing, ...]:
    """All distinct relabelings of g, sorted."""
    return tuple(_decode(codes) for codes in sorted(_orbit_codes(_encode(g))))


def canonical_form(g: CubeGluing) -> CanonicalGluing:
    codes = _orbit_codes(_encode(g))
    return CanonicalGluing(gluing=_decode(min(codes)), orbit_size=len(codes))


def enumerate_canonical(opposite_only: bool = False) -> list[CanonicalGluing]:
    """One representative per symmetry class, in `CubeGluing.sort_key` order
    (faces ordered +x, -x, +y, -y, +z, -z), not the string order of class ids."""
    classes = []
    visited: set[tuple[int, int, int]] = set()
    for matching in _OPPOSITE_MATCHING if opposite_only else _FACE_MATCHINGS:
        x, y, z = ((a * 6 + b) * 8 for a, b in matching)
        for s, t, u in itertools.product(range(8), repeat=3):
            codes = (x + s, y + t, z + u)
            if codes in visited:
                continue
            orbit = _orbit_codes(codes)
            visited |= orbit
            classes.append((min(orbit), len(orbit)))
    classes.sort()
    return [CanonicalGluing(gluing=_decode(codes), orbit_size=size) for codes, size in classes]
