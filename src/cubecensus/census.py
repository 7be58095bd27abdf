"""The classification pipeline over all one-cube gluings.

For every symmetry class of gluings the pipeline decides manifoldness,
selects a block triangulation without gluing it, computes an invariant
fingerprint (orientability, integral H1, H1 over Z/2 and Z/3, and for
non-orientable manifolds the H1 of the orientation double cover), and
matches non-orientable classes against the four flat reference manifolds.

Identification is by fingerprint equality, never by a homeomorphism test:
a class whose fingerprint matches no reference is reported as unidentified
rather than being given a guessed name.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .algebra import AbelianInvariants, h1_of_chain_complex, mod_p_dimension
from .blocks import BlockKind, gluing_valences, select_block
from .cube_complex import (
    CubeGluing,
    QuotientComplex,
    build_quotient,
    double_cover,
    is_closed_manifold,
    parse_gluing_text,
    quotient_chain_complex,
    quotient_is_orientable,
)
from .enumeration import CanonicalGluing, canonical_form, enumerate_canonical

IMPORTED_FACTS = (
    "imported classification facts (external results, not verified here):",
    "  the closed P^2-irreducible 3-manifolds of surface-complexity zero are"
    " S^3, RP^3 and L(4,1), all orientable;",
    "  there are 11 orientable closed P^2-irreducible 3-manifolds of"
    " surface-complexity one and 80 of surface-complexity two;",
    "  Matveev complexity is not computed by this tool.",
)


@dataclass(frozen=True)
class Fingerprint:
    orientable: bool
    h1: AbelianInvariants
    h1_mod2: int
    h1_mod3: int
    double_cover_h1: AbelianInvariants | None  # present iff non-orientable

    def __str__(self) -> str:
        parts = [
            "orientable" if self.orientable else "non-orientable",
            f"H1={self.h1}",
            f"H1(Z/2)={self.h1_mod2}",
            f"H1(Z/3)={self.h1_mod3}",
        ]
        if self.double_cover_h1 is not None:
            parts.append(f"coverH1={self.double_cover_h1}")
        return ", ".join(parts)


def _cell_h1(q: QuotientComplex) -> AbelianInvariants:
    return h1_of_chain_complex(*quotient_chain_complex(q))


def _fingerprint(q: QuotientComplex) -> tuple[Fingerprint, QuotientComplex | None]:
    """The fingerprint of a closed manifold from its quotient, with the
    quotient of its orientation double cover when it is non-orientable."""
    h1 = _cell_h1(q)
    orientable = quotient_is_orientable(q.spec)
    cover = None if orientable else build_quotient(double_cover(q.spec))
    cover_h1 = None if cover is None else _cell_h1(cover)
    fp = Fingerprint(orientable, h1, mod_p_dimension(h1, 2), mod_p_dimension(h1, 3), cover_h1)
    return fp, cover


def compute_fingerprint(gluing: CubeGluing) -> Fingerprint:
    """Fingerprint of a closed-manifold gluing; homology is taken from the
    quotient cell complex, the Z/2 and Z/3 dimensions from integral H1 by
    universal coefficients, and orientability from the cube orientations.

    No manifold check: the caller must have tested the gluing with
    `is_closed_manifold`.  `classify` and `reference_table` do not call this;
    they fingerprint the quotient that the manifold check returns."""
    return _fingerprint(build_quotient(gluing.to_spec()))[0]


# -- reference manifolds -------------------------------------------------------


@dataclass(frozen=True)
class ReferenceEntry:
    name: str
    seifert_notations: tuple[str, str, str]
    gluing: CubeGluing
    expected_fingerprint: Fingerprint


def _fp(h1, m2, m3, cover):
    return Fingerprint(False, AbelianInvariants(*h1), m2, m3, AbelianInvariants(*cover))


_REFERENCE_DATA = (
    # (name, notations, gluing, frozen fingerprint computed by this pipeline)
    ("K2 x S1",
     ("KB x S1", "A= x S1", "T x~ S1"),
     "+x -x r1m / +y -y r0 / +z -z r0",
     _fp((2, (2,)), 3, 2, (3, ()))),
    ("T2 x I / [0 1 | 1 0]",
     ("SFS [KB: (1,1)]", "M_ x S1", "SFS [T/o2: (1,1)]"),
     "+x -x r0 / +y -y r0 / +z -z r0m",
     _fp((2, ()), 2, 2, (3, ()))),
    ("K2 x I / [1 0 | 0 -1]",
     ("KB/n3 x~ S1", "A=/o2 x~ S1", "SFS [D_: (2,1) (2,1)]"),
     "+x -x r1m / +y -y r0 / +z -z r1m",
     _fp((1, (2, 2)), 3, 1, (1, (2, 2)))),
    ("K2 x I / [-1 1 | 0 -1]",
     ("SFS [KB/n3: (1,1)]", "M_/n2 x~ S1", "SFS [RP2: (2,1) (2,1)]"),
     "+x -y r3 / -x +y r1 / +z -z r0m",
     _fp((1, (4,)), 2, 1, (1, (2, 2)))),
)


@functools.lru_cache(maxsize=1)
def reference_table() -> tuple[ReferenceEntry, ...]:
    """The four flat non-orientable reference manifolds, each with a
    one-cube gluing and its frozen fingerprint.  Entries are re-validated:
    the gluing must be a closed non-orientable manifold whose computed
    fingerprint equals the frozen one, so a bad transcription fails loudly.
    """
    entries = []
    for name, notations, text, expected in _REFERENCE_DATA:
        gluing = parse_gluing_text(text)
        check = is_closed_manifold(gluing.to_spec())
        if not check:
            raise AssertionError(f"reference {name}: not a closed manifold ({check.diagnostic})")
        actual = _fingerprint(check.quotient)[0]
        if actual != expected:
            raise AssertionError(
                f"reference {name}: computed fingerprint {actual} != frozen {expected}")
        if actual.orientable:
            raise AssertionError(f"reference {name}: expected non-orientable")
        entries.append(ReferenceEntry(name, notations, gluing, expected))
    fps = [e.expected_fingerprint for e in entries]
    if len(set(fps)) != 4:
        raise AssertionError(
            "reference fingerprints are not pairwise distinct; the fingerprint "
            "would need to be extended by further covers")
    return tuple(entries)


# -- per-class classification ---------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    class_id: str
    orbit_size: int
    manifold: bool
    diagnostic: str
    mismatch_count: int
    block_kind: str
    tet_count: int | None = None
    valences: tuple[int, ...] | None = None
    orientable: bool | None = None
    h1: AbelianInvariants | None = None
    h1_mod2: int | None = None
    h1_mod3: int | None = None
    double_cover_h1: AbelianInvariants | None = None
    double_cover_orientable: bool | None = None
    double_cover_euler: int | None = None
    reference: str | None = None

    def record(self) -> dict:
        return {
            "classId": self.class_id,
            "orbitSize": self.orbit_size,
            "manifold": self.manifold,
            "diagnostic": self.diagnostic,
            "mismatchCount": self.mismatch_count,
            "blockKind": self.block_kind,
            "tetCount": self.tet_count,
            "valences": list(self.valences) if self.valences is not None else None,
            "orientable": self.orientable,
            "h1": _str_or_none(self.h1),
            "h1mod2": self.h1_mod2,
            "h1mod3": self.h1_mod3,
            "doubleCoverH1": _str_or_none(self.double_cover_h1),
            "doubleCoverOrientable": self.double_cover_orientable,
            "doubleCoverEuler": self.double_cover_euler,
            "reference": self.reference,
        }

    def fingerprint(self) -> Fingerprint | None:
        if not self.manifold:
            return None
        return Fingerprint(self.orientable, self.h1, self.h1_mod2, self.h1_mod3,
                           self.double_cover_h1)


def _str_or_none(value) -> str | None:
    return None if value is None else str(value)


def classify(gluing: CubeGluing, canon: CanonicalGluing | None = None) -> ClassReport:
    """Report row for one gluing, identified by its symmetry class `canon`
    (computed from the gluing when not given).  No triangulation is glued:
    `tetCount` is the block kind's and `valences` come from the quotient."""
    if canon is None:
        canon = canonical_form(gluing)
    choice = select_block(gluing)
    check = is_closed_manifold(gluing.to_spec())
    if not check.ok:
        return ClassReport(canon.class_id, canon.orbit_size, False, check.diagnostic,
                           choice.mismatch_count, choice.kind.value)
    fp, cover = _fingerprint(check.quotient)
    matches = [e.name for e in reference_table() if e.expected_fingerprint == fp]
    cover_orient = cover_euler = None
    if cover is not None:
        cover_orient = quotient_is_orientable(cover.spec)
        cover_euler = cover.euler_characteristic()
    return ClassReport(
        canon.class_id, canon.orbit_size, True, check.diagnostic,
        choice.mismatch_count, choice.kind.value,
        tet_count=choice.kind.tet_count,
        valences=gluing_valences(gluing, choice, check.quotient),
        orientable=fp.orientable,
        h1=fp.h1,
        h1_mod2=fp.h1_mod2,
        h1_mod3=fp.h1_mod3,
        double_cover_h1=fp.double_cover_h1,
        double_cover_orientable=cover_orient,
        double_cover_euler=cover_euler,
        reference=matches[0] if matches else None,
    )


@dataclass(frozen=True)
class CensusSummary:
    total_classes: int
    manifold_classes: int
    nonmanifold_classes: int
    orientable_fingerprint_classes: int
    nonorientable_fingerprint_classes: int
    reference_matches: tuple[tuple[str, int], ...]  # (name, matching class count)
    unidentified_nonorientable_classes: int
    block_kind_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CensusReport:
    opposite_only: bool
    rows: tuple[ClassReport, ...]
    summary: CensusSummary


def run_census(opposite_only: bool = False) -> CensusReport:
    """Classify every canonical class, in class-id order; a failure names
    the class."""
    rows = []
    for canon in enumerate_canonical(opposite_only):
        try:
            rows.append(classify(canon.gluing, canon))
        except Exception as exc:
            raise RuntimeError(f"classifying {canon.class_id}: {exc}") from exc
    rows.sort(key=lambda r: r.class_id)
    return CensusReport(opposite_only, tuple(rows), _summarise(rows))


def _summarise(rows) -> CensusSummary:
    orient_fps = set()
    nonor_fps = set()
    ref_counts: dict[str, int] = {}
    unidentified = 0
    kinds: dict[str, int] = {}
    for row in rows:
        kinds[row.block_kind] = kinds.get(row.block_kind, 0) + 1
        if not row.manifold:
            continue
        fp = row.fingerprint()
        if row.orientable:
            orient_fps.add(fp)
        else:
            nonor_fps.add(fp)
            if row.reference is None:
                unidentified += 1
        if row.reference is not None:
            ref_counts[row.reference] = ref_counts.get(row.reference, 0) + 1
    manifold = sum(1 for r in rows if r.manifold)
    return CensusSummary(
        total_classes=len(rows),
        manifold_classes=manifold,
        nonmanifold_classes=len(rows) - manifold,
        orientable_fingerprint_classes=len(orient_fps),
        nonorientable_fingerprint_classes=len(nonor_fps),
        reference_matches=tuple(sorted(ref_counts.items())),
        unidentified_nonorientable_classes=unidentified,
        block_kind_counts=tuple(sorted(kinds.items())),
    )


# -- theorem verification -------------------------------------------------------


@dataclass(frozen=True)
class VerificationCheck:
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    checks: tuple[VerificationCheck, ...]


def verify_theorem(report: CensusReport) -> VerificationResult:
    """Itemised verification of the classification claims on a full census:
    (a) exactly 4 non-orientable fingerprint classes, (b) each matching a
    distinct reference with pairwise distinct reference fingerprints,
    (c) a valence-4 edge in every non-five-tetrahedron manifold
    triangulation, (d) orientable double covers with zero Euler
    characteristic for every non-orientable class."""
    references = reference_table()
    checks = []

    nonor_rows = [r for r in report.rows if r.manifold and not r.orientable]
    nonor_fps = {}
    for r in nonor_rows:
        nonor_fps.setdefault(r.fingerprint(), []).append(r)
    checks.append(VerificationCheck(
        "a: non-orientable fingerprint classes = 4",
        len(nonor_fps) == 4,
        f"found {len(nonor_fps)}: " + "; ".join(sorted(map(str, nonor_fps))),
    ))

    ref_fps = {e.expected_fingerprint: e.name for e in references}
    distinct = len(ref_fps) == len(references)
    coverage = {e.name: sum(1 for r in nonor_rows if r.reference == e.name)
                for e in references}
    all_covered = all(count > 0 for count in coverage.values())
    each_matches = all(fp in ref_fps for fp in nonor_fps)
    checks.append(VerificationCheck(
        "b: classes match distinct references",
        distinct and all_covered and each_matches,
        f"reference fingerprints distinct={distinct}, coverage={sorted(coverage.items())}, "
        f"every non-orientable class matches a reference={each_matches}",
    ))

    bad_valence = [r.class_id for r in report.rows
                   if r.manifold and r.block_kind != BlockKind.FIVE_TETRAHEDRON.value
                   and r.valences is not None and 4 not in r.valences]
    checks.append(VerificationCheck(
        "c: valence-4 edge in every non-five-tetrahedron manifold",
        not bad_valence,
        "violations: " + (", ".join(bad_valence) if bad_valence else "none"),
    ))

    bad_cover = [r.class_id for r in nonor_rows
                 if not (r.double_cover_orientable and r.double_cover_euler == 0)]
    checks.append(VerificationCheck(
        "d: orientable double cover with euler 0 for non-orientable classes",
        not bad_cover,
        "violations: " + (", ".join(bad_cover) if bad_cover else "none"),
    ))

    return VerificationResult(all(c.passed for c in checks), tuple(checks))


# -- rendering ------------------------------------------------------------------


def render_records(report: CensusReport) -> str:
    """One flat JSON record per line: a header record, one record per
    canonical class, and a summary record."""
    lines = [json.dumps({"record": "header", "oppositeOnly": report.opposite_only,
                         "importedFacts": list(IMPORTED_FACTS)}, sort_keys=True)]
    for row in report.rows:
        payload = {"record": "class"}
        payload.update(row.record())
        lines.append(json.dumps(payload, sort_keys=True))
    s = report.summary
    lines.append(json.dumps({
        "record": "summary",
        "totalClasses": s.total_classes,
        "manifoldClasses": s.manifold_classes,
        "nonmanifoldClasses": s.nonmanifold_classes,
        "orientableFingerprintClasses": s.orientable_fingerprint_classes,
        "nonorientableFingerprintClasses": s.nonorientable_fingerprint_classes,
        "referenceMatches": dict(s.reference_matches),
        "unidentifiedNonorientableClasses": s.unidentified_nonorientable_classes,
        "blockKindCounts": dict(s.block_kind_counts),
    }, sort_keys=True))
    return "\n".join(lines) + "\n"


def render_text(report: CensusReport) -> str:
    lines = ["one-cube census" + (" (opposite faces only)" if report.opposite_only else "")]
    lines.extend(IMPORTED_FACTS)
    lines.append("")
    for row in report.rows:
        if row.manifold:
            ref = row.reference or ("unidentified" if not row.orientable else "-")
            lines.append(
                f"{row.class_id} | orbit {row.orbit_size} | {row.block_kind}"
                f" | tets {row.tet_count}"
                f" | {'orientable' if row.orientable else 'NON-orientable'}"
                f" | H1 {row.h1} | mod2 {row.h1_mod2} | mod3 {row.h1_mod3}"
                + (f" | coverH1 {row.double_cover_h1}" if row.double_cover_h1 is not None else "")
                + f" | ref {ref}")
        else:
            lines.append(
                f"{row.class_id} | orbit {row.orbit_size} | {row.block_kind}"
                f" | NOT a manifold: {row.diagnostic}")
    s = report.summary
    lines.append("")
    lines.append(f"classes: {s.total_classes} ({s.manifold_classes} manifolds, "
                 f"{s.nonmanifold_classes} non-manifolds)")
    lines.append(f"orientable fingerprint classes: {s.orientable_fingerprint_classes}")
    lines.append(f"non-orientable fingerprint classes: {s.nonorientable_fingerprint_classes}")
    lines.append("reference matches: " + ", ".join(f"{n} x{c}" for n, c in s.reference_matches))
    lines.append(f"unidentified non-orientable classes: {s.unidentified_nonorientable_classes}")
    return "\n".join(lines) + "\n"


def render_verification(result: VerificationResult) -> str:
    lines = []
    for check in result.checks:
        lines.append(f"[{'PASS' if check.passed else 'FAIL'}] {check.label}: {check.detail}")
    lines.append("verification " + ("PASSED" if result.passed else "FAILED"))
    return "\n".join(lines) + "\n"
