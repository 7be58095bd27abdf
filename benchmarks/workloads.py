"""The benchmark's four workloads: inputs, one operation per item, and the
checks made on the outputs after the timed passes.

Every check compares against a property the mathematics must have or
against a second computation, never against a stored copy of the program's
output.  The committed class lists under `inputs/` are inputs, regenerated
and compared by `make_inputs.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from cubecensus import algebra, blocks, census, cli, cube_complex, enumeration, normal_surfaces

INPUTS = Path(__file__).resolve().parent / "inputs"
MANIFOLD_CLASSES = INPUTS / "manifold_classes.txt"
NONORIENTABLE_CLASSES = INPUTS / "nonorientable_classes.txt"

RAW_GLUINGS = 15 * 8 ** 3      # 15 face matchings, 8 square symmetries per pair
RAW_MANIFOLDS = 625            # raw gluings whose quotient is a closed manifold
CENSUS_CLASSES = 313
MANIFOLD_CLASS_COUNT = 56
NONORIENTABLE_CLASS_COUNT = 27
RAW_PER_MATCHING = 64          # gluings drawn from each face matching per pass
H1_Z = algebra.AbelianInvariants(1, ())


@dataclass
class CheckResult:
    """Items whose output is wrong, by index, and problems with the
    outputs as a whole."""

    bad_items: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def fail(self, index: int | None, message: str) -> None:
        if index is not None:
            self.bad_items.add(index)
        self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.bad_items and not self.problems


@dataclass(frozen=True)
class Workload:
    name: str
    load: Callable[[int], list]                 # seed -> items
    op: Callable[[Any], Any]                    # item -> output
    summary: Callable[[Any], Any]               # output -> value compared across passes
    check: Callable[[list, list], CheckResult]  # items, outputs of one pass
    tail_percentile: int
    min_passes: int


def parse_invariants(text: str) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) from the census's `Z^2 + Z/2` notation."""
    rank, torsion = 0, []
    for part in ([] if text == "0" else text.split(" + ")):
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"bad invariant string {text!r}")
    return rank, tuple(torsion)


def read_class_list(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _shuffled_classes(path: Path, seed: int) -> list:
    gluings = [cube_complex.parse_gluing_text(text) for text in read_class_list(path)]
    random.Random(seed).shuffle(gluings)
    return gluings


# -- census-full ------------------------------------------------------------------

CENSUS_ARGV = ("census", "--format", "records")


def census_op(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"`cubecensus {' '.join(argv)}` exited with {code}")
    return out.getvalue()


def check_census_records(text: str) -> CheckResult:
    """Checks on one `census --format records` output."""
    result = CheckResult()
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        result.fail(0, f"records are not JSON lines: {exc}")
        return result
    classes = [r for r in records if r.get("record") == "class"]
    summaries = [r for r in records if r.get("record") == "summary"]
    ids = [r["classId"] for r in classes]
    if len(set(ids)) != len(ids):
        result.fail(0, "a class appears in more than one record")
    for r in classes:
        canon = enumeration.canonical_form(cube_complex.parse_gluing_text(r["classId"]))
        if canon.class_id != r["classId"]:
            result.fail(0, f"{r['classId']}: not the canonical form of its class")
        if canon.orbit_size != r["orbitSize"] or 48 % r["orbitSize"]:
            result.fail(0, f"{r['classId']}: orbit size {r['orbitSize']}")
    if sum(r["orbitSize"] for r in classes) != RAW_GLUINGS:
        result.fail(0, f"orbit sizes sum to {sum(r['orbitSize'] for r in classes)}")
    if len(classes) != CENSUS_CLASSES:
        result.fail(0, f"{len(classes)} classes, expected {CENSUS_CLASSES}")
    manifolds = [r for r in classes if r["manifold"]]
    if len(manifolds) != MANIFOLD_CLASS_COUNT:
        result.fail(0, f"{len(manifolds)} manifolds, expected {MANIFOLD_CLASS_COUNT}")
    for r in manifolds:
        rank, torsion = parse_invariants(r["h1"])
        for p in (2, 3):
            expected = rank + sum(1 for d in torsion if d % p == 0)
            if r[f"h1mod{p}"] != expected:
                result.fail(0, f"{r['classId']}: h1mod{p}={r[f'h1mod{p}']} but H1={r['h1']}")
        if not r["orientable"]:
            if rank < 1:
                result.fail(0, f"{r['classId']}: non-orientable with finite H1={r['h1']}")
            if not (r["doubleCoverOrientable"] and r["doubleCoverEuler"] == 0):
                result.fail(0, f"{r['classId']}: double cover not orientable with euler 0")
        if r["blockKind"] != blocks.BlockKind.FIVE_TETRAHEDRON.value and 4 not in r["valences"]:
            result.fail(0, f"{r['classId']}: no valence-4 edge")
    names = {e.name for e in census.reference_table()}
    matched = {r["reference"] for r in classes if r["reference"] is not None}
    if matched != names:
        result.fail(0, f"references matched {sorted(matched)}, expected {sorted(names)}")
    if len(summaries) != 1 or summaries[0]["totalClasses"] != len(classes) \
            or summaries[0]["manifoldClasses"] != len(manifolds):
        result.fail(0, "the summary record disagrees with the class records")
    return result


CENSUS_FULL = Workload(
    name="census-full",
    load=lambda seed: [CENSUS_ARGV],
    op=census_op,
    summary=lambda text: text,
    check=lambda items, outputs: check_census_records(outputs[0]),
    tail_percentile=75,
    min_passes=2,
)


# -- raw-sweep --------------------------------------------------------------------


def raw_sample(seed: int) -> list:
    """RAW_PER_MATCHING gluings drawn without replacement from each of the
    15 face matchings, in enumeration order."""
    by_matching: dict[tuple, list] = {}
    for g in enumeration.enumerate_raw(False):
        key = tuple(sorted((p.face_a.index, p.face_b.index) for p in g.pairs))
        by_matching.setdefault(key, []).append(g)
    if len(by_matching) != 15 or sum(map(len, by_matching.values())) != RAW_GLUINGS:
        raise RuntimeError("enumerate_raw does not give 512 gluings for each of 15 matchings")
    rng = random.Random(seed)
    return [group[i] for _, group in sorted(by_matching.items())
            for i in sorted(rng.sample(range(len(group)), RAW_PER_MATCHING))]


@dataclass(frozen=True)
class RawOutcome:
    mismatches: int
    manifold: bool
    triangulation: Any  # Triangulation for a manifold gluing, else None


def raw_op(g) -> RawOutcome:
    choice = blocks.select_block(g)
    mismatches = blocks.mismatch_report(g, choice.pattern).mismatch_count
    manifold = cube_complex.is_closed_manifold(g.to_spec()).ok
    tri = blocks.assemble_triangulation(g) if manifold else None
    return RawOutcome(mismatches, manifold, tri)


def class_verdicts() -> tuple[dict, CheckResult]:
    """Manifold verdict of every raw gluing, taken from its class in a
    census; the orbits of the census classes must partition the 7680 raw
    gluings and hold 625 manifold gluings."""
    result = CheckResult()
    verdicts = {}
    manifold_gluings = 0
    for row in census.run_census(False).rows:
        orbit = enumeration.orbit_of(cube_complex.parse_gluing_text(row.class_id))
        if len(orbit) != row.orbit_size:
            result.fail(None, f"{row.class_id}: orbit of {len(orbit)}, census says {row.orbit_size}")
        verdicts.update((g.sort_key(), row.manifold) for g in orbit)
        manifold_gluings += row.orbit_size if row.manifold else 0
    if len(verdicts) != RAW_GLUINGS:
        result.fail(None, f"census orbits cover {len(verdicts)} raw gluings")
    if manifold_gluings != RAW_MANIFOLDS:
        result.fail(None, f"manifold classes hold {manifold_gluings} raw gluings")
    return verdicts, result


def check_raw(items, outputs, verdicts: dict) -> CheckResult:
    result = CheckResult()
    for i, (g, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        if out.mismatches:
            result.fail(i, f"{g}: selected pattern leaves {out.mismatches} mismatches")
        if out.manifold != verdicts.get(g.sort_key()):
            result.fail(i, f"{g}: verdict {out.manifold} differs from its class")
        tri = out.triangulation
        if out.manifold and not (tri.is_closed and tri.tet_count <= 6
                                 and tri.all_links_are_spheres()
                                 and tri.euler_characteristic() == 0):
            result.fail(i, f"{g}: block triangulation is not a closed <=6-tetrahedron manifold")
    return result


def _check_raw_against_census(items, outputs) -> CheckResult:
    verdicts, result = class_verdicts()
    found = check_raw(items, outputs, verdicts)
    result.bad_items |= found.bad_items
    result.problems += found.problems
    return result


RAW_SWEEP = Workload(
    name="raw-sweep",
    load=raw_sample,
    op=raw_op,
    summary=lambda out: (out.mismatches, out.manifold,
                         out.triangulation.tet_count if out.manifold else None),
    check=_check_raw_against_census,
    tail_percentile=99,
    min_passes=2,
)


# -- homology-three-ways ----------------------------------------------------------


def homology_op(g) -> tuple:
    """Integral H1 of the quotient cell complex, the block triangulation and
    the cone subdivision."""
    spec = g.to_spec()
    cells = cube_complex.quotient_chain_complex(cube_complex.build_quotient(spec))
    return (algebra.h1_of_chain_complex(*cells),
            algebra.h1_of_chain_complex(*blocks.assemble_triangulation(g).chain_complex()),
            algebra.h1_of_chain_complex(*cube_complex.cone_subdivide(spec).chain_complex()))


def check_homology(items, outputs) -> CheckResult:
    result = CheckResult()
    if len(items) != MANIFOLD_CLASS_COUNT:
        result.fail(None, f"{len(items)} manifold classes, expected {MANIFOLD_CLASS_COUNT}")
    for i, (g, out) in enumerate(zip(items, outputs)):
        if out is not None and len(set(out)) != 1:
            result.fail(i, f"{g}: H1 differs across complexes: {[str(h) for h in out]}")
    return result


HOMOLOGY_THREE_WAYS = Workload(
    name="homology-three-ways",
    load=lambda seed: _shuffled_classes(MANIFOLD_CLASSES, seed),
    op=homology_op,
    summary=lambda out: tuple(map(str, out)),
    check=check_homology,
    tail_percentile=90,
    min_passes=2,
)


# -- certify-nonorientable --------------------------------------------------------


@dataclass(frozen=True)
class CertifyOutcome:
    triangulation: Any
    certificate: Any   # Certificate or None
    checked: Any       # CertificateCheck of the certificate, or None


def certify_op(g) -> CertifyOutcome:
    tri = blocks.assemble_triangulation(g)
    cert = normal_surfaces.find_certificate(tri)
    checked = normal_surfaces.check_certificate(tri, cert) if cert is not None else None
    return CertifyOutcome(tri, cert, checked)


def check_certify(items, outputs) -> CheckResult:
    """Certificates must pass the checker and sit only on classes that match
    no reference; the uncertified classes show exactly the four reference
    fingerprints and never H1 = Z (the paper's theorem)."""
    result = CheckResult()
    if len(items) != NONORIENTABLE_CLASS_COUNT:
        result.fail(None, f"{len(items)} classes, expected {NONORIENTABLE_CLASS_COUNT}")
    ref_fps = {str(e.expected_fingerprint) for e in census.reference_table()}
    uncertified = set()
    for i, (g, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        fp = census.compute_fingerprint(g)
        if fp.orientable:
            result.fail(i, f"{g}: input class is orientable")
        if out.certificate is None:
            uncertified.add(str(fp))
            if fp.h1 == H1_Z:
                result.fail(i, f"{g}: uncertified with H1 = Z")
            continue
        recheck = normal_surfaces.check_certificate(out.triangulation, out.certificate)
        if not (out.checked and recheck):
            result.fail(i, f"{g}: certificate rejected: {recheck.reason}")
        if str(fp) in ref_fps:
            result.fail(i, f"{g}: matches a reference but carries a certificate")
    if uncertified != ref_fps:
        result.fail(None, f"uncertified fingerprints {sorted(uncertified)} are not the references")
    return result


CERTIFY_NONORIENTABLE = Workload(
    name="certify-nonorientable",
    load=lambda seed: _shuffled_classes(NONORIENTABLE_CLASSES, seed),
    op=certify_op,
    summary=lambda out: (out.certificate, bool(out.checked) if out.checked is not None else None),
    check=check_certify,
    tail_percentile=95,
    min_passes=8,
)


WORKLOADS = {w.name: w for w in (CENSUS_FULL, RAW_SWEEP, HOMOLOGY_THREE_WAYS,
                                 CERTIFY_NONORIENTABLE)}
