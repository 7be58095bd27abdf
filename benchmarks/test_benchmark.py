"""Tests of the benchmark itself: committed inputs, negative controls for every
workload's checks, the pass loop and the tracer.

    python3 -m pytest benchmarks -q
"""

import dataclasses
import shutil
import subprocess
import sys

import pytest

import paths
import run
import tracer
import workloads as wl
from make_inputs import generate


@pytest.fixture(scope="module")
def census_records():
    return wl.census_op(wl.CENSUS_ARGV)


@pytest.fixture(scope="module")
def verdicts():
    found, result = wl.class_verdicts()
    assert result.ok, result.problems
    return found


def test_committed_class_lists_equal_regenerated_ones():
    for path, ids in generate().items():
        assert wl.read_class_list(path) == ids, path.name
    assert len(wl.read_class_list(wl.MANIFOLD_CLASSES)) == wl.MANIFOLD_CLASS_COUNT
    assert len(wl.read_class_list(wl.NONORIENTABLE_CLASSES)) == wl.NONORIENTABLE_CLASS_COUNT


def _edit_first(text, predicate, edit):
    """The records with `edit` applied to the first class record that
    satisfies `predicate`."""
    lines = text.splitlines()
    i, record = next((i, r) for i, r in enumerate(map(wl.json.loads, lines))
                     if r.get("record") == "class" and predicate(r))
    edit(record)
    lines[i] = wl.json.dumps(record, sort_keys=True)
    return "\n".join(lines) + "\n"


def test_census_checks_pass_and_reject_corrupted_records(census_records):
    assert wl.check_census_records(census_records).ok
    manifold = lambda r: r["manifold"]
    nonorientable = lambda r: r["manifold"] and not r["orientable"]
    corrupted = [
        _edit_first(census_records, manifold, lambda r: r.update(manifold=False)),
        _edit_first(census_records, manifold, lambda r: r.update(h1=r["h1"] + " + Z/2")),
        _edit_first(census_records, nonorientable, lambda r: r.update(doubleCoverEuler=2)),
    ]
    for text in corrupted:
        assert text != census_records and not wl.check_census_records(text).ok


def test_raw_checks_pass_and_reject_a_flipped_verdict(verdicts):
    items = wl.raw_sample(seed=3)[::8]
    outputs = [wl.raw_op(g) for g in items]
    assert any(o.manifold for o in outputs) and not all(o.manifold for o in outputs)
    assert wl.check_raw(items, outputs, verdicts).ok
    i = next(k for k, o in enumerate(outputs) if o.manifold)
    flipped = list(outputs)
    flipped[i] = wl.RawOutcome(0, False, None)
    assert wl.check_raw(items, flipped, verdicts).bad_items == {i}
    unmatched = list(outputs)
    unmatched[0] = dataclasses.replace(outputs[0], mismatches=1)
    assert wl.check_raw(items, unmatched, verdicts).bad_items == {0}


def test_raw_sample_draws_from_every_face_matching():
    items = wl.raw_sample(seed=5)
    matchings = {tuple(sorted((p.face_a.index, p.face_b.index) for p in g.pairs)) for g in items}
    assert len(items) == 15 * wl.RAW_PER_MATCHING and len(matchings) == 15
    assert items == wl.raw_sample(seed=5) != wl.raw_sample(seed=6)


def test_homology_checks_reject_disagreeing_h1():
    items = wl.HOMOLOGY_THREE_WAYS.load(1)[:3]
    outputs = [wl.homology_op(g) for g in items]
    assert wl.check_homology(items, outputs).bad_items == set()
    cells, block, cone = outputs[1]
    outputs[1] = (cells, block, wl.algebra.AbelianInvariants(cone.rank + 1, cone.torsion))
    assert wl.check_homology(items, outputs).bad_items == {1}


def test_certify_checks_pass_and_reject_corrupted_certificates():
    items = wl.CERTIFY_NONORIENTABLE.load(2)
    outputs = [wl.certify_op(g) for g in items]
    assert wl.check_certify(items, outputs).ok
    i, out = next((k, o) for k, o in enumerate(outputs) if o.certificate is not None)
    coords = list(out.certificate.coords)
    coords[coords.index(0)] += 1
    doctored = list(outputs)
    doctored[i] = dataclasses.replace(
        out, certificate=dataclasses.replace(out.certificate, coords=tuple(coords)))
    assert i in wl.check_certify(items, doctored).bad_items
    h1_z = next(k for k, (g, o) in enumerate(zip(items, outputs))
                if o.certificate is not None and wl.census.compute_fingerprint(g).h1 == wl.H1_Z)
    lost = list(outputs)
    lost[h1_z] = dataclasses.replace(outputs[h1_z], certificate=None, checked=None)
    assert not wl.check_certify(items, lost).ok


def test_pass_loop_counts_outputs_that_change_between_passes():
    calls = iter(range(100))
    flaky = wl.Workload("flaky", lambda seed: [0, 1], lambda item: next(calls) if item else 0,
                        lambda out: out, lambda items, outputs: wl.CheckResult(), 50, 3)
    passes, first = run.run_passes(flaky, [0, 1], 0, 3)
    assert first == [0, 0] and [p.failed_items for p in passes] == [set(), {1}, {1}]


def test_tracer_wraps_every_binding_counts_and_uninstalls():
    original = wl.census.canonical_form
    wl.census.reference_table()
    t = tracer.Tracer()
    t.install()
    try:
        assert wl.census.canonical_form is not original
        assert wl.census.canonical_form is wl.enumeration.canonical_form
        t.begin_pass()
        wl.census.classify(wl.cube_complex.parse_gluing_text("+x -x r1m / +y -y r0 / +z -z r0"))
        metrics = t.pass_metrics()
    finally:
        t.uninstall()
    assert wl.census.canonical_form is original
    assert metrics["census.classify_calls"] == 1
    assert metrics["enumeration.orbits"] == 1
    assert metrics["enumeration.conjugations"] == 48
    assert 0 < metrics["cube_complex.repeat_tests"] < metrics["cube_complex.manifold_tests"]
    assert metrics["cube_complex.cone_tets"] % 48 == 0 < metrics["cube_complex.cone_tets"]
    assert metrics["census.fingerprints"] == 1
    assert all(metrics[f"{layer}.self_s"] > 0 for layer in
               ("census", "enumeration", "cube_complex", "triangulation", "blocks", "algebra"))
    assert len(t.span_name) > 0 and min(t.span_parent) == -1


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(paths.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(paths.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "census-full",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
