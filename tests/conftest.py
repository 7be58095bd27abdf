import pytest

from cubecensus.blocks import assemble_triangulation
from cubecensus.census import run_census
from cubecensus.cube_complex import is_closed_manifold, parse_gluing_text
from cubecensus.enumeration import enumerate_canonical, enumerate_raw
from cubecensus.normal_surfaces import find_certificate


@pytest.fixture(scope="session")
def canonical_classes():
    return enumerate_canonical(opposite_only=False)


@pytest.fixture(scope="session")
def raw_manifold_gluings():
    """The 625 raw one-cube gluings that are closed manifolds."""
    return [g for g in enumerate_raw(False) if is_closed_manifold(g.to_spec()).ok]


@pytest.fixture(scope="session")
def full_census():
    return run_census(opposite_only=False)


@pytest.fixture(scope="session")
def manifold_rows(full_census):
    return [row for row in full_census.rows if row.manifold]


@pytest.fixture(scope="session")
def p2_certificates(manifold_rows):
    """Class id -> P^2-reducibility certificate or None, searched once on
    the block triangulation of every non-orientable manifold class,
    including the flat ones, where a certificate would expose a faulty
    checker."""
    return {row.class_id: find_certificate(assemble_triangulation(parse_gluing_text(row.class_id)))
            for row in manifold_rows if not row.orientable}
