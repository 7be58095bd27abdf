import signal

import pytest

from cubecensus.blocks import assemble_triangulation
from cubecensus.census import run_census
from cubecensus.cube_complex import is_closed_manifold, parse_gluing_text
from cubecensus.enumeration import enumerate_canonical, enumerate_raw
from cubecensus.normal_surfaces import find_certificate


# seconds one test may run, its fixtures included: more than six times the
# slowest test seen
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S.  It derives from BaseException so
    that no `except Exception` in a test or in Hypothesis swallows it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of letting the
    suite hang: a real-time interval timer, armed for the set-up, call and
    teardown of each test, raises in the running code.  It wraps the whole
    protocol rather than sitting in an autouse fixture, because a module-
    or session-scoped fixture is set up before any function-scoped one.

    After the limit the timer fires every 0.1 s until the raise reaches
    pytest, because a callback that ignores exceptions (such as a
    garbage-collector callback) can swallow one raise."""
    def expire(signum, frame):
        # in a frame without a line number pytest cannot format the
        # traceback, so leave the raise to the next tick
        if frame is None or frame.f_lineno is not None:
            raise TimeLimitExceeded(f"{item.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S, 0.1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Stop the timer once the time limit has reached pytest, before it
    writes the report."""
    if call.excinfo is not None and call.excinfo.errisinstance(TimeLimitExceeded):
        signal.setitimer(signal.ITIMER_REAL, 0)
    yield


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
