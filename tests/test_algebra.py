"""Tests for exact Smith normal form and homology helpers.

The independent oracles here share no code with the row/column reduction
and the sparse product under test: invariant factors from gcds of k x k
minors (d_1 * ... * d_k = gcd of all k x k minors), sympy's invariant
factors, a textbook dense product that forms every term, and H1 by two
Smith normal forms (of d1, then of im(d2) in a basis of ker(d1)).  The
oracles read a matrix through `dense`, which expands its sparse rows.
"""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from cubecensus.algebra import (
    AbelianInvariants,
    IntegerMatrix,
    SmithNormalForm,
    _product_is,
    _verify_certificate,
    h1_of_chain_complex,
    h1_with_coefficients,
    mod_p_dimension,
    smith_normal_form,
)
from cubecensus.blocks import assemble_triangulation
from cubecensus.census import reference_table
from cubecensus.cube_complex import (
    build_quotient,
    cone_subdivide,
    double_cover,
    quotient_chain_complex,
    quotient_is_orientable,
)

BIG = 10 ** 30


def dense(m: IntegerMatrix) -> tuple[tuple[int, ...], ...]:
    """The entries of m as dense rows, expanded from its sparse rows."""
    out = []
    for row in m.terms:
        full = [0] * m.cols
        for j, x in row:
            full[j] = x
        out.append(tuple(full))
    return tuple(out)


def sparse(rows):
    """Dense rows as sparse rows of (column, value) pairs."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


def from_rows(rows) -> IntegerMatrix:
    """The matrix with these dense rows."""
    rows = [list(row) for row in rows]
    return IntegerMatrix(len(rows), len(rows[0]) if rows else 0, sparse(rows))


def dense_mul(x: IntegerMatrix, y: IntegerMatrix) -> IntegerMatrix:
    """Oracle: the textbook product, each entry a sum over a row of x zipped
    with a column of y, zero terms included."""
    if x.cols != y.rows:
        raise ValueError("shape mismatch")
    cols = list(zip(*dense(y))) if y.rows and y.cols else [()] * y.cols
    return IntegerMatrix(x.rows, y.cols, sparse(
        tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in dense(x)))


def diagonal_entries(rows: int, cols: int, diag) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(cols))
                 for i in range(rows))


def assert_certificate_by_dense_product(s) -> None:
    m = s.matrix
    assert dense(dense_mul(dense_mul(s.u, m), s.v)) == diagonal_entries(m.rows, m.cols, s.invariants)
    assert dense(dense_mul(s.u, s.u_inv)) == diagonal_entries(m.rows, m.rows, (1,) * m.rows)
    assert dense(dense_mul(s.v, s.v_inv)) == diagonal_entries(m.cols, m.cols, (1,) * m.cols)
    assert all(d > 0 for d in s.invariants)
    for a, b in zip(s.invariants, s.invariants[1:]):
        assert b % a == 0


def identity(n: int) -> IntegerMatrix:
    return from_rows(diagonal_entries(n, n, (1,) * n))


def snf_diagonal(s) -> IntegerMatrix:
    """The diagonal matrix that u * m * v must equal."""
    m = s.matrix
    return IntegerMatrix(m.rows, m.cols, tuple(
        ((i, d),) for i, d in enumerate(s.invariants)) + ((),) * (m.rows - len(s.invariants)))


@st.composite
def sparse_matrix(draw, rows, cols, values, zero_tenths=st.integers(0, 10)):
    """A rows x cols matrix whose share of zero entries, in tenths, is drawn
    first, so that examples range from all-zero to fully dense."""
    zero_tenths = draw(zero_tenths)
    return IntegerMatrix(rows, cols, tuple(
        tuple((j, x) for j in range(cols)
              for x in [draw(values) if draw(st.integers(1, 10)) > zero_tenths else 0] if x)
        for _ in range(rows)))


SMALL_OR_HUGE = st.integers(-5, 5) | st.integers(BIG - 3, BIG + 3) | st.integers(-BIG - 3, -BIG + 3)


@st.composite
def mul_operands(draw):
    r, k, c = (draw(st.integers(0, 7)) for _ in range(3))
    mostly_zero = st.integers(5, 10)
    return (draw(sparse_matrix(r, k, SMALL_OR_HUGE, mostly_zero)),
            draw(sparse_matrix(k, c, SMALL_OR_HUGE, mostly_zero)))


def minor_gcd_invariants(m: IntegerMatrix) -> tuple[int, ...]:
    """Oracle: invariant factors via gcds of k x k minors (exponential in k,
    fine for the small matrices used in these tests)."""

    def det(rows):
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            if rows[0][j] == 0:
                continue
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det(sub)
        return total

    entries = dense(m)
    prev = 1
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                sub = [[entries[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


CASES = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 4], [6, 8]],
    [[0, 0], [0, 0]],
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 2, 3], [4, 5, 6]],
    [[6], [10], [15]],
    [[2, 0], [0, 3], [0, 0]],
    [[12, 8, 6], [4, 2, 0], [0, 0, 5], [1, 1, 1]],
    [[0, 1], [1, 0]],
    [[3, 3, 3], [3, 3, 3]],
]


@pytest.mark.parametrize("rows", CASES)
def test_snf_matches_minor_gcd_oracle(rows):
    m = from_rows(rows)
    assert smith_normal_form(m).invariants == minor_gcd_invariants(m)


def test_snf_examples():
    assert smith_normal_form(identity(3)).invariants == (1, 1, 1)
    # gcd of entries 2, |det| = 8 forces (2, 4)
    assert smith_normal_form(from_rows([[2, 4], [6, 8]])).invariants == (2, 4)
    assert smith_normal_form(IntegerMatrix.zero(3, 4)).invariants == ()


@pytest.mark.parametrize("rows", CASES)
def test_snf_certificate(rows):
    m = from_rows(rows)
    s = smith_normal_form(m)
    assert s.u.mul(m).mul(s.v) == snf_diagonal(s)
    assert s.u.mul(s.u_inv) == identity(m.rows)
    assert s.v.mul(s.v_inv) == identity(m.cols)
    for a, b in zip(s.invariants, s.invariants[1:]):
        assert b % a == 0


@pytest.mark.parametrize("rows", CASES)
def test_snf_invariant_under_permutation_and_transpose(rows):
    m = from_rows(rows)
    base = smith_normal_form(m).invariants
    flipped = from_rows(list(reversed([list(reversed(r)) for r in dense(m)])))
    assert smith_normal_form(flipped).invariants == base
    transposed = from_rows([list(col) for col in zip(*dense(m))])
    assert smith_normal_form(transposed).invariants == base


def test_snf_large_entries_stay_exact():
    big = 10 ** 30
    m = from_rows([[big, big + 2], [2, 4]])
    s = smith_normal_form(m)
    assert s.u.mul(m).mul(s.v) == snf_diagonal(s)
    assert minor_gcd_invariants(m) == s.invariants


def test_h1_torus_cube_complex():
    # One vertex, three edges, three squares whose boundary words cancel:
    # both boundary maps vanish, so H1 is free of rank 3.
    d1 = IntegerMatrix.zero(1, 3)
    d2 = IntegerMatrix.zero(3, 3)
    assert h1_of_chain_complex(d2, d1) == AbelianInvariants(3, ())


def test_h1_klein_times_circle_style_complex():
    # One vertex, three edges; one square kills twice the second edge.
    d1 = IntegerMatrix.zero(1, 3)
    d2 = from_rows([[0, 0, 0], [0, -2, 0], [0, 0, 0]])
    assert h1_of_chain_complex(d2, d1) == AbelianInvariants(2, (2,))


def test_h1_trivial_group():
    # Circle whose fundamental class is killed once: H1 = 0.
    d1 = IntegerMatrix.zero(1, 1)
    d2 = from_rows([[1]])
    assert h1_of_chain_complex(d2, d1) == AbelianInvariants(0, ())


def test_h1_rejects_non_complex():
    d1 = from_rows([[1, 0]])
    d2 = from_rows([[1], [0]])
    with pytest.raises(ValueError):
        h1_of_chain_complex(d2, d1)


@pytest.mark.parametrize("d1_rows, d2_rows", [
    ([[2, 0]], [[0], [1]]),                  # an entry other than +-1
    ([[2, 0], [-2, 0]], [[0], [1]]),         # +-2 in place of +-1
    ([[1, 0], [1, 0]], [[0], [1]]),          # two +1 in one column
    ([[1, 0]], [[0], [1]]),                  # a column with one nonzero
    ([[1, 0], [-1, 0], [1, 0]], [[0], [1]]),  # three nonzeros in one column
])
def test_h1_rejects_a_complex_whose_d1_is_not_an_incidence_matrix(d1_rows, d2_rows):
    d1, d2 = from_rows(d1_rows), from_rows(d2_rows)
    assert d1.mul(d2).is_zero()
    with pytest.raises(ValueError, match="incidence"):
        h1_of_chain_complex(d2, d1)


def two_snf_h1(d2: IntegerMatrix, d1: IntegerMatrix) -> AbelianInvariants:
    """Oracle: H1 = ker(d1)/im(d2) by one Smith normal form of d1, whose v
    gives a basis of ker(d1), and one of im(d2) written in that basis."""
    assert d1.cols == d2.rows and dense_mul(d1, d2) == IntegerMatrix.zero(d1.rows, d2.cols)
    n = d1.cols
    snf1 = smith_normal_form(d1)
    r1 = snf1.rank
    # columns r1..n-1 of v span ker(d1); rows r1.. of v_inv * d2 are im(d2) there
    y = dense(dense_mul(snf1.v_inv, d2))
    assert not any(any(row) for row in y[:r1])
    snf_w = smith_normal_form(IntegerMatrix(n - r1, d2.cols, sparse(y[r1:])))
    return AbelianInvariants((n - r1) - snf_w.rank, tuple(d for d in snf_w.invariants if d > 1))


def test_h1_matches_two_snf_oracle_on_every_raw_manifold_gluing(raw_manifold_gluings):
    """The quotient and block complexes of the 625 raw manifold gluings, and
    the quotients of the double covers of the non-orientable ones."""
    covers = 0
    for g in raw_manifold_gluings:
        spec = g.to_spec()
        complexes = [quotient_chain_complex(build_quotient(spec)),
                     assemble_triangulation(g).chain_complex()]
        if not quotient_is_orientable(spec):
            complexes.append(quotient_chain_complex(build_quotient(double_cover(spec))))
            covers += 1
        for d2, d1 in complexes:
            assert h1_of_chain_complex(d2, d1) == two_snf_h1(d2, d1), g
    assert (len(raw_manifold_gluings), covers) == (625, 255)


def test_h1_mod_p_agrees_with_universal_coefficients():
    d1 = IntegerMatrix.zero(1, 3)
    for d2_rows, expect_int in [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], AbelianInvariants(3, ())),
        ([[0, 0, 0], [0, -2, 0], [0, 0, 0]], AbelianInvariants(2, (2,))),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 0]], AbelianInvariants(1, (2, 12))),
    ]:
        d2 = from_rows(d2_rows)
        h1 = h1_of_chain_complex(d2, d1)
        assert h1 == expect_int
        for p in (2, 3, 5):
            assert h1_with_coefficients(d2, d1, p) == mod_p_dimension(h1, p)


def test_h1_mod_p_examples():
    d1 = IntegerMatrix.zero(1, 3)
    torus_d2 = IntegerMatrix.zero(3, 3)
    klein_d2 = from_rows([[0, 0, 0], [0, -2, 0], [0, 0, 0]])
    assert h1_with_coefficients(torus_d2, d1, 2) == 3
    # rank-2 free part plus Z/2 also gives dimension 3 over Z/2
    assert h1_with_coefficients(klein_d2, d1, 2) == 3
    assert h1_with_coefficients(klein_d2, d1, 3) == 2


def test_abelian_invariants_rendering():
    assert str(AbelianInvariants(0, ())) == "0"
    assert str(AbelianInvariants(1, ())) == "Z"
    assert str(AbelianInvariants(3, ())) == "Z^3"
    assert str(AbelianInvariants(2, (2,))) == "Z^2 + Z/2"
    assert str(AbelianInvariants(0, (2, 4))) == "Z/2 + Z/4"


@settings(deadline=None, max_examples=300)
@given(mul_operands())
def test_mul_matches_dense_product(operands):
    x, y = operands
    product = x.mul(y)
    expected = dense_mul(x, y)
    assert (product.rows, product.cols) == (expected.rows, expected.cols)
    assert dense(product) == dense(expected)


@pytest.mark.parametrize("left, right", [((2, 3), (2, 3)), ((0, 1), (0, 1)), ((3, 0), (1, 3))])
def test_mul_rejects_shape_mismatch(left, right):
    with pytest.raises(ValueError):
        IntegerMatrix.zero(*left).mul(IntegerMatrix.zero(*right))


@st.composite
def snf_inputs(draw):
    return draw(sparse_matrix(draw(st.integers(1, 8)), draw(st.integers(1, 8)), st.integers(-6, 6)))


@settings(deadline=None, max_examples=150)
@given(snf_inputs())
def test_snf_matches_sympy_invariant_factors(m):
    s = smith_normal_form(m)
    expected = invariant_factors(Matrix([list(row) for row in dense(m)]), domain=ZZ)
    assert s.invariants == tuple(abs(int(d)) for d in expected if d != 0)
    assert_certificate_by_dense_product(s)


@st.composite
def boundary_shaped(draw):
    """Up to 16 x 32, each column holding 0-3 entries of magnitude 1 or 2 in
    distinct rows, like the boundary maps of the cell complexes."""
    rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 32))
    columns = []
    for _ in range(cols):
        column = [0] * rows
        for i in draw(st.lists(st.integers(0, rows - 1), max_size=3, unique=True)):
            column[i] = draw(st.sampled_from((-2, -1, 1, 2)))
        columns.append(column)
    return from_rows(zip(*columns))


@settings(deadline=None, max_examples=150)
@given(boundary_shaped())
def test_snf_of_boundary_shaped_matrices_matches_sympy(m):
    s = smith_normal_form(m)
    expected = invariant_factors(Matrix([list(row) for row in dense(m)]), domain=ZZ)
    assert s.invariants == tuple(abs(int(d)) for d in expected if d != 0)
    assert_certificate_by_dense_product(s)


@pytest.mark.parametrize("rows", [
    # after the first stage 3 sits off the diagonal, where a divisibility
    # check of diagonal entries alone does not see it
    [[0, 0], [0, 2], [3, 0]],
    # swapping remainders into the pivot without a fresh pivot search let
    # the entries grow past thousands of digits on this matrix
    [[-6, 5, -6, 0, 5, -5], [-3, 5, 0, -3, -1, 5], [6, 0, 5, 4, 6, -1], [-6, 3, 5, 0, -5, 0],
     [0, -3, -6, 1, -6, 1], [3, -1, 1, -3, 4, -5], [0, -4, -2, -2, 6, 4], [-6, -6, 6, -1, 0, 0]],
])
def test_snf_of_matrices_the_reduction_once_failed_on(rows):
    m = from_rows(rows)
    s = smith_normal_form(m)
    assert s.invariants == minor_gcd_invariants(m)
    assert_certificate_by_dense_product(s)


@pytest.fixture(scope="module")
def k2xs1_cone_snf():
    """SNF of the cone-subdivision d2 of the K2 x S1 reference; its
    transformation matrices are mostly zero."""
    entry = next(e for e in reference_table() if e.name == "K2 x S1")
    d2, _ = cone_subdivide(entry.gluing.to_spec()).chain_complex()
    return smith_normal_form(d2)


def _with_entry_changed(m: IntegerMatrix, was_zero: bool) -> IntegerMatrix:
    """m with its last zero (or last nonzero) entry in row-major order
    increased by one."""
    rows = [list(row) for row in dense(m)]
    i, j = next((i, j) for i in reversed(range(m.rows)) for j in reversed(range(m.cols))
                if (rows[i][j] == 0) == was_zero)
    rows[i][j] += 1
    return from_rows(rows)


def test_certificate_of_reference_cone_snf_is_sparse_and_passes(k2xs1_cone_snf):
    s = k2xs1_cone_snf
    _verify_certificate(s)
    assert_certificate_by_dense_product(s)
    cells = s.u.rows ** 2 + s.v.rows ** 2
    nonzero = sum(len(row) for t in (s.u, s.v) for row in t.terms)
    assert nonzero < cells // 2


def test_reference_cone_snf_transforms_stay_low_in_fill(k2xs1_cone_snf):
    # unit pivots from short rows and columns: 1,302 nonzeros, where the
    # first unit in row-major order left 2,206
    s = k2xs1_cone_snf
    assert sum(len(row) for t in (s.u, s.v, s.u_inv, s.v_inv) for row in t.terms) <= 1400


@pytest.mark.parametrize("field", ["u", "v", "u_inv", "v_inv"])
@pytest.mark.parametrize("was_zero", [True, False])
def test_verify_certificate_rejects_a_changed_transform_entry(k2xs1_cone_snf, field, was_zero):
    s = k2xs1_cone_snf
    bad = dataclasses.replace(s, **{field: _with_entry_changed(getattr(s, field), was_zero)})
    with pytest.raises(AssertionError):
        _verify_certificate(bad)


def test_verify_certificate_rejects_wrong_invariants(k2xs1_cone_snf):
    with pytest.raises(AssertionError):
        _verify_certificate(dataclasses.replace(k2xs1_cone_snf, invariants=(2, 3)))


def _forged_snf(m, invariants, u, v, u_inv, v_inv) -> SmithNormalForm:
    return SmithNormalForm(from_rows(m), invariants, from_rows(u), from_rows(v),
                           from_rows(u_inv), from_rows(v_inv))


@pytest.mark.parametrize("forged", [
    # more invariant factors than min(rows, cols)
    _forged_snf([[1, 0]], (1, 1), [[1]], [[1, 0], [0, 1]], [[1]], [[1, 0], [0, 1]]),
    # non-positive invariant factors
    _forged_snf([[-1]], (-1,), [[1]], [[1]], [[1]], [[1]]),
    _forged_snf([[0]], (0,), [[1]], [[1]], [[1]], [[1]]),
    # u*m = D*v_inv holds, but v*v_inv != I, so u*m*v != D
    _forged_snf([[2]], (2,), [[1]], [[2]], [[1]], [[1]]),
], ids=["too-many-invariants", "negative-invariant", "zero-invariant", "v-not-unimodular"])
def test_verify_certificate_rejects_forged_snfs(forged):
    with pytest.raises(AssertionError):
        _verify_certificate(forged)


@pytest.mark.parametrize("rows, cols, entries", [
    (2, 2, ((1, 2),)),                      # wrong row count, dense rows
    (2, 2, ((1, 2), (3,))),                 # dense rows: items are not pairs
    (1, 2, ((1, 2), (3, 4))),               # wrong row count
    (2, 0, ((),)),
    (0, 3, ((),)),
    (2, 2, ((1, 2), (3, 4))),               # dense rows of the right count
    (2, 2, (((0, 1),), ((2, 1),))),         # column out of range
    (1, 2, (((-1, 1),),)),
    (1, 2, (((0, 1), (1, 0)),)),            # a stored zero
    (1, 3, (((2, 1), (0, 1)),)),            # unsorted columns
    (1, 3, (((1, 1), (1, 2)),)),            # a repeated column
    (1, 2, (((0, 1, 2),),)),                # a triple
    (1, 2, ([(0, 1)],)),                    # a row that is not a tuple
    (1, 2, (((0.0, 1),),)),                 # a column that is not an int
    (1, 2, (((0, 1.5),),)),                 # a value that is not an int
    (2, -1, ((), ())),                      # a negative column count
    (True, 1, ((),)),                       # a row count that is not an int
])
def test_malformed_integer_matrix_is_rejected(rows, cols, entries):
    with pytest.raises(ValueError):
        IntegerMatrix(rows, cols, entries)


@pytest.mark.parametrize("column", [{-1: 1}, {True: 1}, {2: 1}, {5: 1}, {0.0: 1}, {1: 0, -1: 0}])
def test_from_columns_rejects_a_row_outside_the_matrix(column):
    with pytest.raises(ValueError):
        IntegerMatrix.from_columns(2, [{0: 1}, column])


def test_equal_matrices_compare_and_hash_equal():
    rows = [[0, 3, 0], [0, 0, 0], [-1, 0, 2]]
    a, b = from_rows(rows), IntegerMatrix(3, 3, (((1, 3),), (), ((0, -1), (2, 2))))
    assert a == b and hash(a) == hash(b)
    assert IntegerMatrix.from_columns(3, [{2: -1}, {0: 3, 1: 0}, {2: 2}]) == a
    product = a.mul(identity(3))
    assert product == a and hash(product) == hash(a)
    assert from_rows([[0, 3, 0], [0, 0, 0], [-1, 0, 1]]) != a
    assert IntegerMatrix.zero(2, 3) != IntegerMatrix.zero(2, 2)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_h1_with_coefficients_rejects_non_prime(p):
    d1 = IntegerMatrix.zero(1, 3)
    klein_d2 = from_rows([[0, 0, 0], [0, -2, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="prime"):
        h1_with_coefficients(klein_d2, d1, p)


def test_h1_with_coefficients_accepts_larger_primes():
    d1 = IntegerMatrix.zero(1, 3)
    klein_d2 = from_rows([[0, 0, 0], [0, -2, 0], [0, 0, 0]])
    for p in (7, 11, 13):
        assert h1_with_coefficients(klein_d2, d1, p) == 2


def test_product_check_rejects_mismatched_shapes_and_row_counts():
    left, right = IntegerMatrix.zero(2, 3), IntegerMatrix.zero(3, 4)
    assert _product_is(left, right, ((), ()))
    with pytest.raises(ValueError):
        _product_is(left, IntegerMatrix.zero(2, 4), ((), ()))
    for expected in (((),), ((),) * 3):
        with pytest.raises(ValueError):
            _product_is(left, right, expected)


@pytest.mark.parametrize("expected, holds", [
    ((((0, 2), (1, 3)), ((1, 4),)), True),
    ((((0, 2),), ((1, 4),)), False),                  # a product entry is not expected
    ((((0, 2), (1, 3), (2, 1)), ((1, 4),)), False),   # an expected entry is not in the product
    ((((0, 2), (1, 5)), ((1, 4),)), False),           # an entry differs
    ((((0, 2), (1, 3)), ()), False),                  # a row is missing
], ids=["equal", "extra-in-product", "missing-from-product", "differs", "empty-row"])
def test_product_check_compares_every_entry(expected, holds):
    left, right = from_rows([[1, 0], [0, 2]]), from_rows([[2, 3, 0], [0, 2, 0]])
    assert _product_is(left, right, expected) is holds


def test_h1_of_a_cone_builds_only_w_and_four_transforms(monkeypatch):
    """One H1 of the K2 x S1 cone constructs five `IntegerMatrix` objects:
    w and the four transforms of its Smith normal form.  The check
    d1 * d2 = 0 and the certificate products build none."""
    entry = next(e for e in reference_table() if e.name == "K2 x S1")
    d2, d1 = cone_subdivide(entry.gluing.to_spec()).chain_complex()
    built = []
    validate = IntegerMatrix.__post_init__

    def counting(self):
        built.append((self.rows, self.cols))
        validate(self)

    monkeypatch.setattr(IntegerMatrix, "__post_init__", counting)
    h1_of_chain_complex(d2, d1)
    assert len(built) == 5, built
