"""Exact integer linear algebra: Smith normal form and abelian invariants.

Everything here runs on arbitrary-precision Python ints.  The matrices in
this project are small (at most ~150x150, from subdivided cube complexes)
and sparse: boundary maps have a few nonzeros per column, and the
transformation matrices of their Smith normal forms are mostly zero.
`IntegerMatrix` stores only its nonzero entries, row by row, as
(column, value) pairs in increasing column order, and a product forms only
the products of nonzero entries, one row at a time (`_product_rows`).  The
reduction works on sparse rows too: the matrix and its four transforms are
dict rows {column: nonzero value}, and the matrix also keeps, per column,
the set of rows that are nonzero there, so every row and column operation
touches only the nonzero entries it changes.  Skipping a zero term changes
no result, so everything stays exact.  The reduction is classical
row/column reduction.  Its pivot is a unit (+-1) from the shortest row that
holds one, in the unit's column with the shortest transform row, then the
fewest entries, which keeps the fill-in low (after Markowitz's rule); only
when no unit is left does it take the smallest magnitude.  Once the pivot's
column is cleared, one sweep over the pivot's row clears that row, since
each of its column operations changes that row alone.  Every Smith normal
form carries unimodular transformation certificates, which are checked
before the result is returned: each row of each certificate product is
multiplied out exactly and compared with the row it must equal, without
building the product matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Row = tuple[tuple[int, int], ...]  # (column, nonzero value), columns increasing


def _eye(n: int) -> list[dict[int, int]]:
    return [{i: 1} for i in range(n)]


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src in place, for dict rows {column: nonzero value}; q != 0,
    so an entry can only vanish where dst already held one."""
    for t, y in src.items():
        x = dst.get(t, 0) + q * y
        if x:
            dst[t] = x
        else:
            del dst[t]


def _terms(rows: list[dict[int, int]]) -> tuple[Row, ...]:
    """Dict rows as sparse rows."""
    return tuple(tuple(sorted(row.items())) for row in rows)


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, stored as sparse rows: terms[i] holds the
    (column, value) pairs of the nonzero entries of row i, with columns
    strictly increasing.  Each matrix has exactly one such form, so equal
    matrices compare and hash equal."""

    rows: int
    cols: int
    terms: tuple[Row, ...]

    def __post_init__(self):
        rows, cols = self.rows, self.cols
        if type(rows) is not int or type(cols) is not int or min(rows, cols) < 0:
            raise ValueError(f"shape {rows!r} x {cols!r} needs two non-negative ints")
        if type(self.terms) is not tuple or len(self.terms) != rows:
            raise ValueError(f"terms do not hold {rows} rows")
        for row in self.terms:
            if type(row) is not tuple:
                raise ValueError("a row must be a tuple of (column, value) pairs")
            last = -1
            for item in row:
                if type(item) is not tuple:
                    raise ValueError(f"row item {item!r} is not a (column, value) pair")
                try:
                    j, x = item
                except ValueError:
                    raise ValueError(f"row item {item!r} is not a (column, value) pair") from None
                if type(j) is not int or type(x) is not int or not last < j < cols or not x:
                    raise ValueError(f"row item {item!r} needs an int column in range and after "
                                     f"column {last}, and a nonzero int value")
                last = j

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, ((),) * rows)

    @staticmethod
    def from_columns(rows: int, columns: list[dict[int, int]]) -> "IntegerMatrix":
        """The rows x len(columns) matrix whose column j holds the entries
        {row: value} of columns[j]; zero values are dropped.  A row count
        that is not a non-negative int, columns that are not a list or tuple
        of dicts, and a row that is not an int in range(rows) raise
        ValueError."""
        if type(rows) is not int or rows < 0:
            raise ValueError(f"rows {rows!r} is not a non-negative int")
        if type(columns) is not list and type(columns) is not tuple:
            raise ValueError(f"columns {columns!r} is not a list or tuple of dicts")
        terms: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
        for j, column in enumerate(columns):
            if type(column) is not dict:
                raise ValueError(f"column {j} of columns is {column!r}, not a dict")
            for i, x in column.items():
                if type(i) is not int or not 0 <= i < rows:
                    raise ValueError(f"row {i!r} of column {j} is not in range({rows})")
                if x:
                    terms[i].append((j, x))
        return IntegerMatrix(rows, len(columns), tuple(map(tuple, terms)))

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """Exact product self * other, built from `_product_rows`."""
        return IntegerMatrix(self.rows, other.cols, tuple(
            tuple(sorted((j, x) for j, x in acc.items() if x))
            for acc in _product_rows(self, other)))

    def is_zero(self) -> bool:
        return not any(self.terms)


def _product_rows(left: IntegerMatrix, right: IntegerMatrix):
    """The rows of the exact product left * right, one at a time, each as a
    dict {column: value} that may hold zero values.

    Each nonzero a = left[i][k] adds a * right[k] into the dict of row i, so
    the cost is the number of nonzero products, not rows * inner * cols.
    """
    if left.cols != right.rows:
        raise ValueError("shape mismatch")
    terms = right.terms
    for row in left.terms:
        acc: dict[int, int] = {}
        for k, a in row:
            for j, b in terms[k]:
                acc[j] = acc.get(j, 0) + a * b
        yield acc


def _product_is(left: IntegerMatrix, right: IntegerMatrix, expected) -> bool:
    """Whether left * right has the sparse rows `expected`, checked row by
    row against `_product_rows`, so no product matrix is built.  Raises
    ValueError when `expected` does not hold left.rows rows or, from
    `_product_rows`, when the inner shapes differ."""
    if len(expected) != left.rows:
        raise ValueError(f"expected {len(expected)} rows of a product with {left.rows}")
    for acc, row in zip(_product_rows(left, right), expected):
        for j, x in row:
            if acc.pop(j, 0) != x:
                return False
        if any(acc.values()):
            return False
    return True


@dataclass(frozen=True)
class SmithNormalForm:
    """SNF of a matrix m: u.mul(m).mul(v) is diagonal with the invariant
    factors (positive, each dividing the next) in the leading positions.

    u_inv and v_inv are exact integer inverses of u and v, which certifies
    that both transformations are unimodular.
    """

    matrix: IntegerMatrix
    invariants: tuple[int, ...]
    u: IntegerMatrix
    v: IntegerMatrix
    u_inv: IntegerMatrix
    v_inv: IntegerMatrix

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def rank_mod(self, p: int) -> int:
        return sum(1 for d in self.invariants if d % p != 0)


def _pivot(a, in_col, v_t, row_at, col_pos, k):
    """(row, column) of the next pivot at positions k.., or None if those
    rows are zero.  Rows at positions k.. hold no entry at a column
    position below k.

    A unit is taken from the shortest row that holds one, the first such
    row among equals, so the row operations touch few rows.  Its column is
    the unit's column whose row of the transposed transform v_t is
    shortest, then the one with the fewest entries, then the first: every
    column operation of the stage adds a multiple of that v_t row, and a
    short column touches few rows, so little fill-in arises.  Without a
    unit, the smallest nonzero magnitude is taken, the first in row-major
    order of the positions."""
    best = None
    for i in row_at[k:]:
        row = a[i]
        if row and (best is None or len(row) < len(a[best])):
            vals = row.values()
            if 1 in vals or -1 in vals:
                best = i
    if best is not None:
        units = [j for j, x in a[best].items() if x == 1 or x == -1]
        return best, min(units, key=lambda j: (len(v_t[j]), len(in_col[j]), col_pos[j]))
    best = 0
    for i in row_at[k:]:
        for j, x in a[i].items():
            mag = x if x > 0 else -x
            if not best or mag < best or (mag == best and i == bi and col_pos[j] < col_pos[bj]):
                best, bi, bj = mag, i, j
    return (bi, bj) if best else None


def _offender(a, row_at, col_pos, k, p):
    """A column holding an entry a[i][j], i at a position above k, that the
    pivot p does not divide (the first in row-major order of the
    positions), or None."""
    if p in (1, -1):
        return None
    for i in row_at[k + 1:]:
        bad = [j for j, x in a[i].items() if x % p]
        if bad:
            return min(bad, key=col_pos.__getitem__)
    return None


def smith_normal_form(m: IntegerMatrix) -> SmithNormalForm:
    """Diagonalise m over Z by unimodular row and column operations.

    Pivot rule (`_pivot`): a unit that makes little fill-in, or, when no
    unit is left, the smallest nonzero magnitude; ties are broken by
    position, so the computation is deterministic.  A unit pivot divides
    every entry, so its stage ends after one pass.  A stage that leaves a
    nonzero remainder in the pivot's row or column, or an entry the pivot
    does not divide, starts again from the pivot rule with a strictly
    smaller pivot, so every stage ends.

    Once the pivot's column holds only the pivot, a column operation
    col j -= q * col k changes row k of the matrix alone, so the stage
    clears row k in one sweep over it, updating the transforms as the
    column operations would.

    Every matrix is held as dict rows {column: nonzero value}, and nonzeros
    of `a` are also indexed by column (in_col[j] is the set of rows i with
    a[i][j] != 0), so each operation touches only the nonzero entries it
    changes.  Rows and columns keep their input indices; a swap exchanges
    their positions (row_at, col_at and their inverses), and the stage k
    pivot sits at position (k, k).  Ties are broken by position, and the
    updates that one stage adds into a single row commute, so neither the
    operations nor the result depend on the order of a dict or a set.
    """
    rows, cols = m.rows, m.cols
    a = [dict(row) for row in m.terms]
    in_col = [set() for _ in range(cols)]
    for i, row in enumerate(a):
        for j in row:
            in_col[j].add(i)
    # u_inv and v are kept transposed, so each of their updates is a row update
    u, uinv_t, v_t, vinv = _eye(rows), _eye(rows), _eye(cols), _eye(cols)
    row_at, row_pos = list(range(rows)), list(range(rows))
    col_at, col_pos = list(range(cols)), list(range(cols))

    def swap(at, pos, k, i):
        # move index i to position k
        j = at[k]
        at[k], at[pos[i]] = i, j
        pos[j], pos[i] = pos[i], k

    def row_add(i, j, q):
        # row i += q * row j
        ai = a[i]
        for c, y in a[j].items():
            x = ai.get(c, 0) + q * y
            if x:
                if c not in ai:
                    in_col[c].add(i)
                ai[c] = x
            else:
                del ai[c]
                in_col[c].remove(i)
        _axpy(u[i], u[j], q)
        _axpy(uinv_t[j], uinv_t[i], -q)

    def row_neg(i):
        a[i] = {c: -x for c, x in a[i].items()}
        u[i] = {c: -x for c, x in u[i].items()}
        uinv_t[i] = {c: -x for c, x in uinv_t[i].items()}

    def col_add(i, j, q):
        # col i += q * col j
        col_i = in_col[i]
        for r in in_col[j]:
            ar = a[r]
            x = ar.get(i, 0) + q * ar[j]
            if x:
                ar[i] = x
                col_i.add(r)
            else:
                del ar[i]
                col_i.remove(r)
        _axpy(v_t[i], v_t[j], q)
        _axpy(vinv[j], vinv[i], -q)

    k = 0
    limit = min(rows, cols)
    while k < limit:
        found = _pivot(a, in_col, v_t, row_at, col_pos, k)
        if found is None:
            break
        r, c = found
        swap(row_at, row_pos, k, r)
        swap(col_at, col_pos, k, c)
        # clear column c with row operations, then row r with column
        # operations; a nonzero remainder is smaller than the pivot, so the
        # stage restarts and the pivot rule picks it up.  The other rows of
        # column c and columns of row r all sit at positions above k.
        ar = a[r]
        p = ar[c]
        for i in sorted(in_col[c]):
            if i != r:
                q = a[i][c] // p
                if q:
                    row_add(i, r, -q)
        if len(in_col[c]) > 1:
            continue
        # column c now holds only the pivot, so col j -= q * col c changes
        # row r of `a` alone: one sweep over row r
        for j in sorted(ar):
            if j != c:
                q = ar[j] // p
                if q:
                    x = ar[j] - q * p
                    if x:
                        ar[j] = x
                    else:
                        del ar[j]
                        in_col[j].remove(r)
                    _axpy(v_t[j], v_t[c], -q)
                    _axpy(vinv[c], vinv[j], q)
        if len(ar) > 1:
            continue
        # enforce divisibility of the rest of the matrix by the pivot
        offender = _offender(a, row_at, col_pos, k, p)
        if offender is not None:
            col_add(c, offender, 1)
            continue
        if p < 0:
            row_neg(r)
        k += 1

    # the stages leave a positive pivot at positions (i, i), i < k, and
    # the rows at positions k.. empty
    invariants = tuple(a[row_at[i]][col_at[i]] for i in range(k))
    result = SmithNormalForm(
        matrix=m,
        invariants=invariants,
        u=IntegerMatrix(rows, rows, _terms([u[i] for i in row_at])),
        v=IntegerMatrix.from_columns(cols, [v_t[j] for j in col_at]),
        u_inv=IntegerMatrix.from_columns(rows, [uinv_t[i] for i in row_at]),
        v_inv=IntegerMatrix(cols, cols, _terms([vinv[j] for j in col_at])),
    )
    _verify_certificate(result)
    return result


def _verify_certificate(s: SmithNormalForm) -> None:
    """Exact check of u*m = D*v_inv, u*u_inv = I and v*v_inv = I, where D is
    the diagonal of the invariant factors.  v is square, so v*v_inv = I
    makes v_inv*v = I too, and the first equation is then u*m*v = D.  Each
    product is compared row by row with the rows it must equal
    (`_product_is`), so no product matrix is built."""
    m, diag = s.matrix, s.invariants
    if len(diag) > min(m.rows, m.cols):
        raise AssertionError("SNF has more invariant factors than min(rows, cols)")
    if any(d <= 0 for d in diag):
        raise AssertionError("SNF invariant factors not positive")
    for d1, d2 in zip(diag, diag[1:]):
        if d2 % d1 != 0:
            raise AssertionError("SNF invariant factors not a divisibility chain")
    scaled = tuple(tuple((j, d * x) for j, x in row) for d, row in zip(diag, s.v_inv.terms))
    if not _product_is(s.u, m, scaled + ((),) * (m.rows - len(diag))):
        raise AssertionError("SNF certificate failed: u*m != D*v_inv")
    if not _product_is(s.u, s.u_inv, _terms(_eye(m.rows))):
        raise AssertionError("SNF certificate failed: u not unimodular")
    if not _product_is(s.v, s.v_inv, _terms(_eye(m.cols))):
        raise AssertionError("SNF certificate failed: v not unimodular")


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group Z^rank + Z/d1 + ... with d1|d2|..."""

    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _edges_outside_a_spanning_forest(d1: IntegerMatrix) -> list[int]:
    """Columns of the incidence matrix d1 (vertices x edges) that are not in
    a breadth-first spanning forest of its graph, in increasing order.

    Each column of d1 must be zero (a loop) or hold exactly one +1 and one
    -1 (an edge from the -1 row to the +1 row); anything else raises
    ValueError."""
    ends: list[list[tuple[int, int]]] = [[] for _ in range(d1.cols)]
    for v, row in enumerate(d1.terms):
        for e, x in row:
            if x != 1 and x != -1:
                raise ValueError(f"d1 is not an incidence matrix: entry {x} in column {e}")
            ends[e].append((x, v))
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(d1.rows)]
    for e, pair in enumerate(ends):
        if not pair:
            continue
        if len(pair) != 2 or pair[0][0] == pair[1][0]:
            raise ValueError(f"d1 is not an incidence matrix: column {e} is {pair}")
        (_, v), (_, w) = pair
        adjacent[v].append((e, w))
        adjacent[w].append((e, v))
    in_forest = [False] * d1.cols
    seen = [False] * d1.rows
    for root in range(d1.rows):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for v in queue:
            for e, w in adjacent[v]:
                if not seen[w]:
                    seen[w] = in_forest[e] = True
                    queue.append(w)
    return [e for e in range(d1.cols) if not in_forest[e]]


def _require_chain_complex(d2: IntegerMatrix, d1: IntegerMatrix) -> None:
    """ValueError unless d1 * d2 is defined and zero, checked row by row."""
    if d1.cols != d2.rows:
        raise ValueError("chain complex shape mismatch")
    if not _product_is(d1, d2, ((),) * d1.rows):
        raise ValueError("not a chain complex: d1 * d2 != 0")


def h1_of_chain_complex(d2: IntegerMatrix, d1: IntegerMatrix) -> AbelianInvariants:
    """First homology ker(d1)/im(d2) of a chain complex of free Z-modules.

    d1 maps 1-chains to 0-chains (shape V x E) and must be the incidence
    matrix of a graph; d2 maps 2-chains to 1-chains (shape E x F); requires
    d1 * d2 = 0.

    Fix a spanning forest T of the graph.  A 1-cycle is determined by its
    coefficients on the edges outside T, and every choice of those
    coefficients is met by exactly one cycle, so projecting onto them is an
    isomorphism ker(d1) -> Z^(E - T).  It carries im(d2), which lies in
    ker(d1), to the span of the columns of d2 restricted to the rows
    outside T.  So H1 is the cokernel of that restriction: one Smith normal
    form, exact for any graph, connected or not.
    """
    _require_chain_complex(d2, d1)
    outside = _edges_outside_a_spanning_forest(d1)
    w = IntegerMatrix(len(outside), d2.cols, tuple(d2.terms[e] for e in outside))
    snf_w = smith_normal_form(w)
    torsion = tuple(d for d in snf_w.invariants if d > 1)
    return AbelianInvariants(rank=len(outside) - snf_w.rank, torsion=torsion)


def h1_with_coefficients(d2: IntegerMatrix, d1: IntegerMatrix, p: int) -> int:
    """Dimension of first homology with coefficients in the field Z/p."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError("p must be a prime >= 2")
    _require_chain_complex(d2, d1)
    rank1 = smith_normal_form(d1).rank_mod(p)
    rank2 = smith_normal_form(d2).rank_mod(p)
    return (d1.cols - rank1) - rank2


def mod_p_dimension(h1: AbelianInvariants, p: int) -> int:
    """Universal-coefficients dimension of H1 with Z/p coefficients.

    H0 of our complexes is free, so the Tor term vanishes and the dimension
    is rank + #{torsion factors divisible by p}.
    """
    return h1.rank + sum(1 for d in h1.torsion if d % p == 0)
