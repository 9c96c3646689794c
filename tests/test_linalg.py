import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauertilt import linalg

import reference
from dense_reference import column, dense


def exact(a) -> np.ndarray:
    """a as a numpy array of Python ints."""
    return np.array(np.asarray(a).tolist(), dtype=object).reshape(np.shape(a))


def test_rref_rank():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(m, 5) == 2
    red, piv = linalg.rref(m, 5)
    assert piv == [0, 1]
    assert red.rows[0][0] == 1 and red.rows[1][1] == 1


def test_nullspace_annihilates():
    m = np.array([[1, 2, 3, 4], [0, 1, 1, 0], [1, 3, 4, 4]], dtype=np.int64)
    for p in (2, 3, 32003):
        ns = reference.nullspace(m, p)
        assert ns.shape[0] == 4 - linalg.rank(m, p)
        assert not (exact(m) @ dense(ns).T % p).any()


def test_solve_consistent_and_inconsistent():
    a = [[1, 1], [1, 2]]
    x = reference.solve(a, [3, 5], 7)
    assert x is not None
    assert list(exact(a) @ column(x, 2) % 7) == [3, 5]
    bad = reference.solve([[1, 1], [2, 2]], [1, 3], 7)
    assert bad is None


def test_solve_matrix_rhs_identity():
    a = np.array([[2, 1], [1, 1]], dtype=np.int64)
    inv = reference.solve(a, np.eye(2, dtype=np.int64), 11)
    assert np.array_equal(exact(a) @ dense(inv) % 11, np.eye(2, dtype=np.int64))


def express(basis_rows, vectors, p):
    """Coordinates c with vectors = c @ basis_rows, or None if some row of
    vectors lies outside the span of basis_rows."""
    sol = reference.solve(np.asarray(basis_rows).T, np.asarray(vectors).T, p)
    return None if sol is None else dense(sol).T % p


def test_express():
    basis = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    coords = express(basis, np.array([[1, 1, 2], [2, 0, 2]]), 5)
    assert coords is not None
    assert np.array_equal(coords @ exact(basis) % 5, np.array([[1, 1, 2], [2, 0, 2]]))
    assert express(basis, np.array([[1, 0, 0]]), 5) is None


def test_empty_shapes():
    assert linalg.rank(np.zeros((0, 3), dtype=np.int64), 7) == 0
    assert linalg.rank(linalg.SparseRows([], 3), 7) == 0
    assert reference.nullspace(np.zeros((0, 3), dtype=np.int64), 7).shape == (3, 3)
    assert reference.nullspace(np.zeros((3, 0), dtype=np.int64), 7).shape == (0, 0)
    assert reference.nullspace(linalg.SparseRows([{}, {}, {}], 0), 7).shape == (0, 0)


def test_outside_input_is_reduced_and_shape_checked():
    """as_rows reads nested sequences, numpy arrays and sparse rows alike
    into fresh rows reduced mod p, and refuses a ragged or one-dimensional
    input, sparse rows outside their shape, or a wrong shape."""
    p = 7
    for a in ([[8, -1], [0, 14]], np.array([[8, -1], [0, 14]])):
        rows = linalg.as_rows(a, p, (2, 2))
        assert rows.rows == [{0: 1, 1: 6}, {}] and rows.shape == (2, 2)
    assert linalg.as_rows([], p, (0, 4)).shape == (0, 4)
    given = linalg.SparseRows([{0: 7, 1: 9}], 2, 3)
    rows = linalg.as_rows(given, p, (3, 2))
    assert rows.rows == [{1: 2}, {}, {}] and given.rows == [{0: 7, 1: 9}]
    outside = (linalg.SparseRows([{2: 1}], 2), linalg.SparseRows([{-1: 1}], 2),
               linalg.SparseRows([{}, {}], 2, 1))
    for bad in ([[1, 2], [3]], np.array([1, 2]), [1, 2], *outside):
        with pytest.raises(ValueError):
            linalg.as_rows(bad, p)
    with pytest.raises(ValueError, match="expected"):
        linalg.as_rows([[1, 2]], p, (2, 1))


def test_is_invertible():
    assert linalg.is_invertible([[1, 1], [0, 1]], 2)
    assert not linalg.is_invertible([[1, 1], [1, 1]], 2)


# -- properties against textbook references ----------------------------------------

PRIMES = (2, 3, 32003, 2**31 - 1)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def rref_reference(rows, ncols, p):
    """Gauss-Jordan elimination on Python integers, one row at a time."""
    m = [[x % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@st.composite
def matrices(draw, max_rows=7, max_cols=8):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    # small values and p - 1 make dependent rows likely; the wide range
    # checks that unreduced input is reduced first
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, p - 1]), st.integers(-p, 2 * p))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return np.array(data, dtype=np.int64).reshape(rows, cols), p


@PROPERTY
@given(matrices())
def test_rref_equals_reference(case):
    a, p = case
    before = a.copy()
    red, pivots = linalg.rref(a, p)
    ref, ref_pivots = rref_reference(a.tolist(), a.shape[1], p)
    assert pivots == ref_pivots
    assert red.shape == a.shape
    assert dense(red).tolist() == ref
    assert np.array_equal(a, before)


@st.composite
def sparse_blocks(draw, max_rows=70, max_cols=45):
    """Sparse matrices of the sizes `ChainMapSpace` eliminates: 2-8% nonzero
    entries from {1, p - 1, anything}, some rows sums of multiples of earlier
    rows (so the rank falls short), and entries offset by multiples of p."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = rnd.uniform(0.02, 0.08)

    def entry():
        return rnd.choice([1, p - 1, rnd.randrange(1, p)])

    data = []
    for i in range(rows):
        if i and rnd.random() < 0.25:
            row = [0] * cols
            for src in rnd.sample(range(i), min(i, rnd.randint(1, 3))):
                f = entry()
                row = [(x + f * y) % p for x, y in zip(row, data[src])]
        else:
            row = [entry() if rnd.random() < density else 0 for _ in range(cols)]
        data.append(row)
    unreduced = [[x + p * rnd.choice([-2, -1, 0, 0, 0, 1, 2]) for x in row] for row in data]
    return np.array(unreduced, dtype=np.int64), p


@PROPERTY
@given(sparse_blocks(), st.integers(0, 2**32 - 1))
def test_sparse_blocks_at_workload_sizes(case, seed):
    a, p = case
    rnd = random.Random(seed)
    rows, cols = a.shape
    before = a.copy()
    red, pivots = linalg.rref(a, p)
    ref, ref_pivots = rref_reference(a.tolist(), cols, p)
    assert pivots == ref_pivots
    assert dense(red).tolist() == ref
    assert np.array_equal(a, before)
    r = len(pivots)
    assert linalg.rank(a, p) == r
    reduced = exact(a) % p

    ns = reference.nullspace(a, p)
    assert ns.shape == (cols - r, cols)
    assert not (reduced @ dense(ns).T % p).any()
    assert linalg.rank(ns, p) == cols - r

    x = np.array([rnd.randrange(p) for _ in range(cols)], dtype=object)
    b = reduced @ x % p
    sol = reference.solve(a, b, p)
    assert sol is not None
    assert np.array_equal(reduced @ column(sol, cols) % p, b)
    # a random right-hand side is solvable exactly when it adds no pivot
    b = np.array([rnd.randrange(p) for _ in range(rows)], dtype=np.int64)
    aug = np.concatenate([a, b[:, None]], axis=1)
    solvable = rref_reference(aug.tolist(), cols + 1, p)[1] == ref_pivots
    sol = reference.solve(a, b, p)
    assert (sol is not None) == solvable
    if solvable:
        assert np.array_equal(reduced @ column(sol, cols) % p, exact(b))


@PROPERTY
@given(st.sampled_from(PRIMES), st.data())
def test_matmul_equals_exact_product(p, data):
    """linalg.product, and apply and combine on its vectors, equal the
    exact product of the lists reduced mod p."""
    rows, inner, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = data.draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    want = [[sum(a[i][k] * b[k][j] for k in range(inner)) % p for j in range(cols)] for i in range(rows)]
    sa, sb = linalg.as_rows(a, p, (rows, inner)), linalg.as_rows(b, p, (inner, cols))
    assert dense(linalg.product(sa, sb, p)).tolist() == want
    assert [column(linalg.combine(row, sb, p), cols).tolist() for row in sa.rows] == want
    columns = linalg.transpose(sb).rows
    assert [[linalg.apply(sa, col, p).get(i, 0) for col in columns] for i in range(rows)] == want


def test_matmul_sums_do_not_overflow():
    p = 2**31 - 1
    a = linalg.as_rows([[p - 1] * 8], p)
    assert linalg.product(a, linalg.transpose(a), p).rows == [{0: 8}]
    assert linalg.combine(a.rows[0], linalg.transpose(a), p) == {0: 8}
    assert linalg.apply(a, a.rows[0], p) == {0: 8}


def test_matmul_reduces_unreduced_input_near_2_31():
    p = 2**31 - 1
    a = linalg.as_rows(np.full((2, 2), -2 * p + 3, dtype=np.int64), p)
    b = linalg.as_rows(np.full((2, 2), -2 * p + 5, dtype=np.int64), p)
    assert dense(linalg.product(a, b, p)).tolist() == [[30, 30], [30, 30]]


@st.composite
def row_sets(draw, max_rows=7, max_cols=8):
    """Reduced matrices with the shapes sparse callers hand rref: empty
    ones, one column, zero rows and repeated rows among random ones."""
    p = draw(st.sampled_from(PRIMES))
    cols = draw(st.one_of(st.just(1), st.integers(0, max_cols)))
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        copy = list(rows[draw(st.integers(0, len(rows) - 1))])
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return np.array(rows, dtype=np.int64).reshape(len(rows), cols), p


@PROPERTY
@given(row_sets())
def test_sparse_rref_equals_dense_rref(case):
    a, p = case
    dicts = [{j: v for j, v in enumerate(row) if v} for row in a.tolist()]
    red, pivots = linalg.rref(a, p)
    for rows in (linalg.SparseRows(dicts, a.shape[1]),
                 # the zero rows left out and counted in the height instead
                 linalg.SparseRows([r for r in dicts if r], a.shape[1], a.shape[0])):
        before = [dict(r) for r in rows.rows]
        sred, spivots = linalg.rref(rows, p)
        assert isinstance(sred, linalg.SparseRows)
        assert spivots == pivots
        assert sred.shape == red.shape == a.shape
        assert sred == red
        assert dense(sred).tolist() == dense(red).tolist()
        assert rows.rows == before
    assert dense(linalg.as_rows(a, p)).tolist() == a.tolist()


@PROPERTY
@given(st.one_of(matrices(), sparse_blocks()), st.booleans())
def test_forward_pass_then_back_substitution(case, as_rows):
    """echelon is an echelon form (each row's least column is its pivot,
    with entry 1, rows sorted by pivot) whose pivot count is the rank;
    back_substitute turns it into the reference rref; the caller's rows,
    dense or sparse, are not edited; and rref of a stored echelon result
    equals rref of the rows it came from."""
    a, p = case
    ref, ref_pivots = rref_reference(a.tolist(), a.shape[1], p)
    m = linalg.as_rows(a, p) if as_rows else a
    before = [dict(r) for r in m.rows] if as_rows else a.copy()
    ech, pivots = linalg.echelon(m, p)
    assert isinstance(ech, linalg.SparseRows) and ech.shape == a.shape
    assert pivots == ref_pivots
    assert linalg.rank(m, p) == len(ref_pivots)
    assert [min(row) for row in ech.rows] == pivots
    assert all(row[c] == 1 and all(0 < v < p for v in row.values())
               for c, row in zip(pivots, ech.rows))
    stored = linalg.SparseRows([dict(r) for r in ech.rows], ech.cols, ech.height)
    red = linalg.back_substitute(ech, pivots, p)
    assert dense(red).tolist() == ref
    again, again_pivots = linalg.rref(stored, p)
    assert again_pivots == ref_pivots and dense(again).tolist() == ref
    if as_rows:
        assert m.rows == before
    else:
        assert np.array_equal(a, before)


def numpy_rref(a, p):
    """Gauss-Jordan elimination with numpy row operations on Python ints:
    the reduced form and the pivot columns."""
    m = exact(a) % p
    pivots, r = [], 0
    for c in range(m.shape[1]):
        hit = np.flatnonzero(m[r:, c] != 0)
        if not len(hit):
            continue
        m[[r, r + hit[0]]] = m[[r + hit[0], r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        factors = m[:, c].copy()
        factors[r] = 0
        m = (m - np.outer(factors, m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


@PROPERTY
@given(matrices(), st.data())
def test_ported_operations_equal_numpy_reference(case, data):
    """rref, rank, kernel_basis, solve, product and transpose against
    numpy on Python ints, at every prime of PRIMES, on matrices that may
    have no rows, no columns, a zero row and a zero column."""
    a, p = case
    rows, cols = a.shape
    if rows and data.draw(st.booleans()):
        a[data.draw(st.integers(0, rows - 1))] = 0
    if cols and data.draw(st.booleans()):
        a[:, data.draw(st.integers(0, cols - 1))] = 0
    m = exact(a) % p
    ref, ref_pivots = numpy_rref(a, p)
    # an empty list has no column count, so the list form needs a row
    for given_as in (a, linalg.as_rows(a, p), *([a.tolist()] if rows else [])):
        red, pivots = linalg.rref(given_as, p)
        assert pivots == ref_pivots and red.shape == (rows, cols)
        assert np.array_equal(dense(red), ref)
        assert linalg.rank(given_as, p) == len(ref_pivots)

    free = linalg.free_columns(ref_pivots, cols)
    basis = dense(linalg.kernel_basis(red.rows, pivots, free, cols, p))
    assert basis.shape == (len(free), cols)
    assert not (m @ basis.T % p).any()
    assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))
    assert np.array_equal(dense(reference.nullspace(a, p)), basis)

    x = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)),
                 dtype=object).reshape(cols)
    b = m @ x % p
    sol = reference.solve(a, b, p)
    assert sol is not None and np.array_equal(m @ column(sol, cols) % p, b)
    b = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows)),
                 dtype=np.int64).reshape(rows, 1)
    solvable = cols not in numpy_rref(np.concatenate([a, b], axis=1), p)[1]
    sol = reference.solve(a, b, p)
    assert (sol is not None) == solvable
    if solvable:
        assert np.array_equal(m @ dense(sol) % p, exact(b) % p)

    k = data.draw(st.integers(0, 3))
    other = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=cols * k, max_size=cols * k)),
                     dtype=np.int64).reshape(cols, k)
    prod = linalg.product(linalg.as_rows(a, p), linalg.as_rows(other, p, (cols, k)), p)
    assert prod.shape == (rows, k) and np.array_equal(dense(prod), m @ exact(other) % p)
    assert np.array_equal(dense(linalg.transpose(linalg.as_rows(a, p))), m.T)
