"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  The
matrices this package eliminates are small and sparse, so `rref`, behind
`rank`, `nullspace` and `solve`, runs Gauss-Jordan elimination
on sparse rows held as {column: value} dicts of Python ints: its cost
follows the nonzero entries, not the cells, and no value can overflow.
`matmul` stays in numpy and reduces its operands first, since it may be
handed unreduced entries.  A product of two reduced entries fits in int64
for any prime < 2**31, but a sum of such products may not: `matmul` adds at
most (2**63 - 1) // (p - 1)**2 of them before reducing, which is a single
step at the default prime and two products at p near 2**31.
"""

from __future__ import annotations

import numpy as np


def asmat(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2d array, got shape {m.shape}")
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a, b, p: int) -> np.ndarray:
    # reduced operands keep every product and partial sum inside int64;
    # np.remainder and ndarray.dot are the cheapest calls on tiny matrices
    a, b = np.remainder(asmat(a), p), np.remainder(asmat(b), p)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    inner = a.shape[1]
    if a.shape[0] == 0 or b.shape[1] == 0 or inner == 0:
        return zeros(a.shape[0], b.shape[1])
    chunk = max(1, (2**63 - 1) // (p - 1) ** 2)
    if inner <= chunk:
        return np.remainder(a.dot(b), p)
    out = zeros(a.shape[0], b.shape[1])
    for k in range(0, inner, chunk):
        out = (out + a[:, k : k + chunk].dot(b[k : k + chunk]) % p) % p
    return out


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Rows are reduced one at a time as sparse {column: value} dicts.  Each
    incoming row is cleared of the pivot columns found so far; its least
    remaining column becomes a new pivot, the row is scaled to 1 there, and
    that column is cleared from the earlier pivot rows.  Every pivot row's
    least column is then its pivot, so the pivot rows sorted by pivot are
    the reduced form, which is unique.
    """
    m = asmat(a)
    rows, cols = m.shape
    flat = m.ravel()
    nonzero = flat.nonzero()[0]
    pivot_rows: dict[int, dict[int, int]] = {}
    row: dict[int, int] = {}
    current = -1
    for pos, val in zip(nonzero.tolist(), flat[nonzero].tolist()):
        val %= p
        if not val:
            continue
        r, c = divmod(pos, cols)
        if r != current:
            if row:
                _add_row(row, pivot_rows, p)
            row, current = {}, r
        row[c] = val
    if row:
        _add_row(row, pivot_rows, p)
    pivots = sorted(pivot_rows)
    positions, values = [], []
    for i, c in enumerate(pivots):
        for j, v in pivot_rows[c].items():
            positions.append(i * cols + j)
            values.append(v)
    out = zeros(rows, cols)
    out.put(positions, values)
    return out, pivots


def _add_row(row: dict[int, int], pivot_rows: dict[int, dict[int, int]], p: int) -> None:
    """Reduce `row` by the pivot rows and, if anything is left, make it one."""
    # pivot rows vanish on each other's pivots, so the factors are fixed
    for c, f in [(c, f) for c, f in row.items() if c in pivot_rows]:
        _subtract(row, f, pivot_rows[c], p)
    if not row:
        return
    lead = min(row)
    if row[lead] != 1:
        inv = pow(row[lead], -1, p)
        row = {j: v * inv % p for j, v in row.items()}
    for prow in pivot_rows.values():
        if lead in prow:
            _subtract(prow, prow[lead], row, p)
    pivot_rows[lead] = row


def _subtract(row: dict[int, int], f: int, other: dict[int, int], p: int) -> None:
    """row -= f * other mod p, dropping the entries that become zero."""
    for j, v in other.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def rank(a, p: int) -> int:
    m = asmat(a)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return 0
    return len(rref(m, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Rows form a basis of {x : a @ x = 0 mod p}."""
    m = asmat(a)
    rows, cols = m.shape
    if cols == 0:
        return zeros(0, 0)
    if rows == 0:
        return eye(cols)
    return nullspace_of_rref(*rref(m, p), p)


def nullspace_of_rref(red: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """The basis `nullspace` returns, read off a matrix's reduced form: one
    row per free column, 1 there and minus that column of the reduced rows
    at the pivots.  The free columns are the gaps between the sorted pivots."""
    cols = red.shape[1]
    free, start = [], 0
    for c in [*pivots, cols]:
        free.extend(range(start, c))
        start = c + 1
    basis = zeros(len(free), cols)
    if free:
        basis.put([i * cols + f for i, f in enumerate(free)], 1)
        if pivots:
            basis[:, pivots] = (-red[: len(pivots)].take(free, axis=1).T) % p
    return basis


def solve(a, b, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b mod p, or None if inconsistent.

    b may be a vector or a matrix of stacked right-hand columns.
    """
    m = asmat(a)
    bv = np.asarray(b, dtype=np.int64) % p
    vector_input = bv.ndim == 1
    if vector_input:
        bv = bv[:, None]
    if bv.shape[0] != m.shape[0]:
        raise ValueError(f"rhs shape mismatch {m.shape} vs {bv.shape}")
    aug = np.concatenate([m, bv], axis=1) if m.shape[1] else bv.copy()
    red, pivots = rref(aug, p)
    ncols = m.shape[1]
    x = zeros(ncols, bv.shape[1])
    for r, c in enumerate(pivots):
        if c >= ncols:
            return None
        x[c] = red[r, ncols:]
    return x[:, 0] if vector_input else x


def is_invertible(a, p: int) -> bool:
    m = asmat(a)
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]
