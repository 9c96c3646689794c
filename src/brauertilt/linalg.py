"""Exact linear algebra over a prime field F_p.

Dense matrices are numpy int64 arrays with entries reduced into [0, p).
The elimination layer has one row type, `SparseRows`: a list of
{column: value} dicts of reduced nonzero Python ints with a `.shape`.
The matrices this package eliminates are small and sparse, so elimination
runs on such rows: its cost follows the nonzero entries, not the cells,
and no value can overflow.  It comes in two passes.  `echelon`, the
forward pass, gives an echelon form and the pivot columns, which is all a
rank needs; `back_substitute` turns that echelon form into the reduced
form.  `rref` runs both.  It takes either kind of matrix and returns the
reduced form in the kind it was given; a dense input is read into rows
first, and a caller that builds its rows directly (`ChainMapSpace`, the
rank check of `is_tilting`, and the module layer: the radical, socle,
kernel and span eliminations of modules.py and the intertwiner equations
of `hom_basis`) makes no dense array to eliminate.  `rank` takes either
kind and runs the forward pass alone.  `kernel_basis` reads a dense kernel
basis off reduced sparse rows.  Several independent matrices are
eliminated at once as the blocks of one block-diagonal matrix of sparse
rows: blocks share no column, so each gets the pivots and the reduced
form it would get alone (`block_pivots`, `reduced_bases`,
`reduced_kernels`, which take reduced dense blocks and return dense
bases).  `nullspace`, `nullspace_of_rref` and `solve` take and return
dense arrays.
`matmul` stays in numpy and reduces its operands first, since it may be
handed unreduced entries; `_matmul_reduced` is the same product for
callers whose operands are reduced already (`ChainMapSpace.quotient_coords`,
`EndoAlgebra.products`).  A product of two reduced entries fits in int64
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
    return _matmul_reduced(np.remainder(asmat(a), p), np.remainder(asmat(b), p), p)


def _matmul_reduced(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The product mod p of two 2d int64 arrays already reduced into
    [0, p), as matmul gives it, without reducing them again."""
    # reduced operands keep every product and partial sum inside int64;
    # np.remainder and ndarray.dot are the cheapest calls on tiny matrices
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


class SparseRows:
    """A matrix over F_p held as sparse rows.

    `rows` lists the first rows as {column: value} dicts whose values are
    nonzero Python ints in [1, p); the matrix has `height` rows (by
    default as many as are listed), the rows past the listed ones are
    zero, and `cols` columns.
    """

    __slots__ = ("rows", "cols", "height")

    def __init__(self, rows: list, cols: int, height: int | None = None):
        self.rows = rows
        self.cols = cols
        self.height = len(rows) if height is None else height

    @property
    def shape(self) -> tuple[int, int]:
        return self.height, self.cols

    def dense(self) -> np.ndarray:
        out = zeros(self.height, self.cols)
        cols = self.cols
        out.put([i * cols + j for i, row in enumerate(self.rows) for j in row],
                [v for row in self.rows for v in row.values()])
        return out


def sparse(a, p: int) -> SparseRows:
    """The dense matrix a, reduced mod p, as sparse rows: one ravel(), one
    nonzero() and one gather, then one dict per row."""
    m = asmat(a)
    rows, cols = m.shape
    flat = m.ravel()
    nonzero = flat.nonzero()[0]
    out: list[dict[int, int]] = [{} for _ in range(rows)]
    for pos, val in zip(nonzero.tolist(), (flat[nonzero] % p).tolist()):
        if val:
            r, c = divmod(pos, cols)
            out[r][c] = val
    return SparseRows(out, cols)


def echelon(a, p: int) -> tuple[SparseRows, list[int]]:
    """Row echelon form by forward elimination alone, and its pivot columns.

    a is a dense matrix or `SparseRows`; the result is `SparseRows` with the
    shape of a.  Each incoming row is cleared at its least column for as
    long as that column is a pivot; a row that keeps a least column makes
    it a new pivot, scaled to 1 there.  Pivot rows are not cleared against
    later pivots, so a row may still hold other pivot columns, but each
    row's least column is its pivot and the rows come sorted by pivot.
    The pivot count is the rank.  A caller's rows are copied, never edited.
    """
    dense = not isinstance(a, SparseRows)
    rows = sparse(a, p) if dense else a
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows.rows:
        if not dense:
            row = dict(row)
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                if row[lead] != 1:
                    inv = pow(row[lead], -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivot_rows[lead] = row
                break
            _subtract(row, row[lead], prow, p)
    pivots = sorted(pivot_rows)
    return SparseRows([pivot_rows[c] for c in pivots], rows.cols, rows.height), pivots


def back_substitute(ech: SparseRows, pivots: list[int], p: int) -> SparseRows:
    """The reduced form of an `echelon` result: each pivot column cleared
    from the rows above its own.  The rows are taken last first, and each
    is cleared by the rows below it, which are reduced already and so hold
    no pivot column but their own; the factors are read off the row once.
    A row that holds only its pivot is left as it is.  Edits the rows of
    ech in place and returns them as the reduced form.
    """
    done: dict[int, dict[int, int]] = {}
    for c, row in zip(reversed(pivots), reversed(ech.rows)):
        if len(row) > 1:
            for j, f in [(j, f) for j, f in row.items() if j in done]:
                _subtract(row, f, done[j], p)
        done[c] = row
    return ech


def rref(a, p: int) -> tuple[np.ndarray | SparseRows, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    a is a dense matrix or `SparseRows`, and the reduced form comes back
    in the same kind, with the shape of a (its zero rows last): `echelon`
    followed by `back_substitute`.  The reduced form is unique, so it does
    not depend on the order in which the rows were eliminated.
    """
    red, pivots = echelon(a, p)
    back_substitute(red, pivots, p)
    return (red if isinstance(a, SparseRows) else red.dense()), pivots


def _subtract(row: dict[int, int], f: int, other: dict[int, int], p: int) -> None:
    """row -= f * other mod p, dropping the entries that become zero."""
    for j, v in other.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def rank(a, p: int) -> int:
    """Rank of a dense matrix or `SparseRows`: the pivot count of the
    forward pass alone."""
    return len(echelon(a, p)[1])


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


def kernel_basis(rows: list, pivots: list[int], free: list[int], width: int, p: int) -> np.ndarray:
    """Rows spanning the kernel of the reduced sparse rows `rows`, whose
    pivot columns are `pivots` and other columns `free`, of `width`
    columns: one row per free column, 1 there and minus that column of
    the rows at their pivots (the basis `nullspace_of_rref` gives)."""
    row_of = {c: r for r, c in enumerate(free)}
    basis = zeros(len(free), width)
    basis.put([r * width + c for r, c in enumerate(free)], 1)
    at, vals = [], []
    for c, row in zip(pivots, rows):
        for j, v in row.items():
            if j != c:
                at.append(row_of[j] * width + c)
                vals.append(p - v)
    basis.put(at, vals)
    return basis


def _block_diagonal(blocks, widths, reverse=False) -> tuple[SparseRows, list[int]]:
    """The block-diagonal matrix whose block i stacks the reduced matrices
    blocks[i], each with widths[i] columns, as sparse rows without their
    zero rows, and the column offset of each block.  With reverse, each
    block numbers its columns backwards.  Blocks share no column, so an
    elimination of these rows eliminates each block on its own."""
    offs = [0]
    for w in widths:
        offs.append(offs[-1] + w)
    rows, height = [], 0
    for o, w, mats in zip(offs, widths, blocks):
        first, step = (o + w - 1, -1) if reverse else (o, 1)
        for m in mats:
            height += m.shape[0]
            for values in m.tolist():
                row = {first + step * c: v for c, v in enumerate(values) if v}
                if row:
                    rows.append(row)
    return SparseRows(rows, offs[-1], height), offs


def _split_pivots(pivots: list[int], offs: list[int]) -> list[list[int]]:
    """Sorted pivot columns of a `_block_diagonal` matrix, split by block
    and numbered within their block."""
    out = [[] for _ in offs[1:]]
    b = 0
    for c in pivots:
        while c >= offs[b + 1]:
            b += 1
        out[b].append(c - offs[b])
    return out


def block_pivots(blocks, widths, p: int) -> list[list[int]]:
    """Per i, the pivot columns of the rows of the reduced matrices
    blocks[i], each with widths[i] columns, from one forward pass over
    the block-diagonal matrix of all of them."""
    rows, offs = _block_diagonal(blocks, widths)
    return _split_pivots(echelon(rows, p)[1], offs)


def reduced_bases(mats, p: int) -> list[tuple[np.ndarray, list[int]]]:
    """Per reduced matrix of mats, the reduced row echelon basis of its
    rows and its pivot columns, from one rref of the block-diagonal matrix
    of the mats."""
    widths = [m.shape[1] for m in mats]
    rows, offs = _block_diagonal([[m] for m in mats], widths)
    red, pivots = rref(rows, p)
    out = []
    reduced = iter(red.rows)
    for o, w, piv in zip(offs, widths, _split_pivots(pivots, offs)):
        basis = zeros(len(piv), w)
        at, vals = [], []
        for r in range(len(piv)):
            for j, v in next(reduced).items():
                at.append(r * w + j - o)
                vals.append(v)
        basis.put(at, vals)
        out.append((basis, piv))
    return out


def reduced_kernels(mats, p: int) -> list[tuple[np.ndarray, list[int]]]:
    """Per reduced matrix m of mats, the reduced row echelon basis of
    {x : m @ x = 0} and its pivots, from one rref of the block-diagonal
    matrix of the mats with the columns of each block reversed.

    With the columns of m reversed, the nullspace_of_rref basis has one
    row per free column f: 1 there, 0 at the other free columns, and
    nonzero entries only at pivot columns before f.  Read back in the
    original column order each row leads with 1 at its free column and is
    0 at the others, so, sorted by leading column, these rows are the
    reduced basis of the kernel, which is unique, and its pivots are the
    free columns.
    """
    widths = [m.shape[1] for m in mats]
    rows, offs = _block_diagonal([[m] for m in mats], widths, reverse=True)
    red, pivots = rref(rows, p)
    out = []
    reduced = iter(red.rows)
    for o, w, piv in zip(offs, widths, _split_pivots(pivots, offs)):
        # piv numbers the block's columns backwards: column c is w - 1 - c
        taken = set(piv)
        free = [c for c in range(w) if w - 1 - c not in taken]
        row_of = {o + w - 1 - c: r for r, c in enumerate(free)}
        basis = zeros(len(free), w)
        basis.put([r * w + c for r, c in enumerate(free)], 1)
        at, vals = [], []
        for c in piv:
            for j, v in next(reduced).items():
                if j != o + c:
                    at.append(row_of[j] * w + w - 1 - c)
                    vals.append(p - v)
        basis.put(at, vals)
        out.append((basis, free))
    return out


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
