"""Exact linear algebra over a prime field F_p.

There is one matrix kind, `SparseRows`: a list of {column: value} dicts
of reduced nonzero Python ints with a `.shape`, and a vector is one such
{index: value} dict.  The matrices this package handles are small and
sparse, and its structure constants are 0 or 1, so every operation runs
on these rows: its cost follows the nonzero entries, not the cells, and
no value can overflow.  Input from outside the package (a module's
actions and maps, and the arguments of `rref` and `rank`) may be
`SparseRows` or any nested sequence of ints; `as_rows` reads it into
fresh reduced rows and checks its shape.  Elimination takes
`SparseRows` as they are, their values reduced by contract.

Elimination comes in two passes.  `echelon`, the forward pass, gives an
echelon form and the pivot columns, which is all a rank needs;
`back_substitute` turns that echelon form into the reduced form.  `rref`
runs both.  `kernel_basis` reads a kernel basis off reduced rows.
Several independent matrices are eliminated at once as the blocks of one
block-diagonal matrix: blocks share no column, so each gets the pivots and
the reduced form it would get alone (`block_pivots`, `reduced_kernels`).
`product`, `transpose`, `apply` (a matrix times a column vector) and
`combine` (a row vector times a matrix) are the products the module layer
and End(T) need.
"""

from __future__ import annotations


class SparseRows:
    """A matrix over F_p held as sparse rows.

    `rows` lists the first rows as {column: value} dicts whose values are
    nonzero Python ints in [1, p); the matrix has `height` rows (by
    default as many as are listed), the rows past the listed ones are
    zero, and `cols` columns.  Two matrices are equal when their shapes
    and entries are.
    """

    __slots__ = ("rows", "cols", "height")

    def __init__(self, rows: list, cols: int, height: int | None = None):
        self.rows = rows
        self.cols = cols
        self.height = len(rows) if height is None else height

    @property
    def shape(self) -> tuple[int, int]:
        return self.height, self.cols

    def __eq__(self, other):
        if not isinstance(other, SparseRows):
            return NotImplemented
        a, b = self.rows, other.rows
        n = min(len(a), len(b))
        return (self.shape == other.shape and a[:n] == b[:n]
                and not any(a[n:]) and not any(b[n:]))

    __hash__ = None


def zero(rows: int, cols: int) -> SparseRows:
    return SparseRows([{} for _ in range(rows)], cols)


def identity(n: int) -> SparseRows:
    return SparseRows([{i: 1} for i in range(n)], n)


def as_rows(a, p: int, shape: tuple[int, int] | None = None) -> SparseRows:
    """a reduced mod p into fresh `SparseRows`, checked to have `shape` when
    one is given.

    a is `SparseRows`, whose columns must lie in range, or a nested
    sequence of ints; an array with a `.shape` (a numpy array) keeps its
    column count when it has no rows.  An input with no rows has the
    columns of `shape`.
    """
    if isinstance(a, SparseRows):
        if len(a.rows) > a.height or any(not 0 <= j < a.cols for row in a.rows for j in row):
            raise ValueError(f"sparse rows outside their shape {a.shape}")
        out = SparseRows([{j: v % p for j, v in row.items() if v % p} for row in a.rows]
                         + [{} for _ in range(a.height - len(a.rows))], a.cols)
    else:
        dims = getattr(a, "shape", None)
        if dims is not None and len(dims) != 2:
            raise ValueError(f"expected a 2d array, got shape {tuple(dims)}")
        data = a.tolist() if hasattr(a, "tolist") else a
        rows, width = [], dims[1] if dims is not None else None
        for row in data:
            try:
                values = [int(v) % p for v in row]
            except TypeError:
                raise ValueError("expected a 2d array, got a row that is not a sequence") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError("rows of different lengths")
            rows.append({j: v for j, v in enumerate(values) if v})
        if width is None:
            width = shape[1] if shape is not None else 0
        out = SparseRows(rows, width)
    if shape is not None and out.shape != shape:
        raise ValueError(f"matrix has shape {out.shape}, expected {shape}")
    return out


def echelon(a, p: int) -> tuple[SparseRows, list[int]]:
    """Row echelon form by forward elimination alone, and its pivot columns.

    a is `SparseRows` or a nested sequence (see `as_rows`); the result is
    `SparseRows` with the shape of a.  Each incoming row is cleared at its
    least column for as long as that column is a pivot; a row that keeps a
    least column makes it a new pivot, scaled to 1 there.  Pivot rows are
    not cleared against later pivots, so a row may still hold other pivot
    columns, but each row's least column is its pivot and the rows come
    sorted by pivot.  The pivot count is the rank.  A caller's rows are
    copied, never edited.
    """
    fresh = not isinstance(a, SparseRows)
    rows = as_rows(a, p) if fresh else a
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows.rows:
        if not fresh:
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


def rref(a, p: int) -> tuple[SparseRows, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The reduced form is `SparseRows` with the shape of a, its nonzero rows
    listed and its zero rows last: `echelon` followed by `back_substitute`.
    The reduced form is unique, so it does not depend on the order in
    which the rows were eliminated.
    """
    red, pivots = echelon(a, p)
    return back_substitute(red, pivots, p), pivots


def _subtract(row: dict[int, int], f: int, other: dict[int, int], p: int) -> None:
    """row -= f * other mod p, dropping the entries that become zero."""
    for j, v in other.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def rank(a, p: int) -> int:
    """Rank: the pivot count of the forward pass alone."""
    return len(echelon(a, p)[1])


def free_columns(pivots: list[int], width: int) -> list[int]:
    """The columns of range(width) that are not pivots."""
    taken = set(pivots)
    return [c for c in range(width) if c not in taken]


def kernel_basis(rows: list, pivots: list[int], free: list[int], width: int, p: int) -> SparseRows:
    """Rows spanning the kernel of the reduced sparse rows `rows`, whose
    pivot columns are `pivots` and other columns `free`, of `width`
    columns: one row per free column, 1 there and minus that column of
    the rows at their pivots."""
    basis = [{f: 1} for f in free]
    row_of = dict(zip(free, basis))
    for c, row in zip(pivots, rows):
        for j, v in row.items():
            if j != c:
                row_of[j][c] = p - v
    return SparseRows(basis, width)


def _block_diagonal(blocks, widths, reverse=False) -> tuple[SparseRows, list[int]]:
    """The block-diagonal matrix whose block i stacks the matrices
    blocks[i], `SparseRows` each with widths[i] columns, without their
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
            height += m.height
            rows.extend({first + step * c: v for c, v in row.items()} for row in m.rows if row)
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
    """Per i, the pivot columns of the rows of the matrices blocks[i],
    each with widths[i] columns, from one forward pass over the
    block-diagonal matrix of all of them."""
    rows, offs = _block_diagonal(blocks, widths)
    return _split_pivots(echelon(rows, p)[1], offs)


def reduced_kernels(mats, p: int) -> list[tuple[SparseRows, list[int]]]:
    """Per matrix m of mats, the reduced row echelon basis of
    {x : m @ x = 0} and its pivots, from one rref of the block-diagonal
    matrix of the mats with the columns of each block reversed.

    With the columns of m reversed, the kernel_basis rows have one row per
    free column f: 1 there, 0 at the other free columns, and nonzero
    entries only at pivot columns before f.  Read back in the original
    column order each row leads with 1 at its free column and is 0 at the
    others, so, sorted by leading column, these rows are the reduced basis
    of the kernel, which is unique, and its pivots are the free columns.
    """
    widths = [m.cols for m in mats]
    rows, offs = _block_diagonal([[m] for m in mats], widths, reverse=True)
    red, pivots = rref(rows, p)
    out, at = [], 0
    for o, w, piv in zip(offs, widths, _split_pivots(pivots, offs)):
        # piv numbers the block's columns backwards: column c is w - 1 - c
        back = [{o + w - 1 - j: v for j, v in row.items()} for row in red.rows[at:at + len(piv)]]
        at += len(piv)
        free = free_columns([w - 1 - c for c in piv], w)
        out.append((kernel_basis(back, [w - 1 - c for c in piv], free, w, p), free))
    return out


def is_invertible(a, p: int) -> bool:
    m = as_rows(a, p)
    return m.height == m.cols and rank(m, p) == m.cols


def transpose(a: SparseRows) -> SparseRows:
    out = [{} for _ in range(a.cols)]
    for i, row in enumerate(a.rows):
        for j, v in row.items():
            out[j][i] = v
    return SparseRows(out, a.height)


def combine(v: dict, b: SparseRows, p: int) -> dict:
    """The row vector v times b: the combination of the rows of b with the
    coefficients v."""
    rows, n, acc = b.rows, len(b.rows), {}
    for j, x in v.items():
        if j < n:
            for k, y in rows[j].items():
                acc[k] = acc.get(k, 0) + x * y
    return {k: s % p for k, s in acc.items() if s % p}


def apply(a: SparseRows, v: dict, p: int) -> dict:
    """a times the column vector v."""
    out = {}
    for i, row in enumerate(a.rows):
        s = sum(x * v[j] for j, x in row.items() if j in v) % p
        if s:
            out[i] = s
    return out


def product(a: SparseRows, b: SparseRows, p: int) -> SparseRows:
    """a times b."""
    if a.cols != b.height:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return SparseRows([combine(row, b, p) for row in a.rows], b.cols, a.height)
