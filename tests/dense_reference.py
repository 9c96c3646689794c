"""numpy views of the package's sparse rows and vectors, the reference
arithmetic of the tests: arrays of Python ints, exact, with no int64
overflow."""

import numpy as np

from brauertilt import linalg


def dense(m: linalg.SparseRows) -> np.ndarray:
    """The sparse rows m as a numpy array of Python ints."""
    out = np.zeros(m.shape, dtype=object)
    for i, row in enumerate(m.rows):
        for j, v in row.items():
            out[i, j] = v
    return out


def column(v: dict, n: int) -> np.ndarray:
    """The {index: value} vector v as a numpy array of length n."""
    out = np.zeros(n, dtype=object)
    for i, x in v.items():
        out[i] = x
    return out


def as_dict(v) -> dict:
    """The vector v as an {index: value} dict of its nonzero entries."""
    return {i: int(x) for i, x in enumerate(v) if x}
