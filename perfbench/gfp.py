"""Exact linear algebra over GF(p) or the rationals, independent of hypermat.

The benchmark derives its known answers here: circuits of a represented
matroid are the minimal-support vectors of the kernel of its matrix, and
cocircuits are the minimal-support vectors of the row space.  ``p=None``
means the rationals (exact ``Fraction`` arithmetic).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _reduce(x, p):
    return x % p if p else Fraction(x)


def _div(a, b, p):
    return a * pow(b, p - 2, p) % p if p else a / b


def rref(rows, p):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [[_reduce(x, p) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [_div(x, lead, p) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [_reduce(x - f * y, p) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def nullspace(rows, ncols, p):
    """Basis of {x : rows . x = 0}."""
    if not rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [_reduce(0, p)] * ncols
        x[f] = _reduce(1, p)
        for row, c in zip(red, pivots):
            x[c] = _reduce(-row[f], p)
        basis.append(x)
    return basis


def rank(rows, p) -> int:
    return len(rref(rows, p)[0]) if rows else 0


def normalize(vec, p):
    """Scale so that the first nonzero entry is 1."""
    lead = next(x for x in vec if x)
    return tuple(_div(x, lead, p) for x in vec)


def minimal_vectors(basis, ncols, p) -> set[tuple]:
    """Normalized minimal-support nonzero vectors of the span of ``basis``.

    A support S is minimal when the span has a vector supported inside S
    and no smaller support found so far lies inside S; such a vector is
    unique up to scaling.
    """
    found = set()
    supports = []
    for size in range(1, ncols + 1):
        for S in itertools.combinations(range(ncols), size):
            if any(t <= set(S) for t in supports):
                continue
            outside = [j for j in range(ncols) if j not in S]
            # combinations c of the basis rows with (c . basis)_j = 0 off S
            cols = [[row[j] for row in basis] for j in outside]
            coeffs = nullspace(cols, len(basis), p)
            if not coeffs:
                continue
            if len(coeffs) != 1:
                raise ArithmeticError(f"support {S} is not minimal")
            vec = [sum(c * row[j] for c, row in zip(coeffs[0], basis)) for j in range(ncols)]
            vec = [_reduce(x, p) for x in vec]
            if {j for j, x in enumerate(vec) if x} != set(S):
                raise ArithmeticError(f"support {S} is not minimal")
            supports.append(set(S))
            found.add(normalize(vec, p))
    return found


def is_uniform(matrix, p) -> bool:
    """True iff every set of rank-many columns is independent."""
    r = len(matrix)
    n = len(matrix[0])
    for cols in itertools.combinations(range(n), r):
        if rank([[row[c] for c in cols] for row in matrix], p) != r:
            return False
    return True


def matroid_answers(kernel_rows, ncols, p):
    """(circuits, cocircuits) of the matroid whose vectors span ``kernel_rows``.

    Circuits are the minimal-support vectors of that span, cocircuits the
    minimal-support vectors of its orthogonal complement.
    """
    basis = rref(kernel_rows, p)[0] if kernel_rows else []
    return (
        minimal_vectors(basis, ncols, p),
        minimal_vectors(nullspace(basis, ncols, p), ncols, p),
    )


def column_matroid(matrix, p):
    """(circuits, cocircuits) of the column matroid of ``matrix``."""
    n = len(matrix[0])
    return matroid_answers(nullspace(matrix, n, p), n, p)


def minor_answers(matrix, e, contract, p):
    """(circuits, cocircuits) of the column matroid minus column ``e``.

    Deletion keeps the kernel vectors that vanish at ``e``; contraction
    projects the whole kernel away from ``e``.
    """
    n = len(matrix[0])
    if contract:
        kernel = [row[:e] + row[e + 1:] for row in nullspace(matrix, n, p)]
    else:
        kernel = nullspace([row[:e] + row[e + 1:] for row in matrix], n - 1, p)
    return matroid_answers(kernel, n - 1, p)
