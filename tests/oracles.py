"""Independent reference computations that several test modules compare
the package against.  Plain exact arithmetic over the coefficient field,
one scalar operation at a time, with none of the package's batching or
staging."""

from __future__ import annotations

from typing import Sequence


def scalar_matrix_det(rows: Sequence[Sequence], one):
    """Determinant of a square scalar matrix by Gaussian elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    zero = one * 0
    det = one
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != zero), None)
        if pivot is None:
            return zero
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k]
        inv = one / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != zero:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return det


def incidence_residual(x_point, y_point, mm) -> list:
    """The pairing vector M(y) x of a Moore matrix bundle at one point
    pair; all zeros certifies incidence.

    The other evaluation order, the dual matrix at x applied to y, is
    computed too and must give the same vector.
    """
    one = mm.one
    xs = [one * v for v in x_point]
    ys = [one * v for v in y_point]

    def apply(rows, vec):
        return [sum((r * v for r, v in zip(row, vec)), one * 0) for row in rows]

    lhs = apply(mm.m.eval_at(ys), xs)
    if lhs != apply(mm.m_prime.eval_at(xs), ys):
        raise AssertionError("the two pairing evaluation orders disagree")
    return lhs
