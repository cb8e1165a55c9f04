"""Exact integer matrix routines used by the fan and classification layers."""

from __future__ import annotations


def det(rows) -> int:
    """Determinant by fraction-free elimination; every division is exact."""
    m = [list(r) for r in rows]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(size - 1):
        if m[c][c] == 0:
            for r in range(c + 1, size):
                if m[r][c]:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, size):
            for j in range(c + 1, size):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
            m[r][c] = 0
        prev = m[c][c]
    return sign * m[-1][-1]


def rank(rows) -> int:
    """Rank over the rationals, computed with integer cross-multiplication."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    rk = 0
    for c in range(cols):
        piv = next((r for r in range(rk, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(rk + 1, len(m)):
            if m[r][c]:
                m[r] = [
                    m[rk][c] * m[r][j] - m[r][c] * m[rk][j] for j in range(cols)
                ]
        rk += 1
        if rk == min(len(m), cols):
            break
    return rk

