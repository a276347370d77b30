"""Weyl dimensions and root-lattice membership, computed independently of
the program under test so the benchmark can size and check its inputs.

Conventions follow the program's: Bourbaki numbering, ``cartan[i][j] =
<alpha_i, alpha_j^vee>``, highest weights in Dynkin labels.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache


def cartan(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, a: int = -1, b: int = -1) -> None:
        m[i][j], m[j][i] = a, b

    if family in "ABCFG":
        for i in range(n - 1):
            link(i, i + 1)
    if family == "B":
        link(n - 2, n - 1, -2, -1)
    if family == "C":
        link(n - 2, n - 1, -1, -2)
    if family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    if family == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
            if j < n:
                link(i, j)
        link(1, 3)
    if family == "F":
        link(1, 2, -2, -1)
    if family == "G":
        link(0, 1, -1, -3)
    return tuple(tuple(r) for r in m)


@lru_cache(maxsize=None)
def _roots(family: str, n: int):
    """Squared lengths of the simple roots and the positive roots in
    simple-root coordinates, built by height from the root strings."""
    a = cartan(family, n)
    norm = [Fraction(0)] * n
    norm[0] = Fraction(2)
    changed = True
    while changed:  # a[i][j] |a_j|^2 = a[j][i] |a_i|^2 along every edge
        changed = False
        for i in range(n):
            for j in range(n):
                if a[i][j] and norm[i] and not norm[j]:
                    norm[j] = norm[i] * a[j][i] / a[i][j]
                    changed = True
    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    level = sorted(roots)
    while level:
        nxt = set()
        for r in level:
            for i in range(n):
                pair = sum(r[j] * a[j][i] for j in range(n))  # <r, alpha_i^vee>
                p, down = 0, list(r)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p - pair > 0:
                    up = r[:i] + (r[i] + 1,) + r[i + 1 :]
                    if up not in roots:
                        nxt.add(up)
        roots |= nxt
        level = sorted(nxt)
    return tuple(norm), tuple(sorted(roots))


def simple_dim(family: str, n: int, hw) -> int:
    norm, roots = _roots(family, n)
    num = den = Fraction(1)
    for r in roots:
        num *= sum(c * (x + 1) * s for c, x, s in zip(r, hw, norm))
        den *= sum(c * s for c, s in zip(r, norm))
    dim = num / den
    assert dim.denominator == 1
    return int(dim)


_FACTOR = re.compile(r"([A-G])(\d+)$")


def factors(group: str) -> list[tuple[str, int]]:
    out = []
    for part in group.split("x"):
        m = _FACTOR.match(part)
        if not m:
            raise ValueError(f"bad group {group!r}")
        out.append((m.group(1), int(m.group(2))))
    return out


def rank(group: str) -> int:
    return sum(n for _, n in factors(group))


def _blocks(group: str, hw):
    pos = 0
    for family, n in factors(group):
        yield family, n, tuple(hw[pos : pos + n])
        pos += n


def weyl_dim(group: str, hw) -> int:
    d = 1
    for family, n, part in _blocks(group, hw):
        d *= simple_dim(family, n, part)
    return d


def in_root_lattice(group: str, hw) -> bool:
    """lambda = c . cartan has an integer solution c on every factor."""
    for family, n, part in _blocks(group, hw):
        a = [[Fraction(x) for x in row] for row in cartan(family, n)]
        # solve c . a = part by Gaussian elimination on the transpose
        m = [[a[j][i] for j in range(n)] + [Fraction(part[i])] for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if m[r][col])
            m[col], m[piv] = m[piv], m[col]
            for r in range(n):
                if r != col and m[r][col]:
                    f = m[r][col] / m[col][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        if any((m[i][n] / m[i][i]).denominator != 1 for i in range(n)):
            return False
    return True
