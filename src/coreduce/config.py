"""The errors the engines raise, a check that survives ``python -O``, and
the size of the per-process memos.

Each resource cap is a module constant of the engine that enforces it
(``monoid``, ``repthy``, ``nullcone``); nothing sets the caps from outside.
"""

from __future__ import annotations

MEMO_SIZE = 256
"""Entries each bounded memo keyed on request input keeps (the three
searches of ``monoid``, the components and verdict of a module, the specs
``parse_group`` and ``parse_module`` intern, and the Freudenthal diagrams
and alternating-sum points of ``repthy``): above the distinct inputs of a
session of a few hundred CLI requests (at most 35 torus verdicts, 16
Hilbert bases and 61 bounded sums in 260 ``queries`` requests, 104
diagrams in a ``weights`` run)."""


class ResourceLimitError(RuntimeError):
    """An engine's resource cap was hit (pathological input, not wrongness).

    ``engine`` names the search, ``cap`` the module constant, ``limit`` its
    value and ``count`` the amount reached.  The message is ``reached`` with
    ``{count}`` filled in, then the cap: ``<reached>, over <cap> = <limit>``.
    """

    def __init__(self, engine: str, cap: str, limit: int, count: int, reached: str) -> None:
        super().__init__(f"{reached.format(count=count)}, over {cap} = {limit}")
        self.engine = engine
        self.cap = cap
        self.limit = limit
        self.count = count


class CertificateError(RuntimeError):
    """A certificate or verdict failed its validity check (a program fault,
    not bad input)."""


def require(ok: bool, message: str) -> None:
    """Raise :class:`CertificateError` unless ``ok``; unlike ``assert`` this
    check survives ``python -O``."""
    if not ok:
        raise CertificateError(message)
