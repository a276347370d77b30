"""The errors the engines raise, and a check that survives ``python -O``.

Each resource cap is a module constant of the engine that enforces it
(``monoid``, ``repthy``, ``nullcone``); nothing sets the caps from outside.
"""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """An engine's resource cap was hit (pathological input, not wrongness);
    the message names the cap, its value and the count reached."""


class CertificateError(RuntimeError):
    """A certificate or verdict failed its validity check (a program fault,
    not bad input)."""


def require(ok: bool, message: str) -> None:
    """Raise :class:`CertificateError` unless ``ok``; unlike ``assert`` this
    check survives ``python -O``."""
    if not ok:
        raise CertificateError(message)
