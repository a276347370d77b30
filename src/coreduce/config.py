"""Resource limits shared across the combinatorial engines."""

from __future__ import annotations

from dataclasses import dataclass


class ResourceLimitError(RuntimeError):
    """A configured state/size cap was hit (pathological input, not wrongness)."""


class CertificateError(RuntimeError):
    """A certificate or verdict failed its validity check (a program fault,
    not bad input)."""


def require(ok: bool, message: str) -> None:
    """Raise :class:`CertificateError` unless ``ok``; unlike ``assert`` this
    check survives ``python -O``."""
    if not ok:
        raise CertificateError(message)


DEFAULT_DP_STATE_LIMIT = 50_000_000
DEFAULT_MAX_GENERATORS = 100_000
DEFAULT_MAX_CANDIDATES = 2_000_000


@dataclass(frozen=True)
class Limits:
    dp_state_limit: int = DEFAULT_DP_STATE_LIMIT
    max_generators: int = DEFAULT_MAX_GENERATORS
    max_candidates: int = DEFAULT_MAX_CANDIDATES


DEFAULT_LIMITS = Limits()
