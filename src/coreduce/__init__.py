"""Exact certificates for reducedness of null cones of group representations.

Subpackages:

- :mod:`coreduce.rootsys` — root systems, weights, coordinate changes.
- :mod:`coreduce.repthy` — characters, symmetric powers, covariant counting.
- :mod:`coreduce.monoid` — Hilbert bases of relation monoids, sum feasibility.
- :mod:`coreduce.slices` — toral slices and relation certificates.
- :mod:`coreduce.nullcone` — null-cone components, screens, support bounds.
- :mod:`coreduce.classify` — verdicts with machine-checkable certificates.
- :mod:`coreduce.cli` — the ``coreduce`` command-line tool.

Each engine enforces its own resource caps as module constants (for example
``monoid.HILBERT_COORD_CAP``) and raises :class:`ResourceLimitError` when one
is reached; nothing sets them from outside.
"""

from .config import ResourceLimitError

__all__ = ["ResourceLimitError"]
__version__ = "1.0.0"
