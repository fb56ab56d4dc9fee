"""Error hierarchy shared across the package.

Every anticipated failure raises :class:`ProvenanceError` so callers (the
validator and the CLI in particular) can convert failures into reports and
exit codes instead of tracebacks; both carry only the message.  A subclass
exists only where a caller tells it apart from its base.
"""

from __future__ import annotations


class ProvenanceError(Exception):
    """Base class for all errors raised by this package."""


class MalformedContainer(ProvenanceError):
    """Input bytes are not a well-formed asset container (the parser's one failure)."""


class EncodeError(ProvenanceError):
    """Value cannot be canonically encoded."""


class DecodeError(ProvenanceError):
    """Bytes are not a canonical encoding of a supported value."""


class ServiceUnreachable(ProvenanceError):
    """The status service did not produce a trustworthy response."""
