"""Error hierarchy shared across the package.

Every anticipated failure raises a subclass of :class:`ProvenanceError` so
callers (the validator and the CLI in particular) can convert failures into
reports and exit codes instead of tracebacks.
"""

from __future__ import annotations


class ProvenanceError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

class MalformedContainer(ProvenanceError):
    """Input bytes are not a well-formed asset container."""


class DuplicateManifest(ProvenanceError):
    """The container already holds a manifest segment."""


class NoManifest(ProvenanceError):
    """The container holds no manifest segment."""


class ExclusionOutOfBounds(ProvenanceError):
    """A byte range does not fit inside the asset."""


class ExclusionsOverlap(ProvenanceError):
    """Two exclusion ranges overlap."""


class ManifestNotExcluded(ProvenanceError):
    """The manifest segment is not fully covered by the exclusions."""


class LengthMismatch(ProvenanceError):
    """A splice replacement does not match the target range length."""


# ---------------------------------------------------------------------------
# encoding / credentials
# ---------------------------------------------------------------------------

class EncodeError(ProvenanceError):
    """Value cannot be canonically encoded."""


class DecodeError(ProvenanceError):
    """Bytes are not a canonical encoding of a supported value."""


class LabelNotFound(ProvenanceError):
    """No assertion or segment carries the requested label."""


class RedactionNotRedactable(ProvenanceError):
    """The assertion label may not be redacted."""


# ---------------------------------------------------------------------------
# trust / status service
# ---------------------------------------------------------------------------

class UsageViolation(ProvenanceError):
    """A certificate is used for a purpose its usage field forbids."""


class ValidityNotNested(ProvenanceError):
    """An issued certificate's validity window escapes its issuer's window."""


class UnknownSerial(ProvenanceError):
    """The serial was never issued by this authority."""


class ServiceUnreachable(ProvenanceError):
    """The status service did not produce a trustworthy response."""


class BindFailure(ProvenanceError):
    """The status service could not bind its listening address."""


# ---------------------------------------------------------------------------
# timestamp / signer
# ---------------------------------------------------------------------------

class ExpiredTsaCert(ProvenanceError):
    """The timestamping certificate is outside its validity window."""


class ExpiredSignerCert(ProvenanceError):
    """The signing certificate is outside its validity window."""


# ---------------------------------------------------------------------------
# attacks / fixtures / workspace
# ---------------------------------------------------------------------------

class BoundModeError(ProvenanceError):
    """The attack requires an unbound timestamp but the manifest is bound."""


class UntrustedTsa(ProvenanceError):
    """The supplied timestamping chain does not verify against the trust list."""


class NotExcluded(ProvenanceError):
    """The target range is not inside a declared exclusion."""


class UnknownScenario(ProvenanceError):
    """No fixture scenario is registered under the requested name."""


class RootNotEmpty(ProvenanceError):
    """The workspace root already contains files."""


class WorkspaceError(ProvenanceError):
    """The workspace state file is missing, unreadable, or not one ``save`` writes."""
