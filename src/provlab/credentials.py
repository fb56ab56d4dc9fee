"""Credential structures: assertions, claims, signatures, manifests.

The claim is the signed heart of a manifest.  It lists assertion digests
(not the assertions themselves, so individual assertions can be redacted
later) and the hard binding that ties the claim to the asset bytes.

``claim_payload`` defines exactly what the claim signature covers:

- ``UNBOUND``: the canonical claim bytes only.  A timestamp token may ride
  along in the :class:`ClaimSignature`, but nothing signed references it.
- ``BOUND``: the canonical claim bytes followed by the digest of the whole
  token, which in turn imprints the claim, so replacing the token breaks
  the signature.

A :class:`Redaction` is one countersigned record per redaction; its
signature covers the record without its chain and signature (its
``UNSIGNED`` fields, see :func:`~.records.signed_bytes`).

Everything here encodes through :mod:`.records`, whose decoding is strict at
the record level as well as the value level: equal structures have equal
bytes, a manifest that decodes re-encodes to exactly the bytes it came
from, and any bit flip in an encoded claim is signature-visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from .container import ByteRange
from .crypto import digest
from .errors import ProvenanceError
from .records import decode_record, encode_record, sign_record
from .timestamp import TimestampToken
from .trust import Certificate, Identity

_MAX_LABEL_LENGTH = 64

Scalar = str | int | float | bytes


class BindingMode(str, Enum):
    UNBOUND = "UNBOUND"
    BOUND = "BOUND"


def _check_label(label: str) -> None:
    if not label or len(label) > _MAX_LABEL_LENGTH or not label.isascii():
        raise ValueError(f"invalid assertion label: {label!r}")


@dataclass(frozen=True)
class Assertion:
    """A labelled metadata statement with a flat scalar payload."""

    label: str
    payload: dict[str, Scalar]

    def __post_init__(self) -> None:
        _check_label(self.label)
        for key, value in self.payload.items():
            if not isinstance(key, str):
                raise ValueError("assertion payload keys must be strings")
            if isinstance(value, bool) or not isinstance(value, (str, int, float, bytes)):
                raise ValueError(
                    f"assertion payload value for {key!r} must be a scalar"
                )


@dataclass(frozen=True)
class HardBinding:
    """Digest over the logical bytes outside ``exclusions``."""

    algorithm: str
    exclusions: tuple[ByteRange, ...]
    digest: bytes


@dataclass(frozen=True)
class Claim:
    generator: str
    created_at: int
    assertion_digests: tuple[tuple[str, bytes], ...]
    binding: HardBinding
    spec_version: str

    def __post_init__(self) -> None:
        if len(self._digests) != len(self.assertion_digests):
            raise ValueError("duplicate assertion label in claim")

    @cached_property
    def _digests(self) -> dict[str, bytes]:
        return dict(self.assertion_digests)

    def digest_for(self, label: str) -> bytes | None:
        return self._digests.get(label)


@dataclass(frozen=True)
class ClaimSignature:
    signer_chain: tuple[Certificate, ...]
    signature: bytes
    timestamp: TimestampToken | None
    binding_mode: BindingMode

    def __post_init__(self) -> None:
        if self.binding_mode == BindingMode.BOUND and self.timestamp is None:
            raise ValueError("bound signatures must carry a timestamp token")


@dataclass(frozen=True)
class Redaction:
    """A redactor's countersigned word that ``target`` was redacted: an
    assertion, with the claim's digest for it, or an excluded segment, with
    ``original_digest`` None.  The leaf of ``signer_chain`` names the redactor."""

    UNSIGNED = ("signer_chain", "signature")

    target: str
    original_digest: bytes | None
    signer_chain: tuple[Certificate, ...]
    signature: bytes


@dataclass(frozen=True)
class Manifest:
    claim: Claim
    assertions: tuple[Assertion, ...]
    claim_signature: ClaimSignature
    redaction_signatures: tuple[Redaction, ...] = ()
    archival_tokens: tuple[TimestampToken, ...] = ()


# ---------------------------------------------------------------------------
# canonical encoding entry points
# ---------------------------------------------------------------------------

def encode_manifest(manifest: Manifest) -> bytes:
    return encode_record(manifest)


def decode_manifest(data: bytes) -> Manifest:
    return decode_record(Manifest, data)


# ---------------------------------------------------------------------------
# signing payloads and digests
# ---------------------------------------------------------------------------

def claim_payload(
    claim_bytes: bytes, binding_mode: BindingMode, token: TimestampToken | None
) -> bytes:
    """The bytes a claim signature in ``binding_mode`` carrying ``token``
    covers: a signer's before it builds the signature record, and the
    validator's from the record it read.

    The one signature whose bytes are not a record minus its ``UNSIGNED``
    fields: they are the claim bytes, followed by the bound token's digest."""
    if binding_mode == BindingMode.UNBOUND:
        return claim_bytes
    return claim_bytes + digest(encode_record(token))


def digest_assertion(assertion: Assertion) -> bytes:
    return digest(encode_record(assertion))


# ---------------------------------------------------------------------------
# redaction
# ---------------------------------------------------------------------------

def redact_assertion(
    manifest: Manifest, label: str, redactor: Identity | None = None
) -> Manifest:
    """Remove an assertion from the manifest, leaving its digest tombstone.

    With no ``redactor`` the assertion is just dropped, as the format allows.
    With one, the redactor's countersigned :class:`Redaction` of it is
    appended, which a strict validator demands before accepting a tombstone.
    """
    if not any(a.label == label for a in manifest.assertions):
        raise ProvenanceError(f"no assertion labelled {label!r}")
    remaining = tuple(a for a in manifest.assertions if a.label != label)
    if redactor is None:
        return replace(manifest, assertions=remaining)
    unsigned = Redaction(label, manifest.claim.digest_for(label), redactor.chain, b"")
    redaction = sign_record(unsigned, redactor.key)
    return replace(
        manifest,
        assertions=remaining,
        redaction_signatures=manifest.redaction_signatures + (redaction,),
    )
