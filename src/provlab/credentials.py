"""Credential structures: assertions, claims, signatures, manifests.

The claim is the signed heart of a manifest.  It lists assertion digests
(not the assertions themselves, so individual assertions can be redacted
later) and the hard binding that ties the claim to the asset bytes.

``signed_payload`` defines exactly what the claim signature covers:

- ``UNBOUND``: the canonical claim bytes only.  A timestamp token may ride
  along in the :class:`ClaimSignature`, but nothing signed references it.
- ``BOUND``: the canonical claim bytes followed by the digest of the whole
  token, which in turn imprints the claim, so replacing the token breaks
  the signature.

Everything here encodes through :mod:`.records`, whose decoding is strict at
the record level as well as the value level: equal structures have equal
bytes, a manifest that decodes re-encodes to exactly the bytes it came
from, and any bit flip in an encoded claim is signature-visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .container import HardBinding
from .crypto import digest
from .errors import ProvenanceError
from .records import decode_record, encode_record
from .timestamp import TimestampToken
from .trust import Certificate, Identity

REDACTION_LABEL = "prov.redaction"

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
class Claim:
    generator: str
    created_at: int
    assertion_digests: tuple[tuple[str, bytes], ...]
    binding: HardBinding
    spec_version: str

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.assertion_digests]
        if len(labels) != len(set(labels)):
            raise ValueError("duplicate assertion label in claim")

    def digest_for(self, label: str) -> bytes | None:
        for candidate, value in self.assertion_digests:
            if candidate == label:
                return value
        return None


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
class Manifest:
    claim: Claim
    assertions: tuple[Assertion, ...]
    claim_signature: ClaimSignature
    redaction_signatures: tuple[ClaimSignature, ...] = ()
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

def signed_payload(claim_bytes: bytes, claim_signature: ClaimSignature) -> bytes:
    """The exact bytes ``claim_signature`` covers; its ``signature`` is not read."""
    if claim_signature.binding_mode == BindingMode.UNBOUND:
        return claim_bytes
    return claim_bytes + digest(encode_record(claim_signature.timestamp))


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
    With one, a ``prov.redaction`` record naming it and the redactor's
    countersignature over that record are appended at the same position, the
    pairing a strict validator demands before accepting a tombstone.
    """
    if label == REDACTION_LABEL:
        raise ProvenanceError("redaction records may not be redacted")
    target = next((a for a in manifest.assertions if a.label == label), None)
    if target is None:
        raise ProvenanceError(f"no assertion labelled {label!r}")
    remaining = tuple(a for a in manifest.assertions if a.label != label)
    if redactor is None:
        return replace(manifest, assertions=remaining)
    record = Assertion(
        REDACTION_LABEL,
        {
            "target": label,
            "original_digest": digest_assertion(target),
            "redactor": redactor.chain[0].subject,
        },
    )
    countersignature = ClaimSignature(
        signer_chain=redactor.chain,
        signature=redactor.key.sign(encode_record(record)),
        timestamp=None,
        binding_mode=BindingMode.UNBOUND,
    )
    return replace(
        manifest,
        assertions=remaining + (record,),
        redaction_signatures=manifest.redaction_signatures + (countersignature,),
    )
