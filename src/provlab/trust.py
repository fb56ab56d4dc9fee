"""Certificate hierarchy, chain verification, and revocation channels.

Certificates are small fixed-field records signed by their issuer over the
canonical encoding of every field except the signature itself; the wire
shape of every record here comes from :mod:`.records`.  A chain is
ordered leaf-first and verifies against a :class:`TrustList` of self-signed
root anchors.

Revocation is published over two channels backed by the same authority
state: a signed :class:`RevocationList` snapshot, and per-serial
:class:`StatusResponse` records served online (see :mod:`.statusservice`).
Both channels must always agree; the validator chooses which one to consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .crypto import SigningKey, verify_once
from .errors import ProvenanceError
from .records import decode_record, sign_record, signed_bytes, verify_record


class Usage(str, Enum):
    ROOT = "ROOT"
    INTERMEDIATE = "INTERMEDIATE"
    LEAF_SIGNING = "LEAF_SIGNING"
    LEAF_TSA = "LEAF_TSA"


@dataclass(frozen=True)
class Certificate:
    UNSIGNED = ("issuer_signature",)

    serial: int
    subject: str
    issuer: str
    public_key: bytes
    not_before: int
    not_after: int
    usage: Usage
    issuer_signature: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.serial < 2**64:
            raise ValueError("serial must fit in 64 bits")
        if self.not_before > self.not_after:
            raise ValueError("validity window is inverted")

    def in_window(self, at_time: int) -> bool:
        return self.not_before <= at_time <= self.not_after


@dataclass(frozen=True)
class Identity:
    """A leaf key with its verification chain, leaf first."""

    key: SigningKey
    chain: tuple[Certificate, ...]


def certificate_template_bytes(cert: Certificate) -> bytes:
    """Canonical bytes the issuer signs: every field but the signature."""
    return signed_bytes(cert)


def issue_certificate(
    issuer_key: SigningKey,
    template: Certificate,
    issuer_cert: Certificate | None = None,
) -> Certificate:
    """Sign ``template`` with ``issuer_key``.

    ``issuer_cert`` is omitted only for self-signed roots.  The issuer must
    be permitted to issue (ROOT or INTERMEDIATE usage) and the template's
    validity window must nest inside the issuer's.
    """
    if issuer_cert is None:
        if template.usage != Usage.ROOT or template.issuer != template.subject:
            raise ProvenanceError("self-signed certificates must be roots")
        if template.public_key != issuer_key.public_bytes:
            raise ProvenanceError("root must be signed by its own key")
    else:
        if issuer_cert.usage not in (Usage.ROOT, Usage.INTERMEDIATE):
            raise ProvenanceError(f"{issuer_cert.usage.value} certificates cannot issue")
        if template.issuer != issuer_cert.subject:
            raise ProvenanceError("template issuer does not name the issuing certificate")
        if issuer_cert.public_key != issuer_key.public_bytes:
            raise ProvenanceError("issuer key does not match the issuing certificate")
        if not (
            issuer_cert.not_before <= template.not_before
            and template.not_after <= issuer_cert.not_after
        ):
            raise ProvenanceError(
                "template validity window escapes the issuer's window"
            )
    return sign_record(template, issuer_key)


# ---------------------------------------------------------------------------
# chain verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrustList:
    anchors: tuple[Certificate, ...]


class ChainStatus(str, Enum):
    VALID = "VALID"
    EXPIRED = "EXPIRED"
    UNTRUSTED_ROOT = "UNTRUSTED_ROOT"
    BAD_LINK_SIGNATURE = "BAD_LINK_SIGNATURE"


@dataclass(frozen=True)
class ChainVerdict:
    status: ChainStatus
    detail: str = ""

    @property
    def valid(self) -> bool:
        return self.status == ChainStatus.VALID


def verify_chain(
    chain: tuple[Certificate, ...] | list[Certificate],
    trust: TrustList,
    at_time: int,
) -> ChainVerdict:
    """Verify a leaf-first chain at ``at_time``.

    Checks run in a fixed order so the verdict is deterministic: link
    signatures and issuer relationships first, then root trust, then the
    validity windows of every certificate.
    """
    chain = tuple(chain)
    if not chain:
        return ChainVerdict(ChainStatus.BAD_LINK_SIGNATURE, "empty chain")
    for cert, issuer in zip(chain, chain[1:]):
        if issuer.usage not in (Usage.ROOT, Usage.INTERMEDIATE):
            return ChainVerdict(
                ChainStatus.BAD_LINK_SIGNATURE, f"issuer usage {issuer.usage.value} cannot issue"
            )
        if cert.issuer != issuer.subject:
            return ChainVerdict(ChainStatus.BAD_LINK_SIGNATURE, "issuer name mismatch")
        if not verify_once(
            issuer.public_key, certificate_template_bytes(cert), cert.issuer_signature
        ):
            return ChainVerdict(ChainStatus.BAD_LINK_SIGNATURE, "issuer signature invalid")
    top = chain[-1]
    if top.issuer != top.subject or not verify_once(
        top.public_key, certificate_template_bytes(top), top.issuer_signature
    ):
        return ChainVerdict(ChainStatus.BAD_LINK_SIGNATURE, "top of chain is not self-signed")
    if top not in trust.anchors:
        return ChainVerdict(ChainStatus.UNTRUSTED_ROOT, "root is not a trust anchor")
    for cert in chain:
        if not cert.in_window(at_time):
            return ChainVerdict(
                ChainStatus.EXPIRED,
                f"certificate {cert.serial} outside validity window at {at_time}",
            )
    return ChainVerdict(ChainStatus.VALID)


# ---------------------------------------------------------------------------
# revocation
# ---------------------------------------------------------------------------

class CertStatus(Enum):
    GOOD = 0
    REVOKED = 1
    UNKNOWN = 2


@dataclass(frozen=True)
class RevocationList:
    UNSIGNED = ("signature",)

    issuer: str
    this_update: int
    entries: tuple[tuple[int, int], ...]  # (serial, revoked_at), sorted by serial
    signature: bytes


def verify_crl(crl: RevocationList, issuer_cert: Certificate) -> bool:
    return issuer_cert.subject == crl.issuer and verify_record(crl, issuer_cert.public_key)


def decode_revocation_list(data: bytes) -> RevocationList:
    return decode_record(RevocationList, data)


@dataclass(frozen=True)
class StatusResponse:
    # the serial is signed, so a response for one serial cannot be
    # replayed for another
    UNSIGNED = ("responder_signature",)

    serial: int
    status: CertStatus
    revoked_at: int | None
    produced_at: int
    responder_signature: bytes


class Authority:
    """A certificate authority: issuance registry plus revocation state.

    The same state backs both revocation channels, which is what makes the
    channel-agreement invariant (CRL entries match online status responses)
    hold by construction.
    """

    def __init__(self, key: SigningKey, cert: Certificate, clock: int):
        self.name = cert.subject
        self.key = key
        self.cert = cert
        self.clock = clock
        self.issued: dict[int, str] = {cert.serial: cert.subject}
        self.revoked: dict[int, int] = {}
        self._signed: dict[int, StatusResponse] = {}

    def issue(self, template: Certificate) -> Certificate:
        """Issue ``template``; idempotent for an identical re-issue."""
        if template.serial in self.issued and self.issued[template.serial] != template.subject:
            raise ValueError(
                f"serial {template.serial} already issued to {self.issued[template.serial]!r}"
            )
        cert = issue_certificate(self.key, template, self.cert)
        self.issued[cert.serial] = cert.subject
        return cert

    def revoke(self, serial: int, revoked_at: int) -> None:
        if serial not in self.issued:
            raise ProvenanceError(f"serial {serial} was never issued by {self.name!r}")
        self.revoked[serial] = revoked_at

    def generate_crl(self) -> RevocationList:
        entries = tuple(sorted(self.revoked.items()))
        return sign_record(RevocationList(self.name, self.clock, entries, b""), self.key)

    def status_for(self, serial: int) -> StatusResponse:
        """Sign each distinct status once (Ed25519 is deterministic) and serve
        that record, which keeps its first write's bytes (RFC 5019), until a
        revocation or clock change alters it.  UNKNOWN is never stored, so
        the store stays within the registry."""
        if serial not in self.issued:
            status, revoked_at = CertStatus.UNKNOWN, None
        elif serial in self.revoked:
            status, revoked_at = CertStatus.REVOKED, self.revoked[serial]
        else:
            status, revoked_at = CertStatus.GOOD, None
        stored = self._signed.get(serial)
        live = (status, revoked_at, self.clock)
        if stored is not None and (stored.status, stored.revoked_at, stored.produced_at) == live:
            return stored
        signed = sign_record(StatusResponse(serial, *live, b""), self.key)
        if status is not CertStatus.UNKNOWN:
            self._signed[serial] = signed
        return signed
