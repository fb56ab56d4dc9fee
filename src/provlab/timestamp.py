"""Timestamp tokens and archival extension.

A token is a TSA's signature over ``(message_digest, gen_time)`` and nothing
else.  The digest is its message imprint (RFC 3161): the claim's digest when
the claim signature pins the token (bound), the signature's when it does not
(unbound).  The format is the same either way, so unbound tokens swap freely.

Archival extension appends a token over the digest of the entire current
manifest payload to a trailer list inside the manifest segment.  Those
tokens sit outside the claim-signature payload, so anyone can extend an
asset, and each token attests that everything before it existed at its
``gen_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .container import Asset, extract_manifest, replace_manifest
from .crypto import DIGEST_SIZE, SigningKey, digest
from .errors import ProvenanceError
from .records import sign_record, verify_record
from .trust import Certificate, ChainStatus, TrustList, Usage, verify_chain


@dataclass(frozen=True)
class TimestampToken:
    # the TSA signs the digest and the time, nothing else
    UNSIGNED = ("tsa_chain", "tsa_signature")

    message_digest: bytes
    gen_time: int
    tsa_chain: tuple[Certificate, ...]
    tsa_signature: bytes


def issue_token(
    tsa_key: SigningKey,
    tsa_chain: tuple[Certificate, ...],
    message_digest: bytes,
    clock: int,
) -> TimestampToken:
    """Sign ``(message_digest, clock)`` with the TSA leaf key.

    The TSA answers for any digest presented to it; the only honesty checks
    are its own certificate usage and validity window at ``clock``.
    """
    if len(message_digest) != DIGEST_SIZE:
        raise ValueError("message digest must be 32 bytes")
    if not tsa_chain:
        raise ValueError("empty TSA chain")
    leaf = tsa_chain[0]
    if leaf.usage != Usage.LEAF_TSA:
        raise ProvenanceError(f"TSA leaf has usage {leaf.usage.value}")
    if leaf.public_key != tsa_key.public_bytes:
        raise ProvenanceError("TSA key does not match the leaf certificate")
    if not leaf.in_window(clock):
        raise ProvenanceError(f"TSA certificate outside validity window at {clock}")
    return sign_record(TimestampToken(message_digest, clock, tuple(tsa_chain), b""), tsa_key)


class TokenStatus(str, Enum):
    VALID = "VALID"
    DIGEST_MISMATCH = "DIGEST_MISMATCH"
    BAD_TOKEN_SIGNATURE = "BAD_TOKEN_SIGNATURE"
    UNTRUSTED_TSA = "UNTRUSTED_TSA"


@dataclass(frozen=True)
class TokenVerdict:
    status: TokenStatus
    detail: str = ""

    @property
    def valid(self) -> bool:
        return self.status == TokenStatus.VALID


def verify_token(
    token: TimestampToken,
    expected_digest: bytes,
    trust: TrustList,
) -> TokenVerdict:
    """Verify a token; the TSA chain is checked at ``token.gen_time``.

    Tokens attest past moments, so there is no "current time" input here;
    whether an old token should still be *trusted* now is a policy question
    answered by the validator's archival-chain rule, not by this check.
    """
    if not token.tsa_chain:
        return TokenVerdict(TokenStatus.UNTRUSTED_TSA, "empty TSA chain")
    leaf = token.tsa_chain[0]
    if not verify_record(token, leaf.public_key):
        return TokenVerdict(TokenStatus.BAD_TOKEN_SIGNATURE, "TSA signature invalid")
    if token.message_digest != expected_digest:
        return TokenVerdict(TokenStatus.DIGEST_MISMATCH, "token covers a different digest")
    if leaf.usage != Usage.LEAF_TSA:
        return TokenVerdict(
            TokenStatus.UNTRUSTED_TSA, f"leaf usage {leaf.usage.value} is not a TSA"
        )
    chain_verdict = verify_chain(token.tsa_chain, trust, token.gen_time)
    if chain_verdict.status != ChainStatus.VALID:
        return TokenVerdict(
            TokenStatus.UNTRUSTED_TSA,
            f"TSA chain {chain_verdict.status.value} at gen_time: {chain_verdict.detail}",
        )
    return TokenVerdict(TokenStatus.VALID)


class TimestampAuthority:
    """An offline TSA handle: key, chain, and an injectable clock."""

    def __init__(self, key: SigningKey, chain: tuple[Certificate, ...], clock: int):
        self.key = key
        self.chain = tuple(chain)
        self.clock = clock

    def issue(self, message_digest: bytes, clock: int | None = None) -> TimestampToken:
        return issue_token(
            self.key, self.chain, message_digest, self.clock if clock is None else clock
        )


def archival_extend(asset: Asset, tsa: TimestampAuthority, clock: int | None = None) -> Asset:
    """Append an archival token over the current manifest payload.

    The new token lands in the manifest's archival trailer list; everything
    that was in the manifest before (including earlier archival tokens) is
    covered by the new token's digest.
    """
    from .credentials import decode_manifest, encode_manifest

    manifest_bytes = extract_manifest(asset)
    manifest = decode_manifest(manifest_bytes)
    token = tsa.issue(digest(manifest_bytes), clock)
    extended = replace(manifest, archival_tokens=manifest.archival_tokens + (token,))
    return replace_manifest(asset, encode_manifest(extended))
