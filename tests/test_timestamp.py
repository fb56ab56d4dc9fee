"""Timestamp tokens: issuance, verification, archival extension."""

from dataclasses import replace

import pytest

from provlab.crypto import digest
from provlab.errors import ProvenanceError
from provlab.records import decode_record, encode_record, signed_bytes
from provlab.timestamp import (
    TimestampAuthority,
    TimestampToken,
    TokenStatus,
    archival_extend,
    issue_token,
    verify_token,
)
from provlab.workspace import DAY, T0, YEAR, Workspace


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    return Workspace.initialize(tmp_path_factory.mktemp("tsws"), seed=3)


def test_issue_and_verify(lab):
    tsa = lab.tsa()
    message = digest(b"some signature bytes")
    token = issue_token(lab.tsa_leaf.key, lab.tsa_leaf.chain, message, T0 + 5)
    assert token.gen_time == T0 + 5
    assert token.message_digest == message
    verdict = verify_token(token, message, lab.trust)
    assert verdict.valid
    assert verdict.status == TokenStatus.VALID
    # the convenience authority wrapper issues the same shape
    assert tsa.issue(message, clock=T0 + 5) == token


def test_digest_mismatch_detected(lab):
    token = lab.tsa().issue(digest(b"a"))
    verdict = verify_token(token, digest(b"b"), lab.trust)
    assert verdict.status == TokenStatus.DIGEST_MISMATCH
    assert verify_token(token, digest(b"a"), lab.trust).valid


def test_every_field_is_covered_by_the_tsa_signature(lab):
    token = lab.tsa().issue(digest(b"payload"))
    flipped_time = replace(token, gen_time=token.gen_time + 1)
    assert (
        verify_token(flipped_time, token.message_digest, lab.trust).status
        == TokenStatus.BAD_TOKEN_SIGNATURE
    )
    flipped_digest = replace(token, message_digest=digest(b"other"))
    # expecting the flipped digest, the signature check still catches the flip
    assert (
        verify_token(flipped_digest, digest(b"other"), lab.trust).status
        == TokenStatus.BAD_TOKEN_SIGNATURE
    )


def test_untrusted_tsa_rejected(lab, tmp_path):
    other = Workspace.initialize(tmp_path / "other", seed=4)
    token = other.tsa().issue(digest(b"x"))
    verdict = verify_token(token, digest(b"x"), lab.trust)
    assert verdict.status == TokenStatus.UNTRUSTED_TSA


def test_signing_leaf_cannot_timestamp(lab):
    with pytest.raises(ProvenanceError, match="TSA leaf has usage"):
        issue_token(lab.device.key, lab.device.chain, digest(b"x"), T0)


def test_a_token_without_a_tsa_chain_is_untrusted(lab):
    token = replace(lab.tsa().issue(digest(b"x")), tsa_chain=())
    verdict = verify_token(token, digest(b"x"), lab.trust)
    assert (verdict.status, verdict.detail) == (TokenStatus.UNTRUSTED_TSA, "empty TSA chain")


def test_a_token_signed_by_a_signing_leaf_is_untrusted(lab):
    """``issue_token`` refuses a signing leaf, so the token is built by hand."""
    unsigned = TimestampToken(digest(b"x"), T0, lab.device.chain, b"")
    token = replace(unsigned, tsa_signature=lab.device.key.sign(signed_bytes(unsigned)))
    verdict = verify_token(token, digest(b"x"), lab.trust)
    assert (verdict.status, verdict.detail) == (
        TokenStatus.UNTRUSTED_TSA,
        "leaf usage LEAF_SIGNING is not a TSA",
    )


@pytest.mark.parametrize(
    "error, message",
    [
        (ValueError, "message digest must be 32 bytes"),
        (ValueError, "empty TSA chain"),
        (ProvenanceError, "TSA key does not match the leaf certificate"),
    ],
    ids=["short-digest", "empty-chain", "foreign-key"],
)
def test_issue_token_refusals(lab, error, message):
    key, chain, message_digest = lab.tsa_leaf.key, lab.tsa_leaf.chain, digest(b"x")
    arguments = {
        "message digest must be 32 bytes": (key, chain, message_digest[:31], T0),
        "empty TSA chain": (key, (), message_digest, T0),
        "TSA key does not match the leaf certificate": (
            lab.device.key, chain, message_digest, T0,
        ),
    }[message]
    with pytest.raises(error) as refused:
        issue_token(*arguments)
    assert str(refused.value) == message


def test_token_outside_tsa_window_rejected_at_issue(lab):
    with pytest.raises(ProvenanceError, match="TSA certificate outside validity window"):
        issue_token(lab.tsa_leaf.key, lab.tsa_leaf.chain, digest(b"x"), T0 + 16 * YEAR)


def test_token_verifies_at_its_own_gen_time_not_now(lab):
    """The archival-chain rule: a token stays valid after the TSA cert
    expires, because verification anchors at gen_time."""
    token = lab.tsa().issue(digest(b"x"), clock=T0)
    assert verify_token(token, digest(b"x"), lab.trust).valid
    # nothing in the token references the current wall clock, so the same
    # call gives the same answer regardless of when it runs
    assert verify_token(token, digest(b"x"), lab.trust).valid


def test_wire_roundtrip(lab):
    token = lab.tsa().issue(digest(b"roundtrip"))
    wire = encode_record(token)
    assert decode_record(TimestampToken, wire) == token
    assert encode_record(decode_record(TimestampToken, wire)) == wire
    assert len(wire) > 64


# ---------------------------------------------------------------------------
# archival extension
# ---------------------------------------------------------------------------

def test_archival_extend_appends_linked_tokens(lab):
    from provlab.container import extract_manifest
    from provlab.credentials import decode_manifest, encode_manifest
    from provlab.signer import make_fixture

    signed = make_fixture(lab, "bound-timestamp")
    tsa = lab.tsa()
    once = archival_extend(signed, tsa, clock=T0 + 10 * DAY)
    twice = archival_extend(once, tsa, clock=T0 + 400 * DAY)

    manifest0 = decode_manifest(extract_manifest(signed))
    manifest1 = decode_manifest(extract_manifest(once))
    manifest2 = decode_manifest(extract_manifest(twice))
    assert len(manifest0.archival_tokens) == 0
    assert len(manifest1.archival_tokens) == 1
    assert len(manifest2.archival_tokens) == 2
    assert manifest2.archival_tokens[0] == manifest1.archival_tokens[0]

    # token i covers the manifest as it stood with i earlier tokens
    token1, token2 = manifest2.archival_tokens
    assert token1.message_digest == digest(
        encode_manifest(replace(manifest2, archival_tokens=()))
    )
    assert token2.message_digest == digest(
        encode_manifest(replace(manifest2, archival_tokens=(token1,)))
    )
    assert token1.gen_time == T0 + 10 * DAY
    assert token2.gen_time == T0 + 400 * DAY

    # claim, assertions, and signature are untouched by extension
    assert manifest2.claim == manifest0.claim
    assert manifest2.assertions == manifest0.assertions
    assert manifest2.claim_signature == manifest0.claim_signature
