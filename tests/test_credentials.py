"""Claims, assertions, manifests: encoding discipline and redaction."""

from dataclasses import replace

import pytest

from provlab.container import ByteRange
from provlab.credentials import (
    Assertion,
    BindingMode,
    Claim,
    ClaimSignature,
    HardBinding,
    Manifest,
    claim_payload,
    decode_manifest,
    digest_assertion,
    encode_manifest,
    redact_assertion,
)
from provlab.crypto import digest, verify
from provlab.errors import DecodeError, ProvenanceError
from provlab.records import decode_record, encode_record, signed_bytes
from provlab.timestamp import TimestampToken
from provlab.trust import (
    Certificate,
    RevocationList,
    decode_revocation_list,
)
from provlab.workspace import T0, Workspace


def sample_claim(assertions):
    return Claim(
        generator="labcam-test",
        created_at=T0,
        assertion_digests=tuple((a.label, digest_assertion(a)) for a in assertions),
        binding=HardBinding("sha-256", (ByteRange(4, 100),), b"\x11" * 32),
        spec_version="1.0",
    )


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    return Workspace.initialize(tmp_path_factory.mktemp("credws"), seed=5)


@pytest.fixture(scope="module")
def manifest(lab):
    assertions = (
        Assertion("std.actions", {"action": "captured", "agent": "labcam-test"}),
        Assertion("std.created", {"at": T0}),
        Assertion("std.gps", {"lat": 1.5, "lon": -2.25}),
    )
    claim = sample_claim(assertions)
    unsigned = ClaimSignature(lab.device.chain, b"", None, BindingMode.UNBOUND)
    payload = claim_payload(encode_record(claim), BindingMode.UNBOUND, None)
    signature = lab.device.key.sign(payload)
    return Manifest(claim, assertions, replace(unsigned, signature=signature))


# ---------------------------------------------------------------------------
# structural rules
# ---------------------------------------------------------------------------

def test_assertion_rules():
    with pytest.raises(ValueError):
        Assertion("", {"a": 1})
    with pytest.raises(ValueError):
        Assertion("x" * 65, {"a": 1})
    with pytest.raises(ValueError):
        Assertion("ok", {"flag": True})  # bools are not payload scalars
    with pytest.raises(ValueError):
        Assertion("ok", {1: "non-string key"})


def test_an_assertion_label_holds_at_most_64_characters():
    assert Assertion("a" * 64, {}).label == "a" * 64
    with pytest.raises(ValueError, match="invalid assertion label"):
        Assertion("a" * 65, {})


def test_claim_rejects_duplicate_labels():
    assertion = Assertion("std.x", {"v": 1})
    with pytest.raises(ValueError):
        Claim(
            generator="g",
            created_at=T0,
            assertion_digests=(
                ("std.x", digest_assertion(assertion)),
                ("std.x", digest_assertion(assertion)),
            ),
            binding=HardBinding("sha-256", (ByteRange(0, 1),), b"\x00" * 32),
            spec_version="1.0",
        )


def test_bound_signature_requires_token(lab):
    claim = sample_claim(())
    signature = lab.device.key.sign(b"whatever")
    with pytest.raises(ValueError):
        ClaimSignature(lab.device.chain, signature, None, BindingMode.BOUND)


# ---------------------------------------------------------------------------
# wire round-trips and strictness
# ---------------------------------------------------------------------------

def test_manifest_roundtrip(manifest):
    wire = encode_manifest(manifest)
    assert decode_manifest(wire) == manifest
    assert encode_manifest(decode_manifest(wire)) == wire


def test_assertion_roundtrip():
    assertion = Assertion("std.mixed", {"i": -3, "f": 2.5, "s": "x", "b": b"\x00\xff"})
    assert decode_record(Assertion, encode_record(assertion)) == assertion


def test_claim_roundtrip(manifest):
    wire = encode_record(manifest.claim)
    assert decode_record(Claim, wire) == manifest.claim


@pytest.mark.parametrize("junk", [b"", b"\x00", b"\xa0", encode_record(Assertion("a", {"b": 1}))])
def test_manifest_decode_rejects_wrong_shapes(junk):
    with pytest.raises(DecodeError):
        decode_manifest(junk)


def test_single_bit_flip_never_roundtrips(lab, manifest):
    """Any bit flip either fails to decode or decodes to a different record,
    and a mutant that decodes re-encodes to exactly its own bytes."""
    crl = RevocationList("crl-issuer", T0, ((7, T0 + 1), (9, T0 + 2)), b"\x5a" * 64)
    cases = (
        (manifest, encode_manifest, decode_manifest),
        (lab.device.chain[0], encode_record, lambda data: decode_record(Certificate, data)),
        (
            lab.tsa().issue(digest(b"bit flips")),
            encode_record,
            lambda data: decode_record(TimestampToken, data),
        ),
        (crl, encode_record, decode_revocation_list),
    )
    for record, encode, decode in cases:
        wire = encode(record)
        step = max(1, len(wire) // 97)
        for pos in range(0, len(wire), step):
            mutated = bytearray(wire)
            mutated[pos] ^= 0x01
            mutated = bytes(mutated)
            try:
                decoded = decode(mutated)
            except DecodeError:
                continue
            assert decoded != record
            assert encode(decoded) == mutated


def test_digest_assertion_is_over_encoding():
    assertion = Assertion("std.x", {"v": 41})
    assert digest_assertion(assertion) == digest(encode_record(assertion))
    assert digest_assertion(Assertion("std.x", {"v": 42})) != digest_assertion(assertion)


# ---------------------------------------------------------------------------
# signed payload discipline
# ---------------------------------------------------------------------------

def test_signed_payload_unbound_is_claim_encoding(lab, manifest):
    claim_bytes = encode_record(manifest.claim)
    token = lab.tsa().issue(digest(manifest.claim_signature.signature))
    # an unbound token rides along but is not in the payload
    assert claim_payload(claim_bytes, BindingMode.UNBOUND, token) == claim_bytes
    assert claim_payload(claim_bytes, BindingMode.UNBOUND, None) == claim_bytes


def test_signed_payload_bound_appends_token_digest(lab, manifest):
    claim_bytes = encode_record(manifest.claim)
    token = lab.tsa().issue(digest(claim_bytes))
    payload = claim_payload(claim_bytes, BindingMode.BOUND, token)
    assert payload == claim_bytes + digest(encode_record(token))


# ---------------------------------------------------------------------------
# redaction
# ---------------------------------------------------------------------------

def test_drop_mode_redaction(manifest):
    redacted = redact_assertion(manifest, "std.gps")
    labels = [a.label for a in redacted.assertions]
    assert "std.gps" not in labels
    # claim (and its digest list) are untouched: the tombstone is implicit
    assert redacted.claim == manifest.claim
    assert redacted.claim_signature == manifest.claim_signature
    assert not redacted.redaction_signatures


def test_countersigned_redaction(lab, manifest):
    redacted = redact_assertion(manifest, "std.gps", lab.redactor)
    assert redacted.assertions == tuple(a for a in manifest.assertions if a.label != "std.gps")
    (redaction,) = redacted.redaction_signatures
    assert redaction.target == "std.gps"
    assert redaction.original_digest == manifest.claim.digest_for("std.gps")
    assert redaction.signer_chain == lab.redactor.chain
    assert verify(
        lab.redactor.chain[0].public_key,
        signed_bytes(redaction),
        redaction.signature,
    )
    # round-trips with the extra fields intact
    assert decode_manifest(encode_manifest(redacted)) == redacted


def test_redacting_missing_label_fails(manifest):
    with pytest.raises(ProvenanceError, match="no assertion labelled 'std.nope'"):
        redact_assertion(manifest, "std.nope")
