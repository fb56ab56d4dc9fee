"""The Ed25519 verification memo: exact keys, honest verdicts, two bounds."""

import pytest

from provlab import crypto
from provlab.container import extract_manifest, parse_asset
from provlab.corpus import entry_policies
from provlab.credentials import decode_manifest
from provlab.crypto import MEMO_ENTRIES, MEMO_MESSAGE_BYTES, derive_signing_key, verify_once
from provlab.validator import Verdict, report_to_json, validate

KEY = derive_signing_key(8, "memo-test")
MESSAGE = bytes(range(48))
SIGNATURE = KEY.sign(MESSAGE)


@pytest.fixture
def raw_calls(monkeypatch):
    """A cold memo, and the triples that reach the raw primitive from now on."""
    calls = []
    raw = crypto.verify

    def counting(public_key, message, signature):
        calls.append((bytes(public_key), bytes(message), bytes(signature)))
        return raw(public_key, message, signature)

    verify_once.cache_clear()
    monkeypatch.setattr(crypto, "verify", counting)
    yield calls
    verify_once.cache_clear()


def _flips(data: bytes):
    for i in range(len(data)):
        yield data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def test_a_hit_returns_the_stored_verdict_without_verifying(raw_calls):
    assert verify_once(KEY.public_bytes, MESSAGE, SIGNATURE)
    assert verify_once(KEY.public_bytes, MESSAGE, SIGNATURE)
    assert len(raw_calls) == 1
    assert verify_once.cache_info().hits == 1


def test_a_cached_triple_never_vouches_for_a_one_byte_change(raw_calls):
    assert verify_once(KEY.public_bytes, MESSAGE, SIGNATURE)
    for message in _flips(MESSAGE):
        assert not verify_once(KEY.public_bytes, message, SIGNATURE)
    for signature in _flips(SIGNATURE):
        assert not verify_once(KEY.public_bytes, MESSAGE, signature)
    for public_key in _flips(KEY.public_bytes):
        assert not verify_once(public_key, MESSAGE, SIGNATURE)
    # every changed triple was a miss that reached the primitive
    assert len(raw_calls) == 1 + len(MESSAGE) + len(SIGNATURE) + len(KEY.public_bytes)
    assert verify_once(KEY.public_bytes, MESSAGE, SIGNATURE)


def test_a_false_verdict_never_later_reads_true(raw_calls):
    forged = bytes(crypto.SIGNATURE_SIZE)
    for _ in range(3):
        assert not verify_once(KEY.public_bytes, MESSAGE, forged)
        assert verify_once(KEY.public_bytes, MESSAGE, SIGNATURE)
    assert len(raw_calls) == 2


def test_a_buffer_mutated_after_the_call_is_judged_by_its_new_bytes(raw_calls):
    message = bytearray(MESSAGE)
    assert verify_once(KEY.public_bytes, message, SIGNATURE)
    message[0] ^= 0x01
    assert not verify_once(KEY.public_bytes, message, SIGNATURE)
    message[0] ^= 0x01
    assert verify_once(KEY.public_bytes, message, SIGNATURE)

    signature = bytearray(SIGNATURE)
    assert verify_once(KEY.public_bytes, MESSAGE, signature)
    signature[-1] ^= 0x80
    assert not verify_once(KEY.public_bytes, MESSAGE, signature)


def test_memoryview_arguments(raw_calls):
    framed = b"\x00" * 5 + MESSAGE + b"\xff" * 5
    view = memoryview(framed)[5:-5]
    assert verify_once(memoryview(KEY.public_bytes), view, memoryview(SIGNATURE))
    # the bytes-keyed entry serves the same triple given as bytes
    assert verify_once(KEY.public_bytes, MESSAGE, SIGNATURE)
    assert len(raw_calls) == 1
    assert not verify_once(KEY.public_bytes, memoryview(framed)[4:-6], SIGNATURE)
    assert not verify_once(KEY.public_bytes, memoryview(framed)[5:-4], SIGNATURE)


def test_the_memo_never_holds_more_than_its_entry_bound(raw_calls):
    for i in range(MEMO_ENTRIES + 40):
        message = i.to_bytes(4, "big")
        assert verify_once(KEY.public_bytes, message, KEY.sign(message))
        assert verify_once.cache_info().currsize <= MEMO_ENTRIES
    assert verify_once.cache_info().currsize == MEMO_ENTRIES
    # the least recently used entries made room: the first message is a miss
    first = (0).to_bytes(4, "big")
    assert verify_once(KEY.public_bytes, first, KEY.sign(first))
    assert len(raw_calls) == MEMO_ENTRIES + 41


def test_a_long_message_is_verified_every_time_and_never_stored(raw_calls):
    at_cap = bytes(MEMO_MESSAGE_BYTES)
    over_cap = bytes(MEMO_MESSAGE_BYTES + 1)
    for message in (over_cap, over_cap):
        assert verify_once(KEY.public_bytes, message, KEY.sign(message))
    assert not verify_once(KEY.public_bytes, over_cap, SIGNATURE)
    assert len(raw_calls) == 3
    assert verify_once.cache_info().currsize == 0
    assert verify_once(KEY.public_bytes, at_cap, KEY.sign(at_cap))
    assert verify_once.cache_info().currsize == 1


def test_a_wrongly_sized_key_or_signature_is_never_stored(raw_calls):
    assert not verify_once(KEY.public_bytes, MESSAGE, SIGNATURE + b"\x00" * 4096)
    assert not verify_once(KEY.public_bytes + b"\x00", MESSAGE, SIGNATURE)
    assert not verify_once(KEY.public_bytes, MESSAGE, b"")
    assert verify_once.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the memo never changes a verdict or a byte
# ---------------------------------------------------------------------------

def _reports(corpus, entry_bytes, cold: bool) -> list[str]:
    reports = []
    for entry in corpus["entries"]:
        data = entry_bytes(entry)
        for policy in entry_policies(corpus["workspace"], entry, corpus["crl"]).values():
            if cold:
                verify_once.cache_clear()
            reports.append(report_to_json(validate(data, policy)))
    return reports


def test_seed_1_corpus_reports_are_identical_cold_and_warm(corpus, entry_bytes, raw_calls):
    cold = _reports(corpus, entry_bytes, cold=True)
    verify_once.cache_clear()
    raw_calls.clear()
    first = _reports(corpus, entry_bytes, cold=False)
    # one pass over the corpus under both presets verifies each triple once,
    # so the second preset repeats none of the first preset's work
    assert len(raw_calls) == len(set(raw_calls)) < MEMO_ENTRIES
    raw_calls.clear()
    warm = _reports(corpus, entry_bytes, cold=False)
    assert raw_calls == []
    assert cold == first == warm


def test_a_flipped_claim_signature_byte_is_verified_afresh(
    corpus, corpus_entry, entry_bytes, raw_calls
):
    entry = corpus_entry("bound-timestamp")
    data = entry_bytes(entry)
    policies = entry_policies(corpus["workspace"], entry, corpus["crl"])
    for policy in policies.values():
        assert validate(data, policy).verdict == Verdict.ACCEPTED

    signature = decode_manifest(extract_manifest(parse_asset(data))).claim_signature.signature
    start = data.index(signature)
    flipped = signature[:17] + bytes([signature[17] ^ 0x01]) + signature[18:]
    tampered = data[:start] + flipped + data[start + len(signature):]
    raw_calls.clear()
    for policy in policies.values():
        report = validate(tampered, policy)
        assert report.verdict == Verdict.REJECTED
        assert report.check("signature").detail == "claim signature does not verify"
    # only the changed signature reached the primitive, once: the second
    # preset over the same bytes was served the stored False
    assert [signature for _, _, signature in raw_calls] == [flipped]
