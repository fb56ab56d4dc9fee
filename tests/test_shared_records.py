"""Records read from the wire are shared, exactly and within bounds.

A map record read again from the same bytes, nested or whole, at no
greater depth than before, is the record read before (``is``-identical).
Any other bytes are read in full, so a near miss decodes to its own record
and fails as it would unshared.  The tables store records of at most
``_SHARED_BYTES`` wire bytes, at most ``_TABLE_BYTES`` of them per table,
stay consistent under concurrent reads, and no verdict or report depends on
what they hold.
"""

import sys
import threading
from dataclasses import replace

import pytest

from provlab import records
from provlab.container import extract_manifest, parse_asset
from provlab.corpus import build_corpus, entry_policies, verify_corpus
from provlab.credentials import Claim, Manifest, decode_manifest
from provlab.encoding import MAX_DEPTH, decode_value
from provlab.errors import DecodeError
from provlab.timestamp import archival_extend
from provlab.records import decode_record, encode_record, record_from_value
from provlab.trust import (
    Authority, Certificate, CertStatus, ChainStatus, ChainVerdict, Usage, verify_chain,
)
from provlab.validator import report_to_json, validate
from provlab.workspace import Workspace

FLOOD = 600


def flood_certificates(count: int, issuer: str = "flood") -> list[bytes]:
    """The wire bytes of ``count`` certificates that differ in their first 64 bytes."""
    return [
        encode_record(Certificate(
            serial, f"subject {serial}", issuer, bytes(32), 0, 1, Usage.LEAF_SIGNING, bytes(64),
        ))
        for serial in range(count)
    ]


def flood_manifests(manifest: bytes, count: int) -> list[bytes]:
    """The wire bytes of ``count`` manifests that differ in their first 64
    bytes, which hold the claim's binding digest."""
    decoded = decode_manifest(manifest)
    binding = decoded.claim.binding
    return [
        encode_record(replace(decoded, claim=replace(
            decoded.claim, binding=replace(binding, digest=n.to_bytes(32, "big")),
        )))
        for n in range(count)
    ]


def clear_tables() -> None:
    for table in records._shared_records.values():
        table.clear()


def stored(cls: type) -> list:
    """The records in the ``cls`` table, oldest first."""
    return [record for record, _ in records._shared_records[cls].values()]


def assert_tables_bounded() -> None:
    for table in records._shared_records.values():
        sizes = [len(record._wire) for record, _ in table.values()]
        assert table.held == sum(sizes) <= records._TABLE_BYTES
        assert all(size <= records._SHARED_BYTES for size in sizes)


def assert_table_full(cls: type) -> None:
    table = records._shared_records[cls]
    assert table.held > records._TABLE_BYTES - records._SHARED_BYTES


@pytest.fixture()
def signed_asset(corpus, corpus_entry, entry_bytes):
    return parse_asset(entry_bytes(corpus_entry("bound-timestamp")))


@pytest.fixture()
def signed_manifest(signed_asset):
    return extract_manifest(signed_asset)


def certificates(manifest) -> list[Certificate]:
    signature = manifest.claim_signature
    return [*signature.signer_chain, *signature.timestamp.tsa_chain]


def test_a_repeated_manifest_shares_its_certificates(corpus, signed_asset, signed_manifest):
    first, second = decode_manifest(signed_manifest), decode_manifest(signed_manifest)
    assert first is second
    # two archival-extended variants are each read in full, but not what
    # they keep of the original: the claim, its signature, the assertions
    # and the certificates
    tsa = corpus["workspace"].tsa()
    one, other = (
        decode_manifest(extract_manifest(archival_extend(signed_asset, tsa, clock=tsa.clock + n)))
        for n in (1, 2)
    )
    assert one != other
    assert one.claim is other.claim and one.claim_signature is other.claim_signature
    assert len(one.assertions) > 0
    assert all(a is b for a, b in zip(one.assertions, other.assertions, strict=True))
    pairs = list(zip(certificates(one), certificates(other)))
    assert len(pairs) == 4 and all(a is b for a, b in pairs)


def test_the_responder_serves_the_status_it_signed(corpus):
    """``status_for``, which the status service's thread calls, reads no
    record: every table stays as it was.  It serves the record it signed
    while the status holds, and that record keeps its first write."""
    signing = corpus["workspace"].signing
    # a clock no other test uses, so every status here is signed afresh
    authority = Authority(signing.key, signing.cert, signing.clock + 4321)
    authority.issued.update(signing.issued)
    authority.revoked.update(signing.revoked)
    good = next(serial for serial in authority.issued if serial not in authority.revoked)

    def tables() -> dict:
        return {cls: (dict(table), table.held) for cls, table in records._shared_records.items()}

    before = tables()
    served = [authority.status_for(serial) for serial in (next(iter(authority.revoked)), good)]
    assert [response.status for response in served] == [CertStatus.REVOKED, CertStatus.GOOD]
    for response in served:
        assert authority.status_for(response.serial) is response
        wire = encode_record(response)
        assert encode_record(response) is wire
        assert authority.status_for(response.serial) is response
    assert tables() == before


def test_a_near_miss_reads_as_its_own_certificate(corpus, signed_manifest):
    chain = decode_manifest(signed_manifest).claim_signature.signer_chain
    leaf = chain[0]
    wire = encode_record(leaf)
    flipped = wire[:-1] + bytes([wire[-1] ^ 1])  # the issuer signature's last byte
    assert flipped[: records._KEY_BYTES] == wire[: records._KEY_BYTES]
    forged = decode_record(Certificate, flipped)
    assert forged is not leaf and forged == record_from_value(Certificate, decode_value(flipped))
    assert forged.issuer_signature != leaf.issuer_signature
    assert verify_chain((forged, *chain[1:]), corpus["workspace"].trust, leaf.not_before) == (
        ChainVerdict(ChainStatus.BAD_LINK_SIGNATURE, "issuer signature invalid")
    )
    assert decode_record(Certificate, wire) == leaf
    assert_tables_bounded()  # each replaced its namesake in the count too


def test_a_cut_certificate_fails_as_unshared(signed_manifest):
    leaf = decode_manifest(signed_manifest).claim_signature.signer_chain[0]
    with pytest.raises(DecodeError) as cut:
        decode_record(Certificate, encode_record(leaf)[:64])
    assert str(cut.value) == "truncated input"


def test_a_changed_byte_reads_as_its_own_manifest(signed_manifest):
    stored = decode_manifest(signed_manifest)
    at = signed_manifest.index(stored.claim_signature.signature) + 63
    changed = bytearray(signed_manifest)
    changed[at] ^= 1
    changed = bytes(changed)
    forged = decode_record(Manifest, changed)
    assert forged is not stored and forged == record_from_value(Manifest, decode_value(changed))
    assert forged.claim_signature.signature != stored.claim_signature.signature
    assert forged.claim is stored.claim
    assert decode_record(Manifest, changed) is forged
    # the two take turns in one slot, since their first 64 bytes agree
    assert decode_record(Manifest, signed_manifest) == stored


def test_a_trailing_byte_fails_as_unshared(signed_manifest):
    decode_manifest(signed_manifest)
    longer = signed_manifest + b"\x00"
    with pytest.raises(DecodeError) as unshared:
        record_from_value(Manifest, decode_value(longer))
    assert str(unshared.value) == "trailing bytes after value"
    for _ in range(2):  # nothing was stored for it the first time
        with pytest.raises(DecodeError) as shared:
            decode_record(Manifest, longer)
        assert str(shared.value) == str(unshared.value)


class TaggedBytes(bytes):
    """A ``bytes`` subclass, which a table must neither serve nor store."""


@pytest.mark.parametrize("kind", [bytearray, memoryview, TaggedBytes])
def test_only_exact_bytes_are_shared(signed_manifest, kind):
    clear_tables()
    fresh = decode_record(Manifest, kind(signed_manifest))
    assert stored(Manifest) == []
    manifest = decode_manifest(signed_manifest)
    assert stored(Manifest) == [manifest] and manifest == fresh
    again = decode_record(Manifest, kind(signed_manifest))
    assert again is not manifest and again == manifest
    assert stored(Manifest) == [manifest]


def test_the_tables_are_bounded(signed_manifest):
    large = Certificate(1, "x" * 5000, "large", bytes(32), 0, 1, Usage.LEAF_SIGNING, bytes(64))
    assert len(encode_record(large)) > records._SHARED_BYTES
    decoded = decode_record(Certificate, encode_record(large))
    assert decoded == large and decoded not in stored(Certificate)
    for wire in flood_certificates(FLOOD):
        decode_record(Certificate, wire)
    assert_table_full(Certificate)
    decoded = decode_manifest(signed_manifest)
    wide = encode_record(replace(decoded, claim=replace(decoded.claim, generator="x" * 5000)))
    assert len(wide) > records._SHARED_BYTES
    assert decode_manifest(wide) not in stored(Manifest)
    manifests = flood_manifests(signed_manifest, FLOOD)
    for wire in manifests:
        decode_manifest(wire)
    assert_table_full(Manifest)
    table = records._shared_records[Manifest]
    assert len(table) < FLOOD and list(table)[-1] == manifests[-1][: records._KEY_BYTES]
    assert_tables_bounded()


def test_no_record_is_shared_past_the_nesting_bound(signed_manifest):
    manifest = decode_manifest(signed_manifest)
    leaf = manifest.claim_signature.signer_chain[0]
    wire = encode_record(leaf)
    read = records._record_reader(Certificate)
    assert read(wire, 0, MAX_DEPTH - 1) == (leaf, len(wire))
    assert read(wire, 0, MAX_DEPTH - 1)[0] is read(wire, 0, 0)[0]
    with pytest.raises(DecodeError, match=f"nesting deeper than {MAX_DEPTH} levels"):
        read(wire, 0, MAX_DEPTH)
    # a claim nests, so it is served at the depth it was stored at and
    # shallower, and read in full deeper
    wire = encode_record(manifest.claim)
    read = records._record_reader(Claim)
    clear_tables()
    claim = read(wire, 0, 1)[0]
    assert claim == manifest.claim and claim is not manifest.claim
    assert read(wire, 0, 1) == (claim, len(wire)) and read(wire, 0, 1)[0] is claim
    assert read(wire, 0, 0)[0] is claim
    deeper = read(wire, 0, 2)[0]
    assert deeper == claim and deeper is not claim
    assert read(wire, 0, 1)[0] is deeper
    with pytest.raises(DecodeError, match=f"nesting deeper than {MAX_DEPTH} levels"):
        read(wire, 0, MAX_DEPTH)


def test_concurrent_reads_past_the_bound():
    """``validate`` may run on several threads at once, so threads (more of
    them than cores, switching often) fill and evict one table at once."""
    clear_tables()
    start = threading.Barrier(4)
    failures = []

    def read_all(issuer: str) -> None:
        wires = flood_certificates(FLOOD, issuer)
        start.wait()
        try:
            for wire in wires:
                assert encode_record(decode_record(Certificate, wire)) == wire
        except Exception as exc:  # a failure in a thread fails the test here
            failures.append(exc)

    threads = [threading.Thread(target=read_all, args=(f"issuer {i}",)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    table = records._shared_records[Certificate]
    # a lost update would miscount or overfill the table, or file a record
    # under another's key
    assert_table_full(Certificate)
    assert all(key == record._wire[: records._KEY_BYTES] for key, (record, _) in table.items())
    assert_tables_bounded()


def test_validation_does_not_depend_on_process_history(corpus, signed_manifest, tmp_path_factory):
    """Every seed-1 entry under both presets gives the same report with the
    tables cleared, warm, and full of other workspaces' records."""
    workspace = corpus["workspace"]

    def reports() -> list[str]:
        out = []
        for entry in corpus["entries"]:
            data = (workspace.root / entry.path).read_bytes()
            for policy in entry_policies(workspace, entry, corpus["crl"]).values():
                out.append(report_to_json(validate(data, policy)))
        return out

    clear_tables()
    cold = reports()
    assert len(cold) == 2 * 21
    assert reports() == cold
    for seed in (2, 3):
        other = Workspace.initialize(tmp_path_factory.mktemp(f"ws{seed}"), seed=seed)
        build_corpus(other)
        assert verify_corpus(other) == []
    for wire in flood_certificates(FLOOD):
        decode_record(Certificate, wire)
    for wire in flood_manifests(signed_manifest, FLOOD):
        decode_manifest(wire)
    assert reports() == cold
