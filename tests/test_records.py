"""Compiled record writers against the value path they replace.

``encode_value(record_value(record, omit))``, with ``record_value`` the
value encoder kept in ``reference_records``, is how records were encoded
before each class got a compiled writer; it stays the reference for the
bytes, and for the JSON forms that are now read back from those bytes.
Every record class the seeded workspace and corpus produce is checked,
whole and, for a signed class, as its ``signed_bytes``.
"""

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, replace
from enum import Enum

import pytest
from reference_records import record_value as reference_record_value

from provlab import encoding
from provlab import records as record_codec
from provlab.container import ByteRange, extract_manifest, parse_asset, serialize_asset
from provlab.corpus import CorpusEntry, entry_policies
from provlab.credentials import Claim, Manifest, Redaction, decode_manifest, redact_assertion
from provlab.crypto import derive_signing_key
from provlab.encoding import encode_value
from provlab.errors import DecodeError, EncodeError
from provlab.records import (
    decode_record, encode_record, record_value, sign_record, signed_bytes, verify_record,
)
from provlab.signer import SCENARIOS, build_scenario_content, scenario_signer, sign_asset
from provlab.timestamp import TimestampAuthority, TimestampToken
from provlab.trust import CertStatus, Certificate, RevocationList, StatusResponse, Usage
from provlab.validator import (
    REPORT_SCHEMA, ValidationReport, Verdict, report_to_json, validate,
)

# the fields each signed payload leaves out
SIGNED_PAYLOAD_OMITS = {
    "Certificate": ("issuer_signature",),
    "RevocationList": ("signature",),
    "TimestampToken": ("tsa_chain", "tsa_signature"),
    "StatusResponse": ("responder_signature",),
    "Redaction": ("signer_chain", "signature"),
}


def _seeded_records(corpus) -> list:
    workspace = corpus["workspace"]
    records: list = [corpus["crl"], *workspace.trust.anchors]
    for entry in corpus["entries"]:
        data = (workspace.root / entry.path).read_bytes()
        records.append(entry)
        policies = entry_policies(workspace, entry, corpus["crl"])
        records += [validate(data, policy) for policy in policies.values()]
        asset = parse_asset(data)
        if asset.find_manifest() is None:
            continue
        manifest = decode_manifest(extract_manifest(asset))
        records += [manifest, manifest.claim, *manifest.assertions, manifest.claim_signature]
        records += manifest.claim.binding.exclusions
        signature = manifest.claim_signature
        records += signature.signer_chain
        if signature.timestamp is not None:
            records += [signature.timestamp, *signature.timestamp.tsa_chain]
        for redaction in manifest.redaction_signatures:
            records += [redaction, *redaction.signer_chain]
        records += manifest.archival_tokens
    # no corpus entry holds a redaction, so the last seeded manifest gets one
    redacted = redact_assertion(manifest, manifest.assertions[0].label, workspace.redactor)
    records += [redacted, *redacted.redaction_signatures]
    records += decode_record(Manifest, encode_record(redacted)).redaction_signatures
    revoked = next(iter(workspace.signing.revoked))
    records += [
        workspace.signing.status_for(serial)
        for serial in (revoked, workspace.device.chain[0].serial, 999_999)
    ]
    return records


@pytest.fixture(scope="module")
def seeded_records(corpus):
    return _seeded_records(corpus)


def fresh_copy(value):
    """``value`` rebuilt field for field, nested records included, so no
    record in it keeps the bytes it was decoded from."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value)(*[fresh_copy(getattr(value, f.name)) for f in fields])
    if type(value) is tuple:
        return tuple(fresh_copy(item) for item in value)
    return value


def has_wire(record) -> bool:
    return record_codec._WIRE in vars(record)


def test_every_record_class_is_covered(seeded_records):
    names = {type(record).__name__ for record in seeded_records}
    assert names >= {
        "Certificate", "RevocationList", "TimestampToken", "Assertion", "Claim",
        "ClaimSignature", "Redaction", "Manifest", "StatusResponse", "ValidationReport",
        "CorpusEntry", "ByteRange",
    }
    statuses = {r.status.name for r in seeded_records if type(r).__name__ == "StatusResponse"}
    assert statuses == {"GOOD", "REVOKED", "UNKNOWN"}
    assert any(r.binding.exclusions for r in seeded_records if type(r) is Claim)


def test_compiled_writer_matches_value_path(seeded_records):
    """Decoded records and field-for-field copies of them alike, so the
    writers run for every class and not only the stored bytes are read."""
    for record in seeded_records:
        name = type(record).__name__
        reference = encode_value(reference_record_value(record))
        assert encode_record(record) == reference, name
        assert encode_record(fresh_copy(record)) == reference
        if name in SIGNED_PAYLOAD_OMITS:
            reference = encode_value(reference_record_value(record, SIGNED_PAYLOAD_OMITS[name]))
            assert signed_bytes(record) == reference, name
            assert signed_bytes(fresh_copy(record)) == reference


def _record_classes(*roots) -> list[type]:
    """Every record class reachable through the field types of ``roots``."""
    found: dict[type, None] = {}

    def visit(hint):
        for arg in typing.get_args(hint):
            visit(arg)
        if dataclasses.is_dataclass(hint) and hint not in found:
            found[hint] = None
            for field_hint in typing.get_type_hints(hint).values():
                visit(field_hint)

    for root in roots:
        visit(root)
    return list(found)


def _unsigned_samples(public_key: bytes) -> list:
    """One record of each signed class, with an empty signature."""
    cert = Certificate(7, "root", "root", public_key, 0, 1, Usage.ROOT, b"")
    return [
        cert,
        RevocationList("root", 0, ((3, 0), (5, 1)), b""),
        TimestampToken(b"\x11" * 32, 0, (cert,), b""),
        StatusResponse(3, CertStatus.REVOKED, 0, 1, b""),
        Redaction("label", b"\x22" * 32, (cert,), b""),
    ]


def _changed(value):
    """``value`` with one byte, digit or member changed."""
    if isinstance(value, Enum):
        return next(member for member in type(value) if member is not value)
    if type(value) is bytes:
        return bytes([value[0] ^ 1]) + value[1:]
    if type(value) is str:
        return value + "x"
    if type(value) is tuple:
        return value[1:]
    return value + 1


def test_each_signed_record_declares_what_its_signature_leaves_out():
    """``UNSIGNED`` is the one statement of what a signature covers: each
    signed class declares it as a plain class constant naming its own
    fields, exactly as ``SIGNED_PAYLOAD_OMITS`` says, with the signature
    last, and no other record class declares one.  ``verify_record`` accepts
    what ``sign_record`` signed, refuses it with one signature byte or one
    signed field changed, and ignores a change to any other field it leaves
    out (a chain)."""
    roots = (Manifest, StatusResponse, RevocationList, ValidationReport, CorpusEntry)
    classes = _record_classes(*roots)
    assert {cls.__name__ for cls in classes} >= set(SIGNED_PAYLOAD_OMITS) | {"Claim", "ByteRange"}
    for cls in classes:
        assert getattr(cls, "UNSIGNED", None) == SIGNED_PAYLOAD_OMITS.get(cls.__name__), cls
        fields = {field.name for field in dataclasses.fields(cls)}
        assert "UNSIGNED" not in fields and set(getattr(cls, "UNSIGNED", ())) < fields
    key = derive_signing_key(5, "records")
    samples = _unsigned_samples(key.public_bytes)
    assert sorted(type(sample).__name__ for sample in samples) == sorted(SIGNED_PAYLOAD_OMITS)
    for unsigned in samples:
        *left_out, signature = type(unsigned).UNSIGNED
        assert signature.endswith("signature") and not getattr(unsigned, signature)
        signed = sign_record(unsigned, key)
        assert signed == replace(unsigned, **{signature: getattr(signed, signature)})
        assert verify_record(signed, key.public_bytes), signed
        forged = replace(signed, **{signature: _changed(getattr(signed, signature))})
        assert not verify_record(forged, key.public_bytes), forged
        for field in dataclasses.fields(signed):
            value = getattr(signed, field.name)
            if field.name in left_out:
                assert verify_record(replace(signed, **{field.name: ()}), key.public_bytes)
            elif field.name != signature and value is not None:
                changed = replace(signed, **{field.name: _changed(value)})
                assert not verify_record(changed, key.public_bytes), (field.name, changed)


def test_json_forms_match_value_path(seeded_records):
    """Reports and corpus index entries give the same JSON read back from
    their bytes as the value encoder gave."""
    records = [r for r in seeded_records if type(r) in (ValidationReport, CorpusEntry)]
    assert len(records) == 3 * 21  # per corpus entry: a report per preset, an index entry
    for record in records:
        ours = json.dumps(record_value(record), sort_keys=True)
        assert ours == json.dumps(reference_record_value(record), sort_keys=True)


def test_json_forms_are_record_values(corpus, seeded_records):
    """A structured report is its record's value plus ``schema``, and each
    ``index.json`` entry is its :class:`CorpusEntry`'s value, with
    ``attack`` ``"none"`` for an honest entry."""
    reports = [r for r in seeded_records if type(r) is ValidationReport]
    assert len(reports) == 2 * len(corpus["entries"])
    for report in reports:
        value = json.loads(report_to_json(report))
        assert value.pop("schema") == REPORT_SCHEMA
        assert value == record_value(report)
    index = json.loads((corpus["workspace"].corpus_dir / "index.json").read_text())
    assert index["entries"] == [record_value(entry) for entry in corpus["entries"]]
    honest = [entry for entry in corpus["entries"] if "--" not in entry.path]
    assert len(honest) == 6 and {entry.attack for entry in honest} == {"none"}


def test_compiled_writer_round_trips(seeded_records):
    for record in seeded_records:
        assert decode_record(type(record), encode_record(record)) == record


def test_a_whole_byte_range_is_its_array():
    """A :class:`ByteRange` has one shape, whole or nested: ``[start, length]``."""
    wire = encode_record(ByteRange(3, 4))
    assert wire == encode_value([3, 4]) and record_value(ByteRange(3, 4)) == [3, 4]
    assert decode_record(ByteRange, wire) == ByteRange(3, 4)


def test_out_of_range_field_fails_as_before(seeded_records):
    claim = next(r for r in seeded_records if type(r) is Claim)
    too_late = replace(claim, created_at=2**64)
    with pytest.raises(EncodeError) as reference:
        encode_value(reference_record_value(too_late))
    with pytest.raises(EncodeError) as compiled:
        encode_record(too_late)
    with pytest.raises(EncodeError) as json_form:
        record_value(too_late)
    message = f"integer too large: {2**64}"
    assert str(compiled.value) == str(reference.value) == str(json_form.value) == message


@pytest.mark.parametrize("inner", [ByteRange, CertStatus], ids=["record", "enum"])
def test_a_fixed_tuple_holds_scalars_only(inner):
    @dataclass(frozen=True)
    class Holder:
        pair: tuple[int, inner]

    with pytest.raises(TypeError, match="fixed tuple field must hold scalars only"):
        encode_record(Holder((1, None)))


def test_decoded_records_encode_as_a_fresh_copy(seeded_records):
    """A decoded record's stored bytes are what the compiled writers give
    for the same fields."""
    decoded = [record for record in seeded_records if has_wire(record)]
    assert {type(record).__name__ for record in decoded} >= {
        "Certificate", "RevocationList", "TimestampToken", "Assertion", "Claim",
        "ClaimSignature", "Redaction", "Manifest", "StatusResponse",
    }
    for record in decoded:
        copy = fresh_copy(record)
        assert not has_wire(copy) and copy == record
        assert encode_record(record) == encode_record(copy), type(record).__name__


def built_children(record):
    """The map records nested in ``record``'s fields, at any depth."""
    for field in dataclasses.fields(record):
        items = getattr(record, field.name)
        for item in items if type(items) is tuple else (items,):
            if dataclasses.is_dataclass(item) and type(item) is not ByteRange:
                yield item
                yield from built_children(item)


def test_a_built_record_keeps_its_first_write(seeded_records):
    """The write-once rule holds for built records as for decoded ones: a
    whole write leaves the record holding the bytes it gave, each built
    record nested in it holding its own, while ``signed_bytes`` stores no
    whole slice and ``replace`` builds a record without one."""
    by_class = {}
    for record in seeded_records:
        if type(record) is not ByteRange:
            by_class.setdefault(type(record), record)
    assert len(by_class) == 11
    children = 0
    for cls, record in by_class.items():
        if cls.__name__ in SIGNED_PAYLOAD_OMITS:
            copy = fresh_copy(record)
            signed_bytes(copy)
            assert not has_wire(copy), cls.__name__
        copy = fresh_copy(record)
        assert not has_wire(copy)
        wire = encode_record(copy)
        assert wire == encode_value(reference_record_value(copy)), cls.__name__
        assert vars(copy)[record_codec._WIRE] == wire
        for child in built_children(copy):
            assert vars(child)[record_codec._WIRE] == encode_value(reference_record_value(child))
            children += 1
        assert not has_wire(replace(copy))
    assert children > 10


def write_value_calls(action):
    """``action()`` and the number of :func:`~.encoding.write_value` calls it made."""
    code = encoding.write_value.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = action()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_a_second_signing_writes_no_certificate(corpus, corpus_entry, entry_bytes):
    """Signing the same content twice with one configuration gives the
    corpus bytes both times.  The first signing leaves every certificate in
    both chains holding its bytes, so the second writes only what is new to
    it: the claim, the claim signature, the tokens and the manifest."""
    scenario = SCENARIOS["bound-timestamp"]
    workspace = corpus["workspace"]
    asset, assertions, generator = build_scenario_content(scenario, workspace.seed)
    config = scenario_signer(workspace, scenario, generator)
    tsa = config.tsa
    config = replace(
        config,
        chain=fresh_copy(config.chain),
        tsa=TimestampAuthority(tsa.key, fresh_copy(tsa.chain), tsa.clock),
    )
    certificates = config.chain + config.tsa.chain
    assert not any(has_wire(cert) for cert in certificates)
    first, first_calls = write_value_calls(lambda: sign_asset(asset, assertions, config))
    assert all(has_wire(cert) for cert in certificates)
    second, second_calls = write_value_calls(lambda: sign_asset(asset, assertions, config))
    expected = entry_bytes(corpus_entry("bound-timestamp"))
    assert serialize_asset(first) == serialize_asset(second) == expected
    # the first signing writes both chains' certificates, the second none
    assert (first_calls, second_calls) == (76, 38)


def test_a_replaced_record_encodes_its_new_fields(seeded_records):
    manifest = next(r for r in seeded_records if type(r) is Manifest and has_wire(r))
    claim = replace(manifest.claim, generator="re-stamped")
    changed = replace(manifest, claim=claim, assertions=manifest.assertions[1:])
    assert not has_wire(claim) and not has_wire(changed)
    assert encode_record(claim) == encode_value(reference_record_value(claim))
    wire = encode_record(changed)
    assert wire == encode_value(reference_record_value(changed)) != encode_record(manifest)
    again = decode_record(Manifest, wire)
    assert again.claim.generator == "re-stamped" and again == changed


def test_validation_writes_only_signed_payloads(corpus, corpus_entry, entry_bytes, monkeypatch):
    """A second hardened validation of the same bytes writes nothing and
    reads no certificate in full: its manifest is the one the first read,
    whose token and certificates hold their signed payloads, and the
    policy's CRL holds its payload, so no compiled writer runs."""
    entry = corpus_entry("bound-timestamp")
    data = entry_bytes(entry)
    policy = entry_policies(corpus["workspace"], entry, corpus["crl"])["hardened"]
    assert validate(data, policy).verdict is Verdict.ACCEPTED  # every writer compiled
    writer = record_codec._record_writer
    seen = []
    certificates_built = []

    def counting_writer(cls, omit):
        seen.append((cls.__name__, omit))
        return writer(cls, omit)

    def counting_check(cert):
        certificates_built.append(cert.serial)

    monkeypatch.setattr(record_codec, "_record_writer", counting_writer)
    monkeypatch.setattr(Certificate, "__post_init__", counting_check)
    assert validate(data, policy).verdict is Verdict.ACCEPTED
    assert seen == []
    assert certificates_built == []


@pytest.mark.parametrize("status", [False, True], ids=["false", "true"])
def test_an_enum_field_refuses_a_bool(status):
    """``False`` and ``True`` hash as 0 and 1, the values of GOOD and REVOKED;
    read as those, a second byte string would decode to each response."""
    response = StatusResponse(7, CertStatus.REVOKED, 3, 4, b"")
    data = encode_value({**record_value(response), "status": status})
    with pytest.raises(DecodeError) as refused:
        decode_record(StatusResponse, data)
    assert str(refused.value) == "CertStatus value has the wrong type"


def test_a_text_keyed_map_field_refuses_other_keys(corpus_entry):
    entry = corpus_entry("bound-timestamp")
    data = encode_value({**record_value(entry), "expected": {1: "ACCEPTED"}})
    with pytest.raises(DecodeError) as refused:
        decode_record(CorpusEntry, data)
    assert str(refused.value) == "expected a map with text keys"
