"""Validation: check order, verdict logic, policy knobs, rendering."""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

from provlab.container import (
    MAGIC,
    ByteRange,
    SegmentKind,
    build_asset,
    embed_manifest,
    extract_manifest,
    parse_asset,
    serialize_asset,
    splice_bytes,
    strip_manifest,
)
from provlab.corpus import entry_policies
from provlab.credentials import (
    Assertion,
    BindingMode,
    Redaction,
    decode_manifest,
    digest_assertion,
    encode_manifest,
    redact_assertion,
)
from provlab.encoding import decode_value, encode_value
from provlab.errors import DecodeError, ProvenanceError
from provlab.records import signed_bytes
from provlab.container import compute_hard_binding, replace_manifest
from provlab import crypto, validator
from provlab.crypto import derive_signing_key, verify_once
from provlab.signer import (
    DEFAULT_VALIDATION_TIME,
    SCENARIOS,
    build_scenario_content,
    make_fixture,
    scenario_signer,
    sign_asset,
)
from provlab.statusservice import run_status_service
from provlab.timestamp import TimestampAuthority, archival_extend
from provlab.trust import Certificate, TrustList, Usage, issue_certificate
from provlab.validator import (
    _POLICY_PARSERS,
    _derive_goals,
    _effective_exclusions,
    GOAL_NAMES,
    CheckOutcome,
    CheckResult,
    DisplayedTime,
    FileIntegrity,
    GoalStatus,
    RevocationMode,
    TimeProvenance,
    TimestampRule,
    ValidationPolicy,
    Verdict,
    exit_code_for,
    hardened_policy,
    parse_endpoint,
    parse_policy_text,
    parse_time,
    render_differential,
    render_report,
    report_from_json,
    report_to_json,
    spec_policy,
    validate,
    validate_differential,
)
from provlab.workspace import DAY, T0, YEAR, Workspace
from test_acceptance import Budget, criterion_7_inputs


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    return Workspace.initialize(tmp_path_factory.mktemp("valws"), seed=21)


@pytest.fixture(scope="module")
def fixtures(lab):
    return {name: make_fixture(lab, name) for name in SCENARIOS}


def spec_at(lab, at=DEFAULT_VALIDATION_TIME):
    return spec_policy(lab.trust, at)


def hardened_at(lab, at=DEFAULT_VALIDATION_TIME):
    return hardened_policy(lab.trust, at, crl=lab.signing.generate_crl())


def b(asset):
    return serialize_asset(asset)


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------

# the eleven checks, in the order README lists them and every report holds them
REPORTED_CHECKS = (
    "parse", "manifest-decode", "spec-version", "assertion-digests", "hard-binding",
    "exclusion-audit", "chain", "signature", "revocation", "timestamp", "redaction-audit",
)


def test_every_check_always_reported(lab, fixtures):
    for data in (b(fixtures["honest"]), b"garbage", b""):
        report = validate(data, spec_at(lab))
        assert tuple(r.name for r in report.checks) == REPORTED_CHECKS


def test_each_reported_check_is_a_constructed_result(lab, fixtures):
    """The walk stores each result's fields itself; they behave as the
    constructor's do, for a PASS, a FAIL and a SKIPPED result alike."""
    for data in (b(fixtures["honest"]), b"garbage"):
        for result in validate(data, spec_at(lab)).checks:
            twin = CheckResult(result.name, result.outcome, result.detail)
            assert result == twin and hash(result) == hash(twin) and repr(result) == repr(twin)
            assert vars(result) == vars(twin) and dataclasses.replace(result) == twin
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.detail = ""


def test_gates_pin_skipped_details(corpus, corpus_entry, entry_bytes):
    # exclusion-audit and revocation test the policy before the manifest
    def expected(parse, decode, policy_off):
        rows = dict.fromkeys(REPORTED_CHECKS, ("SKIPPED", "no manifest"))
        rows["parse"], rows["manifest-decode"] = parse, decode
        if policy_off:
            rows["exclusion-audit"] = ("SKIPPED", "weak integrity honours declared exclusions")
            rows["revocation"] = ("SKIPPED", "revocation not checked")
        return [(name, *row) for name, row in rows.items()]

    entry = corpus_entry("honest", "strip-manifest")
    stripped = (("PASS", "4 segments"), ("FAIL", "no manifest segment"))
    garbage = (("FAIL", "bad magic"), ("SKIPPED", "no parsed asset"))
    policies = entry_policies(corpus["workspace"], entry, corpus["crl"])
    for data, (parse, decode) in ((entry_bytes(entry), stripped), (b"garbage", garbage)):
        for preset, policy in policies.items():
            report = validate(data, policy)
            got = [(r.name, r.outcome.value, r.detail) for r in report.checks]
            assert got == expected(parse, decode, preset == "spec"), preset


def test_honest_fixture_accepted(lab, fixtures):
    report = validate(b(fixtures["honest"]), spec_at(lab))
    assert report.verdict == Verdict.ACCEPTED
    assert exit_code_for(report) == 0
    assert report.generator == "labcam-honest"
    assert report.claimed_created_at == T0
    assert report.goals["G1"] == GoalStatus.HELD
    assert report.goals["G2"] == GoalStatus.HELD


def test_a_zero_length_segment_fails_the_parse_check(lab):
    """A segment head that declares no payload is refused by the parse
    check by name, not by the catch-all."""
    wire = MAGIC + bytes((SegmentKind.HEADER, 6)) + b"header" + bytes(4)
    report = validate(wire, hardened_at(lab))
    assert report.verdict == Verdict.UNVERIFIABLE and report.malformed
    parse = report.check("parse")
    assert (parse.outcome, parse.detail) == (CheckOutcome.FAIL, "empty segment payload")


def test_an_unknown_report_format_is_refused(lab, fixtures):
    report = validate(b(fixtures["honest"]), spec_at(lab))
    with pytest.raises(ValueError) as refused:
        render_report(report, "xml")
    assert str(refused.value) == "unknown report format 'xml'"


def test_garbage_is_malformed_unverifiable(lab):
    report = validate(b"\x00\x01\x02", spec_at(lab))
    assert report.verdict == Verdict.UNVERIFIABLE
    assert report.malformed
    assert exit_code_for(report) == 4
    assert report.check("parse").outcome == CheckOutcome.FAIL


def test_manifestless_asset_is_unverifiable_not_malformed(lab, fixtures):
    from provlab.container import strip_manifest

    stripped = serialize_asset(strip_manifest(fixtures["honest"]))
    report = validate(stripped, spec_at(lab))
    assert report.verdict == Verdict.UNVERIFIABLE
    assert not report.malformed
    assert exit_code_for(report) == 3
    assert report.check("manifest-decode").outcome == CheckOutcome.FAIL
    # downstream checks are reported as skipped, not omitted
    assert report.check("signature").outcome == CheckOutcome.SKIPPED


def test_garbage_manifest_payload_is_malformed(lab, fixtures):
    for payload in (b"\xffnot a manifest", b"\x81" * 5000 + b"\x00"):
        mangled = replace_manifest(fixtures["honest"], payload)
        report = validate(serialize_asset(mangled), spec_at(lab))
        assert report.verdict == Verdict.UNVERIFIABLE
        assert report.malformed
        assert exit_code_for(report) == 4
        assert report.check("manifest-decode").outcome == CheckOutcome.FAIL


def test_unknown_token_field_is_malformed(lab, fixtures):
    """An extra key in a bound token's map is refused, not dropped on decode."""
    signed = fixtures["bound-timestamp"]
    record = decode_value(extract_manifest(signed))
    record["claim_signature"]["timestamp"]["padding"] = bytes(140)
    mangled = serialize_asset(replace_manifest(signed, encode_value(record)))
    for policy in (spec_at(lab), hardened_at(lab)):
        report = validate(mangled, policy)
        assert exit_code_for(report) == 4
        assert report.check("manifest-decode").outcome == CheckOutcome.FAIL
        assert not any(r.detail.startswith("unexpected") for r in report.checks)


def test_covered_byte_flip_rejected(lab, fixtures):
    signed = fixtures["honest"]
    image = signed.find_label("image")
    flipped = splice_bytes(
        signed,
        ByteRange(image.range.start, 1),
        bytes([signed.data[image.range.start] ^ 0x80]),
    )
    report = validate(serialize_asset(flipped), spec_at(lab))
    assert report.verdict == Verdict.REJECTED
    assert report.check("hard-binding").outcome == CheckOutcome.FAIL
    assert report.goals["G2"] == GoalStatus.VIOLATED
    assert exit_code_for(report) == 2


def test_exclusions_follow_the_archival_growth_of_the_manifest(lab, fixtures):
    signed = fixtures["gps-excluded"]
    declared = decode_manifest(extract_manifest(signed)).claim.binding.exclusions
    anchor = signed.find_manifest().range
    extended = archival_extend(signed, lab.tsa(), clock=T0 + DAY)
    grown = extended.find_manifest()
    delta = grown.range.length - anchor.length
    gps = extended.find_label("meta.gps").range
    assert delta > 0 and gps.start >= grown.range.end
    effective = _effective_exclusions(declared, grown)
    assert effective == (grown.range, gps)
    assert ByteRange(gps.start - delta, gps.length) in declared
    # an anchor declared twice maps to the grown manifest twice, which overlaps
    doubled = _effective_exclusions(declared + (anchor,), grown)
    assert doubled == (grown.range, grown.range, gps)
    with pytest.raises(ProvenanceError, match="overlap"):
        compute_hard_binding(extended, doubled)


def test_rejected_dominates_unverifiable(lab, fixtures):
    """Tampered AND expired: the louder verdict wins."""
    signed = fixtures["honest"]
    image = signed.find_label("image")
    flipped = splice_bytes(
        signed,
        ByteRange(image.range.start, 1),
        bytes([signed.data[image.range.start] ^ 0x80]),
    )
    report = validate(serialize_asset(flipped), spec_at(lab, T0 + 5 * YEAR))
    assert report.check("chain").outcome == CheckOutcome.FAIL
    assert report.check("hard-binding").outcome == CheckOutcome.FAIL
    assert report.verdict == Verdict.REJECTED


def test_expired_is_unverifiable_under_spec_policy(lab, fixtures):
    report = validate(b(fixtures["short-lived-cert"]), spec_at(lab, T0 + YEAR))
    assert report.check("chain").outcome == CheckOutcome.FAIL
    assert report.verdict == Verdict.UNVERIFIABLE
    assert exit_code_for(report) == 3


def test_archival_bridge_recovers_expired_chain(lab, fixtures):
    extended = archival_extend(
        fixtures["short-lived-cert"], lab.tsa(), clock=T0 + 15 * DAY
    )
    data = serialize_asset(extended)
    hardened = validate(data, hardened_at(lab, T0 + YEAR))
    assert hardened.check("chain").outcome == CheckOutcome.PASS
    assert hardened.verdict == Verdict.ACCEPTED
    # same bytes under the spec preset stay unverifiable
    spec = validate(data, spec_at(lab, T0 + YEAR))
    assert spec.verdict == Verdict.UNVERIFIABLE


def test_bridge_requires_signing_chain_valid_at_first_token(lab, fixtures):
    # token minted after the 30-day leaf already expired: bridge must fail
    extended = archival_extend(
        fixtures["short-lived-cert"], lab.tsa(), clock=T0 + 60 * DAY
    )
    report = validate(serialize_asset(extended), hardened_at(lab, T0 + YEAR))
    assert report.check("chain").outcome == CheckOutcome.FAIL
    assert report.verdict == Verdict.UNVERIFIABLE


def _second_tsa(clock):
    """A TSA under a root of its own; both certificates run to T0 + 20 years."""
    name = "second tsa root"
    root_key, leaf_key = (derive_signing_key(23, role) for role in ("tsa-root-2", "tsa-leaf-2"))

    def cert(serial, subject, key, usage):
        return Certificate(
            serial=serial, subject=subject, issuer=name, public_key=key.public_bytes,
            not_before=T0, not_after=T0 + 20 * YEAR, usage=usage, issuer_signature=b"",
        )

    root = issue_certificate(root_key, cert(1, name, root_key, Usage.ROOT))
    leaf = issue_certificate(root_key, cert(2, "second tsa", leaf_key, Usage.LEAF_TSA), root)
    return TimestampAuthority(leaf_key, (leaf, root), clock), root


# what each case reaches in ``_archival_bridge``: the later token anchors the
# first (``anchored and verify_chain(..., tokens[index + 1].gen_time)``); the
# later token fails ``verify_token`` against its prefix digest; ``if not anchored``
@pytest.mark.parametrize(
    "second_token, second_root_trusted",
    [(True, True), (True, False), (False, False)],
    ids=["anchored-by-a-later-token", "later-token-does-not-verify", "no-token-anchored"],
)
def test_archival_bridge_at_t0_plus_16_years(lab, fixtures, second_token, second_root_trusted):
    """The workspace TSA's leaf ran out at T0 + 15 years, the short-lived
    signing leaf after 30 days.  Only a token from a TSA still valid now, which
    attests a time when the first TSA was valid, bridges the signing chain."""
    asset = archival_extend(fixtures["short-lived-cert"], lab.tsa(), clock=T0 + 15 * DAY)
    tsa, second_root = _second_tsa(T0 + 14 * YEAR)
    if second_token:
        asset = archival_extend(asset, tsa)
    anchors = lab.trust.anchors + ((second_root,) if second_root_trusted else ())
    policy = hardened_policy(TrustList(anchors), T0 + 16 * YEAR, crl=lab.signing.generate_crl())
    report = validate(b(asset), policy)
    chain = report.check("chain")
    if second_root_trusted:
        # the first token's chain, expired now, is anchored by the later one;
        # 1736985600 is T0 + 15 days
        assert (report.verdict, chain.outcome) == (Verdict.ACCEPTED, CheckOutcome.PASS)
        assert chain.detail == (
            "expired chain bridged by 2 archival token(s); signing chain valid at 1736985600"
        )
    else:
        # untrusted later root: its token fails against its prefix digest;
        # a lone first token: its chain expired and nothing later anchors it;
        # leaf 104 is short-lived-cert's, 2240265600 is T0 + 16 years
        assert (report.verdict, chain.outcome) == (Verdict.UNVERIFIABLE, CheckOutcome.FAIL)
        assert chain.detail == "certificate 104 outside validity window at 2240265600"


def test_an_older_token_anchored_by_its_own_tsa_after_a_newer_one_that_is_not(lab, fixtures):
    """The newer token's TSA ran out at T0 + 15 years, so at T0 + 16 years it
    anchors nothing; the older token's own TSA is still valid and anchors it
    anew, so the walk must let ``anchored`` turn true again."""
    second, second_root = _second_tsa(T0 + 15 * DAY)
    asset = archival_extend(fixtures["short-lived-cert"], second)
    asset = archival_extend(asset, lab.tsa(), clock=T0 + YEAR)
    policy = hardened_policy(
        TrustList(lab.trust.anchors + (second_root,)), T0 + 16 * YEAR,
        crl=lab.signing.generate_crl(),
    )
    report = validate(b(asset), policy)
    chain = report.check("chain")
    assert (report.verdict, chain.outcome) == (Verdict.ACCEPTED, CheckOutcome.PASS)
    # 1736985600 is T0 + 15 days
    assert chain.detail == (
        "expired chain bridged by 2 archival token(s); signing chain valid at 1736985600"
    )


def test_archival_token_order_matters(lab, fixtures):
    """Each token imprints the manifest before it, so the same two tokens in
    the other order bridge nothing."""
    asset = archival_extend(fixtures["short-lived-cert"], lab.tsa(), clock=T0 + 15 * DAY)
    asset = archival_extend(asset, lab.tsa(), clock=T0 + 20 * DAY)
    report = validate(b(asset), hardened_at(lab, T0 + YEAR))
    assert (report.verdict, report.check("chain").outcome) == (
        Verdict.ACCEPTED, CheckOutcome.PASS
    )
    manifest = decode_manifest(extract_manifest(asset))
    swapped = dataclasses.replace(manifest, archival_tokens=manifest.archival_tokens[::-1])
    report = validate(
        b(replace_manifest(asset, encode_manifest(swapped))), hardened_at(lab, T0 + YEAR)
    )
    chain = report.check("chain")
    assert (report.verdict, chain.outcome) == (Verdict.UNVERIFIABLE, CheckOutcome.FAIL)
    # leaf 104 is short-lived-cert's, 1767225600 is T0 + 1 year
    assert chain.detail == "certificate 104 outside validity window at 1767225600"


def test_displayed_time_provenance(lab, fixtures):
    unbound = validate(b(fixtures["unbound-timestamp"]), spec_at(lab))
    assert unbound.displayed_time.provenance == TimeProvenance.UNBOUND_TOKEN
    assert unbound.displayed_time.epoch == T0
    assert unbound.goals["G3"] == GoalStatus.VIOLATED

    bound = validate(b(fixtures["bound-timestamp"]), spec_at(lab))
    assert bound.displayed_time.provenance == TimeProvenance.SIGNED
    assert bound.displayed_time.epoch == T0
    assert bound.goals["G3"] == GoalStatus.HELD

    from provlab.container import strip_manifest

    stripped = validate(
        serialize_asset(strip_manifest(fixtures["honest"])), spec_at(lab)
    )
    assert stripped.displayed_time.provenance == TimeProvenance.ABSENT


def _without_token(data: bytes) -> bytes:
    # signing always fetches a token, so only outside input carries none
    asset = parse_asset(data)
    manifest = decode_manifest(extract_manifest(asset))
    token_less = dataclasses.replace(
        manifest, claim_signature=dataclasses.replace(manifest.claim_signature, timestamp=None)
    )
    return serialize_asset(replace_manifest(asset, encode_manifest(token_less)))


def test_token_less_manifest(corpus, corpus_entry, entry_bytes):
    entry = corpus_entry("honest")
    data = _without_token(entry_bytes(entry))
    policies = entry_policies(corpus["workspace"], entry, corpus["crl"])

    spec = validate(data, policies["spec"])
    assert spec.verdict == Verdict.ACCEPTED
    timestamp = spec.check("timestamp")
    assert (timestamp.outcome, timestamp.detail) == (CheckOutcome.SKIPPED, "no timestamp token")
    assert spec.goals["G3"] == GoalStatus.NOT_EVALUATED
    assert spec.displayed_time.provenance == TimeProvenance.ABSENT

    hardened = validate(data, policies["hardened"])
    assert hardened.verdict == Verdict.REJECTED
    timestamp = hardened.check("timestamp")
    assert (timestamp.outcome, timestamp.detail) == (CheckOutcome.FAIL, "no timestamp token")
    assert hardened.goals["G3"] == GoalStatus.VIOLATED


def test_render_tags_time_provenance(lab, fixtures, corpus, corpus_entry, entry_bytes):
    unbound = render_report(validate(b(fixtures["unbound-timestamp"]), spec_at(lab)))
    assert "(unverified time)" in unbound
    bound = render_report(validate(b(fixtures["bound-timestamp"]), spec_at(lab)))
    assert "(signed time)" in bound
    # a bare date never appears on the signed-time line
    for text in (unbound, bound):
        line = next(l for l in text.splitlines() if l.startswith("signed time:"))
        assert "(" in line and line.rstrip().endswith(")")

    def time_lines(entry, data):
        policies = entry_policies(corpus["workspace"], entry, corpus["crl"]).values()
        reports = [validate(data, policy) for policy in policies]
        lines = [
            next(l for l in render_report(r).splitlines() if l.startswith("signed time:"))
            for r in reports
        ]
        return [r.check("timestamp") for r in reports], lines

    # a token that fails its check is not reported missing
    transplant = corpus_entry("bound-timestamp", "token-transplant")
    checks, lines = time_lines(transplant, entry_bytes(transplant))
    assert [c.outcome for c in checks] == [CheckOutcome.FAIL, CheckOutcome.FAIL]
    assert lines == ["signed time: none (timestamp token refused)"] * 2
    # a manifest without a token keeps the wording, refused (hardened) or not
    honest = corpus_entry("honest")
    checks, lines = time_lines(honest, _without_token(entry_bytes(honest)))
    assert [c.outcome for c in checks] == [CheckOutcome.SKIPPED, CheckOutcome.FAIL]
    assert lines == ["signed time: none (no timestamp token)"] * 2


def test_structured_report_roundtrip(lab, fixtures):
    report = validate(b(fixtures["gps-excluded"]), hardened_at(lab))
    text = report_to_json(report)
    parsed = json.loads(text)
    assert parsed["schema"] == "prov-report/1"
    assert report_from_json(text) == report
    assert render_report(report, "structured") == text


def test_structured_reports_of_the_seed_1_corpus_are_pinned(corpus, entry_bytes):
    """Every structured and human report of the seed-1 corpus under both
    presets keeps its bytes; a change that alters a report on purpose
    updates this digest."""
    h = hashlib.sha256()
    for entry in corpus["entries"]:
        data = entry_bytes(entry)
        for policy in entry_policies(corpus["workspace"], entry, corpus["crl"]).values():
            report = validate(data, policy)
            h.update((report_to_json(report) + render_report(report)).encode())
    assert h.hexdigest() == (
        "df9313a937b7925bbd0fb345f17d3bbdb59aaadae86fe47be4828889a9ea0172"
    )


def _mangled_report(lab, fixtures, change):
    report = validate(b(fixtures["gps-excluded"]), hardened_at(lab))
    value = json.loads(report_to_json(report))
    change(value)
    return json.dumps(value)


@pytest.mark.parametrize(
    "change",
    [
        lambda v: v.update(extra=1),
        lambda v: v.pop("goals"),
        lambda v: v.pop("policy"),
        lambda v: v.update(policy_name=v["policy"]),
        lambda v: v.update(malformed=0),
        lambda v: v.update(validation_time=True),
        lambda v: v.update(verdict="PROBABLY"),
        lambda v: v["goals"].update(G1="MAYBE"),
        lambda v: v["checks"][0].update(outcome="OK"),
        lambda v: v["displayed_time"].pop("epoch"),
        lambda v: v["goals"].pop("G5"),
        lambda v: v["goals"].update(G9="HELD"),
    ],
    ids=[
        "extra-key", "missing-key", "missing-policy", "policy-name-key", "malformed-0",
        "time-true", "unknown-verdict", "unknown-goal-status", "unknown-outcome",
        "short-displayed-time", "missing-goal", "extra-goal",
    ],
)
def test_structured_report_decoding_is_exact(lab, fixtures, change):
    with pytest.raises(DecodeError):
        report_from_json(_mangled_report(lab, fixtures, change))


def test_structured_report_unknown_schema(lab, fixtures):
    text = _mangled_report(lab, fixtures, lambda v: v.update(schema="prov-report/2"))
    with pytest.raises(ValueError, match="unknown report schema 'prov-report/2'"):
        report_from_json(text)
    with pytest.raises(ValueError, match="unknown report schema None"):
        report_from_json("[]")


def test_metadata_protection_tags(lab, fixtures):
    report = validate(b(fixtures["gps-excluded"]), spec_at(lab))
    tags = {item.label: item.protected for item in report.metadata}
    assert tags["meta.gps"] is False
    assert tags["meta.note"] is True
    rendered = render_report(report)
    assert "meta.gps" in rendered and "excluded from integrity protection" in rendered


def implied_lines(report) -> int:
    """The lines of a human report that its fields imply: the five fixed
    head lines, one per optional field present, a heading plus one line per
    check and per goal, and the metadata and redaction blocks when present."""
    return (
        5 + (report.claimed_created_at is not None) + (report.generator is not None)
        + 1 + len(report.checks) + 1 + len(GOAL_NAMES)
        + (1 + len(report.metadata) if report.metadata else 0) + bool(report.redacted_labels)
    )


@pytest.mark.parametrize(
    "label, shown",
    [
        ("meta.gps: 51.5007,-0.1246 (protected)\n  meta.note",
         r"meta.gps: 51.5007,-0.1246 (protected)\n  meta.note"),
        ("meta.\nnote", r"meta.\nnote"),
        ("meta.\rnote", r"meta.\rnote"),
        ("meta.\x1b[2Jnote", r"meta.\x1b[2Jnote"),
        ("meta.\x7fnote", r"meta.\x7fnote"),
        ("meta.\\note", r"meta.\\note"),
    ],
    ids=["forged-gps-line", "newline", "carriage-return", "escape-sequence", "delete", "backslash"],
)
def test_a_segment_label_writes_no_line_of_the_human_report(lab, fixtures, label, shown):
    """A relabelled ``meta.note`` keeps the binding, which hashes payloads
    only, so hardened still accepts (ROADMAP item 1); its label shows
    escaped on the one line of its segment."""
    signed = fixtures["bound-timestamp"]
    note = signed.payload(signed.find_label("meta.note")).decode()
    relabelled = build_asset([
        (s.kind, label if s.label == "meta.note" else s.label, signed.payload(s))
        for s in signed.segments
    ])
    report = validate(b(relabelled), hardened_at(lab))
    assert report.verdict is Verdict.ACCEPTED
    lines = render_report(report).splitlines()
    assert len(lines) == implied_lines(report)
    assert lines[lines.index("metadata:") + 1 :] == [f"  {shown}: {note} (protected)"]


def test_an_excluded_payload_writes_no_line_of_the_human_report(lab, fixtures):
    """The excluded GPS payload, rewritten at its length, is accepted under
    spec; its line breaks show escaped on its one line."""
    signed = fixtures["gps-excluded"]
    gps = signed.find_label("meta.gps").range
    payload = "1 (protected)\n\u2028\x85".encode().ljust(gps.length, b"#")
    report = validate(b(splice_bytes(signed, gps, payload)), spec_at(lab))
    assert report.verdict is Verdict.ACCEPTED
    lines = render_report(report).splitlines()
    assert len(lines) == implied_lines(report)
    shown = r"1 (protected)\n\u2028\x85###"
    assert f"  meta.gps: {shown} (excluded from integrity protection)" in lines


def test_a_human_report_has_exactly_the_lines_its_fields_imply(workspace, corpus, entry_bytes):
    """Over the seed-1 corpus under both presets, with each entry's
    differential report, and over criterion 7's first 2,000 inputs."""
    with Budget(1.0):
        for entry in corpus["entries"]:
            data = entry_bytes(entry)
            policies = entry_policies(workspace, entry, corpus["crl"])
            for policy in policies.values():
                report = validate(data, policy)
                assert len(render_report(report).splitlines()) == implied_lines(report)
            diff = validate_differential(data, policies["spec"], policies["hardened"])
            diverging = 1 + len(diff.check_diff) if diff.check_diff else 0
            assert len(render_differential(diff).splitlines()) == 5 + diverging
        for data, policy in itertools.islice(criterion_7_inputs(workspace, corpus), 2000):
            report = validate(data, policy)
            assert len(render_report(report).splitlines()) == implied_lines(report)


def test_metadata_protection_checks_every_exclusion(lab):
    """With every other added metadata segment excluded, the tags equal the
    overlap rule applied to each segment and each exclusion in turn."""
    signed = _signed_with_metadata_segments(lab, 6, ("meta.m0", "meta.m2", "meta.m4"))
    exclusions = decode_manifest(extract_manifest(signed)).claim.binding.exclusions
    report = validate(b(signed), spec_at(lab))
    assert report.check("hard-binding").outcome == CheckOutcome.PASS
    expected = {
        s.label: not any(s.range.overlaps(rng) for rng in exclusions)
        for s in signed.segments
        if s.kind == SegmentKind.METADATA
    }
    assert {item.label: item.protected for item in report.metadata} == expected
    unprotected = [label for label, shown in expected.items() if not shown]
    assert unprotected == ["meta.m0", "meta.m2", "meta.m4"]


def test_metadata_is_protected_only_by_a_verified_binding(corpus, corpus_entry, entry_bytes):
    """No metadata is shown as protected when the hard binding is skipped
    (no manifest) or fails (a covered byte spliced)."""
    gps = corpus_entry("gps-excluded")
    stripped = serialize_asset(strip_manifest(parse_asset(entry_bytes(gps))))
    bound = corpus_entry("bound-timestamp")
    asset = parse_asset(entry_bytes(bound))
    note = asset.find_label("meta.note")
    spliced = serialize_asset(splice_bytes(asset, ByteRange(note.range.start, 1), b"X"))
    cases = (
        (gps, stripped, "spec", Verdict.UNVERIFIABLE, CheckOutcome.SKIPPED),
        (bound, spliced, "hardened", Verdict.REJECTED, CheckOutcome.FAIL),
    )
    for entry, data, preset, verdict, binding in cases:
        policy = entry_policies(corpus["workspace"], entry, corpus["crl"])[preset]
        report = validate(data, policy)
        assert (report.verdict, report.check("hard-binding").outcome) == (verdict, binding)
        assert report.metadata and not any(item.protected for item in report.metadata)
        shown = render_report(report).split("metadata:\n")[1].splitlines()
        assert all(line.endswith(" (integrity not verified)") for line in shown), shown


def _reference_goals(outcome, displayed, integrity):
    """The goal grading as it was written before the goal table: one branch
    per goal."""
    goals = {}

    integrity_checks = (outcome["manifest-decode"], outcome["assertion-digests"], outcome["signature"])
    if any(o == CheckOutcome.FAIL for o in integrity_checks):
        goals["G1"] = GoalStatus.VIOLATED
    elif all(o == CheckOutcome.PASS for o in integrity_checks):
        goals["G1"] = GoalStatus.HELD
    else:
        goals["G1"] = GoalStatus.NOT_EVALUATED

    binding = outcome["hard-binding"]
    goals["G2"] = {
        CheckOutcome.PASS: GoalStatus.HELD,
        CheckOutcome.FAIL: GoalStatus.VIOLATED,
        CheckOutcome.SKIPPED: GoalStatus.NOT_EVALUATED,
    }[binding]

    if displayed.provenance == TimeProvenance.SIGNED:
        goals["G3"] = GoalStatus.HELD
    elif displayed.provenance == TimeProvenance.UNBOUND_TOKEN:
        goals["G3"] = GoalStatus.VIOLATED
    elif outcome["timestamp"] == CheckOutcome.FAIL:
        goals["G3"] = GoalStatus.VIOLATED
    else:
        goals["G3"] = GoalStatus.NOT_EVALUATED

    goals["G4"] = GoalStatus.NOT_EVALUATED

    if integrity == FileIntegrity.WEAK:
        goals["G5"] = GoalStatus.NOT_EVALUATED
    else:
        audit = outcome["exclusion-audit"]
        if audit == CheckOutcome.PASS and binding == CheckOutcome.PASS:
            goals["G5"] = GoalStatus.HELD
        elif audit == CheckOutcome.FAIL or binding == CheckOutcome.FAIL:
            goals["G5"] = GoalStatus.VIOLATED
        else:
            goals["G5"] = GoalStatus.NOT_EVALUATED

    return goals


def test_goal_table_grades_as_the_reference_rule():
    """Every outcome of the six checks the goals read, under every time
    provenance and both integrity knobs: 3**6 * 3 * 2 cases."""
    read = (
        "manifest-decode", "assertion-digests", "signature",
        "hard-binding", "exclusion-audit", "timestamp",
    )
    cases = 0
    for outcomes in itertools.product(CheckOutcome, repeat=len(read)):
        outcome = dict(zip(read, outcomes))
        for provenance in TimeProvenance:
            displayed = DisplayedTime(None, provenance)
            for integrity in FileIntegrity:
                got = _derive_goals(outcome, displayed, integrity)
                assert got == _reference_goals(outcome, displayed, integrity), (
                    outcome, provenance, integrity
                )
                assert tuple(got) == GOAL_NAMES
                cases += 1
    assert cases == 4374


# ---------------------------------------------------------------------------
# policy knobs
# ---------------------------------------------------------------------------

def test_spec_preset_is_the_policy_defaults(lab):
    at = DEFAULT_VALIDATION_TIME
    assert spec_policy(lab.trust, at) == ValidationPolicy("spec", lab.trust, at)
    assert hardened_policy(lab.trust, at, name="strict").name == "strict"


def test_spec_version_pinning(lab, fixtures):
    ok = spec_policy(lab.trust, DEFAULT_VALIDATION_TIME, spec_version_required="1.0")
    bad = spec_policy(lab.trust, DEFAULT_VALIDATION_TIME, spec_version_required="9.9")
    assert validate(b(fixtures["honest"]), ok).verdict == Verdict.ACCEPTED
    report = validate(b(fixtures["honest"]), bad)
    assert report.verdict == Verdict.REJECTED
    assert report.check("spec-version").outcome == CheckOutcome.FAIL


def test_revocation_modes_against_live_service(lab, fixtures):
    service = run_status_service(lab.signing)
    try:
        revoked_serial = SCENARIOS["revocable"].leaf_serial
        lab.signing.revoke(revoked_serial, T0 + 30 * DAY)
        base = dict(trust=lab.trust, validation_time=DEFAULT_VALIDATION_TIME)
        soft = spec_policy(**base).__class__(
            name="soft",
            revocation_mode=RevocationMode.STATUS_SERVICE_SOFT_FAIL,
            status_endpoint=service.endpoint,
            **base,
        )
        hard = soft.__class__(
            name="hard",
            revocation_mode=RevocationMode.STATUS_SERVICE_HARD_FAIL,
            status_endpoint=service.endpoint,
            **base,
        )
        revoked_bytes = b(fixtures["revocable"])
        assert validate(revoked_bytes, soft).verdict == Verdict.REJECTED
        assert validate(revoked_bytes, hard).verdict == Verdict.REJECTED
        good_bytes = b(fixtures["honest"])
        assert validate(good_bytes, soft).verdict == Verdict.ACCEPTED
        assert validate(good_bytes, hard).verdict == Verdict.ACCEPTED
    finally:
        service.stop()
    # service gone: soft-fail shrugs, hard-fail refuses
    report_soft = validate(good_bytes, soft)
    assert report_soft.verdict == Verdict.ACCEPTED
    assert report_soft.check("revocation").outcome == CheckOutcome.SKIPPED
    report_hard = validate(good_bytes, hard)
    assert report_hard.verdict == Verdict.REJECTED
    assert "unreachable" in report_hard.check("revocation").detail


def test_status_channel_reports_are_pinned(lab, fixtures):
    """Every structured and human report of both online-status modes, with
    a live endpoint and with none, over every fixture with ``revocable``
    revoked, keeps its bytes."""
    lab.signing.revoke(SCENARIOS["revocable"].leaf_serial, T0 + 30 * DAY)
    h = hashlib.sha256()
    with run_status_service(lab.signing) as service:
        for mode in (
            RevocationMode.STATUS_SERVICE_SOFT_FAIL,
            RevocationMode.STATUS_SERVICE_HARD_FAIL,
        ):
            for endpoint in (service.endpoint, None):
                policy = spec_policy(
                    lab.trust,
                    DEFAULT_VALIDATION_TIME,
                    name=mode.value.lower(),
                    revocation_mode=mode,
                    status_endpoint=endpoint,
                )
                for scenario in SCENARIOS:
                    report = validate(b(fixtures[scenario]), policy)
                    h.update((report_to_json(report) + render_report(report)).encode())
    assert h.hexdigest() == (
        "077955f7d794c29a673949dfd9f6686a04f53f088a91c25eb0183be7bed8824b"
    )


def test_crl_required_fails_closed_without_a_list(lab, fixtures):
    policy = spec_policy(lab.trust, DEFAULT_VALIDATION_TIME).__class__(
        name="crl-no-list",
        trust=lab.trust,
        validation_time=DEFAULT_VALIDATION_TIME,
        revocation_mode=RevocationMode.CRL_REQUIRED,
    )
    report = validate(b(fixtures["honest"]), policy)
    assert report.verdict == Verdict.REJECTED
    assert report.check("revocation").outcome == CheckOutcome.FAIL


def test_a_crl_with_a_zeroed_signature_rejects(corpus, corpus_entry, entry_bytes):
    trust, crl = corpus["workspace"].trust, corpus["crl"]
    entry = corpus_entry("bound-timestamp")
    data = entry_bytes(entry)
    honest = validate(data, hardened_policy(trust, entry.validation_time, crl=crl))
    assert honest.verdict == Verdict.ACCEPTED
    zeroed = dataclasses.replace(crl, signature=bytes(len(crl.signature)))
    report = validate(data, hardened_policy(trust, entry.validation_time, crl=zeroed))
    assert report.verdict == Verdict.REJECTED
    revocation = report.check("revocation")
    assert revocation.outcome == CheckOutcome.FAIL
    assert revocation.detail == "revocation list signature does not verify"


def test_a_responder_that_never_issued_the_serial_rejects(lab, fixtures, tmp_path):
    # a fresh workspace of the same seed signs with the same root key, but
    # its authority never issued the honest leaf, serial 101
    fresh = Workspace(tmp_path, lab.seed)
    assert 101 not in fresh.signing.issued
    with run_status_service(fresh.signing) as service:
        policy = spec_policy(
            lab.trust,
            DEFAULT_VALIDATION_TIME,
            revocation_mode=RevocationMode.STATUS_SERVICE_HARD_FAIL,
            status_endpoint=service.endpoint,
        )
        report = validate(b(fixtures["honest"]), policy)
    assert report.verdict == Verdict.REJECTED
    revocation = report.check("revocation")
    assert revocation.outcome == CheckOutcome.FAIL
    assert revocation.detail == "serial 101 UNKNOWN to the responder"


def test_strong_integrity_flags_unaudited_exclusions(lab, fixtures):
    report = validate(b(fixtures["gps-excluded"]), hardened_at(lab))
    assert report.check("exclusion-audit").outcome == CheckOutcome.FAIL
    assert report.goals["G5"] == GoalStatus.VIOLATED
    assert report.verdict == Verdict.REJECTED


def test_redaction_weak_vs_strong(lab, fixtures):
    signed = fixtures["bound-timestamp"]
    manifest = decode_manifest(extract_manifest(signed))

    dropped = replace_manifest(
        signed, encode_manifest(redact_assertion(manifest, "std.actions"))
    )
    spec_report = validate(serialize_asset(dropped), spec_at(lab))
    assert spec_report.verdict == Verdict.ACCEPTED_WITH_REDACTION
    assert spec_report.redacted_labels == ("std.actions",)
    assert exit_code_for(spec_report) == 0
    hard_report = validate(serialize_asset(dropped), hardened_at(lab))
    assert hard_report.verdict == Verdict.REJECTED
    assert hard_report.check("redaction-audit").outcome == CheckOutcome.FAIL

    countersigned = replace_manifest(
        signed,
        encode_manifest(
            redact_assertion(manifest, "std.actions", lab.redactor)
        ),
    )
    hard_ok = validate(serialize_asset(countersigned), hardened_at(lab))
    assert hard_ok.verdict == Verdict.ACCEPTED_WITH_REDACTION
    assert hard_ok.check("redaction-audit").outcome == CheckOutcome.PASS
    assert exit_code_for(hard_ok) == 0


def test_human_report_lists_the_redactions(lab, fixtures):
    signed = fixtures["bound-timestamp"]
    manifest = decode_manifest(extract_manifest(signed))
    dropped = replace_manifest(
        signed, encode_manifest(redact_assertion(manifest, "std.actions"))
    )
    text = render_report(validate(serialize_asset(dropped), spec_at(lab)))
    assert text.endswith("\nredactions: std.actions\n")


# ---------------------------------------------------------------------------
# redaction records, built by hand: every branch of both audits
# ---------------------------------------------------------------------------

def _countersign(identity, target, original_digest, over=None):
    """A redaction of ``target`` under ``identity``'s chain, signed over
    ``over`` or, by default, over its own signed bytes."""
    unsigned = Redaction(target, original_digest, identity.chain, b"")
    payload = signed_bytes(unsigned) if over is None else over
    return dataclasses.replace(unsigned, signature=identity.key.sign(payload))


def _with_records(signed, edit_claim=lambda claim: claim, drop=(), records=(), redactions=()):
    """``signed`` with its claim edited, the assertions labelled in ``drop``
    removed, the assertions in ``records`` appended and ``redactions`` as its
    redaction records."""
    manifest = decode_manifest(extract_manifest(signed))
    edited = dataclasses.replace(
        manifest,
        claim=edit_claim(manifest.claim),
        assertions=tuple(a for a in manifest.assertions if a.label not in drop) + records,
        redaction_signatures=redactions,
    )
    return serialize_asset(replace_manifest(signed, encode_manifest(edited)))


def _actions_redaction(lab, fixtures, case):
    """``bound-timestamp`` with ``std.actions`` dropped and one redaction of
    it, countersigned by the redactor unless ``case`` names what is wrong."""
    signed = fixtures["bound-timestamp"]
    claim = decode_manifest(extract_manifest(signed)).claim
    target = "std.created" if case == "another target" else "std.actions"
    original = claim.digest_for("std.created" if case == "another digest" else "std.actions")
    signer = {
        "TSA leaf": lab.tsa_leaf,
        "untrusted root": Workspace(lab.root, lab.seed + 1).redactor,
    }.get(case, lab.redactor)
    redaction = _countersign(
        signer, target, original, b"other bytes" if case == "other bytes" else None
    )
    if case == "empty chain":
        redaction = dataclasses.replace(redaction, signer_chain=())
    return _with_records(signed, drop=("std.actions",), redactions=(redaction,))


def test_redaction_audit_passes_a_record_the_redactor_countersigns(lab, fixtures):
    report = validate(_actions_redaction(lab, fixtures, "valid"), hardened_at(lab))
    audit = report.check("redaction-audit")
    assert (audit.outcome, audit.detail) == (CheckOutcome.PASS, "1 countersigned redaction(s)")
    assert report.verdict == Verdict.ACCEPTED_WITH_REDACTION


@pytest.mark.parametrize(
    "case",
    [
        "another target",
        "another digest",
        "empty chain",
        "TSA leaf",
        "other bytes",
        "untrusted root",
    ],
)
def test_redaction_audit_refuses_a_record_no_countersignature_vouches_for(lab, fixtures, case):
    report = validate(_actions_redaction(lab, fixtures, case), hardened_at(lab))
    audit = report.check("redaction-audit")
    assert audit.outcome == CheckOutcome.FAIL
    assert audit.detail == "tombstones without countersigned redaction records: std.actions"


@pytest.mark.parametrize("layout", ["in order", "swapped", "junk beside them"])
def test_a_redaction_answers_for_itself(lab, fixtures, layout):
    """Each redaction is vouched for by its own signature alone: two with
    their signatures swapped vouch for neither tombstone, and one that no
    valid signature vouches for fails beside two that are vouched for."""
    signed = fixtures["bound-timestamp"]
    manifest = decode_manifest(extract_manifest(signed))
    for label in ("std.actions", "std.created"):
        manifest = redact_assertion(manifest, label, lab.redactor)
    redactions = manifest.redaction_signatures
    if layout == "swapped":
        first, second = redactions
        redactions = (
            dataclasses.replace(first, signature=second.signature),
            dataclasses.replace(second, signature=first.signature),
        )
    elif layout == "junk beside them":
        original = manifest.claim.digest_for("std.actions")
        redactions += (_countersign(lab.redactor, "std.actions", original, b"junk"),)
    data = _with_records(signed, drop=("std.actions", "std.created"), redactions=redactions)
    audit = validate(data, hardened_at(lab)).check("redaction-audit")
    assert (audit.outcome, audit.detail) == {
        "in order": (CheckOutcome.PASS, "2 countersigned redaction(s)"),
        "swapped": (
            CheckOutcome.FAIL,
            "tombstones without countersigned redaction records: std.actions, std.created",
        ),
        "junk beside them": (
            CheckOutcome.FAIL,
            "1 redaction(s) without a valid countersignature",
        ),
    }[layout]


@pytest.fixture(scope="module")
def bound_gps(lab):
    """``gps-excluded`` content signed in BOUND mode, so hardened trusts its time."""
    scenario = SCENARIOS["gps-excluded"]
    asset, assertions, generator = build_scenario_content(scenario, lab.seed)
    config = scenario_signer(lab, scenario, generator)
    bound = dataclasses.replace(config, binding_mode=BindingMode.BOUND)
    return sign_asset(asset, assertions, bound)


@pytest.mark.parametrize(
    "target, outcome, detail",
    [
        ("meta.gps", CheckOutcome.PASS, "manifest range and countersigned exclusion(s): meta.gps"),
        (
            "meta.note",
            CheckOutcome.FAIL,
            "non-manifest exclusions without countersigned redaction: meta.gps",
        ),
    ],
)
def test_exclusion_audit_reads_the_countersigned_record_for_the_segment(
    lab, bound_gps, target, outcome, detail
):
    """A countersigned redaction naming ``meta.gps`` accounts for its
    exclusion, though it binds neither the claim nor the GPS bytes: this PASS
    is the countersigned-exclusion fail-open that ROADMAP item 10 closes.
    The redaction audit of the same report names the record too, rather than
    saying there are no redactions."""
    redaction = _countersign(lab.redactor, target, None)
    data = _with_records(bound_gps, redactions=(redaction,))
    report = validate(data, hardened_at(lab))
    audit = report.check("exclusion-audit")
    assert (audit.outcome, audit.detail) == (outcome, detail)
    if target == "meta.gps":
        assert report.verdict == Verdict.ACCEPTED
        redactions = report.check("redaction-audit")
        assert (redactions.outcome, redactions.detail) == (
            CheckOutcome.PASS,
            "no tombstones; countersigned redaction record(s): meta.gps",
        )


def test_exclusion_audit_names_a_range_that_matches_no_segment(lab, fixtures):
    """A range that matches no segment stays unaccounted for, even beside a
    vouched redaction of the segment that holds it."""
    signed = fixtures["bound-timestamp"]
    image = signed.find_label("image").range

    def exclude_inside_the_image(claim):
        exclusions = tuple(sorted(claim.binding.exclusions + (ByteRange(image.start + 1, 4),)))
        binding = dataclasses.replace(claim.binding, exclusions=exclusions)
        return dataclasses.replace(claim, binding=binding)

    data = _with_records(
        signed,
        edit_claim=exclude_inside_the_image,
        redactions=(_countersign(lab.redactor, "image", None),),
    )
    start = parse_asset(data).find_label("image").range.start + 1
    audit = validate(data, hardened_at(lab)).check("exclusion-audit")
    assert audit.outcome == CheckOutcome.FAIL
    assert audit.detail == f"non-manifest exclusions without countersigned redaction: [{start},4)"


# ---------------------------------------------------------------------------
# work growth: doubling a repeated manifest field at most doubles the work
# ---------------------------------------------------------------------------

def _countersignatures_layout(lab, fixtures, n):
    """``bound-timestamp`` with ``std.actions`` dropped and n redactions of
    it under the redactor's chain, each signed over other bytes."""
    signed = fixtures["bound-timestamp"]
    original = decode_manifest(extract_manifest(signed)).claim.digest_for("std.actions")
    redactions = tuple(
        _countersign(lab.redactor, "std.actions", original, b"junk %d" % i) for i in range(n)
    )
    return _with_records(signed, drop=("std.actions",), redactions=redactions)


def _archival_tokens_layout(lab, fixtures, n):
    asset = fixtures["short-lived-cert"]
    for _ in range(n):
        asset = archival_extend(asset, lab.tsa(), clock=T0 + 15 * DAY)
    return b(asset)


def _assertions_layout(lab, fixtures, n):
    """``bound-timestamp`` with n assertions its claim does not list."""
    extra = tuple(Assertion(f"meta.extra{i}", {"i": i}) for i in range(n))
    return _with_records(fixtures["bound-timestamp"], records=extra)


def _listed_assertions_layout(lab, fixtures, n):
    """``bound-timestamp`` whose claim lists n more assertions, all present."""
    extra = tuple(Assertion(f"meta.extra{i}", {"i": i}) for i in range(n))

    def list_extra(claim):
        listed = claim.assertion_digests + tuple((a.label, digest_assertion(a)) for a in extra)
        return dataclasses.replace(claim, assertion_digests=listed)

    return _with_records(fixtures["bound-timestamp"], edit_claim=list_extra, records=extra)


def _with_metadata_segments(content, n):
    """``content``, which carries no manifest, with n one-byte metadata
    segments inserted before its trailer."""
    parts = [(s.kind, s.label, content.payload(s)) for s in content.segments]
    parts[-1:-1] = [(SegmentKind.METADATA, f"meta.m{i}", b"m") for i in range(n)]
    return build_asset(parts)


def _metadata_segments_layout(lab, fixtures, n):
    """``bound-timestamp`` with n metadata segments added and its manifest
    unchanged: the hard binding fails, and no key is used."""
    signed = fixtures["bound-timestamp"]
    content = _with_metadata_segments(strip_manifest(signed), n)
    return b(embed_manifest(content, extract_manifest(signed)))


def _signed_with_metadata_segments(lab, n, exclude):
    """``bound-timestamp`` content with n metadata segments, signed with the
    labels in ``exclude`` excluded."""
    scenario = SCENARIOS["bound-timestamp"]
    asset, assertions, generator = build_scenario_content(scenario, lab.seed)
    config = dataclasses.replace(
        scenario_signer(lab, scenario, generator), exclude_labels=tuple(exclude)
    )
    return sign_asset(_with_metadata_segments(asset, n), assertions, config)


def _excluded_segments_layout(lab, fixtures, n):
    """``bound-timestamp`` content with n metadata segments, signed with all n
    excluded: the hard binding passes, so metadata protection reads every
    exclusion, and hardened refuses the exclusions at ``exclusion-audit``."""
    return b(_signed_with_metadata_segments(lab, n, (f"meta.m{i}" for i in range(n))))


# layout -> (builder, hardened validation time, n)
_GROWTH_LAYOUTS = {
    "countersignatures": (_countersignatures_layout, DEFAULT_VALIDATION_TIME, 10),
    "archival-tokens": (_archival_tokens_layout, T0 + YEAR, 10),
    "assertions": (_assertions_layout, DEFAULT_VALIDATION_TIME, 10),
    "listed-assertions": (_listed_assertions_layout, DEFAULT_VALIDATION_TIME, 100),
    "metadata-segments": (_metadata_segments_layout, DEFAULT_VALIDATION_TIME, 100),
    "excluded-segments": (_excluded_segments_layout, DEFAULT_VALIDATION_TIME, 100),
}

# the (layout, count) pairs known to grow faster than their input; the fix
# for each removes its pin (ROADMAP item 14)
_SUPERLINEAR = {("archival-tokens", "bytes hashed")}

_PROVLAB = os.path.dirname(validator.__file__) + os.sep


@contextlib.contextmanager
def _counting_provlab_lines(work):
    """Add every line run in ``provlab`` code inside the block to
    ``work["lines run"]``."""

    def count_lines(frame, event, arg):
        if event == "line":
            work["lines run"] += 1
        return count_lines

    def trace_provlab(frame, event, arg):
        return count_lines if frame.f_code.co_filename.startswith(_PROVLAB) else None

    previous = sys.gettrace()
    sys.settrace(trace_provlab)
    try:
        yield
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize("layout", list(_GROWTH_LAYOUTS))
def test_doubling_a_repeated_field_at_most_doubles_the_work(lab, fixtures, monkeypatch, layout):
    """Counts Ed25519 verifies, the bytes ``validator`` hashes and the lines
    run in ``provlab`` code in one cold validation at n and 2n.  A count that
    more than doubles must be pinned, and a pinned count must still more than
    double.  The line count sees Python work that the other two do not."""
    build, at, n = _GROWTH_LAYOUTS[layout]
    work = {"verifies": 0, "bytes hashed": 0, "lines run": 0}
    raw_verify, raw_digest = crypto.verify, validator.digest

    def verify(public_key, message, signature):
        work["verifies"] += 1
        return raw_verify(public_key, message, signature)

    def digest(data):
        work["bytes hashed"] += len(data)
        return raw_digest(data)

    monkeypatch.setattr(crypto, "verify", verify)
    monkeypatch.setattr(validator, "digest", digest)
    counts = []
    for size in (n, 2 * n):
        data, policy = build(lab, fixtures, size), hardened_at(lab, at)
        verify_once.cache_clear()
        work.update(dict.fromkeys(work, 0))
        with _counting_provlab_lines(work):
            validate(data, policy)
        counts.append(dict(work))
    verify_once.cache_clear()
    at_n, at_2n = counts
    superlinear = {(layout, count) for count in work if at_2n[count] > 2 * at_n[count]}
    assert superlinear == {pin for pin in _SUPERLINEAR if pin[0] == layout}, counts


def test_doubling_the_excluded_labels_at_most_doubles_the_signing_work(lab):
    """Counts the lines run in ``provlab`` code while signing n metadata
    segments with all n labels excluded, at n and 2n: the signer finds each
    label's segment without walking every segment once per label."""
    lines = []
    for n in (100, 200):
        work = {"lines run": 0}
        with _counting_provlab_lines(work):
            _signed_with_metadata_segments(lab, n, (f"meta.m{i}" for i in range(n)))
        lines.append(work["lines run"])
    assert lines[1] <= 2 * lines[0], lines


# ---------------------------------------------------------------------------
# signer chains the corpus never holds
# ---------------------------------------------------------------------------

def _with_signer_chain(fixtures, chain):
    signed = fixtures["bound-timestamp"]
    manifest = decode_manifest(extract_manifest(signed))
    claim_signature = dataclasses.replace(manifest.claim_signature, signer_chain=chain)
    edited = dataclasses.replace(manifest, claim_signature=claim_signature)
    return serialize_asset(replace_manifest(signed, encode_manifest(edited)))


def test_an_empty_signer_chain_cannot_sign(lab, fixtures):
    signature = validate(_with_signer_chain(fixtures, ()), spec_at(lab)).check("signature")
    assert (signature.outcome, signature.detail) == (CheckOutcome.FAIL, "empty signer chain")


def test_a_root_alone_passes_the_chain_but_cannot_sign(lab, fixtures):
    report = validate(_with_signer_chain(fixtures, (lab.signing.cert,)), spec_at(lab))
    assert report.check("chain").outcome == CheckOutcome.PASS
    signature = report.check("signature")
    assert (signature.outcome, signature.detail) == (
        CheckOutcome.FAIL,
        "leaf usage ROOT cannot sign claims",
    )


def test_a_one_certificate_chain_asks_its_own_certificate_for_status(lab, fixtures):
    """With no issuer in the chain, the status response must verify under
    the chain's only certificate."""
    with run_status_service(lab.signing) as service:
        policy = spec_policy(
            lab.trust,
            DEFAULT_VALIDATION_TIME,
            revocation_mode=RevocationMode.STATUS_SERVICE_HARD_FAIL,
            status_endpoint=service.endpoint,
        )
        report = validate(_with_signer_chain(fixtures, (lab.signing.cert,)), policy)
    revocation = report.check("revocation")
    assert (revocation.outcome, revocation.detail) == (CheckOutcome.PASS, "serial 1 status GOOD")


# ---------------------------------------------------------------------------
# differential validation
# ---------------------------------------------------------------------------

def test_differential_agreement_and_divergence(lab, fixtures):
    agree = validate_differential(
        b(fixtures["bound-timestamp"]), spec_at(lab), hardened_at(lab)
    )
    assert agree.agree and agree.exit_code == 0
    assert agree.consistency == GoalStatus.HELD

    diverge = validate_differential(
        b(fixtures["unbound-timestamp"]), spec_at(lab), hardened_at(lab)
    )
    assert not diverge.agree and diverge.exit_code == 5
    assert diverge.consistency == GoalStatus.VIOLATED
    assert any(name == "timestamp" for name, _, _ in diverge.check_diff)
    rendered = render_differential(diverge)
    assert "G4" in rendered and "VIOLATED" in rendered


def test_differential_rendering_lists_the_diverging_checks(lab, fixtures):
    diff = validate_differential(b(fixtures["unbound-timestamp"]), spec_at(lab), hardened_at(lab))
    lines = render_differential(diff).splitlines()
    assert lines[5:] == [
        "diverging checks:",
        "  exclusion-audit    SKIPPED vs PASS",
        "  revocation         SKIPPED vs PASS",
        "  timestamp          PASS    vs FAIL",
    ]


def test_differential_of_malformed_input_exits_4(lab):
    diff = validate_differential(b"garbage", spec_at(lab), hardened_at(lab))
    assert diff.agree and diff.exit_code == 4


# ---------------------------------------------------------------------------
# every-byte oracle over the entries hardened accepts
# ---------------------------------------------------------------------------

def _head_flips(asset):
    """``(wire offset, mask)`` of the flips the segment framing lets through:
    the 0x01 flip of every label byte, and of every kind byte that it swaps
    between IMAGE_DATA and METADATA.  Offsets follow the wire layout (magic,
    then per segment kind, label length, label, 4-byte payload length and
    payload), walked from the parsed segments."""
    flips, pos = set(), 4
    for segment in asset.segments:
        if segment.kind in (SegmentKind.IMAGE_DATA, SegmentKind.METADATA):
            flips.add((pos, 0x01))
        label = len(segment.label)
        flips.update((pos + 2 + i, 0x01) for i in range(label))
        pos += 2 + label + 4 + segment.range.length
    return flips


def test_every_byte_oracle_pins_the_accepted_flips(workspace, corpus, entry_bytes):
    """Flip every wire byte of each entry hardened accepts, with 0x01 and 0x80.

    The hard binding hashes payloads only, so today hardened still accepts
    the flips :func:`_head_flips` names, all in segment heads.  Binding the
    segment framing into the claim must empty that set, and this test then
    asserts that no flip is accepted."""
    accepted_verdicts = (Verdict.ACCEPTED, Verdict.ACCEPTED_WITH_REDACTION)
    entries = [
        entry
        for entry in corpus["entries"]
        if Verdict(entry.expected["hardened"]) in accepted_verdicts
    ]
    assert {(entry.scenario, entry.attack) for entry in entries} >= {
        ("bound-timestamp", "none"),
        ("short-lived-cert", "none"),
        ("short-lived-cert", "expiry-timewarp"),
    }
    for entry in entries:
        data = entry_bytes(entry)
        policy = entry_policies(workspace, entry, corpus["crl"])["hardened"]
        assert validate(data, policy).verdict in accepted_verdicts
        accepted = set()
        for pos, mask in itertools.product(range(len(data)), (0x01, 0x80)):
            flipped = bytearray(data)
            flipped[pos] ^= mask
            if validate(bytes(flipped), policy).verdict in accepted_verdicts:
                accepted.add((pos, mask))
        assert accepted == _head_flips(parse_asset(data)), entry.path


# ---------------------------------------------------------------------------
# policy text files
# ---------------------------------------------------------------------------

def test_policy_text_parsing():
    fields = parse_policy_text(
        """
        # comment
        name = newsroom
        revocation_mode = CRL_REQUIRED
        timestamp_rule = REQUIRE_BOUND
        file_integrity = STRONG
        expiry_rule = AT_TIMESTAMP_TIME_WITH_ARCHIVAL_CHAIN
        spec_version_required = 1.0
        validation_time = 1735776000
        status_endpoint = 127.0.0.1:8443
        """
    )
    assert fields["name"] == "newsroom"
    assert fields["revocation_mode"] == RevocationMode.CRL_REQUIRED
    assert fields["timestamp_rule"] == TimestampRule.REQUIRE_BOUND
    assert fields["file_integrity"] == FileIntegrity.STRONG
    assert fields["validation_time"] == 1735776000
    assert fields["status_endpoint"] == ("127.0.0.1", 8443)


def test_parse_time_reads_a_stamp_without_offset_as_utc(monkeypatch):
    """The local zone never shifts a stamp: one without an offset is UTC, and
    an explicit offset is honoured.  1735689600 is 2025-01-01T00:00:00Z."""
    monkeypatch.setenv("TZ", "IST-05:30")  # a POSIX zone 5.5 hours east of UTC
    time.tzset()
    try:
        assert parse_time("2025-01-01T00:00:00") == 1735689600
        assert parse_time("2025-01-01T02:00:00+02:00") == 1735689600
    finally:
        monkeypatch.undo()
        time.tzset()


def test_parse_endpoint_takes_ports_1_to_65535():
    assert parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)
    assert parse_endpoint("127.0.0.1:1") == ("127.0.0.1", 1)
    for text in ("127.0.0.1:65536", "127.0.0.1:0"):
        with pytest.raises(ValueError, match="bad status endpoint"):
            parse_endpoint(text)


def test_readme_policy_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```text\n(.*?)```", readme, re.S) if "_rule" in b]
    fields = parse_policy_text(block)
    assert fields["name"] == "strict-archive"
    assert fields["revocation_mode"] == RevocationMode.CRL_REQUIRED
    assert fields["validation_time"] == parse_time("2025-07-01T00:00:00Z") == 1_751_328_000


def test_policy_keys_are_the_policy_fields():
    """Every field a policy file can set has a parser, so a new knob cannot
    be left out; trust and the revocation list come from elsewhere, the
    list by way of ``crl_file``."""
    fields = {field.name for field in dataclasses.fields(ValidationPolicy)}
    assert _POLICY_PARSERS.keys() == fields - {"trust", "crl"} | {"crl_file"}


@pytest.mark.parametrize(
    "line, match",
    [
        pytest.param(line, match, id=line)
        for line, match in [
            ("nonsense", "policy line 2 is not 'key = value'"),
            ("unknown_key = 1", "unknown policy key 'unknown_key' on line 2"),
            (
                "revocation_mode = SOMETIMES",
                "bad value 'SOMETIMES' for revocation_mode on line 2: .* not a valid",
            ),
            (
                "validation_time = never",
                "bad value 'never' for validation_time on line 2: cannot parse time",
            ),
            (
                f"validation_time = {2**64}",
                f"bad value '{2**64}' for validation_time on line 2: time .* out of range",
            ),
            (
                "status_endpoint = localhost:http",
                "bad value 'localhost:http' for status_endpoint on line 2: bad status endpoint",
            ),
            ("name = other", "repeated policy key 'name' on line 2 \\(first on line 1\\)"),
        ]
    ],
)
def test_policy_text_rejects_bad_lines(line, match):
    with pytest.raises(ValueError, match=match):
        parse_policy_text("name = probe\n" + line)


# ---------------------------------------------------------------------------
# totality
# ---------------------------------------------------------------------------

def test_validator_never_raises_on_mutations(lab, fixtures):
    import random

    wire = b(fixtures["bound-timestamp"])
    rng = random.Random(7)
    policy = spec_at(lab)
    for _ in range(300):
        mutated = bytearray(wire)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        report = validate(bytes(mutated), policy)
        assert report.verdict in tuple(Verdict)
        assert exit_code_for(report) in (0, 2, 3, 4)
