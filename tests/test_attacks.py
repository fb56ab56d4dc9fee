"""Attack toolkit: expected verdicts hold, mutations are minimal."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from provlab.attacks import (
    ATTACK_MATRIX,
    ATTACKS,
    apply_attack,
    attack_inputs,
    attack_exclusion_mutate,
    attack_expiry_timewarp,
    attack_strip_manifest,
    attack_timestamp_replace,
)
from provlab.container import ByteRange, extract_manifest, parse_asset, serialize_asset
from provlab.corpus import (
    CRL_FILENAME, build_corpus, entry_policies, load_corpus, tree_digest,
)
from provlab.credentials import decode_manifest
from provlab.errors import DecodeError, ProvenanceError
from provlab.signer import SCENARIOS, format_gps
from provlab.validator import (
    CheckOutcome, DisplayedTime, GoalStatus, TimeProvenance, Verdict, hardened_policy,
    spec_policy, validate,
)
from provlab.workspace import T0, YEAR, Workspace


def test_matrix_covers_every_attack_and_scenario():
    assert set(ATTACK_MATRIX) == {
        "timestamp-replace",
        "exclusion-mutate",
        "sign-with-revoked",
        "expiry-timewarp",
        "strip-manifest",
        "token-transplant",
        "planted-redaction-record",
    }
    for scenarios in ATTACK_MATRIX.values():
        for name in scenarios:
            assert name in SCENARIOS
    assert set(ATTACK_MATRIX["strip-manifest"]) == set(SCENARIOS)


def test_readme_attack_table_lists_every_registry_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## The attack toolkit\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `([^`]+)` \|", section, re.M)) == set(ATTACKS)


# ---------------------------------------------------------------------------
# soundness: the validator's verdicts equal the attacks' stated expectations
# for every corpus entry, attacked and honest, under both presets
# ---------------------------------------------------------------------------

def test_corpus_verdicts_match_expectations(corpus, entry_bytes):
    workspace = corpus["workspace"]
    crl = corpus["crl"]
    assert len(corpus["entries"]) == 21  # 6 honest + 15 attacked
    for entry in corpus["entries"]:
        data = entry_bytes(entry)
        for preset, policy in entry_policies(workspace, entry, crl).items():
            report = validate(data, policy)
            assert report.verdict.value == entry.expected[preset], (
                f"{entry.path} under {preset}"
            )


CORPUS_TREE_DIGESTS = {
    1: "db005e12ede942c85502dfea1176e2955dfeec462020b07bc910d2297e514549",
    2: "7f46fc5bf43b89a9153a2c9f23b142fff2eddaa7c811bd7f4da56a0c0f5c4545",
    3: "52e084333ff96ea767b61eed863a13a7b93ee3dc6c00ac17186e64669a088be3",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_TREE_DIGESTS))
def test_corpus_tree_digest_is_pinned(tmp_path, seed):
    """A fresh corpus from each seed keeps its bytes; a change that alters
    corpus bytes on purpose updates these digests."""
    workspace = Workspace.initialize(tmp_path / "ws", seed=seed)
    build_corpus(workspace)
    assert tree_digest(workspace.corpus_dir) == CORPUS_TREE_DIGESTS[seed]


# ---------------------------------------------------------------------------
# minimality: each attack touches only what it claims to touch
# ---------------------------------------------------------------------------

def _wire_diff_confined_to(original, mutated, allowed_spans):
    """Every differing wire byte falls inside one of the allowed spans."""
    a, b = serialize_asset(original), serialize_asset(mutated)
    spans = list(allowed_spans)
    limit = min(len(a), len(b))
    for pos in range(limit):
        if a[pos] != b[pos] and not any(s.start <= pos < s.end for s in spans):
            return False
    return True


def test_timestamp_replace_touches_only_the_manifest(corpus, corpus_entry, entry_bytes):
    workspace = corpus["workspace"]
    from provlab.container import parse_asset

    original = parse_asset(entry_bytes(corpus_entry("unbound-timestamp")))
    mutated = parse_asset(entry_bytes(corpus_entry("unbound-timestamp", "timestamp-replace")))
    # only the manifest payload (and, if the token length shifted, segment
    # sizes after it) may differ; payloads of every other segment must not
    for segment in original.segments:
        if segment.kind.name == "MANIFEST":
            continue
        twin = mutated.find_label(segment.label)
        assert mutated.payload(twin) == original.payload(segment)
    before = decode_manifest(extract_manifest(original))
    after = decode_manifest(extract_manifest(mutated))
    assert after.claim == before.claim
    assert after.claim_signature.signature == before.claim_signature.signature
    assert after.claim_signature.timestamp != before.claim_signature.timestamp
    assert after.claim_signature.timestamp.gen_time == T0 - 10 * YEAR


def test_exclusion_mutate_touches_only_the_gps_span(corpus, corpus_entry, entry_bytes):
    from provlab.container import parse_asset

    original = parse_asset(entry_bytes(corpus_entry("gps-excluded")))
    mutated = parse_asset(entry_bytes(corpus_entry("gps-excluded", "exclusion-mutate")))
    gps = original.find_label("meta.gps")  # parsed, so its offset is its payload's wire position
    assert _wire_diff_confined_to(original, mutated, [ByteRange(gps.offset, gps.range.length)])
    assert serialize_asset(original) != serialize_asset(mutated)
    assert len(serialize_asset(original)) == len(serialize_asset(mutated))
    # the binding digest recorded in both claims is bit-identical
    before = decode_manifest(extract_manifest(original))
    after = decode_manifest(extract_manifest(mutated))
    assert before.claim.binding.digest == after.claim.binding.digest


def test_strip_manifest_removes_only_the_manifest(corpus, corpus_entry, entry_bytes):
    from provlab.container import parse_asset

    original = parse_asset(entry_bytes(corpus_entry("honest")))
    mutated = parse_asset(entry_bytes(corpus_entry("honest", "strip-manifest")))
    assert mutated.find_manifest() is None
    assert [s.label for s in mutated.segments] == [
        s.label for s in original.segments if s.kind.name != "MANIFEST"
    ]
    for segment in mutated.segments:
        assert mutated.payload(segment) == original.payload(
            original.find_label(segment.label)
        )


def test_stateless_attacks_change_no_bytes(corpus, corpus_entry, entry_bytes):
    assert entry_bytes(corpus_entry("revocable", "sign-with-revoked")) == entry_bytes(
        corpus_entry("revocable")
    )
    # the timewarp entry carries archival tokens, so it differs from the
    # plain fixture by exactly that extension; its own attack added nothing
    warped = corpus_entry("short-lived-cert", "expiry-timewarp")
    assert warped.validation_time == T0 + YEAR
    manifest = decode_manifest(extract_manifest(parse_asset(entry_bytes(warped))))
    assert len(manifest.archival_tokens) == 1
    assert warped.expected["hardened"] == Verdict.ACCEPTED.value


def test_token_transplant_fails_at_the_token_imprint(corpus, corpus_entry, entry_bytes):
    """The key holder's re-signed claim verifies, but its back-dated token
    imprints other bytes: both presets refuse it at ``timestamp`` and show no
    time, while the honest bound fixtures keep their signed time."""
    workspace, crl = corpus["workspace"], corpus["crl"]
    honest = corpus_entry("bound-timestamp")
    attacked = corpus_entry("bound-timestamp", "token-transplant")
    before = decode_manifest(extract_manifest(parse_asset(entry_bytes(honest))))
    after = decode_manifest(extract_manifest(parse_asset(entry_bytes(attacked))))
    assert after.claim == before.claim
    assert after.claim_signature.timestamp.gen_time == T0 - 10 * YEAR
    for preset, policy in entry_policies(workspace, attacked, crl).items():
        report = validate(entry_bytes(attacked), policy)
        assert report.verdict == Verdict.REJECTED, preset
        assert report.check("signature").outcome == CheckOutcome.PASS, preset
        timestamp = report.check("timestamp")
        assert (timestamp.outcome, timestamp.detail) == (
            CheckOutcome.FAIL, "DIGEST_MISMATCH: token covers a different digest"
        ), preset
        assert report.goals["G3"] == GoalStatus.VIOLATED, preset
        assert report.displayed_time == DisplayedTime(None, TimeProvenance.ABSENT), preset
    for name in ("bound-timestamp", "short-lived-cert"):
        entry = corpus_entry(name)
        for preset, policy in entry_policies(workspace, entry, crl).items():
            report = validate(entry_bytes(entry), policy)
            assert report.verdict == Verdict.ACCEPTED, (name, preset)
            assert report.goals["G3"] == GoalStatus.HELD, (name, preset)
            assert report.displayed_time.provenance == TimeProvenance.SIGNED, (name, preset)


def test_planted_redaction_record_fails_the_claim_digest_check(
    corpus, corpus_entry, entry_bytes
):
    """An unsigned ``prov.redaction`` assertion, appended with no key, moves
    no byte outside the manifest and nothing in it but the assertion list.
    Its label earns it no exemption: both presets refuse it at
    ``assertion-digests``, which violates G1."""
    workspace, crl = corpus["workspace"], corpus["crl"]
    original = parse_asset(entry_bytes(corpus_entry("bound-timestamp")))
    attacked = corpus_entry("bound-timestamp", "planted-redaction-record")
    mutated = parse_asset(entry_bytes(attacked))
    assert [s.label for s in mutated.segments] == [s.label for s in original.segments]
    for before, after in zip(original.segments, mutated.segments):
        if before.kind.name != "MANIFEST":
            assert mutated.payload(after) == original.payload(before)
    before = decode_manifest(extract_manifest(original))
    after = decode_manifest(extract_manifest(mutated))
    assert replace(after, assertions=before.assertions) == before
    assert after.assertions[:-1] == before.assertions
    assert after.assertions[-1].label == "prov.redaction"
    for preset, policy in entry_policies(workspace, attacked, crl).items():
        report = validate(entry_bytes(attacked), policy)
        assert report.verdict == Verdict.REJECTED, preset
        digests = report.check("assertion-digests")
        assert (digests.outcome, digests.detail) == (
            CheckOutcome.FAIL, "assertion 'prov.redaction' not listed in the claim"
        ), preset
        assert report.goals["G1"] == GoalStatus.VIOLATED, preset


def test_load_corpus_refuses_an_entry_with_an_extra_key(corpus, tmp_path):
    source = corpus["workspace"].corpus_dir
    index = json.loads((source / "index.json").read_text())
    index["entries"][0]["extra"] = 1
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "index.json").write_text(json.dumps(index))
    (tmp_path / "corpus" / CRL_FILENAME).write_bytes((source / CRL_FILENAME).read_bytes())
    with pytest.raises(DecodeError):
        load_corpus(tmp_path)


def test_load_corpus_refuses_a_missing_index_and_an_unknown_schema(corpus, tmp_path):
    index_path = tmp_path / "corpus" / "index.json"
    with pytest.raises(ProvenanceError) as missing:
        load_corpus(tmp_path)
    assert str(missing.value) == f"no corpus index at {index_path}"
    index = json.loads((corpus["workspace"].corpus_dir / "index.json").read_text())
    index["schema"] = "provlab-corpus/0"
    index_path.parent.mkdir()
    index_path.write_text(json.dumps(index))
    with pytest.raises(ProvenanceError) as unknown:
        load_corpus(tmp_path)
    assert str(unknown.value) == "unknown corpus schema 'provlab-corpus/0'"


# ---------------------------------------------------------------------------
# inapplicability is an error, not a silent no-op
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toolbox(tmp_path_factory):
    lab = Workspace.initialize(tmp_path_factory.mktemp("atkws"), seed=31)
    from provlab.signer import make_fixture

    return lab, {name: make_fixture(lab, name) for name in SCENARIOS}


def test_bound_signature_refuses_token_replacement(toolbox):
    lab, fixtures = toolbox
    with pytest.raises(ProvenanceError, match="the claim signature pins its token"):
        attack_timestamp_replace(
            fixtures["bound-timestamp"], lab.tsa(), T0 - YEAR, lab.trust
        )


def test_an_unknown_attack_is_refused():
    with pytest.raises(ProvenanceError) as refused:
        attack_inputs("nope")
    assert str(refused.value) == "unknown attack 'nope'"


def test_exclusion_mutate_needs_the_label(toolbox):
    lab, fixtures = toolbox
    with pytest.raises(ProvenanceError) as refused:
        apply_attack(
            lab, "exclusion-mutate", "gps-excluded", fixtures["gps-excluded"], label="meta.nope"
        )
    assert str(refused.value) == "no segment labelled 'meta.nope'"


def test_token_transplant_needs_the_signing_key(toolbox):
    lab, fixtures = toolbox
    with pytest.raises(ProvenanceError, match="key does not match the signing leaf"):
        apply_attack(lab, "token-transplant", "bound-timestamp", fixtures["short-lived-cert"])


def test_untrusted_tsa_refused(toolbox, tmp_path):
    lab, fixtures = toolbox
    rogue = Workspace.initialize(tmp_path / "rogue", seed=32)
    with pytest.raises(ProvenanceError, match="would not chain to a trusted root"):
        attack_timestamp_replace(
            fixtures["unbound-timestamp"], rogue.tsa(), T0 - YEAR, lab.trust
        )
    # ... and a trusted TSA outside its own window is equally useless
    with pytest.raises(ProvenanceError, match="would not chain to a trusted root"):
        attack_timestamp_replace(
            fixtures["unbound-timestamp"], lab.tsa(), T0 - 16 * YEAR, lab.trust
        )


def test_covered_segment_refuses_splice(toolbox):
    lab, fixtures = toolbox
    with pytest.raises(ProvenanceError, match="segment 'meta.note' is covered by the hard binding"):
        attack_exclusion_mutate(
            fixtures["honest"], "meta.note", b"scenario=doctored"[:15]
        )


def test_splice_length_must_match(toolbox):
    lab, fixtures = toolbox
    with pytest.raises(ProvenanceError, match="replacement is 5 bytes, segment holds"):
        attack_exclusion_mutate(fixtures["gps-excluded"], "meta.gps", b"short")


def test_timewarp_requires_actual_expiry(toolbox):
    lab, fixtures = toolbox
    with pytest.raises(ValueError):
        attack_expiry_timewarp(fixtures["short-lived-cert"], T0 + 7 * 86_400)


def test_timewarp_without_bridge_expects_unverifiable(toolbox):
    lab, fixtures = toolbox
    asset = fixtures["short-lived-cert"]
    outcome = attack_expiry_timewarp(asset, T0 + YEAR)
    assert outcome.expected == {
        "spec": Verdict.UNVERIFIABLE,
        "hardened": Verdict.UNVERIFIABLE,
    }
    assert outcome.mutated is asset


@pytest.mark.parametrize("scenario", ["honest", "unbound-timestamp", "gps-excluded"])
def test_timewarp_on_an_unbound_token_expects_rejection(toolbox, scenario):
    """Hardened refuses an unbound token outright, so expiry is not the
    deciding failure; the validator agrees with the hand-written verdicts."""
    lab, fixtures = toolbox
    at = T0 + 3 * YEAR
    outcome = attack_expiry_timewarp(fixtures[scenario], at)
    assert outcome.expected == {"spec": Verdict.UNVERIFIABLE, "hardened": Verdict.REJECTED}
    assert (outcome.mutated, outcome.validation_time) == (fixtures[scenario], at)
    policies = {
        "spec": spec_policy(lab.trust, at),
        "hardened": hardened_policy(lab.trust, at, crl=lab.signing.generate_crl()),
    }
    for preset, policy in policies.items():
        report = validate(serialize_asset(outcome.mutated), policy)
        assert report.verdict == outcome.expected[preset], preset


def test_strip_twice_fails(toolbox):
    lab, fixtures = toolbox
    stripped = attack_strip_manifest(fixtures["honest"]).mutated
    with pytest.raises(ProvenanceError, match="carries no manifest segment"):
        attack_strip_manifest(stripped)


def test_fake_gps_payload_differs_from_every_fixture(corpus, corpus_entry, entry_bytes):
    from provlab.container import parse_asset
    from provlab.corpus import FAKE_GPS

    original = parse_asset(entry_bytes(corpus_entry("gps-excluded")))
    gps = original.find_label("meta.gps")
    assert original.payload(gps) != format_gps(*FAKE_GPS).encode("ascii")
