"""Signing: fixpoint embedding, binding correctness, scenario determinism."""

from collections import Counter
from dataclasses import replace

import pytest

from provlab import credentials, signer, timestamp
from provlab.container import (
    SegmentKind, build_asset, compute_hard_binding, extract_manifest, serialize_asset,
)
from provlab.credentials import BindingMode, claim_payload, decode_manifest
from provlab.crypto import SigningKey, digest, verify
from provlab.errors import ProvenanceError
from provlab.records import encode_record
from provlab.signer import (
    SCENARIOS,
    SignerConfig,
    build_scenario_content,
    format_gps,
    make_fixture,
    scenario_signer,
    sign_asset,
)
from provlab.validator import Verdict, spec_policy, validate
from provlab.workspace import DAY, T0, YEAR, Workspace


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    return Workspace.initialize(tmp_path_factory.mktemp("signws"), seed=11)


def unbound_config(lab, **overrides):
    defaults = dict(
        generator_name="labcam-test",
        key=lab.device.key,
        chain=lab.device.chain,
        binding_mode=BindingMode.UNBOUND,
        tsa=lab.tsa(),
    )
    defaults.update(overrides)
    return SignerConfig(**defaults)


@pytest.fixture(scope="module")
def honest_content():
    asset, assertions, _ = build_scenario_content(SCENARIOS["honest"], seed=11)
    return asset, assertions


def test_signing_is_deterministic(lab, honest_content):
    asset, assertions = honest_content
    config = unbound_config(lab)
    once = sign_asset(asset, assertions, config)
    twice = sign_asset(asset, assertions, config)
    assert serialize_asset(once) == serialize_asset(twice)


def test_manifest_exclusion_length_reaches_fixpoint(lab, honest_content):
    asset, assertions = honest_content
    signed = sign_asset(asset, assertions, unbound_config(lab))
    manifest_segment = signed.find_manifest()
    manifest = decode_manifest(extract_manifest(signed))
    declared = [
        rng
        for rng in manifest.claim.binding.exclusions
        if rng.start == manifest_segment.range.start
    ]
    assert declared and declared[0] == manifest_segment.range


def test_binding_digest_covers_everything_but_the_manifest(lab, honest_content):
    asset, assertions = honest_content
    signed = sign_asset(asset, assertions, unbound_config(lab))
    manifest = decode_manifest(extract_manifest(signed))
    recomputed = compute_hard_binding(signed, manifest.claim.binding.exclusions)
    assert recomputed.digest == manifest.claim.binding.digest
    # and it equals the digest over the unsigned asset with no exclusions at
    # all, because the manifest region is the only thing skipped
    assert manifest.claim.binding.digest == compute_hard_binding(asset, []).digest


def test_label_exclusions_recorded_and_shifted(lab):
    asset, assertions, _ = build_scenario_content(SCENARIOS["gps-excluded"], seed=11)
    config = unbound_config(lab, exclude_labels=("meta.gps",))
    signed = sign_asset(asset, assertions, config)
    manifest = decode_manifest(extract_manifest(signed))
    gps_segment = signed.find_label("meta.gps")
    assert gps_segment.range in manifest.claim.binding.exclusions
    assert len(manifest.claim.binding.exclusions) == 2


def test_unbound_token_rides_outside_the_signed_payload(lab, honest_content):
    asset, assertions = honest_content
    signed = sign_asset(asset, assertions, unbound_config(lab))
    manifest = decode_manifest(extract_manifest(signed))
    claim_signature = manifest.claim_signature
    assert claim_signature.binding_mode == BindingMode.UNBOUND
    assert claim_signature.timestamp is not None
    # signature verifies over the bare claim encoding: the token is not in it
    leaf = claim_signature.signer_chain[0]
    assert verify(leaf.public_key, encode_record(manifest.claim), claim_signature.signature)
    # and the token covers the signature digest, nothing else
    assert claim_signature.timestamp.message_digest == digest(claim_signature.signature)


def test_bound_signature_pins_the_token(lab, honest_content):
    asset, assertions = honest_content
    config = unbound_config(lab, binding_mode=BindingMode.BOUND)
    signed = sign_asset(asset, assertions, config)
    manifest = decode_manifest(extract_manifest(signed))
    claim_signature = manifest.claim_signature
    leaf = claim_signature.signer_chain[0]
    claim_bytes = encode_record(manifest.claim)
    bound_payload = claim_bytes + digest(encode_record(claim_signature.timestamp))
    mode, token = claim_signature.binding_mode, claim_signature.timestamp
    assert claim_payload(claim_bytes, mode, token) == bound_payload
    assert verify(leaf.public_key, bound_payload, claim_signature.signature)
    # the signature is NOT valid over the bare claim: swapping the token out
    # from under it cannot go unnoticed
    assert not verify(leaf.public_key, claim_bytes, claim_signature.signature)
    # and the token imprints the claim itself, not the signature
    assert claim_signature.timestamp.message_digest == digest(claim_bytes)


def test_each_bound_fixture_token_imprints_its_claim(lab):
    bound = [name for name, s in SCENARIOS.items() if s.binding_mode == BindingMode.BOUND]
    assert bound
    for name in bound:
        manifest = decode_manifest(extract_manifest(make_fixture(lab, name)))
        token = manifest.claim_signature.timestamp
        assert token.message_digest == digest(encode_record(manifest.claim)), name


def test_each_signing_signs_the_claim_once(lab, monkeypatch):
    """Two signatures (claim, token), bound or unbound, both embedded; one
    token, two manifest encodes (probe, result) and two claims (probe,
    signed) per signing."""
    configs = {}
    for name, scenario in SCENARIOS.items():
        asset, assertions, generator = build_scenario_content(scenario, seed=11)
        configs[name] = (asset, assertions, scenario_signer(lab, scenario, generator))

    signatures = []
    counts = Counter()
    raw_sign = SigningKey.sign

    def sign(key, message):
        signatures.append(raw_sign(key, message))
        return signatures[-1]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    claims = []
    raw_post_init = credentials.Claim.__post_init__

    def post_init(claim):
        claims.append(claim)
        raw_post_init(claim)

    encode = counted("encode_manifest", credentials.encode_manifest)
    monkeypatch.setattr(credentials.Claim, "__post_init__", post_init)
    monkeypatch.setattr(SigningKey, "sign", sign)
    monkeypatch.setattr(timestamp, "issue_token", counted("issue_token", timestamp.issue_token))
    monkeypatch.setattr(credentials, "encode_manifest", encode)
    monkeypatch.setattr(signer, "encode_manifest", encode)

    for name, (asset, assertions, config) in configs.items():
        signatures.clear()
        counts.clear()
        claims.clear()
        signed = sign_asset(asset, assertions, config)
        assert counts == {"issue_token": 1, "encode_manifest": 2}, name
        assert len(claims) == 2, name
        claim_signature = decode_manifest(extract_manifest(signed)).claim_signature
        embedded = {claim_signature.signature, claim_signature.timestamp.tsa_signature}
        assert len(signatures) == 2 and set(signatures) == embedded, name


def test_manifest_length_settles_across_integer_heads(lab):
    """The claim records the manifest's range and the shifted ``meta.gps``
    range, whose encodings grow with the manifest length.  Generator names
    carry the manifest across 65,536 bytes (the length and the ``meta.gps``
    start each gain two head bytes there), and the generator's own text head
    across 256 characters."""
    scenario = SCENARIOS["gps-excluded"]
    asset, assertions, generator = build_scenario_content(scenario, seed=11)
    config = scenario_signer(lab, scenario, generator)
    policy = spec_policy(lab.trust, T0 + DAY)

    # from 256 characters on, each further character adds one manifest byte
    # until the integer heads grow at 65,536
    named = replace(config, generator_name="g" * 256)
    overhead = len(extract_manifest(sign_asset(asset, assertions, named))) - 256
    near = 65_520 - overhead - 8
    ranges, gps_starts = [], []
    for name_length in [*range(250, 262), *range(near, near + 32)]:
        named = replace(config, generator_name="g" * name_length)
        signed = sign_asset(asset, assertions, named)
        assert serialize_asset(sign_asset(asset, assertions, named)) == serialize_asset(signed)
        manifest_segment = signed.find_manifest()
        gps_segment = signed.find_label("meta.gps")
        claim = decode_manifest(extract_manifest(signed)).claim
        assert claim.binding.exclusions == (manifest_segment.range, gps_segment.range)
        assert validate(serialize_asset(signed), policy).verdict == Verdict.ACCEPTED
        ranges.append(manifest_segment.range.length)
        gps_starts.append(gps_segment.range.start)
    assert {length >= 65_536 for length in ranges} == {False, True}
    assert {start >= 65_536 for start in gps_starts} == {False, True}


def test_bound_mode_adds_created_assertion(lab, honest_content):
    asset, _ = honest_content
    signed = sign_asset(asset, [], unbound_config(lab, binding_mode=BindingMode.BOUND))
    manifest = decode_manifest(extract_manifest(signed))
    created = next((a for a in manifest.assertions if a.label == "std.created"), None)
    assert created is not None
    assert created.payload == {"at": T0}


def test_an_excluded_label_names_its_first_segment(lab, honest_content):
    """Only metadata labels must be unique, so two image segments may share
    a label; excluding it excludes the first of them, as
    ``Asset.find_label`` reads a label."""
    asset, assertions = honest_content
    parts = [(s.kind, s.label, asset.payload(s)) for s in asset.segments]
    image = next(i for i, (kind, _, _) in enumerate(parts) if kind == SegmentKind.IMAGE_DATA)
    parts.insert(image + 1, (SegmentKind.IMAGE_DATA, "image", b"second"))
    config = unbound_config(lab, exclude_labels=("image",))
    signed = sign_asset(build_asset(parts), assertions, config)
    first, second = [s.range for s in signed.segments if s.kind == SegmentKind.IMAGE_DATA]
    exclusions = decode_manifest(extract_manifest(signed)).claim.binding.exclusions
    assert first in exclusions and second not in exclusions


def test_signing_guards(lab, honest_content):
    asset, assertions = honest_content
    signed = sign_asset(asset, assertions, unbound_config(lab))
    with pytest.raises(ProvenanceError, match="already carries a manifest"):
        sign_asset(signed, assertions, unbound_config(lab))
    with pytest.raises(ProvenanceError, match="signing certificate outside validity window"):
        sign_asset(asset, assertions, unbound_config(lab, clock=T0 + 5 * YEAR))
    with pytest.raises(ProvenanceError, match="no segment labelled 'meta.nope'"):
        sign_asset(asset, assertions, unbound_config(lab, exclude_labels=("meta.nope",)))
    with pytest.raises(ProvenanceError, match="signing leaf has usage"):
        sign_asset(
            asset,
            assertions,
            unbound_config(lab, key=lab.tsa_leaf.key, chain=lab.tsa_leaf.chain),
        )


def test_signing_refuses_a_key_that_is_not_the_leafs(lab, honest_content):
    asset, assertions = honest_content
    with pytest.raises(ProvenanceError) as refused:
        sign_asset(asset, assertions, unbound_config(lab, key=lab.tsa_leaf.key))
    assert str(refused.value) == "signing key does not match the leaf certificate"


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def test_gps_text_has_fixed_width():
    assert len(format_gps(0.0, 0.0)) == 22
    assert len(format_gps(-80.123456, -170.654321)) == 22
    assert format_gps(48.8584, 2.2945) == "+48.858400,+002.294500"
    with pytest.raises(ValueError):
        format_gps(1000.0, 0.0)


def test_scenario_content_is_seed_deterministic():
    a1, s1, g1 = build_scenario_content(SCENARIOS["gps-excluded"], seed=42)
    a2, s2, g2 = build_scenario_content(SCENARIOS["gps-excluded"], seed=42)
    a3, _, _ = build_scenario_content(SCENARIOS["gps-excluded"], seed=43)
    assert serialize_asset(a1) == serialize_asset(a2)
    assert s1 == s2 and g1 == g2
    assert serialize_asset(a1) != serialize_asset(a3)


def test_make_fixture_signs_in_memory(tmp_path):
    """Signing a scenario writes no file and leaves the saved state alone."""
    lab = Workspace.initialize(tmp_path / "ws", seed=11)
    state = (lab.root / "workspace.json").read_bytes()
    for name in SCENARIOS:
        make_fixture(lab, name)
    assert [p.name for p in lab.root.iterdir()] == ["workspace.json"]
    assert (lab.root / "workspace.json").read_bytes() == state


def test_unknown_scenario(lab):
    with pytest.raises(ProvenanceError, match="no scenario named 'no-such-scenario'"):
        make_fixture(lab, "no-such-scenario")


def test_every_scenario_signs(lab):
    for name in SCENARIOS:
        manifest = decode_manifest(extract_manifest(make_fixture(lab, name)))
        assert manifest.claim.generator == f"labcam-{name}"
        assert manifest.claim_signature.binding_mode == SCENARIOS[name].binding_mode
