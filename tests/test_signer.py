"""Signing: fixpoint embedding, binding correctness, scenario determinism."""

import hashlib
import random
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from provlab import credentials, signer, timestamp
from provlab.container import (
    SegmentKind,
    build_asset,
    compute_hard_binding,
    embed_manifest,
    extract_manifest,
    serialize_asset,
    strip_manifest,
)
from provlab.credentials import BindingMode, HardBinding, claim_payload, decode_manifest
from provlab.crypto import SigningKey, digest, verify
from provlab.errors import ProvenanceError
from provlab.records import encode_record
from provlab.signer import (
    CONCURRENT_BINDING_BYTES,
    DEFAULT_VALIDATION_TIME,
    SCENARIOS,
    SignerConfig,
    build_scenario_content,
    format_gps,
    make_fixture,
    scenario_signer,
    sign_asset,
)
from provlab.validator import Verdict, hardened_policy, spec_policy, validate
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
    assert recomputed == manifest.claim.binding.digest
    # and it equals the digest over the unsigned asset with no exclusions at
    # all, because the manifest region is the only thing skipped
    assert manifest.claim.binding.digest == compute_hard_binding(asset, [])


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
    token, two manifest encodes (probe, result), two claims (probe, signed)
    and two hard bindings (probe, settled) per signing."""
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
    monkeypatch.setattr(HardBinding, "__init__", counted("HardBinding", HardBinding.__init__))
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
        assert counts == {"issue_token": 1, "encode_manifest": 2, "HardBinding": 2}, name
        assert len(claims) == 2, name
        claim_signature = decode_manifest(extract_manifest(signed)).claim_signature
        embedded = {claim_signature.signature, claim_signature.timestamp.tsa_signature}
        assert len(signatures) == 2 and set(signatures) == embedded, name


# sha256 over the 44 wires the integer-head test below signs, in its order
HEAD_BOUNDARY_WIRES_SHA256 = "9acf63f6d1cd4ade3b1630a011c608577cb3b6650fd5eff642895cd5e5a5c0b0"


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
    wires = hashlib.sha256()
    for name_length in [*range(250, 262), *range(near, near + 32)]:
        named = replace(config, generator_name="g" * name_length)
        signed = sign_asset(asset, assertions, named)
        wire = serialize_asset(signed)
        assert serialize_asset(sign_asset(asset, assertions, named)) == wire
        wires.update(wire)
        manifest_segment = signed.find_manifest()
        gps_segment = signed.find_label("meta.gps")
        claim = decode_manifest(extract_manifest(signed)).claim
        assert claim.binding.exclusions == (manifest_segment.range, gps_segment.range)
        assert validate(serialize_asset(signed), policy).verdict == Verdict.ACCEPTED
        ranges.append(manifest_segment.range.length)
        gps_starts.append(gps_segment.range.start)
    assert {length >= 65_536 for length in ranges} == {False, True}
    assert {start >= 65_536 for start in gps_starts} == {False, True}
    assert wires.hexdigest() == HEAD_BOUNDARY_WIRES_SHA256


# sha256 over the wire of each scenario's content for seeds 0-39 (seed-major,
# scenarios in ``SCENARIOS`` order), signed in the seed-11 workspace
SCENARIO_WIRES_SHA256 = "22f8172b7bc6cb73d15b1910c4b2878d94fd779cc40b4bec1a888a5afacc2ce5"


def test_small_signings_keep_their_bytes(lab):
    wires = hashlib.sha256()
    for seed in range(40):
        for scenario in SCENARIOS.values():
            asset, assertions, generator = build_scenario_content(scenario, seed)
            signed = sign_asset(asset, assertions, scenario_signer(lab, scenario, generator))
            wires.update(serialize_asset(signed))
    assert wires.hexdigest() == SCENARIO_WIRES_SHA256


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


# ---------------------------------------------------------------------------
# large signings: the wire is written while a worker thread hashes
# ---------------------------------------------------------------------------

# sha256 of each scenario's seed-1 content, its image grown to 2 MiB, signed
# in the seed-11 workspace; the bytes the one-thread signing wrote
GROWN_WIRE_SHA256 = {
    "honest": "a6d4e3ad53da5c9f6f93e3c90909e66501c6b775f32ab99f8cc3f4481da77c7d",
    "gps-excluded": "f4bea2210440585eac8d4a769d337df4e74054ec8867ee4c6f78bd8e3d651d85",
    "revocable": "e4d705c36842d453c5f097458438854707b3154d4d036d23d202f73bdd2574f5",
    "short-lived-cert": "7b32106c2ff319bb60645285bce0dab691e6204727497bce267ec3f293aa27c2",
    "unbound-timestamp": "87026c2492c90f2b3f544a2bd85f669dff0fe1f5afee18133db827cdea6be416",
    "bound-timestamp": "98e3068fec68080b84b3c8e2217a6dabffa3b8e5b87c7d92c7854dfa87709cf6",
}


def grown_content(name: str, image_bytes: int):
    """``name``'s seed-1 content with its image replaced by seeded bytes."""
    asset, assertions, generator = build_scenario_content(SCENARIOS[name], seed=1)
    image = random.Random(f"grown/{name}").randbytes(image_bytes)
    parts = [
        (s.kind, s.label, image if s.kind == SegmentKind.IMAGE_DATA else asset.payload(s))
        for s in asset.segments
    ]
    return build_asset(parts), assertions, generator


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_large_signing_writes_the_bytes_of_the_one_thread_layout(lab, name):
    """Past the threshold the wire is laid out beside the hashing; its bytes
    are the pinned ones and those of the zero-copy embed of the same
    manifest (``gps-excluded`` carries a labelled exclusion)."""
    asset, assertions, generator = grown_content(name, 2 << 20)
    assert asset.size >= CONCURRENT_BINDING_BYTES
    signed = sign_asset(asset, assertions, scenario_signer(lab, SCENARIOS[name], generator))
    wire = serialize_asset(signed)
    assert wire is signed.wire
    assert hashlib.sha256(wire).hexdigest() == GROWN_WIRE_SHA256[name]
    rebuilt = embed_manifest(strip_manifest(signed), extract_manifest(signed))
    assert rebuilt.wire is None and serialize_asset(rebuilt) == wire


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_headerless_asset_signs_with_its_manifest_first(lab, name):
    """Without a leading header the manifest goes first, in the zero-copy
    layout and in the one written beside the hashing alike, and the signed
    asset gets its scenario's verdicts."""
    scenario = SCENARIOS[name]
    policies = {
        "spec": spec_policy(lab.trust, DEFAULT_VALIDATION_TIME),
        "hardened": hardened_policy(
            lab.trust, DEFAULT_VALIDATION_TIME, crl=lab.signing.generate_crl()
        ),
    }
    small, large = build_scenario_content(scenario, seed=1), grown_content(name, 3 << 20)
    for asset, assertions, generator in (small, large):
        headerless = build_asset(
            [(s.kind, s.label, asset.payload(s)) for s in asset.segments[1:]]
        )
        signed = sign_asset(headerless, assertions, scenario_signer(lab, scenario, generator))
        assert signed.segments[0].kind == SegmentKind.MANIFEST
        wire = serialize_asset(signed)
        assert (wire is signed.wire) == (asset.size >= CONCURRENT_BINDING_BYTES)
        rebuilt = embed_manifest(strip_manifest(signed), extract_manifest(signed))
        assert serialize_asset(rebuilt) == wire
        verdicts = {preset: validate(wire, policy).verdict for preset, policy in policies.items()}
        assert verdicts == scenario.expected


def test_a_large_signing_holds_one_wire_and_leaves_no_thread(lab, monkeypatch):
    """A 16 MiB signing allocates one wire, no more than a join of it would;
    its binding is hashed on a worker thread that is gone when the signing
    returns or raises, and a refusal after the hashing is the one-thread
    signing's refusal."""
    asset, assertions, generator = grown_content("bound-timestamp", 16 << 20)
    config = scenario_signer(lab, SCENARIOS["bound-timestamp"], generator)
    hashed_on = []
    raw_binding = signer.compute_hard_binding

    def binding(*args):
        hashed_on.append(threading.current_thread())
        return raw_binding(*args)

    monkeypatch.setattr(signer, "compute_hard_binding", binding)
    threads = threading.active_count()
    sign_asset(asset, assertions, config)  # warm caches outside the traced call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        wire = serialize_asset(sign_asset(asset, assertions, config))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= len(wire) + 2**20
    assert threading.active_count() == threads

    tsa = config.tsa
    late = replace(config, tsa=timestamp.TimestampAuthority(tsa.key, tsa.chain, T0 + 50 * YEAR))
    with pytest.raises(ProvenanceError) as refused:
        sign_asset(asset, assertions, late)
    assert str(refused.value) == f"TSA certificate outside validity window at {T0 + 50 * YEAR}"
    assert threading.active_count() == threads
    assert len(hashed_on) == 3
    assert not any(t is threading.main_thread() or t.is_alive() for t in hashed_on)


def test_a_large_signing_raises_what_its_worker_raised(lab, monkeypatch):
    asset, assertions, generator = grown_content("honest", 2 << 20)
    config = scenario_signer(lab, SCENARIOS["honest"], generator)

    def binding(*args):
        raise ProvenanceError("hashing failed")

    monkeypatch.setattr(signer, "compute_hard_binding", binding)
    threads = threading.active_count()
    with pytest.raises(ProvenanceError, match="hashing failed"):
        sign_asset(asset, assertions, config)
    assert threading.active_count() == threads


def test_a_signing_below_the_threshold_hashes_on_the_calling_thread(lab, monkeypatch):
    """One logical byte short of the threshold, the binding is hashed on
    the calling thread, no worker starts, and the zero-copy layout is used."""
    around_image = grown_content("gps-excluded", 1)[0].size - 1
    asset, assertions, generator = grown_content(
        "gps-excluded", CONCURRENT_BINDING_BYTES - 1 - around_image
    )
    assert asset.size == CONCURRENT_BINDING_BYTES - 1
    hashed_on = []
    raw_binding = signer.compute_hard_binding

    def binding(*args):
        hashed_on.append(threading.current_thread())
        return raw_binding(*args)

    monkeypatch.setattr(signer, "compute_hard_binding", binding)
    threads = threading.active_count()
    config = scenario_signer(lab, SCENARIOS["gps-excluded"], generator)
    signed = sign_asset(asset, assertions, config)
    assert hashed_on == [threading.current_thread()]
    assert threading.active_count() == threads
    assert signed.wire is None


@pytest.mark.parametrize("image_bytes", [512, 2 << 20])
def test_a_repeated_exclude_label_is_refused_by_name_before_any_hashing(
    lab, monkeypatch, image_bytes
):
    """A label excluded twice is refused as such, a small signing and a
    large one alike, before the asset is hashed or a worker started."""
    asset, assertions, generator = grown_content("gps-excluded", image_bytes)
    config = replace(
        scenario_signer(lab, SCENARIOS["gps-excluded"], generator),
        exclude_labels=("meta.gps", "meta.gps"),
    )
    hashed = []
    monkeypatch.setattr(signer, "compute_hard_binding", lambda *args: hashed.append(args))
    threads = threading.active_count()
    with pytest.raises(ProvenanceError) as refused:
        sign_asset(asset, assertions, config)
    assert type(refused.value) is ProvenanceError
    assert str(refused.value) == "segment label 'meta.gps' excluded more than once"
    assert hashed == [] and threading.active_count() == threads
