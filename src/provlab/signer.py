"""Claim construction, manifest embedding, and fixture scenarios.

``sign_asset`` turns an unsigned asset into a signed one:

1. digest each assertion and compute the hard binding over the asset bytes,
   excluding the manifest-to-be plus any labelled segments; a label that is
   missing or excluded twice is refused before any hashing.  An asset of
   ``CONCURRENT_BINDING_BYTES`` or more is hashed later, in step 3;
2. settle the manifest's length.  The claim's binding records the
   manifest's own byte range among its exclusions, so the binding's encoding
   depends on that length.  Everything else in the manifest has a size known
   before signing (signatures are 64 bytes, digests 32, and a token's time is
   the TSA's clock), so one probe manifest with zeroed signatures and
   digests measures the bytes outside the binding, and the length is
   iterated to a fixed point on the binding's encoding alone (a nested
   record writes the same bytes wherever it sits).  The iteration starts
   from the kept bytes of the assertions and both chains, which the
   manifest holds whole: below the fixed point, so it climbs to the least
   one, and as a rule in the same integer-head band, so a small signing's
   loop builds two bindings (the probe's and the settled one), not three.
   Each round builds and writes one binding; the claim is built once,
   around the settled binding, so a signing builds two claims: the probe's
   and the signed one.  The binding digest is unaffected (the manifest
   region is excluded either way) and its size is fixed, so a large asset
   settles the length on a zeroed stand-in digest.  Integer heads only
   grow, so the length settles within a few rounds;
3. for a large asset only: a one-worker ``ThreadPoolExecutor`` hashes the
   binding while this thread writes the signed wire, with a zeroed manifest
   of the settled length in its slot, into one buffer
   (``container.reserve_manifest``); the settled binding takes its digest.
   Leaving the executor joins the worker whatever happens.  Both passes read
   every content byte and share nothing else, and ``hashlib`` drops the GIL;
4. sign the settled claim once (``credentials.claim_payload``).  An
   ``UNBOUND`` token is fetched afterwards over the signature digest and
   merely attached.  A ``BOUND`` token is fetched first over the claim digest
   and the signature covers ``claim || token-digest``, pinning the token;
5. encode the manifest, check that it has the settled length, and embed it
   immediately after the header segment: a small asset by the zero-copy
   layout (``container.embed_manifest``), a large one by filling the slot
   of the wire written in step 3.  Both give the same bytes.

Fixture scenarios live here too: deterministic signed assets exercising each
configuration the validator and attack toolkit care about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .container import (
    Asset,
    ByteRange,
    SegmentKind,
    build_asset,
    compute_hard_binding,
    embed_manifest,
    manifest_insert_offset,
    reserve_manifest,
)
from .credentials import (
    Assertion,
    BindingMode,
    Claim,
    ClaimSignature,
    HardBinding,
    Manifest,
    claim_payload,
    digest_assertion,
    encode_manifest,
)
from .crypto import DIGEST_SIZE, SIGNATURE_SIZE, SigningKey, digest, derive_stream_seed
from .errors import ProvenanceError
from .records import encode_record
from .timestamp import TimestampAuthority, TimestampToken
from .trust import Certificate, Identity, Usage
from .validator import Verdict
from .workspace import DAY, T0, YEAR, Workspace

CLAIM_SPEC_VERSION = "1.0"

CREATED_LABEL = "std.created"

# From this logical size on, the signed wire is written while a worker thread
# hashes the asset.  Below it, the executor's start, submit and shutdown and a
# zeroing pass over the buffer cost more than the copy the overlap hides
# (README, "Signing cost", gives the measured crossover).
CONCURRENT_BINDING_BYTES = 2 << 20


@dataclass(frozen=True)
class SignerConfig:
    generator_name: str
    key: SigningKey
    chain: tuple[Certificate, ...]
    binding_mode: BindingMode
    tsa: TimestampAuthority
    exclude_labels: tuple[str, ...] = ()
    clock: int = T0


def _build_claim_signature(claim_bytes: bytes, config: SignerConfig) -> ClaimSignature:
    """Sign the encoded claim once, as step 4 above describes."""
    mode = config.binding_mode
    bound = mode == BindingMode.BOUND
    token = config.tsa.issue(digest(claim_bytes)) if bound else None
    signature = config.key.sign(claim_payload(claim_bytes, mode, token))
    if not bound:
        token = config.tsa.issue(digest(signature))
    return ClaimSignature(config.chain, signature, token, mode)


def sign_asset(
    asset: Asset, assertions: list[Assertion] | tuple[Assertion, ...], config: SignerConfig
) -> Asset:
    """Sign ``asset`` and return it with the manifest embedded."""
    if asset.find_manifest() is not None:
        raise ProvenanceError("asset already carries a manifest")
    leaf = config.chain[0]
    if leaf.usage != Usage.LEAF_SIGNING:
        raise ProvenanceError(f"signing leaf has usage {leaf.usage.value}")
    if leaf.public_key != config.key.public_bytes:
        raise ProvenanceError("signing key does not match the leaf certificate")
    if not leaf.in_window(config.clock):
        raise ProvenanceError(f"signing certificate outside validity window at {config.clock}")

    assertions = list(assertions)
    if config.binding_mode == BindingMode.BOUND and not any(
        a.label == CREATED_LABEL for a in assertions
    ):
        assertions.append(Assertion(CREATED_LABEL, {"at": config.clock}))
    assertions.sort(key=lambda a: a.label)
    ordered = tuple(assertions)

    # one walk: each label's first segment, as ``Asset.find_label`` finds it
    first_ranges: dict[str, ByteRange] = {}
    for segment in asset.segments:
        first_ranges.setdefault(segment.label, segment.range)
    label_ranges = []
    for label in config.exclude_labels:
        if label not in first_ranges:
            raise ProvenanceError(f"no segment labelled {label!r}")
        if config.exclude_labels.count(label) > 1:
            raise ProvenanceError(f"segment label {label!r} excluded more than once")
        label_ranges.append(first_ranges[label])

    # The binding digest covers every byte outside the labelled exclusions;
    # the embedded manifest occupies exactly its own exclusion, so the digest
    # is independent of the manifest length.  A large asset settles the
    # length on a stand-in digest of the same size and is hashed later.
    concurrent = asset.size >= CONCURRENT_BINDING_BYTES
    if concurrent:
        binding_digest = bytes(DIGEST_SIZE)
    else:
        binding_digest = compute_hard_binding(asset, label_ranges)
    assertion_digests = tuple((a.label, digest_assertion(a)) for a in ordered)
    manifest_start = manifest_insert_offset(asset)

    def binding_for(manifest_length: int) -> HardBinding:
        exclusions = [ByteRange(manifest_start, manifest_length)]
        exclusions += [rng.moved(manifest_start, manifest_length) for rng in label_ranges]
        return HardBinding("sha-256", tuple(sorted(exclusions)), binding_digest)

    def claim_around(binding: HardBinding) -> Claim:
        return Claim(
            generator=config.generator_name,
            created_at=config.clock,
            assertion_digests=assertion_digests,
            binding=binding,
            spec_version=CLAIM_SPEC_VERSION,
        )

    # Every manifest byte outside the binding has a size fixed before
    # signing, so a probe with zeroed signatures and digests measures them.
    # The length starts from the kept bytes of the records the manifest
    # holds whole, the assertions and both chains: below ``rest``, so the
    # rounds still climb to the least fixed point.
    token = TimestampToken(
        bytes(DIGEST_SIZE), config.tsa.clock, config.tsa.chain, bytes(SIGNATURE_SIZE)
    )
    held = (*ordered, *config.chain, *config.tsa.chain)
    manifest_length = sum(len(encode_record(record)) for record in held)
    binding = binding_for(manifest_length)
    probe = Manifest(
        claim_around(binding),
        ordered,
        ClaimSignature(config.chain, bytes(SIGNATURE_SIZE), token, config.binding_mode),
    )
    rest = len(encode_manifest(probe)) - len(encode_record(binding))

    for _ in range(10):
        settled = rest + len(encode_record(binding))
        if settled == manifest_length:
            break
        manifest_length = settled
        binding = binding_for(manifest_length)
    else:
        raise RuntimeError("manifest size did not converge")
    if concurrent:
        from concurrent.futures import ThreadPoolExecutor

        # the block joins the worker even if ``reserve_manifest`` raises
        with ThreadPoolExecutor(1, "provlab-hard-binding") as worker:
            hashing = worker.submit(compute_hard_binding, asset, label_ranges)
            fill = reserve_manifest(asset, manifest_length)
        binding_digest = hashing.result()
        binding = binding_for(manifest_length)
    claim = claim_around(binding)
    manifest = Manifest(claim, ordered, _build_claim_signature(encode_record(claim), config))
    manifest_bytes = encode_manifest(manifest)
    if len(manifest_bytes) != manifest_length:
        raise RuntimeError(
            f"manifest is {len(manifest_bytes)} bytes, not the settled {manifest_length}"
        )
    return fill(manifest_bytes) if concurrent else embed_manifest(asset, manifest_bytes)


# ---------------------------------------------------------------------------
# fixture scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    binding_mode: BindingMode
    leaf_serial: int
    leaf_lifetime: int
    intended_policy: str
    # verdict each preset should give the honest signing at the default time
    expected: dict[str, Verdict]
    exclude_labels: tuple[str, ...] = ()
    description: str = ""


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "honest",
            BindingMode.UNBOUND,
            101,
            2 * YEAR,
            "spec",
            expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.REJECTED},
            description="baseline signed asset, unbound token, manifest-only exclusion",
        ),
        Scenario(
            "gps-excluded",
            BindingMode.UNBOUND,
            102,
            2 * YEAR,
            "spec",
            expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.REJECTED},
            exclude_labels=("meta.gps",),
            description="location metadata segment sits inside a declared exclusion",
        ),
        Scenario(
            "revocable",
            BindingMode.UNBOUND,
            103,
            2 * YEAR,
            "spec",
            expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.REJECTED},
            description="signed by a leaf whose serial the attack toolkit later revokes",
        ),
        Scenario(
            "short-lived-cert",
            BindingMode.BOUND,
            104,
            30 * DAY,
            "hardened",
            expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.ACCEPTED},
            description="30-day signing certificate for expiry experiments",
        ),
        Scenario(
            "unbound-timestamp",
            BindingMode.UNBOUND,
            105,
            2 * YEAR,
            "spec",
            expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.REJECTED},
            description="token rides outside the signed payload and can be swapped",
        ),
        Scenario(
            "bound-timestamp",
            BindingMode.BOUND,
            106,
            2 * YEAR,
            "hardened",
            expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.ACCEPTED},
            description="bound signature pinning a token over the claim digest",
        ),
    )
}

DEFAULT_VALIDATION_TIME = T0 + DAY

GPS_TEXT_WIDTH = 22  # "+DD.dddddd,-DDD.dddddd"


def format_gps(lat: float, lon: float) -> str:
    text = f"{lat:+010.6f},{lon:+011.6f}"
    if len(text) != GPS_TEXT_WIDTH:
        raise ValueError(f"coordinates do not fit the fixed width: {text!r}")
    return text


def build_scenario_content(
    scenario: Scenario, seed: int
) -> tuple[Asset, list[Assertion], str]:
    """Deterministic unsigned asset and assertions for a scenario."""
    rng = random.Random(derive_stream_seed(seed, f"fixture/{scenario.name}"))
    generator = f"labcam-{scenario.name}"
    lat = round(rng.uniform(-80.0, 80.0), 6)
    lon = round(rng.uniform(-170.0, 170.0), 6)
    gps = "meta.gps" in scenario.exclude_labels
    parts = [(SegmentKind.HEADER, "header", b"PVH0" + rng.randbytes(12))]
    if gps:
        parts.append((SegmentKind.METADATA, "meta.gps", format_gps(lat, lon).encode("ascii")))
    parts.append(
        (SegmentKind.METADATA, "meta.note", f"scenario={scenario.name}".encode("ascii"))
    )
    parts.append((SegmentKind.IMAGE_DATA, "image", rng.randbytes(512)))
    parts.append((SegmentKind.TRAILER, "trailer", rng.randbytes(8)))
    assertions = [
        Assertion("std.actions", {"action": "captured", "agent": generator}),
        Assertion(CREATED_LABEL, {"at": T0}),
    ]
    if gps:
        assertions.append(Assertion("std.gps", {"lat": lat, "lon": lon}))
    return build_asset(parts), assertions, generator


def scenario_identity(workspace: Workspace, scenario: Scenario) -> Identity:
    return workspace.issue_leaf(
        subject=f"labcam-{scenario.name}",
        serial=scenario.leaf_serial,
        key_role=f"leaf/{scenario.name}",
        not_after=T0 + scenario.leaf_lifetime,
    )


def scenario_signer(workspace: Workspace, scenario: Scenario, generator: str) -> SignerConfig:
    """The configuration that signs ``scenario``'s content in ``workspace``."""
    identity = scenario_identity(workspace, scenario)
    return SignerConfig(
        generator_name=generator,
        key=identity.key,
        chain=identity.chain,
        binding_mode=scenario.binding_mode,
        exclude_labels=scenario.exclude_labels,
        tsa=workspace.tsa(),
        clock=workspace.clock,
    )


def make_fixture(workspace: Workspace, scenario_name: str, seed: int | None = None) -> Asset:
    """Sign one scenario's content in memory; nothing is written or saved.

    Signing issues the scenario's leaf in ``workspace``, so a caller that
    keeps the result saves the workspace.
    """
    scenario = SCENARIOS.get(scenario_name)
    if scenario is None:
        raise ProvenanceError(f"no scenario named {scenario_name!r}")
    seed = workspace.seed if seed is None else seed
    if not 0 <= seed < 2**64:
        raise ProvenanceError(f"content seed {seed} is outside 0 .. 2**64-1")
    asset, assertions, generator = build_scenario_content(scenario, seed)
    return sign_asset(asset, assertions, scenario_signer(workspace, scenario, generator))
