"""Attack toolkit: minimal mutations that flip validation outcomes.

Each attack returns an :class:`AttackOutcome` carrying the mutated asset and
the verdict each policy preset is *expected* to produce.  The expectations
are written down here, by hand, from the semantics of the mutation — they
are never computed by running the validator, so the test suite can compare
the two independently.

Two attacks change no bytes at all: ``sign-with-revoked`` changes authority
state (the serial is revoked after signing) and ``expiry-timewarp`` changes
only the validation time.  Four are byte-minimal: they touch one token, one
excluded segment, or one whole manifest segment, which
``planted-redaction-record`` grows by one unsigned assertion.
``token-transplant`` is the key holder's attack: it re-signs the claim
around a token of its choosing.

:data:`ATTACKS` is the one registry: a row per attack names the scenarios it
applies to and the function that applies it inside a workspace with its
trip parameters.  The corpus, the ``attack`` command and :data:`ATTACK_MATRIX`
all read it, so a new attack is one row here.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable

from .container import (
    Asset,
    extract_manifest,
    replace_manifest,
    splice_bytes,
    strip_manifest,
)
from .credentials import (
    Assertion, BindingMode, ClaimSignature, claim_payload, decode_manifest, encode_manifest,
)
from .crypto import digest
from .errors import ProvenanceError
from .records import encode_record
from .signer import (
    SCENARIOS, SignerConfig, build_scenario_content, format_gps, scenario_identity,
    scenario_signer, sign_asset,
)
from .timestamp import TimestampAuthority, archival_extend
from .trust import Authority, TrustList, verify_chain
from .validator import Verdict
from .workspace import DAY, T0, YEAR, Workspace

# trip parameters: the corpus's, and the ``attack`` command's defaults
BACKDATE_DELTA = 10 * YEAR
REVOKE_AT = T0 + 30 * DAY
REVOKED_VALIDATION_TIME = T0 + 210 * DAY
ARCHIVAL_EXTEND_AT = T0 + 15 * DAY
TIMEWARP_VALIDATION_TIME = T0 + YEAR
FAKE_GPS = (48.8584, 2.2945)  # nowhere near any seeded fixture coordinate
TRANSPLANT_IMPRINT = digest(b"some other document")  # what the transplanted token stamps


@dataclass(frozen=True)
class AttackOutcome:
    name: str
    mutated: Asset
    expected: dict[str, Verdict]  # policy preset name -> expected verdict
    notes: str
    validation_time: int | None = None  # None: validate at the usual time


def attack_timestamp_replace(
    asset: Asset, tsa: TimestampAuthority, new_time: int, trust: TrustList
) -> AttackOutcome:
    """Swap (or plant) the timestamp token on an unbound claim signature.

    The token covers only the digest of the signature bytes, so any party —
    not just the signer — can ask a TSA for a fresh token over that digest
    and splice it in.  With a trusted TSA willing to state ``new_time``, the
    asset's displayed time moves anywhere inside the TSA window.
    """
    manifest = decode_manifest(extract_manifest(asset))
    claim_signature = manifest.claim_signature
    if claim_signature.binding_mode == BindingMode.BOUND:
        raise ProvenanceError(
            "the claim signature pins its token; a replacement breaks the signature"
        )
    if not verify_chain(tsa.chain, trust, new_time).valid:
        raise ProvenanceError(
            "replacement token would not chain to a trusted root at the chosen time"
        )
    token = tsa.issue(digest(claim_signature.signature), clock=new_time)
    mutated_manifest = replace(
        manifest, claim_signature=replace(claim_signature, timestamp=token)
    )
    mutated = replace_manifest(asset, encode_manifest(mutated_manifest))
    return AttackOutcome(
        name="timestamp-replace",
        mutated=mutated,
        expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.REJECTED},
        notes=(
            f"token re-minted at {new_time} over the unchanged signature digest; "
            "nothing the claim signature covers has moved"
        ),
    )


def attack_exclusion_mutate(asset: Asset, label: str, new_payload: bytes) -> AttackOutcome:
    """Overwrite a segment that the claim's own exclusions leave unhashed.

    The hard-binding digest is computed over everything *outside* the
    declared exclusions, so bytes inside them can be rewritten freely
    without touching the digest.  Length must match: exclusions are offsets.
    """
    manifest = decode_manifest(extract_manifest(asset))
    segment = asset.find_label(label)
    if segment is None:
        raise ProvenanceError(f"no segment labelled {label!r}")
    declared = manifest.claim.binding.exclusions
    if not any(rng.contains(segment.range) for rng in declared):
        raise ProvenanceError(
            f"segment {label!r} is covered by the hard binding; a splice would be detected"
        )
    if len(new_payload) != segment.range.length:
        raise ProvenanceError(
            f"replacement is {len(new_payload)} bytes, segment holds {segment.range.length}"
        )
    mutated = splice_bytes(asset, segment.range, bytes(new_payload))
    return AttackOutcome(
        name="exclusion-mutate",
        mutated=mutated,
        expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.REJECTED},
        notes=(
            f"segment {label!r} rewritten in place inside a declared exclusion; "
            "the binding digest is bit-identical"
        ),
    )


def attack_sign_with_revoked(
    content: Asset,
    assertions,
    config: SignerConfig,
    authority: Authority,
    revoke_at: int,
    validation_time: int,
) -> AttackOutcome:
    """Sign honestly, then keep using the credential after revocation.

    No asset byte changes: the compromise lives in authority state.  A
    validator that never asks about revocation keeps accepting the
    signature for the rest of the certificate's lifetime.
    """
    signed = sign_asset(content, assertions, config)
    authority.revoke(config.chain[0].serial, revoke_at)
    return AttackOutcome(
        name="sign-with-revoked",
        mutated=signed,
        expected={"spec": Verdict.ACCEPTED, "hardened": Verdict.REJECTED},
        notes=(
            f"serial {config.chain[0].serial} revoked at {revoke_at}; "
            f"asset unchanged, validated at {validation_time}"
        ),
        validation_time=validation_time,
    )


def attack_expiry_timewarp(asset: Asset, validation_time: int) -> AttackOutcome:
    """Validate untouched bytes after the signing certificate expires.

    Under an at-validation-time expiry rule a perfectly honest asset decays
    into UNVERIFIABLE.  A policy that anchors expiry at the timestamped
    moment — bridged forward by archival tokens — keeps accepting it, but
    only when the token is bound; an unbound token cannot carry that weight.
    """
    manifest = decode_manifest(extract_manifest(asset))
    leaf = manifest.claim_signature.signer_chain[0]
    if leaf.in_window(validation_time):
        raise ValueError(
            f"{validation_time} is inside the signing certificate window; not a timewarp"
        )
    bridged = bool(manifest.archival_tokens)
    if manifest.claim_signature.binding_mode == BindingMode.BOUND:
        hardened = Verdict.ACCEPTED if bridged else Verdict.UNVERIFIABLE
    else:
        hardened = Verdict.REJECTED
    return AttackOutcome(
        name="expiry-timewarp",
        mutated=asset,
        expected={"spec": Verdict.UNVERIFIABLE, "hardened": hardened},
        notes=(
            f"no byte changed; validated at {validation_time}, after leaf expiry "
            f"at {leaf.not_after}; archival tokens present: {bridged}"
        ),
        validation_time=validation_time,
    )


def attack_strip_manifest(asset: Asset) -> AttackOutcome:
    """Remove the manifest segment wholesale.

    Provenance is advisory: an asset with no manifest is indistinguishable
    from one that never had any, so both presets can only report
    UNVERIFIABLE, never REJECTED.  This is the floor any opt-in provenance
    format lives with.
    """
    mutated = strip_manifest(asset)
    return AttackOutcome(
        name="strip-manifest",
        mutated=mutated,
        expected={"spec": Verdict.UNVERIFIABLE, "hardened": Verdict.UNVERIFIABLE},
        notes="manifest segment removed; remaining bytes untouched",
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Attack:
    """One attack.  ``apply(workspace, scenario, ...)`` names what else it
    uses: ``asset`` if it mutates a signing of the scenario (without it, it
    re-signs the scenario), then its trip parameters, each defaulting to the
    corpus's.  ``prepare`` readies the fixture before the corpus attacks it.
    """

    name: str
    scenarios: tuple[str, ...]
    apply: Callable[..., AttackOutcome]
    prepare: Callable[[Workspace, Asset], Asset] | None = None


def _timestamp_replace(
    workspace: Workspace, scenario: str, asset: Asset, *, time: int = T0 - BACKDATE_DELTA
) -> AttackOutcome:
    return attack_timestamp_replace(asset, workspace.tsa(), time, workspace.trust)


def _exclusion_mutate(
    workspace: Workspace,
    scenario: str,
    asset: Asset,
    *,
    label: str = "meta.gps",
    payload: str = format_gps(*FAKE_GPS),
) -> AttackOutcome:
    return attack_exclusion_mutate(asset, label, payload.encode("ascii"))


def _sign_with_revoked(workspace: Workspace, scenario: str) -> AttackOutcome:
    spec = SCENARIOS[scenario]
    content, assertions, generator = build_scenario_content(spec, workspace.seed)
    return attack_sign_with_revoked(
        content, assertions, scenario_signer(workspace, spec, generator),
        workspace.signing, REVOKE_AT, REVOKED_VALIDATION_TIME,
    )


def _archive(workspace: Workspace, asset: Asset) -> Asset:
    return archival_extend(asset, workspace.tsa(), clock=ARCHIVAL_EXTEND_AT)


def _expiry_timewarp(
    workspace: Workspace, scenario: str, asset: Asset, *, time: int = TIMEWARP_VALIDATION_TIME
) -> AttackOutcome:
    return attack_expiry_timewarp(asset, time)


def _token_transplant(
    workspace: Workspace, scenario: str, asset: Asset, *, time: int = T0 - BACKDATE_DELTA
) -> AttackOutcome:
    """Re-sign the claim around a token minted over unrelated bytes.

    The signing key's holder asks a trusted TSA to stamp some other
    document at ``time`` and signs ``claim || token-digest`` around that
    token.  The bound signature verifies, so only the token's own imprint
    can show that its time was never stated for this claim.
    """
    key = scenario_identity(workspace, SCENARIOS[scenario]).key
    manifest = decode_manifest(extract_manifest(asset))
    chain = manifest.claim_signature.signer_chain
    if key.public_bytes != chain[0].public_key:
        raise ProvenanceError("key does not match the signing leaf; the signature would break")
    token = workspace.tsa().issue(TRANSPLANT_IMPRINT, clock=time)
    signature = key.sign(claim_payload(encode_record(manifest.claim), BindingMode.BOUND, token))
    claim_signature = ClaimSignature(chain, signature, token, BindingMode.BOUND)
    mutated_manifest = replace(manifest, claim_signature=claim_signature)
    return AttackOutcome(
        name="token-transplant",
        mutated=replace_manifest(asset, encode_manifest(mutated_manifest)),
        expected={"spec": Verdict.REJECTED, "hardened": Verdict.REJECTED},
        notes=(
            f"claim re-signed by its key holder around a token stamped at {time} "
            "over an unrelated digest"
        ),
    )


def _strip_manifest(workspace: Workspace, scenario: str, asset: Asset) -> AttackOutcome:
    return attack_strip_manifest(asset)


def _planted_redaction_record(
    workspace: Workspace, scenario: str, asset: Asset
) -> AttackOutcome:
    """Append an assertion labelled ``prov.redaction`` that the claim does not list.

    No key is needed: the planted assertion names a redaction and a
    redactor, and nothing signs it.  A validator that leaves the label out
    of the claim's digest check accepts it as part of the signed manifest.
    """
    manifest = decode_manifest(extract_manifest(asset))
    planted = Assertion(
        "prov.redaction", {"target": "std.actions", "redactor": "Trusted Newsroom Legal Desk"}
    )
    mutated_manifest = replace(manifest, assertions=manifest.assertions + (planted,))
    return AttackOutcome(
        name="planted-redaction-record",
        mutated=replace_manifest(asset, encode_manifest(mutated_manifest)),
        expected={"spec": Verdict.REJECTED, "hardened": Verdict.REJECTED},
        notes="an unsigned 'prov.redaction' assertion appended that the claim does not list",
    )


ATTACKS: dict[str, Attack] = {
    attack.name: attack
    for attack in (
        Attack(
            "timestamp-replace",
            ("honest", "gps-excluded", "revocable", "unbound-timestamp"),
            _timestamp_replace,
        ),
        Attack("exclusion-mutate", ("gps-excluded",), _exclusion_mutate),
        Attack("sign-with-revoked", ("revocable",), _sign_with_revoked),
        Attack("expiry-timewarp", ("short-lived-cert",), _expiry_timewarp, prepare=_archive),
        Attack("strip-manifest", tuple(SCENARIOS), _strip_manifest),
        Attack("token-transplant", ("bound-timestamp",), _token_transplant),
        Attack("planted-redaction-record", ("bound-timestamp",), _planted_redaction_record),
    )
}

# which fixture scenarios each attack meaningfully applies to
ATTACK_MATRIX = {name: attack.scenarios for name, attack in ATTACKS.items()}


def attack_inputs(name: str) -> tuple[str, ...]:
    """What attack ``name`` uses beyond the workspace and scenario: ``asset``
    if it mutates one, then its trip parameters."""
    if name not in ATTACKS:
        raise ProvenanceError(f"unknown attack {name!r}")
    return tuple(inspect.signature(ATTACKS[name].apply).parameters)[2:]


def apply_attack(
    workspace: Workspace,
    name: str,
    scenario: str,
    asset: Asset | None = None,
    **trip: object,
) -> AttackOutcome:
    """Apply attack ``name`` to ``asset``, a signing of ``scenario``, without
    the row's ``prepare`` step (that is the corpus's).

    Trip parameters default to the corpus's; ``time`` overrides the token
    time (timestamp-replace, token-transplant) or the warp target
    (expiry-timewarp), and ``label``/``payload`` the segment
    exclusion-mutate overwrites; a trip parameter the attack does not use
    (see :func:`attack_inputs`) raises TypeError.  An attack that does not
    use ``asset`` ignores it.
    """
    if "asset" in attack_inputs(name):
        trip["asset"] = asset
    return ATTACKS[name].apply(workspace, scenario, **trip)
