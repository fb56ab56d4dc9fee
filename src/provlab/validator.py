"""Policy-driven validation.

``validate`` accepts arbitrary bytes and always returns a report, never an
exception.  The checks are the rows of one ordered table, ``_CHECKS``, of
``(name, gate, check)``: a gate returns a SKIPPED detail when its check
cannot or need not run, a check returns ``(outcome, detail)``, and a check
that raises becomes FAIL "unexpected failure: ...".  The walk over the table
records each result, outcome and failure as its check runs.  Every report lists
all eleven checks in this order, so two reports compare check-by-check:

    parse, manifest-decode, spec-version, assertion-digests, hard-binding,
    exclusion-audit, chain, signature, revocation, timestamp,
    redaction-audit

The policy decides severity, not the evidence: the same asset can be
ACCEPTED under one knob setting and REJECTED under another.  Expiry is the
one failure that is *unverifiable* rather than *rejected* — an expired
credential is not a forged one.

The displayed time always carries its provenance: ``SIGNED`` (a bound token
pinned by the claim signature), ``UNBOUND_TOKEN`` (a token anyone could have
swapped), or ``ABSENT``.  The human rendering never prints a bare date.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property

from .container import (
    Asset,
    Buffer,
    ByteRange,
    Segment,
    SegmentKind,
    compute_hard_binding,
    parse_asset,
)
from .credentials import (
    BindingMode,
    Manifest,
    Redaction,
    claim_payload,
    decode_manifest,
    digest_assertion,
    encode_manifest,
)
from .crypto import digest, verify_once
from .errors import ProvenanceError, ServiceUnreachable
from .records import encode_record, record_from_value, record_value, signed_bytes
from .statusservice import query_status
from .timestamp import verify_token
from .trust import (
    CertStatus,
    ChainStatus,
    RevocationList,
    TrustList,
    Usage,
    verify_chain,
    verify_crl,
)

REPORT_SCHEMA = "prov-report/1"

GOAL_TITLES = {
    "G1": "claim-tamper-evidence",
    "G2": "weak-file-integrity",
    "G3": "timestamp-agreement",
    "G4": "validator-consistency",
    "G5": "strong-file-integrity",
}

GOAL_NAMES = tuple(GOAL_TITLES)


class RevocationMode(str, Enum):
    NONE = "NONE"
    STATUS_SERVICE_SOFT_FAIL = "STATUS_SERVICE_SOFT_FAIL"
    STATUS_SERVICE_HARD_FAIL = "STATUS_SERVICE_HARD_FAIL"
    CRL_REQUIRED = "CRL_REQUIRED"


class TimestampRule(str, Enum):
    ACCEPT_UNBOUND = "ACCEPT_UNBOUND"
    REQUIRE_BOUND = "REQUIRE_BOUND"


class FileIntegrity(str, Enum):
    WEAK = "WEAK"
    STRONG = "STRONG"


class ExpiryRule(str, Enum):
    AT_VALIDATION_TIME = "AT_VALIDATION_TIME"
    AT_TIMESTAMP_TIME_WITH_ARCHIVAL_CHAIN = "AT_TIMESTAMP_TIME_WITH_ARCHIVAL_CHAIN"


class Verdict(str, Enum):
    ACCEPTED = "ACCEPTED"
    ACCEPTED_WITH_REDACTION = "ACCEPTED_WITH_REDACTION"
    REJECTED = "REJECTED"
    UNVERIFIABLE = "UNVERIFIABLE"


class CheckOutcome(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"


class GoalStatus(str, Enum):
    HELD = "HELD"
    VIOLATED = "VIOLATED"
    NOT_EVALUATED = "NOT_EVALUATED"


class TimeProvenance(str, Enum):
    SIGNED = "SIGNED"
    UNBOUND_TOKEN = "UNBOUND_TOKEN"
    ABSENT = "ABSENT"


@dataclass(frozen=True)
class ValidationPolicy:
    name: str
    trust: TrustList
    validation_time: int
    spec_version_required: str | None = None
    revocation_mode: RevocationMode = RevocationMode.NONE
    timestamp_rule: TimestampRule = TimestampRule.ACCEPT_UNBOUND
    file_integrity: FileIntegrity = FileIntegrity.WEAK
    expiry_rule: ExpiryRule = ExpiryRule.AT_VALIDATION_TIME
    crl: RevocationList | None = None
    status_endpoint: tuple[str, int] | None = None


def spec_policy(trust: TrustList, validation_time: int, **overrides) -> ValidationPolicy:
    """The permissive preset: what a faithful reading of the format demands
    and nothing more, which is every knob at its default.  Keyword overrides
    replace individual knobs."""
    settings = {"name": "spec", **overrides}
    return ValidationPolicy(trust=trust, validation_time=validation_time, **settings)


_HARDENED_KNOBS = dict(
    revocation_mode=RevocationMode.CRL_REQUIRED,
    timestamp_rule=TimestampRule.REQUIRE_BOUND,
    file_integrity=FileIntegrity.STRONG,
    expiry_rule=ExpiryRule.AT_TIMESTAMP_TIME_WITH_ARCHIVAL_CHAIN,
)


def hardened_policy(trust: TrustList, validation_time: int, **overrides) -> ValidationPolicy:
    """The strict preset: every knob at its defensive setting.  Keyword
    overrides replace individual knobs."""
    settings = {"name": "hardened", **_HARDENED_KNOBS, **overrides}
    return ValidationPolicy(trust=trust, validation_time=validation_time, **settings)


@dataclass(frozen=True)
class CheckResult:
    name: str
    outcome: CheckOutcome
    detail: str = ""


@dataclass(frozen=True)
class DisplayedTime:
    epoch: int | None
    provenance: TimeProvenance


@dataclass(frozen=True)
class MetadataItem:
    label: str
    text: str
    protected: bool


@dataclass(frozen=True)
class ValidationReport:
    policy: str
    validation_time: int
    verdict: Verdict
    checks: tuple[CheckResult, ...]
    goals: dict[str, GoalStatus]
    displayed_time: DisplayedTime
    generator: str | None = None
    claimed_created_at: int | None = None
    spec_version: str | None = None
    metadata: tuple[MetadataItem, ...] = ()
    redacted_labels: tuple[str, ...] = ()
    malformed: bool = False

    def __post_init__(self) -> None:
        if self.goals.keys() != set(GOAL_NAMES):
            raise ValueError(f"goals must be exactly {', '.join(GOAL_NAMES)}")

    def check(self, name: str) -> CheckResult:
        for result in self.checks:
            if result.name == name:
                return result
        raise KeyError(name)


# the exit-code contract of ``validate`` and the corpus index
EXIT_BY_VERDICT = {
    Verdict.ACCEPTED: 0,
    Verdict.ACCEPTED_WITH_REDACTION: 0,
    Verdict.REJECTED: 2,
    Verdict.UNVERIFIABLE: 3,
}


def exit_code_for(report: ValidationReport) -> int:
    """The verdict's exit code, except 4 for unverifiable malformed input."""
    if report.malformed and report.verdict is Verdict.UNVERIFIABLE:
        return 4
    return EXIT_BY_VERDICT[report.verdict]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_UNVERIFIABLE_CHECKS = frozenset({"parse", "manifest-decode"})


class _Run:
    """Mutable state threaded through one validation pass."""

    def __init__(self, data: Buffer, policy: ValidationPolicy):
        self.data = data
        self.policy = policy
        self.outcomes: dict[str, CheckOutcome] = {}  # each check's, as it is recorded
        self.asset: Asset | None = None
        self.manifest: Manifest | None = None
        self.claim_bytes = b""  # the manifest's claim, encoded: what is signed and stamped
        self.manifest_segment: Segment | None = None
        self.effective_exclusions: tuple[ByteRange, ...] | None = None
        self.tombstones: tuple[str, ...] = ()
        self.chain_expired = False
        self.malformed = False
        self.displayed = DisplayedTime(None, TimeProvenance.ABSENT)

    @cached_property
    def vouched_records(self) -> list[Redaction]:
        """The redactions their own countersignatures vouch for: the leaf may
        sign, the chain is valid at the validation time and the signature
        verifies over its :func:`~.records.signed_bytes`.  Both audits read this one
        list, so each countersignature is judged once."""
        return [
            redaction
            for redaction in self.manifest.redaction_signatures
            if (chain := redaction.signer_chain)
            and chain[0].usage == Usage.LEAF_SIGNING
            and verify_chain(chain, self.policy.trust, self.policy.validation_time).valid
            and verify_once(chain[0].public_key, signed_bytes(redaction), redaction.signature)
        ]


def _effective_exclusions(
    declared: tuple[ByteRange, ...], manifest_segment: Segment
) -> tuple[ByteRange, ...] | None:
    """Project signing-time exclusions onto the current asset.

    Archival extension legitimately grows the manifest segment after the
    claim was signed; the declared manifest exclusion keeps its start but
    stretches to the current manifest length, and every exclusion beyond it
    shifts by the same delta.  Returns None when no declared exclusion lines
    up with the manifest segment at all.
    """
    current = manifest_segment.range
    anchor = next((rng for rng in declared if rng.start == current.start), None)
    if anchor is None:
        return None
    delta = current.length - anchor.length
    return tuple(
        sorted(current if rng == anchor else rng.moved(anchor.end, delta) for rng in declared)
    )


# -- gates: the SKIPPED detail, or None when the check runs --------------------

def _needs_asset(run: _Run) -> str | None:
    return "no parsed asset" if run.asset is None else None


def _needs_manifest(run: _Run) -> str | None:
    return "no manifest" if run.manifest is None else None


def _exclusion_audit_gate(run: _Run) -> str | None:
    if run.policy.file_integrity == FileIntegrity.WEAK:
        return "weak integrity honours declared exclusions"
    return _needs_manifest(run)


def _revocation_gate(run: _Run) -> str | None:
    if run.policy.revocation_mode == RevocationMode.NONE:
        return "revocation not checked"
    if run.manifest is None or not run.manifest.claim_signature.signer_chain:
        return "no manifest"
    return None


# -- checks: each returns (outcome, detail) ------------------------------------

_Result = tuple[CheckOutcome, str]


def _check_parse(run: _Run) -> _Result:
    # the asset reads run.data in place; it lives no longer than the run
    try:
        run.asset = parse_asset(run.data)
    except ProvenanceError as exc:
        return CheckOutcome.FAIL, str(exc)
    return CheckOutcome.PASS, f"{len(run.asset.segments)} segments"


def _check_manifest_decode(run: _Run) -> _Result:
    segment = run.asset.find_manifest()
    if segment is None:
        return CheckOutcome.FAIL, "no manifest segment"
    run.manifest_segment = segment
    try:
        run.manifest = decode_manifest(run.asset.payload(segment))
    except ProvenanceError as exc:
        run.malformed = True
        return CheckOutcome.FAIL, f"undecodable manifest: {exc}"
    run.claim_bytes = encode_record(run.manifest.claim)
    return CheckOutcome.PASS, ""


def _check_spec_version(run: _Run) -> _Result:
    required = run.policy.spec_version_required
    found = run.manifest.claim.spec_version
    if required is None:
        return CheckOutcome.PASS, f"claim format {found} (not constrained)"
    if found == required:
        return CheckOutcome.PASS, f"claim format {found}"
    return CheckOutcome.FAIL, f"claim format {found}, policy requires {required}"


def _check_assertion_digests(run: _Run) -> _Result:
    manifest = run.manifest
    claim = manifest.claim
    problems: list[str] = []
    for assertion in manifest.assertions:
        expected = claim.digest_for(assertion.label)
        if expected is None:
            problems.append(f"assertion {assertion.label!r} not listed in the claim")
        elif digest_assertion(assertion) != expected:
            problems.append(f"assertion {assertion.label!r} digest mismatch")
    present = {a.label for a in manifest.assertions}
    tombstones = tuple(
        label for label, _ in claim.assertion_digests if label not in present
    )
    run.tombstones = tombstones
    if problems:
        return CheckOutcome.FAIL, "; ".join(problems)
    detail = f"{len(manifest.assertions)} assertions verified"
    if tombstones:
        detail += f", {len(tombstones)} REDACTED ({', '.join(tombstones)})"
    return CheckOutcome.PASS, detail


def _check_hard_binding(run: _Run) -> _Result:
    binding = run.manifest.claim.binding
    if binding.algorithm != "sha-256":
        return CheckOutcome.FAIL, f"unsupported algorithm {binding.algorithm!r}"
    effective = _effective_exclusions(binding.exclusions, run.manifest_segment)
    if effective is None:
        return CheckOutcome.FAIL, "manifest range not excluded by the claim"
    run.effective_exclusions = effective
    try:
        recomputed = compute_hard_binding(run.asset, effective)
    except ProvenanceError as exc:
        return CheckOutcome.FAIL, f"exclusions unusable: {exc}"
    if recomputed.digest != binding.digest:
        return CheckOutcome.FAIL, "recomputed digest differs from the declared digest"
    return CheckOutcome.PASS, f"digest match over {len(effective)} exclusion(s)"


def _check_exclusion_audit(run: _Run) -> _Result:
    if run.effective_exclusions is None:
        return CheckOutcome.FAIL, "exclusions could not be resolved"
    vouched = {redaction.target for redaction in run.vouched_records}
    # segments and exclusions both run by start, so one walk finds the
    # segment, if any, that starts where each exclusion starts
    segments, at = run.asset.segments, 0
    unaccounted: list[str] = []
    admitted: list[str] = []
    for rng in run.effective_exclusions:
        if run.manifest_segment.range.contains(rng):
            continue
        while at < len(segments) and segments[at].range.start < rng.start:
            at += 1
        segment = segments[at] if at < len(segments) else None
        if segment is None or segment.range != rng:
            unaccounted.append(f"[{rng.start},{rng.length})")
        else:
            (admitted if segment.label in vouched else unaccounted).append(segment.label)
    if unaccounted:
        return (
            CheckOutcome.FAIL,
            "non-manifest exclusions without countersigned redaction: "
            + ", ".join(unaccounted),
        )
    detail = "manifest range and countersigned exclusion(s): " + ", ".join(admitted)
    return CheckOutcome.PASS, detail if admitted else "only the manifest range is excluded"


def _archival_bridge(run: _Run) -> str | None:
    """Try to bridge an expired signing chain with archival tokens.

    One walk, newest token first.  Token i must cover the digest of the
    manifest as it stood before token i was appended.  It is anchored if its
    TSA chain is valid now, or if token i + 1 is anchored and token i's chain
    was valid at token i + 1's gen_time.  The oldest token must be anchored,
    and the signing chain valid at its gen_time.  Returns a detail string on
    success, None on failure.
    """
    manifest = run.manifest
    trust, validation_time = run.policy.trust, run.policy.validation_time
    tokens = manifest.archival_tokens
    anchored = False
    for index in reversed(range(len(tokens))):
        token = tokens[index]
        prefix = replace(manifest, archival_tokens=tokens[:index])
        if not verify_token(token, digest(encode_manifest(prefix)), trust).valid:
            return None
        anchored = verify_chain(token.tsa_chain, trust, validation_time).valid or (
            anchored and verify_chain(token.tsa_chain, trust, tokens[index + 1].gen_time).valid
        )
    signing_chain = manifest.claim_signature.signer_chain
    if not anchored or not verify_chain(signing_chain, trust, tokens[0].gen_time).valid:
        return None
    return (
        f"expired chain bridged by {len(tokens)} archival token(s); "
        f"signing chain valid at {tokens[0].gen_time}"
    )


def _check_chain(run: _Run) -> _Result:
    policy = run.policy
    chain = run.manifest.claim_signature.signer_chain
    verdict = verify_chain(chain, policy.trust, policy.validation_time)
    if verdict.valid:
        return CheckOutcome.PASS, f"valid at {policy.validation_time}"
    if verdict.status == ChainStatus.EXPIRED:
        if policy.expiry_rule == ExpiryRule.AT_TIMESTAMP_TIME_WITH_ARCHIVAL_CHAIN:
            bridged = _archival_bridge(run)
            if bridged is not None:
                return CheckOutcome.PASS, bridged
        run.chain_expired = True
        return CheckOutcome.FAIL, verdict.detail
    return CheckOutcome.FAIL, f"{verdict.status.value}: {verdict.detail}"


def _check_signature(run: _Run) -> _Result:
    claim_signature = run.manifest.claim_signature
    if not claim_signature.signer_chain:
        return CheckOutcome.FAIL, "empty signer chain"
    leaf = claim_signature.signer_chain[0]
    if leaf.usage != Usage.LEAF_SIGNING:
        return CheckOutcome.FAIL, f"leaf usage {leaf.usage.value} cannot sign claims"
    mode, token = claim_signature.binding_mode, claim_signature.timestamp
    payload = claim_payload(run.claim_bytes, mode, token)
    if verify_once(leaf.public_key, payload, claim_signature.signature):
        return CheckOutcome.PASS, f"{mode.value} payload"
    return CheckOutcome.FAIL, "claim signature does not verify"


def _check_revocation(run: _Run) -> _Result:
    policy = run.policy
    chain = run.manifest.claim_signature.signer_chain
    serial = chain[0].serial
    # each channel yields a verified (status, revoked_at) for the leaf and its
    # own words for GOOD and REVOKED; one judgement below maps the status
    if policy.revocation_mode == RevocationMode.CRL_REQUIRED:
        crl = policy.crl
        if crl is None:
            return CheckOutcome.FAIL, "no revocation list available"
        issuer_cert = next(
            (c for c in chain[1:] + policy.trust.anchors if c.subject == crl.issuer), None
        )
        if issuer_cert is None or not verify_crl(crl, issuer_cert):
            return CheckOutcome.FAIL, "revocation list signature does not verify"
        # first match: a list that names a serial twice is read as it is ordered
        revoked_at = next((at for listed, at in crl.entries if listed == serial), None)
        status = CertStatus.GOOD if revoked_at is None else CertStatus.REVOKED
        good, revoked = f"not in revocation list of {len(crl.entries)} entries", "revoked"
    else:
        soft = policy.revocation_mode == RevocationMode.STATUS_SERVICE_SOFT_FAIL
        outage, stance = (CheckOutcome.SKIPPED, "soft fail") if soft else (CheckOutcome.FAIL, "fail closed")
        if policy.status_endpoint is None:
            return outage, f"no status endpoint ({stance})"
        responder = chain[1] if len(chain) > 1 else chain[0]
        try:
            response = query_status(policy.status_endpoint, serial, responder)
        except ServiceUnreachable as exc:
            return outage, f"status service unreachable ({stance}): {exc}"
        status, revoked_at = response.status, response.revoked_at
        good, revoked = "status GOOD", "REVOKED"
    if status == CertStatus.GOOD:
        return CheckOutcome.PASS, f"serial {serial} {good}"
    if status == CertStatus.REVOKED:
        return CheckOutcome.FAIL, f"serial {serial} {revoked} at {revoked_at}"
    return CheckOutcome.FAIL, f"serial {serial} UNKNOWN to the responder"


_NO_TOKEN = "no timestamp token"


def _check_timestamp(run: _Run) -> _Result:
    policy = run.policy
    claim_signature = run.manifest.claim_signature
    token = claim_signature.timestamp
    if token is None:
        if policy.timestamp_rule == TimestampRule.REQUIRE_BOUND:
            return CheckOutcome.FAIL, _NO_TOKEN
        return CheckOutcome.SKIPPED, _NO_TOKEN
    bound = claim_signature.binding_mode == BindingMode.BOUND
    if not bound and policy.timestamp_rule == TimestampRule.REQUIRE_BOUND:
        return CheckOutcome.FAIL, "token is not bound to the claim signature"
    # a bound token imprints the claim, an unbound one the signature
    imprint = digest(run.claim_bytes if bound else claim_signature.signature)
    verdict = verify_token(token, imprint, policy.trust)
    if not verdict.valid:
        return CheckOutcome.FAIL, f"{verdict.status.value}: {verdict.detail}"
    if bound and run.outcomes["signature"] != CheckOutcome.PASS:
        return (
            CheckOutcome.FAIL,
            "bound token cannot be trusted without a verifying claim signature",
        )
    provenance = TimeProvenance.SIGNED if bound else TimeProvenance.UNBOUND_TOKEN
    run.displayed = DisplayedTime(token.gen_time, provenance)
    return CheckOutcome.PASS, f"{'bound' if bound else 'unbound'} token at {token.gen_time}"


def _check_redaction_audit(run: _Run) -> _Result:
    tombstones = run.tombstones
    strong = run.policy.file_integrity == FileIntegrity.STRONG
    if strong:
        vouched = {(r.target, r.original_digest) for r in run.vouched_records}
        claim = run.manifest.claim
        missing = [label for label in tombstones if (label, claim.digest_for(label)) not in vouched]
        if missing:
            return (
                CheckOutcome.FAIL,
                "tombstones without countersigned redaction records: " + ", ".join(missing),
            )
        # each redaction answers for itself, whether or not a tombstone needs it
        unvouched = len(run.manifest.redaction_signatures) - len(run.vouched_records)
        if unvouched:
            return CheckOutcome.FAIL, f"{unvouched} redaction(s) without a valid countersignature"
    if not tombstones:
        if strong and run.vouched_records:
            targets = ", ".join(redaction.target for redaction in run.vouched_records)
            return CheckOutcome.PASS, f"no tombstones; countersigned redaction record(s): {targets}"
        return CheckOutcome.PASS, "no redactions"
    if run.policy.file_integrity == FileIntegrity.WEAK:
        return (
            CheckOutcome.PASS,
            f"{len(tombstones)} tombstone(s) accepted without countersignature",
        )
    return CheckOutcome.PASS, f"{len(tombstones)} countersigned redaction(s)"


# The one ordered table of checks: (name, gate, check).  A report lists every
# row in this order; a gate that returns a detail marks its check SKIPPED.
_CHECKS = (
    ("parse", None, _check_parse),
    ("manifest-decode", _needs_asset, _check_manifest_decode),
    ("spec-version", _needs_manifest, _check_spec_version),
    ("assertion-digests", _needs_manifest, _check_assertion_digests),
    ("hard-binding", _needs_manifest, _check_hard_binding),
    ("exclusion-audit", _exclusion_audit_gate, _check_exclusion_audit),
    ("chain", _needs_manifest, _check_chain),
    ("signature", _needs_manifest, _check_signature),
    ("revocation", _revocation_gate, _check_revocation),
    ("timestamp", _needs_manifest, _check_timestamp),
    ("redaction-audit", _needs_manifest, _check_redaction_audit),
)

def _collect_metadata(run: _Run) -> tuple[MetadataItem, ...]:
    if run.asset is None:
        return ()
    # a segment is protected only by a verified binding that covers it
    bound = run.outcomes["hard-binding"] == CheckOutcome.PASS
    items = []
    # segments and exclusions both run by start, so one walk meets every
    # exclusion that starts before a segment ends; of those, the one that
    # reaches furthest overlaps the segment if any of them does
    exclusions = run.effective_exclusions or ()
    at, widest = 0, None
    for segment in run.asset.segments:
        if segment.kind != SegmentKind.METADATA:
            continue
        while at < len(exclusions) and exclusions[at].start < segment.range.end:
            if widest is None or exclusions[at].end > widest.end:
                widest = exclusions[at]
            at += 1
        payload = run.asset.payload(segment)
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError:
            text = "0x" + payload[:32].hex()
        protected = bound and not (widest and segment.range.overlaps(widest))
        items.append(MetadataItem(segment.label, text, protected))
    return tuple(items)


# The checks behind each goal, graded by one rule: any FAIL violates the
# goal, all PASS holds it, anything else leaves it unevaluated.
_GOAL_CHECKS = {
    "G1": ("manifest-decode", "assertion-digests", "signature"),
    "G2": ("hard-binding",),
    "G5": ("exclusion-audit", "hard-binding"),
}


def _derive_goals(
    outcome: dict[str, CheckOutcome], displayed: DisplayedTime, integrity: FileIntegrity
) -> dict[str, GoalStatus]:
    goals = dict.fromkeys(GOAL_NAMES, GoalStatus.NOT_EVALUATED)
    for goal, checks in _GOAL_CHECKS.items():
        found = {outcome[name] for name in checks}
        if CheckOutcome.FAIL in found:
            goals[goal] = GoalStatus.VIOLATED
        elif found == {CheckOutcome.PASS}:
            goals[goal] = GoalStatus.HELD
    if displayed.provenance == TimeProvenance.SIGNED:
        goals["G3"] = GoalStatus.HELD
    elif (
        displayed.provenance == TimeProvenance.UNBOUND_TOKEN
        or outcome["timestamp"] == CheckOutcome.FAIL
    ):
        goals["G3"] = GoalStatus.VIOLATED
    # G4 compares two reports, so one report never grades it; weak integrity
    # honours declared exclusions and so never claims G5
    if integrity == FileIntegrity.WEAK:
        goals["G5"] = GoalStatus.NOT_EVALUATED
    return goals


def validate(data: Buffer, policy: ValidationPolicy) -> ValidationReport:
    """Validate raw asset bytes, or a read-only mapping of them, under
    ``policy``; total, never raises.  The report keeps no reference to
    ``data``, so a mapping may close once this returns."""
    run = _Run(data, policy)
    results, failures = [], set()
    fail, skipped = CheckOutcome.FAIL, CheckOutcome.SKIPPED
    for name, gate, check in _CHECKS:
        detail = gate(run) if gate is not None else None
        if detail is not None:
            outcome = skipped
        else:
            try:
                outcome, detail = check(run)
            except Exception as exc:  # a check may never crash the report
                outcome, detail = fail, f"unexpected failure: {exc}"
            if outcome is fail:
                failures.add(name)
        # stored as the frozen constructor stores them, without its three setattr calls
        result = object.__new__(CheckResult)
        fields = result.__dict__
        fields["name"], fields["outcome"], fields["detail"] = name, outcome, detail
        results.append(result)
        run.outcomes[name] = outcome

    rejecting = failures - _UNVERIFIABLE_CHECKS - ({"chain"} if run.chain_expired else set())
    if rejecting:
        verdict = Verdict.REJECTED
    elif failures:
        verdict = Verdict.UNVERIFIABLE
    elif run.tombstones:
        verdict = Verdict.ACCEPTED_WITH_REDACTION
    else:
        verdict = Verdict.ACCEPTED

    claim = run.manifest.claim if run.manifest is not None else None
    return ValidationReport(
        policy=policy.name,
        validation_time=policy.validation_time,
        verdict=verdict,
        checks=tuple(results),
        goals=_derive_goals(run.outcomes, run.displayed, policy.file_integrity),
        displayed_time=run.displayed,
        generator=claim.generator if claim else None,
        claimed_created_at=claim.created_at if claim else None,
        spec_version=claim.spec_version if claim else None,
        metadata=_collect_metadata(run),
        redacted_labels=run.tombstones,
        # an asset that does not parse is malformed, however the parse failed
        malformed=run.malformed or run.asset is None,
    )


# ---------------------------------------------------------------------------
# differential validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferentialReport:
    report_a: ValidationReport
    report_b: ValidationReport
    agree: bool
    check_diff: tuple[tuple[str, CheckOutcome, CheckOutcome], ...]
    consistency: GoalStatus  # G4

    @property
    def exit_code(self) -> int:
        """4 for malformed input (malformed under any policy), 0 if the verdicts agree, else 5."""
        if self.report_a.malformed:
            return 4
        return 0 if self.agree else 5


def validate_differential(
    data: Buffer, policy_a: ValidationPolicy, policy_b: ValidationPolicy
) -> DifferentialReport:
    """Run both policies over the same bytes and diff the outcomes."""
    report_a = validate(data, policy_a)
    report_b = validate(data, policy_b)
    diff = tuple(
        (a.name, a.outcome, b.outcome)
        for a, b in zip(report_a.checks, report_b.checks)
        if a.outcome != b.outcome
    )
    agree = report_a.verdict == report_b.verdict
    return DifferentialReport(
        report_a=report_a,
        report_b=report_b,
        agree=agree,
        check_diff=diff,
        consistency=GoalStatus.HELD if agree else GoalStatus.VIOLATED,
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _escaped(value: object) -> str:
    """``value`` for one line of a human report: a backslash and each character
    ``str.isprintable`` refuses (C0 and C1 controls, DEL, U+2028, U+2029, ...)
    as its Python escape, every other character as it is, so no string from an
    asset, a signer or a policy file starts or rewrites a line."""
    text = str(value)
    if text.isprintable() and "\\" not in text:
        return text
    return "".join(c if c.isprintable() and c != "\\" else repr(c)[1:-1] for c in text)


def format_epoch(epoch: int) -> str:
    try:
        stamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        return f"epoch {epoch}"
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _render_time_line(report: ValidationReport) -> str:
    """No displayed time reads "no timestamp token" only when the manifest
    has none; a token that is present but FAILed its check, untrusted or
    only refused by policy, reads "timestamp token refused"."""
    displayed = report.displayed_time
    if displayed.provenance == TimeProvenance.SIGNED:
        return f"signed time: {format_epoch(displayed.epoch)} (signed time)"
    if displayed.provenance == TimeProvenance.UNBOUND_TOKEN:
        return f"signed time: {format_epoch(displayed.epoch)} (unverified time)"
    timestamp = report.check("timestamp")
    if timestamp.outcome == CheckOutcome.FAIL and timestamp.detail != _NO_TOKEN:
        return "signed time: none (timestamp token refused)"
    return f"signed time: none ({_NO_TOKEN})"


def render_report(report: ValidationReport, fmt: str = "human") -> str:
    if fmt == "structured":
        return report_to_json(report)
    if fmt != "human":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        "provenance report",
        f"policy: {_escaped(report.policy)}",
        f"validated at: {format_epoch(report.validation_time)}",
        f"verdict: {report.verdict.value}",
        _render_time_line(report),
    ]
    if report.claimed_created_at is not None:
        lines.append(
            f"claimed creation: {format_epoch(report.claimed_created_at)} (signer-reported)"
        )
    if report.generator is not None:
        generator, spec = _escaped(report.generator), _escaped(report.spec_version)
        lines.append(f"generator: {generator} [claim format {spec}]")
    lines.append("checks:")
    for result in report.checks:
        detail = f"  {_escaped(result.detail)}" if result.detail else ""
        lines.append(f"  {result.name:<18} {result.outcome.value:<7}{detail}")
    lines.append("goals:")
    for goal in GOAL_NAMES:
        lines.append(
            f"  {goal} {GOAL_TITLES[goal]:<26} {report.goals[goal].value}"
        )
    if report.metadata:
        lines.append("metadata:")
        bound = report.check("hard-binding").outcome == CheckOutcome.PASS
        unprotected = "excluded from integrity protection" if bound else "integrity not verified"
        for item in report.metadata:
            tag = "protected" if item.protected else unprotected
            lines.append(f"  {_escaped(item.label)}: {_escaped(item.text)} ({tag})")
    if report.redacted_labels:
        lines.append("redactions: " + ", ".join(map(_escaped, report.redacted_labels)))
    return "\n".join(lines) + "\n"


def render_differential(diff: DifferentialReport) -> str:
    lines = [
        "differential validation",
        f"policy a: {_escaped(diff.report_a.policy)} -> {diff.report_a.verdict.value}",
        f"policy b: {_escaped(diff.report_b.policy)} -> {diff.report_b.verdict.value}",
        f"verdict agreement: {'yes' if diff.agree else 'NO'}",
        f"G4 {GOAL_TITLES['G4']}: {diff.consistency.value}",
    ]
    if diff.check_diff:
        lines.append("diverging checks:")
        for name, a, b in diff.check_diff:
            lines.append(f"  {name:<18} {a.value:<7} vs {b.value}")
    return "\n".join(lines) + "\n"


def report_to_json(report: ValidationReport) -> str:
    """The structured report: the report record's value plus ``schema``.
    The value is read back from the record's canonical bytes, so a report
    built through the API with a time the codec cannot hold (outside
    ``-2**64 … 2**64-1``) raises ``EncodeError``."""
    value = {**record_value(report), "schema": REPORT_SCHEMA}
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def report_from_json(text: str) -> ValidationReport:
    """Inverse of :func:`report_to_json`; any other key set or value type
    raises :class:`DecodeError`."""
    value = json.loads(text)
    schema = value.pop("schema", None) if type(value) is dict else None
    if schema != REPORT_SCHEMA:
        raise ValueError(f"unknown report schema {schema!r}")
    return record_from_value(ValidationReport, value)


# ---------------------------------------------------------------------------
# policy files
# ---------------------------------------------------------------------------

def parse_time(text: str) -> int:
    """Epoch seconds from an integer literal or ISO-8601 UTC stamp, within
    the ``-2**64 … 2**64-1`` that a canonical record can hold."""
    try:
        seconds = int(text)
    except ValueError:
        try:
            stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise ValueError(f"cannot parse time {text!r}") from None
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        seconds = int(stamp.timestamp())
    if not -(2**64) <= seconds < 2**64:
        raise ValueError(f"time {text!r} out of range")
    return seconds


def parse_endpoint(text: str) -> tuple[str, int]:
    """``(host, port)`` from a ``host:port`` status-service address; port 0
    names no listening service, so the port is one of ``1 … 65535``."""
    host, _, port = text.rpartition(":")
    if host and port.isascii() and port.isdigit() and 0 < int(port) < 65536:
        return host, int(port)
    raise ValueError(f"bad status endpoint {text!r}")


# every policy-file key and the parser of its value; each knob's enum type is
# read from the hardened preset, which sets every knob
_POLICY_PARSERS = {
    "name": str,
    "spec_version_required": str,
    "crl_file": str,
    "validation_time": parse_time,
    "status_endpoint": parse_endpoint,
    **{knob: type(setting) for knob, setting in _HARDENED_KNOBS.items()},
}


def parse_policy_text(text: str) -> dict[str, object]:
    """Parse ``key = value`` policy lines into raw fields.

    Blank lines and ``#`` comments are ignored.  Unknown keys, repeated
    keys and bad values raise ``ValueError`` naming the line; turning the
    fields into a :class:`ValidationPolicy` (attaching trust, times, and
    revocation sources) is the caller's job.
    """
    fields: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"policy line {lineno} is not 'key = value': {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _POLICY_PARSERS:
            raise ValueError(f"unknown policy key {key!r} on line {lineno}")
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"repeated policy key {key!r} on line {lineno} (first on line {first})")
        try:
            fields[key] = _POLICY_PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"bad value {value!r} for {key} on line {lineno}: {exc}") from None
    return fields
