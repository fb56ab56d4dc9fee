"""Acceptance criteria: one test per criterion, each with its runtime budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Behaviour covered:

  1.  back-dated unbound token splits verdicts and shows the attacker's time
  2.  revocation mode alone flips the verdict; differential run diverges
  3.  excluded-region forgery keeps the binding digest bit-identical
  4.  expired signer chain: unverifiable by timewarp, recovered by archival chain
  5.  single-splice soundness sweep inside vs outside declared exclusions
  6.  every honest fixture is accepted under its intended policy
  7.  validation is total over 100 000 arbitrary and mutated inputs
  8.  seeded rebuilds are byte-identical
  9.  offline list and online status service agree on every serial
"""

import dataclasses
import hashlib
import itertools
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from provlab.attacks import (
    attack_exclusion_mutate,
    attack_timestamp_replace,
)
from provlab.cli import main
from provlab.container import (
    ByteRange,
    SegmentKind,
    compute_hard_binding,
    parse_asset,
    serialize_asset,
    splice_bytes,
)
from provlab.corpus import (
    BACKDATE_DELTA,
    FAKE_GPS,
    REVOKED_VALIDATION_TIME,
    build_corpus,
    entry_policies,
    load_corpus,
    tree_digest,
)
from provlab.credentials import decode_manifest
from provlab.crypto import derive_signing_key
from provlab.signer import format_gps
from provlab.statusservice import query_status, run_status_service
from provlab.timestamp import archival_extend
from provlab.trust import (
    Authority,
    CertStatus,
    Certificate,
    Usage,
    issue_certificate,
    verify_crl,
)
from provlab.validator import (
    CheckOutcome,
    GoalStatus,
    RevocationMode,
    TimeProvenance,
    ValidationPolicy,
    Verdict,
    exit_code_for,
    format_epoch,
    hardened_policy,
    render_report,
    spec_policy,
    validate,
    validate_differential,
)
from provlab.workspace import DAY, T0, YEAR, Workspace

# SHA-256 over criterion 7's 100 000 reports, each folded in as the JSON
# array [verdict, exit code, [[check, outcome, detail], ...]]: it pins the
# decoder's messages and the order of checks, not only that a verdict came
CRITERION_7_REPORTS_DIGEST = "2f2b00347f5692cf90ef7b514047f8063d61007d9aa645c1ab59fa128efb48fb"


class Budget:
    """Assert that the enclosed block finishes inside ``seconds``."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.started
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"runtime budget exceeded: {self.elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def entry_for(corpus, scenario, attack="none"):
    for entry in corpus["entries"]:
        if entry.scenario == scenario and entry.attack == attack:
            return entry
    raise AssertionError(f"corpus entry {scenario}/{attack} missing")


def read_entry(corpus, scenario, attack="none"):
    entry = entry_for(corpus, scenario, attack)
    data = (corpus["workspace"].root / entry.path).read_bytes()
    return entry, data


def declared_exclusions(asset):
    manifest = decode_manifest(asset.payload(asset.find_manifest()))
    return manifest.claim.binding.exclusions


def test_criterion_1_backdated_token_display(workspace, corpus):
    """A swapped unbound token back-dates the display yet still validates."""
    entry, data = read_entry(corpus, "unbound-timestamp")
    asset = parse_asset(data)
    backdated_epoch = T0 - BACKDATE_DELTA
    with Budget(1.0):
        outcome = attack_timestamp_replace(
            asset, workspace.tsa(), backdated_epoch, workspace.trust
        )
        wire = serialize_asset(outcome.mutated)
        policies = entry_policies(workspace, entry, corpus["crl"])
        spec_report = validate(wire, policies["spec"])
        hard_report = validate(wire, policies["hardened"])

        assert spec_report.verdict is Verdict.ACCEPTED
        assert spec_report.displayed_time.epoch == backdated_epoch
        assert spec_report.displayed_time.provenance is TimeProvenance.UNBOUND_TOKEN
        rendered = render_report(spec_report)
        assert f"{format_epoch(backdated_epoch)} (unverified time)" in rendered
        assert hard_report.verdict is Verdict.REJECTED


def test_criterion_2_revocation_mode_flips_verdict(workspace, corpus, tmp_path):
    """Only the revocation mode differs; verdicts flip and the diff diverges."""
    entry, data = read_entry(corpus, "revocable")
    crl = corpus["crl"]
    crl_path = corpus["workspace"].root / "corpus" / "crl.bin"
    half_year_after_revocation = REVOKED_VALIDATION_TIME

    with Budget(1.0):
        ignore = spec_policy(workspace.trust, half_year_after_revocation)
        require = spec_policy(
            workspace.trust,
            half_year_after_revocation,
            revocation_mode=RevocationMode.CRL_REQUIRED,
            crl=crl,
        )
        assert validate(data, ignore).verdict is Verdict.ACCEPTED
        assert validate(data, require).verdict is Verdict.REJECTED
        diff = validate_differential(data, ignore, require)
        assert diff.exit_code == 5
        assert diff.consistency is GoalStatus.VIOLATED

    # same divergence through the command-line differential validator
    policy_a = tmp_path / "ignore.policy"
    policy_a.write_text(
        f"name = revocation-ignored\nvalidation_time = {entry.validation_time}\n"
    )
    policy_b = tmp_path / "require.policy"
    policy_b.write_text(
        "name = revocation-required\n"
        "revocation_mode = CRL_REQUIRED\n"
        f"crl_file = {crl_path}\n"
        f"validation_time = {entry.validation_time}\n"
    )
    asset_path = corpus["workspace"].root / entry.path
    code = main(
        [
            "--workspace", str(workspace.root),
            "diff", str(asset_path),
            "--policy-a", str(policy_a),
            "--policy-b", str(policy_b),
        ]
    )
    assert code == 5


def test_criterion_3_excluded_region_forgery(workspace, corpus):
    """Rewriting bytes inside a declared exclusion never moves the digest."""
    entry, data = read_entry(corpus, "gps-excluded")
    with Budget(1.0):
        asset = parse_asset(data)
        exclusions = declared_exclusions(asset)
        outcome = attack_exclusion_mutate(
            asset, "meta.gps", format_gps(*FAKE_GPS).encode("ascii")
        )
        assert declared_exclusions(outcome.mutated) == exclusions
        assert (
            compute_hard_binding(asset, exclusions)
            == compute_hard_binding(outcome.mutated, exclusions)
        )

        wire = serialize_asset(outcome.mutated)
        policies = entry_policies(workspace, entry, corpus["crl"])
        spec_report = validate(wire, policies["spec"])
        assert spec_report.verdict is Verdict.ACCEPTED
        rendered = render_report(spec_report)
        assert format_gps(*FAKE_GPS) in rendered
        assert "excluded from integrity protection" in rendered
        assert validate(wire, policies["hardened"]).verdict is Verdict.REJECTED


def test_criterion_4_expiry_timewarp_and_archival_bridge(workspace, corpus):
    """The same bytes flip to unverifiable after expiry unless extended."""
    _, data = read_entry(corpus, "short-lived-cert")
    with Budget(1.0):
        fresh = spec_policy(workspace.trust, T0 + DAY)
        stale = spec_policy(workspace.trust, T0 + YEAR)
        assert validate(data, fresh).verdict is Verdict.ACCEPTED
        stale_report = validate(data, stale)
        assert stale_report.verdict is Verdict.UNVERIFIABLE
        assert exit_code_for(stale_report) == 3

        extended = archival_extend(
            parse_asset(data), workspace.tsa(), clock=T0 + 15 * DAY
        )
        bridged = hardened_policy(workspace.trust, T0 + YEAR, crl=corpus["crl"])
        assert validate(serialize_asset(extended), bridged).verdict is Verdict.ACCEPTED


def coverage_gaps(asset):
    """Payload intervals covered by the binding: outside every exclusion."""
    exclusions = declared_exclusions(asset)
    gaps = []
    for segment in asset.segments:
        if segment.kind is SegmentKind.MANIFEST:
            continue
        start, end = segment.range.start, segment.range.end
        cuts = sorted(
            (max(start, rng.start), min(end, rng.end))
            for rng in exclusions
            if rng.start < end and start < rng.end
        )
        cursor = start
        for cut_start, cut_end in cuts:
            if cursor < cut_start:
                gaps.append((cursor, cut_start))
            cursor = max(cursor, cut_end)
        if cursor < end:
            gaps.append((cursor, end))
    return [(s, e) for s, e in gaps if e - s > 0]


def random_splice(rng, asset, start, end):
    """Overwrite a random slice of ``[start, end)`` with differing bytes."""
    length = rng.randint(1, min(16, end - start))
    offset = rng.randint(start, end - length)
    original = asset.data[offset : offset + length]
    replacement = bytes(rng.randrange(256) for _ in range(length))
    if replacement == original:
        replacement = bytes([replacement[0] ^ 0x01]) + replacement[1:]
    return serialize_asset(splice_bytes(asset, ByteRange(offset, length), replacement))


def test_criterion_5_single_splice_soundness_sweep(workspace, corpus):
    """1000 covered splices all reject; 1000 excluded splices split by policy."""
    rng = random.Random(0xC0FFEE)
    scenarios = [
        "honest", "gps-excluded", "revocable",
        "short-lived-cert", "unbound-timestamp", "bound-timestamp",
    ]
    targets = []
    for scenario in scenarios:
        entry, data = read_entry(corpus, scenario)
        policies = entry_policies(workspace, entry, corpus["crl"])
        asset = parse_asset(data)
        targets.append((asset, coverage_gaps(asset), policies))

    gps_entry, gps_data = read_entry(corpus, "gps-excluded")
    gps_policies = entry_policies(workspace, gps_entry, corpus["crl"])
    gps_asset = parse_asset(gps_data)
    gps_segment = next(s for s in gps_asset.segments if s.label == "meta.gps")
    excluded = next(
        r for r in declared_exclusions(gps_asset) if r.contains(gps_segment.range)
    )

    with Budget(60.0):
        for _ in range(1000):
            asset, gaps, policies = targets[rng.randrange(len(targets))]
            start, end = gaps[rng.randrange(len(gaps))]
            mutated = random_splice(rng, asset, start, end)
            assert validate(mutated, policies["spec"]).verdict is Verdict.REJECTED

        for _ in range(1000):
            mutated = random_splice(rng, gps_asset, excluded.start, excluded.end)
            assert validate(mutated, gps_policies["spec"]).verdict is Verdict.ACCEPTED
            assert validate(mutated, gps_policies["hardened"]).verdict is Verdict.REJECTED


def test_criterion_6_honest_fixtures_all_accepted(workspace, corpus):
    """Zero false alarms: every unattacked fixture passes its intended policy."""
    honest = [entry for entry in corpus["entries"] if entry.attack == "none"]
    assert len(honest) == 6
    with Budget(10.0):
        for entry in honest:
            data = (corpus["workspace"].root / entry.path).read_bytes()
            policy = entry_policies(workspace, entry, corpus["crl"])[entry.intended_policy]
            report = validate(data, policy)
            assert report.verdict is Verdict.ACCEPTED, (
                f"{entry.scenario} under {entry.intended_policy}: {report.verdict}"
            )


def criterion_7_inputs(workspace, corpus):
    """Criterion 7's inputs, each with its spec policy: 72 000 arbitrary
    blobs, then 28 000 corpus entries with a few bytes changed."""
    rng = random.Random(0xF022)
    seeds = []
    for entry in corpus["entries"]:
        data = (corpus["workspace"].root / entry.path).read_bytes()
        seeds.append((data, spec_policy(workspace.trust, entry.validation_time)))
    blob_policy = spec_policy(workspace.trust, T0 + DAY)
    for _ in range(72_000):
        blob = rng.randbytes(rng.randrange(0, 400))
        if rng.random() < 0.5:
            blob = b"PVL1" + blob
        yield blob, blob_policy
    for _ in range(28_000):
        data, policy = seeds[rng.randrange(len(seeds))]
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        draw = rng.random()
        if draw < 0.10:
            mutated = mutated[: rng.randrange(len(mutated) + 1)]
        elif draw < 0.15:
            mutated += rng.randbytes(rng.randrange(1, 64))
        yield bytes(mutated), policy


def test_criterion_7_fuzz_totality(workspace, corpus):
    """100 000 arbitrary or mutated inputs always yield a verdict, never a crash."""
    allowed = {0, 2, 3, 4}
    reports = hashlib.sha256()

    def check(report):
        code = exit_code_for(report)
        assert code in allowed
        assert len(report.checks) == 11
        assert all(r.outcome in CheckOutcome for r in report.checks)
        assert not any(r.detail.startswith("unexpected") for r in report.checks)
        checks = [[r.name, r.outcome.value, r.detail] for r in report.checks]
        reports.update(json.dumps([report.verdict.value, code, checks]).encode())

    total = 0
    with Budget(300.0):
        for data, policy in criterion_7_inputs(workspace, corpus):
            check(validate(data, policy))
            total += 1
    assert total == 100_000
    assert reports.hexdigest() == CRITERION_7_REPORTS_DIGEST


# the knobs whose stricter setting may accept what the looser one refuses:
# the archival expiry rule accepts an expired signing chain that a valid
# archival chain bridges, which judging expiry at validation time refuses
LATTICE_TRADES = ("expiry_rule",)
VERDICT_RANK = {
    Verdict.REJECTED: 0,
    Verdict.UNVERIFIABLE: 1,
    Verdict.ACCEPTED: 2,
    Verdict.ACCEPTED_WITH_REDACTION: 2,
}


@pytest.fixture(scope="module")
def lattice_inputs(corpus, tmp_path_factory):
    """The lattice walk's inputs, each ``(label, data, spec policy, signing
    authority of its workspace)``: every corpus entry for seeds 1-3, then a
    fixed slice of criterion 7's (its first 300 blobs and its first 250
    changed entries)."""
    inputs = []
    for seed in (1, 2, 3):
        workspace, entries = corpus["workspace"], corpus["entries"]
        if seed != 1:
            workspace = Workspace.initialize(tmp_path_factory.mktemp(f"lattice{seed}"), seed=seed)
            entries = build_corpus(workspace)
        _, crl = load_corpus(workspace.root)
        for entry in entries:
            data = (workspace.root / entry.path).read_bytes()
            policy = spec_policy(workspace.trust, entry.validation_time, crl=crl)
            inputs.append((f"{seed}:{entry.path}", data, policy, workspace.signing))
    fuzzed = criterion_7_inputs(corpus["workspace"], corpus)
    for index, (data, policy) in enumerate(
        itertools.chain(itertools.islice(fuzzed, 300), itertools.islice(fuzzed, 71_700, 71_950))
    ):
        policy = replace(policy, crl=corpus["crl"])
        inputs.append((f"criterion-7:{index}", data, policy, corpus["workspace"].signing))
    assert len(inputs) == 3 * 21 + 550
    return inputs


def walk_lattice(inputs, steps):
    """Validate each ``(label, data, policy)`` under every combination of
    the settings in ``steps``, which maps a knob to its ``(looser,
    stricter)`` pairs, and return two sets: ``(knob, label)`` for each step
    that raised the verdict, and each step that showed a SIGNED time the
    looser setting does not or marked more metadata protected."""
    knobs = list(steps)
    settings = [list(dict.fromkeys(s for pair in steps[knob] for s in pair)) for knob in knobs]
    rises, views = set(), set()
    for label, data, base in inputs:
        reports = {
            combination: validate(data, replace(base, **dict(zip(knobs, combination))))
            for combination in itertools.product(*settings)
        }
        for combination, loose in reports.items():
            for at, knob in enumerate(knobs):
                for looser, strict in steps[knob]:
                    if combination[at] != looser:
                        continue
                    stricter = reports[combination[:at] + (strict,) + combination[at + 1 :]]
                    if VERDICT_RANK[stricter.verdict] > VERDICT_RANK[loose.verdict]:
                        rises.add((knob, label))
                    shown = stricter.displayed_time
                    if shown.provenance is TimeProvenance.SIGNED and shown != loose.displayed_time:
                        views.add(("signed time", knob, label))
                    if protected_labels(stricter) - protected_labels(loose):
                        views.add(("protected metadata", knob, label))
    return rises, views


def offline_steps(policy):
    """Each knob on which the presets differ, with its one step from the
    spec to the hardened setting."""
    hardened = hardened_policy(
        policy.trust, policy.validation_time, crl=policy.crl, status_endpoint=policy.status_endpoint
    )
    return {
        field.name: [(getattr(policy, field.name), getattr(hardened, field.name))]
        for field in dataclasses.fields(ValidationPolicy)
        if field.name != "name" and getattr(policy, field.name) != getattr(hardened, field.name)
    }


# the three entries along whose expiry step the verdict may rise
EXPIRY_TIMEWARP_RISES = {
    ("expiry_rule", f"{seed}:corpus/short-lived-cert--expiry-timewarp/asset.pvl")
    for seed in (1, 2, 3)
}


def test_a_stricter_knob_never_accepts_more(lattice_inputs):
    """Each offline knob on which the presets differ, turned alone from its
    spec to its hardened setting, never raises the verdict (except along
    the knobs in ``LATTICE_TRADES``), never shows a SIGNED time the looser
    setting does not, and never marks more metadata protected."""
    inputs = [(label, data, policy) for label, data, policy, _ in lattice_inputs]
    steps = offline_steps(inputs[0][2])
    assert list(steps) == ["revocation_mode", "timestamp_rule", "file_integrity", "expiry_rule"]
    assert steps["revocation_mode"] == [(RevocationMode.NONE, RevocationMode.CRL_REQUIRED)]
    with Budget(2.0):
        rises, views = walk_lattice(inputs, steps)
    assert {knob for knob, _ in rises} <= set(LATTICE_TRADES)
    # the one trade today: the expiry-timewarp entry of each seed
    assert rises == EXPIRY_TIMEWARP_RISES
    assert views == set()


STATUS_STEPS = [
    (RevocationMode.NONE, RevocationMode.STATUS_SERVICE_SOFT_FAIL),
    (RevocationMode.STATUS_SERVICE_SOFT_FAIL, RevocationMode.STATUS_SERVICE_HARD_FAIL),
]


def status_walk(inputs, steps):
    """:func:`walk_lattice` over the lattice inputs ``inputs``, with the
    offline knobs' steps and the revocation steps ``steps``; each input's
    policy queries one status service holding its authority's live state.
    Returns the two sets and the number of queries the services answered."""
    services = {}
    try:
        walked = []
        for label, data, policy, authority in inputs:
            if id(authority) not in services:
                services[id(authority)] = run_status_service(authority)
            endpoint = services[id(authority)].endpoint
            walked.append((label, data, replace(policy, status_endpoint=endpoint)))
        with Budget(2.0):
            rises, views = walk_lattice(
                walked, {**offline_steps(walked[0][2]), "revocation_mode": steps}
            )
        return rises, views, sum(len(service.query_log) for service in services.values())
    finally:
        for service in services.values():
            service.stop()


# the lattice inputs in three parts, each walked inside its own budget
LATTICE_PARTS = {"corpus": slice(0, 63), "blobs": slice(63, 363), "changed": slice(363, 613)}


@pytest.mark.parametrize("part", list(LATTICE_PARTS))
def test_a_stricter_status_mode_never_accepts_more(lattice_inputs, part):
    """The status-service modes join the lattice, NONE < SOFT_FAIL <
    HARD_FAIL (NONE < CRL_REQUIRED is walked above), each input's service
    holding its authority's live state; the offline knobs step at every
    mode.  The corpus entries, criterion 7's blobs and its changed entries
    are walked apart."""
    rises, views, queries = status_walk(lattice_inputs[LATTICE_PARTS[part]], STATUS_STEPS)
    # random blobs carry no manifest to ask about
    assert (queries > 0) == (part != "blobs")
    assert {knob for knob, _ in rises} <= set(LATTICE_TRADES)
    assert rises == (EXPIRY_TIMEWARP_RISES if part == "corpus" else set())
    assert views == set()


def test_hard_fail_never_accepts_what_soft_fail_refuses_when_the_service_is_down(
    lattice_inputs,
):
    """With the status service stopped, soft fail skips the revocation check
    and hard fail fails it, so the step from soft to hard fail never raises
    the verdict, at any setting of the offline knobs."""
    service = run_status_service(lattice_inputs[0][3])
    service.stop()
    inputs = [
        (label, data, replace(policy, status_endpoint=service.endpoint))
        for label, data, policy, _ in lattice_inputs
    ]
    with Budget(2.0):
        rises, views = walk_lattice(inputs, {
            **offline_steps(inputs[0][2]), "revocation_mode": STATUS_STEPS[1:],
        })
    assert {knob for knob, _ in rises} <= set(LATTICE_TRADES)
    assert rises == EXPIRY_TIMEWARP_RISES
    assert views == set()


def protected_labels(report):
    return {item.label for item in report.metadata if item.protected}


def test_criterion_8_seeded_rebuild_is_byte_identical(tmp_path):
    """init + corpus from the same seed twice gives identical directory trees."""
    digests = []
    for name in ("first", "second"):
        root = tmp_path / name
        assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
        assert main(["--workspace", str(root), "corpus"]) == 0
        digests.append(tree_digest(root))
    assert digests[0] == digests[1]


def test_criterion_9_revocation_channels_agree():
    """CRL contents and live status responses agree for 100 random histories."""
    for case in range(100):
        rng = random.Random(9_000 + case)
        name = f"agreement-root-{case}"
        root_key = derive_signing_key(70_000 + case, name)
        root_cert = issue_certificate(
            root_key,
            Certificate(
                serial=1,
                subject=name,
                issuer=name,
                public_key=root_key.public_bytes,
                not_before=T0 - YEAR,
                not_after=T0 + 10 * YEAR,
                usage=Usage.ROOT,
                issuer_signature=b"",
            ),
        )
        authority = Authority(root_key, root_cert, clock=T0)
        serials = list(range(100, 100 + rng.randint(2, 8)))
        for serial in serials:
            leaf_key = derive_signing_key(80_000 + case * 100 + serial, f"leaf{serial}")
            authority.issue(
                Certificate(
                    serial=serial,
                    subject=f"device-{serial}",
                    issuer=name,
                    public_key=leaf_key.public_bytes,
                    not_before=T0,
                    not_after=T0 + 2 * YEAR,
                    usage=Usage.LEAF_SIGNING,
                    issuer_signature=b"",
                )
            )
        revoked = {
            serial: T0 + rng.randrange(1, 2 * YEAR)
            for serial in serials
            if rng.random() < 0.5
        }
        for serial, at in revoked.items():
            authority.revoke(serial, at)

        crl = authority.generate_crl()
        assert verify_crl(crl, root_cert)
        assert dict(crl.entries) == revoked

        service = run_status_service(authority)
        try:
            for serial in serials:
                response = query_status(service.endpoint, serial, root_cert)
                if serial in revoked:
                    assert response.status is CertStatus.REVOKED
                    assert response.revoked_at == revoked[serial]
                else:
                    assert response.status is CertStatus.GOOD
            stranger = 100 + len(serials) + 5
            response = query_status(service.endpoint, stranger, root_cert)
            assert response.status is CertStatus.UNKNOWN
        finally:
            service.stop()
