"""A manifest's judgement is kept on its shared record and replayed.

Seven rows of the check table are marked kept: they read only the decoded
manifest and the policy.  Six are kept always, and revocation whenever its
mode asks no live status service (``NONE``, ``CRL_REQUIRED``).  A validation
over a manifest already judged under the same policy (``is`` or ``==``)
replays those rows' results, and must give the report a validation with
nothing kept gives.  The other four rows (parse, manifest-decode,
hard-binding, exclusion-audit) run on every validation, and so does
revocation under a status mode, so a tampered asset and a live status
service are always read afresh.
"""

import collections
import itertools
from dataclasses import replace

import pytest

from provlab import records, validator
from provlab.container import extract_manifest, parse_asset, serialize_asset
from provlab.corpus import build_corpus, entry_policies, load_corpus
from provlab.credentials import decode_manifest
from provlab.signer import DEFAULT_VALIDATION_TIME, SCENARIOS, make_fixture
from provlab.statusservice import run_status_service
from provlab.validator import (
    _CHECKS,
    _JUDGED,
    LIVE_REVOCATION_MODES,
    CheckOutcome,
    RevocationMode,
    Verdict,
    _Run,
    hardened_policy,
    render_report,
    report_to_json,
    spec_policy,
    validate,
)
from provlab.workspace import DAY, T0, Workspace
from test_acceptance import criterion_7_inputs

KEPT_ROWS = (
    "spec-version", "assertion-digests", "chain", "signature", "revocation", "timestamp",
    "redaction-audit",
)
OFFLINE_MODES = (RevocationMode.NONE, RevocationMode.CRL_REQUIRED)


def kept_under(policy) -> tuple[str, ...]:
    """The rows a walk under ``policy`` replays when it finds a judgement kept."""
    return tuple(
        name for name, _, _, kept in _CHECKS if kept is True or (kept and kept(policy))
    )


class Untouchable:
    """Stands in for the asset and what is read from it; any use raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"a kept row read .{name} of the asset")

    def __bool__(self):
        raise AssertionError("a kept row tested the asset")

    def __len__(self):
        raise AssertionError("a kept row measured the asset")

    def __iter__(self):
        raise AssertionError("a kept row iterated the asset")

    def __getitem__(self, key):
        raise AssertionError("a kept row indexed the asset")


def walk(run: _Run, rows) -> dict[str, tuple[CheckOutcome, str]]:
    """Each row's gate and check on ``run``, as ``validate`` runs them
    when it replays nothing; a raising check fails the test."""
    found = {}
    for name, gate, check, _ in rows:
        detail = gate(run) if gate is not None else None
        outcome = CheckOutcome.SKIPPED
        if detail is None:
            outcome, detail = check(run)
        run.outcomes[name] = outcome
        found[name] = (outcome, detail)
    return found


def renders(report) -> tuple[str, str]:
    return render_report(report), report_to_json(report)


@pytest.fixture()
def same_policy_hits(monkeypatch):
    """Each kept judgement a validation matched, by the policy it was kept under."""
    hits = []
    same_policy = validator._same_policy

    def counting(kept, policy):
        matched = same_policy(kept, policy)
        if matched:
            hits.append(kept)
        return matched

    monkeypatch.setattr(validator, "_same_policy", counting)
    return hits


@pytest.fixture(scope="module")
def corpora(corpus, tmp_path_factory):
    """The seed 1-3 corpora: ``(workspace, entries, crl)`` per seed."""
    out = [(corpus["workspace"], corpus["entries"], corpus["crl"])]
    for seed in (2, 3):
        workspace = Workspace.initialize(tmp_path_factory.mktemp(f"judged{seed}"), seed=seed)
        entries = build_corpus(workspace)
        out.append((workspace, entries, load_corpus(workspace.root)[1]))
    return out


def test_the_seven_kept_rows_read_only_the_manifest_and_the_policy(workspace):
    """Revocation is kept under the two modes that ask no status service,
    and only under them."""
    assert tuple(name for name, _, _, kept in _CHECKS if kept) == KEPT_ROWS
    assert set(RevocationMode) - LIVE_REVOCATION_MODES == set(OFFLINE_MODES)
    for mode in RevocationMode:
        policy = spec_policy(workspace.trust, DEFAULT_VALIDATION_TIME, revocation_mode=mode)
        expected = KEPT_ROWS if mode in OFFLINE_MODES else tuple(
            name for name in KEPT_ROWS if name != "revocation"
        )
        assert kept_under(policy) == expected, mode


def test_a_kept_row_never_reads_the_asset(corpus):
    """Every seed-1 entry under both presets: the kept rows, run on a run
    whose data, asset, manifest segment and exclusions raise on any use and
    whose outcomes hold only the kept rows', find what a normal run finds.
    Spec asks no revocation and hardened reads the policy's CRL, so the
    revocation row runs purely under ``NONE`` and ``CRL_REQUIRED``."""
    workspace = corpus["workspace"]
    modes = set()
    for entry in corpus["entries"]:
        data = (workspace.root / entry.path).read_bytes()
        for preset, policy in entry_policies(workspace, entry, corpus["crl"]).items():
            kept_rows = [row for row in _CHECKS if row[0] in kept_under(policy)]
            assert [name for name, *_ in kept_rows] == list(KEPT_ROWS)
            modes.add(policy.revocation_mode)
            # a name no kept judgement was made under, so the decode restores nothing
            unkept = replace(policy, name=f"purity {preset}")
            normal = _Run(data, unkept)
            everything = walk(normal, _CHECKS)
            assert normal.replay is None
            pure = _Run(Untouchable(), unkept)
            pure.manifest, pure.claim_bytes = normal.manifest, normal.claim_bytes
            pure.asset = pure.manifest_segment = pure.effective_exclusions = Untouchable()
            found = walk(pure, kept_rows)
            assert found == {name: everything[name] for name in KEPT_ROWS}, entry.path
            assert (pure.tombstones, pure.chain_expired, pure.displayed) == (
                normal.tombstones, normal.chain_expired, normal.displayed
            ), entry.path
    assert modes == set(OFFLINE_MODES)


def judged_inputs(corpora, corpus):
    """``(data, policy, kept)``: every seed 1-3 entry under both presets,
    every 0x01 and 0x80 flip of the three entries hardened accepts, and
    criterion 7's first 2,000 inputs; ``kept`` when the input is an entry
    with a manifest, so its judgement must be kept."""
    for workspace, entries, crl in corpora:
        for entry in entries:
            data = (workspace.root / entry.path).read_bytes()
            for policy in entry_policies(workspace, entry, crl).values():
                yield data, policy, entry.attack != "strip-manifest"
    workspace, entries, crl = corpora[0]
    accepted = [e for e in entries if e.expected["hardened"] == Verdict.ACCEPTED.value]
    assert len(accepted) == 3
    for entry in accepted:
        data = (workspace.root / entry.path).read_bytes()
        policy = entry_policies(workspace, entry, crl)["hardened"]
        for pos, mask in itertools.product(range(len(data)), (0x01, 0x80)):
            flipped = bytearray(data)
            flipped[pos] ^= mask
            yield bytes(flipped), policy, False
    for data, policy in itertools.islice(criterion_7_inputs(workspace, corpus), 2000):
        yield data, policy, False


def test_a_replayed_judgement_gives_the_report_nothing_kept_gives(
    corpora, corpus, same_policy_hits
):
    """Each input validated once more under the same policy object and once
    under an equal copy, with its manifest already judged both times, gives
    the report that a copy differing only in ``name``, which matches nothing
    kept, gives: equal in every field, so its structured and human
    renderings are the same bytes (rendered and compared for the corpus
    entries, whose every report is rendered)."""
    inputs = replayed = 0
    for data, policy, kept in judged_inputs(corpora, corpus):
        validate(data, policy)
        del same_policy_hits[:]
        again = validate(data, policy)
        equal = validate(data, replace(policy))
        replays = len(same_policy_hits)
        assert replays == 2 if kept else replays in (0, 2)
        renamed = validate(data, replace(policy, name=policy.name + " unkept"))
        assert len(same_policy_hits) == replays
        expected = replace(renamed, policy=policy.name)
        assert again == equal == expected
        if kept:
            assert renders(again) == renders(equal) == renders(expected)
        inputs += 1
        replayed += replays == 2
    # a flip that leaves the manifest decodable is judged and then replayed
    assert replayed > inputs // 2


def test_a_manifest_judged_under_one_preset_and_then_another(corpus, same_policy_hits):
    """One manifest validated under spec, then hardened, then spec: each
    report is the report of a validation with nothing kept, and each holds
    the judgement of the policy it was last validated under."""
    workspace = corpus["workspace"]
    entry = next(
        e for e in corpus["entries"] if (e.scenario, e.attack) == ("bound-timestamp", "none")
    )
    data = (workspace.root / entry.path).read_bytes()
    presets = entry_policies(workspace, entry, corpus["crl"])
    sequence = [presets["spec"], presets["hardened"], presets["spec"], presets["spec"]]
    nothing_kept = []
    for policy in sequence:
        for table in records._shared_records.values():
            table.clear()
        nothing_kept.append(renders(validate(data, policy)))
    for table in records._shared_records.values():
        table.clear()
    del same_policy_hits[:]
    for policy, expected in zip(sequence, nothing_kept):
        assert renders(validate(data, policy)) == expected
        # the shared record the validation read
        manifest = decode_manifest(extract_manifest(parse_asset(data)))
        assert getattr(manifest, _JUDGED)[0] is policy
    # only the last validation found its policy's judgement kept
    assert same_policy_hits == [presets["spec"]]


def test_no_revocation_list_answers_under_another(tmp_path, same_policy_hits):
    """One manifest validated twice under hardened, so its revocation is
    replayed, then twice under an otherwise equal policy whose CRL lists the
    leaf: the first validation under the second list finds the judgement
    kept under the first and replays nothing, so it reads REJECTED with the
    second list's detail."""
    workspace = Workspace.initialize(tmp_path, seed=1)
    data = serialize_asset(make_fixture(workspace, "bound-timestamp"))
    clean = hardened_policy(
        workspace.trust, DEFAULT_VALIDATION_TIME, crl=workspace.signing.generate_crl()
    )
    serial = SCENARIOS["bound-timestamp"].leaf_serial
    workspace.signing.revoke(serial, T0 + DAY)
    listing = replace(clean, crl=workspace.signing.generate_crl())
    assert listing != clean
    first, again, second, replayed = (
        validate(data, policy) for policy in (clean, clean, listing, listing)
    )
    assert same_policy_hits == [clean, listing]
    assert first == again and first.verdict is Verdict.ACCEPTED
    assert second == replayed
    assert first.check("revocation").detail == (
        f"serial {serial} not in revocation list of {len(clean.crl.entries)} entries"
    )
    assert second.verdict is Verdict.REJECTED
    assert second.check("revocation").outcome is CheckOutcome.FAIL
    assert second.check("revocation").detail == f"serial {serial} revoked at {T0 + DAY}"
    fresh = validate(data, replace(listing, name="nothing kept"))
    assert second == replace(fresh, policy=listing.name)


def status_policy(workspace, mode, endpoint):
    return spec_policy(
        workspace.trust,
        DEFAULT_VALIDATION_TIME,
        name=f"status {mode.value}",
        revocation_mode=mode,
        status_endpoint=endpoint,
    )


def test_the_status_channel_is_asked_on_every_validation(tmp_path, same_policy_hits):
    """One manifest validated twice under one policy of each status mode:
    each validation asks the status service once, and a revocation between
    the two turns the second REJECTED although its other checks are
    replayed."""
    for mode in sorted(LIVE_REVOCATION_MODES):
        workspace = Workspace.initialize(tmp_path / mode.value, seed=1)
        data = serialize_asset(make_fixture(workspace, "honest"))
        del same_policy_hits[:]
        with run_status_service(workspace.signing) as service:
            policy = status_policy(workspace, mode, service.endpoint)
            first = validate(data, policy)
            assert len(service.query_log) == 1
            workspace.signing.revoke(SCENARIOS["honest"].leaf_serial, T0 + DAY)
            second = validate(data, policy)
            assert len(service.query_log) == 2
        assert same_policy_hits == [policy]
        assert first.verdict is Verdict.ACCEPTED
        assert first.check("revocation").detail == "serial 101 status GOOD"
        assert second.verdict is Verdict.REJECTED
        assert second.check("revocation").outcome is CheckOutcome.FAIL
        assert second.check("revocation").detail.startswith("serial 101 REVOKED at")
        assert second.checks[:8] == first.checks[:8] and second.checks[9:] == first.checks[9:]


def test_a_stopped_status_service_is_not_answered_for(tmp_path, same_policy_hits):
    """The service stops between two validations under one policy of each
    status mode: the second asks it, finds it unreachable and reads SKIPPED
    under soft fail and FAIL under hard fail, although its other checks are
    replayed."""
    expected = {
        RevocationMode.STATUS_SERVICE_SOFT_FAIL: (CheckOutcome.SKIPPED, "soft fail", Verdict.ACCEPTED),
        RevocationMode.STATUS_SERVICE_HARD_FAIL: (CheckOutcome.FAIL, "fail closed", Verdict.REJECTED),
    }
    assert expected.keys() == LIVE_REVOCATION_MODES
    for mode, (outcome, stance, verdict) in expected.items():
        workspace = Workspace.initialize(tmp_path / mode.value, seed=1)
        data = serialize_asset(make_fixture(workspace, "honest"))
        del same_policy_hits[:]
        with run_status_service(workspace.signing) as service:
            policy = status_policy(workspace, mode, service.endpoint)
            first = validate(data, policy)
        second = validate(data, policy)
        assert same_policy_hits == [policy]
        assert first.verdict is Verdict.ACCEPTED
        assert first.check("revocation").detail == "serial 101 status GOOD"
        revocation = second.check("revocation")
        assert revocation.outcome is outcome, mode
        assert revocation.detail.startswith(f"status service unreachable ({stance}): "), mode
        assert second.verdict is verdict, mode
        assert second.checks[:8] == first.checks[:8] and second.checks[9:] == first.checks[9:]


def test_an_equal_policy_whose_time_prints_differently_replays_nothing(corpus, same_policy_hits):
    """A validation time of 1735776000.0 equals 1735776000 but prints
    differently in the chain's detail, so it matches no judgement kept
    under the other."""
    workspace = corpus["workspace"]
    entry = next(e for e in corpus["entries"] if (e.scenario, e.attack) == ("honest", "none"))
    data = (workspace.root / entry.path).read_bytes()
    policy = entry_policies(workspace, entry, corpus["crl"])["spec"]
    floating = replace(policy, validation_time=float(policy.validation_time))
    assert floating == policy
    validate(data, policy)
    report = validate(data, floating)
    assert same_policy_hits == []
    assert report.check("chain").detail == f"valid at {float(policy.validation_time)}"


def test_a_crashed_walk_keeps_no_judgement(corpus, monkeypatch, same_policy_hits):
    """A kept row that raised once is run again by the next validation,
    not replayed: the crash may not recur."""
    workspace = corpus["workspace"]
    entry = next(
        e for e in corpus["entries"] if (e.scenario, e.attack) == ("bound-timestamp", "none")
    )
    data = (workspace.root / entry.path).read_bytes()
    policy = replace(
        entry_policies(workspace, entry, corpus["crl"])["hardened"], name="crash once"
    )
    verify_token = validator.verify_token

    def crash_once(*args):
        monkeypatch.setattr(validator, "verify_token", verify_token)
        raise RuntimeError("boom")

    monkeypatch.setattr(validator, "verify_token", crash_once)
    crashed = validate(data, policy)
    assert crashed.check("timestamp").detail == "unexpected failure: boom"
    again = validate(data, policy)
    assert same_policy_hits == []
    assert again.check("timestamp").outcome is CheckOutcome.PASS
    assert again.verdict is Verdict.ACCEPTED
    assert renders(validate(data, policy)) == renders(again)
    assert same_policy_hits == [policy]


def test_a_replay_runs_only_the_rows_that_read_the_asset(corpus, monkeypatch, same_policy_hits):
    """Each row's gate and check wrapped in a counter: a replayed hardened
    validation of ``bound-timestamp`` with one image byte flipped runs
    parse, manifest-decode, hard-binding and exclusion-audit once each and
    no kept row; under ``STATUS_SERVICE_HARD_FAIL`` it runs revocation too."""
    workspace = corpus["workspace"]
    entry = next(
        e for e in corpus["entries"] if (e.scenario, e.attack) == ("bound-timestamp", "none")
    )
    data = (workspace.root / entry.path).read_bytes()
    flipped = bytearray(data)
    flipped[parse_asset(data).find_label("image").offset] ^= 0x01
    flipped = bytes(flipped)
    ran = collections.Counter()

    def counted(part, name, fn):
        def counting(run):
            ran[name, part] += 1
            return fn(run)

        return None if fn is None else counting

    monkeypatch.setattr(validator, "_CHECKS", tuple(
        (name, counted("gate", name, gate), counted("check", name, check), kept)
        for name, gate, check, kept in _CHECKS
    ))
    live = ("parse", "manifest-decode", "hard-binding", "exclusion-audit")
    hardened = entry_policies(workspace, entry, corpus["crl"])["hardened"]
    with run_status_service(workspace.signing) as service:
        hard_fail = replace(
            hardened,
            name="hardened, hard fail",
            revocation_mode=RevocationMode.STATUS_SERVICE_HARD_FAIL,
            status_endpoint=service.endpoint,
        )
        for policy, rows in ((hardened, live), (hard_fail, live + ("revocation",))):
            validate(data, policy)
            ran.clear()
            del same_policy_hits[:]
            report = validate(flipped, policy)
            assert same_policy_hits == [policy]
            assert report.verdict is Verdict.REJECTED
            assert report.check("hard-binding").detail == (
                "recomputed digest differs from the declared digest"
            )
            assert ran == {
                (name, part): 1
                for name, gate, check, _ in _CHECKS if name in rows
                for part, fn in (("gate", gate), ("check", check)) if fn is not None
            }, policy.name
        assert len(service.query_log) == 2
