"""Command-line interface: exit codes, formats, policy files, sockets."""

import dataclasses
import json
import subprocess
import sys
import threading

import pytest

from provlab import attacks, cli
from provlab.attacks import ATTACKS
from provlab.cli import main, parse_time
from provlab.container import serialize_asset
from provlab.corpus import verify_corpus
from provlab.records import encode_record
from provlab.signer import SCENARIOS, make_fixture
from provlab.statusservice import run_status_service
from provlab.validator import Verdict, report_from_json
from provlab.workspace import DAY, T0, YEAR, Workspace


@pytest.fixture(scope="module")
def cliws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
    # the fixtures this module reads, so each test also runs alone
    for scenario in ("honest", "unbound-timestamp"):
        assert main(["--workspace", str(root), "sign", "--scenario", scenario]) == 0
    return root


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_time_forms():
    assert parse_time("1735689600") == T0
    assert parse_time("2025-01-01T00:00:00Z") == T0
    assert parse_time("2025-01-01T00:00:00+00:00") == T0
    assert parse_time("2025-01-01") == T0
    with pytest.raises(ValueError):
        parse_time("next tuesday")
    # the canonical codec holds -2**64 ... 2**64-1 and nothing outside it
    assert parse_time(str(2**64 - 1)) == 2**64 - 1
    assert parse_time(str(-(2**64))) == -(2**64)
    for text in (str(2**64), str(-(2**64) - 1)):
        with pytest.raises(ValueError, match="out of range"):
            parse_time(text)


def test_init_refuses_nonempty(cliws, capsys):
    code, _, err = run(["--workspace", str(cliws), "init", "--seed", "2"], capsys)
    assert code == 4
    assert "error" in err


def test_missing_workspace_is_an_error(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PROVLAB_WORKSPACE", raising=False)
    code, _, err = run(["validate", str(tmp_path / "x.pvl")], capsys)
    assert code == 4 and "workspace" in err


def test_workspace_env_fallback(cliws, capsys, monkeypatch):
    monkeypatch.setenv("PROVLAB_WORKSPACE", str(cliws))
    code, out, _ = run(["sign", "--scenario", "honest"], capsys)
    assert code == 0 and "signed:" in out


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sign_refuses_a_seed_outside_64_bits(tmp_path, capsys, seed):
    root = tmp_path / "ws"
    assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
    state = (root / "workspace.json").read_bytes()
    code, _, err = run(
        ["--workspace", str(root), "sign", "--scenario", "honest", "--seed", str(seed)], capsys
    )
    assert code == 4 and f"seed {seed} is outside" in err
    assert not (root / "fixtures" / "honest").exists()
    assert (root / "workspace.json").read_bytes() == state


def test_sign_seeds_at_both_ends_of_64_bits_differ(tmp_path, capsys):
    root = tmp_path / "ws"
    assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
    signed = []
    for seed in (0, 2**64 - 1):
        argv = ["--workspace", str(root), "sign", "--scenario", "honest", "--seed", str(seed)]
        assert run(argv, capsys)[0] == 0
        signed.append((root / "fixtures" / "honest" / "asset.pvl").read_bytes())
    assert signed[0] != signed[1]


def test_sign_validate_exit_codes(cliws, capsys):
    code, out, _ = run(
        ["--workspace", str(cliws), "sign", "--scenario", "unbound-timestamp"], capsys
    )
    assert code == 0
    asset = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")

    code, out, _ = run(["--workspace", str(cliws), "validate", asset], capsys)
    assert code == 0
    assert "verdict: ACCEPTED" in out

    code, out, _ = run(
        ["--workspace", str(cliws), "validate", asset, "--policy", "hardened"], capsys
    )
    assert code == 2
    assert "verdict: REJECTED" in out

    # expired: unverifiable, exit 3
    code, out, _ = run(
        ["--workspace", str(cliws), "validate", asset, "--at", str(T0 + 5 * YEAR)],
        capsys,
    )
    assert code == 3
    assert "verdict: UNVERIFIABLE" in out


def test_validate_garbage_exits_4(cliws, tmp_path, capsys):
    garbage = tmp_path / "garbage.pvl"
    garbage.write_bytes(b"\x89PNG\r\n\x1a\n not a container")
    code, out, _ = run(["--workspace", str(cliws), "validate", str(garbage)], capsys)
    assert code == 4
    code, _, err = run(
        ["--workspace", str(cliws), "validate", str(tmp_path / "missing.pvl")], capsys
    )
    assert code == 4 and "cannot read" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["attack", "timestamp-replace", "--scenario", "honest", "--input", "{tmp}/missing.pvl"],
         "{tmp}/missing.pvl"),
        (["attack", "timestamp-replace", "--scenario", "honest", "--out", "{tmp}/file/x.pvl"],
         "{tmp}/file"),
        (["extend", "{tmp}/missing.pvl"], "{tmp}/missing.pvl"),
        (["extend", "{tmp}/asset.pvl", "--out", "{tmp}/file/x.pvl"], "{tmp}/file"),
        (["extend", "{tmp}/asset.pvl", "--out", "{tmp}/no-dir/x.pvl"], "{tmp}/no-dir/x.pvl'"),
        (["validate", "{tmp}/asset.pvl", "--policy", "hardened", "--crl", "{tmp}/missing.crl"],
         "{tmp}/missing.crl"),
        (["validate", "{tmp}/asset.pvl", "--policy", "hardened", "--crl", "{tmp}/dir"], "{tmp}/dir"),
        (["validate", "{tmp}/asset.pvl", "--policy", "{tmp}/lost-crl.policy"], "{tmp}/missing.crl"),
        (["--workspace", "{tmp}/file", "init"], "{tmp}/file"),
    ],
    ids=[
        "attack-input", "attack-out", "extend-input", "extend-out", "extend-out-no-directory",
        "crl-missing", "crl-directory", "policy-crl-file", "workspace-file",
    ],
)
def test_an_unreadable_or_unwritable_path_exits_4_naming_it(cliws, tmp_path, capsys, argv, named):
    tmp = tmp_path.resolve()
    (tmp / "file").write_text("a regular file\n")
    (tmp / "dir").mkdir()
    (tmp / "asset.pvl").write_bytes((cliws / "fixtures" / "honest" / "asset.pvl").read_bytes())
    (tmp / "lost-crl.policy").write_text("revocation_mode = CRL_REQUIRED\ncrl_file = missing.crl\n")
    workspace = [] if argv[0] == "--workspace" else ["--workspace", str(cliws)]
    code, out, err = run(workspace + [arg.format(tmp=tmp) for arg in argv], capsys)
    assert (code, out) == (4, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and named.format(tmp=tmp) in line
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "endpoint", ["8080", ":8080", "localhost:", "localhost:http", "127.0.0.1:0"]
)
def test_bad_status_endpoint_exits_4(cliws, capsys, endpoint):
    assert main(["--workspace", str(cliws), "sign", "--scenario", "honest"]) == 0
    asset = str(cliws / "fixtures" / "honest" / "asset.pvl")
    code, _, err = run(
        ["--workspace", str(cliws), "validate", asset, "--status-endpoint", endpoint],
        capsys,
    )
    assert code == 4 and "bad status endpoint" in err


@pytest.fixture
def crl_file(cliws, tmp_path):
    path = tmp_path / "authority.crl"
    path.write_bytes(encode_record(Workspace.load(cliws).signing.generate_crl()))
    return path


def test_validate_refuses_revocation_flags_its_policy_ignores(cliws, tmp_path, crl_file, capsys):
    assert run(["--workspace", str(cliws), "sign", "--scenario", "unbound-timestamp"], capsys)[0] == 0
    asset = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")
    file_crl = tmp_path / "file-crl.policy"
    file_crl.write_text(f"revocation_mode = CRL_REQUIRED\ncrl_file = {crl_file.name}\n")
    for policy, flag, value in (
        ("spec", "--crl", str(crl_file)),
        ("spec", "--status-endpoint", "127.0.0.1:9"),
        ("hardened", "--status-endpoint", "127.0.0.1:9"),
        (str(file_crl), "--crl", str(crl_file)),
    ):
        code, out, err = run(
            ["--workspace", str(cliws), "validate", asset, "--policy", policy, flag, value],
            capsys,
        )
        assert (code, out) == (4, "")
        assert f"error: policy {policy!r} does not use {flag}" in err

    # hardened reads --crl in place of the authority's live list
    code, out, _ = run(
        ["--workspace", str(cliws), "validate", asset, "--policy", "hardened", "--crl", str(crl_file)],
        capsys,
    )
    assert code == 2 and "not in revocation list" in out


def test_status_service_policy_reads_status_endpoint(cliws, tmp_path, capsys):
    assert run(["--workspace", str(cliws), "sign", "--scenario", "unbound-timestamp"], capsys)[0] == 0
    asset = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")
    policy = tmp_path / "online.policy"
    policy.write_text("revocation_mode = STATUS_SERVICE_HARD_FAIL\n")
    service = run_status_service(Workspace.load(cliws).signing, "127.0.0.1", 0)
    try:
        host, port = service.endpoint
        code, out, _ = run(
            [
                "--workspace", str(cliws), "validate", asset,
                "--policy", str(policy), "--status-endpoint", f"{host}:{port}",
            ],
            capsys,
        )
    finally:
        service.stop()
    assert code == 0 and "status GOOD" in out
    assert len(service.query_log) == 1


def test_diff_refuses_a_flag_neither_policy_reads(cliws, crl_file, capsys):
    assert run(["--workspace", str(cliws), "sign", "--scenario", "unbound-timestamp"], capsys)[0] == 0
    asset = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")
    code, out, err = run(
        ["--workspace", str(cliws), "diff", asset, "--status-endpoint", "127.0.0.1:9"], capsys
    )
    assert (code, out) == (4, "")
    assert "error: neither policy 'spec' nor 'hardened' uses --status-endpoint" in err
    # hardened, the default policy b, reads --crl
    code, out, _ = run(["--workspace", str(cliws), "diff", asset, "--crl", str(crl_file)], capsys)
    assert code == 5 and "verdict agreement: NO" in out


_POLICY_FILES = {
    "none.policy": "revocation_mode = NONE\n",
    "crl.policy": "revocation_mode = CRL_REQUIRED\n",
    "soft.policy": "revocation_mode = STATUS_SERVICE_SOFT_FAIL\n",
    "hard.policy": "revocation_mode = STATUS_SERVICE_HARD_FAIL\n",
    "own-crl.policy": "revocation_mode = CRL_REQUIRED\ncrl_file = authority.crl\n",
    "own-endpoint.policy": "revocation_mode = STATUS_SERVICE_SOFT_FAIL\nstatus_endpoint = 127.0.0.1:9\n",
}


@pytest.mark.parametrize(
    "policies, reads",
    [
        (["spec"], set()),
        (["hardened"], {"--crl"}),
        (["none.policy"], set()),
        (["crl.policy"], {"--crl"}),
        (["soft.policy"], {"--status-endpoint"}),
        (["hard.policy"], {"--status-endpoint"}),
        (["own-crl.policy"], set()),
        (["own-endpoint.policy"], set()),
        (["spec", "soft.policy"], {"--status-endpoint"}),
    ],
    ids=[
        "spec", "hardened", "file-none", "file-crl", "file-soft", "file-hard",
        "file-own-crl", "file-own-endpoint", "diff-spec-soft",
    ],
)
def test_a_policy_reads_the_revocation_flags_its_mode_consults_and_it_leaves_unset(
    cliws, tmp_path, crl_file, capsys, policies, reads
):
    # a policy reads --crl iff its mode is CRL_REQUIRED and it names no CRL,
    # and --status-endpoint iff its mode is a status mode and it names no endpoint
    assert run(["--workspace", str(cliws), "sign", "--scenario", "unbound-timestamp"], capsys)[0] == 0
    asset = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")
    names = []
    for policy in policies:
        if policy in _POLICY_FILES:
            (tmp_path / policy).write_text(_POLICY_FILES[policy])
            policy = str(tmp_path / policy)
        names.append(policy)
    if len(names) == 1:
        argv = ["validate", asset, "--policy", names[0]]
    else:
        argv = ["diff", asset, "--policy-a", names[0], "--policy-b", names[1]]
    for flag, value in (("--crl", str(crl_file)), ("--status-endpoint", "127.0.0.1:9")):
        code, out, err = run(["--workspace", str(cliws), *argv, flag, value], capsys)
        if flag in reads:
            assert code in (0, 2, 3, 5) and out and err == ""
        elif len(names) == 1:
            assert (code, out, err) == (4, "", f"error: policy {names[0]!r} does not use {flag}\n")
        else:
            assert (code, out) == (4, "")
            assert err == f"error: neither policy {names[0]!r} nor {names[1]!r} uses {flag}\n"


def test_structured_format_roundtrips(cliws, capsys):
    asset = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")
    code, out, _ = run(
        ["--workspace", str(cliws), "validate", asset, "--format", "structured"], capsys
    )
    assert code == 0
    report = report_from_json(out)
    assert report.verdict.value == "ACCEPTED"
    assert json.loads(out)["schema"] == "prov-report/1"


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_validate_at_refuses_a_time_the_codec_cannot_hold(cliws, capsys, fmt):
    assert run(["--workspace", str(cliws), "sign", "--scenario", "honest"], capsys)[0] == 0
    asset = str(cliws / "fixtures" / "honest" / "asset.pvl")
    argv = ["--workspace", str(cliws), "validate", asset]
    code, out, _ = run(argv + ["--format", fmt, f"--at={2**64 - 1}"], capsys)
    assert code == 3 and out  # expired long ago, but still a report
    if fmt == "structured":
        assert report_from_json(out).validation_time == 2**64 - 1
    code, out, err = run(argv + ["--format", fmt, f"--at={2**64}"], capsys)
    assert code == 4 and not out
    assert f"error: time '{2**64}' out of range" in err


def test_attack_then_diff_exits_5(cliws, tmp_path, capsys):
    evil = tmp_path / "evil.pvl"
    code, out, _ = run(
        [
            "--workspace", str(cliws),
            "attack", "timestamp-replace",
            "--scenario", "unbound-timestamp",
            "--out", str(evil),
        ],
        capsys,
    )
    assert code == 0
    assert "expected under spec: ACCEPTED" in out

    code, out, _ = run(["--workspace", str(cliws), "diff", str(evil)], capsys)
    assert code == 5
    assert "verdict agreement: NO" in out

    honest = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")
    code, out, _ = run(
        ["--workspace", str(cliws), "diff", honest, "--policy-b", "spec"], capsys
    )
    assert code == 0
    assert "verdict agreement: yes" in out


def test_attack_applicability_enforced(cliws, capsys):
    code, _, err = run(
        [
            "--workspace", str(cliws),
            "attack", "exclusion-mutate",
            "--scenario", "honest",
        ],
        capsys,
    )
    assert code == 4 and "does not apply" in err


def test_policy_file_flow(cliws, tmp_path, capsys):
    asset = str(cliws / "fixtures" / "unbound-timestamp" / "asset.pvl")
    policy_path = tmp_path / "strict.policy"
    policy_path.write_text(
        "name = strict\n"
        "timestamp_rule = REQUIRE_BOUND\n"
        "file_integrity = STRONG\n"
    )
    code, out, _ = run(
        ["--workspace", str(cliws), "validate", asset, "--policy", str(policy_path)],
        capsys,
    )
    assert code == 2
    assert "policy: strict" in out

    code, _, err = run(
        ["--workspace", str(cliws), "validate", asset, "--policy", "no-such.policy"],
        capsys,
    )
    assert code == 4 and "not a preset" in err


def test_at_overrides_a_policy_files_validation_time(cliws, tmp_path, capsys):
    asset = str(cliws / "fixtures" / "honest" / "asset.pvl")
    policy = tmp_path / "late.policy"
    policy.write_text("validation_time = 2030-01-01T00:00:00Z\n")  # the leaf ran out in 2026
    argv = ["--workspace", str(cliws), "validate", asset, "--policy", str(policy)]
    code, out, _ = run(argv, capsys)
    assert code == 3 and "validated at: 2030-01-01T00:00:00Z" in out
    code, out, _ = run(argv + ["--at", "2025-02-01T00:00:00Z"], capsys)
    assert code == 0 and "validated at: 2025-02-01T00:00:00Z" in out


def test_extend_command_bridges_expiry(cliws, tmp_path, capsys):
    code, _, _ = run(
        ["--workspace", str(cliws), "sign", "--scenario", "short-lived-cert"], capsys
    )
    assert code == 0
    asset = cliws / "fixtures" / "short-lived-cert" / "asset.pvl"
    extended = tmp_path / "extended.pvl"
    code, out, _ = run(
        [
            "--workspace", str(cliws),
            "extend", str(asset),
            "--at", str(T0 + 15 * DAY),
            "--out", str(extended),
        ],
        capsys,
    )
    assert code == 0
    late = str(T0 + YEAR)
    code, _, _ = run(
        ["--workspace", str(cliws), "validate", str(asset), "--at", late, "--policy", "hardened"],
        capsys,
    )
    assert code == 3
    code, _, _ = run(
        ["--workspace", str(cliws), "validate", str(extended), "--at", late, "--policy", "hardened"],
        capsys,
    )
    assert code == 0


def test_corpus_command_checks_itself(tmp_path, capsys):
    root = tmp_path / "corpusws"
    assert main(["--workspace", str(root), "init", "--seed", "9"]) == 0
    code, out, _ = run(["--workspace", str(root), "corpus", "--check"], capsys)
    assert code == 0
    assert "21 entries" in out
    assert "all corpus entries match" in out


def test_corpus_check_reports_each_mismatch(tmp_path, capsys, monkeypatch):
    honest_strip = attacks.attack_strip_manifest

    def wrong_expectation(asset):
        outcome = honest_strip(asset)
        return dataclasses.replace(outcome, expected={**outcome.expected, "spec": Verdict.ACCEPTED})

    monkeypatch.setattr(attacks, "attack_strip_manifest", wrong_expectation)
    root = tmp_path / "corpusws"
    assert main(["--workspace", str(root), "init", "--seed", "9"]) == 0
    code, out, err = run(["--workspace", str(root), "corpus", "--check"], capsys)
    assert code == 1 and "all corpus entries match" not in out
    assert sorted(err.splitlines()) == sorted(
        f"MISMATCH: corpus/{scenario}--strip-manifest/asset.pvl under spec: "
        "expected ACCEPTED, got UNVERIFIABLE"
        for scenario in SCENARIOS
    )
    # the verdict as expected, but not its exit code
    index_path = root / "corpus" / "index.json"
    index = json.loads(index_path.read_text())
    honest = next(e for e in index["entries"] if e["path"] == "corpus/honest/asset.pvl")
    assert honest["expected_exit"]["hardened"] == 2
    honest["expected_exit"]["hardened"] = 3
    index_path.write_text(json.dumps(index))
    problems = verify_corpus(Workspace.load(root))
    assert [problem for problem in problems if "strip-manifest" not in problem] == [
        "corpus/honest/asset.pvl under hardened: expected exit 3, got 2"
    ]


def test_serve_status_command(cliws, capsys):
    # run the server in a thread with a short duration and query it live
    from provlab.statusservice import query_status

    held = {}

    def serve():
        held["code"] = main(
            ["--workspace", str(cliws), "serve-status", "--duration", "1.5"]
        )

    thread = threading.Thread(target=serve)
    thread.start()
    import time

    from provlab.workspace import Workspace

    lab = Workspace.load(cliws)
    # wait for the endpoint line
    deadline = time.monotonic() + 5
    endpoint = None
    while time.monotonic() < deadline and endpoint is None:
        out = capsys.readouterr().out
        for line in out.splitlines():
            if ":" in line:
                host, _, port = line.partition(":")
                if port.strip().isdigit():
                    endpoint = (host, int(port))
        time.sleep(0.05)
    assert endpoint is not None
    response = query_status(endpoint, 101, lab.signing.cert)
    assert response.serial == 101
    thread.join(timeout=5)
    assert held["code"] == 0


def test_console_script_is_installed(cliws):
    result = subprocess.run(
        [sys.executable, "-m", "provlab.cli", "--workspace", str(cliws), "sign", "--scenario", "honest"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "signed:" in result.stdout


@pytest.mark.parametrize(
    "attack, scenario, flags",
    [
        ("sign-with-revoked", "revocable", ["--input", "{asset}"]),
        ("sign-with-revoked", "revocable", ["--time", "5"]),
        ("strip-manifest", "honest", ["--label", "meta.note"]),
        ("timestamp-replace", "unbound-timestamp", ["--payload", "x"]),
        ("expiry-timewarp", "short-lived-cert", ["--label", "meta.gps"]),
    ],
)
def test_attack_refuses_flags_it_does_not_use(cliws, tmp_path, capsys, attack, scenario, flags):
    assert main(["--workspace", str(cliws), "sign", "--scenario", "honest"]) == 0
    asset = str(cliws / "fixtures" / "honest" / "asset.pvl")
    out = tmp_path / "out.pvl"
    argv = ["--workspace", str(cliws), "attack", attack, "--scenario", scenario, "--out", str(out)]
    code, _, err = run(argv + [f.format(asset=asset) for f in flags], capsys)
    assert code == 4
    assert err.count("\n") == 1 and f"does not use {flags[0]}" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def attackws(tmp_path_factory):
    root = tmp_path_factory.mktemp("attackws")
    assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
    return root


@pytest.mark.parametrize(
    "attack, scenario",
    [(attack.name, scenario) for attack in ATTACKS.values() for scenario in attack.scenarios],
)
def test_every_registry_pair_runs_with_default_flags(attackws, capsys, attack, scenario):
    code, out, _ = run(
        ["--workspace", str(attackws), "attack", attack, "--scenario", scenario], capsys
    )
    assert code == 0
    assert (attackws / "attacks" / f"{scenario}--{attack}.pvl").is_file()
    for preset in ("spec", "hardened"):
        lines = [line for line in out.splitlines() if line.startswith(f"expected under {preset}: ")]
        assert len(lines) == 1, out


def test_token_transplant_at_a_chosen_time_is_rejected(attackws, tmp_path, capsys):
    out = tmp_path / "transplant.pvl"
    code, text, _ = run(
        [
            "--workspace", str(attackws), "attack", "token-transplant",
            "--scenario", "bound-timestamp", "--time", "2019-07-12T00:00:00Z",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0 and "stamped at 1562889600" in text
    code, text, _ = run(
        ["--workspace", str(attackws), "validate", str(out), "--policy", "hardened"], capsys
    )
    assert code == 2
    assert "DIGEST_MISMATCH: token covers a different digest" in text


def test_attack_accepts_the_flags_it_uses(cliws, tmp_path, capsys):
    out = tmp_path / "gps.pvl"
    code, out_text, _ = run(
        [
            "--workspace", str(cliws), "attack", "exclusion-mutate",
            "--scenario", "gps-excluded", "--label", "meta.gps",
            "--payload", "+01.000000,+002.000000", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0 and out.is_file()
    assert b"+01.000000,+002.000000" in out.read_bytes()


# ---------------------------------------------------------------------------
# validate and diff read the asset through a read-only mapping
# ---------------------------------------------------------------------------

def _parse_detail(out: str) -> str:
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "parse"]
    assert check["outcome"] == "FAIL"
    return check["detail"]


def test_empty_and_truncated_files_are_malformed(cliws, tmp_path, capsys):
    honest = (cliws / "fixtures" / "unbound-timestamp" / "asset.pvl").read_bytes()
    cases = {
        "empty.pvl": (b"", "bad magic"),
        "truncated.pvl": (honest[: len(honest) - 3], "segment payload overruns input"),
    }
    for name, (content, detail) in cases.items():
        path = tmp_path / name
        path.write_bytes(content)
        code, out, _ = run(
            ["--workspace", str(cliws), "validate", str(path), "--format", "structured"],
            capsys,
        )
        assert code == 4
        assert _parse_detail(out) == detail
        code, out, _ = run(["--workspace", str(cliws), "diff", str(path)], capsys)
        assert code == 4 and "verdict agreement: yes" in out


@pytest.fixture(scope="module")
def large_asset(cliws, tmp_path_factory):
    """An 8 MiB signed asset, and its manifest's length; past
    ``CONCURRENT_BINDING_BYTES``, so its binding is hashed on a worker thread."""
    import random

    from provlab.container import SegmentKind, build_asset, extract_manifest, serialize_asset
    from provlab.signer import SCENARIOS, build_scenario_content, scenario_signer, sign_asset
    from provlab.workspace import Workspace

    lab = Workspace.load(cliws)
    scenario = SCENARIOS["honest"]
    _, assertions, generator = build_scenario_content(scenario, 1)
    image = random.Random(8).randbytes(8 * 2**20)
    asset = build_asset(
        [(SegmentKind.HEADER, "header", b"PVH0"), (SegmentKind.IMAGE_DATA, "image", image)]
    )
    signed = sign_asset(asset, assertions, scenario_signer(lab, scenario, generator))
    path = tmp_path_factory.mktemp("large") / "large.pvl"
    path.write_bytes(serialize_asset(signed))
    return path, len(extract_manifest(signed))


def test_validate_memory_scales_with_the_manifest(cliws, large_asset, capsys):
    import tracemalloc

    path, manifest_length = large_asset
    argv = ["--workspace", str(cliws), "validate", str(path), "--format", "structured"]
    assert main(argv) == 0  # warm imports and caches outside the traced call
    capsys.readouterr()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ACCEPTED"
    assert peak < 2**20 + manifest_length


@pytest.mark.parametrize(
    "command",
    [["extend"], ["attack", "strip-manifest", "--scenario", "honest", "--input"]],
    ids=["extend", "attack"],
)
def test_rewriting_a_large_asset_holds_no_second_copy(
    cliws, large_asset, tmp_path, capsys, command
):
    import tracemalloc

    path, manifest_length = large_asset
    out = tmp_path / "out.pvl"
    argv = ["--workspace", str(cliws), *command, str(path), "--out", str(out)]
    assert main(argv) == 0  # warm imports and caches outside the traced call
    first = out.read_bytes()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == first
    assert peak <= path.stat().st_size + 2**20 + manifest_length


def test_mapping_is_released_after_validate_and_diff(cliws, large_asset, capsys, monkeypatch):
    import mmap

    maps = []

    class RecordingMap(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            maps.append(super().__new__(cls, *args, **kwargs))
            return maps[-1]

    monkeypatch.setattr(mmap, "mmap", RecordingMap)
    path, _ = large_asset
    original = path.read_bytes()
    try:
        assert main(["--workspace", str(cliws), "validate", str(path)]) == 0
        assert main(["--workspace", str(cliws), "diff", str(path), "--policy-b", "spec"]) == 0
        assert len(maps) == 2 and all(m.closed for m in maps)
        # the file can be rewritten in place: one image byte changed
        with open(path, "r+b") as handle:
            handle.seek(len(original) // 2)
            handle.write(bytes([original[len(original) // 2] ^ 0x01]))
        assert main(["--workspace", str(cliws), "validate", str(path)]) == 2
        assert len(maps) == 3 and maps[-1].closed
    finally:
        path.write_bytes(original)
    capsys.readouterr()


def test_serve_status_prints_refused_then_served_last(cliws, capsys):
    import socket
    import time

    from provlab.statusservice import query_status
    from provlab.workspace import Workspace

    held = {}
    thread = threading.Thread(
        target=lambda: held.setdefault(
            "code", main(["--workspace", str(cliws), "serve-status", "--duration", "1.0"])
        )
    )
    thread.start()
    deadline = time.monotonic() + 5
    out = ""
    while time.monotonic() < deadline and "\n" not in out:
        time.sleep(0.02)
        out += capsys.readouterr().out
    host, _, port = out.splitlines()[0].partition(":")
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        sock.sendall(b"\x00\x04junk")
        sock.recv(64)
    query_status((host, int(port)), 101, Workspace.load(cliws).signing.cert)
    thread.join(timeout=5)
    out += capsys.readouterr().out
    assert held["code"] == 0
    assert out.splitlines()[-2:] == ["refused 1 frames", "served 1 queries"]


@pytest.mark.parametrize(
    "flag, value, error",
    [
        ("--port", "-1", "error: cannot bind 127.0.0.1:-1: "),
        ("--port", "70000", "error: cannot bind 127.0.0.1:70000: "),
        ("--duration", "inf", "error: --duration must be finite and >= 0, not inf"),
        ("--duration", "-1", "error: --duration must be finite and >= 0, not -1.0"),
        ("--duration", "nan", "error: --duration must be finite and >= 0, not nan"),
    ],
    ids=["port-negative", "port-too-large", "duration-inf", "duration-negative", "duration-nan"],
)
def test_serve_status_refuses_a_bad_port_or_duration(cliws, capsys, flag, value, error):
    argv = ["--workspace", str(cliws), "serve-status", "--duration", "0", flag, value]
    code, out, err = run(argv, capsys)
    assert code == 4 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(error) and "Traceback" not in err


def test_serve_status_sleeps_a_long_duration_in_slices(cliws, capsys, monkeypatch):
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        raise KeyboardInterrupt  # stands in for Ctrl-C during the first slice

    monkeypatch.setattr(cli._time, "sleep", sleep)
    code, out, _ = run(["--workspace", str(cliws), "serve-status", "--duration", "1e300"], capsys)
    assert code == 0 and slept == [3600]
    assert out.splitlines()[-2:] == ["refused 0 frames", "served 0 queries"]


# ---------------------------------------------------------------------------
# one signing path: sign writes the fixture, corpus writes each asset once
# ---------------------------------------------------------------------------

def _listing(path):
    return sorted(p.name for p in path.iterdir())


@pytest.fixture(scope="module")
def corpusws(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpusws")
    assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
    assert main(["--workspace", str(root), "corpus"]) == 0
    return root


def test_init_and_corpus_leave_only_the_corpus_and_the_state(corpusws):
    assert _listing(corpusws) == ["corpus", "workspace.json"]


def test_sign_writes_only_the_signed_asset(tmp_path, capsys):
    root = tmp_path / "ws"
    assert run(["--workspace", str(root), "init", "--seed", "1"], capsys)[0] == 0
    code, out, _ = run(["--workspace", str(root), "sign", "--scenario", "honest"], capsys)
    assert code == 0
    assert _listing(root) == ["fixtures", "workspace.json"]
    assert _listing(root / "fixtures") == ["honest"]
    assert _listing(root / "fixtures" / "honest") == ["asset.pvl"]
    assert out.splitlines() == [
        f"scenario: honest ({SCENARIOS['honest'].description})",
        f"signed:   {root / 'fixtures' / 'honest' / 'asset.pvl'}",
    ]


def test_make_fixture_is_the_corpus_entry_and_the_signed_file(corpusws, tmp_path):
    signws = tmp_path / "ws"
    assert main(["--workspace", str(signws), "init", "--seed", "1"]) == 0
    lab = Workspace.load(corpusws)
    for name in SCENARIOS:
        assert main(["--workspace", str(signws), "sign", "--scenario", name]) == 0
        signed = serialize_asset(make_fixture(lab, name))
        assert signed == (corpusws / "corpus" / name / "asset.pvl").read_bytes(), name
        assert signed == (signws / "fixtures" / name / "asset.pvl").read_bytes(), name


def test_attack_with_no_fixture_writes_none(tmp_path, capsys):
    root = tmp_path / "ws"
    assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
    code, _, _ = run(
        ["--workspace", str(root), "attack", "strip-manifest", "--scenario", "honest"], capsys
    )
    assert code == 0
    assert _listing(root) == ["attacks", "workspace.json"]


def test_a_failed_attack_write_leaves_the_workspace_untouched(tmp_path, capsys):
    root = tmp_path / "ws"
    assert main(["--workspace", str(root), "init", "--seed", "1"]) == 0
    state = (root / "workspace.json").read_bytes()
    (tmp_path / "file").write_text("a regular file\n")
    code, _, err = run(
        [
            "--workspace", str(root), "attack", "sign-with-revoked", "--scenario", "revocable",
            "--out", str(tmp_path / "file" / "x.pvl"),
        ],
        capsys,
    )
    assert code == 4 and err.startswith("error: ")
    assert (root / "workspace.json").read_bytes() == state


@pytest.mark.parametrize(
    "argv, name",
    [
        (["validate", "{honest}", "--policy", "hardened", "--crl", ""], "--crl"),
        (["validate", "{honest}", "--status-endpoint", ""], "--status-endpoint"),
        (["validate", "{honest}", "--at", ""], "--at"),
        (["attack", "timestamp-replace", "--scenario", "honest", "--input", ""], "--input"),
        (["attack", "token-transplant", "--scenario", "bound-timestamp", "--time", ""], "--time"),
        (["attack", "exclusion-mutate", "--scenario", "gps-excluded", "--label", ""], "--label"),
        (["attack", "exclusion-mutate", "--scenario", "gps-excluded", "--payload", ""],
         "--payload"),
        (["extend", ""], "asset"),
        (["--workspace", "", "validate", "{honest}"], "--workspace"),
        (["serve-status", "--host", "", "--duration", "0"], "--host"),
    ],
    ids=[
        "crl", "status-endpoint", "at", "input", "time", "label", "payload", "extend-asset",
        "workspace", "host",
    ],
)
def test_an_empty_value_is_refused(cliws, tmp_path, capsys, monkeypatch, argv, name):
    def no_socket(*_):
        raise AssertionError("serve-status opened a socket")

    monkeypatch.setattr(cli, "run_status_service", no_socket)
    state = (cliws / "workspace.json").read_bytes()
    honest = str(cliws / "fixtures" / "honest" / "asset.pvl")
    argv = [arg.format(honest=honest) for arg in argv]
    out = tmp_path / "out.pvl"
    if argv[0] == "attack":
        argv += ["--out", str(out)]
    workspace = [] if argv[0] == "--workspace" else ["--workspace", str(cliws)]
    code, _, err = run(workspace + argv, capsys)
    assert code == 4
    assert err.splitlines() == [f"error: empty value for {name}"]
    assert (cliws / "workspace.json").read_bytes() == state
    assert not out.exists()
