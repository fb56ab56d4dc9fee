"""Command-line interface.

Exit codes form the tool's contract and are shared by ``validate`` and the
corpus index: 0 accepted (with or without redaction), 2 rejected,
3 unverifiable, 4 malformed or unreadable input, 5 differential divergence.

The workspace directory comes from ``--workspace`` or the
``PROVLAB_WORKSPACE`` environment variable.  All clocks are explicit
(``--at`` takes an epoch integer or an ISO-8601 UTC stamp); nothing reads
the wall clock, so every invocation is reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import mmap
import os
import stat
import sys
import time as _time
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from .attacks import ATTACKS, apply_attack, attack_inputs
from .container import parse_asset, write_asset
from .corpus import build_corpus, tree_digest, verify_corpus
from .errors import ProvenanceError
from .signer import DEFAULT_VALIDATION_TIME, SCENARIOS, make_fixture
from .statusservice import run_status_service
from .timestamp import archival_extend
from .trust import decode_revocation_list
from .validator import (
    RevocationMode,
    ValidationPolicy,
    exit_code_for,
    hardened_policy,
    parse_endpoint,
    parse_policy_text,
    parse_time,
    render_differential,
    render_report,
    spec_policy,
    validate,
    validate_differential,
)
from .workspace import Workspace

EXIT_OK = 0
EXIT_MALFORMED = 4


def _workspace(args: argparse.Namespace, seed: int | None = None) -> Workspace:
    """Load the workspace, or initialise a new one from ``seed``."""
    root = args.workspace or os.environ.get("PROVLAB_WORKSPACE")
    if not root:
        raise ProvenanceError("no workspace: pass --workspace or set PROVLAB_WORKSPACE")
    return Workspace.load(root) if seed is None else Workspace.initialize(root, seed)


_STATUS_MODES = (RevocationMode.STATUS_SERVICE_SOFT_FAIL, RevocationMode.STATUS_SERVICE_HARD_FAIL)


def _resolve_policy(
    name: str, workspace: Workspace, at: int | None, given: dict[str, object]
) -> tuple[ValidationPolicy, set[str]]:
    """The named policy, and which of ``--crl`` and ``--status-endpoint`` it reads.

    A policy reads ``--crl`` when its revocation mode is ``CRL_REQUIRED`` and
    it holds no CRL of its own, and ``--status-endpoint`` when its mode is a
    status mode and it names no endpoint; the flag's value in ``given`` then
    fills the gap.  ``at``, if given, overrides a file's ``validation_time``.
    """
    if name in ("spec", "hardened"):
        preset = spec_policy if name == "spec" else hardened_policy
        policy = preset(workspace.trust, DEFAULT_VALIDATION_TIME if at is None else at)
    else:
        path = Path(name)
        if not path.is_file():
            raise ProvenanceError(f"policy {name!r} is not a preset or a readable file")
        fields = {"name": path.stem, "validation_time": DEFAULT_VALIDATION_TIME}
        fields.update(parse_policy_text(path.read_text()))
        if "crl_file" in fields:
            crl_path = (path.parent / str(fields.pop("crl_file"))).resolve()
            fields["crl"] = decode_revocation_list(crl_path.read_bytes())
        if at is not None:
            fields["validation_time"] = at
        policy = ValidationPolicy(trust=workspace.trust, **fields)  # type: ignore[arg-type]
    reads = set()
    if policy.revocation_mode == RevocationMode.CRL_REQUIRED and policy.crl is None:
        reads.add("--crl")
        crl = given["--crl"]
        if crl is None and name == "hardened":
            crl = workspace.signing.generate_crl()  # the authority's live revocation state
        policy = replace(policy, crl=crl)
    if policy.revocation_mode in _STATUS_MODES and policy.status_endpoint is None:
        reads.add("--status-endpoint")
        policy = replace(policy, status_endpoint=given["--status-endpoint"])
    return policy, reads


def _refuse_unused(kind: str, names: tuple[str, ...], given: dict, reads: set[str]) -> None:
    """Refuse each flag in ``given`` that has a value but that no named policy or attack reads."""
    for flag, value in given.items():
        if value is not None and flag not in reads:
            if len(names) == 1:
                raise ProvenanceError(f"{kind} {names[0]!r} does not use {flag}")
            raise ProvenanceError(f"neither {kind} {names[0]!r} nor {names[1]!r} uses {flag}")


@contextlib.contextmanager
def _policies_and_asset(
    args: argparse.Namespace, *names: str
) -> Iterator[tuple[tuple[ValidationPolicy, ...], bytes | mmap.mmap]]:
    """The named policies, and the asset's bytes mapped read-only for the ``with`` block.

    Flag values are parsed before any policy is built, so a bad one is refused
    under every policy.  Memory scales with the manifest read out of the file,
    not with its size; an empty file or a pipe is read instead of mapped.  The
    mapping closes on exit, so nothing may keep an asset parsed from it.
    """
    workspace = _workspace(args)
    at = parse_time(args.at) if args.at else None
    crl = decode_revocation_list(Path(args.crl).read_bytes()) if args.crl else None
    endpoint = parse_endpoint(args.status_endpoint) if args.status_endpoint else None
    given = {"--crl": crl, "--status-endpoint": endpoint}
    policies, reads = zip(*(_resolve_policy(name, workspace, at, given) for name in names))
    _refuse_unused("policy", names, given, set().union(*reads))
    try:
        with open(args.asset, "rb") as handle:
            info = os.fstat(handle.fileno())
            if not stat.S_ISREG(info.st_mode) or info.st_size == 0:
                yield policies, handle.read()
                return
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                yield policies, mapped
    except OSError as exc:
        raise ProvenanceError(f"cannot read {args.asset}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_init(args: argparse.Namespace) -> int:
    workspace = _workspace(args, args.seed)
    print(f"workspace initialised at {workspace.root} (seed {workspace.seed})")
    print(f"trust anchors: {', '.join(c.subject for c in workspace.trust.anchors)}")
    return EXIT_OK


def cmd_sign(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    signed = make_fixture(workspace, args.scenario, args.seed)
    path = workspace.fixtures_dir / args.scenario / "asset.pvl"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_asset(signed, path)
    workspace.save()  # the scenario's leaf is now issued
    print(f"scenario: {args.scenario} ({SCENARIOS[args.scenario].description})")
    print(f"signed:   {path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    with _policies_and_asset(args, args.policy) as ((policy,), data):
        report = validate(data, policy)
    sys.stdout.write(render_report(report, args.format))
    return exit_code_for(report)


def cmd_diff(args: argparse.Namespace) -> int:
    with _policies_and_asset(args, args.policy_a, args.policy_b) as ((policy_a, policy_b), data):
        diff = validate_differential(data, policy_a, policy_b)
    sys.stdout.write(render_differential(diff))
    return diff.exit_code


def cmd_attack(args: argparse.Namespace) -> int:
    scenario_name = args.scenario
    if scenario_name not in ATTACKS[args.name].scenarios:
        raise ProvenanceError(
            f"attack {args.name!r} does not apply to scenario {scenario_name!r}"
        )
    inputs = attack_inputs(args.name)
    flags = {"--input": "asset", "--time": "time", "--label": "label", "--payload": "payload"}
    given = {flag: getattr(args, flag[2:]) for flag in flags}
    reads = {flag for flag, used in flags.items() if used in inputs}
    _refuse_unused("attack", (args.name,), given, reads)

    workspace = _workspace(args)
    asset = None
    fixture = workspace.fixtures_dir / scenario_name / "asset.pvl"
    if args.input or ("asset" in inputs and fixture.is_file()):
        asset = parse_asset(Path(args.input or fixture).read_bytes())
    elif "asset" in inputs:
        asset = make_fixture(workspace, scenario_name)
    trip = {flags[flag]: value for flag, value in given.items() if value is not None}
    trip.pop("asset", None)  # --input, read above
    if "time" in trip:
        trip["time"] = parse_time(trip["time"])
    outcome = apply_attack(workspace, args.name, scenario_name, asset, **trip)

    out = Path(args.out) if args.out else (
        workspace.root / "attacks" / f"{scenario_name}--{outcome.name}.pvl"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    write_asset(outcome.mutated, out)
    # only once the asset is written: sign-with-revoked revokes the leaf it re-signs with
    workspace.save()
    print(f"attack: {outcome.name}")
    print(f"notes: {outcome.notes}")
    print(f"mutated asset: {out}")
    if outcome.validation_time is not None:
        print(f"validate at: {outcome.validation_time}")
    for preset, verdict in outcome.expected.items():
        print(f"expected under {preset}: {verdict.value}")
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    entries = build_corpus(workspace)
    print(f"corpus: {len(entries)} entries under {workspace.corpus_dir}")
    print(f"tree digest: {tree_digest(workspace.corpus_dir)}")
    if args.check:
        problems = verify_corpus(workspace)
        for problem in problems:
            print(f"MISMATCH: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("all corpus entries match their expected verdicts")
    return EXIT_OK


def cmd_extend(args: argparse.Namespace) -> int:
    workspace = _workspace(args)
    asset = parse_asset(Path(args.asset).read_bytes())
    at = parse_time(args.at) if args.at else workspace.clock
    extended = archival_extend(asset, workspace.tsa(), clock=at)
    out = Path(args.out) if args.out else Path(args.asset)
    write_asset(extended, out)
    print(f"archival token appended at {at}; written to {out}")
    return EXIT_OK


def cmd_serve_status(args: argparse.Namespace) -> int:
    if args.duration is not None and not 0 <= args.duration < math.inf:
        raise ProvenanceError(f"--duration must be finite and >= 0, not {args.duration}")
    workspace = _workspace(args)
    service = run_status_service(workspace.signing, args.host, args.port)
    host, port = service.endpoint
    print(f"{host}:{port}", flush=True)
    try:  # sleep in slices: one sleep cannot span a long finite duration
        deadline = _time.monotonic() + (math.inf if args.duration is None else args.duration)
        while (left := deadline - _time.monotonic()) > 0:
            _time.sleep(min(left, 3600))
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    print(f"refused {service.refused} frames")
    print(f"served {len(service.query_log)} queries")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provlab",
        description="content-provenance laboratory: sign, attack, and validate assets",
    )
    parser.add_argument(
        "--workspace", help="workspace directory (default: $PROVLAB_WORKSPACE)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a seeded workspace")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("sign", help="build and sign a scenario fixture")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sign)

    # the asset, clock and revocation inputs that validate and diff share
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("asset")
    inputs.add_argument("--at", help="validation time (epoch seconds or ISO-8601)")
    inputs.add_argument("--crl", help="revocation list file")
    inputs.add_argument("--status-endpoint", help="host:port of a status service")

    p = sub.add_parser("validate", parents=[inputs], help="validate an asset under a policy")
    p.add_argument("--policy", default="spec", help="spec, hardened, or a policy file")
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("diff", parents=[inputs], help="validate under two policies and compare")
    p.add_argument("--policy-a", default="spec", dest="policy_a")
    p.add_argument("--policy-b", default="hardened", dest="policy_b")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("attack", help="apply an attack to a fixture asset")
    p.add_argument("name", choices=sorted(ATTACKS))
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--input", help="asset file (default: the scenario fixture)")
    p.add_argument("--out", help="output path for the mutated asset")
    p.add_argument("--time", help="attack-specific time (token time / warp target)")
    p.add_argument("--label", help="segment label exclusion-mutate overwrites (default: meta.gps)")
    p.add_argument("--payload", help="replacement text for exclusion-mutate")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("corpus", help="build the full fixture + attack corpus")
    p.add_argument("--check", action="store_true", help="re-validate against the index")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("extend", help="append an archival timestamp token")
    p.add_argument("asset")
    p.add_argument("--at", help="token time (epoch seconds or ISO-8601)")
    p.add_argument("--out", help="output path (default: in place)")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("serve-status", help="run the certificate status service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--duration", type=float, default=None, help="seconds to serve")
    p.set_defaults(func=cmd_serve_status)

    return parser


def _refuse_empty(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse an empty value for any flag or positional, so "" never reads as "not given"."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in parser._actions + commands.choices[args.command]._actions:
        if getattr(args, action.dest, None) == "":
            name = action.option_strings[0] if action.option_strings else action.dest
            raise ProvenanceError(f"empty value for {name}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_empty(parser, args)
        return args.func(args)
    except (ProvenanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
