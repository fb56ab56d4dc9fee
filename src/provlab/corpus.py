"""Reproducible corpus: honest fixtures plus every applicable attack.

``build_corpus`` generates, under ``<workspace>/corpus/``, one directory per
entry (``<scenario>`` for the honest signing, ``<scenario>--<attack>`` for a
mutated variant), a shared revocation list snapshot, and ``index.json``
recording each entry's expected verdict and exit code under both policy
presets.  Everything derives from the workspace seed, so two runs with the
same seed produce byte-identical trees.  Scenarios are signed in memory, so
each signed asset is written once, under ``corpus/``.

The expected verdicts in the index come from the hand-written expectations of
the attack registry and of the scenario table (for the honest entries), never
from running the validator — ``verify_corpus`` exists precisely to compare
the two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .attacks import ATTACKS, apply_attack, attack_inputs
# the corpus's trip parameters, importable from here too
from .attacks import (  # noqa: F401
    ARCHIVAL_EXTEND_AT, BACKDATE_DELTA, FAKE_GPS, REVOKE_AT, REVOKED_VALIDATION_TIME,
    TIMEWARP_VALIDATION_TIME,
)
from .container import Asset, write_asset
from .crypto import digest
from .errors import ProvenanceError
from .records import encode_record, record_from_value, record_value
from .signer import DEFAULT_VALIDATION_TIME, SCENARIOS, make_fixture
from .trust import RevocationList, decode_revocation_list
from .validator import (
    EXIT_BY_VERDICT,
    ValidationPolicy,
    Verdict,
    exit_code_for,
    hardened_policy,
    spec_policy,
    validate,
)
from .workspace import Workspace

CORPUS_SCHEMA = "prov-corpus/1"
CRL_FILENAME = "crl.bin"

@dataclass(frozen=True)
class CorpusEntry:
    path: str  # asset path relative to the workspace root
    scenario: str
    attack: str  # "none" for an honest entry
    intended_policy: str
    validation_time: int
    expected: dict[str, str]  # preset name -> verdict value
    expected_exit: dict[str, int]
    notes: str


def _entry(
    workspace: Workspace,
    asset: Asset,
    scenario_name: str,
    attack: str,
    expected: dict[str, Verdict],
    notes: str,
    validation_time: int | None,
) -> CorpusEntry:
    dirname = scenario_name if attack == "none" else f"{scenario_name}--{attack}"
    directory = workspace.corpus_dir / dirname
    directory.mkdir(parents=True, exist_ok=True)
    asset_path = directory / "asset.pvl"
    write_asset(asset, asset_path)
    return CorpusEntry(
        path=str(asset_path.relative_to(workspace.root)),
        scenario=scenario_name,
        attack=attack,
        intended_policy=SCENARIOS[scenario_name].intended_policy,
        validation_time=validation_time
        if validation_time is not None
        else DEFAULT_VALIDATION_TIME,
        expected={name: verdict.value for name, verdict in expected.items()},
        expected_exit={name: EXIT_BY_VERDICT[verdict] for name, verdict in expected.items()},
        notes=notes,
    )


def build_corpus(workspace: Workspace) -> list[CorpusEntry]:
    """Generate the full corpus tree and return its entries."""
    signed = {name: make_fixture(workspace, name) for name in SCENARIOS}
    entries: list[CorpusEntry] = []

    # --- attacked variants ------------------------------------------------
    for attack in ATTACKS.values():
        for name in attack.scenarios:
            asset = signed[name]
            if attack.prepare is not None:
                asset = attack.prepare(workspace, asset)
            outcome = apply_attack(workspace, attack.name, name, asset)
            # an attack that takes no asset re-signs the scenario itself
            if "asset" not in attack_inputs(attack.name) and outcome.mutated != asset:
                raise ProvenanceError(
                    f"re-signing scenario {name!r} did not reproduce its fixture"
                )
            entries.append(
                _entry(
                    workspace, outcome.mutated, name, outcome.name, outcome.expected,
                    outcome.notes, outcome.validation_time,
                )
            )

    # --- honest entries (after attacks: revocation state is now final) ----
    for name, asset in signed.items():
        scenario = SCENARIOS[name]
        entries.append(
            _entry(workspace, asset, name, "none", scenario.expected, scenario.description, None)
        )

    # record the issued leaves, and snapshot the CRL that hardened validation will consult
    workspace.save()
    crl = workspace.signing.generate_crl()
    (workspace.corpus_dir / CRL_FILENAME).write_bytes(encode_record(crl))

    entries.sort(key=lambda e: e.path)
    index = {
        "schema": CORPUS_SCHEMA,
        "seed": workspace.seed,
        "default_validation_time": DEFAULT_VALIDATION_TIME,
        "crl": str((workspace.corpus_dir / CRL_FILENAME).relative_to(workspace.root)),
        "entries": [record_value(entry) for entry in entries],
    }
    (workspace.corpus_dir / "index.json").write_text(
        json.dumps(index, sort_keys=True, indent=2) + "\n"
    )
    return entries


def load_corpus(workspace_root: Path | str) -> tuple[list[CorpusEntry], RevocationList]:
    root = Path(workspace_root)
    index_path = root / "corpus" / "index.json"
    if not index_path.is_file():
        raise ProvenanceError(f"no corpus index at {index_path}")
    index = json.loads(index_path.read_text())
    if index.get("schema") != CORPUS_SCHEMA:
        raise ProvenanceError(f"unknown corpus schema {index.get('schema')!r}")
    entries = [record_from_value(CorpusEntry, r) for r in index["entries"]]
    crl = decode_revocation_list((root / index["crl"]).read_bytes())
    return entries, crl


def entry_policies(
    workspace: Workspace, entry: CorpusEntry, crl: RevocationList
) -> dict[str, ValidationPolicy]:
    return {
        "spec": spec_policy(workspace.trust, entry.validation_time),
        "hardened": hardened_policy(workspace.trust, entry.validation_time, crl=crl),
    }


def verify_corpus(workspace: Workspace) -> list[str]:
    """Validate every entry under both presets; return expectation mismatches."""
    entries, crl = load_corpus(workspace.root)
    problems: list[str] = []
    for entry in entries:
        data = (workspace.root / entry.path).read_bytes()
        for preset, policy in entry_policies(workspace, entry, crl).items():
            report = validate(data, policy)
            if report.verdict.value != entry.expected[preset]:
                problems.append(
                    f"{entry.path} under {preset}: expected {entry.expected[preset]}, "
                    f"got {report.verdict.value}"
                )
            elif exit_code_for(report) != entry.expected_exit[preset]:
                problems.append(
                    f"{entry.path} under {preset}: expected exit "
                    f"{entry.expected_exit[preset]}, got {exit_code_for(report)}"
                )
    return problems


def tree_digest(root: Path | str) -> str:
    """Hex digest over every file (relative path + contents) under ``root``.

    Deterministic directory fingerprint used to confirm that two corpus
    builds from the same seed are byte-identical.
    """
    root = Path(root)
    leaves = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = str(path.relative_to(root)).encode()
        leaves.append(digest(rel) + digest(path.read_bytes()))
    return digest(b"".join(leaves)).hex()
