"""On-disk workspace: a seed, the signing CA's registries, and what they derive.

A workspace root holds:

- ``workspace.json``  one :class:`WorkspaceState` record: the seed and the
  signing CA's issuance and revocation registries
- ``fixtures/``       per-scenario fixture trees
- ``corpus/``         the generated fixture-by-attack corpus

No key or certificate is written.  Keys derive from the seed, certificate
windows are offsets from the fixed epoch :data:`T0` and Ed25519 signatures
are deterministic, so both roots, the TSA leaf, the device and redactor
leaves and the trust list are rebuilt byte for byte on every load.  Only
the registries are stored, for the serials the signing CA issues and
revokes after ``init``.  No file records a wall-clock time, so two
workspaces initialised with the same seed are byte-identical.

Loading is strict: a ``workspace.json`` that :meth:`Workspace.save` would
not write byte for byte (one workspace, one file), a registry that drops or
renames a serial the seed derives, or a revocation of a serial never issued
raises a :class:`~.errors.ProvenanceError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .crypto import derive_signing_key
from .errors import DecodeError, ProvenanceError
from .records import record_from_value, record_value
from .timestamp import TimestampAuthority
from .trust import Authority, Certificate, Identity, TrustList, Usage, issue_certificate

# Fixed model epoch: 2025-01-01T00:00:00Z.  All windows and clocks are
# offsets from this value; wall-clock time never enters the model.
T0 = 1735689600
DAY = 86400
YEAR = 365 * DAY

SIGNING_ROOT_NAME = "provlab signing root"
TSA_ROOT_NAME = "provlab tsa root"

SIGNING_ROOT_SERIAL = 1
TSA_ROOT_SERIAL = 2
TSA_LEAF_SERIAL = 3
DEVICE_SERIAL = 100
REDACTOR_SERIAL = 107

STATE_FILE = "workspace.json"


@dataclass(frozen=True)
class WorkspaceState:
    """What a workspace stores; both registries are sorted by serial."""

    seed: int
    issued: tuple[tuple[int, str], ...]  # (serial, subject)
    revoked: tuple[tuple[int, int], ...]  # (serial, revoked_at)


def _root(seed: int, role: str, name: str, serial: int) -> Authority:
    """The self-signed root authority ``seed`` derives for ``role``."""
    key = derive_signing_key(seed, role)
    template = Certificate(
        serial=serial, subject=name, issuer=name, public_key=key.public_bytes,
        not_before=T0 - 20 * YEAR, not_after=T0 + 20 * YEAR, usage=Usage.ROOT,
        issuer_signature=b"",
    )
    return Authority(key, issue_certificate(key, template), T0)


def _issue_leaf(
    authority: Authority,
    seed: int,
    key_role: str,
    subject: str,
    serial: int,
    not_before: int,
    not_after: int,
    usage: Usage,
) -> Identity:
    """Issue (or re-derive, idempotently) a seeded leaf under ``authority``."""
    key = derive_signing_key(seed, key_role)
    cert = authority.issue(
        Certificate(
            serial=serial, subject=subject, issuer=authority.name,
            public_key=key.public_bytes, not_before=not_before, not_after=not_after,
            usage=usage, issuer_signature=b"",
        )
    )
    return Identity(key, (cert, authority.cert))


class Workspace:
    """A workspace root and everything its seed derives."""

    clock = T0

    def __init__(self, root: Path | str, seed: int):
        if not 0 <= seed < 2**64:
            raise ProvenanceError(f"workspace seed {seed} is outside 0 .. 2**64-1")
        self.root = Path(root)
        self.seed = seed
        self.signing = _root(seed, "signing-ca", SIGNING_ROOT_NAME, SIGNING_ROOT_SERIAL)
        tsa_root = _root(seed, "tsa-ca", TSA_ROOT_NAME, TSA_ROOT_SERIAL)
        self.tsa_leaf = _issue_leaf(
            tsa_root, seed, "tsa-leaf", "provlab tsa", TSA_LEAF_SERIAL,
            T0 - 15 * YEAR, T0 + 15 * YEAR, Usage.LEAF_TSA,
        )
        self.device = self.issue_leaf("device-1", DEVICE_SERIAL, "device-leaf", T0 + 2 * YEAR)
        self.redactor = self.issue_leaf(
            "redactor-1", REDACTOR_SERIAL, "redactor-leaf", T0 + 2 * YEAR
        )
        self.trust = TrustList((self.signing.cert, tsa_root.cert))

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(cls, root: Path | str, seed: int) -> "Workspace":
        root = Path(root)
        if root.exists() and any(root.iterdir()):
            raise ProvenanceError(f"workspace root {root} is not empty")
        workspace = cls(root, seed)
        root.mkdir(parents=True, exist_ok=True)
        workspace.save()
        return workspace

    @classmethod
    def load(cls, root: Path | str) -> "Workspace":
        path = Path(root) / STATE_FILE
        try:
            text = path.read_text()
            state = record_from_value(WorkspaceState, json.loads(text))
        except (OSError, ValueError, DecodeError) as exc:
            raise ProvenanceError(f"cannot load workspace at {root}: {exc}") from exc
        workspace = cls(root, state.seed)
        issued = dict(state.issued)
        for serial, subject in workspace.signing.issued.items():
            if issued.get(serial) != subject:
                raise ProvenanceError(f"{path} drops or renames serial {serial} ({subject!r})")
        workspace.signing.issued = issued
        for serial, revoked_at in state.revoked:
            workspace.signing.revoke(serial, revoked_at)
        if workspace._state_text() != text:
            raise ProvenanceError(f"{path} is not the form save writes")
        return workspace

    def save(self) -> None:
        (self.root / STATE_FILE).write_text(self._state_text())

    def _state_text(self) -> str:
        state = WorkspaceState(
            self.seed,
            tuple(sorted(self.signing.issued.items())),
            tuple(sorted(self.signing.revoked.items())),
        )
        return json.dumps(record_value(state), sort_keys=True, indent=2) + "\n"

    # -- derived handles ----------------------------------------------------

    def tsa(self) -> TimestampAuthority:
        return TimestampAuthority(self.tsa_leaf.key, self.tsa_leaf.chain, self.clock)

    def issue_leaf(self, subject: str, serial: int, key_role: str, not_after: int) -> Identity:
        """Issue (or re-derive, idempotently) a signing leaf under the signing CA,
        valid from a day before :data:`T0`."""
        return _issue_leaf(
            self.signing, self.seed, key_role, subject, serial, T0 - DAY, not_after,
            Usage.LEAF_SIGNING,
        )

    @property
    def fixtures_dir(self) -> Path:
        return self.root / "fixtures"

    @property
    def corpus_dir(self) -> Path:
        return self.root / "corpus"
