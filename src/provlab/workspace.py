"""On-disk workspace: seeded key material, authorities, and trust anchors.

A workspace root holds everything the CLI needs between invocations:

- ``authorities.json``  signing CA and TSA state (keys, issuance registry,
  revocations) plus the device and redactor leaves
- ``trust.json``        the trust-anchor list
- ``fixtures/``         per-scenario fixture trees
- ``corpus/``           the generated fixture-by-attack corpus

Every key is derived from the workspace seed, every certificate window is an
offset from the fixed epoch :data:`T0`, and no file ever records a wall-clock
time, so two workspaces initialised with the same seed are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .crypto import SigningKey, derive_signing_key
from .errors import RootNotEmpty, WorkspaceError
from .timestamp import TimestampAuthority
from .trust import (
    Authority,
    Certificate,
    TrustList,
    Usage,
    decode_certificate,
    encode_certificate,
    issue_certificate,
)

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

AUTHORITIES_FILE = "authorities.json"
TRUST_FILE = "trust.json"


@dataclass(frozen=True)
class Identity:
    """A leaf key with its verification chain."""

    key: SigningKey
    chain: tuple[Certificate, ...]

    @property
    def cert(self) -> Certificate:
        return self.chain[0]


def _self_signed_root(key: SigningKey, name: str, serial: int) -> Certificate:
    template = Certificate(
        serial=serial,
        subject=name,
        issuer=name,
        public_key=key.public_bytes,
        not_before=T0 - 20 * YEAR,
        not_after=T0 + 20 * YEAR,
        usage=Usage.ROOT,
        issuer_signature=b"",
    )
    return issue_certificate(key, template)


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
            serial=serial,
            subject=subject,
            issuer=authority.name,
            public_key=key.public_bytes,
            not_before=not_before,
            not_after=not_after,
            usage=usage,
            issuer_signature=b"",
        )
    )
    return Identity(key, (cert, authority.cert))


class Workspace:
    def __init__(
        self,
        root: Path,
        seed: int,
        clock: int,
        signing: Authority,
        tsa_authority: Authority,
        tsa_leaf: Identity,
        device: Identity,
        redactor: Identity,
        trust: TrustList,
    ):
        self.root = Path(root)
        self.seed = seed
        self.clock = clock
        self.signing = signing
        self.tsa_authority = tsa_authority
        self.tsa_leaf = tsa_leaf
        self.device = device
        self.redactor = redactor
        self.trust = trust

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(cls, root: Path | str, seed: int) -> "Workspace":
        root = Path(root)
        if root.exists() and any(root.iterdir()):
            raise RootNotEmpty(f"workspace root {root} is not empty")
        root.mkdir(parents=True, exist_ok=True)

        signing_key = derive_signing_key(seed, "signing-ca")
        signing_cert = _self_signed_root(signing_key, SIGNING_ROOT_NAME, SIGNING_ROOT_SERIAL)
        signing = Authority(SIGNING_ROOT_NAME, signing_key, signing_cert, T0)

        tsa_key = derive_signing_key(seed, "tsa-ca")
        tsa_cert = _self_signed_root(tsa_key, TSA_ROOT_NAME, TSA_ROOT_SERIAL)
        tsa_authority = Authority(TSA_ROOT_NAME, tsa_key, tsa_cert, T0)

        tsa_leaf = _issue_leaf(
            tsa_authority, seed, "tsa-leaf", "provlab tsa", TSA_LEAF_SERIAL,
            T0 - 15 * YEAR, T0 + 15 * YEAR, Usage.LEAF_TSA,
        )
        device = _issue_leaf(
            signing, seed, "device-leaf", "device-1", DEVICE_SERIAL,
            T0 - DAY, T0 + 2 * YEAR, Usage.LEAF_SIGNING,
        )
        redactor = _issue_leaf(
            signing, seed, "redactor-leaf", "redactor-1", REDACTOR_SERIAL,
            T0 - DAY, T0 + 2 * YEAR, Usage.LEAF_SIGNING,
        )

        trust = TrustList((signing_cert, tsa_cert))
        workspace = cls(
            root, seed, T0, signing, tsa_authority, tsa_leaf, device, redactor, trust
        )
        workspace.save()
        return workspace

    @classmethod
    def load(cls, root: Path | str) -> "Workspace":
        root = Path(root)
        try:
            state = json.loads((root / AUTHORITIES_FILE).read_text())
            trust_state = json.loads((root / TRUST_FILE).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise WorkspaceError(f"cannot load workspace at {root}: {exc}") from exc
        if state.get("schema") != "prov-workspace/1":
            raise WorkspaceError("unrecognised workspace state schema")

        def authority(record: dict, name: str) -> Authority:
            key = SigningKey.from_seed_bytes(bytes.fromhex(record["key"]))
            cert = decode_certificate(bytes.fromhex(record["cert"]))
            auth = Authority(name, key, cert, state["clock"])
            auth.issued = {int(s): subject for s, subject in record["issued"].items()}
            auth.revoked = {int(s): at for s, at in record["revoked"].items()}
            return auth

        def identity(record: dict) -> Identity:
            key = SigningKey.from_seed_bytes(bytes.fromhex(record["key"]))
            chain = tuple(decode_certificate(bytes.fromhex(c)) for c in record["chain"])
            return Identity(key, chain)

        trust = TrustList(
            tuple(decode_certificate(bytes.fromhex(c)) for c in trust_state["anchors"])
        )
        return cls(
            root=root,
            seed=state["seed"],
            clock=state["clock"],
            signing=authority(state["signing"], SIGNING_ROOT_NAME),
            tsa_authority=authority(state["tsa"], TSA_ROOT_NAME),
            tsa_leaf=identity(state["tsa_leaf"]),
            device=identity(state["device"]),
            redactor=identity(state["redactor"]),
            trust=trust,
        )

    def save(self) -> None:
        def authority_state(auth: Authority) -> dict:
            return {
                "key": auth.key.private_bytes.hex(),
                "cert": encode_certificate(auth.cert).hex(),
                "issued": {str(s): subject for s, subject in sorted(auth.issued.items())},
                "revoked": {str(s): at for s, at in sorted(auth.revoked.items())},
            }

        def identity_state(identity: Identity) -> dict:
            return {
                "key": identity.key.private_bytes.hex(),
                "chain": [encode_certificate(c).hex() for c in identity.chain],
            }

        state = {
            "schema": "prov-workspace/1",
            "seed": self.seed,
            "clock": self.clock,
            "signing": authority_state(self.signing),
            "tsa": authority_state(self.tsa_authority),
            "tsa_leaf": identity_state(self.tsa_leaf),
            "device": identity_state(self.device),
            "redactor": identity_state(self.redactor),
        }
        trust_state = {
            "schema": "prov-trust/1",
            "anchors": [encode_certificate(c).hex() for c in self.trust.anchors],
        }
        (self.root / AUTHORITIES_FILE).write_text(
            json.dumps(state, sort_keys=True, indent=2) + "\n"
        )
        (self.root / TRUST_FILE).write_text(
            json.dumps(trust_state, sort_keys=True, indent=2) + "\n"
        )

    # -- derived handles ----------------------------------------------------

    def tsa(self) -> TimestampAuthority:
        return TimestampAuthority(self.tsa_leaf.key, self.tsa_leaf.chain, self.clock)

    def issue_leaf(
        self,
        subject: str,
        serial: int,
        key_role: str,
        not_before: int,
        not_after: int,
        usage: Usage = Usage.LEAF_SIGNING,
    ) -> Identity:
        """Issue (or re-derive, idempotently) a leaf under the signing CA."""
        return _issue_leaf(
            self.signing, self.seed, key_role, subject, serial, not_before, not_after, usage
        )

    @property
    def fixtures_dir(self) -> Path:
        return self.root / "fixtures"

    @property
    def corpus_dir(self) -> Path:
        return self.root / "corpus"
