"""Hashing and signature primitives.

Thin wrappers over :mod:`hashlib` and the ``cryptography`` package's Ed25519
implementation.  Signatures are deterministic and public keys are 32 bytes,
which keeps every fixture byte-stable across runs.

Key material for fixtures is derived from an integer seed with a keyed MAC,
so the same seed always yields the same keys without storing any randomness.

Validation checks the same certificate, revocation-list and token signatures
for every asset, so callers verify through :func:`verify_once`, a bounded
memo of :func:`verify` results keyed on the exact ``(public key, message,
signature)`` bytes.  Ed25519 verification is a pure function of those bytes
(RFC 8032), so a hit returns the verdict a fresh verification would; any
smaller key would let one signature vouch for a message it never covered.
:func:`verify` stays the raw primitive.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

# the memo holds at most MEMO_ENTRIES triples of at most MEMO_MESSAGE_BYTES
# each, so hostile input can pin about 2 MiB; longer messages skip the memo
MEMO_ENTRIES = 512
MEMO_MESSAGE_BYTES = 4096

_DERIVE_KEY = b"provlab/keys/v1"


def digest(data: bytes) -> bytes:
    """SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()


class SigningKey:
    """An Ed25519 private key with its serialised public half."""

    def __init__(self, private: Ed25519PrivateKey):
        self._private = private
        self.public_bytes: bytes = private.public_key().public_bytes_raw()

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is valid for ``message`` under ``public_key``."""
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _memo(public_key: bytes, message: bytes, signature: bytes) -> bool:
    # ``verify`` is looked up at call time, so whatever rebinds
    # ``crypto.verify`` (a tracer, a test counting calls) sees every miss
    return verify(public_key, message, signature)


def verify_once(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """:func:`verify`, remembering the verdict for the exact bytes given.

    Arguments are copied to ``bytes``, so a buffer mutated after the call
    cannot alter a stored key.  A message longer than ``MEMO_MESSAGE_BYTES``,
    or a key or signature of the wrong size, is verified directly and never
    stored.
    """
    if (
        len(message) > MEMO_MESSAGE_BYTES
        or len(public_key) != PUBLIC_KEY_SIZE
        or len(signature) != SIGNATURE_SIZE
    ):
        return verify(public_key, message, signature)
    return _memo(bytes(public_key), bytes(message), bytes(signature))


verify_once.cache_clear = _memo.cache_clear
verify_once.cache_info = _memo.cache_info


def _derive(key: bytes, seed: int, role: str) -> bytes:
    return hmac.new(key, struct.pack(">Q", seed) + role.encode("utf-8"), hashlib.sha256).digest()


def derive_signing_key(seed: int, role: str) -> SigningKey:
    """Derive the signing key for ``role`` from a workspace seed in ``0 … 2**64-1``."""
    return SigningKey(Ed25519PrivateKey.from_private_bytes(_derive(_DERIVE_KEY, seed, role)))


def derive_stream_seed(seed: int, role: str) -> int:
    """Derive a content sub-seed for ``role`` from a seed in ``0 … 2**64-1``."""
    return int.from_bytes(_derive(_DERIVE_KEY + b"/stream", seed, role)[:8], "big")
