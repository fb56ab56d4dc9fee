"""Content-provenance laboratory.

A small, self-contained model of an embedded-credential protocol for media
files: a segmented container format, canonically encoded claims signed under
a certificate hierarchy, timestamp tokens, revocation channels, and a
policy-driven validator.  The package also ships the attack toolkit and
fixture corpus used to compare a permissive validation policy against a
hardened one.

Module map:

- ``errors``        the five error classes, one per distinction a caller makes
- ``encoding``      deterministic canonical value codec
- ``records``       the record codec: dataclass value shapes and canonical bytes
- ``crypto``        hashing, signatures, seeded key derivation
- ``container``     segmented asset container and hard bindings
- ``credentials``   assertions, claims, manifests, redaction
- ``trust``         certificates, chains, revocation lists
- ``statusservice`` online certificate-status protocol (server + client)
- ``timestamp``     timestamp tokens and archival extension
- ``signer``        claim construction, embedding, fixture scenarios
- ``validator``     policy-driven validation and differential comparison
- ``attacks``       the attack toolkit
- ``workspace``     on-disk key/authority state for the CLI
- ``corpus``        fixture-by-attack corpus generation
- ``cli``           command-line interface
"""

__version__ = "0.1.0"
