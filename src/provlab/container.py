"""Segmented asset container and hard bindings.

Wire layout of an asset file::

    magic "PVL1"
    repeated segments, each:
        kind          1 byte
        label-length  1 byte
        label         ASCII, label-length bytes
        payload-len   4 bytes, big-endian
        payload       payload-len bytes

An :class:`Asset` is backed by the buffers its payloads live in, not by a
copy of them.  Each segment holds the buffer of its payload and the
payload's offset in it, so reading one payload is one slice.  A parsed
asset's segments share the wire buffer it was parsed from (``bytes`` or a
read-only ``mmap``).  A built or edited asset holds one buffer per new
payload and shares the rest with the asset it came from.  So parsing,
hashing, embedding and splicing copy no payload the caller already holds.
:func:`serialize_asset` joins the chunks that :func:`write_asset` writes.  An
asset parsed from a mapping must not outlive it, and the mapped file must not
change while the asset is in use.

Addressing is unchanged by the backing: every byte range in this module
(segment ranges, exclusion ranges, splices) addresses the *logical* content,
the concatenation of segment payloads, because exclusions are part of the
signed format.  :attr:`Asset.data` joins that content on each read and keeps
nothing; validation and signing never read it.  Parse and serialize are exact
inverses.

Four rules say how byte ranges behave; the signer and validator restate none:

1. *Move*: inserting ``delta`` bytes at ``at`` moves a range that starts at or
   after ``at`` and leaves one before it (:meth:`ByteRange.moved`).
2. *Overlap*: two ranges overlap when each starts before the other ends
   (:meth:`ByteRange.overlaps`).
3. *Complement*: a hard binding is a digest over the kept spans, the logical
   bytes outside its exclusions.  The manifest stores that digest, so it may
   overlap no non-empty kept span.
4. *Bounds*: every exclusion and splice target lies inside the asset, and no
   two exclusions overlap (:func:`_checked_exclusions`).
"""

from __future__ import annotations

import hashlib
import mmap
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterator

from .errors import MalformedContainer, ProvenanceError

MAGIC = b"PVL1"

MANIFEST_LABEL = "manifest"

# what an asset's payloads are read from: immutable bytes or a read-only mapping
Buffer = bytes | mmap.mmap


class SegmentKind(IntEnum):
    HEADER = 1
    IMAGE_DATA = 2
    METADATA = 3
    MANIFEST = 4
    TRAILER = 5


@dataclass(frozen=True, order=True)
class ByteRange:
    """A half-open range ``[start, start + length)``; length is positive."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise ValueError(f"invalid byte range [{self.start}, {self.length})")

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, other: "ByteRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "ByteRange") -> bool:
        return self.start < other.end and other.start < self.end

    def moved(self, at: int, delta: int) -> "ByteRange":
        """This range moved by ``delta`` if it starts at or after ``at``."""
        return ByteRange(self.start + delta, self.length) if self.start >= at else self


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    range: ByteRange
    label: str
    # the payload is buffer[offset : offset + range.length]; equality ignores where it lives
    buffer: Buffer = field(compare=False, repr=False)
    offset: int = field(compare=False, repr=False)

    def moved(self, at: int, delta: int) -> "Segment":
        """This segment with its range moved (:meth:`ByteRange.moved`)."""
        return Segment(self.kind, self.range.moved(at, delta), self.label, self.buffer, self.offset)


@dataclass(frozen=True)
class HardBinding:
    """Digest over the logical bytes outside ``exclusions``."""

    algorithm: str
    exclusions: tuple[ByteRange, ...]
    digest: bytes


@dataclass(frozen=True, eq=False)
class Asset:
    """Segments over backing buffers; equal assets have equal segments and
    payloads, whatever buffers back them."""

    segments: tuple[Segment, ...]

    @property
    def size(self) -> int:
        """Length of the logical content."""
        return self.segments[-1].range.end if self.segments else 0

    @property
    def data(self) -> bytes:
        """The logical content, joined afresh on each read."""
        return b"".join(self._views((0, self.size)))

    def _views(self, *spans: tuple[int, int]) -> Iterator[memoryview]:
        """Slices of the backing buffers holding the logical bytes of
        ``spans``, sorted and disjoint ``(start, end)`` pairs: in order, one
        per segment a span touches, from a single walk over the segments.
        A slice pins its buffer (a mapping cannot close) until it is
        released, so do not keep it."""
        at = 0
        for segment in self.segments:
            base = segment.offset - segment.range.start
            while at < len(spans) and spans[at][0] < segment.range.end:
                start, end = spans[at]
                lo, hi = max(start, segment.range.start), min(end, segment.range.end)
                if lo < hi:
                    yield memoryview(segment.buffer)[base + lo : base + hi]
                if end > segment.range.end:
                    break  # the span goes on into the next segment
                at += 1

    def payload(self, segment: Segment) -> bytes:
        """``segment``'s payload, one slice of the buffer that holds it."""
        return segment.buffer[segment.offset : segment.offset + segment.range.length]

    def find_manifest(self) -> Segment | None:
        for segment in self.segments:
            if segment.kind == SegmentKind.MANIFEST:
                return segment
        return None

    def find_label(self, label: str) -> Segment | None:
        for segment in self.segments:
            if segment.label == label:
                return segment
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Asset):
            return NotImplemented
        return self.segments == other.segments and all(
            a == b for a, b in zip(self._views((0, self.size)), other._views((0, other.size)))
        )


def _check_label(label: str) -> bytes:
    try:
        raw = label.encode("ascii")
    except UnicodeEncodeError:
        raise MalformedContainer(f"segment label is not ASCII: {label!r}") from None
    if len(raw) > 255:
        raise MalformedContainer("segment label longer than 255 bytes")
    return raw


def _check_structure(segments: list[Segment]) -> None:
    manifests = [s for s in segments if s.kind == SegmentKind.MANIFEST]
    if len(manifests) > 1:
        raise MalformedContainer("more than one manifest segment")
    labels = [s.label for s in segments if s.kind == SegmentKind.METADATA]
    if len(labels) != len(set(labels)):
        raise MalformedContainer("duplicate metadata label")
    for index, segment in enumerate(segments):
        if segment.kind == SegmentKind.HEADER and index != 0:
            raise MalformedContainer("header segment not first")
        if segment.kind == SegmentKind.TRAILER and index != len(segments) - 1:
            raise MalformedContainer("trailer segment not last")


def _assemble(parts: list[tuple[SegmentKind, str, Buffer, int, int]]) -> Asset:
    """An asset from checked ``(kind, label, buffer, offset, length)`` parts,
    laid out back to back in logical order."""
    segments: list[Segment] = []
    logical = 0
    for kind, label, buffer, offset, length in parts:
        segments.append(Segment(kind, ByteRange(logical, length), label, buffer, offset))
        logical += length
    _check_structure(segments)
    return Asset(tuple(segments))


def build_asset(parts: list[tuple[SegmentKind, str, bytes]]) -> Asset:
    """Assemble an asset from ``(kind, label, payload)`` parts.

    A ``bytes`` payload is kept as it is; any other buffer is copied once,
    so that later changes to it do not reach the asset."""
    checked = []
    for kind, label, payload in parts:
        _check_label(label)
        payload = bytes(payload)  # its length in bytes, whatever the buffer's item size
        if not payload:
            raise MalformedContainer("empty segment payload")
        checked.append((SegmentKind(kind), label, payload, 0, len(payload)))
    return _assemble(checked)


def parse_asset(data: bytes | bytearray | memoryview | mmap.mmap) -> Asset:
    """Parse container bytes; raises on any framing inconsistency.

    ``bytes`` and a read-only ``mmap`` are read in place and back the asset;
    a ``bytearray`` or ``memoryview``, which the caller may still change, is
    copied first.
    """
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    elif not isinstance(data, (bytes, mmap.mmap)):
        raise MalformedContainer("input must be bytes")
    size = len(data)
    if size < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise MalformedContainer("bad magic")
    pos = len(MAGIC)
    parts: list[tuple[SegmentKind, str, Buffer, int, int]] = []
    while pos < size:
        if pos + 2 > size:
            raise MalformedContainer("truncated segment head")
        kind_byte = data[pos]
        label_len = data[pos + 1]
        pos += 2
        try:
            kind = SegmentKind(kind_byte)
        except ValueError:
            raise MalformedContainer(f"unknown segment kind {kind_byte}") from None
        if pos + label_len + 4 > size:
            raise MalformedContainer("truncated segment head")
        raw_label = data[pos : pos + label_len]
        pos += label_len
        if not raw_label.isascii():
            raise MalformedContainer("segment label is not ASCII")
        payload_len = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        if payload_len == 0:
            raise MalformedContainer("empty segment payload")
        if pos + payload_len > size:
            raise MalformedContainer("segment payload overruns input")
        parts.append((kind, raw_label.decode("ascii"), data, pos, payload_len))
        pos += payload_len
    return _assemble(parts)


def _wire_chunks(asset: Asset) -> list[bytes | memoryview]:
    """The magic, then each segment's head (kind, label length, label, payload
    length) and payload view; labels checked first."""
    chunks: list[bytes | memoryview] = [MAGIC]
    for segment, payload in zip(asset.segments, asset._views((0, asset.size))):
        raw = _check_label(segment.label)
        head = bytes((segment.kind, len(raw))) + raw + segment.range.length.to_bytes(4, "big")
        chunks += head, payload
    return chunks


def serialize_asset(asset: Asset) -> bytes:
    """Reproduce the wire bytes for ``asset``; inverse of :func:`parse_asset`."""
    return b"".join(_wire_chunks(asset))


def write_asset(asset: Asset, path: Path) -> None:
    """Write the :func:`serialize_asset` bytes with no join, to a sibling file that
    then replaces ``path``: a failed write leaves ``path`` as it was, and a
    mapping of ``path`` that backs ``asset`` is never truncated under it.  An
    ``OSError`` names ``path``, not the sibling file."""
    chunks = _wire_chunks(asset)  # a bad label raises before any file is opened
    partial = path.with_name(f".{path.name}.partial")
    try:
        with open(partial, "wb") as handle:
            handle.writelines(chunks)
        partial.replace(path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    finally:
        partial.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# hard binding
# ---------------------------------------------------------------------------

def _checked_exclusions(
    asset: Asset, exclusions: tuple[ByteRange, ...] | list[ByteRange]
) -> tuple[ByteRange, ...]:
    """``exclusions`` sorted; each inside the asset, none overlapping another."""
    ordered = tuple(sorted(exclusions))
    for rng in ordered:
        if rng.end > asset.size:
            raise ProvenanceError(
                f"range [{rng.start}, {rng.length}) exceeds asset of {asset.size} bytes"
            )
    for prev, nxt in zip(ordered, ordered[1:]):
        if prev.end > nxt.start:
            raise ProvenanceError(f"ranges at {prev.start} and {nxt.start} overlap")
    return ordered


def compute_hard_binding(
    asset: Asset, exclusions: tuple[ByteRange, ...] | list[ByteRange]
) -> HardBinding:
    """SHA-256 over every logical byte outside ``exclusions``, in offset order.

    If the asset carries a manifest segment, no kept byte may fall inside it:
    the manifest cannot hash itself.  The kept bytes are hashed in place in
    the buffers that back the asset.
    """
    ordered = _checked_exclusions(asset, exclusions)
    kept_starts = (0,) + tuple(rng.end for rng in ordered)
    kept = tuple(zip(kept_starts, tuple(rng.start for rng in ordered) + (asset.size,)))
    manifest = asset.find_manifest()
    if manifest is not None:
        start, end = manifest.range.start, manifest.range.end
        for lo, hi in kept:  # adjacent exclusions leave an empty kept span
            if lo < hi and lo < end and start < hi:
                raise ProvenanceError("manifest segment not fully covered by exclusions")
    hasher = hashlib.sha256()
    for view in asset._views(*kept):
        hasher.update(view)
    return HardBinding("sha-256", ordered, hasher.digest())


# ---------------------------------------------------------------------------
# manifest embedding
# ---------------------------------------------------------------------------

def manifest_insert_offset(asset: Asset) -> int:
    """Canonical manifest position: immediately after a leading header."""
    if asset.segments and asset.segments[0].kind == SegmentKind.HEADER:
        return asset.segments[0].range.end
    return 0


def embed_manifest(asset: Asset, manifest_bytes: bytes) -> Asset:
    """Insert a manifest segment at the canonical position."""
    if asset.find_manifest() is not None:
        raise ProvenanceError("asset already carries a manifest")
    if not manifest_bytes:
        raise ValueError("manifest bytes must be non-empty")
    offset = manifest_insert_offset(asset)
    index = 1 if offset else 0
    rng = ByteRange(offset, len(manifest_bytes))
    manifest = Segment(SegmentKind.MANIFEST, rng, MANIFEST_LABEL, bytes(manifest_bytes), 0)
    moved = tuple(s.moved(offset, rng.length) for s in asset.segments[index:])
    return Asset(asset.segments[:index] + (manifest,) + moved)


def extract_manifest(asset: Asset) -> bytes:
    segment = asset.find_manifest()
    if segment is None:
        raise ProvenanceError("asset carries no manifest segment")
    return asset.payload(segment)


def strip_manifest(asset: Asset) -> Asset:
    """Remove the manifest segment; inverse of :func:`embed_manifest`."""
    segment = asset.find_manifest()
    if segment is None:
        raise ProvenanceError("asset carries no manifest segment")
    index = asset.segments.index(segment)
    rng = segment.range
    moved = tuple(s.moved(rng.end, -rng.length) for s in asset.segments[index + 1 :])
    return Asset(asset.segments[:index] + moved)


def replace_manifest(asset: Asset, manifest_bytes: bytes) -> Asset:
    """Swap the manifest payload in place, shifting later segments."""
    return embed_manifest(strip_manifest(asset), manifest_bytes)


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------

def splice_bytes(asset: Asset, target: ByteRange, replacement: bytes) -> Asset:
    """Overwrite ``target`` with ``replacement`` of identical length.

    Only the segments ``target`` touches get new payload buffers."""
    _checked_exclusions(asset, [target])
    if len(replacement) != target.length:
        raise ProvenanceError(
            f"replacement is {len(replacement)} bytes for a {target.length}-byte range"
        )
    segments = list(asset.segments)
    for index, segment in enumerate(asset.segments):
        lo = max(target.start, segment.range.start)
        hi = min(target.end, segment.range.end)
        if lo < hi:
            payload = bytearray(asset.payload(segment))
            start = segment.range.start
            payload[lo - start : hi - start] = replacement[lo - target.start : hi - target.start]
            segments[index] = Segment(segment.kind, segment.range, segment.label, bytes(payload), 0)
    return Asset(tuple(segments))
