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
An asset laid out from one whole wire in ``bytes`` (a ``bytes`` input to
:func:`parse_asset`, or the buffer :func:`reserve_manifest` writes for a
large signing) keeps it as :attr:`Asset.wire`, and :func:`serialize_asset`
returns that wire as it is and :func:`write_asset` writes it in one call.
Any other asset is serialized by joining the chunks that :func:`write_asset`
writes.  An asset parsed from a mapping must not outlive it, and the mapped
file must not change while the asset is in use.

Every asset is laid out by one walk, :func:`_lay_out`, over segment heads:
parse passes the heads it reads (checking each one's framing as it goes),
build its checked parts, and embed, strip and splice the heads of their
result, each payload where it already is.  The walk places each segment where
the last one ended and applies the structure rules, so an edited asset obeys
them because of how it is built.

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
import io
import mmap
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Callable, Iterable, Iterator

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


def _payload_view(segment: Segment) -> memoryview:
    """``segment``'s payload in place; the view pins its buffer, so do not keep it."""
    return memoryview(segment.buffer)[segment.offset : segment.offset + segment.range.length]


@dataclass(frozen=True, eq=False)
class Asset:
    """Segments over backing buffers; equal assets have equal segments and
    payloads, whatever buffers back them.  ``wire`` is the whole wire the
    asset was laid out from, when one ``bytes`` holds it."""

    segments: tuple[Segment, ...]
    wire: bytes | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        """Length of the logical content."""
        return self.segments[-1].range.end if self.segments else 0

    @property
    def data(self) -> bytes:
        """The logical content, joined afresh on each read."""
        return b"".join([_payload_view(segment) for segment in self.segments])

    def payload(self, segment: Segment) -> bytes:
        """``segment``'s payload, one slice of the buffer that holds it."""
        return segment.buffer[segment.offset : segment.offset + segment.range.length]

    def find_manifest(self) -> Segment | None:
        for segment in self.segments:
            if segment.kind is SegmentKind.MANIFEST:
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
            _payload_view(a) == _payload_view(b) for a, b in zip(self.segments, other.segments)
        )


def _check_label(label: str) -> bytes:
    try:
        raw = label.encode("ascii")
    except UnicodeEncodeError:
        raise MalformedContainer(f"segment label is not ASCII: {label!r}") from None
    if len(raw) > 255:
        raise MalformedContainer("segment label longer than 255 bytes")
    return raw


_KINDS = {kind.value: kind for kind in SegmentKind}  # a kind by its wire byte


def _lay_out(
    heads: Iterable[tuple[SegmentKind, str, Buffer, int, int]], wire: bytes | None = None
) -> Asset:
    """The asset with these ``(kind, label, buffer, offset, length)`` heads laid
    out back to back: the one place an :class:`Asset` or :class:`Segment` is
    built.  Each range starts where the last ended, over a length its caller
    checked positive, so it skips ``ByteRange``'s check.  The same walk applies
    the structure rules; the first one broken raises at its end."""
    manifest, metadata = SegmentKind.MANIFEST, SegmentKind.METADATA
    header, trailer = SegmentKind.HEADER, SegmentKind.TRAILER
    new = object.__new__
    segments: list[Segment] = []
    labels: list[str] = []  # of the metadata segments
    manifests = logical = 0
    misplaced = None  # the first misplaced header or trailer, in segment order
    for kind, label, buffer, offset, length in heads:
        manifests += kind is manifest
        if kind is metadata:
            labels.append(label)
        if misplaced is None and segments:
            misplaced = "trailer segment not last" if segments[-1].kind is trailer else (
                "header segment not first" if kind is header else None)
        rng, segment = new(ByteRange), new(Segment)
        fields = rng.__dict__
        fields["start"], fields["length"] = logical, length
        fields = segment.__dict__
        fields["kind"], fields["range"], fields["label"] = kind, rng, label
        fields["buffer"], fields["offset"] = buffer, offset
        segments.append(segment)
        logical += length
    if manifests > 1:
        raise MalformedContainer("more than one manifest segment")
    if len(set(labels)) != len(labels):
        raise MalformedContainer("duplicate metadata label")
    if misplaced is not None:
        raise MalformedContainer(misplaced)
    return Asset(tuple(segments), wire)


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
    return _lay_out(checked)


def _wire_heads(data: Buffer) -> Iterator[tuple[SegmentKind, str, Buffer, int, int]]:
    """Each segment head of ``data`` after the magic, checked as it is read:
    a known kind, an ASCII label, a non-empty payload inside the input."""
    size, pos = len(data), len(MAGIC)
    while pos < size:
        if pos + 2 > size:
            raise MalformedContainer("truncated segment head")
        kind = _KINDS.get(data[pos])
        if kind is None:
            raise MalformedContainer(f"unknown segment kind {data[pos]}")
        label_end = pos + 2 + data[pos + 1]
        if label_end + 4 > size:
            raise MalformedContainer("truncated segment head")
        raw_label = data[pos + 2 : label_end]
        if not raw_label.isascii():
            raise MalformedContainer("segment label is not ASCII")
        pos = label_end + 4
        length = int.from_bytes(data[label_end:pos], "big")
        if length == 0:
            raise MalformedContainer("empty segment payload")
        if pos + length > size:
            raise MalformedContainer("segment payload overruns input")
        yield kind, raw_label.decode("ascii"), data, pos, length
        pos += length


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
    if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise MalformedContainer("bad magic")
    return _lay_out(_wire_heads(data), data if type(data) is bytes else None)


def _heads(segments: Iterable[Segment]) -> list[tuple]:
    """The :func:`_lay_out` heads of ``segments``, each payload where it is."""
    return [(s.kind, s.label, s.buffer, s.offset, s.range.length) for s in segments]


def _wire_chunks(asset: Asset) -> list[bytes | memoryview]:
    """The asset's kept wire, or else the magic, then each segment's head
    (kind, label length, label, payload length) and payload view; labels
    checked first."""
    if asset.wire is not None:
        return [asset.wire]
    chunks: list[bytes | memoryview] = [MAGIC]
    for segment in asset.segments:
        raw = _check_label(segment.label)
        head = bytes((segment.kind, len(raw))) + raw + segment.range.length.to_bytes(4, "big")
        chunks += head, _payload_view(segment)
    return chunks


def serialize_asset(asset: Asset) -> bytes:
    """The wire bytes for ``asset``: its kept wire, else a join of its
    chunks; inverse of :func:`parse_asset`."""
    return asset.wire if asset.wire is not None else b"".join(_wire_chunks(asset))


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
    size = asset.size
    for rng in ordered:
        if rng.start + rng.length > size:
            raise ProvenanceError(f"range [{rng.start}, {rng.length}) exceeds asset of {size} bytes")
    for prev, nxt in zip(ordered, ordered[1:]):
        if prev.start + prev.length > nxt.start:
            raise ProvenanceError(f"ranges at {prev.start} and {nxt.start} overlap")
    return ordered


def compute_hard_binding(
    asset: Asset, exclusions: tuple[ByteRange, ...] | list[ByteRange]
) -> bytes:
    """The SHA-256 digest of every logical byte outside ``exclusions``, in
    offset order: the digest a :class:`~.credentials.HardBinding` over them records.

    No kept byte may fall inside a manifest segment: the manifest cannot hash
    itself.  One walk over the segment table beside the sorted exclusions
    hashes each kept span, or each segment's part of it, once and straight
    from the buffer that holds it: a span of ``bytes`` up to 4 KiB from a
    slice, which costs less than a view, and any other span in place, so a
    large one is never copied.
    """
    ordered = _checked_exclusions(asset, exclusions)
    hasher, manifest, size = hashlib.sha256(), SegmentKind.MANIFEST, asset.size
    cuts = iter(ordered)
    cut = next(cuts, None)  # the next exclusion: its bounds, (size, size) past the last
    cut_start, cut_end = (cut.start, cut.start + cut.length) if cut else (size, size)
    kept = 0  # where the kept bytes before it start
    for segment in asset.segments:
        start = segment.range.start
        end = start + segment.range.length
        buffer, base = segment.buffer, segment.offset - start
        while True:
            stop = cut_start if cut_start < end else end
            if kept < stop:
                if segment.kind is manifest:
                    raise ProvenanceError("manifest segment not fully covered by exclusions")
                lo, hi = base + kept, base + stop
                small = type(buffer) is bytes and hi - lo <= 4096
                hasher.update(buffer[lo:hi] if small else memoryview(buffer)[lo:hi])
                kept = stop
            if cut_start >= end:
                break  # the next exclusion starts in a later segment
            kept, cut = cut_end, next(cuts, None)
            cut_start, cut_end = (cut.start, cut.start + cut.length) if cut else (size, size)
    return hasher.digest()


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
    payload = bytes(manifest_bytes)
    heads = _heads(asset.segments)
    at = 1 if manifest_insert_offset(asset) else 0  # after a leading header
    heads.insert(at, (SegmentKind.MANIFEST, MANIFEST_LABEL, payload, 0, len(payload)))
    return _lay_out(heads)


def reserve_manifest(asset: Asset, length: int) -> Callable[[bytes], Asset]:
    """Write the wire of ``asset`` with a zeroed ``length``-byte manifest
    embedded into one buffer of the wire's size, copying each payload once;
    return the function that writes the manifest into that slot and returns
    the signed asset, backed by the wire.  Nothing here changes ``asset``,
    so another thread may hash it meanwhile."""
    placeholder = embed_manifest(asset, bytes(length))
    chunks = _wire_chunks(placeholder)
    at = next(i for i, s in enumerate(placeholder.segments) if s.kind is SegmentKind.MANIFEST)
    slot = sum(map(len, chunks[: 2 + 2 * at]))  # before the manifest's payload view
    buffer = io.BytesIO()
    buffer.seek(sum(map(len, chunks)) - 1)
    buffer.write(b"\0")  # one allocation of the final size, which getvalue hands out
    buffer.seek(0)
    buffer.writelines(chunks)

    def fill(manifest_bytes: bytes) -> Asset:
        if len(manifest_bytes) != length:
            raise ValueError(f"manifest is {len(manifest_bytes)} bytes, not {length}")
        buffer.seek(slot)
        buffer.write(manifest_bytes)
        return parse_asset(buffer.getvalue())

    return fill


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
    return _lay_out(_heads(s for s in asset.segments if s is not segment))


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
    heads = _heads(asset.segments)
    for index, segment in enumerate(asset.segments):
        lo = max(target.start, segment.range.start)
        hi = min(target.end, segment.range.end)
        if lo < hi:
            payload = bytearray(asset.payload(segment))
            start = segment.range.start
            payload[lo - start : hi - start] = replacement[lo - target.start : hi - target.start]
            heads[index] = (segment.kind, segment.label, bytes(payload), 0, len(payload))
    return _lay_out(heads)
