"""Container format: round-trips, strict parsing, hard-binding digests."""

import array
import copy
import dataclasses
import hashlib
import mmap
import pickle
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlab.container import (
    MAGIC,
    Asset,
    ByteRange,
    Segment,
    SegmentKind,
    build_asset,
    compute_hard_binding,
    embed_manifest,
    extract_manifest,
    manifest_insert_offset,
    parse_asset,
    replace_manifest,
    reserve_manifest,
    serialize_asset,
    splice_bytes,
    strip_manifest,
    write_asset,
)
from provlab.errors import MalformedContainer, ProvenanceError


def simple_parts(manifest: bytes | None = b"MANIFEST"):
    parts = [
        (SegmentKind.HEADER, "header", b"HEAD"),
        (SegmentKind.METADATA, "meta.gps", b"+10.000000,+020.000000"),
        (SegmentKind.IMAGE_DATA, "image", bytes(range(64))),
        (SegmentKind.TRAILER, "trailer", b"TRLR"),
    ]
    if manifest is not None:
        parts.insert(1, (SegmentKind.MANIFEST, "manifest", manifest))
    return parts


def test_build_parse_serialize_roundtrip():
    asset = build_asset(simple_parts())
    wire = serialize_asset(asset)
    assert wire.startswith(MAGIC)
    again = parse_asset(wire)
    assert again == asset
    assert serialize_asset(again) == wire


def test_logical_data_is_payload_concatenation():
    asset = build_asset(simple_parts(manifest=None))
    assert asset.data == b"HEAD" + b"+10.000000,+020.000000" + bytes(range(64)) + b"TRLR"
    for segment in asset.segments:
        assert asset.payload(segment) == asset.data[segment.range.start : segment.range.end]


def test_parse_reads_every_buffer_type_alike(tmp_path):
    wire = serialize_asset(build_asset(simple_parts()))
    path = tmp_path / "asset.pvl"
    path.write_bytes(wire)
    reference = parse_asset(wire)
    with open(path, "rb") as handle:
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            for data in (wire, bytearray(wire), memoryview(wire), mapped):
                asset = parse_asset(data)
                assert asset == reference
                assert serialize_asset(asset) == wire
                del asset  # the mapping cannot close while an asset reads it


def test_build_keeps_every_byte_of_a_wide_buffer():
    """A payload buffer whose items are wider than a byte is kept whole."""
    wide = memoryview(array.array("I", [1, 2, 3]))
    asset = build_asset([(SegmentKind.IMAGE_DATA, "image", wide)])
    assert asset.size == 12 and asset.payload(asset.segments[0]) == wide.tobytes()


def test_embed_keeps_every_byte_of_a_wide_manifest_buffer():
    wide = memoryview(array.array("I", [1, 2]))
    embedded = embed_manifest(build_asset(simple_parts(manifest=None)), wide)
    assert embedded.find_manifest().range.length == 8
    assert extract_manifest(embedded) == wide.tobytes()


def test_parse_copies_a_buffer_the_caller_may_change():
    wire = bytearray(serialize_asset(build_asset(simple_parts())))
    asset = parse_asset(wire)
    before = serialize_asset(asset)
    wire[-1] ^= 0xFF
    assert serialize_asset(asset) == before


def test_container_operations_never_materialise_data(monkeypatch, tmp_path):
    def refuse(asset):
        raise AssertionError("Asset.data was read")

    monkeypatch.setattr(Asset, "data", property(refuse))
    bare = build_asset(simple_parts(manifest=None))
    parsed = parse_asset(serialize_asset(embed_manifest(bare, b"M" * 9)))
    gps = parsed.find_label("meta.gps")
    compute_hard_binding(parsed, [parsed.find_manifest().range, gps.range])
    spliced = splice_bytes(parsed, gps.range, b"-80.000000,-170.000000")
    replaced = replace_manifest(spliced, b"LONGER-MANIFEST")
    serialize_asset(strip_manifest(replaced))
    write_asset(replaced, tmp_path / "asset.pvl")
    assert extract_manifest(replaced) == b"LONGER-MANIFEST" and spliced != parsed
    with pytest.raises(AssertionError, match="Asset.data was read"):
        bare.data


MIB = 2**20


def large_parts(image: bytes):
    return [
        (SegmentKind.HEADER, "header", b"HEAD"),
        (SegmentKind.IMAGE_DATA, "image", image),
        (SegmentKind.TRAILER, "trailer", b"TRLR"),
    ]


def traced(call):
    """``call()``'s result, and the bytes it allocated at its peak and still
    held when it returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, held - base


def test_reading_data_keeps_no_copy():
    asset = build_asset(large_parts(bytes(16 * MIB)))
    size, _, held = traced(lambda: len(asset.data))
    assert size == 16 * MIB + 8
    assert held < 64 * 1024


def test_write_asset_writes_the_serialized_bytes_of_every_corpus_entry(
    corpus, entry_bytes, tmp_path
):
    path = tmp_path / "asset.pvl"
    for entry in corpus["entries"]:
        wire = entry_bytes(entry)
        asset = parse_asset(wire)
        write_asset(asset, path)
        assert path.read_bytes() == serialize_asset(asset) == wire
        assert serialize_asset(asset) is asset.wire is wire  # a parsed `bytes` wire is kept
        rebuilt = build_asset([(s.kind, s.label, asset.payload(s)) for s in asset.segments])
        assert rebuilt.wire is None
        write_asset(rebuilt, path)
        assert path.read_bytes() == serialize_asset(rebuilt) == wire


def test_write_asset_checks_every_label_before_it_truncates(tmp_path):
    asset = build_asset(simple_parts())
    last = asset.segments[-1]
    bad_label = Segment(last.kind, last.range, "\u00e9", last.buffer, last.offset)
    bad = Asset(asset.segments[:-1] + (bad_label,))
    path = tmp_path / "asset.pvl"
    path.write_bytes(b"kept")
    with pytest.raises(MalformedContainer, match="not ASCII"):
        write_asset(bad, path)
    assert path.read_bytes() == b"kept"


def test_write_asset_over_the_file_that_backs_the_asset(tmp_path):
    wire = serialize_asset(build_asset(simple_parts()))
    path = tmp_path / "asset.pvl"
    path.write_bytes(wire)
    with open(path, "rb") as handle:
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            spliced = splice_bytes(parse_asset(mapped), ByteRange(0, 1), b"X")
            write_asset(spliced, path)  # the mapped file is replaced, not truncated
            assert mapped[:] == wire
            expected = serialize_asset(spliced)
            del spliced
    assert path.read_bytes() == expected != wire
    assert [p.name for p in tmp_path.iterdir()] == ["asset.pvl"]


def test_a_failed_write_leaves_the_file_as_it_was(tmp_path, monkeypatch):
    import provlab.container as container

    path = tmp_path / "asset.pvl"
    path.write_bytes(b"kept")
    monkeypatch.setattr(container, "_wire_chunks", lambda asset: [MAGIC, object()])
    with pytest.raises(TypeError):
        write_asset(build_asset(simple_parts()), path)
    assert path.read_bytes() == b"kept"
    assert [p.name for p in tmp_path.iterdir()] == ["asset.pvl"]


@pytest.mark.parametrize(
    "target, error",
    [("no-dir/asset.pvl", FileNotFoundError), ("dir", IsADirectoryError)],
    ids=["missing-directory", "directory"],
)
def test_a_failed_write_names_the_target_not_the_partial_file(tmp_path, target, error):
    (tmp_path / "dir").mkdir()
    path = tmp_path / target
    with pytest.raises(error) as raised:
        write_asset(build_asset(simple_parts()), path)
    assert (raised.value.filename, raised.value.filename2) == (str(path), None)
    assert str(raised.value).endswith(f": '{path}'")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


def test_a_parsed_segment_offset_is_its_payload_wire_position():
    parts = simple_parts()
    wire = serialize_asset(build_asset(parts))
    segments = parse_asset(wire).segments
    assert len(segments) == len(parts)
    for segment, (_, _, payload) in zip(segments, parts):
        assert segment.buffer is wire
        assert wire[segment.offset : segment.offset + segment.range.length] == payload


def _second_manifest(wire: bytes) -> bytes:
    # the manifest segment's wire bytes (kind, label length, label, payload
    # length, payload), repeated right after it
    asset = parse_asset(wire)
    segment = asset.find_manifest()
    head = segment.offset - 4 - len(segment.label) - 2
    end = segment.offset + segment.range.length
    return wire[:end] + wire[head:end] + wire[end:]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda w: b"XXXX" + w[4:],  # bad magic
        lambda w: w[:-1],  # truncated trailer payload
        lambda w: w + b"\x00",  # trailing garbage (kind 0 unknown)
        lambda w: w[:4] + bytes([1, 1, 0xFF, 0, 0, 0, 1, 0x41]),  # non-ascii label
        lambda w: w[:5],  # truncated segment header
        _second_manifest,
    ],
)
def test_malformed_wire_rejected(mutate):
    wire = serialize_asset(build_asset(simple_parts()))
    with pytest.raises(MalformedContainer):
        parse_asset(mutate(wire))


def test_a_segment_label_holds_at_most_255_bytes():
    parts = simple_parts()
    kind, _, payload = parts[2]
    parts[2] = (kind, "m" * 255, payload)
    assert parse_asset(serialize_asset(build_asset(parts))).segments[2].label == "m" * 255
    parts[2] = (kind, "m" * 256, payload)
    with pytest.raises(MalformedContainer, match="longer than 255 bytes"):
        build_asset(parts)


def test_two_manifests_rejected():
    parts = simple_parts() + [(SegmentKind.MANIFEST, "manifest", b"SECOND")]
    with pytest.raises(MalformedContainer, match="more than one manifest segment"):
        build_asset(parts)
    wire = serialize_asset(build_asset(simple_parts()))
    with pytest.raises(MalformedContainer, match="more than one manifest segment"):
        parse_asset(_second_manifest(wire))


def test_empty_payload_rejected():
    with pytest.raises(MalformedContainer):
        build_asset([(SegmentKind.HEADER, "header", b"")])


def test_a_zero_length_payload_on_the_wire_is_refused():
    wire = MAGIC + bytes((SegmentKind.HEADER, 6)) + b"header" + bytes(4)
    with pytest.raises(MalformedContainer) as refused:
        parse_asset(wire)
    assert str(refused.value) == "empty segment payload"


def test_parse_refuses_text():
    wire = serialize_asset(build_asset(simple_parts()))
    with pytest.raises(MalformedContainer) as refused:
        parse_asset(wire.decode("latin-1"))
    assert str(refused.value) == "input must be bytes"


def test_duplicate_metadata_labels_rejected():
    parts = [
        (SegmentKind.HEADER, "header", b"HEAD"),
        (SegmentKind.METADATA, "note", b"one"),
        (SegmentKind.METADATA, "note", b"two"),
    ]
    with pytest.raises(MalformedContainer):
        build_asset(parts)


# ---------------------------------------------------------------------------
# parsing: a reference reader of the documented wire layout
# ---------------------------------------------------------------------------

# the kind bytes the structure rules name
HEADER, METADATA, MANIFEST, TRAILER = 1, 3, 4, 5


def reference_parse(wire: bytes):
    """The wire layout read plainly: each segment as ``(kind, label, (start,
    length), offset, payload)``, or the message of the first fault.  Framing
    faults come first, in wire order; then one manifest, no duplicate metadata
    label, and the first misplaced header or trailer in segment order."""
    if wire[:4] != b"PVL1":
        return "bad magic"
    segments, pos, logical = [], 4, 0
    while pos < len(wire):
        if pos + 2 > len(wire):
            return "truncated segment head"
        kind, label_length = wire[pos], wire[pos + 1]
        if kind not in (1, 2, 3, 4, 5):
            return f"unknown segment kind {kind}"
        label = wire[pos + 2 : pos + 2 + label_length]
        length_bytes = wire[pos + 2 + label_length : pos + 6 + label_length]
        if len(label) < label_length or len(length_bytes) < 4:
            return "truncated segment head"
        if any(byte > 0x7F for byte in label):
            return "segment label is not ASCII"
        length = int.from_bytes(length_bytes, "big")
        offset = pos + 6 + label_length
        if length == 0:
            return "empty segment payload"
        if offset + length > len(wire):
            return "segment payload overruns input"
        payload = wire[offset : offset + length]
        segments.append((kind, label.decode("ascii"), (logical, length), offset, payload))
        pos, logical = offset + length, logical + length
    kinds = [kind for kind, *_ in segments]
    labels = [label for kind, label, *_ in segments if kind == METADATA]
    if kinds.count(MANIFEST) > 1:
        return "more than one manifest segment"
    if len(set(labels)) != len(labels):
        return "duplicate metadata label"
    for index, kind in enumerate(kinds):
        if kind == HEADER and index != 0:
            return "header segment not first"
        if kind == TRAILER and index != len(kinds) - 1:
            return "trailer segment not last"
    return segments


def parse_disagreements(wires) -> list[str]:
    """Each wire on which ``parse_asset`` and the reference disagree."""
    found = []
    for wire in wires:
        expected = reference_parse(wire)
        try:
            asset = parse_asset(wire)
        except MalformedContainer as exc:
            got = str(exc)
        else:
            got = [
                (s.kind, s.label, (s.range.start, s.range.length), s.offset, asset.payload(s))
                for s in asset.segments
            ]
        if got != expected:
            found.append(f"{wire[:24].hex()}...: got {got!r:.120}, expected {expected!r:.120}")
    return found


def head_spans(wire: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of each segment head of a well-formed wire."""
    return [
        (offset - 6 - len(label), offset) for _, label, _, offset, _ in reference_parse(wire)
    ]


def wire_of(*segments: tuple[int, bytes, bytes]) -> bytes:
    """A wire with a head and payload per ``(kind, label, payload)``."""
    out = bytearray(MAGIC)
    for kind, label, payload in segments:
        out += bytes((kind, len(label))) + label + len(payload).to_bytes(4, "big") + payload
    return bytes(out)


@pytest.fixture(scope="module")
def corpus_wires(tmp_path_factory):
    """Every seed 1-3 corpus wire."""
    from provlab.corpus import build_corpus
    from provlab.workspace import Workspace

    wires = []
    for seed in (1, 2, 3):
        workspace = Workspace.initialize(tmp_path_factory.mktemp(f"seed{seed}"), seed=seed)
        wires += [(workspace.root / e.path).read_bytes() for e in build_corpus(workspace)]
    return wires


def test_parse_agrees_with_the_reference_on_every_framing_byte_flip(corpus_wires):
    mutated = []
    for wire in corpus_wires:
        framing = [*range(len(MAGIC))]
        for start, end in head_spans(wire):
            framing += range(start, end)
        for pos in framing:
            for bit in (0x01, 0x80):
                mutated.append(wire[:pos] + bytes((wire[pos] ^ bit,)) + wire[pos + 1 :])
    assert len(corpus_wires) == 63 and len(mutated) > 8_000
    assert parse_disagreements(corpus_wires + mutated) == []


def test_parse_agrees_with_the_reference_on_every_truncated_head(corpus_wires):
    cut = [
        wire[:pos]
        for wire in corpus_wires
        for start, end in head_spans(wire)
        for pos in range(start, end + 1)
    ]
    assert parse_disagreements(cut) == []


HEAD, META, BODY, MANI, TAIL = (
    (HEADER, b"header", b"HEAD"),
    (METADATA, b"note", b"one"),
    (2, b"image", b"pixels"),
    (MANIFEST, b"manifest", b"M"),
    (TRAILER, b"trailer", b"TRLR"),
)


@pytest.mark.parametrize(
    "wire, message",
    [
        # structure faults in precedence order
        (wire_of(HEAD, MANI, META, MANI, META), "more than one manifest segment"),
        (wire_of(META, HEAD, META, BODY), "duplicate metadata label"),
        (wire_of(BODY, HEAD, TAIL, BODY), "header segment not first"),
        (wire_of(TAIL, BODY, HEAD), "trailer segment not last"),
        (wire_of(META, TAIL, HEAD), "trailer segment not last"),
        (wire_of(HEAD, TAIL, TAIL), "trailer segment not last"),
        (wire_of(TAIL, HEAD, MANI, MANI), "more than one manifest segment"),
        # a framing fault anywhere comes before every structure fault
        (wire_of(MANI, MANI, META, META)[:-1], "segment payload overruns input"),
        (wire_of(TAIL, HEAD) + b"\x00\x00", "unknown segment kind 0"),
        (wire_of(META, META) + bytes((HEADER,)), "truncated segment head"),
        (wire_of(MANI, MANI, (HEADER, b"h", b"")), "empty segment payload"),
        # framing faults in wire order
        (wire_of((METADATA, b"\xe9", b"x"), (9, b"", b"y")), "segment label is not ASCII"),
        (wire_of((9, b"\xe9", b"x"), (METADATA, b"\xe9", b"y")), "unknown segment kind 9"),
        (wire_of((HEADER, b"h", b""), (7, b"", b"x")), "empty segment payload"),
    ],
)
def test_a_wire_that_breaks_several_rules_raises_the_first(wire, message):
    assert reference_parse(wire) == message
    with pytest.raises(MalformedContainer) as refused:
        parse_asset(wire)
    assert str(refused.value) == message
    assert parse_disagreements([wire]) == []


@pytest.mark.parametrize(
    "parts, message",
    [
        ([HEAD, MANI, META, MANI, META], "more than one manifest segment"),
        ([META, HEAD, META, BODY], "duplicate metadata label"),
        ([BODY, HEAD, TAIL, BODY], "header segment not first"),
        ([TAIL, BODY, HEAD], "trailer segment not last"),
        ([META, TAIL, HEAD], "trailer segment not last"),
    ],
)
def test_build_applies_the_structure_rules_in_the_same_order(parts, message):
    with pytest.raises(MalformedContainer) as refused:
        build_asset([(kind, label.decode(), payload) for kind, label, payload in parts])
    assert str(refused.value) == message


def _constructed(segment: Segment) -> Segment:
    """``segment`` rebuilt through the public constructors."""
    rng = ByteRange(segment.range.start, segment.range.length)
    return Segment(segment.kind, rng, segment.label, segment.buffer, segment.offset)


def test_a_parsed_moved_or_embedded_segment_is_a_constructed_one():
    wire = serialize_asset(build_asset(simple_parts()))
    parsed = parse_asset(wire).segments
    embedded = embed_manifest(build_asset(simple_parts(manifest=None)), b"M" * 9).segments
    stripped = strip_manifest(parse_asset(wire)).segments
    replaced = replace_manifest(parse_asset(wire), b"M" * 9).segments
    gps = parse_asset(wire).find_label("meta.gps").range
    spliced = splice_bytes(parse_asset(wire), gps, b"-" * gps.length).segments
    for segment in parsed + embedded + stripped + replaced + spliced:
        twin = _constructed(segment)
        for made, built in ((segment, twin), (segment.range, twin.range)):
            assert made == built and not made != built
            assert hash(made) == hash(built) and repr(made) == repr(built)
            assert vars(made) == vars(built) and copy.copy(made) == built
            assert pickle.loads(pickle.dumps(made)) == built
        assert segment.range <= twin.range and not segment.range < twin.range
        assert dataclasses.replace(segment, label="x") == dataclasses.replace(twin, label="x")
        for made, name in ((segment, "label"), (segment, "range"), (segment.range, "start")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(made, name)


def test_long_and_mapped_spans_hash_as_short_ones_do(tmp_path):
    image = bytes(range(256)) * 40  # longer than a span that is hashed from a slice
    parts = [
        (SegmentKind.HEADER, "header", b"HEAD"),
        (SegmentKind.MANIFEST, "manifest", b"MANIFEST"),
        (SegmentKind.IMAGE_DATA, "image", image),
        (SegmentKind.TRAILER, "trailer", b"TRLR"),
    ]
    wire = serialize_asset(build_asset(parts))
    path = tmp_path / "asset.pvl"
    path.write_bytes(wire)
    with open(path, "rb") as handle:
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            for source in (wire, mapped):
                asset = parse_asset(source)
                manifest = asset.find_manifest().range
                for cut in (ByteRange(manifest.end + 10, 3000), ByteRange(manifest.end, 9000)):
                    exclusions = [manifest, cut]
                    digest = compute_hard_binding(asset, exclusions)
                    assert digest == oracle_digest(asset.data, exclusions)
                del asset  # the mapping cannot close while an asset reads it


# ---------------------------------------------------------------------------
# hard binding: independent oracle
# ---------------------------------------------------------------------------

def oracle_digest(data: bytes, exclusions) -> bytes:
    """Straight-line reimplementation: hash the kept spans in order."""
    kept = bytearray()
    pos = 0
    for rng in sorted(exclusions):
        kept += data[pos : rng.start]
        pos = rng.end
    kept += data[pos:]
    return hashlib.sha256(bytes(kept)).digest()


def test_hard_binding_matches_oracle():
    asset = build_asset(simple_parts())
    manifest_segment = asset.find_manifest()
    gps = asset.find_label("meta.gps")
    exclusions = [manifest_segment.range, gps.range]
    assert compute_hard_binding(asset, exclusions) == oracle_digest(asset.data, exclusions)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_hard_binding_matches_oracle_random(data):
    payloads = data.draw(
        st.lists(st.binary(min_size=1, max_size=40), min_size=2, max_size=6)
    )
    parts = [(SegmentKind.HEADER, "header", payloads[0])]
    parts.append((SegmentKind.MANIFEST, "manifest", payloads[1]))
    for index, payload in enumerate(payloads[2:]):
        parts.append((SegmentKind.METADATA, f"m{index}", payload))
    asset = build_asset(parts)
    # exclude the manifest plus a random subset of other segments
    exclusions = [asset.find_manifest().range]
    for segment in asset.segments:
        if segment.kind != SegmentKind.MANIFEST and data.draw(st.booleans()):
            exclusions.append(segment.range)
    assert compute_hard_binding(asset, exclusions) == oracle_digest(asset.data, exclusions)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parsed_hard_binding_matches_oracle_across_segments(data):
    """Exclusions that start and end anywhere, straddling segment
    boundaries or meeting one another, hash the same in place as the oracle
    over the content, whether the wire is ``bytes`` or a mapping.  One
    payload may be longer than a span hashed from a slice."""
    payloads = data.draw(
        st.lists(st.binary(min_size=1, max_size=40), min_size=2, max_size=6)
    )
    if data.draw(st.booleans()):
        seeded = random.Random(data.draw(st.integers(0, 2**32)))
        at = data.draw(st.integers(0, len(payloads) - 1))
        payloads[at] = seeded.randbytes(data.draw(st.integers(4097, 9000)))
    parts = [(SegmentKind.HEADER, "header", payloads[0])]
    parts.append((SegmentKind.MANIFEST, "manifest", payloads[1]))
    for index, payload in enumerate(payloads[2:]):
        parts.append((SegmentKind.METADATA, f"m{index}", payload))
    wire = serialize_asset(build_asset(parts))
    manifest = parse_asset(wire).find_manifest().range
    size = sum(len(p) for p in payloads)
    # pairs of sorted cuts, which meet where a cut repeats
    cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=8)))
    drawn = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
    # the manifest range, whole or in two halves that meet
    split = data.draw(st.integers(manifest.start, manifest.end))
    halves = [(manifest.start, split), (split, manifest.end)]
    # merge ranges that overlap, so the manifest is covered; ranges that
    # only meet stay apart
    merged: list[list[int]] = []
    for start, end in sorted(drawn + [(a, b) for a, b in halves if a < b]):
        if merged and start < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    exclusions = [ByteRange(start, end - start) for start, end in merged]
    expected = oracle_digest(parse_asset(wire).data, exclusions)
    with tempfile.TemporaryFile() as handle:
        handle.write(wire)
        handle.flush()
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            for source in (wire, mapped):
                asset = parse_asset(source)
                assert compute_hard_binding(asset, exclusions) == expected
            del asset  # the mapping cannot close while an asset reads it


def test_hard_binding_requires_manifest_coverage():
    asset = build_asset(simple_parts())
    gps = asset.find_label("meta.gps")
    with pytest.raises(ProvenanceError, match="not fully covered by exclusions"):
        compute_hard_binding(asset, [gps.range])
    # the 8-byte manifest cut in two: halves that meet inside it cover it as
    # one exclusion does, and a one-byte gap between them leaves it uncovered
    manifest = asset.find_manifest().range
    whole = compute_hard_binding(asset, [manifest, gps.range])
    meeting = [ByteRange(manifest.start, 4), ByteRange(manifest.start + 4, 4), gps.range]
    assert compute_hard_binding(asset, meeting) == whole
    gapped = [ByteRange(manifest.start, 4), ByteRange(manifest.start + 5, 3), gps.range]
    with pytest.raises(ProvenanceError, match="manifest segment not fully covered by exclusions"):
        compute_hard_binding(asset, gapped)


def test_a_range_moves_only_when_it_starts_at_or_after_the_edit():
    rng = ByteRange(10, 5)
    assert rng.moved(10, 7) == ByteRange(17, 5)
    assert rng.moved(3, -3) == ByteRange(7, 5)
    assert rng.moved(11, 7) is rng


def test_ranges_overlap_only_when_they_share_a_byte():
    rng = ByteRange(10, 5)
    assert rng.overlaps(ByteRange(14, 1)) and ByteRange(14, 1).overlaps(rng)
    assert rng.overlaps(ByteRange(0, 30))
    assert not rng.overlaps(ByteRange(15, 1)) and not ByteRange(5, 5).overlaps(rng)


def test_a_range_is_never_empty():
    assert ByteRange(0, 1).end == 1
    with pytest.raises(ValueError, match="invalid byte range"):
        ByteRange(3, 0)


def test_hard_binding_rejects_bad_ranges():
    asset = build_asset(simple_parts())
    manifest_range = asset.find_manifest().range
    with pytest.raises(ProvenanceError, match="exceeds asset of"):
        compute_hard_binding(asset, [manifest_range, ByteRange(len(asset.data), 1)])
    with pytest.raises(ProvenanceError, match="ranges at .* overlap"):
        compute_hard_binding(
            asset,
            [manifest_range, ByteRange(manifest_range.start + 1, manifest_range.length)],
        )


def test_hard_binding_insensitive_to_excluded_bytes():
    asset = build_asset(simple_parts())
    exclusions = [asset.find_manifest().range, asset.find_label("meta.gps").range]
    before = compute_hard_binding(asset, exclusions)
    mutated = splice_bytes(
        asset, asset.find_label("meta.gps").range, b"-80.000000,-170.000000"
    )
    assert compute_hard_binding(mutated, exclusions) == before


def test_hard_binding_sensitive_to_any_covered_byte():
    asset = build_asset(simple_parts())
    exclusions = [asset.find_manifest().range]
    before = compute_hard_binding(asset, exclusions)
    image = asset.find_label("image")
    for offset in range(image.range.length):
        target = ByteRange(image.range.start + offset, 1)
        flipped = bytes([asset.data[target.start] ^ 0x01])
        mutated = splice_bytes(asset, target, flipped)
        assert compute_hard_binding(mutated, exclusions) != before


# ---------------------------------------------------------------------------
# manifest embedding
# ---------------------------------------------------------------------------

def test_embed_extract_strip_roundtrip():
    bare = build_asset(simple_parts(manifest=None))
    embedded = embed_manifest(bare, b"THE-MANIFEST")
    assert extract_manifest(embedded) == b"THE-MANIFEST"
    segment = embedded.find_manifest()
    assert segment.range.start == manifest_insert_offset(bare)
    assert strip_manifest(embedded) == bare
    with pytest.raises(ProvenanceError, match="already carries a manifest"):
        embed_manifest(embedded, b"AGAIN")
    with pytest.raises(ProvenanceError, match="carries no manifest segment"):
        strip_manifest(bare)
    with pytest.raises(ProvenanceError) as missing:
        extract_manifest(bare)
    assert str(missing.value) == "asset carries no manifest segment"
    with pytest.raises(ValueError) as empty:
        embed_manifest(bare, b"")
    assert str(empty.value) == "manifest bytes must be non-empty"


def test_manifest_inserted_after_header():
    bare = build_asset(simple_parts(manifest=None))
    embedded = embed_manifest(bare, b"M")
    kinds = [segment.kind for segment in embedded.segments]
    assert kinds[0] == SegmentKind.HEADER
    assert kinds[1] == SegmentKind.MANIFEST


def test_a_reserved_slot_takes_a_manifest_of_its_length_only():
    bare = build_asset(simple_parts(manifest=None))
    fill = reserve_manifest(bare, 10)
    with pytest.raises(ValueError) as refused:
        fill(bytes(11))
    assert str(refused.value) == "manifest is 11 bytes, not 10"
    manifest = b"0123456789"
    assert serialize_asset(fill(manifest)) == serialize_asset(embed_manifest(bare, manifest))


def test_replace_manifest_shifts_following_segments():
    asset = build_asset(simple_parts())
    replaced = replace_manifest(asset, b"MUCH-LONGER-MANIFEST-PAYLOAD")
    assert extract_manifest(replaced) == b"MUCH-LONGER-MANIFEST-PAYLOAD"
    # non-manifest payloads survive byte-for-byte
    for segment in asset.segments:
        if segment.kind == SegmentKind.MANIFEST:
            continue
        twin = replaced.find_label(segment.label)
        assert replaced.payload(twin) == asset.payload(segment)


def test_splice_requires_equal_length():
    asset = build_asset(simple_parts())
    gps = asset.find_label("meta.gps")
    with pytest.raises(ProvenanceError, match="bytes for a 22-byte range"):
        splice_bytes(asset, gps.range, b"short")


def test_splice_gives_a_new_buffer_only_to_the_segment_it_touches():
    asset = parse_asset(serialize_asset(build_asset(simple_parts())))
    gps = asset.find_label("meta.gps")
    spliced = splice_bytes(asset, gps.range, b"-" * gps.range.length)
    for before, after in zip(asset.segments, spliced.segments):
        assert (after.buffer is before.buffer) == (before != gps), before.label
    assert spliced.payload(spliced.find_label("meta.gps")) == b"-" * gps.range.length


def test_every_edit_of_a_corpus_asset_is_the_asset_its_bytes_parse_to(corpus, entry_bytes):
    """Strip, embed into the stripped asset, replace with a manifest one byte
    longer, and splice one byte in each non-manifest segment: on every seed-1
    corpus asset, each result equals the asset its serialized bytes parse to."""

    def edits(asset):
        manifest = asset.find_manifest()
        bare = asset
        if manifest is not None:
            bare = strip_manifest(asset)
            yield bare
            yield replace_manifest(asset, asset.payload(manifest) + b"\x00")
        yield embed_manifest(bare, b"M" * 9)
        for segment in asset.segments:
            if segment is not manifest:
                flipped = bytes([asset.payload(segment)[-1] ^ 0x01])
                yield splice_bytes(asset, ByteRange(segment.range.end - 1, 1), flipped)

    for entry in corpus["entries"]:
        asset = parse_asset(entry_bytes(entry))
        for edited in edits(asset):
            again = parse_asset(serialize_asset(edited))
            assert edited == again and edited.segments == again.segments, entry.path


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda signed, bare: embed_manifest(signed, b"AGAIN"),
         ProvenanceError, "asset already carries a manifest"),
        (lambda signed, bare: embed_manifest(signed, b""),
         ProvenanceError, "asset already carries a manifest"),
        (lambda signed, bare: embed_manifest(bare, b""),
         ValueError, "manifest bytes must be non-empty"),
        (lambda signed, bare: strip_manifest(bare),
         ProvenanceError, "asset carries no manifest segment"),
        (lambda signed, bare: replace_manifest(bare, b"M"),
         ProvenanceError, "asset carries no manifest segment"),
        (lambda signed, bare: splice_bytes(signed, ByteRange(signed.size - 1, 2), b"xx"),
         ProvenanceError, "range [101, 2) exceeds asset of 102 bytes"),
        (lambda signed, bare: splice_bytes(signed, signed.find_label("meta.gps").range, b"short"),
         ProvenanceError, "replacement is 5 bytes for a 22-byte range"),
    ],
    ids=["embed-twice", "embed-empty-twice", "embed-empty", "strip-bare", "replace-bare",
         "splice-past-end", "splice-wrong-length"],
)
def test_each_refused_edit_keeps_its_message(edit, error, message):
    signed = build_asset(simple_parts())
    with pytest.raises(error) as refused:
        edit(signed, strip_manifest(signed))
    assert type(refused.value) is error and str(refused.value) == message


def test_splice_refuses_a_target_past_the_end():
    asset = build_asset(simple_parts())
    with pytest.raises(ProvenanceError, match=rf"range \[{asset.size - 1}, 2\) exceeds asset of"):
        splice_bytes(asset, ByteRange(asset.size - 1, 2), b"xx")


@given(st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_parser_is_total_on_garbage(blob):
    try:
        asset = parse_asset(blob)
    except MalformedContainer:
        return
    assert serialize_asset(asset) == blob
