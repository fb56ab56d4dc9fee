"""The record reader against the two-stage decode it short-cuts.

``decode_record`` first reads a record straight off the wire with the
reader compiled for its class, and falls back to
``record_from_value(cls, decode_value(data))`` only to word a failure.
Here the reader runs alone, without that fallback (though with its tables
of shared records), and must accept exactly the inputs the two-stage path
accepts, build equal records, and store in each record it builds the bytes
the compiled writers give for it.
"""

import dataclasses
import random
from dataclasses import replace

import pytest

from provlab import records
from provlab.container import extract_manifest, parse_asset
from provlab.credentials import Assertion, Manifest
from provlab.encoding import MAX_DEPTH, decode_value, encode_value
from provlab.errors import DecodeError
from provlab.records import decode_record, encode_record, record_from_value
from test_codec_differential import MUTATIONS
from test_records import has_wire


def read_alone(cls, data: bytes):
    record, end = records._record_reader(cls)(data, 0, 0)
    if end != len(data):
        raise DecodeError("trailing bytes after value")
    return record


def outcome(decode, cls, data: bytes):
    try:
        return "record", decode(cls, data)
    except (DecodeError, ValueError):
        return "rejected", None


def nested_records(value):
    if dataclasses.is_dataclass(value):
        yield value
        for item in vars(value).values():  # the fields, the stored bytes, cached values
            yield from nested_records(item)
    elif type(value) is tuple:
        for item in value:
            yield from nested_records(item)


def assert_reads_as_two_stage(cls, data: bytes) -> str:
    two_stage = outcome(lambda c, d: record_from_value(c, decode_value(d)), cls, data)
    kind, record = outcome(read_alone, cls, data)
    assert (kind, record) == two_stage, data.hex()
    if kind == "record":
        # a shallow copy is written from its fields, its nested records from
        # their own stored bytes, each checked in turn
        for inner in nested_records(record):
            if has_wire(inner):
                assert encode_record(inner) == encode_record(replace(inner)), data.hex()
    return kind


@pytest.fixture(scope="module")
def manifests(corpus, entry_bytes):
    found = [
        extract_manifest(parse_asset(entry_bytes(entry)))
        for entry in corpus["entries"]
        if entry.attack == "none"
    ]
    assert len(found) == 6
    return found


def test_manifest_mutations_read_as_two_stage(manifests):
    """The seeded byte mutations of ``test_codec_differential``, decoded as
    manifests: the same draws from the same seed."""
    rng = random.Random(0xC0DEC)
    kinds = []
    for _ in range(MUTATIONS):
        mutated = bytearray(manifests[rng.randrange(len(manifests))])
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        draw = rng.random()
        if draw < 0.25:
            mutated = mutated[: rng.randrange(len(mutated) + 1)]
        elif draw < 0.30:
            mutated += rng.randbytes(rng.randrange(1, 16))
        kinds.append(assert_reads_as_two_stage(Manifest, bytes(mutated)))
    assert kinds.count("record") > 1000 and kinds.count("rejected") > 1000


def _shape_mutations(value):
    """Every tree that differs from ``value`` in one place and still encodes:
    a scalar retyped, a map key dropped or added, a text value that no enum
    holds, or a two-item array (a fixed tuple or a byte range) one item
    longer or shorter."""
    if type(value) is dict:
        for key, item in value.items():
            yield {k: v for k, v in value.items() if k != key}
            for changed in _shape_mutations(item):
                yield {**value, key: changed}
        yield {**value, "unexpected": 0}
    elif type(value) is list:
        for index, item in enumerate(value):
            for changed in _shape_mutations(item):
                yield value[:index] + [changed] + value[index + 1 :]
        if len(value) == 2:
            yield value[:1]
            yield value + [value[-1]]
    elif type(value) is bool:
        yield int(value)
    elif type(value) is int:
        yield value == 0
    elif type(value) is bytes:
        yield value.hex()
    elif type(value) is str:
        yield "NOT_AN_ENUM_VALUE"


def test_record_shape_mutations_read_as_two_stage(manifests):
    """Inputs that are canonical values but not always manifests, so only
    the record-level checks tell them apart."""
    kinds = []
    for manifest in manifests:
        for tree in _shape_mutations(decode_value(manifest)):
            kinds.append(assert_reads_as_two_stage(Manifest, encode_value(tree)))
    assert kinds.count("record") > 100 and kinds.count("rejected") > 500


@pytest.mark.parametrize(
    "extra_depth, reader_error, match",
    [(0, ValueError, "must be a scalar"), (1, DecodeError, "nesting deeper than")],
)
def test_payload_nesting_is_read_at_its_own_depth(manifests, extra_depth, reader_error, match):
    """An assertion payload value nested to exactly ``MAX_DEPTH``, and one
    level past it.  The manifest map is depth 0, so the payload's values sit
    at depth 4: the value layer accepts the first tree, and the assertion
    refuses it as not a scalar; the second fails in the value layer."""
    value = decode_value(manifests[0])
    deep = 0
    for _ in range(MAX_DEPTH - 4 + extra_depth):
        deep = [deep]
    first = value["assertions"][0]
    value["assertions"][0] = {**first, "payload": {**first["payload"], "deep": deep}}
    data = encode_value(value)
    if extra_depth:
        with pytest.raises(DecodeError, match=match):
            decode_value(data)
    else:
        decode_value(data)
    assert assert_reads_as_two_stage(Manifest, data) == "rejected"
    with pytest.raises(reader_error, match=match):
        read_alone(Manifest, data)
    with pytest.raises(DecodeError) as reported:
        decode_record(Manifest, data)
    with pytest.raises(DecodeError) as two_stage:
        record_from_value(Manifest, decode_value(data))
    assert str(reported.value) == str(two_stage.value)


def test_a_failed_read_is_worded_by_the_two_stage_path(manifests):
    data = manifests[0][:-1]
    with pytest.raises(DecodeError) as reported:
        decode_record(Manifest, data)
    assert str(reported.value) == "truncated input"
    planted = encode_value({"label": "x" * 65, "payload": {}})
    with pytest.raises(DecodeError, match="bad Assertion record: invalid assertion label"):
        decode_record(Assertion, planted)
