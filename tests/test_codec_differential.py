"""The value codec against its reference: same values, bytes and messages.

``reference_codec`` is the codec as it stood before the decoder became one
position-passing function and the encoder a chunk-list writer.  Both must
agree on every input: a decoded value with the same types, or a
``DecodeError`` with the same message; the same bytes from the encoder, or
an ``EncodeError`` with the same message.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec
from provlab.container import extract_manifest, parse_asset
from provlab.encoding import decode_value, encode_value
from provlab.errors import DecodeError, EncodeError
from test_encoding import NONCANONICAL_WIRE, VECTORS, keys, values

MUTATIONS = 20_000

# heads the vector tables do not reach: reserved infos, tags, simple values
# other than false/true/null/float64, and map keys of every rejected type
EXTRA_WIRE = [
    "1c", "3d", "5e", "7f", "9c", "bd", "c0", "c1", "d8ff00", "e0", "f8ff",
    "fc", "ff", "a1f500", "a1f600", "a18000", "a1a000", "a1fb000000000000000000",
    "a2010102", "a2616100616100", "a26161004100", "83", "a1", "9b00", "1b", "3b00",
]


def typed(value):
    """``value`` with every type spelled out, so 1, 1.0 and True differ."""
    if isinstance(value, list):
        return ("list", [typed(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def decoded(decode, data: bytes):
    try:
        return "value", typed(decode(data))
    except DecodeError as exc:
        return "DecodeError", str(exc)


def encoded(encode, value):
    try:
        return "bytes", encode(value)
    except EncodeError as exc:
        return "EncodeError", str(exc)


def assert_same_decoding(data: bytes) -> tuple:
    outcome = decoded(decode_value, data)
    assert outcome == decoded(reference_codec.decode_value, data), data.hex()
    return outcome


def _hex(item) -> str:
    return item.values[0] if hasattr(item, "values") else item


@pytest.mark.parametrize(
    "hexwire",
    [wire for _, wire in VECTORS] + [_hex(item) for item in NONCANONICAL_WIRE] + EXTRA_WIRE,
)
def test_vectors_decode_as_reference(hexwire):
    assert_same_decoding(bytes.fromhex(hexwire))


def test_manifest_mutations_decode_as_reference(corpus, entry_bytes):
    manifests = [
        extract_manifest(parse_asset(entry_bytes(entry)))
        for entry in corpus["entries"]
        if entry.attack == "none"
    ]
    assert len(manifests) == 6
    rng = random.Random(0xC0DEC)
    outcomes = set()
    for _ in range(MUTATIONS):
        mutated = bytearray(manifests[rng.randrange(len(manifests))])
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        draw = rng.random()
        if draw < 0.25:
            mutated = mutated[: rng.randrange(len(mutated) + 1)]
        elif draw < 0.30:
            mutated += rng.randbytes(rng.randrange(1, 16))
        kind, detail = assert_same_decoding(bytes(mutated))
        outcomes.add(detail if kind == "DecodeError" else kind)
    # the inputs reach values and many kinds of failure, not one
    assert "value" in outcomes and len(outcomes) >= 8


wild_scalars = st.one_of(
    st.integers(min_value=-(2**66), max_value=2**66),
    st.floats(),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.booleans(),
    st.none(),
    st.sampled_from([set(), object, 1j, bytearray(b"x")]),
)

wild_keys = st.one_of(
    keys,
    st.integers(min_value=2**64 - 2, max_value=2**65),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(0, 3)),
)

wild_values = st.recursive(
    wild_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(wild_keys, children, max_size=5),
    ),
    max_leaves=20,
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_values_encode_as_reference(value):
    assert encode_value(value) == reference_codec.encode_value(value)


@given(wild_values)
@settings(max_examples=500, deadline=None)
def test_any_value_encodes_or_fails_as_reference(value):
    assert encoded(encode_value, value) == encoded(reference_codec.encode_value, value)


def test_floats_keep_their_sign_and_width():
    for number in (0.0, -0.0, 5e-324, -math.pi, 1.7976931348623157e308):
        wire = encode_value(number)
        assert wire == reference_codec.encode_value(number)
        assert_same_decoding(wire)
