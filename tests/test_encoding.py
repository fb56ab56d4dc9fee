"""Canonical codec: hand-checked wire vectors, round-trips, strictness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlab.encoding import decode_value, encode_value
from provlab.errors import DecodeError, EncodeError

# ---------------------------------------------------------------------------
# hand-computed wire vectors (independent oracle: derived by hand from the
# major-type/shortest-head rules, not by running the codec)
# ---------------------------------------------------------------------------

VECTORS = [
    (0, "00"),
    (1, "01"),
    (10, "0a"),
    (23, "17"),
    (24, "1818"),
    (25, "1819"),
    (100, "1864"),
    (255, "18ff"),
    (256, "190100"),
    (1000, "1903e8"),
    (65535, "19ffff"),
    (65536, "1a00010000"),
    (1000000, "1a000f4240"),
    (4294967295, "1affffffff"),
    (4294967296, "1b0000000100000000"),
    (18446744073709551615, "1bffffffffffffffff"),
    (-1, "20"),
    (-10, "29"),
    (-24, "37"),
    (-25, "3818"),
    (-100, "3863"),
    (-256, "38ff"),
    (-1000, "3903e7"),
    (-18446744073709551616, "3bffffffffffffffff"),
    (b"", "40"),
    (b"\x01\x02\x03\x04", "4401020304"),
    ("", "60"),
    ("a", "6161"),
    ("IETF", "6449455446"),
    ("ü", "62c3bc"),
    ([], "80"),
    ([1, 2, 3], "83010203"),
    ([1, [2, 3], [4, 5]], "8301820203820405"),
    ({}, "a0"),
    ({"a": 1, "b": [2, 3]}, "a26161016162820203"),
    ([{"a": 1}], "81a1616101"),
    (False, "f4"),
    (True, "f5"),
    (None, "f6"),
    (0.0, "fb0000000000000000"),
    (1.5, "fb3ff8000000000000"),
    (-4.1, "fbc010666666666666"),
    (1.0e300, "fb7e37e43c8800759c"),
]


@pytest.mark.parametrize("value,hexwire", VECTORS)
def test_wire_vectors(value, hexwire):
    assert encode_value(value).hex() == hexwire
    decoded = decode_value(bytes.fromhex(hexwire))
    assert decoded == value
    assert type(decoded) is type(value)


def test_map_keys_sorted_by_encoded_bytes():
    # shorter key encodings sort first; ties broken bytewise
    wire = encode_value({"bb": 1, "a": 2, "ab": 3})
    assert wire.hex() == "a36161026261620362626201"
    # int keys head-encode below text keys of any length
    assert encode_value({"a": 0, 7: 0}).hex() == "a20700616100"


def test_int_and_float_stay_distinct():
    assert encode_value(1) != encode_value(1.0)
    assert decode_value(encode_value(1.0)) == 1.0
    assert isinstance(decode_value(encode_value(1.0)), float)


def test_tuples_encode_as_lists():
    assert encode_value((1, 2)) == encode_value([1, 2])
    assert decode_value(encode_value((1, 2))) == [1, 2]


# ---------------------------------------------------------------------------
# rejection of non-values and non-canonical wire
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        2**64,
        -(2**64) - 1,
        {1.5: "x"},
        {True: 1},
        set(),
        object(),
        [object()],
        {"k": {"nested": object()}},
    ],
)
def test_unencodable_values_rejected(value):
    with pytest.raises(EncodeError):
        encode_value(value)


# non-canonical or malformed wire; each must raise DecodeError
NONCANONICAL_WIRE = [
    "1800",  # 24-coded 0: must be immediate
    "1817",  # 24-coded 23: must be immediate
    "190001",  # 16-bit head for a value < 256
    "1a00000100",  # 32-bit head for a value < 65536
    "1b0000000000000001",  # 64-bit head for 1
    "3800",  # -1 with a long head
    "5f41004100ff",  # indefinite-length bytes
    "7f6161ff",  # indefinite-length text
    "9f01ff",  # indefinite-length array
    "bf616101ff",  # indefinite-length map
    "f7",  # undefined
    "f97e00",  # float16
    "fa47c35000",  # float32
    "fb7ff8000000000000",  # NaN
    "fb7ff0000000000000",  # +inf
    "a26162016161 02".replace(" ", ""),  # map keys out of order
    "a2616101616102",  # duplicate map keys
    "616100",  # trailing byte
    "",  # empty input
    "18",  # truncated head
    "44010203",  # truncated byte string
    "62ff",  # truncated text
    "63c328fc",  # invalid utf-8 text (unpaired surrogate-ish)
    "c101",  # tag (major 6) unsupported
    pytest.param("81" * 5000 + "00", id="nested-5000-deep"),
]


@pytest.mark.parametrize("hexwire", NONCANONICAL_WIRE)
def test_noncanonical_wire_rejected(hexwire):
    with pytest.raises(DecodeError):
        decode_value(bytes.fromhex(hexwire))


def test_decode_refuses_text():
    with pytest.raises(DecodeError) as refused:
        decode_value(encode_value("text").hex())
    assert str(refused.value) == "input must be bytes"


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64 - 1),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)

keys = st.one_of(
    st.integers(min_value=-(2**32), max_value=2**32 - 1),
    st.text(max_size=12),
    st.binary(max_size=12),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(keys, children, max_size=6),
    ),
    max_leaves=25,
)


@given(values)
@settings(max_examples=300, deadline=None)
def test_roundtrip(value):
    wire = encode_value(value)
    assert decode_value(wire) == value


@given(values)
@settings(max_examples=200, deadline=None)
def test_deterministic(value):
    assert encode_value(value) == encode_value(value)


@given(values)
@settings(max_examples=200, deadline=None)
def test_reencoding_decoded_value_is_identity(value):
    wire = encode_value(value)
    assert encode_value(decode_value(wire)) == wire
