"""Deterministic canonical value codec.

Credentials are hashed and signed over their encoded form, so the encoding
must be a bijection on the supported value space: one value, one byte string.
The wire format follows CBOR-style rules with every freedom removed, the
deterministic encoding of RFC 8949 §4.2:

- definite lengths only;
- integers use the shortest possible head;
- map keys are sorted bytewise by their encoded form and must be unique;
- floats are always 8-byte IEEE 754 (NaN and infinities are rejected);
- text is UTF-8.

The decoder is strict: any deviation from the rules above (non-shortest
heads, unsorted or duplicate keys, trailing bytes, unknown initial bytes,
nesting deeper than :data:`MAX_DEPTH`) raises :class:`DecodeError` rather
than being normalised away.  Strictness is what makes
``decode(encode(v)) == v`` and ``encode(decode(b)) == b`` both hold, so a
re-encoded structure is byte-identical to what was signed.  This module
covers values; :mod:`.records` carries the same guarantee to the record
level by accepting exactly one value shape per record type.

The decoder is one recursive function, :func:`read_value`, that takes the
input, a position in it and the nesting depth there, indexes the input
directly, checks every bound itself and returns the value with the position
after it; :func:`decode_value` runs it over a whole input.  The encoder,
:func:`write_value`, appends the chunks of a value to one list;
:func:`encode_value` joins that list once.  :mod:`.records` writes whole
records into the same kind of list through writers compiled per record
class, using :func:`array_head` and :func:`map_head` for the heads it cannot
precompute, and calls :func:`write_value` only for fields that have no fixed
shape.  Its readers mirror them: they match the heads and keys they know
against the input, read the array heads they cannot know with
:func:`read_array_head`, and call :func:`read_value` at the field's own
depth for the rest.

Supported values: ``None``, ``bool``, ``int`` (magnitude below 2**64),
``float``, ``str``, ``bytes``, ``list``/``tuple``, and ``dict`` with
``str``/``int``/``bytes`` keys.
"""

from __future__ import annotations

import math
import struct

from .errors import DecodeError, EncodeError

_MAJOR_UINT = 0
_MAJOR_NEGINT = 1
_MAJOR_BYTES = 2
_MAJOR_TEXT = 3
_MAJOR_ARRAY = 4
_MAJOR_MAP = 5
_MAJOR_TAG = 6
_MAJOR_SIMPLE = 7

_SIMPLE_FALSE = 0xF4
_SIMPLE_TRUE = 0xF5
_SIMPLE_NULL = 0xF6
_FLOAT64 = 0xFB

_UINT_MAX = 2**64 - 1

# Deepest array/map nesting the decoder accepts.  Credential records nest
# about six deep; the bound turns hostile nesting into a DecodeError long
# before it could exhaust the interpreter's recursion limit.
MAX_DEPTH = 32

Value = None | bool | int | float | str | bytes | list | tuple | dict

# every one-byte string, so a head with an argument below 24 is a lookup
_BYTE = tuple(bytes([b]) for b in range(256))
_NULL = _BYTE[_SIMPLE_NULL]
_FALSE = _BYTE[_SIMPLE_FALSE]
_TRUE = _BYTE[_SIMPLE_TRUE]
_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from

# per long head info 24-27: argument size, its reader, and the smallest
# argument it may carry (anything less has a shorter head)
_LONG_HEADS = tuple(
    (struct.calcsize(code), struct.Struct(code).unpack_from, shortest)
    for code, shortest in ((">B", 24), (">H", 2**8), (">I", 2**16), (">Q", 2**32))
)


def _head(major: int, arg: int) -> bytes:
    initial = major << 5
    if arg < 24:
        return _BYTE[initial | arg]
    if arg < 2**8:
        return ((initial | 24) << 8 | arg).to_bytes(2, "big")
    if arg < 2**16:
        return ((initial | 25) << 16 | arg).to_bytes(3, "big")
    if arg < 2**32:
        return ((initial | 26) << 32 | arg).to_bytes(5, "big")
    return ((initial | 27) << 64 | arg).to_bytes(9, "big")


def array_head(count: int) -> bytes:
    """The head of an array of ``count`` items."""
    return _head(_MAJOR_ARRAY, count)


def map_head(count: int) -> bytes:
    """The head of a map of ``count`` pairs."""
    return _head(_MAJOR_MAP, count)


def encode_value(value: Value) -> bytes:
    """Encode ``value`` into its unique canonical byte string."""
    out: list[bytes] = []
    write_value(value, out)
    return b"".join(out)


def write_value(value: Value, out: list[bytes]) -> None:
    """Append the canonical encoding of ``value`` to ``out``, in chunks."""
    # no value is an instance of two of these types except bool, an int,
    # so only bool has to be tested before int
    if isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_head(_MAJOR_TEXT, len(raw)))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(_head(_MAJOR_BYTES, len(value)))
        out.append(value)
    elif isinstance(value, bool):
        out.append(_TRUE if value else _FALSE)
    elif isinstance(value, int):
        if value >= 0:
            if value > _UINT_MAX:
                raise EncodeError(f"integer too large: {value}")
            out.append(_head(_MAJOR_UINT, value))
        else:
            arg = -1 - value
            if arg > _UINT_MAX:
                raise EncodeError(f"integer too small: {value}")
            out.append(_head(_MAJOR_NEGINT, arg))
    elif value is None:
        out.append(_NULL)
    elif isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise EncodeError("non-finite floats are not encodable")
        out.append(_BYTE[_FLOAT64])
        out.append(_pack_float(value))
    elif isinstance(value, (list, tuple)):
        out.append(_head(_MAJOR_ARRAY, len(value)))
        for item in value:
            write_value(item, out)
    elif isinstance(value, dict):
        _write_map(value, out)
    else:
        raise EncodeError(f"unsupported value type: {type(value).__name__}")


def _write_map(value: dict, out: list[bytes]) -> None:
    # each pair is encoded before any is placed, so the pairs can be put in
    # the order of their encoded keys
    pairs: list[tuple[bytes, list[bytes]]] = []
    for key, item in value.items():
        if not isinstance(key, (str, int, bytes)) or isinstance(key, bool):
            raise EncodeError(f"unsupported map key type: {type(key).__name__}")
        key_bytes = encode_value(key)
        chunks: list[bytes] = []
        write_value(item, chunks)
        pairs.append((key_bytes, chunks))
    pairs.sort(key=lambda pair: pair[0])
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if a == b:
            raise EncodeError("duplicate map key")
    out.append(_head(_MAJOR_MAP, len(pairs)))
    for key_bytes, chunks in pairs:
        out.append(key_bytes)
        out.extend(chunks)


def read_value(data: bytes, pos: int, depth: int) -> tuple[Value, int]:
    """Decode the value at ``data[pos:]``, nested ``depth`` levels deep in the
    whole input; return it and the position after it."""
    if depth > MAX_DEPTH:
        raise DecodeError(f"nesting deeper than {MAX_DEPTH} levels")
    try:
        initial = data[pos]
    except IndexError:
        raise DecodeError("truncated input") from None
    pos += 1
    if initial < 24:  # an unsigned integer below 24, the head alone
        return initial, pos
    major = initial >> 5
    # tags and simple values carry no argument to read
    if major == _MAJOR_SIMPLE:
        if initial == _SIMPLE_FALSE:
            return False, pos
        if initial == _SIMPLE_TRUE:
            return True, pos
        if initial == _SIMPLE_NULL:
            return None, pos
        if initial == _FLOAT64:
            if pos + 8 > len(data):
                raise DecodeError("truncated input")
            value = _unpack_float(data, pos)[0]
            if math.isnan(value) or math.isinf(value):
                raise DecodeError("non-finite float")
            return value, pos + 8
        raise DecodeError(f"unsupported initial byte 0x{initial:02x}")
    if major == _MAJOR_TAG:
        raise DecodeError(f"unsupported initial byte 0x{initial:02x}")
    arg = initial & 0x1F
    if arg >= 24:
        arg, pos = _long_argument(data, pos, arg)
    if major == _MAJOR_TEXT or major == _MAJOR_BYTES:
        end = pos + arg
        if end > len(data):
            raise DecodeError("truncated input")
        if major == _MAJOR_BYTES:
            return data[pos:end], end
        try:
            return data[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid UTF-8 in text string") from exc
    if major == _MAJOR_UINT:
        return arg, pos
    if major == _MAJOR_NEGINT:
        return -1 - arg, pos
    depth += 1
    if major == _MAJOR_ARRAY:
        items = []
        for _ in range(arg):
            item, pos = read_value(data, pos, depth)
            items.append(item)
        return items, pos
    result: dict = {}
    prev_key_bytes = b""
    for index in range(arg):
        key_start = pos
        key, pos = read_value(data, pos, depth)
        key_bytes = data[key_start:pos]
        if type(key) is not str and type(key) is not int and type(key) is not bytes:
            raise DecodeError("unsupported map key type")
        if index and key_bytes <= prev_key_bytes:
            raise DecodeError("map keys not sorted or not unique")
        prev_key_bytes = key_bytes
        result[key], pos = read_value(data, pos, depth)
    return result, pos


def _long_argument(data: bytes, pos: int, info: int) -> tuple[int, int]:
    """The argument of a head whose info is 24 or more, read from ``data[pos:]``,
    and the position after it."""
    if info > 27:
        raise DecodeError(f"unsupported head info {info}")
    size, unpack, shortest = _LONG_HEADS[info - 24]
    if pos + size > len(data):
        raise DecodeError("truncated input")
    arg = unpack(data, pos)[0]
    if arg < shortest:
        raise DecodeError("non-shortest integer head")
    return arg, pos + size


def read_array_head(data: bytes, pos: int) -> tuple[int, int]:
    """The item count of the array whose head is at ``data[pos:]``, and the
    position after the head, under the rules :func:`read_value` applies."""
    if pos >= len(data):
        raise DecodeError("truncated input")
    initial = data[pos]
    if initial >> 5 != _MAJOR_ARRAY:
        raise DecodeError(f"expected an array, got initial byte 0x{initial:02x}")
    if initial & 0x1F < 24:
        return initial & 0x1F, pos + 1
    return _long_argument(data, pos + 1, initial & 0x1F)


def decode_value(data: bytes) -> Value:
    """Decode a canonical byte string, rejecting any non-canonical form."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise DecodeError("input must be bytes")
    data = bytes(data)
    value, pos = read_value(data, 0, 0)
    if pos != len(data):
        raise DecodeError("trailing bytes after value")
    return value
