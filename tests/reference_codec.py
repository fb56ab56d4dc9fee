"""Reference value codec for the differential codec test.

A verbatim copy of ``provlab.encoding`` before its decoder became one
position-passing function and its encoder a chunk-list writer (only the
import of the error types is absolute).  ``test_codec_differential`` holds
the current codec to this one: same values, same bytes, same error messages.
"""

from __future__ import annotations

import math
import struct

from provlab.errors import DecodeError, EncodeError

_MAJOR_UINT = 0
_MAJOR_NEGINT = 1
_MAJOR_BYTES = 2
_MAJOR_TEXT = 3
_MAJOR_ARRAY = 4
_MAJOR_MAP = 5

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


def _encode_head(major: int, arg: int) -> bytes:
    if arg < 24:
        return bytes([(major << 5) | arg])
    if arg < 2**8:
        return bytes([(major << 5) | 24, arg])
    if arg < 2**16:
        return bytes([(major << 5) | 25]) + arg.to_bytes(2, "big")
    if arg < 2**32:
        return bytes([(major << 5) | 26]) + arg.to_bytes(4, "big")
    return bytes([(major << 5) | 27]) + arg.to_bytes(8, "big")


def encode_value(value: Value) -> bytes:
    """Encode ``value`` into its unique canonical byte string."""
    if value is None:
        return bytes([_SIMPLE_NULL])
    if isinstance(value, bool):
        return bytes([_SIMPLE_TRUE if value else _SIMPLE_FALSE])
    if isinstance(value, int):
        if value >= 0:
            if value > _UINT_MAX:
                raise EncodeError(f"integer too large: {value}")
            return _encode_head(_MAJOR_UINT, value)
        arg = -1 - value
        if arg > _UINT_MAX:
            raise EncodeError(f"integer too small: {value}")
        return _encode_head(_MAJOR_NEGINT, arg)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise EncodeError("non-finite floats are not encodable")
        return bytes([_FLOAT64]) + struct.pack(">d", value)
    if isinstance(value, bytes):
        return _encode_head(_MAJOR_BYTES, len(value)) + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return _encode_head(_MAJOR_TEXT, len(raw)) + raw
    if isinstance(value, (list, tuple)):
        body = b"".join(encode_value(item) for item in value)
        return _encode_head(_MAJOR_ARRAY, len(value)) + body
    if isinstance(value, dict):
        encoded_pairs = []
        for key, item in value.items():
            if not isinstance(key, (str, int, bytes)) or isinstance(key, bool):
                raise EncodeError(f"unsupported map key type: {type(key).__name__}")
            encoded_pairs.append((encode_value(key), encode_value(item)))
        encoded_pairs.sort(key=lambda pair: pair[0])
        for (a, _), (b, _) in zip(encoded_pairs, encoded_pairs[1:]):
            if a == b:
                raise EncodeError("duplicate map key")
        body = b"".join(k + v for k, v in encoded_pairs)
        return _encode_head(_MAJOR_MAP, len(encoded_pairs)) + body
    raise EncodeError(f"unsupported value type: {type(value).__name__}")


class _Decoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated input")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def _read_arg(self, info: int) -> int:
        if info < 24:
            return info
        if info == 24:
            arg = self._take(1)[0]
            if arg < 24:
                raise DecodeError("non-shortest integer head")
            return arg
        if info == 25:
            arg = int.from_bytes(self._take(2), "big")
            if arg < 2**8:
                raise DecodeError("non-shortest integer head")
            return arg
        if info == 26:
            arg = int.from_bytes(self._take(4), "big")
            if arg < 2**16:
                raise DecodeError("non-shortest integer head")
            return arg
        if info == 27:
            arg = int.from_bytes(self._take(8), "big")
            if arg < 2**32:
                raise DecodeError("non-shortest integer head")
            return arg
        raise DecodeError(f"unsupported head info {info}")

    def decode(self, depth: int = 0) -> Value:
        if depth > MAX_DEPTH:
            raise DecodeError(f"nesting deeper than {MAX_DEPTH} levels")
        initial = self._take(1)[0]
        major, info = initial >> 5, initial & 0x1F
        if major == _MAJOR_UINT:
            return self._read_arg(info)
        if major == _MAJOR_NEGINT:
            return -1 - self._read_arg(info)
        if major == _MAJOR_BYTES:
            return self._take(self._read_arg(info))
        if major == _MAJOR_TEXT:
            raw = self._take(self._read_arg(info))
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DecodeError("invalid UTF-8 in text string") from exc
        if major == _MAJOR_ARRAY:
            return [self.decode(depth + 1) for _ in range(self._read_arg(info))]
        if major == _MAJOR_MAP:
            count = self._read_arg(info)
            result: dict = {}
            prev_key_bytes: bytes | None = None
            for _ in range(count):
                key_start = self.pos
                key = self.decode(depth + 1)
                key_bytes = self.data[key_start : self.pos]
                if not isinstance(key, (str, int, bytes)) or isinstance(key, bool):
                    raise DecodeError("unsupported map key type")
                if prev_key_bytes is not None and key_bytes <= prev_key_bytes:
                    raise DecodeError("map keys not sorted or not unique")
                prev_key_bytes = key_bytes
                result[key] = self.decode(depth + 1)
            return result
        if major == 7:
            if initial == _SIMPLE_FALSE:
                return False
            if initial == _SIMPLE_TRUE:
                return True
            if initial == _SIMPLE_NULL:
                return None
            if initial == _FLOAT64:
                value = struct.unpack(">d", self._take(8))[0]
                if math.isnan(value) or math.isinf(value):
                    raise DecodeError("non-finite float")
                return value
        raise DecodeError(f"unsupported initial byte 0x{initial:02x}")


def decode_value(data: bytes) -> Value:
    """Decode a canonical byte string, rejecting any non-canonical form."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise DecodeError("input must be bytes")
    decoder = _Decoder(bytes(data))
    value = decoder.decode()
    if decoder.pos != len(decoder.data):
        raise DecodeError("trailing bytes after value")
    return value
