"""Record codec: frozen dataclasses to canonical bytes and back.

Every record that is signed or stored (certificates, revocation lists,
timestamp tokens, assertions, claims, claim signatures, redactions,
manifests, status responses, structured validation reports, corpus index
entries) gets its shape here, derived from its dataclass field annotations,
so no other module knows how a record is laid out.  A record's value is a
map keyed by its field names; :class:`~.container.ByteRange` is the one
positional record and is the array ``[start, length]``, nested or whole.

Field types understood: ``str``, ``int`` (never ``bool``), ``bool`` (never
``0`` or ``1``), ``bytes``, ``X | None``, ``tuple[X, ...]``, fixed tuples
such as ``tuple[str, bytes]``, nested records, enums (by ``.value``), maps
``dict[str, V]`` with ``V`` one of those scalars or an enum, and any other
``dict`` as a free-form map that the record's ``__post_init__`` validates.

``encode_record`` builds no intermediate value.  A writer compiled once per
record class (and once more for its signed bytes) holds the map head and
each field name's encoded key, already in canonical order, and appends
every field's chunks straight to one list: nested records, arrays of
records, fixed tuples, optionals and enums included.  Only fields without a
fixed shape (scalars and free-form maps) go through
:func:`~.encoding.write_value`, which still sorts a free-form map's keys on
each call.

``record_from_value`` decodes a value exactly: a map carries precisely the
record's field names, every value has its field's type (an enum field's
through a value-to-member table built once per enum), and the dataclass's
own checks run.  On top of the strict value codec this makes
``encode_record(decode_record(cls, b)) == b`` for every ``b`` that decodes,
so one record has one byte string.

``decode_record`` reads bytes in one pass, with a reader compiled once per
record class that mirrors its writer: it matches the map head and each
field's encoded key, in canonical order, against the input, reads nested
records, arrays of them and optionals in place, and hands only the other
fields to :func:`~.encoding.read_value`, at the depth they have in the
value, so ``MAX_DEPTH`` binds as it does for ``decode_value``.  The reader
accepts exactly what ``record_from_value(cls, decode_value(b))`` accepts,
and builds the same record.  When it fails, that two-stage path runs
instead, and its error is the one raised, so every message stays as it was.

Each map record keeps its bytes, decoded and built alike: the reader stores
the slice of the input it read, and a whole write of a record holding none
joins the chunks it appended into one ``bytes``, appends that in their place
and stores it.  ``encode_record``, a nested write included, returns the
stored bytes instead of re-encoding, so a certificate in every signing's
chain, or an assertion digested and then embedded, is written once.

The reader shares what it reads: each map record class keeps a table of
``(record, depth)`` keyed by the first ``_KEY_BYTES`` input bytes at the
read position, and serves a stored record only where the input starts with
its slice and the current depth is at most the one it was read at.  A canonical record is
prefix-free, so those bytes read as exactly that record, and depth limits a
read only through ``MAX_DEPTH``, so bytes that read cleanly at one depth
read cleanly at any shallower one.  Any other input, a deeper read
included, is read in full and its record stored under that key.  Only exact
``bytes`` reach the reader: a ``bytearray``, ``memoryview`` or ``bytes``
subclass takes the two-stage path, and is never served or stored.  A table
stores records of at most ``_SHARED_BYTES`` wire bytes, at most
``_TABLE_BYTES`` of them, and drops the oldest first under one lock
(``validate`` may run on several threads at once).  So a certificate seen
in many manifests is decoded, and its template written, once, a manifest
validated again is not read again, and a re-stamped variant of a known
manifest reads only what it changed.

By the bijection above a slice is its record's encoding, and a shared
record is what a fresh read would build, as long as no record changes:
records are frozen, ``dataclasses.replace`` builds a record without bytes,
and no code changes a record's ``dict`` field in place, decoded or built.

The JSON forms (structured reports, corpus index entries) are read back
from those bytes (``record_value`` is ``decode_value(encode_record(...))``),
so a record has no second encoder, and a record without ``bytes`` fields
decodes from its JSON form through ``record_from_value``.

Each signed record class names the fields its signature leaves out in a
class constant ``UNSIGNED`` (a plain attribute, not a field, so no byte
moves): a certificate its issuer signature, a revocation list its
signature, a status response its responder signature, a timestamp token or
a redaction its chain and signature.  The last of them is the signature.
``signed_bytes`` writes a record without those fields.  It stores no whole
bytes; on a record that holds them it keeps its signed bytes, under one
attribute, written once.  ``sign_record`` signs such a record and
``verify_record`` checks its signature.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import types
import typing
from enum import Enum
from typing import Any, Callable

from .container import ByteRange
from .crypto import SigningKey, verify_once
from .encoding import (
    Value, array_head, decode_value, encode_value, map_head, read_array_head,
    read_value, write_value,
)
from .errors import DecodeError

_POSITIONAL = (ByteRange,)
_SCALARS = (str, int, bool, bytes)
_NULL = encode_value(None)
# the instance attributes that hold a map record's bytes, read or written
# whole, and its signed bytes (see ``signed_bytes``)
_WIRE = "_wire"
_SIGNED = "_signed"

# per record class, the records read so far (see the module docstring):
# each of at most _SHARED_BYTES wire bytes, at most _TABLE_BYTES in all (own
# slices only: the ten tables a validation fills hold about 6 MiB of heap when full)
_KEY_BYTES = 64
_SHARED_BYTES = 4096
_TABLE_BYTES = 128 * 1024
_shared_records: dict[type, _Table] = {}
_shared_lock = threading.Lock()

Decoder = Callable[[Value], Any]
# appends a field value's canonical chunks to the list it is given
Writer = Callable[[Any, list], None]
# reads a field value at ``data[pos:]``, ``depth`` levels deep; returns it
# and the position after it
Reader = Callable[[bytes, int, int], tuple[Any, int]]

# per field: name, decoder, writer (``write_value`` when the value encodes
# as itself), reader
_Plan = tuple[tuple[str, Decoder, Writer, Reader], ...]


def record_value(record: Any) -> Value:
    """The value of ``record``."""
    return decode_value(encode_record(record))


def record_from_value(cls: type, value: Value) -> Any:
    """Decode ``value`` into a ``cls`` record, rejecting any other shape."""
    return _record_decoder(cls)(value)


def encode_record(record: Any) -> bytes:
    """Canonical bytes of ``record``: the bytes it holds, read or first written whole."""
    wire = getattr(record, _WIRE, None)
    return _written(type(record), record, ()) if wire is None else wire


def signed_bytes(record: Any) -> bytes:
    """The bytes ``record``'s signature covers: the record without the fields
    its class names in ``UNSIGNED``.  A record that holds its bytes keeps
    these too, written once."""
    signed = getattr(record, _SIGNED, None)
    if signed is None:
        signed = _written(type(record), record, type(record).UNSIGNED)
        if hasattr(record, _WIRE):
            object.__setattr__(record, _SIGNED, signed)
    return signed


def sign_record(unsigned: Any, key: SigningKey) -> Any:
    """``unsigned`` with its signature, the last field its class names in
    ``UNSIGNED``, set to ``key``'s signature over its ``signed_bytes``."""
    field = type(unsigned).UNSIGNED[-1]
    return dataclasses.replace(unsigned, **{field: key.sign(signed_bytes(unsigned))})


def verify_record(record: Any, public_key: bytes) -> bool:
    """Whether ``record``'s signature verifies under ``public_key`` over its ``signed_bytes``."""
    signature = getattr(record, type(record).UNSIGNED[-1])
    return verify_once(public_key, signed_bytes(record), signature)


def _written(cls: type, record: Any, omit: tuple[str, ...]) -> bytes:
    out: list[bytes] = []
    _record_writer(cls, omit)(record, out)
    return b"".join(out)


def decode_record(cls: type, data: bytes) -> Any:
    """Decode canonical bytes into a ``cls`` record, rejecting any other shape."""
    if type(data) is bytes:  # immutable, and no subclass that compares unlike its bytes
        try:
            record, end = _record_reader(cls)(data, 0, 0)
        except (DecodeError, ValueError):
            pass
        else:
            if end == len(data):
                return record
    # the reader's errors are not worded; this path words every failure
    return record_from_value(cls, decode_value(data))


@functools.cache
def _plan(cls: type) -> _Plan:
    hints = typing.get_type_hints(cls)
    return tuple(
        (field.name, *_converters(hints[field.name])) for field in dataclasses.fields(cls)
    )


@functools.cache
def _record_writer(cls: type, omit: tuple[str, ...]) -> Writer:
    if cls in _POSITIONAL:
        positional = tuple((name, write) for name, _, write, _ in _plan(cls))
        array = array_head(len(positional))

        def write_array(record: Any, out: list) -> None:
            out.append(array)
            for name, write in positional:
                write(getattr(record, name), out)

        return write_array
    fields = sorted(
        (
            (encode_value(name), name, write)
            for name, _, write, _ in _plan(cls)
            if name not in omit
        ),
        key=lambda field: field[0],
    )
    head = map_head(len(fields))
    whole = not omit

    def write_record(record: Any, out: list) -> None:
        if whole:
            wire = getattr(record, _WIRE, None)
            if wire is not None:
                out.append(wire)
                return
            start = len(out)
        out.append(head)
        for key, name, write in fields:
            out.append(key)
            write(getattr(record, name), out)
        if whole:  # a built record keeps its bytes as a decoded one does
            out[start:] = [wire := b"".join(out[start:])]
            object.__setattr__(record, _WIRE, wire)

    return write_record


@functools.cache
def _record_decoder(cls: type) -> Decoder:
    plan = _plan(cls)
    names = [name for name, *_ in plan]
    name_set = set(names)
    positional = cls in _POSITIONAL

    def decode(value: Value) -> Any:
        if positional:
            if type(value) is not list or len(value) != len(plan):
                raise DecodeError(f"{cls.__name__} must be a {len(plan)}-element array")
            items = value
        else:
            if type(value) is not dict or value.keys() != name_set:
                raise DecodeError(f"{cls.__name__} must be a map of {sorted(names)}")
            items = [value[name] for name in names]
        try:
            return cls(*[dec(item) for (_, dec, _, _), item in zip(plan, items)])
        except ValueError as exc:
            raise DecodeError(f"bad {cls.__name__} record: {exc}") from exc

    return decode


@functools.cache
def _record_reader(cls: type) -> Reader:
    """Read a ``cls`` record straight off the wire, as ``_record_decoder``
    reads its value: the record's own heads and keys are matched, nested
    records and sequences of them are read in place, and every other field
    goes through :func:`~.encoding.read_value` at the depth it has in the
    value.  The record keeps the slice it was read from, and is shared
    with earlier reads of the same bytes."""
    if cls in _POSITIONAL:  # an array of scalars, with no slice to keep
        return _reading(_record_decoder(cls))
    fields = sorted(
        (encode_value(name), index, read) for index, (name, *_, read) in enumerate(_plan(cls))
    )
    head = map_head(len(fields))
    table = _shared_records.setdefault(cls, _Table())

    def read_record(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
        key = data[pos : pos + _KEY_BYTES]
        record, deepest = table.get(key, (None, -1))
        # what read cleanly at the stored depth reads cleanly at any shallower one
        if depth <= deepest and data.startswith(wire := getattr(record, _WIRE), pos):
            return record, pos + len(wire)
        if not data.startswith(head, pos):
            raise DecodeError(f"not a {cls.__name__} map")
        end = pos + len(head)
        values: list = [None] * len(fields)
        for field_key, index, read in fields:
            if not data.startswith(field_key, end):
                raise DecodeError(f"not a {cls.__name__} map")
            values[index], end = read(data, end + len(field_key), depth + 1)
        record = cls(*values)
        # frozen, so the slice stays its encoding; ``replace`` builds a record without one
        object.__setattr__(record, _WIRE, data[pos:end])
        if end - pos <= _SHARED_BYTES:
            table.store(key, record, depth)
        return record, end

    return read_record


class _Table(dict):
    """Shared ``(record, depth)`` pairs by key, oldest first; ``held`` counts their wire bytes."""

    held = 0

    def store(self, key: bytes, record: Any, depth: int) -> None:
        size = len(getattr(record, _WIRE))
        with _shared_lock:
            self._drop(key)
            while self and self.held + size > _TABLE_BYTES:
                self._drop(next(iter(self)))
            self[key] = record, depth
            self.held += size

    def _drop(self, key: bytes) -> None:
        stored = self.pop(key, None)
        if stored is not None:
            self.held -= len(getattr(stored[0], _WIRE))

    def clear(self) -> None:
        with _shared_lock:
            super().clear()
            self.held = 0


def _converters(hint: Any) -> tuple[Decoder, Writer, Reader]:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict and args[0] is str and (args[1] in _SCALARS or _is_enum(args[1])):
        return _text_keyed_map(*_converters(args[1]))
    if hint in _SCALARS or hint is dict or origin is dict:
        decode = _scalar_decoder(origin or hint)
        return decode, write_value, _reading(decode)
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        return _optional(*_converters(next(a for a in args if a is not type(None))))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(*_converters(args[0]))
    if origin is tuple:
        return _fixed_tuple([_converters(arg) for arg in args])
    if _is_enum(hint):
        return _enum(hint)
    if dataclasses.is_dataclass(hint):
        return _record_decoder(hint), _record_writer(hint, ()), _record_reader(hint)
    raise TypeError(f"no wire shape for field type {hint!r}")


def _is_enum(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Enum)


def _reading(decode: Decoder) -> Reader:
    """A reader that decodes one whole value and converts it with ``decode``."""

    def read(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
        value, pos = read_value(data, pos, depth)
        return decode(value), pos

    return read


def _scalar_decoder(kind: type) -> Decoder:
    # the value codec and ``json`` yield exact types, so ``type(...) is``
    # keeps ``bool`` out of ``int`` fields and ``0``/``1`` out of ``bool`` ones
    def decode(value: Value) -> Any:
        if type(value) is not kind:
            raise DecodeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    return decode


def _optional(decode, write, read):
    def decode_optional(value: Value) -> Any:
        return None if value is None else decode(value)

    if write is write_value:
        return decode_optional, write_value, _reading(decode_optional)

    def write_optional(value: Any, out: list) -> None:
        if value is None:
            out.append(_NULL)
        else:
            write(value, out)

    def read_optional(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
        if data.startswith(_NULL, pos):
            return None, pos + 1
        return read(data, pos, depth)

    return decode_optional, write_optional, read_optional


def _sequence(decode, write, read):
    def decode_sequence(value: Value) -> tuple:
        if type(value) is not list:
            raise DecodeError(f"expected array, got {type(value).__name__}")
        return tuple([decode(item) for item in value])

    if write is write_value:
        return decode_sequence, write_value, _reading(decode_sequence)

    def write_sequence(items: Any, out: list) -> None:
        out.append(array_head(len(items)))
        for item in items:
            write(item, out)

    def read_sequence(data: bytes, pos: int, depth: int) -> tuple[tuple, int]:
        count, pos = read_array_head(data, pos)
        items = []
        for _ in range(count):
            item, pos = read(data, pos, depth + 1)
            items.append(item)
        return tuple(items), pos

    return decode_sequence, write_sequence, read_sequence


def _text_keyed_map(decode, write, read):
    def decode_map(value: Value) -> dict:
        if type(value) is not dict or any(type(key) is not str for key in value):
            raise DecodeError("expected a map with text keys")
        return {key: decode(item) for key, item in value.items()}

    if write is write_value:
        return decode_map, write_value, _reading(decode_map)

    # a map of enums; the keys are free-form, so the generic writer sorts them
    def write_map(items: dict, out: list) -> None:
        write_value({key: member.value for key, member in items.items()}, out)

    return decode_map, write_map, _reading(decode_map)


def _fixed_tuple(converters):
    def decode_tuple(value: Value) -> tuple:
        if type(value) is not list or len(value) != len(converters):
            raise DecodeError(f"expected a {len(converters)}-element array")
        return tuple([dec(item) for (dec, _, _), item in zip(converters, value)])

    if any(write is not write_value for _, write, _ in converters):
        raise TypeError("a fixed tuple field must hold scalars only")
    return decode_tuple, write_value, _reading(decode_tuple)


def _enum(cls: type[Enum]) -> tuple[Decoder, Writer, Reader]:
    # ``_value_`` is what ``.value`` returns, without the descriptor's cost
    members = {member.value: member for member in cls}
    encoded = {value: encode_value(value) for value in members}

    def decode(value: Value) -> Enum:
        try:
            member = members[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise DecodeError(f"unknown {cls.__name__} value {value!r}") from None
        if type(value) is not type(member._value_):
            raise DecodeError(f"{cls.__name__} value has the wrong type")
        return member

    def write(member: Enum, out: list) -> None:
        out.append(encoded[member._value_])

    return decode, write, _reading(decode)
