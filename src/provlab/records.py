"""Record codec: frozen dataclasses to canonical values and back.

Every record that is signed or stored (certificates, revocation lists,
timestamp tokens, assertions, claims, claim signatures, manifests, status
responses, structured validation reports, corpus index entries) gets its
shape here, derived from its dataclass field annotations, so no other
module knows how a record is laid out.  A record's value is a map keyed by
its field names; :class:`~.container.ByteRange` is the one positional
record and is the array ``[start, length]``.

Field types understood: ``str``, ``int`` (never ``bool``), ``bool`` (never
``0`` or ``1``), ``bytes``, ``X | None``, ``tuple[X, ...]``, fixed tuples
such as ``tuple[str, bytes]``, nested records, enums (by ``.value``), maps
``dict[str, V]`` with ``V`` one of those scalars or an enum, and any other
``dict`` as a free-form map that the record's ``__post_init__`` validates.

``record_value``/``record_from_value`` are the value-level pair;
``encode_record``/``decode_record`` add the value codec of :mod:`.encoding`.
Decoding is exact: a map carries precisely the record's field names, every
value has its field's type, and the dataclass's own checks run.  On top of
the strict value codec this makes ``encode_record(decode_record(cls, b)) ==
b`` for every ``b`` that decodes, so one record has one byte string.  A
record without ``bytes`` fields has a JSON form too, read back through
``record_from_value`` with the same exact decoding.

A signed payload is a record minus some fields, named by ``omit``: a
certificate without its issuer signature, a revocation list without its
signature, a timestamp token without its chain and signature, a status
response without the responder's signature.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from enum import Enum
from typing import Any, Callable

from .container import ByteRange
from .encoding import Value, decode_value, encode_value
from .errors import DecodeError

_POSITIONAL = (ByteRange,)
_SCALARS = (str, int, bool, bytes)

# per field: name, encoder (None when the value encodes as itself), decoder
_Plan = tuple[tuple[str, Callable[[Any], Value] | None, Callable[[Value], Any]], ...]


def record_value(record: Any, omit: tuple[str, ...] = ()) -> dict:
    """The map value of ``record``, leaving out the fields named in ``omit``."""
    return _map_value(_plan(type(record)), record, omit)


def record_from_value(cls: type, value: Value) -> Any:
    """Decode ``value`` into a ``cls`` record, rejecting any other shape."""
    return _record_decoder(cls)(value)


def encode_record(record: Any, omit: tuple[str, ...] = ()) -> bytes:
    """Canonical bytes of ``record``, leaving out the fields named in ``omit``."""
    return encode_value(record_value(record, omit))


def decode_record(cls: type, data: bytes) -> Any:
    """Decode canonical bytes into a ``cls`` record, rejecting any other shape."""
    return record_from_value(cls, decode_value(data))


@functools.cache
def _plan(cls: type) -> _Plan:
    hints = typing.get_type_hints(cls)
    return tuple(
        (field.name, *_converters(hints[field.name])) for field in dataclasses.fields(cls)
    )


def _map_value(plan: _Plan, record: Any, omit: tuple[str, ...] = ()) -> dict:
    return {
        name: getattr(record, name) if encode is None else encode(getattr(record, name))
        for name, encode, _ in plan
        if name not in omit
    }


def _array_value(plan: _Plan, record: Any) -> list:
    return [
        getattr(record, name) if encode is None else encode(getattr(record, name))
        for name, encode, _ in plan
    ]


@functools.cache
def _record_decoder(cls: type) -> Callable[[Value], Any]:
    plan = _plan(cls)
    names = [name for name, _, _ in plan]
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
            return cls(*[dec(item) for (_, _, dec), item in zip(plan, items)])
        except ValueError as exc:
            raise DecodeError(f"bad {cls.__name__} record: {exc}") from exc

    return decode


def _converters(hint: Any) -> tuple[Callable[[Any], Value] | None, Callable[[Value], Any]]:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict and args[0] is str and (args[1] in _SCALARS or _is_enum(args[1])):
        return _text_keyed_map(*_converters(args[1]))
    if hint in _SCALARS or hint is dict or origin is dict:
        return None, _scalar_decoder(origin or hint)
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        return _optional(*_converters(next(a for a in args if a is not type(None))))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(*_converters(args[0]))
    if origin is tuple:
        return _fixed_tuple([_converters(arg) for arg in args])
    if _is_enum(hint):
        return (lambda member: member.value), _enum_decoder(hint)
    if dataclasses.is_dataclass(hint):
        plan = _plan(hint)
        if hint in _POSITIONAL:
            return functools.partial(_array_value, plan), _record_decoder(hint)
        return functools.partial(_map_value, plan), _record_decoder(hint)
    raise TypeError(f"no wire shape for field type {hint!r}")


def _is_enum(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Enum)


def _scalar_decoder(kind: type) -> Callable[[Value], Any]:
    # the value codec and ``json`` yield exact types, so ``type(...) is``
    # keeps ``bool`` out of ``int`` fields and ``0``/``1`` out of ``bool`` ones
    def decode(value: Value) -> Any:
        if type(value) is not kind:
            raise DecodeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    return decode


def _optional(encode, decode):
    def decode_optional(value: Value) -> Any:
        return None if value is None else decode(value)

    if encode is None:
        return None, decode_optional
    return (lambda value: None if value is None else encode(value)), decode_optional


def _sequence(encode, decode):
    def decode_sequence(value: Value) -> tuple:
        if type(value) is not list:
            raise DecodeError(f"expected array, got {type(value).__name__}")
        return tuple([decode(item) for item in value])

    if encode is None:
        return None, decode_sequence
    return (lambda items: [encode(item) for item in items]), decode_sequence


def _text_keyed_map(encode, decode):
    def decode_map(value: Value) -> dict:
        if type(value) is not dict or any(type(key) is not str for key in value):
            raise DecodeError("expected a map with text keys")
        return {key: decode(item) for key, item in value.items()}

    if encode is None:
        return None, decode_map
    return (lambda items: {key: encode(item) for key, item in items.items()}), decode_map


def _fixed_tuple(converters):
    def decode_tuple(value: Value) -> tuple:
        if type(value) is not list or len(value) != len(converters):
            raise DecodeError(f"expected a {len(converters)}-element array")
        return tuple([dec(item) for (_, dec), item in zip(converters, value)])

    if all(enc is None for enc, _ in converters):
        return None, decode_tuple
    return (
        lambda items: [
            item if enc is None else enc(item) for (enc, _), item in zip(converters, items)
        ]
    ), decode_tuple


def _enum_decoder(cls: type[Enum]) -> Callable[[Value], Enum]:
    def decode(value: Value) -> Enum:
        try:
            member = cls(value)
        except ValueError:
            raise DecodeError(f"unknown {cls.__name__} value {value!r}") from None
        if type(value) is not type(member.value):
            raise DecodeError(f"{cls.__name__} value has the wrong type")
        return member

    return decode
