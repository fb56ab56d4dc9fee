"""Record codec: frozen dataclasses to canonical values and back.

Every record that is signed or stored (certificates, revocation lists,
timestamp tokens, assertions, claims, claim signatures, manifests) gets its
wire shape here, derived from its dataclass field annotations, so no other
module knows how a record is laid out.  A record encodes as a map keyed by
its field names; :class:`~.container.ByteRange` is the one positional
record and encodes as ``[start, length]``.

Field types understood: ``str``, ``int`` (never ``bool``), ``bytes``,
``X | None``, ``tuple[X, ...]``, fixed tuples such as ``tuple[str, bytes]``,
nested records, enums (by ``.value``), and a free-form ``dict`` whose
contents the record's own ``__post_init__`` validates.

Decoding is exact: a map carries precisely the record's field names, every
value has its field's type, and the dataclass's own checks run.  On top of
the strict value codec in :mod:`.encoding` this makes
``encode_record(decode_record(cls, b)) == b`` for every ``b`` that decodes,
so one record has one byte string.

A signed payload is a record minus some fields, named by ``omit``: a
certificate without its issuer signature, a revocation list without its
signature, a timestamp token without its chain and signature.
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

# per field: name, encoder (None when the value encodes as itself), decoder
_Plan = tuple[tuple[str, Callable[[Any], Value] | None, Callable[[Value], Any]], ...]


def encode_record(record: Any, omit: tuple[str, ...] = ()) -> bytes:
    """Canonical bytes of ``record``, leaving out the fields named in ``omit``."""
    return encode_value(_map_value(_plan(type(record)), record, omit))


def decode_record(cls: type, data: bytes) -> Any:
    """Decode canonical bytes into a ``cls`` record, rejecting any other shape."""
    return _record_decoder(cls)(decode_value(data))


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
    if hint in (str, int, bytes, dict) or origin is dict:
        return None, _scalar_decoder(origin or hint)
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        return _optional(*_converters(next(a for a in args if a is not type(None))))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(*_converters(args[0]))
    if origin is tuple:
        return _fixed_tuple([_converters(arg) for arg in args])
    if isinstance(hint, type) and issubclass(hint, Enum):
        return (lambda member: member.value), _enum_decoder(hint)
    if dataclasses.is_dataclass(hint):
        plan = _plan(hint)
        if hint in _POSITIONAL:
            return functools.partial(_array_value, plan), _record_decoder(hint)
        return functools.partial(_map_value, plan), _record_decoder(hint)
    raise TypeError(f"no wire shape for field type {hint!r}")


def _scalar_decoder(kind: type) -> Callable[[Value], Any]:
    # the value codec yields exact types, so ``type(...) is`` also keeps
    # ``bool`` out of ``int`` fields
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
