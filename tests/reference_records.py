"""Reference record-to-value encoder for the record codec tests.

The value-encoder leg of ``provlab.records`` from before the JSON forms were
read back from the canonical bytes: ``record_value`` and the encoder half of
each field converter, with every encoder line verbatim (the decoder and
writer halves are dropped, and the imports are absolute), except that a
whole :class:`ByteRange` is now its positional array, the shape it always
had nested, where it used to be a map.
``test_records`` holds the current codec to it: ``encode_record`` must give
the bytes of ``encode_value(record_value(...))``, and the current
``record_value`` the same JSON as this one.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from enum import Enum
from typing import Any, Callable

from provlab.container import ByteRange
from provlab.encoding import Value

_POSITIONAL = (ByteRange,)
_SCALARS = (str, int, bool, bytes)

Encoder = Callable[[Any], Value]

# per field: name, encoder (None when the value encodes as itself)
_Plan = tuple[tuple[str, Encoder | None], ...]


def record_value(record: Any, omit: tuple[str, ...] = ()) -> Value:
    """The value of ``record``, leaving out the fields named in ``omit``; a
    positional record is its array, whole or nested."""
    if type(record) in _POSITIONAL:
        return _array_value(_plan(type(record)), record)
    return _map_value(_plan(type(record)), record, omit)


@functools.cache
def _plan(cls: type) -> _Plan:
    hints = typing.get_type_hints(cls)
    return tuple(
        (field.name, _converters(hints[field.name])) for field in dataclasses.fields(cls)
    )


def _map_value(plan: _Plan, record: Any, omit: tuple[str, ...] = ()) -> dict:
    return {
        name: getattr(record, name) if encode is None else encode(getattr(record, name))
        for name, encode in plan
        if name not in omit
    }


def _array_value(plan: _Plan, record: Any) -> list:
    return [
        getattr(record, name) if encode is None else encode(getattr(record, name))
        for name, encode in plan
    ]


def _converters(hint: Any) -> Encoder | None:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict and args[0] is str and (args[1] in _SCALARS or _is_enum(args[1])):
        return _text_keyed_map(_converters(args[1]))
    if hint in _SCALARS or hint is dict or origin is dict:
        return None
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        return _optional(_converters(next(a for a in args if a is not type(None))))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(_converters(args[0]))
    if origin is tuple:
        return _fixed_tuple([_converters(arg) for arg in args])
    if _is_enum(hint):
        return _enum(hint)
    if dataclasses.is_dataclass(hint):
        plan = _plan(hint)
        if hint in _POSITIONAL:
            return functools.partial(_array_value, plan)
        return functools.partial(_map_value, plan)
    raise TypeError(f"no wire shape for field type {hint!r}")


def _is_enum(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Enum)


def _optional(encode):
    if encode is None:
        return None

    def encode_optional(value: Any) -> Value:
        return None if value is None else encode(value)

    return encode_optional


def _sequence(encode):
    if encode is None:
        return None
    return lambda items: [encode(item) for item in items]


def _text_keyed_map(encode):
    if encode is None:
        return None

    def encode_map(items: dict) -> dict:
        return {key: encode(item) for key, item in items.items()}

    return encode_map


def _fixed_tuple(encoders):
    if all(enc is None for enc in encoders):
        return None
    return lambda items: [
        item if enc is None else enc(item) for enc, item in zip(encoders, items)
    ]


def _enum(cls: type[Enum]) -> Encoder:
    return lambda member: member.value
