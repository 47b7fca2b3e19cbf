"""Binary value framing for the on-disk formats: partition segments, the
write-ahead log and the KD-tree's serialized form.

Values are tagged, length-prefixed little-endian records.  Supported value
types are the ones file indices actually store: ints, floats, strings,
bytes, None, and flat tuples of those.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

_TAG_INT = 0
_TAG_FLOAT = 1
_TAG_STR = 2
_TAG_BYTES = 3
_TAG_NONE = 4
_TAG_TUPLE = 5


_TAG = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_TAGGED_I64 = struct.Struct("<Bq")
_TAGGED_F64 = struct.Struct("<Bd")
_TAGGED_U32 = struct.Struct("<BI")
_NONE = _TAG.pack(_TAG_NONE)


def dump_value(value: Any) -> bytes:
    """Encode one value as a tagged binary record."""
    out = bytearray()
    _dump_into(value, out)
    return bytes(out)


def dump_tuple_head(length: int) -> bytes:
    """What :func:`dump_value` writes for a ``length``-tuple before its
    items, whose records follow back to back — so a tuple's record can
    be assembled from items dumped apart."""
    return _TAGGED_U32.pack(_TAG_TUPLE, length)


def _dump_into(value: Any, out: bytearray) -> None:
    """Append ``value``'s record to ``out`` (one buffer for the whole
    record: a partition's ACG is a single tuple of 10^5 values).  The
    exact type picks the branch; a subclass encodes as its base type."""
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out += _TAGGED_U32.pack(_TAG_STR, len(raw))
        out += raw
    elif kind is int or kind is bool:
        # Bools are stored as ints; they round-trip as 0/1 which is what
        # attribute predicates compare against.
        out += _TAGGED_I64.pack(_TAG_INT, value)
    elif kind is tuple:
        out += _TAGGED_U32.pack(_TAG_TUPLE, len(value))
        for item in value:
            _dump_into(item, out)
    elif kind is float:
        out += _TAGGED_F64.pack(_TAG_FLOAT, value)
    elif value is None:
        out += _NONE
    elif kind is bytes:
        out += _TAGGED_U32.pack(_TAG_BYTES, len(value))
        out += value
    else:
        for base in (int, float, str, bytes, tuple):
            if isinstance(value, base):
                return _dump_into(base(value), out)
        raise TypeError(f"cannot serialize value of type {kind.__name__}")


def load_value(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one record at ``offset``; return (value, next_offset)."""
    (tag,) = _TAG.unpack_from(data, offset)
    offset += 1
    if tag == _TAG_STR:
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        return data[offset:offset + n].decode("utf-8"), offset + n
    if tag == _TAG_INT:
        return _I64.unpack_from(data, offset)[0], offset + 8
    if tag == _TAG_TUPLE:
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        items: List[Any] = []
        append = items.append
        for _ in range(n):
            item, offset = load_value(data, offset)
            append(item)
        return tuple(items), offset
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_BYTES:
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        return bytes(data[offset:offset + n]), offset + n
    raise ValueError(f"unknown value tag: {tag}")
