"""Versioned binary container for a built index (magic ``LJDA1``).

Layout, in stream order (all integers LEB128 unsigned varints unless noted,
multi-byte scalars little-endian):

===========================  ===================================================
magic                        5 bytes, ``b"LJDA1"``; bumping the trailing digit
                             is the format version, loaders reject anything else
dictionary                   pool count; per pool (sorted by type name):
                             1 tag byte (0 int, 1 string), value count, then the
                             sorted values (ints: zigzag first value then gap
                             varints; strings: length-prefixed UTF-8)
query                        length-prefixed canonical query text, including an
                             ORDER clause when the order differs from the head
variable types               one tag byte per order position
bags                         bag count; per bag: member count, member order
                             positions ascending, parent (0 none, else 1+index),
                             group count, then per group (sorted by interface):
                             interface codes, candidate count, candidates as
                             varint first value plus gap varints, and one
                             big-integer prefix sum per candidate
                             (length-prefixed little-endian magnitude)
total count                  length-prefixed big integer
checksum                     CRC-32 of everything before it, 4 bytes
===========================  ===================================================

Save is fully deterministic, so rebuilding an index from identical inputs
produces byte-identical files.
"""

from __future__ import annotations

import io
import zlib
from pathlib import Path

from .access import AccessIndex, GroupTable
from .errors import InputError
from .query import format_query, parse_query
from .storage import TYPE_INT, TYPE_STRING, ValueDictionary

MAGIC = b"LJDA1"
_TYPE_TAGS = {TYPE_INT: 0, TYPE_STRING: 1}
_TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}


def _write_uvarint(out: io.BytesIO, value: int) -> None:
    if value < 0:
        raise InputError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def _write_bigint(out: io.BytesIO, value: int) -> None:
    if value < 0:
        raise InputError("counts are non-negative")
    data = value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")
    _write_uvarint(out, len(data))
    out.write(data)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise InputError("index file truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def uvarint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def svarint(self) -> int:
        return _unzigzag(self.uvarint())

    def bigint(self) -> int:
        n = self.uvarint()
        return int.from_bytes(self.take(n), "little")

    def at_end(self) -> bool:
        return self.pos == len(self.data)


def save_index(ix: AccessIndex, path: str | Path) -> None:
    """Serialize a built index; the source database is not included."""
    out = io.BytesIO()
    out.write(MAGIC)

    pools = ix.dictionary.pool_values
    _write_uvarint(out, len(pools))
    for type_name in sorted(pools):
        out.write(bytes((_TYPE_TAGS[type_name],)))
        values = pools[type_name]
        _write_uvarint(out, len(values))
        if type_name == TYPE_INT:
            prev = None
            for v in values:
                if prev is None:
                    _write_uvarint(out, _zigzag(v))
                else:
                    _write_uvarint(out, v - prev)
                prev = v
        else:
            for v in values:
                data = v.encode("utf-8")
                _write_uvarint(out, len(data))
                out.write(data)

    text = format_query(ix.query, ix.order).encode("utf-8")
    _write_uvarint(out, len(text))
    out.write(text)

    for v in ix.order.variables:
        out.write(bytes((_TYPE_TAGS[ix.var_types[v]],)))

    _write_uvarint(out, len(ix.bags))
    for i, bag in enumerate(ix.bags):
        _write_uvarint(out, len(bag))
        for v in bag:
            _write_uvarint(out, ix.order.position(v))
        parent = ix.parent[i]
        _write_uvarint(out, 0 if parent is None else parent + 1)
        groups = ix.tables[i].groups
        _write_uvarint(out, len(groups))
        for key in sorted(groups):
            values, prefix = groups[key]
            for code in key:
                _write_uvarint(out, code)
            _write_uvarint(out, len(values))
            prev = None
            for code in values:
                _write_uvarint(out, code if prev is None else code - prev)
                prev = code
            for p in prefix:
                _write_bigint(out, p)

    _write_bigint(out, ix.total_count)
    payload = out.getvalue()
    crc = zlib.crc32(payload).to_bytes(4, "little")
    Path(path).write_bytes(payload + crc)


def load_index(path: str | Path) -> AccessIndex:
    """Load an index saved by :func:`save_index`; fails loudly on any mismatch."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4:
        raise InputError(f"{path}: not an index file")
    payload, crc = blob[:-4], blob[-4:]
    if zlib.crc32(payload).to_bytes(4, "little") != crc:
        raise InputError(f"{path}: checksum mismatch, file corrupt")
    if not payload.startswith(MAGIC):
        head = payload[: len(MAGIC)]
        raise InputError(f"{path}: unsupported index format {head!r}, expected {MAGIC!r}")
    r = _Reader(payload)
    r.take(len(MAGIC))

    pools: dict[str, list] = {}
    npools = r.uvarint()
    for _ in range(npools):
        type_name = _TAG_TYPES.get(r.take(1)[0])
        if type_name is None:
            raise InputError(f"{path}: unknown value type tag")
        count = r.uvarint()
        values: list = []
        if type_name == TYPE_INT:
            prev = None
            for _ in range(count):
                if prev is None:
                    prev = _unzigzag(r.uvarint())
                else:
                    prev += r.uvarint()
                values.append(prev)
        else:
            for _ in range(count):
                values.append(r.take(r.uvarint()).decode("utf-8"))
        pools[type_name] = values
    dictionary = ValueDictionary(pools)

    text = r.take(r.uvarint()).decode("utf-8")
    q, order = parse_query(text)

    var_types = {}
    for v in order.variables:
        tag = r.take(1)[0]
        if tag not in _TAG_TYPES:
            raise InputError(f"{path}: unknown value type tag")
        var_types[v] = _TAG_TYPES[tag]

    nbags = r.uvarint()
    if nbags != len(order.variables):
        raise InputError(f"{path}: bag count does not match the query")
    bags = []
    parent: dict[int, int | None] = {}
    tables = []
    for i in range(nbags):
        m = r.uvarint()
        positions = [r.uvarint() for _ in range(m)]
        if any(pos >= nbags for pos in positions):
            raise InputError(f"{path}: bag member position out of range")
        bags.append(tuple(order.variables[pos] for pos in positions))
        p = r.uvarint()
        if p > i:
            raise InputError(f"{path}: bag parent pointer out of range")
        parent[i] = None if p == 0 else p - 1
        groups: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        for _ in range(r.uvarint()):
            key = tuple(r.uvarint() for _ in range(m - 1))
            count = r.uvarint()
            values = []
            prev = None
            for _ in range(count):
                prev = r.uvarint() if prev is None else prev + r.uvarint()
                values.append(prev)
            prefix = [r.bigint() for _ in range(count)]
            groups[key] = (values, prefix)
        tables.append(GroupTable(groups))

    total = r.bigint()
    if not r.at_end():
        raise InputError(f"{path}: trailing bytes after index payload")

    return AccessIndex(
        query=q,
        order=order,
        dictionary=dictionary,
        var_types=var_types,
        bags=tuple(bags),
        parent=parent,
        tables=tuple(tables),
        total_count=total,
        stats={},
    )
