"""Versioned binary container for a built index (magic ``LJDA2``).

Only each group's sorted candidates are stored: the bag forest comes from
``decompose`` on the stored query, solving no LP, and load recomputes the
prefix sums and the answer count with the build's own counting pass
(``access.count_groups``), the full reducer's leaves-up half.  A file must
hold a fully reduced index: load rejects it when that pass drops a candidate,
one with no group in some child bag.  The roots-down half is not checked: no
walk visits a group that no parent candidate reaches, so it changes no
answer, and finding one would cost up to half a load.

Layout, in stream order (all integers LEB128 unsigned varints unless noted):

===========================  ===================================================
magic                        5 bytes, ``b"LJDA2"``; bumping the trailing digit
                             is the format version, loaders reject anything else
dictionary                   pool count; per pool, in increasing type name with
                             none repeated: 1 tag byte (0 int, 1 string), value
                             count, then the strictly increasing values (ints:
                             zigzag first value then gap varints; strings:
                             length-prefixed UTF-8)
query                        length-prefixed canonical query text, including an
                             ORDER clause when the order differs from the head
variable types               one tag byte per order position
groups                       per bag, in order: group count, then per group
                             (sorted by interface): interface codes, candidate
                             count, candidates as varint first value plus gap
                             varints
checksum                     CRC-32 of everything before it, 4 bytes, little-endian
===========================  ===================================================

Save is fully deterministic, so rebuilding an index from identical inputs
produces byte-identical files.
"""

from __future__ import annotations

import io
import zlib
from pathlib import Path

from .access import AccessIndex, count_groups
from .decomposition import decompose
from .errors import InputError
from .query import format_query, parse_query
from .storage import TYPE_INT, TYPE_STRING, ValueDictionary

MAGIC = b"LJDA2"
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

    def increasing(self, first: int, count: int) -> list[int]:
        """first, then count - 1 values each a non-zero varint gap above the last."""
        values = [first]
        for _ in range(count - 1):
            gap = self.uvarint()
            if gap == 0:
                raise InputError("index file values are not strictly increasing")
            values.append(values[-1] + gap)
        return values

    def type_name(self) -> str:
        type_name = _TAG_TYPES.get(self.take(1)[0])
        if type_name is None:
            raise InputError("index file holds an unknown value type tag")
        return type_name

    def text(self) -> str:
        try:
            return self.take(self.uvarint()).decode("utf-8")
        except UnicodeDecodeError:
            raise InputError("index file holds text that is not UTF-8") from None

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
                _write_uvarint(out, _zigzag(v) if prev is None else v - prev)
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

    for table in ix.tables:
        groups = table.groups
        _write_uvarint(out, len(groups))
        for key in sorted(groups):
            values = groups[key][0]
            for code in key:
                _write_uvarint(out, code)
            _write_uvarint(out, len(values))
            prev = None
            for code in values:
                _write_uvarint(out, code if prev is None else code - prev)
                prev = code

    payload = out.getvalue()
    crc = zlib.crc32(payload).to_bytes(4, "little")
    try:
        Path(path).write_bytes(payload + crc)
    except OSError as exc:
        raise InputError(f"{path}: cannot write index file: {exc.strerror}") from None


def load_index(path: str | Path) -> AccessIndex:
    """Load an index saved by :func:`save_index`; fails loudly on any mismatch."""
    try:
        return _decode(Path(path).read_bytes())
    except OSError as exc:
        raise InputError(f"{path}: cannot read index file: {exc.strerror}") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _decode(blob: bytes) -> AccessIndex:
    """The index held in a file's bytes; load_index adds the file name to errors."""
    if len(blob) < len(MAGIC) + 4:
        raise InputError("not an index file")
    payload, crc = blob[:-4], blob[-4:]
    if zlib.crc32(payload).to_bytes(4, "little") != crc:
        raise InputError("checksum mismatch, file corrupt")
    if not payload.startswith(MAGIC):
        raise InputError(f"unsupported index format {payload[: len(MAGIC)]!r}, expected {MAGIC!r}")
    r = _Reader(payload)
    r.take(len(MAGIC))

    pools: dict[str, list] = {}
    npools = r.uvarint()
    for _ in range(npools):
        type_name = r.type_name()
        if pools and type_name <= max(pools):
            raise InputError("index file value pools are repeated or out of order")
        count = r.uvarint()
        if type_name == TYPE_INT:
            pools[type_name] = r.increasing(_unzigzag(r.uvarint()), count) if count else []
        else:
            values = pools[type_name] = [r.text() for _ in range(count)]
            if any(a >= b for a, b in zip(values, values[1:])):
                raise InputError("index file values are not strictly increasing")
    dictionary = ValueDictionary(pools)

    q, order = parse_query(r.text())

    var_types = {v: r.type_name() for v in order.variables}

    decomp = decompose(q, order)
    candidates, stored_rows = [], []
    for i, bag in enumerate(decomp.bags):
        pool = dictionary.pool_codes(var_types[bag[-1]])
        groups: dict[tuple[int, ...], list[int]] = {}
        last_key = None
        for _ in range(r.uvarint()):
            key = tuple(r.uvarint() for _ in range(len(bag) - 1))
            if last_key is not None and key <= last_key:
                raise InputError(f"bag {i} groups are not in increasing order")
            last_key = key
            count = r.uvarint()
            if count == 0:
                raise InputError(f"bag {i} has an empty group")
            values = r.increasing(r.uvarint(), count)
            if values[0] not in pool or values[-1] not in pool:
                raise InputError(f"bag {i} candidate code outside the {var_types[bag[-1]]} pool")
            groups[key] = values
        candidates.append(groups)
        stored_rows.append(sum(map(len, groups.values())))
    if not r.at_end():
        raise InputError("trailing bytes after index payload")

    tables, total = count_groups(decomp, candidates)
    bag_rows = [table.rows() for table in tables]
    for i in reversed(range(len(bag_rows))):  # a bag's loss may come from a child's: name the latest
        if bag_rows[i] != stored_rows[i]:
            kids = " or ".join(str(c) for c, _ in decomp.links[i])
            raise InputError(f"bag {i}: a candidate has no group in child bag {kids}")

    return AccessIndex(
        decomp=decomp,
        dictionary=dictionary,
        var_types=var_types,
        tables=tables,
        total_count=total,
        stats={"bag_rows": bag_rows},
    )
