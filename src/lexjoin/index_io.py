"""Versioned binary container for a built index (magic ``LJDA3``).

Only each group's sorted candidates are stored.  The bag forest comes from
``decompose`` on the stored query, solving no LP, and implies every group key
(below); load then hands the file to the build's own derivation,
``access.derive_index``: its roots-down pass lists the keys, taking each
bag's candidate lists from the file, and its count recomputes the prefix
sums, the answer count and the bag rows, reading each group's child totals
by position.  Load builds no table itself.

Layout, in stream order (all integers LEB128 unsigned varints unless noted):

===========================  ===================================================
magic                        5 bytes, ``b"LJDA3"``; bumping the trailing digit
                             is the format version, loaders reject anything else
dictionary                   pool count; per pool, in increasing type name with
                             none repeated: 1 tag byte (0 int, 1 string), value
                             count, then the strictly increasing values (ints:
                             zigzag first value then gap varints; strings:
                             length-prefixed UTF-8)
query                        length-prefixed canonical query text, including an
                             ORDER clause when the order differs from the head
variable types               one tag byte per order position
groups                       per bag, in order: a root bag's group count (0 or
                             1; other bags store none), then three streams over
                             the bag's groups in key order: group sizes, first
                             candidates, and the non-zero gaps between each
                             group's consecutive candidates
checksum                     CRC-32 of everything before it, 4 bytes, little-endian
===========================  ===================================================

Why no key is stored: a child bag's keys are exactly those that
``access.reached`` names from its parent's groups.  Build drops, leaves up,
each candidate with no group in some child bag, and then lists every
child's keys by ``reached`` roots down (``derive_index``), taking only the
groups they name.  Load lists them by the same pass, in saved order, heads
sorted, and a root's only key is ``()``.  Each derived key gets a group of
at least one candidate, so no candidate lacks a child group and no group is
unreached: load drops nothing.  It rejects what the format can still get
wrong: an empty group, a zero gap, a candidate outside its pool, a root
with more than one group, truncation and trailing bytes.

Counting by position: as ``derive_index`` lists a child's keys it notes,
per parent group, where that group's child groups sit in the child's key
order.  A head that one parent group names covers a contiguous run of child
groups in that group's candidate order, so the group's child totals are one
slice.  A head that several parent groups share covers the run of its
sorted union, which ``reached`` has built; the span keeps the run's start
and that union, and each of those groups maps its candidates to the run's
totals by value.  The count follows that pass, which drops nothing, so
every position holds through the count, which makes no key lookup.

A stream of values below 0x80 is its own bytes: save writes it with one
``bytes`` call, and load takes it as one slice when its next n bytes are all
below 0x80 (a larger value would set a high bit there).  First candidates
get their own stream, so large codes keep the gaps on that path.  Save is
deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import io
import zlib
from itertools import accumulate, chain
from operator import itemgetter, sub
from pathlib import Path

from .access import AccessIndex, derive_index
from .decomposition import decompose
from .errors import InputError
from .query import format_query, parse_query
from .storage import TYPE_INT, TYPE_STRING, ValueDictionary, gc_paused

MAGIC = b"LJDA3"
_TYPE_TAGS = {TYPE_INT: 0, TYPE_STRING: 1}
_TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}


def _write_uvarints(out: io.BytesIO, values: list[int]) -> None:
    if max(values, default=0) < 0x80:  # each value is its own byte
        out.write(bytes(values))
        return
    buf = bytearray()
    for value in values:
        while value > 0x7F:
            buf.append(value & 0x7F | 0x80)
            value >>= 7
        buf.append(value)
    out.write(buf)


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

    def uvarints(self, n: int) -> list[int]:
        """The next n varints, taken as one slice when their first n bytes are all below 0x80."""
        data, pos = self.data, self.pos
        chunk = data[pos : pos + n]
        if len(chunk) < n:  # a varint takes at least one byte
            raise InputError("index file truncated")
        if chunk.isascii():
            self.pos = pos + n
            return list(chunk)
        values = []
        try:
            for _ in range(n):
                byte = data[pos]
                value, shift = byte & 0x7F, 7
                pos += 1
                while byte & 0x80:
                    byte = data[pos]
                    value |= (byte & 0x7F) << shift
                    shift += 7
                    pos += 1
                values.append(value)
        except IndexError:
            raise InputError("index file truncated") from None
        self.pos = pos
        return values

    def uvarint(self) -> int:
        return self.uvarints(1)[0]

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
    _write_uvarints(out, [len(pools)])
    for type_name in sorted(pools):
        out.write(bytes((_TYPE_TAGS[type_name],)))
        values = pools[type_name]
        _write_uvarints(out, [len(values)])
        if type_name == TYPE_INT:
            _write_uvarints(out, [*map(_zigzag, values[:1]), *map(sub, values[1:], values)])
        else:
            for v in values:
                data = v.encode("utf-8")
                _write_uvarints(out, [len(data)])
                out.write(data)

    text = format_query(ix.query, ix.order).encode("utf-8")
    _write_uvarints(out, [len(text)])
    out.write(text)

    for v in ix.order.variables:
        out.write(bytes((_TYPE_TAGS[ix.var_types[v]],)))

    for i, table in enumerate(ix.tables):
        if ix.decomp.parent[i] is None:
            _write_uvarints(out, [len(table.groups)])
        lists = [values for values, _ in table.groups.values()]  # held in key order
        _write_uvarints(out, list(map(len, lists)))
        _write_uvarints(out, [values[0] for values in lists])
        _write_uvarints(out, list(chain.from_iterable(map(sub, v[1:], v) for v in lists)))

    payload = out.getvalue()
    crc = zlib.crc32(payload).to_bytes(4, "little")
    try:
        Path(path).write_bytes(payload + crc)
    except OSError as exc:
        raise InputError(f"{path}: cannot write index file: {exc.strerror}") from None


@gc_paused
def load_index(path: str | Path) -> AccessIndex:
    """Load an index saved by :func:`save_index` with cyclic GC paused; fails loudly on any mismatch."""
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
    for _ in range(r.uvarint()):
        type_name = r.type_name()
        if pools and type_name <= max(pools):
            raise InputError("index file value pools are repeated or out of order")
        count = r.uvarint()
        if type_name == TYPE_INT:
            deltas = [_unzigzag(r.uvarint()), *r.uvarints(count - 1)] if count else []
            if 0 in deltas[1:]:
                raise InputError("index file values are not strictly increasing")
            pools[type_name] = list(accumulate(deltas))
        else:
            values = pools[type_name] = [r.text() for _ in range(count)]
            if any(a >= b for a, b in zip(values, values[1:])):
                raise InputError("index file values are not strictly increasing")
    dictionary = ValueDictionary(pools)

    q, order = parse_query(r.text())

    var_types = {v: r.type_name() for v in order.variables}

    decomp = decompose(q, order)

    def take(i: int, keys: list[tuple[int, ...]] | None) -> dict[tuple[int, ...], list[int]]:
        if keys is None:
            count = r.uvarint()
            if count > 1:
                raise InputError(f"root bag {i} has {count} groups, more than one")
            keys = [()] * count
        sizes, firsts = r.uvarints(len(keys)), r.uvarints(len(keys))
        if 0 in sizes:
            raise InputError(f"bag {i} has an empty group")
        gaps = r.uvarints(sum(sizes) - len(sizes))
        if 0 in gaps:
            raise InputError("index file values are not strictly increasing")
        groups: dict[tuple[int, ...], list[int]] = {}
        start = 0
        for key, size, first in zip(keys, sizes, firsts):
            stop = start + size - 1  # one candidate is [first]: list() keeps spare slots
            groups[key] = list(accumulate(gaps[start:stop], initial=first)) if size > 1 else [first]
            start = stop
        var_type = var_types[decomp.bags[i][-1]]
        pool = dictionary.pool_codes(var_type)
        if groups and (min(firsts) not in pool or max(map(itemgetter(-1), groups.values())) not in pool):
            raise InputError(f"bag {i} candidate code outside the {var_type} pool")
        return groups

    ix = derive_index(decomp, take, dictionary, var_types, {})
    if not r.at_end():
        raise InputError("trailing bytes after index payload")
    return ix
