"""Relations on disk and in memory: loading, encoding, projection, semijoin.

Relations are sets of fixed-arity tuples.  Values are dictionary-encoded
into integer codes before anything else sees them; encoding is
order-preserving per value type (numeric order for ``int`` columns, bytewise
for ``string``), so comparing code tuples lexicographically is the same as
comparing the raw tuples.  There is one pool per type for the whole
database, and the pools occupy disjoint code ranges, so a variable can join
columns of different relations safely and values of different types never
collide.

A database is built a column at a time: each column is parsed or type-checked
once, pooled into one set per type and encoded through one dict per type.

The on-disk format is a JSON manifest naming CSV files::

    {"relations": {"R1": {"file": "r1.csv", "types": ["int", "string"]}}}

CSV files carry no header and follow RFC 4180 quoting; a leading UTF-8 BOM in
any text file is ignored.  Duplicate rows are dropped silently, with no set:
strictly increasing rows are kept, others sorted once with adjacent duplicates
dropped, so a leading-prefix projection of sorted rows is never re-sorted.  A
database is immutable once built.
"""

from __future__ import annotations

import csv
import functools
import gc
import json
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter, lt
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError, InternalError

TYPE_INT = "int"
TYPE_STRING = "string"
_TYPE_ALIASES = {"int": TYPE_INT, "integer": TYPE_INT, "string": TYPE_STRING, "str": TYPE_STRING}


def gc_paused(fn):
    """``fn`` with cyclic GC off for each call; the caller's state is restored on any exit.

    Set-up and load (``load``, ``access.build_index``, ``index_io.load_index``)
    allocate hundreds of thousands of tuples and lists that hold only ints and
    form no cycle, yet they set off GC passes that find nothing to collect.  A
    call made with GC already off, a nested one included, leaves it off.  What
    the call allocated is scanned once, by the first collection after it.

    The pause applies to the whole process, and it is not coordinated between
    threads: a thread's call that ends turns GC back on while another thread's
    paused call may still run.  ``build_database`` is not paused: its rows are
    already the caller's objects, and its main caller, the reduction, makes
    dozens of small databases per graph, where GC off for the whole reduction
    gained nothing over pausing its builds alone.  Serving is not paused: one
    access or rank makes a handful of objects, too few to set off a pass.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def normalize_type(name: str) -> str:
    try:
        return _TYPE_ALIASES[name]
    except KeyError:
        raise InputError(f"unknown column type {name!r}") from None


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 text file's contents less a leading BOM; InputError naming ``what`` if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{what} {path} is not valid UTF-8") from None


class ValueDictionary:
    """Order-preserving value <-> code mapping, one pool per type.

    Codes are assigned after all values are known: each pool is sorted, and
    pools are laid out one after the other (ints first, then strings), so
    within a pool ``encode`` is strictly monotone.  Each type has one ``value -> code`` dict.
    """

    def __init__(self, pools: dict[str, Iterable]):
        self._codes: dict[str, dict[object, int]] = {}
        self._values: list = []
        self.pool_values: dict[str, list] = {}
        self._pool_codes: dict[str, range] = {}
        for type_name in sorted(pools):
            ordered = sorted(set(pools[type_name]))
            codes = range(len(self._values), len(self._values) + len(ordered))
            self.pool_values[type_name] = ordered
            self._codes[type_name] = dict(zip(ordered, codes))
            self._values += ordered
            self._pool_codes[type_name] = codes

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, type_name: str, value) -> int:
        try:
            return self._codes[type_name][value]
        except KeyError:
            raise KeyError(f"value {value!r} ({type_name}) not in dictionary") from None

    def try_encode(self, type_name: str, value) -> int | None:
        return self._codes.get(type_name, {}).get(value)

    def decode(self, code: int):
        return self._values[code]

    def pool_codes(self, type_name: str) -> range:
        """The codes of one type's values; empty when the type has no values."""
        return self._pool_codes.get(type_name, range(0))


class Relation:
    """Deduplicated, sorted code tuples of fixed arity; strictly increasing input is kept as is,
    any other is sorted once and adjacent duplicates dropped, with no set."""

    def __init__(self, arity: int, rows: Iterable[tuple[int, ...]]):
        self.arity = arity
        self.rows: tuple[tuple[int, ...], ...] = tuple(rows)
        if not all(map(lt, self.rows, islice(self.rows, 1, None))):
            self.rows = tuple(map(itemgetter(0), groupby(sorted(self.rows))))
        if set(map(len, self.rows)) - {arity}:
            width = next(len(row) for row in self.rows if len(row) != arity)
            raise InputError(f"row of width {width} in relation of arity {arity}")

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Database:
    """Immutable bundle of encoded relations plus the shared dictionary."""

    relations: dict[str, Relation]
    dictionary: ValueDictionary
    column_types: dict[str, tuple[str, ...]]
    size: int = field(init=False)

    def __post_init__(self):
        self.size = sum(len(r) for r in self.relations.values())

    def relation(self, symbol: str) -> Relation:
        try:
            return self.relations[symbol]
        except KeyError:
            raise InputError(f"relation {symbol!r} not bound in the database") from None


def _encode(columnar: dict[str, tuple[tuple[str, ...], list, int]]) -> Database:
    """Encode ``{symbol: (types, typed columns, row count)}``, pooling each type as one set."""
    pools: dict[str, set] = {}
    for types, columns, _ in columnar.values():
        for t, col in zip(types, columns):
            if col:  # a type with no values has no pool
                pools.setdefault(t, set()).update(col)
    dictionary = ValueDictionary(pools)
    relations = {}
    for symbol, (types, columns, height) in columnar.items():
        if types and height:
            rows = zip(*[map(dictionary._codes[t].__getitem__, c) for t, c in zip(types, columns)])
        else:  # no values to encode: no rows, or the nullary relation's ()
            rows = [()] * height
        relations[symbol] = Relation(len(types), rows)
    return Database(relations, dictionary, {s: c[0] for s, c in columnar.items()})


def build_database(raw: dict[str, tuple[Sequence[str], Iterable[tuple]]]) -> Database:
    """Build a database from ``{symbol: (types, raw rows)}`` already in memory."""
    columnar = {}
    for symbol, (types, rows) in raw.items():
        types = tuple(normalize_type(t) for t in types)
        rows = list(map(tuple, rows))
        if set(map(len, rows)) - {len(types)}:
            width = next(len(row) for row in rows if len(row) != len(types))
            raise InputError(f"relation {symbol}: row of width {width}, expected {len(types)}")
        columns = [list(map(itemgetter(k), rows)) for k in range(len(types))]
        for t, col in zip(types, columns):
            cls, what = (int, "an int") if t == TYPE_INT else (str, "a string")
            if not all(issubclass(c, cls) for c in set(map(type, col))):
                bad = next(v for v in col if not isinstance(v, cls))
                raise InputError(f"relation {symbol}: {bad!r} is not {what}")
        columnar[symbol] = (types, columns, len(rows))
    return _encode(columnar)


def _read_columns(symbol: str, path: Path, types: list[str] | None):
    """``(types, typed columns, row count)`` of one CSV file; undeclared types are strings."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            records = list(reader)
    except OSError as exc:
        raise InputError(f"cannot read relation file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"relation file {path} is not valid UTF-8") from None
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    rows = [r for r in records if r]  # an empty record is a blank line
    if types is None and not rows:
        raise InputError(f"relation {symbol}: cannot infer arity of an empty file; declare 'types'")
    types = tuple([TYPE_STRING] * len(rows[0]) if types is None else types)
    if set(map(len, rows)) - {len(types)}:
        _raise_bad_record(path, records, types)
    # One pass per column: zip(*rows) would make an iterator per row.
    columns = [list(map(itemgetter(k), rows)) for k in range(len(types))]
    try:
        columns = [list(map(int, c)) if t == TYPE_INT else c for t, c in zip(types, columns)]
    except ValueError:
        _raise_bad_record(path, records, types)
    return types, columns, len(rows)


def _raise_bad_record(path: Path, records: list[list[str]], types: tuple[str, ...]) -> None:
    """Name the first record, counting blank lines, of the wrong width or with a bad int."""
    for lineno, record in enumerate(records, start=1):
        if record and len(record) != len(types):
            raise InputError(f"{path}:{lineno}: expected {len(types)} fields, got {len(record)}")
        for f in (f for f, t in zip(record, types) if t == TYPE_INT):
            try:
                int(f)
            except ValueError:
                raise InputError(f"{path}:{lineno}: cannot parse {f!r} as int") from None
    raise InternalError(f"{path}: a column check failed on no record")


@gc_paused
def load(manifest_path: str | Path) -> Database:
    """Load a database from a JSON manifest and its CSV files with cyclic GC paused."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(read_text(manifest_path, "manifest"))
    except json.JSONDecodeError as exc:
        raise InputError(f"bad manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("relations"), dict):
        raise InputError(f"manifest {manifest_path} lacks a 'relations' object")
    columnar = {}
    for symbol, entry in manifest["relations"].items():
        try:
            file_name = entry["file"]
        except (KeyError, TypeError):
            raise InputError(f"manifest entry for {symbol} needs a 'file'") from None
        if not isinstance(file_name, str):
            raise InputError(f"manifest entry for {symbol}: 'file' must be a string")
        types = entry.get("types")
        if types is not None:
            if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
                raise InputError(f"manifest entry for {symbol}: 'types' must be a list of names")
            types = [normalize_type(t) for t in types]
        columnar[symbol] = _read_columns(symbol, manifest_path.parent / file_name, types)
    return _encode(columnar)


def project(r: Relation, attrs: Sequence[int]) -> Relation:
    """Projection onto the given column indices, deduplicated.  Adjacent duplicates are
    dropped first, so a leading prefix of sorted rows is kept as is; any other is sorted once."""
    for a in attrs:
        if not 0 <= a < r.arity:
            raise InputError(f"column {a} out of range for arity {r.arity}")
    if not attrs:
        return Relation(0, [()] if r.rows else [])
    rows = map(itemgetter(*attrs), r.rows)
    rows = zip(rows) if len(attrs) == 1 else rows  # one index gives values, not 1-tuples
    return Relation(len(attrs), map(itemgetter(0), groupby(rows)))


def semijoin(r: Relation, s: Relation, on: Sequence[tuple[int, int]]) -> Relation:
    """Rows of ``r`` with a partner in ``s`` agreeing on the given column pairs."""
    for rc, sc in on:
        if not 0 <= rc < r.arity:
            raise InputError(f"column {rc} out of range for arity {r.arity}")
        if not 0 <= sc < s.arity:
            raise InputError(f"column {sc} out of range for arity {s.arity}")
    r_cols = [rc for rc, _ in on]
    s_cols = [sc for _, sc in on]
    keys = {tuple(row[c] for c in s_cols) for row in s.rows}
    return Relation(r.arity, (row for row in r.rows if tuple(row[c] for c in r_cols) in keys))
