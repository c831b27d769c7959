"""Relations on disk and in memory: loading, encoding, projection, semijoin.

Relations are sets of fixed-arity tuples.  Values are dictionary-encoded
into integer codes before anything else sees them; encoding is
order-preserving per value type (numeric order for ``int`` columns, bytewise
for ``string``), so comparing code tuples lexicographically is the same as
comparing the raw tuples.  There is one pool per type for the whole
database, and the pools occupy disjoint code ranges, so a variable can join
columns of different relations safely and values of different types never
collide.

The on-disk format is a JSON manifest naming CSV files::

    {"relations": {"R1": {"file": "r1.csv", "types": ["int", "string"]}}}

CSV files carry no header and follow RFC 4180 quoting.  Duplicate rows are
dropped silently (relations are sets).  A database is immutable once built;
sorted views of a relation are memoized lazily, with no lock: the engine is
single-threaded.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError

TYPE_INT = "int"
TYPE_STRING = "string"
_TYPE_ALIASES = {"int": TYPE_INT, "integer": TYPE_INT, "string": TYPE_STRING, "str": TYPE_STRING}


def normalize_type(name: str) -> str:
    try:
        return _TYPE_ALIASES[name]
    except KeyError:
        raise InputError(f"unknown column type {name!r}") from None


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 text file's contents; InputError naming ``what`` when unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{what} {path} is not valid UTF-8") from None


def _parse_value(raw: str, type_name: str):
    if type_name == TYPE_INT:
        try:
            return int(raw)
        except ValueError:
            raise InputError(f"cannot parse {raw!r} as int") from None
    return raw


class ValueDictionary:
    """Order-preserving value <-> code mapping, one pool per type.

    Codes are assigned after all values are known: each pool is sorted, and
    pools are laid out one after the other (ints first, then strings), so
    within a pool ``encode`` is strictly monotone.
    """

    def __init__(self, pools: dict[str, list]):
        self._codes: dict[tuple[str, object], int] = {}
        self._values: list[tuple[str, object]] = []
        self.pool_values: dict[str, list] = {}
        self._pool_codes: dict[str, range] = {}
        for type_name in sorted(pools):
            ordered = sorted(set(pools[type_name]))
            self.pool_values[type_name] = ordered
            start = len(self._values)
            for v in ordered:
                self._codes[(type_name, v)] = len(self._values)
                self._values.append((type_name, v))
            self._pool_codes[type_name] = range(start, len(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, type_name: str, value) -> int:
        try:
            return self._codes[(type_name, value)]
        except KeyError:
            raise KeyError(f"value {value!r} ({type_name}) not in dictionary") from None

    def try_encode(self, type_name: str, value) -> int | None:
        return self._codes.get((type_name, value))

    def decode(self, code: int):
        return self._values[code][1]

    def pool_codes(self, type_name: str) -> range:
        """The codes of one type's values; empty when the type has no values."""
        return self._pool_codes.get(type_name, range(0))


class Relation:
    """A deduplicated, sorted set of code tuples of fixed arity."""

    def __init__(self, arity: int, rows: Iterable[tuple[int, ...]]):
        self.arity = arity
        self.rows: tuple[tuple[int, ...], ...] = tuple(sorted(set(rows)))
        for row in self.rows:
            if len(row) != arity:
                raise InputError(f"row of width {len(row)} in relation of arity {arity}")
        self._views: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self._row_set: frozenset[tuple[int, ...]] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def row_set(self) -> frozenset[tuple[int, ...]]:
        if self._row_set is None:
            self._row_set = frozenset(self.rows)
        return self._row_set

    def sorted_view(self, perm: Sequence[int]) -> list[tuple[int, ...]]:
        """Rows with columns reordered by ``perm``, sorted; memoized."""
        key = tuple(perm)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = sorted(tuple(row[p] for p in key) for row in self.rows)
        return view


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


def build_database(raw: dict[str, tuple[Sequence[str], Iterable[tuple]]]) -> Database:
    """Build a database from ``{symbol: (types, raw rows)}`` already in memory."""
    parsed: dict[str, tuple[tuple[str, ...], list[tuple]]] = {}
    pools: dict[str, list] = {}
    for symbol, (types, rows) in raw.items():
        types = tuple(normalize_type(t) for t in types)
        rows = [tuple(row) for row in rows]
        for row in rows:
            if len(row) != len(types):
                raise InputError(
                    f"relation {symbol}: row of width {len(row)}, expected {len(types)}"
                )
            for t, v in zip(types, row):
                if t == TYPE_INT and not isinstance(v, int):
                    raise InputError(f"relation {symbol}: {v!r} is not an int")
                if t == TYPE_STRING and not isinstance(v, str):
                    raise InputError(f"relation {symbol}: {v!r} is not a string")
                pools.setdefault(t, []).append(v)
        parsed[symbol] = (types, rows)
    dictionary = ValueDictionary(pools)
    relations = {}
    column_types = {}
    for symbol, (types, rows) in parsed.items():
        encoded = [tuple(dictionary.encode(t, v) for t, v in zip(types, row)) for row in rows]
        relations[symbol] = Relation(len(types), encoded)
        column_types[symbol] = types
    return Database(relations, dictionary, column_types)


def load(manifest_path: str | Path) -> Database:
    """Load a database from a JSON manifest and its CSV files."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(read_text(manifest_path, "manifest"))
    except json.JSONDecodeError as exc:
        raise InputError(f"bad manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("relations"), dict):
        raise InputError(f"manifest {manifest_path} lacks a 'relations' object")
    base = manifest_path.parent
    raw: dict[str, tuple[Sequence[str], list[tuple]]] = {}
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
        path = base / file_name
        rows: list[tuple] = []
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                for lineno, record in enumerate(csv.reader(fh), start=1):
                    if not record:
                        continue
                    if types is None:  # undeclared columns default to strings
                        types = [TYPE_STRING] * len(record)
                    if len(record) != len(types):
                        raise InputError(
                            f"{path}:{lineno}: expected {len(types)} fields, got {len(record)}"
                        )
                    rows.append(tuple(_parse_value(f, t) for f, t in zip(record, types)))
        except OSError as exc:
            raise InputError(f"cannot read relation file {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise InputError(f"relation file {path} is not valid UTF-8") from None
        if types is None:
            raise InputError(
                f"relation {symbol}: cannot infer arity of an empty file; declare 'types'"
            )
        raw[symbol] = (types, rows)
    return build_database(raw)


def project(r: Relation, attrs: Sequence[int]) -> Relation:
    """Projection onto the given column indices, deduplicated."""
    for a in attrs:
        if not 0 <= a < r.arity:
            raise InputError(f"column {a} out of range for arity {r.arity}")
    return Relation(len(attrs), (tuple(row[a] for a in attrs) for row in r.rows))


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
