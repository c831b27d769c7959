"""The direct-access index: preprocessing once, then answers on demand.

Build phase, driven by the order-induced decomposition, whose bag forest
(bags in order with their own variable last, child links, roots) comes from
``decompose`` alone; the index copies it for the walks.

1. each bag's rows, from the last bag to the first.  By running
   intersection, a bag inside a later bag is the whole interface of a child
   with one more variable, so its rows are that child's keys, sorted,
   distinct and already filtered: no relation or projection of its own.
   Any other bag takes one view per atom that lies inside it or meets it in
   a positive edge of its optimal fractional edge cover (projected unless
   in bag order).  A view is a relation, one list of codes per column, and
   is read a column at a time.  One view is the whole bag, the cheap rho* = 1
   case; two or more go to the generic join as a subquery whose output lists
   the variables in the most views first.  The join binds them in that order
   and returns its rows sorted in it, as a plain list.  An extra atom never
   raises the join's AGM bound, and the bag enforces every atom inside it,
   as does every bag read off its keys;
2. each bag's rows become a map from interface (all columns except the
   bag's own variable) to sorted candidates: a single view's heads are
   counted and each run sliced from its last column, with no row tuple
   (``_by_head_columns``); a child's keys, already tuples, split into runs
   (``_by_head``); the join's rows go as they come into one dict pass
   (``_by_head_at``) that sorts only the heads, since among rows that share
   a head the join order reduces to the bag's own variable;
3. the full reducer runs on these maps.  Its leaves-up half is an
   existence filter (``_in_child``): last bag first, a candidate with no
   group in some child bag is dropped, and so is a group left empty.  A bag
   read off a child's keys skips the filter against that child alone.  Its
   roots-down half, then the count, are one function that load runs too,
   ``derive_index``: it lists each child's keys from its parent's groups
   (``reached``), takes only the groups they name, and notes where each
   parent group's child groups sit; leaves up, it then gives each candidate
   the product of its children's group totals, read by those positions,
   each group prefix sums of its counts, and each bag its rows, and returns
   the index.  Every candidate left extends to an answer.

An access then walks the variables in order.  At each variable the pending
groups (one per bag whose interface is fully assigned but whose variable is
not) partition the remaining answers into a product; choosing the value
block containing the residual index is one binary search over the group's
prefix sums, scaled by the product of the other pending group totals.  The
walk holds each bag's group by its position, roots at 0, and no interface
key: the chosen candidate's index, or its place in a shared head's union,
read from the span ``derive_index`` kept, gives each child's position.
``prefix_range`` runs the same walk with the values given, stopped after the
first w variables: the contiguous block of answers that share a w-value
prefix.  Rank is that walk over every variable and returns the block's
start; membership asks whether the block is non-empty.  Built and loaded
indexes answer both the same way, from the groups and spans alone.
Counts are arbitrary-precision throughout: answer counts reach |D|^(number
of variables) and would overflow any fixed width.

Indices are 0-based everywhere.
"""

from __future__ import annotations

import random
import re
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby, repeat
from math import floor, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import storage
from .decomposition import Decomposition, decompose
from .errors import InputError, NotAnAnswerError, OutOfBoundsError
from .query import JoinQuery, VariableOrder
from .storage import Database
from .wcoj import SubQuery, _collapse_repeats, generic_join

Groups = dict[tuple[int, ...], list[int]]  # interface key -> sorted candidates, keys in order
Span = int | tuple[int, list[int]]  # where a parent group's child groups sit: see derive_index


@dataclass
class GroupTable:
    """Per-interface sorted candidates with inclusive prefix sums of weights.

    ``groups`` holds its keys in increasing order, the order in which
    ``derive_index`` lists them and ``index_io.save_index`` writes them.  No
    list in it is changed once counted, so a leaf bag's groups of one size
    share one prefix list.
    """

    groups: dict[tuple[int, ...], tuple[list[int], list[int]]]


@dataclass
class AccessIndex:
    """Everything needed to serve access calls; immutable once built."""

    decomp: Decomposition
    dictionary: storage.ValueDictionary
    var_types: dict[str, str]
    tables: tuple[GroupTable, ...]
    total_count: int
    spans: tuple[list[Span] | None, ...]  # per child bag, one span per parent group; None at a root
    stats: dict = field(default_factory=dict)

    # Copied from decomp in __post_init__.  The walks read _walk: per bag, its
    # (candidates, prefix) groups as a list in key order and its children's spans.
    query: JoinQuery = field(init=False)
    order: VariableOrder = field(init=False)
    bags: tuple[tuple[str, ...], ...] = field(init=False)
    links: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] = field(init=False)
    roots: tuple[int, ...] = field(init=False)
    head_cols: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        d = self.decomp
        self.query, self.order = d.query, d.order
        self.bags, self.links, self.roots = d.bags, d.links, d.roots
        self.head_cols = tuple(self.order.position(v) for v in self.query.variables)
        self._walk = tuple(
            (list(table.groups.values()), tuple((c, self.spans[c]) for c, _ in links))
            for table, links in zip(self.tables, self.links)
        )

    # ------------------------------------------------------------------ #
    # counting / access / rank

    def count(self) -> int:
        return self.total_count

    def access_codes(self, j: int) -> tuple[int, ...]:
        """The j-th answer as a code tuple in order positions."""
        if not isinstance(j, int):
            raise InputError("answer index must be an integer")
        if j < 0 or j >= self.total_count:
            raise OutOfBoundsError(f"index {j} out of bounds for {self.total_count} answers")
        r = j
        live = self.total_count
        n = len(self.bags)
        at, assignment = [0] * n, [0] * n  # at: each bag's group position, set by its parent; roots at 0
        for i, (groups, kids) in enumerate(self._walk):
            g = at[i]
            values, prefix = groups[g]
            block = live // prefix[-1]
            idx = bisect_right(prefix, r // block)
            below = prefix[idx - 1] if idx else 0
            r -= block * below
            value = assignment[i] = values[idx]
            live = block * (prefix[idx] - below)
            for c, spans in kids:
                span = spans[g]
                at[c] = span + idx if type(span) is int else span[0] + bisect_left(span[1], value)
        return tuple(assignment)

    def access(self, j: int) -> tuple:
        """The j-th answer (0-based) in lexicographic order, head columns."""
        codes = self.access_codes(j)
        decode = self.dictionary.decode
        return tuple(decode(codes[c]) for c in self.head_cols)

    def rank_codes(self, codes: Sequence[int]) -> int:
        """Position of an encoded answer (order positions); inverse of access_codes."""
        if value_count(codes) != len(self.bags):
            raise InputError(f"expected {len(self.bags)} values, got {len(codes)}")
        start, stop = self.prefix_range(codes)
        if start == stop:
            raise NotAnAnswerError("no answer has these values")
        return start

    def prefix_range(self, codes: Sequence[int]) -> tuple[int, int]:
        """Index range [start, stop) of the answers whose first order positions equal codes.

        The walk that rank_codes and test_membership run over every variable,
        here stopped after len(codes) of them.  When no answer has the prefix,
        the range is empty and sits at the prefix's insertion point.
        """
        n = len(self.bags)
        if value_count(codes) > n:
            raise InputError(f"expected at most {n} values, got {len(codes)}")
        r = 0
        live = self.total_count
        if live == 0:  # the walk would compare no code, so check their type here
            if not all(isinstance(code, int) for code in codes):
                raise InputError("answer codes must be integers")
            return (0, 0)
        at = [0] * n
        for i, (code, (groups, kids)) in enumerate(zip(codes, self._walk)):
            if not isinstance(code, int):
                raise InputError("answer codes must be integers")
            g = at[i]
            values, prefix = groups[g]
            idx = bisect_left(values, code)
            block = live // prefix[-1]
            below = prefix[idx - 1] if idx else 0
            r += block * below
            if idx == len(values) or values[idx] != code:
                return (r, r)
            live = block * (prefix[idx] - below)
            for c, spans in kids:
                span = spans[g]
                at[c] = span + idx if type(span) is int else span[0] + bisect_left(span[1], code)
        return (r, r + live)

    def _encode_head_tuple(self, t: Sequence) -> list[int] | None:
        if value_count(t) != len(self.order.variables):
            raise InputError(f"expected {len(self.order.variables)} values, got {len(t)}")
        codes = [0] * len(t)
        for value, v, c in zip(t, self.query.variables, self.head_cols):
            code = self.dictionary.try_encode(self.var_types[v], value)
            if code is None:
                return None
            codes[c] = code
        return codes

    def rank(self, t: Sequence) -> int:
        """Index j with access(j) == t; NotAnAnswerError when t is no answer."""
        codes = self._encode_head_tuple(t)
        if codes is None:
            raise NotAnAnswerError("tuple contains a value absent from the database")
        return self.rank_codes(codes)

    # ------------------------------------------------------------------ #
    # order-sensitive conveniences built on access

    def enumerate_range(self, start: int, stop: int) -> Iterator[tuple]:
        """Stream access(j) for j in [start, stop); the bounds are checked at the call."""
        if not (isinstance(start, int) and isinstance(stop, int)):
            raise InputError("range bounds must be integers")
        if not (0 <= start <= stop <= self.total_count):
            raise InputError(
                f"range [{start}, {stop}) out of bounds for {self.total_count} answers"
            )
        return map(self.access, range(start, stop))

    def sample_without_replacement(self, n: int, seed) -> list[tuple]:
        """n distinct answers, uniform over n-subsets (Floyd), sorted by index."""
        if not isinstance(n, int):
            raise InputError("sample size must be an integer")
        if n < 0 or n > self.total_count:
            raise InputError(f"cannot sample {n} of {self.total_count} answers")
        try:
            rng = random.Random(seed)
        except TypeError:
            raise InputError(f"cannot seed a sample with {type(seed).__name__} {seed!r}") from None
        chosen: set[int] = set()
        for j in range(self.total_count - n, self.total_count):
            t = rng.randrange(j + 1)
            chosen.add(t if t not in chosen else j)
        return [self.access(j) for j in sorted(chosen)]

    def quantile(self, q) -> tuple:
        """The answer at index floor(q * (count - 1)) for rational q in [0, 1], or text Fraction parses."""
        # Fraction builds 10**exponent: over 10 s for 1e10000000, growing faster than linearly.
        exponent = isinstance(q, str) and re.search(r"e([-+]?[\d_]+)\s*\Z", q, re.I)
        try:
            if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent[1])):  # 0: no limit
                raise ValueError("exponent beyond the int digit limit")
            q = Fraction(q)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise InputError(f"cannot parse quantile {q!r}") from None
        if q < 0 or q > 1:
            raise InputError("quantile argument must be in [0, 1]")
        if self.total_count == 0:
            raise OutOfBoundsError("quantile of an empty result")
        return self.access(floor(q * (self.total_count - 1)))

    def test_membership(self, t: Sequence) -> bool:
        """True iff t is an answer: its values are encoded and their full range is not empty."""
        codes = self._encode_head_tuple(t)
        if codes is None:
            return False
        start, stop = self.prefix_range(codes)
        return start < stop


# ---------------------------------------------------------------------- #
# build; load shares derive_index and reached


def derive_index(
    decomp: Decomposition,
    take: Callable[[int, list[tuple[int, ...]] | None], Groups],
    dictionary: storage.ValueDictionary,
    var_types: dict[str, str],
    stats: dict,
) -> AccessIndex:
    """The full reducer's roots-down half, then the count: the index over the groups ``take`` gives.

    Parents first, ``take(i, keys)`` returns bag i's groups for ``keys``, the
    child keys that ``reached`` names from its parent's groups, in key order
    (heads sorted, then candidates), or for ``None`` at a root, whose only key
    is ``()``.  Build takes them from its filtered maps, load from the file.
    As it lists a child's keys, it notes per parent group where its child
    groups sit, its span: the start of the run of child groups, one per
    candidate, when that group alone names its head, or the start and sorted
    union of a head it shares.  Leaves up, each candidate then weighs the
    product of its children's group totals, read at those positions; nothing
    is dropped, so no position moves.  The index keeps the spans for its
    walks.  Its stats are ``stats`` and the bag rows.
    """
    n = len(decomp.bags)
    keys: list[list[tuple[int, ...]] | None] = [None] * n  # set parents first, released as taken
    spans: list[list[Span] | None] = [None] * n
    candidates: list[Groups | None] = []
    for i in range(n):
        groups, keys[i] = take(i, keys[i]), None
        for c, cols in decomp.links[i]:
            keys[c], spans[c] = [], [None] * len(groups)
            for head, (values, named_by) in sorted(reached(groups.items(), cols).items()):
                at = len(keys[c])
                keys[c] += map(head.__add__, zip(values))  # (*head, v) per candidate v
                span = at if len(named_by) == 1 else (at, values)
                for g in named_by:
                    spans[c][g] = span
        candidates.append(groups)

    tables: list[GroupTable | None] = [None] * n
    totals: list[list[int] | None] = [None] * n  # per bag, its group totals in key order
    rows = [0] * n
    for i in range(n - 1, -1, -1):
        bag, candidates[i] = candidates[i], None
        kids = [_weights_by_position(bag, spans[c], totals[c]) for c, _ in decomp.links[i]]
        sizes = [*map(len, bag.values())]
        if not kids:  # a leaf's candidates weigh 1: group totals are sizes, one prefix list per size
            ones: dict[int, list[int]] = {}
            groups = {
                key: (values, ones.get(k) or ones.setdefault(k, [*range(1, k + 1)]))
                for (key, values), k in zip(bag.items(), sizes)
            }
            totals[i] = sizes
        else:
            weighed = kids[0] if len(kids) == 1 else (list(map(prod, zip(*ws))) for ws in zip(*kids))
            groups, totals[i] = {}, []
            for (key, values), weights in zip(bag.items(), weighed):
                prefix = list(accumulate(weights))
                groups[key] = (values, prefix)
                totals[i].append(prefix[-1])
        tables[i], rows[i] = GroupTable(groups), sum(sizes)
        for c, _ in decomp.links[i]:
            totals[c] = None
    total = prod(sum(totals[i]) for i in decomp.roots)  # a root has one group or none
    stats = {**stats, "bag_rows": rows}
    return AccessIndex(decomp, dictionary, var_types, tuple(tables), total, tuple(spans), stats)


def _weights_by_position(parent: Groups, spans: list[Span], totals: list[int]) -> Iterator[list[int]]:
    """Per parent group, its candidates' child totals: a run from a start, or a shared head's totals by value."""
    by_start: dict[int, Callable[[int], int]] = {}  # each shared head's totals by value, made once
    for span, values in zip(spans, parent.values()):
        if type(span) is int:
            yield totals[span : span + len(values)]
            continue
        at, union = span
        weight = by_start.get(at)
        if weight is None:
            weight = by_start[at] = dict(zip(union, totals[at : at + len(union)])).__getitem__
        yield list(map(weight, values))


def reached(
    groups: Iterable[tuple[tuple[int, ...], list[int]]], cols: Sequence[int]
) -> dict[tuple[int, ...], tuple[list[int], list[int]]]:
    """The full reducer's roots-down rule: the child keys that a parent's groups name.

    ``groups`` are the parent's (key, sorted candidates) pairs and ``cols`` a
    link's columns; child key (head, v) is reached when some parent key has
    ``head`` at ``cols`` and ``v`` among its candidates.  Returns, per head in
    first-seen order, the sorted distinct candidates and the indices of the
    groups that name it; a head named by one group gets that group's list
    itself.  ``derive_index`` lists every child key by it.
    """
    heads: dict[tuple[int, ...], list[int]] = {}
    lists = []
    for g, (key, values) in enumerate(groups):
        heads.setdefault(tuple(map(key.__getitem__, cols)), []).append(g)
        lists.append(values)
    return {
        head: (lists[by[0]] if len(by) == 1 else sorted(set().union(*map(lists.__getitem__, by))), by)
        for head, by in heads.items()
    }


def value_count(values: Sequence) -> int:
    """len(values), or InputError for an argument with no length."""
    try:
        return len(values)
    except TypeError:
        raise InputError(f"expected a sequence of values, got {type(values).__name__}") from None


def _by_head(rows: Iterable[tuple[int, ...]]) -> Groups:
    """Sorted distinct row tuples, a child's keys, as a map from all columns but the last to their
    sorted last values."""
    return {head: [*map(itemgetter(-1), run)] for head, run in groupby(rows, itemgetter(slice(None, -1)))}


def _by_head_columns(columns: list[list[int]]) -> Groups:
    """``_by_head`` of a relation's columns: each head's run is cut from the last column.

    The heads are counted in row order, so each run starts where the counts
    before it end; a one-column head is counted by its value and made a
    1-tuple once per group.
    """
    *head, last = columns  # with no head column, every row falls under ()
    runs = Counter(head[0] if len(head) == 1 else zip(*head) if head else repeat((), len(last)))
    ends = list(accumulate(runs.values()))
    keys = zip(runs) if len(head) == 1 else runs
    return {key: last[start:end] for key, start, end in zip(keys, [0, *ends], ends)}


def _by_head_at(rows: Sequence[tuple[int, ...]], cols: Sequence[int]) -> Groups:
    """Sorted distinct rows as a map from their values at ``cols[:-1]`` to their values at ``cols[-1]``.

    Among rows that share a head only the ``cols[-1]`` value varies, so it
    arrives increasing; only the heads are sorted.  With one column in
    ``cols``, every row falls under the empty head.
    """
    *head, own = cols
    keys = zip(*(map(itemgetter(c), rows) for c in head)) if head else repeat((), len(rows))
    groups: Groups = defaultdict(list)
    for key, value in zip(keys, map(itemgetter(own), rows)):
        groups[key].append(value)
    return {key: groups[key] for key in sorted(groups)}


def _in_child(groups: Groups, cols: Sequence[int], child: Groups) -> Groups:
    """The full reducer's leaves-up filter: the candidates with a group in ``child``, empty groups dropped.

    A group whose candidates are all of its head's values in ``child`` keeps
    its list; any other is filtered through a set of those values, one per head.
    """
    runs = _by_head(child)
    kept = {}
    for key, values in groups.items():
        head = tuple(map(key.__getitem__, cols))
        run = runs.get(head, ())
        if values != run:
            if type(run) is not set:  # made once per head
                run = runs[head] = set(run)
            values = list(filter(run.__contains__, values))
        if values:
            kept[key] = values
    return kept


def _variable_types(q: JoinQuery, db: Database) -> dict[str, str]:
    types: dict[str, str] = {}
    for sym, vs in q.atoms:
        rel = db.relation(sym)
        if rel.arity != len(vs):
            raise InputError(f"atom {sym}({', '.join(vs)}) vs relation arity {rel.arity}")
        declared = db.column_types[sym]
        for col, v in enumerate(vs):
            t = declared[col]
            if types.setdefault(v, t) != t:
                raise InputError(f"variable {v} spans columns of types {types[v]} and {t}")
    return types


@storage.gc_paused
def build_index(q: JoinQuery, order: VariableOrder, db: Database) -> AccessIndex:
    """Preprocess the database for direct access under ``order`` with cyclic GC paused."""
    order.check_against(q)
    var_types = _variable_types(q, db)
    decomp: Decomposition = decompose(q, order)
    bags = decomp.bags
    n = len(bags)
    multiatom_joins = 0

    # Views over distinct variables: rows where repeated-variable columns agree.
    atoms = [_collapse_repeats(db.relation(sym), vs) for sym, vs in q.atoms]

    # Last to first, as a bag's children come later.  A bag inside a later bag is the
    # interface of a child with one more variable, so its rows are that child's keys.
    candidates: list[Groups | None] = [None] * n
    for i in range(n - 1, -1, -1):
        keep = bags[i]
        covering = next((c for c, _ in decomp.links[i] if len(bags[c]) == len(keep) + 1), None)
        if covering is not None:
            groups = _by_head(candidates[covering])
        else:
            # One view per atom inside the bag or meeting it in a positive cover edge:
            # the join enforces every atom inside, and no extra atom raises its bound.
            bag = frozenset(keep)
            edges = decomp.bag_cover[i].positive_edges()
            views = []
            for rel, vs in atoms:
                edge = bag.intersection(vs)
                if len(edge) == len(vs) or edge in edges:
                    edge_keep = tuple(sorted(edge, key=order.position))
                    if vs != edge_keep:
                        rel = storage.project(rel, [vs.index(v) for v in edge_keep])
                    views.append((rel, edge_keep))
            if len(views) == 1:  # a single view is the whole bag
                groups = _by_head_columns(views[0][0].columns)
            else:  # join the variables in most views first, ties in order; rows come in that order
                by_views = tuple(sorted(keep, key=lambda v: -sum(v in vs for _, vs in views)))
                rows = generic_join(SubQuery(by_views, tuple(views)))
                groups = _by_head_at(rows, [*map(by_views.index, keep)])
                multiatom_joins += 1
        for c, cols in decomp.links[i]:  # the covering child names every key already
            if c != covering:
                groups = _in_child(groups, cols, candidates[c])
        candidates[i] = groups

    def take(i: int, keys: list[tuple[int, ...]] | None) -> Groups:
        groups, candidates[i] = candidates[i], None  # released as taken
        return groups if keys is None or len(keys) == len(groups) else {key: groups[key] for key in keys}

    stats = {"multiatom_joins": multiatom_joins, "iota": str(decomp.iota)}
    return derive_index(decomp, take, db.dictionary, var_types, stats)
