"""The direct-access index: preprocessing once, then answers on demand.

Build phase, driven by the order-induced decomposition:

1. one relation per bag, materialized with the generic join over the
   projections of the atoms that carry positive weight in the bag's optimal
   fractional cover (a single projection when one atom already covers the
   bag, which is exactly the cheap case);
2. each bag is semijoined with every atom whose scope it contains;
3. each bag's sorted rows become a map from interface (all columns except
   the bag's own variable) to sorted candidates, and the full reducer runs on
   these maps over the join forest: bottom up, a candidate stays when every
   child has its group; top down, a child group stays when some candidate of
   its parent reaches it.  Every surviving candidate extends to an answer;
4. a counting pass from the last bag backwards, shared with load
   (``count_groups``): each group's candidates get prefix sums of completion
   counts, where a candidate's completion count is the product of its
   children's group totals.  A saved index therefore holds candidates only.

An access then walks the variables in order.  At each variable the pending
groups (one per bag whose interface is fully assigned but whose variable is
not) partition the remaining answers into a product; choosing the value
block containing the residual index is one binary search over the group's
prefix sums, scaled by the product of the other pending group totals.
Rank runs the same walk with the values given; stopped after the first w
variables it yields ``prefix_range``, the contiguous block of answers that
share a w-value prefix.  Membership is a rank that succeeds, so built and
loaded indexes answer it the same way, from the bags alone.
Counts are arbitrary-precision throughout: answer counts reach |D|^(number
of variables) and would overflow any fixed width.

Indices are 0-based everywhere.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import floor, prod
from typing import Iterator, Sequence

from . import storage
from .decomposition import Decomposition, decompose
from .errors import InputError, InternalError, NotAnAnswerError, OutOfBoundsError
from .query import JoinQuery, VariableOrder
from .storage import Database
from .wcoj import SubQuery, _collapse_repeats, generic_join


@dataclass
class GroupTable:
    """Per-interface sorted candidates with inclusive prefix sums of weights."""

    groups: dict[tuple[int, ...], tuple[list[int], list[int]]]

    def total(self, key: tuple[int, ...]) -> int:
        entry = self.groups.get(key)
        return entry[1][-1] if entry else 0


@dataclass
class AccessIndex:
    """Everything needed to serve access calls; immutable once built."""

    query: JoinQuery
    order: VariableOrder
    dictionary: storage.ValueDictionary
    var_types: dict[str, str]
    bags: tuple[tuple[str, ...], ...]  # bag variables, order-sorted, own var last
    parent: dict[int, int | None]
    tables: tuple[GroupTable, ...]
    total_count: int
    stats: dict = field(default_factory=dict)

    # Derived navigation, filled in __post_init__.
    links: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] = ()
    roots: tuple[int, ...] = ()
    head_cols: tuple[int, ...] = ()

    def __post_init__(self):
        self.links = child_links(self.bags, self.parent)
        self.roots = tuple(i for i in range(len(self.bags)) if self.parent[i] is None)
        self.head_cols = tuple(self.order.position(v) for v in self.query.variables)

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
        keys: list[tuple[int, ...] | None] = [None] * n
        for root in self.roots:
            keys[root] = ()
        assignment = [0] * n
        for i in range(n):
            key = keys[i]
            values, prefix = self.tables[i].groups[key]
            block = live // prefix[-1]
            idx = bisect_right(prefix, r // block)
            below = prefix[idx - 1] if idx else 0
            r -= block * below
            value = assignment[i] = values[idx]
            live = block * (prefix[idx] - below)
            for c, cols in self.links[i]:
                keys[c] = (*map(key.__getitem__, cols), value)
        return tuple(assignment)

    def access(self, j: int) -> tuple:
        """The j-th answer (0-based) in lexicographic order, head columns."""
        codes = self.access_codes(j)
        decode = self.dictionary.decode
        return tuple(decode(codes[c]) for c in self.head_cols)

    def rank_codes(self, codes: Sequence[int]) -> int:
        """Position of an encoded answer (order positions); inverse of access_codes."""
        # Own loop: as prefix_range(codes)[0], rank_p99_us rose 31-43% in perfbench (2-core host).
        n = len(self.bags)
        if len(codes) != n:
            raise InputError(f"expected {n} values, got {len(codes)}")
        r = 0
        live = self.total_count
        if live == 0:
            raise NotAnAnswerError("query has no answers")
        keys: list[tuple[int, ...] | None] = [None] * n
        for root in self.roots:
            keys[root] = ()
        for i in range(n):
            key = keys[i]
            entry = self.tables[i].groups.get(key)
            if entry is None:
                raise NotAnAnswerError(f"no completion at variable {self.order.variables[i]}")
            values, prefix = entry
            idx = bisect_left(values, codes[i])
            if idx == len(values) or values[idx] != codes[i]:
                raise NotAnAnswerError(f"value at variable {self.order.variables[i]} not present")
            block = live // prefix[-1]
            below = prefix[idx - 1] if idx else 0
            r += block * below
            live = block * (prefix[idx] - below)
            for c, cols in self.links[i]:
                keys[c] = (*map(key.__getitem__, cols), codes[i])
        return r

    def prefix_range(self, codes: Sequence[int]) -> tuple[int, int]:
        """Index range [start, stop) of the answers whose first order positions equal codes.

        The rank walk over the first len(codes) variables.  When no answer has
        the prefix, the range is empty and sits at the prefix's insertion point.
        """
        n = len(self.bags)
        if len(codes) > n:
            raise InputError(f"expected at most {n} values, got {len(codes)}")
        r = 0
        live = self.total_count
        if live == 0:
            return (0, 0)
        keys: list[tuple[int, ...] | None] = [None] * n
        for root in self.roots:
            keys[root] = ()
        for i, code in enumerate(codes):
            key = keys[i]
            values, prefix = self.tables[i].groups[key]
            idx = bisect_left(values, code)
            block = live // prefix[-1]
            below = prefix[idx - 1] if idx else 0
            r += block * below
            if idx == len(values) or values[idx] != code:
                return (r, r)
            live = block * (prefix[idx] - below)
            for c, cols in self.links[i]:
                keys[c] = (*map(key.__getitem__, cols), code)
        return (r, r + live)

    def _encode_head_tuple(self, t: Sequence) -> list[int] | None:
        if len(t) != len(self.order.variables):
            raise InputError(f"expected {len(self.order.variables)} values, got {len(t)}")
        codes = [0] * len(t)
        for value, v in zip(t, self.query.variables):
            code = self.dictionary.try_encode(self.var_types[v], value)
            if code is None:
                return None
            codes[self.order.position(v)] = code
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
        """Stream access(j) for j in [start, stop)."""
        if not (0 <= start <= stop <= self.total_count):
            raise InputError(
                f"range [{start}, {stop}) out of bounds for {self.total_count} answers"
            )
        for j in range(start, stop):
            yield self.access(j)

    def sample_without_replacement(self, n: int, seed) -> list[tuple]:
        """n distinct answers, uniform over n-subsets (Floyd), sorted by index."""
        if n < 0 or n > self.total_count:
            raise InputError(f"cannot sample {n} of {self.total_count} answers")
        rng = random.Random(seed)
        chosen: set[int] = set()
        for j in range(self.total_count - n, self.total_count):
            t = rng.randrange(j + 1)
            chosen.add(t if t not in chosen else j)
        return [self.access(j) for j in sorted(chosen)]

    def quantile(self, q) -> tuple:
        """The answer at index floor(q * (count - 1)) for rational q in [0, 1]."""
        q = Fraction(q)
        if q < 0 or q > 1:
            raise InputError("quantile argument must be in [0, 1]")
        if self.total_count == 0:
            raise OutOfBoundsError("quantile of an empty result")
        return self.access(floor(q * (self.total_count - 1)))

    def test_membership(self, t: Sequence) -> bool:
        """True iff t is an answer: its values are encoded and rank finds them."""
        codes = self._encode_head_tuple(t)
        if codes is None:
            return False
        try:
            self.rank_codes(codes)
        except NotAnAnswerError:
            return False
        return True


# ---------------------------------------------------------------------- #
# build; ordered_bags and count_groups are shared with load


def ordered_bags(
    bags: Sequence[frozenset[str]], order: VariableOrder
) -> tuple[tuple[str, ...], ...]:
    """Each bag's variables in order; its own variable, the latest, comes last."""
    return tuple(tuple(sorted(bag, key=order.position)) for bag in bags)


def child_links(
    bags: Sequence[tuple[str, ...]], parent: dict[int, int | None]
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Per bag, its children in order, each with the key columns it takes.

    A child hangs under the bag of its latest interface variable, so its key
    is part of the parent's key followed by the parent's candidate:
    ``tuple(key[k] for k in cols) + (value,)``.
    """
    links: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in bags]
    for c, bag in enumerate(bags):
        p = parent[c]
        if p is not None:
            links[p].append((c, tuple(bags[p].index(v) for v in bag[:-2])))
    return tuple(map(tuple, links))


def count_groups(
    bags: Sequence[tuple[str, ...]],
    parent: dict[int, int | None],
    candidates: Sequence[dict[tuple[int, ...], list[int]]],
) -> tuple[tuple[GroupTable, ...], int]:
    """Group tables with prefix sums of completion counts, and the answer count.

    ``candidates[i]`` maps each interface key of bag i to its sorted, non-empty
    candidates.  A candidate with no group in some child bag is an InternalError.
    """
    n = len(bags)
    links = child_links(bags, parent)
    tables: list[GroupTable | None] = [None] * n
    for i in range(n - 1, -1, -1):
        kids = [(c, tables[c].groups, cols) for c, cols in links[i]]
        groups: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        for key, values in candidates[i].items():
            heads = [(c, child, tuple(key[k] for k in cols)) for c, child, cols in kids]
            prefix: list[int] = []
            running = 0
            for value in values:
                w = 1
                for c, child, head in heads:
                    entry = child.get(head + (value,))
                    if entry is None:
                        raise InternalError(f"bag {i}: a candidate has no group in child bag {c}")
                    w *= entry[1][-1]
                running += w
                prefix.append(running)
            groups[key] = (values, prefix)
        tables[i] = GroupTable(groups)
    total = prod(tables[i].total(()) for i in range(n) if parent[i] is None)
    return tuple(tables), total


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


def build_index(q: JoinQuery, order: VariableOrder, db: Database) -> AccessIndex:
    """Preprocess the database for direct access under ``order``."""
    order.check_against(q)
    var_types = _variable_types(q, db)
    decomp: Decomposition = decompose(q, order)
    n = len(order.variables)
    bag_vars = ordered_bags(decomp.bags, order)
    multiatom_joins = 0

    # Views over distinct variables: rows where repeated-variable columns agree.
    atoms = [_collapse_repeats(db.relation(sym), vs) for sym, vs in q.atoms]

    candidates: list[dict[tuple[int, ...], list[int]]] = []
    for i in range(n):
        bag = decomp.bags[i]
        keep = bag_vars[i]
        covering = next(((rel, vs) for rel, vs in atoms if bag <= set(vs)), None)
        if covering is not None:
            rel, vs = covering
            b = storage.project(rel, [vs.index(v) for v in keep])
        else:
            views = []
            for edge in decomp.bag_cover[i].positive_edges():
                owner = next(
                    ((rel, vs) for rel, vs in atoms if (set(vs) & bag) == edge), None
                )
                if owner is None:
                    raise InternalError(f"no atom generates cover edge {sorted(edge)}")
                rel, vs = owner
                edge_keep = tuple(sorted(edge, key=order.position))
                views.append(
                    (storage.project(rel, [vs.index(v) for v in edge_keep]), edge_keep)
                )
            if len(views) < 2:
                raise InternalError("multi-atom path reached with fewer than two views")
            sq = SubQuery(keep, tuple(views))
            b = generic_join(sq, None, keep)
            multiatom_joins += 1
        col_of = {v: c for c, v in enumerate(keep)}
        for rel, vs in atoms:
            if set(vs) <= bag:
                pairs = [(col_of[v], c) for c, v in enumerate(vs)]
                b = storage.semijoin(b, rel, pairs)
        # Sorted rows group by interface with their candidates already sorted.
        candidates.append(
            {key: [row[-1] for row in rows] for key, rows in groupby(b.rows, lambda row: row[:-1])}
        )

    # Full reducer on the candidate maps: leaves up, then roots down.
    links = child_links(bag_vars, decomp.parent)
    for i in range(n - 1, -1, -1):
        if links[i]:
            reduced = {}
            for key, values in candidates[i].items():
                heads = [(candidates[c], tuple(key[k] for k in cols)) for c, cols in links[i]]
                kept = [v for v in values if all(h + (v,) in child for child, h in heads)]
                if kept:
                    reduced[key] = kept
            candidates[i] = reduced
    for i in range(n):
        for c, cols in links[i]:
            reached = {
                tuple(key[k] for k in cols) + (v,)
                for key, values in candidates[i].items()
                for v in values
            }
            candidates[c] = {key: vs for key, vs in candidates[c].items() if key in reached}

    tables, total = count_groups(bag_vars, decomp.parent, candidates)

    return AccessIndex(
        query=q,
        order=order,
        dictionary=db.dictionary,
        var_types=var_types,
        bags=bag_vars,
        parent=dict(decomp.parent),
        tables=tables,
        total_count=total,
        stats={
            "multiatom_joins": multiatom_joins,
            "bag_rows": [sum(map(len, groups.values())) for groups in candidates],
            "iota": str(decomp.iota),
        },
    )
