"""The direct-access index: preprocessing once, then answers on demand.

Build phase, driven by the order-induced decomposition, whose bag forest
(bags in order with their own variable last, child links, roots) comes from
``decompose`` alone; the index copies it for the walks.

1. one relation per bag, from the last bag to the first.  A bag inside a
   later bag is that bag's projection.  Any other bag comes from its optimal
   fractional edge cover: each positive edge is a view of the first atom
   meeting the bag in exactly that edge (projected unless already in bag
   order).  One edge is the whole bag, the cheap rho* = 1 case; two or more
   views go to the generic join, variables in the most views first;
2. each joined bag is semijoined with the atoms inside it that own none of
   its edges, so it enforces every atom inside it, and so do its projections;
3. each bag's sorted rows become a map from interface (all columns except
   the bag's own variable) to sorted candidates;
4. the full reducer runs on these maps, and its leaves-up half is the
   counting pass shared with load (``count_groups``): last bag first, a
   candidate's completion count is the product of its children's group
   totals, a candidate with no group in a child bag is dropped, and so is a
   group left empty; each group keeps prefix sums of its counts.  Roots
   down, a child group stays when some parent candidate reaches it, which
   changes no count.  Every candidate left extends to an answer.

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

    def rows(self) -> int:
        """Candidates over all groups: the bag's rows."""
        return sum(len(values) for values, _ in self.groups.values())


@dataclass
class AccessIndex:
    """Everything needed to serve access calls; immutable once built."""

    decomp: Decomposition
    dictionary: storage.ValueDictionary
    var_types: dict[str, str]
    tables: tuple[GroupTable, ...]
    total_count: int
    stats: dict = field(default_factory=dict)

    # Copied from decomp in __post_init__, so the walks read them directly.
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
# build; count_groups is shared with load


def count_groups(
    decomp: Decomposition, candidates: Sequence[dict[tuple[int, ...], list[int]]]
) -> tuple[tuple[GroupTable, ...], int]:
    """The full reducer's leaves-up half: group tables with prefix sums, and the answer count.

    ``candidates[i]`` maps each interface key of bag i to its sorted, non-empty
    candidates.  A candidate's weight is the product of its children's group
    totals; one with no group in some child bag has none and is dropped, and
    so is a group left empty.
    """
    n = len(decomp.bags)
    tables: list[GroupTable | None] = [None] * n
    for i in range(n - 1, -1, -1):
        kids = [(tables[c].groups, cols) for c, cols in decomp.links[i]]
        groups: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        for key, values in candidates[i].items():
            heads = [(child, tuple(key[k] for k in cols)) for child, cols in kids]
            prefix: list[int] = []
            running = 0
            lost = False
            for value in values:
                w = 1
                for child, head in heads:
                    entry = child.get(head + (value,))
                    if entry is None:
                        w = 0
                        lost = True
                        break
                    w *= entry[1][-1]
                running += w
                prefix.append(running)
            if lost:  # a dropped candidate leaves the prefix sum where it was
                kept = [k for k, p in enumerate(prefix) if p != (prefix[k - 1] if k else 0)]
                values, prefix = [values[k] for k in kept], [prefix[k] for k in kept]
            if values:
                groups[key] = (values, prefix)
        tables[i] = GroupTable(groups)
    total = prod(tables[i].total(()) for i in decomp.roots)
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
    bags = decomp.bags
    n = len(bags)
    multiatom_joins = 0

    # Views over distinct variables: rows where repeated-variable columns agree.
    atoms = [_collapse_repeats(db.relation(sym), vs) for sym, vs in q.atoms]

    # Last to first, as a bag's supersets come later (its own variable is its
    # latest); a bag inside one is its projection, which enforces its atoms.
    rels: list[storage.Relation | None] = [None] * n
    candidates: list[dict[tuple[int, ...], list[int]]] = [{}] * n
    for i in range(n - 1, -1, -1):
        keep = bags[i]
        bag = frozenset(keep)
        j = next((j for j in range(i + 1, n) if bag.issubset(bags[j])), None)
        if j is not None:
            b = storage.project(rels[j], [bags[j].index(v) for v in keep])
        else:
            # One view per positive cover edge, from the first atom meeting the bag
            # in exactly that edge; an atom whose whole scope is the edge is its owner.
            views, owners = [], set()
            for edge in decomp.bag_cover[i].positive_edges():
                meets = (a for a, (_, vs) in enumerate(atoms) if bag.intersection(vs) == edge)
                a = next(meets, None)
                if a is None:
                    raise InternalError(f"no atom generates cover edge {sorted(edge)}")
                rel, vs = atoms[a]
                edge_keep = tuple(sorted(edge, key=order.position))
                if vs != edge_keep:
                    rel = storage.project(rel, [vs.index(v) for v in edge_keep])
                if len(vs) == len(edge):
                    owners.add(a)
                views.append((rel, edge_keep))
            if len(views) == 1:  # a single edge is the whole bag
                b = views[0][0]
            else:  # join the variables in most views first, ties in order
                by_views = sorted(keep, key=lambda v: -sum(v in vs for _, vs in views))
                b = generic_join(SubQuery(keep, tuple(views)), None, by_views)
                multiatom_joins += 1
            # Owners' rows already bound b; by position, as self-joins share a Relation.
            col_of = {v: c for c, v in enumerate(keep)}
            for a, (rel, vs) in enumerate(atoms):
                if a not in owners and bag.issuperset(vs):
                    b = storage.semijoin(b, rel, [(col_of[v], c) for c, v in enumerate(vs)])
        rels[i] = b
        # Sorted rows group by interface with their candidates already sorted.
        candidates[i] = {
            key: [row[-1] for row in rows] for key, rows in groupby(b.rows, lambda row: row[:-1])
        }
    del rels

    # Leaves up with the counts, then roots down: an unreached group changes no count.
    tables, total = count_groups(decomp, candidates)
    for i, links in enumerate(decomp.links):
        for c, cols in links:
            reached = {
                tuple(key[k] for k in cols) + (v,)
                for key, (values, _) in tables[i].groups.items()
                for v in values
            }
            if len(reached) < len(tables[c].groups):  # each reached key has a group
                tables[c].groups = {k: e for k, e in tables[c].groups.items() if k in reached}

    return AccessIndex(
        decomp=decomp,
        dictionary=db.dictionary,
        var_types=var_types,
        tables=tables,
        total_count=total,
        stats={
            "multiatom_joins": multiatom_joins,
            "bag_rows": [table.rows() for table in tables],
            "iota": str(decomp.iota),
        },
    )
