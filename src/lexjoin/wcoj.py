"""Multiway joins: a generic worst-case-optimal join and a brute-force oracle.

``generic_join`` is Generic Join over hash tries (Ngo, Ré, Rudra, "Skew
strikes back", SIGMOD Record 2013): each relation view becomes nested dicts
over its variables in a caller-chosen join order, filled from its rows sorted
in that order, so every trie node yields its keys in increasing order.  At
each variable the join iterates the keys of the view node with the fewest
children, keeps a value only if every other view node there has it as a key,
and descends into the children; its rows thus come out increasing in the join
order.  Once each variable left is the last variable of a view of its own,
those variables are independent: the rest of a row is the product of the
views' nodes (a factorised tail, as in Olteanu and Závodný, TODS 2015), one
``itertools.product`` call per prefix.  ``naive_join`` computes the same
answer set by filtering the product of the per-variable candidate domains; it
exists purely as a test oracle.  Neither knows of a database: views in, rows
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import itemgetter
from typing import Sequence

from .errors import InputError
from .storage import Relation


@dataclass(frozen=True)
class SubQuery:
    """Output variables plus atoms, each a relation view ``(Relation, variables)``."""

    output: tuple[str, ...]
    atoms: tuple[tuple[Relation, tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.output:
            raise InputError("subquery has no output variables")
        if len(set(self.output)) != len(self.output):
            raise InputError(f"output variables {list(self.output)} repeat a variable")
        covered = set()
        for rel, vs in self.atoms:
            if not isinstance(rel, Relation):
                raise InputError(f"atom over {vs} is {rel!r}, not a relation view")
            if rel.arity != len(vs):
                raise InputError(f"atom over {vs} does not match relation arity {rel.arity}")
            covered.update(vs)
        missing = set(self.output) - covered
        if missing:
            raise InputError(f"output variables {sorted(missing)} appear in no atom")
        stray = covered - set(self.output)
        if stray:
            raise InputError(f"atom variables {sorted(stray)} missing from the output")


def _collapse_repeats(rel: Relation, vs: tuple[str, ...]) -> tuple[Relation, tuple[str, ...]]:
    # R(x, x, y) becomes a view over distinct variables, keeping only rows
    # where the repeated columns agree.
    first: dict[str, int] = {}
    for idx, v in enumerate(vs):
        first.setdefault(v, idx)
    if len(first) == len(vs):
        return rel, vs
    cols = list(first.values())
    keep = []
    for row in rel.rows:
        if all(row[idx] == row[first[v]] for idx, v in enumerate(vs)):
            keep.append(tuple(row[c] for c in cols))
    return Relation(len(cols), keep), tuple(first.keys())


def _extend(users: list[list[int]], tail: int, prefix: tuple[int, ...], nodes: list, out: list) -> None:
    """Append to ``out`` every join row extending ``prefix``, in increasing order.

    ``nodes[a]`` is atom a's trie node under ``prefix``, None below its last
    variable; ``users[d]`` lists the atoms whose tries branch on variable d.
    From depth ``tail`` on, each variable is the last of its own view, so the
    rest of a row is the product of those views' nodes.
    A module function, not a closure: a closure calling itself sits in a
    reference cycle with ``out``, and would keep every row until cyclic GC ran.
    """
    depth = len(prefix)
    if depth == tail:
        out.extend(map(prefix.__add__, product(*[nodes[a] for a, in users[depth:]])))
        return
    here = [nodes[a] for a in users[depth]]
    lead = min(here, key=len)
    values = lead
    for node in here:
        if node is not lead:
            values = [v for v in values if v in node]
    if depth == len(users) - 1:
        out.extend(prefix + (v,) for v in values)
        return
    for value in values:
        below = nodes.copy()
        for a, node in zip(users[depth], here):
            below[a] = node[value]
        _extend(users, tail, prefix + (value,), below, out)


def generic_join(sq: SubQuery, order: Sequence[str]) -> Relation:
    """All assignments satisfying every view, in worst-case-optimal time, sorted in ``sq.output`` columns.

    ``order`` must enumerate the subquery variables; each view's hash trie
    nests its variables in that order, and the recursion binds them in it, so
    the rows come out increasing in ``order``.  When ``order`` is the output,
    they are neither permuted nor sorted.  A view with a repeated variable
    keeps the rows where those columns agree.
    """
    order = tuple(order)
    if sorted(order) != sorted(sq.output):
        raise InputError("join order must be a permutation of the output variables")
    pos = {v: i for i, v in enumerate(order)}

    # roots[a] is atom a's trie; users[d] lists the atoms whose tries branch on order[d].
    roots: list[dict] = []
    users: list[list[int]] = [[] for _ in order]
    for rel, vs in sq.atoms:
        rel, vs = _collapse_repeats(rel, vs)
        if len(rel) == 0:
            return Relation(len(sq.output), [])
        if not vs:  # a nullary view with its one row () constrains nothing
            continue
        *inner, leaf = cols = sorted(range(len(vs)), key=lambda c: pos[vs[c]])
        for c in cols:
            users[pos[vs[c]]].append(len(roots))
        trie: dict = {}  # filled in join order, so every node's keys increase
        for row in rel.rows if cols == sorted(cols) else sorted(rel.rows, key=itemgetter(*cols)):
            node = trie
            for c in inner:
                node = node.setdefault(row[c], {})
            node[row[leaf]] = None
        roots.append(trie)

    # The product tail: the longest suffix of variables that each have one user, all distinct.
    tail = len(order)
    while tail and len(users[tail - 1]) == 1 and users[tail - 1][0] not in sum(users[tail:], []):
        tail -= 1
    out: list[tuple[int, ...]] = []
    _extend(users, tail, (), roots, out)
    if order != sq.output:  # two or more columns, so itemgetter gives tuples
        out = list(map(itemgetter(*(pos[v] for v in sq.output)), out))
    return Relation(len(sq.output), out)


def naive_join(sq: SubQuery) -> Relation:
    """Oracle: filter the product of per-variable candidate domains of the views."""
    domains: dict[str, set[int] | None] = {v: None for v in sq.output}
    for rel, vs in sq.atoms:
        for col, v in enumerate(vs):
            values = {row[col] for row in rel.rows}
            domains[v] = values if domains[v] is None else domains[v] & values
    var_list = list(sq.output)
    pools = []
    for v in var_list:
        dom = domains[v]
        if not dom:
            return Relation(len(sq.output), [])
        pools.append(sorted(dom))
    rows = []
    row_sets = [(frozenset(rel.rows), vs) for rel, vs in sq.atoms]
    for combo in product(*pools):
        binding = dict(zip(var_list, combo))
        if all(tuple(binding[v] for v in vs) in rs for rs, vs in row_sets):
            rows.append(combo)
    return Relation(len(sq.output), rows)


def agm_bound_holds(out_size: int, cover_weights: Sequence[Fraction], sizes: Sequence[int]) -> bool:
    """Exact check of ``out_size <= prod(sizes[i] ** weights[i])``.

    Raised to the common denominator of the weights so both sides are
    integers; no floating point is involved.
    """
    weights = [Fraction(w) for w in cover_weights]
    if len(weights) != len(sizes):
        raise InputError("one weight per relation size is required")
    denom = lcm(*(w.denominator for w in weights)) if weights else 1
    lhs = out_size**denom
    rhs = 1
    for w, s in zip(weights, sizes):
        rhs *= s ** int(w * denom)
    return lhs <= rhs
