"""Order-induced decompositions and exact fractional cover machinery.

Given a query and a variable order, the engine adds one bag per variable:
walking the order backwards, each variable contributes the bag of itself
plus its earlier neighbors in the graph accumulated so far.  The resulting
bag hypergraph is acyclic, has no disruptive trio, and each bag's exact
fractional edge cover number (over the original atom scopes) bounds how
expensive that bag is to materialize.  The maximum of those numbers is the
incompatibility number of the (query, order) pair: 1 exactly in the easy
cases, larger as the order fights the query shape.

``decompose`` derives the bag forest once for build, load, counting and the
walks; the covers, and iota with them, are solved on first read.

All cover arithmetic is exact (``fractions.Fraction``); nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import hypergraph as hg
from . import simplex
from .errors import InputError, InternalError
from .hypergraph import Hypergraph
from .query import JoinQuery, VariableOrder, hypergraph_of


@dataclass(frozen=True)
class FractionalCover:
    """Edge weights in [0, 1] giving every vertex total incident weight >= 1."""

    weights: dict[frozenset[str], Fraction]
    total: Fraction

    def positive_edges(self) -> list[frozenset[str]]:
        return [e for e, w in self.weights.items() if w > 0]


def _caps(n: int) -> list[tuple[list[Fraction], Fraction]]:
    """The rows ``x_j <= 1``, one per variable."""
    return [([Fraction(i == j) for i in range(n)], Fraction(1)) for j in range(n)]


def fractional_edge_cover(h: Hypergraph) -> FractionalCover:
    """Optimal fractional edge cover of ``h``, solved exactly.

    Minimizes the total edge weight x subject to: each vertex is covered with
    weight at least one, each edge carries weight at most one.  Solved as the
    packing program in u = 1 - x: maximize the sum of u subject to, per
    vertex v, the u of its edges summing to at most deg(v) - 1, and u <= 1.
    The all-ones cover (u = 0) is feasible once every vertex is in an edge,
    so the simplex starts there.  A vertex in no edge is an input error.
    """
    edges = list(h.edges)
    uncovered = [v for v in h.vertices if not any(v in e for e in edges)]
    if uncovered:
        raise InputError(f"vertices {uncovered} are in no edge; no cover exists")
    incidence = [[Fraction(v in e) for e in edges] for v in h.vertices]
    constraints = [(row, sum(row) - 1) for row in incidence] + _caps(len(edges))
    saved, u = simplex.solve_max([Fraction(1)] * len(edges), constraints)
    weights = {e: 1 - u[j] for j, e in enumerate(edges)}
    return FractionalCover(weights, len(edges) - saved)


def fractional_independent_set(h: Hypergraph) -> tuple[Fraction, dict[str, Fraction]]:
    """Optimal fractional independent set; by LP duality equals the cover total."""
    verts = list(h.vertices)
    constraints = [([Fraction(v in e) for v in verts], Fraction(1)) for e in h.edges]
    value, y = simplex.solve_max([Fraction(1)] * len(verts), constraints + _caps(len(verts)))
    return value, dict(zip(verts, y))


def disruption_free_iterative(q: JoinQuery, order: VariableOrder) -> list[frozenset[str]]:
    """Bags by the backward sweep: each variable joins its earlier neighbors.

    Walking i from last to first, bag i is the variable plus its preceding
    neighbors in the hypergraph accumulated so far (original edges plus the
    bags already added).  Returns bags indexed by order position.
    """
    order.check_against(q)
    return _disruption_free_of_hypergraph(hypergraph_of(q), order)


def disruption_free_closed_form(q: JoinQuery, order: VariableOrder) -> list[frozenset[str]]:
    """Same bags, computed directly from the original hypergraph.

    Bag i is the variable plus every earlier neighbor of the connected
    component of the variable among the order's suffix.
    """
    order.check_against(q)
    h = hypergraph_of(q)
    vs = order.variables
    bags: list[frozenset[str]] = []
    for i, v in enumerate(vs):
        suffix = set(vs[i:])
        component = hg.component_from(h, v, suffix)
        reach = hg.neighbors(h, component)
        bags.append(frozenset({v} | {u for u in reach if order.position(u) < i}))
    return bags


def incompatibility_number(q: JoinQuery, order: VariableOrder) -> tuple[Fraction, int]:
    """Max over bags of the exact cover number of the induced original graph.

    Returns the value and the 0-based index of the first bag attaining it.
    """
    d = decompose(q, order)
    return d.iota, d.witness


def join_forest(bags: Sequence[frozenset[str]], order: VariableOrder) -> dict[int, int | None]:
    """Parent pointers: each bag hangs under the bag of its latest other member.

    Bag i owns variable i of the order; its parent is the position of the
    order-maximal member besides its own variable, or None for singleton
    bags.  The parent bag always contains the child's interface; a violation
    means the bags did not come from the decomposition and is an internal
    error.
    """
    parents: dict[int, int | None] = {}
    for i, bag in enumerate(bags):
        own = order.variables[i]
        if own not in bag:
            raise InternalError(f"bag {i} does not contain its own variable {own!r}")
        rest = [order.position(u) for u in bag if u != own]
        if any(p >= i for p in rest):
            raise InternalError(f"bag {i} contains variables after {own!r}")
        if not rest:
            parents[i] = None
            continue
        p = max(rest)
        parents[i] = p
        if not (bag - {own}) <= bags[p]:
            raise InternalError(f"running intersection violated between bags {i} and {p}")
    return parents


@dataclass(frozen=True)
class Decomposition:
    """The order-induced bag forest; the covers and iota are solved on first read."""

    query: JoinQuery
    order: VariableOrder
    bags: tuple[tuple[str, ...], ...]  # order-sorted, own variable last
    parent: dict[int, int | None]
    # Per bag, its children in order, each with the key columns it takes.
    links: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    roots: tuple[int, ...]

    @cached_property
    def bag_cover(self) -> tuple[FractionalCover, ...]:
        h = hypergraph_of(self.query)
        return tuple(fractional_edge_cover(hg.induced(h, bag)) for bag in self.bags)

    @property
    def witness(self) -> int:
        """The first bag whose cover number is iota."""
        totals = [cover.total for cover in self.bag_cover]
        return totals.index(max(totals))

    @property
    def iota(self) -> Fraction:
        return self.bag_cover[self.witness].total


@lru_cache(maxsize=64)
def decompose(q: JoinQuery, order: VariableOrder) -> Decomposition:
    """The bag forest of ``q`` under ``order``; cached, so callers must not mutate it.

    A child hangs under the bag of its latest interface variable, so its key
    is part of the parent's key followed by the parent's candidate:
    ``tuple(key[k] for k in cols) + (value,)`` for ``(child, cols)`` in links.
    """
    sets = disruption_free_iterative(q, order)
    parent = join_forest(sets, order)
    bags = tuple(tuple(sorted(bag, key=order.position)) for bag in sets)
    links: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in bags]
    for c, p in parent.items():
        if p is not None:
            links[p].append((c, tuple(bags[p].index(v) for v in bags[c][:-2])))
    roots = tuple(c for c, p in parent.items() if p is None)
    return Decomposition(q, order, bags, parent, tuple(map(tuple, links)), roots)


@dataclass(frozen=True)
class DecompositionReport:
    """What :func:`check_decomposition` found about a user-supplied bag set."""

    covers_all_edges: bool
    acyclic: bool
    trio_free: bool
    width: Fraction
    contains_disruption_free: bool


def check_decomposition(
    h: Hypergraph, bags: Sequence[frozenset[str]], order: VariableOrder
) -> DecompositionReport:
    """Evaluate an arbitrary decomposition of ``h`` against ``order``.

    Checks edge coverage, acyclicity of the bag hypergraph, absence of
    disruptive trios, the exact fractional width, and whether every bag of
    the order-induced decomposition fits inside some given bag (it must, for
    any trio-free decomposition).
    """
    if sorted(order.variables) != sorted(h.vertices):
        raise InputError("order must be a permutation of the hypergraph vertices")
    bag_list = [frozenset(b) for b in bags]
    covers_all = all(any(e <= b for b in bag_list) for e in h.edges)
    bag_h = Hypergraph.build(
        [h.sorted_vertices(b) for b in bag_list], vertices=h.vertices
    )
    acyclic = hg.gyo_reduce(bag_h).acyclic
    trio_free = not hg.disruptive_trios(bag_h, order.variables)
    width = Fraction(0)
    for b in bag_list:
        width = max(width, fractional_edge_cover(hg.induced(h, b)).total)
    reference = _disruption_free_of_hypergraph(h, order)
    contains = all(any(e <= b for b in bag_list) for e in reference)
    return DecompositionReport(covers_all, acyclic, trio_free, width, contains)


def _disruption_free_of_hypergraph(h: Hypergraph, order: VariableOrder) -> list[frozenset[str]]:
    # Same backward sweep as the query version, working on a bare hypergraph.
    vs = order.variables
    pos = {v: i for i, v in enumerate(vs)}
    edges = list(h.edges)
    out: list[frozenset[str]] = [frozenset()] * len(vs)
    for i in range(len(vs) - 1, -1, -1):
        v = vs[i]
        members = {v}
        for e in edges:
            if v in e:
                members.update(u for u in e if pos[u] < i)
        bag = frozenset(members)
        out[i] = bag
        edges.append(bag)
    return out
